"""Exact `--format text` output, one case per kind of document, and the
README's examples run as written."""

import contextlib
import io
import json
import os
import re

import pytest

from mahlersolve.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _terms(*pairs):
    return [[e, c] for e, c in pairs]


def _op(radix, *coefficients):
    """An operator document; coefficient k is a list of (exponent, str) pairs."""
    return {
        "radix": radix,
        "coefficients": [{"order": k, "terms": _terms(*t)} for k, t in enumerate(coefficients) if t],
    }


OPERATORS = {
    # y(x^2) = (1 + x) y(x): the polynomial solution 1 - x
    "linear": _op(2, [(0, "-1"), (1, "-1")], [(0, "1")]),
    # x (1 + x) y(x^2) = y(x): the rational solution 1 / (x (1 - x))
    "pole": _op(2, [(0, "-1")], [(1, "1"), (2, "1")]),
    # l_0 = 0: normalizes to M - 2 - 2x
    "lazy": _op(2, [], [(0, "-2"), (2, "-2")], [(0, "1")]),
    # M^2 - (1 + x) M + x and (M + x)(M - 1): right divisor M - 1
    "a": _op(2, [(1, "1")], [(0, "-1"), (1, "-1")], [(0, "1")]),
    "b": _op(2, [(1, "-1")], [(0, "-1"), (1, "1")], [(0, "1")]),
    # (1 + x) y(x^2) = y(x): the rational solution 1 / (1 - x)
    "geom": _op(2, [(0, "-1")], [(0, "1"), (1, "1")]),
}

CASES = [
    (("series", "linear", "--order", "5"), "series_basis (dimension 1)\n[1] 1 -x + O(x^6)\n"),
    (("poly", "linear"), "polynomial_basis (dimension 1)\n[1] 1 -x\n"),
    (("rational", "pole"), "rational_basis (dimension 1)\n[1] (-1) / (-1 + x) / x^1\n"),
    (("normalize", "lazy"), "normalized_operator:\n  M^0: -2 -2*x\n  M^1: 1\ncontent: 1\n"),
    (("gcrd", "a", "b"), "gcrd:\n  M^0: -1\n  M^1: 1\ncontent: -2\n"),
    (
        ("transcendence", "geom", "--initial", "1,1,1,1"),
        "rational (method: rational-basis); witness (-1) / (-1 + x)\n",
    ),
    (("transcendence", "a", "--initial", "0,1,1,0,1"), "transcendental (method: rational-basis)\n"),
    (
        ("transcendence", "a", "--initial", "0,1,1,0,1,0,0,0,1,0,0,0,0,0,0,0,1,0,0,0", "--oracle", "bell-coons"),
        "transcendental (method: bell-coons)\n",
    ),
]


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("argv, expected", CASES, ids=[" ".join(a[:1] + a[2:]) for a, _ in CASES])
def test_text_output(argv, expected, tmp_path):
    for name, doc in OPERATORS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / f"{a}.json") if a in OPERATORS else a for a in argv]
    assert _stdout([*argv, "--format", "text"]) == (0, expected)


def _blocks(language):
    with open(README) as fh:
        return re.findall(rf"^```{language}\n(.*?)^```", fh.read(), re.S | re.M)


def test_readme_cli_example(tmp_path, monkeypatch):
    # the operator document and the two sessions after it, verbatim
    (operator_doc,) = _blocks("json")
    (tmp_path / "run-example.json").write_text(operator_doc)
    monkeypatch.chdir(tmp_path)
    (session,) = _blocks("sh")[1:]
    commands = 0
    for block in session.strip().split("\n\n"):
        command, *expected = block.splitlines()
        program, *argv = command.removeprefix("$ ").split()
        assert program == "mahlersolve"
        assert _stdout(argv) == (0, "\n".join(expected) + "\n")
        commands += 1
    assert commands == 2


def test_readme_library_example():
    (snippet,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, README, "exec"), {})
    assert out.getvalue() == "2\n1\n"

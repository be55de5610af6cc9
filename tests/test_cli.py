import ast
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import operator, pol
from mahlersolve import cli
from mahlersolve.cli import build_parser, main
from mahlersolve.poly import Poly
from mahlersolve.serialize import operator_to_json

F = Fraction


@pytest.fixture()
def run(capsys):
    def inner(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return inner


@pytest.fixture()
def running_example_file(tmp_path, running_example):
    path = tmp_path / "run-example.json"
    path.write_text(json.dumps(operator_to_json(running_example)))
    return str(path)


@pytest.fixture()
def rat_example_file(tmp_path, rat_example):
    path = tmp_path / "ex-rat.json"
    path.write_text(json.dumps(operator_to_json(rat_example)))
    return str(path)


def test_series_command(run, running_example_file):
    code, out, _ = run("series", running_example_file, "--order", "12", "--certify")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "series_basis"
    assert doc["dimension"] == 1
    assert doc["elements"][0]["terms"][:3] == [["3", "1"], ["4", "-1"], ["5", "1"]]
    assert doc["elements"][0]["truncation_order"] == "13"
    assert "certified_order" in doc["elements"][0]


def test_series_text_format(run, running_example_file):
    code, out, _ = run("series", running_example_file, "--order", "5", "--format", "text")
    assert code == 0
    assert "series_basis (dimension 1)" in out
    assert "x^3" in out


def test_newton_command(run, running_example_file):
    code, out, _ = run("newton", running_example_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["nu"] == "3" and doc["mu"] == "9"
    assert doc["Q"] == [1, 2] and doc["N"] == 2
    slopes = [e["slope"] for e in doc["lower"]]
    assert slopes == ["-3", "1/2"]
    assert all(e["admissible"] for e in doc["lower"])


def test_puiseux_command(run, running_example_file):
    code, out, _ = run("puiseux", running_example_file, "--order", "5", "--certify")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 2
    assert doc["ramification"] == 2
    ramified = [e for e in doc["elements"] if e["terms"][0][0] == "-1/2"]
    assert len(ramified) == 1
    assert ramified[0]["terms"] == [
        ["-1/2", "1"],
        ["1/2", "-1"],
        ["3/2", "1"],
        ["5/2", "-1"],
        ["7/2", "1"],
        ["9/2", "-1"],
    ]
    assert ramified[0]["truncation_order"] == "11/2"


def test_puiseux_explicit_ramification(run, running_example_file):
    # restricting to integral exponents keeps only the power-series family
    code, out, _ = run(
        "puiseux", running_example_file, "--order", "5", "--ramification", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 1
    assert doc["elements"][0]["terms"][0] == ["3", "1"]


def test_rational_command(run, rat_example_file):
    code, out, _ = run("rational", rat_example_file, "--certify")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "rational_basis"
    assert doc["dimension"] == 2
    assert all(e.get("certified") for e in doc["elements"])


def test_poly_command(run, tmp_path):
    op = operator(2, -Poly.one(), Poly.one())
    path = tmp_path / "op.json"
    path.write_text(json.dumps(operator_to_json(op)))
    code, out, _ = run("poly", str(path), "--certify")
    doc = json.loads(out)
    assert code == 0
    assert doc["dimension"] == 1
    assert doc["elements"][0]["terms"] == [[0, "1"]]


@pytest.fixture()
def far_file(tmp_path):
    """x^N y(x) - y(x^2), N = 10^9: the one solution x^N sits at the far
    end of a window N + 1 wide."""
    path = tmp_path / "far.json"
    path.write_text(json.dumps(operator_to_json(operator(2, Poly.monomial(10**9, 1), -Poly.one()))))
    return str(path)


def test_solving_cost_follows_the_answer(run, far_file):
    # only position N is seeded and nothing else is reached
    n = 10**9
    start = time.perf_counter()
    code, out, _ = run("series", far_file, "--order", "5", "--certify")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    (elem,) = json.loads(out)["elements"]
    assert elem["terms"] == [[str(n), "1"]]
    assert elem["truncation_order"] == str(n + 1)
    start = time.perf_counter()
    code, out, _ = run("poly", far_file)
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert json.loads(out)["elements"] == [{"terms": [[n, "1"]]}]


def test_puiseux_keeps_the_window_head(run, far_file):
    # --order 5 lies below the one term x^(10^9): the element must not be cut there
    code, out, _ = run("puiseux", far_file, "--order", "5", "--certify")
    assert code == 0
    code, series_out, _ = run("series", far_file, "--order", "5", "--certify")
    assert code == 0
    (elem,) = json.loads(out)["elements"]
    assert elem == json.loads(series_out)["elements"][0]
    assert elem["terms"] == [[str(10**9), "1"]]


def test_normalize_command(run, tmp_path, reduction_example, reduction_example_normalized):
    path = tmp_path / "red.json"
    path.write_text(json.dumps(operator_to_json(reduction_example)))
    code, out, _ = run("normalize", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "normalized_operator"
    from mahlersolve.serialize import parse_operator

    assert parse_operator(doc) == reduction_example_normalized
    assert doc["content"]


def test_gcrd_command(run, tmp_path):
    g = operator(2, -Poly.one(), Poly.one())
    a = operator(2, -Poly.x(), Poly.one()) * g
    b = operator(2, pol(0, 0, 1), Poly.one()) * g
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(json.dumps(operator_to_json(a)))
    pb.write_text(json.dumps(operator_to_json(b)))
    code, out, _ = run("gcrd", str(pa), str(pb), "--certify")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "gcrd"
    orders = [entry["order"] for entry in doc["coefficients"]]
    assert max(orders) == 1
    # single-file gcrd of an operator with nonzero trailing coefficient
    code, out, _ = run("gcrd", str(pa))
    assert code == 0
    assert max(e["order"] for e in json.loads(out)["coefficients"]) == a.order


def test_transcendence_command(run, tmp_path):
    op = operator(2, Poly.x(), -pol(1, 1), Poly.one())
    path = tmp_path / "op.json"
    path.write_text(json.dumps(operator_to_json(op)))
    code, out, _ = run("transcendence", str(path), "--initial", "0,1,1,0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "transcendental"
    code, out, _ = run("transcendence", str(path), "--initial", "1,0,0,0,0")
    doc = json.loads(out)
    assert doc["verdict"] == "rational"
    assert doc["witness"]["numerator"] == [[0, "1"]]
    code, out, _ = run(
        "transcendence", str(path), "--initial", "0,1,1,0,1,0,0,0,1,0,0,0,0,0,0,0,1,0,0,0",
        "--oracle", "bell-coons",
    )
    doc = json.loads(out)
    assert doc["verdict"] == "transcendental" and doc["method"] == "bell-coons"


def test_transcendence_order_zero(run, tmp_path):
    # l_0 y = 0 has only the zero solution; both oracles must say so
    path = tmp_path / "order0.json"
    path.write_text(json.dumps(operator_to_json(operator(2, pol(1, 1)))))
    for oracle in ("rational-basis", "bell-coons"):
        code, _, err = run("transcendence", str(path), "--initial", "1,0", "--oracle", oracle)
        assert code == 2
        assert json.loads(err)["message"] == "prefix extends to no series solution"
        code, out, _ = run("transcendence", str(path), "--initial", "0,0,0", "--oracle", oracle)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "rational" and doc["method"] == oracle


@pytest.mark.parametrize(
    "argv, message",
    [
        (("puiseux", "--order", "5", "--ramification", "0"), "must be >= 1, got 0"),
        (("puiseux", "--order", "5", "--ramification", "-1"), "must be >= 1, got -1"),
        (("puiseux", "--order", "-1"), "must be >= 0, got -1"),
        (("series", "--order", "-3"), "must be >= 0, got -3"),
        (("series", "--order", "three"), "invalid integer: 'three'"),
    ],
)
def test_argument_ranges(argv, message, running_example_file, capsys):
    command, *flags = argv
    with pytest.raises(SystemExit) as exc:
        main([command, running_example_file, *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_puiseux_invariant_exit(run, running_example_file, monkeypatch):
    # an edge whose data is not integral for the ramification is a bug:
    # exit 5 with a message, not a traceback
    from mahlersolve import solver

    monkeypatch.setattr(
        solver, "select_edge_for_ramification", lambda op, q: (F(1, 3), F(0))
    )
    code, _, err = run("puiseux", running_example_file, "--order", "5", "--ramification", "1")
    assert code == 5
    assert "not integral" in json.loads(err)["message"]


def test_certify_failure_exit(run, running_example_file, monkeypatch):
    # a residual term below the certified order fails the certificate: exit 5
    from mahlersolve import solver

    monkeypatch.setattr(solver, "image_below", lambda op, nums, limit, scale: (1, {0: 1}))
    code, out, err = run("series", running_example_file, "--order", "12", "--certify")
    assert code == 5
    assert not out
    assert "residual has a term of exponent 0 below 19" in json.loads(err)["message"]


def test_stdin_input(running_example, monkeypatch, capsys):
    import io

    doc = json.dumps(operator_to_json(running_example)).encode()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(doc), encoding="utf-8"))
    code = main(["newton", "-"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["N"] == 2


@pytest.mark.parametrize(
    "form",
    [
        ("newton",),
        ("series", "--order", "3"),
        ("poly",),
        ("rational",),
        ("puiseux", "--order", "3"),
        ("puiseux", "--order", "3", "--ramification", "2"),
        ("normalize",),
        ("gcrd",),
        ("transcendence", "--initial", "1,0"),
        ("transcendence", "--initial", "1,0", "--oracle", "bell-coons"),
    ],
    ids=" ".join,
)
def test_zero_operator_exits_unsupported(run, tmp_path, form):
    # the library rejects the zero operator on every subcommand, so the
    # CLI needs no check of its own
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"radix": 2, "coefficients": []}))
    code, out, err = run(form[0], str(zero), *form[1:])
    assert code == 3 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == 3 and "Traceback" not in err


def test_error_exits(run, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run("series", str(bad), "--order", "3")
    assert code == 2
    assert json.loads(err)["error"] == 2

    missing = tmp_path / "nope.json"
    code, _, _ = run("series", str(missing), "--order", "3")
    assert code == 2

    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"radix": 2, "coefficients": []}))
    code, _, err = run("series", str(zero), "--order", "3")
    assert code == 3

    overflow = tmp_path / "overflow.json"
    overflow.write_text(
        json.dumps({"radix": 2, "coefficients": [{"order": 0, "terms": [[2**64, "1"]]}]})
    )
    code, _, err = run("series", str(overflow), "--order", "3")
    assert code == 4

    lop = operator(2, Poly.zero(), -Poly.one(), Poly.one())
    noauto = tmp_path / "noauto.json"
    noauto.write_text(json.dumps(operator_to_json(lop)))
    code, _, _ = run("series", str(noauto), "--order", "3", "--no-auto-normalize")
    assert code == 3
    code, _, _ = run("series", str(noauto), "--order", "3")
    assert code == 0

    a = tmp_path / "r2.json"
    b = tmp_path / "r3.json"
    a.write_text(json.dumps(operator_to_json(operator(2, Poly.one()))))
    b.write_text(json.dumps(operator_to_json(operator(3, Poly.one()))))
    code, _, _ = run("gcrd", str(a), str(b))
    assert code == 3


def test_console_script_entry_point(tmp_path, running_example):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(operator_to_json(running_example)))
    proc = subprocess.run(
        [sys.executable, "-m", "mahlersolve.cli", "series", str(path), "--order", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dimension"] == 1


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_calls_in_a_row_match_calls_alone(run, running_example_file, tmp_path):
    # the parser is shared between calls: no option of one request may
    # leak into the next
    path = tmp_path / "lop.json"
    path.write_text(json.dumps(operator_to_json(operator(2, Poly.x(), -pol(1, 1), Poly.one()))))
    requests = [
        ("series", running_example_file, "--order", "6", "--certify"),
        ("puiseux", running_example_file, "--order", "4", "--ramification", "1"),
        ("puiseux", running_example_file, "--order", "4"),
        ("poly", str(path)),
        ("transcendence", str(path), "--initial", "0,1,1,0,1", "--oracle", "bell-coons"),
        ("transcendence", str(path), "--initial", "1,0,0,0,0"),
        ("newton", running_example_file, "--format", "text"),
        ("series", running_example_file, "--order", "6"),
    ]
    alone = []
    for argv in requests:
        build_parser.cache_clear()
        alone.append(run(*argv))
    build_parser.cache_clear()
    assert [run(*argv) for argv in requests] == alone
    assert all(code == 0 for code, _, _ in alone)


def test_no_private_cross_module_imports():
    package = os.path.dirname(cli.__file__)
    offenders = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("mahlersolve")):
                offenders += [(name, a.name) for a in node.names if a.name.startswith("_")]
    assert offenders == []


def test_no_unused_module_names():
    # a module-level import, or a module-level _private name, that its
    # module never reads again is dead code left behind by a refactor
    package = os.path.dirname(cli.__file__)
    offenders = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        imported, private = [], []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                private.append(node.name)
            elif isinstance(node, ast.Assign):
                private += [t.id for t in node.targets if isinstance(t, ast.Name)]
        private = [n for n in private if n.startswith("_") and not n.startswith("__")]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        offenders += [(name, n) for n in imported + private if n not in read]
    assert offenders == []


def test_no_untyped_errors_or_asserts():
    # library validation raises typed MahlerErrors; an assert vanishes
    # under python -O and an untyped raise escapes the exit-code contract
    package = os.path.dirname(cli.__file__)
    offenders = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                offenders.append((name, node.lineno, "assert"))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "AssertionError"):
                    offenders.append((name, node.lineno, exc.id))
    assert offenders == []


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv), argparse's exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dispatch_matches_the_top_level_parser(running_example_file, rat_example_file, tmp_path, monkeypatch, capsys):
    # `main` hands a known subcommand's arguments straight to its parser;
    # every outcome must be the one of parsing through the top-level parser
    f, g = running_example_file, rat_example_file
    argvs = [
        ("newton", f),
        ("newton", f, "--format", "text"),
        ("series", f, "--order", "6", "--certify"),
        ("poly", g),
        ("rational", g, "--certify"),
        ("puiseux", f, "--order", "4"),
        ("puiseux", f, "--order", "4", "--ramification", "2"),
        ("normalize", g),
        ("gcrd", f, g),
        ("transcendence", f, "--initial", "0,0,0,1", "--oracle", "bell-coons"),
        ("-h",),
        ("series", "-h"),
        (),
        ("frobnicate", f),
        ("newton", str(tmp_path / "missing.json")),
        ("series", f, "--order", "-1"),
        ("series", f, "--order=5"),
        ("series", f, "--order", "3", "--cert"),
        ("poly", f, "--no-auto-normalize"),
        ("newton", f, "--bogus", "extra"),
        ("newton", f, "--format"),
        ("gcrd", f, g, f, "--certify"),
        ("--format", "json", "newton", f),
    ]
    direct = [_outcome(argv, capsys) for argv in argvs]
    monkeypatch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
    assert [_outcome(argv, capsys) for argv in argvs] == direct
    assert [code for code, _, _ in direct] == [0] * 10 + [0, 0, 2, 2, 2, 2, 0, 0, 0, 2, 2, 0, 2]


MALFORMED = {
    "not-utf8.json": b'{"radix": 2, "coefficients": [{"order": 0, "terms": [[0, "1\xff"]]}]}',
    "bom.json": b'\xef\xbb\xbf{"radix": 2, "coefficients": []}',
    "empty.json": b"",
    "deep.json": b"[" * 100000 + b"]" * 100000,
    "list.json": b"[1, 2]",
    "radix.json": b'{"radix": 1, "coefficients": []}',
    "exponent.json": b'{"radix": 2, "coefficients": [{"order": 0, "terms": [[-1, "1"]]}]}',
    "coefficient.json": b'{"radix": 2, "coefficients": [{"order": 1, "terms": [[0, "1/0"]]}]}',
}

SUBCOMMANDS = [
    ("newton",),
    ("series", "--order", "3"),
    ("poly",),
    ("rational",),
    ("puiseux", "--order", "3"),
    ("normalize",),
    ("gcrd",),
    ("transcendence", "--initial", "1,0"),
]


@pytest.mark.parametrize("form", SUBCOMMANDS, ids=" ".join)
def test_malformed_input_exits_2(form, tmp_path, capsys):
    # the README's exit-code contract: malformed input exits 2 with one
    # JSON line on stderr and no traceback, on every subcommand
    paths = [str(tmp_path), str(tmp_path / "missing.json")]
    for name, data in MALFORMED.items():
        (tmp_path / name).write_bytes(data)
        paths.append(str(tmp_path / name))
    for path in paths:
        code, out, err = _outcome([form[0], path, *form[1:]], capsys)
        assert code == 2 and out == "", path
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == 2 and "Traceback" not in err


def test_undecodable_input(tmp_path, running_example, monkeypatch, capsys):
    import io

    bad = tmp_path / "bad.json"
    bad.write_bytes(MALFORMED["not-utf8.json"])
    code, _, err = _outcome(["newton", str(bad)], capsys)
    assert code == 2 and "'utf-8' codec can't decode byte 0xff" in json.loads(err)["message"]
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + json.dumps(operator_to_json(running_example)).encode())
    code, _, err = _outcome(["newton", str(bom)], capsys)
    assert code == 2
    assert "Unexpected UTF-8 BOM (decode using utf-8-sig)" in json.loads(err)["message"]
    # a stdin that decodes strictly, as under a UTF-8 locale, fails the same way
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes()), encoding="utf-8"))
    code, _, err = _outcome(["newton", "-"], capsys)
    assert code == 2 and "can't decode byte 0xff" in json.loads(err)["message"]




def test_undecodable_key_exits_2_on_every_path(tmp_path, running_example, monkeypatch, capsys):
    # a byte 0xff in a key the parser ignores, and a BOM: stdin is decoded
    # as a file is, even when the interpreter opened it with surrogate
    # escapes (as in UTF-8 mode under a C locale)
    import io

    data = json.dumps({**operator_to_json(running_example), "note": 1}).encode()
    path = tmp_path / "input.json"
    for payload in (data.replace(b'"note"', b'"note\xff"'), b"\xef\xbb\xbf" + data):
        path.write_bytes(payload)
        from_file = _outcome(["newton", str(path)], capsys)
        stdin = io.TextIOWrapper(io.BytesIO(payload), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        from_stdin = _outcome(["newton", "-"], capsys)
        assert from_file[:2] == from_stdin[:2] == (2, "")
        assert json.loads(from_file[2])["message"].replace(str(path), "-") == json.loads(from_stdin[2])["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "F", "--order", str(10**20)),
        ("puiseux", "F", "--order", str(10**20)),
        ("transcendence", "G", "--initial", "1,0,0", "--oracle", "bell-coons"),
        ("transcendence", "H", "--initial", "1,0,0", "--oracle", "bell-coons"),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_sizes_beyond_the_exponent_range_exit_4(argv, tmp_path, capsys):
    # a truncation order or a Bell-Coons prefix length past MAX_EXPONENT is
    # an exponent overflow, not an OverflowError traceback
    operators = {
        "F": operator(2, pol(-1, 1), Poly.one()),
        "G": operator(2, Poly.one(), Poly.monomial(2**63 - 1, 1)),
        "H": operator(2, -Poly.one(), *[Poly.zero()] * 69, Poly.one()),
    }
    for name, op in operators.items():
        (tmp_path / name).write_text(json.dumps(operator_to_json(op)))
    code, out, err = _outcome([argv[0], str(tmp_path / argv[1]), *argv[2:]], capsys)
    assert code == 4 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == 4 and "Traceback" not in err


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_exit_codes_by_class():
    # the README's exit codes: 3 unsupported equation, 4 exponent overflow,
    # 5 internal invariant violation, 2 any other (malformed input)
    from mahlersolve.errors import (
        ExponentOverflowError,
        InternalInvariantError,
        MahlerError,
        UnsupportedEquationError,
    )

    codes = {UnsupportedEquationError: 3, ExponentOverflowError: 4, InternalInvariantError: 5}
    classes = [MahlerError, *_subclasses(MahlerError)]
    assert len(classes) == 14
    for cls in classes:
        expected = next((c for base, c in codes.items() if issubclass(cls, base)), 2)
        assert cls.exit_code == expected, cls.__name__


def _readme_flag_table() -> dict:
    """Subcommand -> the option strings the README's flag table gives it."""
    with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")) as fh:
        rows = [line for line in fh if line.startswith("| `--")]
    table = {name: {"-h", "--help"} for name in build_parser().commands}
    for row in rows:
        flags_cell, commands_cell = re.split(r"(?<!\\)\|", row)[1:3]
        commands = table if commands_cell.strip() == "all" else commands_cell.strip().split(", ")
        for name in commands:
            table[name] |= set(re.findall(r"`(--[a-z-]+)", flags_cell))
    return table


def test_each_subcommand_takes_its_documented_flags():
    table = _readme_flag_table()
    assert table["series"] == {
        "-h", "--help", "--order", "--auto-normalize", "--no-auto-normalize", "--format", "--certify"
    }
    assert "--certify" not in table["newton"] | table["normalize"] | table["transcendence"]
    for name, parser in build_parser().commands.items():
        taken = {flag for action in parser._actions for flag in action.option_strings}
        assert taken == table[name], name

import ast
import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TEST_TIME_LIMIT_S, TimeLimitExceeded, operator, pol
from mahlersolve import cli
from mahlersolve.cli import build_parser, main
from mahlersolve.poly import Poly
from mahlersolve.serialize import operator_to_json


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
    # a prefix entry is a coefficient string as in an operator file:
    # ASCII digits only, with nothing after them
    for entry in ("-\u0661", "1\n", "1.5"):
        code, out, err = run("transcendence", str(path), "--initial", "0," + entry)
        assert code == 2 and out == ""
        assert json.loads(err)["message"] == f"bad coefficient {entry!r}"
    code, _, _ = run("transcendence", str(path), "--initial", "1, 0, 0")
    assert code == 0


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


def test_transcendence_head_breaks_a_relation_row(run, tmp_path, running_example):
    # extend_prefix rejects the head 1,1,1,1 at its first broken row; a head that
    # holds with a tail that differs fails the closing comparison
    path = tmp_path / "running.json"
    path.write_text(json.dumps(operator_to_json(running_example)))
    for oracle in ("rational-basis", "bell-coons"):
        code, _, err = run("transcendence", str(path), "--initial", "1,1,1,1,0", "--oracle", oracle)
        assert code == 2
        assert json.loads(err)["message"] == "prefix violates the relation for the coefficient of x^0"
        code, _, err = run("transcendence", str(path), "--initial", "0,0,0,1,0,0", "--oracle", oracle)
        assert code == 2
        assert json.loads(err)["message"] == "prefix extends to no series solution"


def _fractions_built(monkeypatch) -> Counter:
    """Count every Fraction built from now on under the innermost
    `mahlersolve` function that builds it, as "module.function"."""
    built = Counter()
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while frame and not frame.f_globals.get("__name__", "").startswith("mahlersolve."):
            frame = frame.f_back
        if frame:
            module = frame.f_globals["__name__"].removeprefix("mahlersolve.")
            built[f"{module}.{frame.f_code.co_name}"] += 1
        else:
            built["outside mahlersolve"] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return built


def test_requests_on_integers_build_no_fraction(
    run, monkeypatch, tmp_path, running_example, rat_example, reduction_example
):
    # on integer input with integral orders no subcommand builds a
    # Fraction, in JSON or in text; a transcendence request builds one
    # only for a prefix entry that is not integral
    g = operator(2, -Poly.one(), Poly.one())
    ops = {
        "running": running_example,
        "rat": rat_example,
        "reduction": reduction_example,
        "a": operator(2, -Poly.x(), Poly.one()) * g,
        "b": operator(2, pol(0, 0, 1), Poly.one()) * g,
        "two_polys": operator(2, pol(0, 1, 1), -pol(1, 1, 1), Poly.one()),
        "lop": operator(2, Poly.x(), -pol(1, 1), Poly.one()),
        "unit": operator(2, pol(-1, 1), Poly.one()),
    }
    files = {}
    for name, op in ops.items():
        files[name] = str(tmp_path / f"{name}.json")
        with open(files[name], "w") as fh:
            json.dump(operator_to_json(op), fh)
    requests = [
        ("newton", files["running"]),
        ("normalize", files["reduction"]),
        ("gcrd", files["a"], files["b"], "--certify"),
        ("series", files["running"], "--order", "12", "--certify"),
        ("puiseux", files["rat"], "--order", "5", "--certify"),
        ("poly", files["two_polys"], "--certify"),
        ("rational", files["rat"], "--certify"),
        ("series", files["unit"], "--order", "20"),
    ]
    built = _fractions_built(monkeypatch)
    for argv in requests + [(*argv, "--format", "text") for argv in requests]:
        code, out, _ = run(*argv)
        assert (argv, code, built) == (argv, 0, Counter())
    # 1/(x^2 - x - 1) + 3/(2x - 1) solves rat_example, a witness with
    # two poles
    cases = [
        ("lop", "0,1,1,0,1", "transcendental", []),
        ("lop", "1,0,0,0,0", "rational", []),
        ("rat", "-4,-5,-14,-21,-53,-88,-205,-363", "rational", []),
        ("lop", "3/2,0,0", "rational", ["serialize.parse_prefix"]),
        ("lop", "3/2,1/2,1/2", "transcendental", ["serialize.parse_prefix"] * 3),
    ]
    for name, prefix, verdict, want in cases:
        built.clear()
        code, out, _ = run("transcendence", files[name], f"--initial={prefix}")
        assert (code, json.loads(out)["verdict"], built) == (0, verdict, Counter(want))
        built.clear()
        code, out, _ = run("transcendence", files[name], f"--initial={prefix}", "--format=text")
        assert (code, out.split(" ")[0], built) == (0, verdict, Counter(want))
    monkeypatch.undo()


@pytest.mark.parametrize("prefix", ["-4,-5,-14,-21,-53,-88,-205,-363", "-1/2,-1,-2,-4,-8,-16,-32,-64"])
def test_initial_may_start_with_a_minus_sign(rat_example_file, prefix, capsys):
    # "--initial VALUE" and "--initial=VALUE" read the same prefix when the
    # value starts with "-" and a digit, which argparse would otherwise
    # take for an option
    outcomes = [
        _outcome(("transcendence", rat_example_file, *initial, "--format", "text"), capsys)
        for initial in (("--initial", prefix), (f"--initial={prefix}",))
    ]
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    assert (code, err) == (0, "")
    assert out.startswith("rational (method: rational-basis); witness")


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
    # exit 5 with a message, not a traceback; this edge has slope 1/3 and
    # intercept 0
    from mahlersolve import solver
    from mahlersolve.newton import PolygonEdge
    from oracles import edge_slope

    edge = PolygonEdge(start=(3, 1), end=(6, 2), admissible=True, edge_points=())
    assert edge_slope(edge) == Fraction(1, 3)
    assert edge.start[1] - edge_slope(edge) * edge.start[0] == 0
    monkeypatch.setattr(solver, "ramification_edge", lambda edges, q: edge)
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
    with pytest.raises(SystemExit) as exited:  # no such flag: l_0 = 0 is always normalized
        run("series", str(noauto), "--order", "3", "--no-auto-normalize")
    assert exited.value.code == 2
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
    # run from the directory holding the imported package, so that `-m`
    # finds the copy under test whether or not one is installed
    proc = subprocess.run(
        [sys.executable, "-m", "mahlersolve.cli", "series", str(path), "--order", "4"],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(cli.__file__)),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dimension"] == 1


def test_import_leaves_out_dataclasses_and_inspect():
    # a fresh import compiles and loads every module it reaches; the
    # record types are NamedTuples, so neither of these is among them
    code = "import sys, mahlersolve.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(cli.__file__)),
    )
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


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
    # no module reads another module's _private name, imported by name
    # (`from .poly import _raw`) or read off an imported module
    # (`P._raw` after `from . import poly as P`, or `import mahlersolve.poly`)
    package = os.path.dirname(cli.__file__)
    offenders = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        modules = set()  # the local names bound to mahlersolve modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("mahlersolve")):
                offenders += [(name, a.name) for a in node.names if a.name.startswith("_")]
                if node.module in (None, "mahlersolve"):
                    modules |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Import):
                modules |= {a.asname or a.name for a in node.names if a.name.startswith("mahlersolve")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.endswith("__"):
                owner = ast.unparse(node.value)
                if owner in modules or owner.startswith("mahlersolve."):
                    offenders.append((name, f"{owner}.{node.attr}"))
    assert offenders == []


def test_only_rmatrix_names_the_recurrence():
    # every window and prolongation is sized in rmatrix: no other module
    # defines, imports, re-exports or reads `Recurrence`
    package = os.path.dirname(cli.__file__)
    naming = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            # a name read or bound, an attribute, an import alias or a class
            fields = ("id", "attr", "name", "asname")
            if "Recurrence" in (getattr(node, field, None) for field in fields):
                naming.add(name)
    assert naming == {"rmatrix.py"}


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


def test_no_generator_context_managers_or_cached_properties():
    # after gc.collect(), each pure-Python stdlib layer a request enters
    # is slow: a @contextlib.contextmanager guard costs about twice a
    # slotted class with __enter__ and __exit__, and a
    # functools.cached_property about three times a plain property over a
    # slot, so the library uses neither
    package = os.path.dirname(cli.__file__)
    offenders = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                offenders += [(name, a.name) for a in node.names if a.name == "contextlib"]
            elif isinstance(node, ast.ImportFrom) and node.module == "contextlib":
                offenders.append((name, "contextlib"))
            elif isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                word = getattr(node, "id", None) or getattr(node, "attr", None) or node.name
                if word == "cached_property":
                    offenders.append((name, word))
    assert offenders == []


def test_no_unused_public_names():
    # a public function, class or method that no library module reads
    # and the README does not name in code is surface kept for tests only;
    # a method is read only as an attribute, so a local variable of the
    # same name does not count for it
    package = os.path.dirname(cli.__file__)
    defined, names, attributes = [], set(), set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((name, node.name, False))
            if isinstance(node, ast.ClassDef):
                defined += [(name, m.name, True) for m in node.body if isinstance(m, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    with open(os.path.join(os.path.dirname(os.path.dirname(package)), "README.md")) as fh:
        spans = re.findall(r"`+([^`]+)`+", fh.read())
    named = {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span)}
    offenders = [
        (m, n)
        for m, n, method in defined
        if not n.startswith("_") and n not in named and n not in (attributes if method else names | attributes)
    ]
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


def test_every_test_runs_under_the_time_limit():
    # conftest arms SIGALRM around each test, and the handler raises what
    # neither `except Exception` nor Hypothesis catches
    remaining = signal.alarm(0)
    signal.alarm(remaining)
    assert 0 < remaining <= TEST_TIME_LIMIT_S
    with pytest.raises(TimeLimitExceeded):
        signal.getsignal(signal.SIGALRM)(signal.SIGALRM, None)


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
        ("transcendence", g, "--initial", "-4,-5,-14,-21,-53,-88,-205,-363"),
        ("transcendence", g, "--initial", "-1/2,-1,-2,-4,-8,-16,-32,-64", "--format", "text"),
        ("transcendence", g, "--initial", "-x"),
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
    assert [code for code, _, _ in direct] == [0] * 12 + [2] + [0, 0, 2, 2, 2, 2, 0, 0, 2, 2, 2, 0, 2]


def _token_groups(parser) -> tuple[list[list[str]], list[list[str]]]:
    """(plain, odd): argv pieces for the subcommand `parser`, drawn from
    its own actions.  Each plain piece sets one option to a value it
    takes, or is one operand; the odd pieces are abbreviations, `=`
    forms, bad and negative values, a missing value, "-", "--", -h and
    unknown options."""
    plain, odd = [["a.json"], ["b.json"]], [["-"], ["--"], ["-h"], ["--bogus"], [""], ["c d"]]
    for action in parser._actions:
        for flag in action.option_strings:
            if flag in ("-h", "--help"):
                continue
            odd += [[flag[:-2]], [f"{flag}=1"], [f"{flag}="]]
            if action.nargs == 0:
                plain.append([flag])
                continue
            good = list(action.choices or (("1", "2", "12") if action.type else ("1,0", "0,1/2")))
            for value in good:
                plain += [[flag, value], [f"{flag}={value}"]]
            for value in ("x", "-1", "", "-1,0", " 5", "007", good[0] + "x"):
                odd += [[flag, value], [f"{flag}={value}"], [flag[:-1], value]]
            odd.append([flag])
    return plain, odd


@st.composite
def _argvs(draw):
    """An argv for one subcommand: mostly a valid one (its operands and
    required options in some order) with pieces added, dropped or
    moved, so that valid argvs and near misses both occur often."""
    commands = build_parser().commands
    name = draw(st.sampled_from(sorted(commands)))
    plain, odd = _token_groups(commands[name])
    pieces = [["a.json"]] + [["b.json"]] * draw(st.integers(0, 1)) * (name == "gcrd")
    for action in commands[name]._actions:
        if action.required and action.option_strings:
            flag = action.option_strings[0]
            pieces.append(draw(st.sampled_from([p for p in plain if p[0].startswith(flag)])))
    pieces = draw(st.permutations(pieces))
    if pieces and draw(st.integers(0, 5)) == 0:
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    for _ in range(draw(st.integers(0, 3))):
        piece = draw(st.sampled_from(odd if draw(st.integers(0, 2)) == 0 else plain))
        pieces.insert(draw(st.integers(0, len(pieces))), piece)
    return [name] + [token for piece in pieces for token in piece]


def _parsed(parse, argv):
    """(vars of the Namespace, or the exit code; stdout; stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=400, derandomize=True)
@given(_argvs())
@example(["gcrd", "a.json", "--certify", "b.json"])  # positionals split by an option
@example(["gcrd", "--certify", "a.json", "b.json", "--format=text"])
@example(["series", "a.json", "--cert", "--order", "3"])
@example(["series", "a.json", "--order", "3", "--order=5", "--no-auto-normalize", "--auto-normalize"])
@example(["series", "a.json", "--order=-1"])
@example(["puiseux", "--ramification", "0", "a.json", "--order", "1"])
@example(["transcendence", "a.json", "--initial", "-1,0"])
@example(["transcendence", "a.json", "--initial=", "--oracle", "bell-coons"])
@example(["newton", "-"])
@example(["newton", "--", "a.json"])
@example(["poly", "a.json", "--auto-normalize=1"])
@example(["rational", "a.json", "b.json"])
@example(["normalize", "--format", "text"])
def test_token_reader_matches_argparse(argv):
    # whatever `_parse` reads itself must be what the top-level parser
    # reads, and whatever it hands on must fail or help the same way
    assert _parsed(cli._parse, argv) == _parsed(build_parser().parse_args, argv)


def test_token_reader_takes_plain_argvs():
    # plain argvs never reach argparse; the rest always do
    commands = build_parser().commands
    plain = [
        ("newton", "a.json", "--format", "text"),
        ("series", "--order", "6", "a.json", "--certify"),
        ("series", "a.json", "--order=6", "--order", "7"),
        ("puiseux", "a.json", "--order", "4", "--ramification=2"),
        ("gcrd", "--certify", "a.json", "b.json", "c.json", "--format=json"),
        ("transcendence", "a.json", "--initial", "", "--oracle", "bell-coons"),
    ]
    handed_on = [
        ("gcrd", "a.json", "--certify", "b.json"),
        ("newton", "a.json", "b.json"),
        ("newton", "-"),
        ("newton", "--", "a.json"),
        ("series", "a.json", "--ord", "6"),
        ("series", "a.json", "--order", "-1"),
        ("series", "a.json", "--order", "x"),
        ("series", "a.json", "--certify=1"),
        ("series", "--order", "6", "a.json", "--certify", "--no-auto-normalize"),
        ("rational", "a.json", "--auto-normalize"),
        ("series", "a.json"),
        ("poly", "a.json", "-h"),
        ("poly",),
        ("transcendence", "a.json", "--initial", "1", "--oracle", "other"),
    ]
    assert all(commands[argv[0]].read_tokens(list(argv[1:])) is not None for argv in plain)
    assert all(commands[argv[0]].read_tokens(list(argv[1:])) is None for argv in handed_on)


@pytest.mark.parametrize("flag", ["--auto-normalize", "--no-auto-normalize", "--auto-normalize=1"])
def test_normalization_has_no_switch(flag, running_example_file, capsys):
    # an equation with l_0 = 0 is always normalized first; the switch that
    # turned that off is gone, so its flags are unknown, whichever of the
    # token reader and argparse reads the rest of the argv
    for form in (("series", "--order", "3"), ("poly",), ("rational",)):
        for rest in ((), ("--format", "text"), ("--cert",)):
            argv = [form[0], running_example_file, *form[1:], *rest, flag]
            code, out, err = _outcome(argv, capsys)
            assert code == 2 and out == "", argv
            assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err


def test_integers_past_the_digit_limit_are_rejected_on_input(tmp_path, capsys):
    # Python converts at most sys.get_int_max_str_digits() digits between
    # int and str, and int() of a longer string takes time quadratic in
    # its length: a longer coefficient, --initial entry or JSON number is
    # malformed input
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    term = lambda e, c: {"radix": 2, "coefficients": [{"order": 0, "terms": [[e, c]]}]}
    cases = {"num.json": term(0, digits), "den.json": term(0, "1/" + digits)}
    for name, doc in cases.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "exponent.json").write_text(json.dumps(term(0, "1")).replace("[0,", f"[{digits},"))
    argvs = [["series", str(tmp_path / name), "--order", "3"] for name in (*cases, "exponent.json")]
    argvs += [
        ["transcendence", str(tmp_path / "num.json"), "--initial", "1"],
        ["transcendence", str(tmp_path / "exponent.json"), "--initial", "1", "--format", "text"],
    ]
    (tmp_path / "ok.json").write_text(json.dumps(operator_to_json(operator(2, pol(-1, 1), Poly.one()))))
    argvs.append(["transcendence", str(tmp_path / "ok.json"), "--initial", f"1,{digits}"])
    limit = sys.get_int_max_str_digits()
    for argv in argvs:
        code, out, err = _outcome(argv, capsys)
        assert code == 2 and out == "", argv
        assert "Traceback" not in err and sys.get_int_max_str_digits() == limit


def test_integers_past_the_digit_limit_are_written_exactly(tmp_path, capsys):
    # y(x^2) = (1 + a x) y(x) with a of 3,000 digits: the series solution
    # 1 - a x + (a^2 - a) x^2 + (a^2 - a^3) x^3 + ... has coefficients of
    # 6,000 and 9,000 digits, written in full in both formats
    a = int("7" * 3000)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(operator_to_json(operator(2, -Poly([(0, 1), (1, a)]), Poly.one()))))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [["0", "1"], ["1", str(-a)], ["2", str(a * a - a)], ["3", str(a * a - a**3)]]
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, err = _outcome(["series", str(path), "--order", "3", "--certify"], capsys)
    assert (code, err) == (0, "")
    (element,) = json.loads(out)["elements"]
    assert element["terms"] == expected and element["truncation_order"] == "4"
    code, out, err = _outcome(["series", str(path), "--order", "3", "--format", "text"], capsys)
    assert (code, err) == (0, "")
    assert all(c.lstrip("-") in out for _, c in expected[1:])
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("target", ["series_basis", "parse_operator"])
def test_digit_limit_is_restored_after_an_unexpected_error(
    target, running_example_file, monkeypatch
):
    # main lifts Python's int/str digit limit around the handler and reads
    # the operator under the interpreter's own; an exception that is no
    # MahlerError, raised by the solver or inside the reading guard, still
    # leaves the limit as main found it
    def broken(*args):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, target, broken)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit + 1000)
    try:
        with pytest.raises(RuntimeError, match="unexpected"):
            main(["series", running_example_file, "--order", "3"])
        assert sys.get_int_max_str_digits() == limit + 1000
    finally:
        sys.set_int_max_str_digits(limit)


MALFORMED = {
    "not-utf8.json": b'{"radix": 2, "coefficients": [{"order": 0, "terms": [[0, "1\xff"]]}]}',
    "bom.json": b'\xef\xbb\xbf{"radix": 2, "coefficients": []}',
    "empty.json": b"",
    "deep.json": b"[" * 100000 + b"]" * 100000,
    "list.json": b"[1, 2]",
    "radix.json": b'{"radix": 1, "coefficients": []}',
    "exponent.json": b'{"radix": 2, "coefficients": [{"order": 0, "terms": [[-1, "1"]]}]}',
    "coefficient.json": b'{"radix": 2, "coefficients": [{"order": 1, "terms": [[0, "1/0"]]}]}',
    "digit.json": b'{"radix": 2, "coefficients": [{"order": 0, "terms": [[0, "-\\u0661"]]}]}',
    "newline.json": b'{"radix": 2, "coefficients": [{"order": 0, "terms": [[0, "1\\n"]]}]}',
    "number.json": b'{"radix": 2, "coefficients": [{"order": 0, "terms": [[0, 1]]}]}',
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
        # t = MAX_EXPONENT passes, but the walk pads its list past it
        pytest.param(("series", "F", "--order", str(2**63 - 2)), id="series F padded"),
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
    assert len(classes) == 13
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
    assert table["series"] == {"-h", "--help", "--order", "--format", "--certify"}
    assert "--certify" not in table["newton"] | table["normalize"] | table["transcendence"]
    for name, parser in build_parser().commands.items():
        taken = {flag for action in parser._actions for flag in action.option_strings}
        assert taken == table[name], name

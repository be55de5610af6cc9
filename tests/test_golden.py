"""Byte-identical CLI output on the benchmark's seed-1 corpus.

For every workload in perfbench/, the corpus is generated into a
temporary directory and every request goes through `cli.main`; the
sha256 of each stdout must equal the digest recorded in
perfbench/golden.json.  The perfbench tracer, installed around one
request per subcommand, must leave every outcome as it was.  The
perfbench files are only read.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import sys

import pytest

from mahlersolve.cli import main
from mahlersolve.serialize import operator_to_json

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(module):
    """Import perfbench/<module>.py (and the perfbench modules it imports
    by bare name, as corpus.py imports exact.py) without leaving
    perfbench/ on sys.path or its modules in sys.modules, where they
    would shadow stdlib names such as trace."""
    before = set(sys.modules)
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(module)
    finally:
        sys.path.remove(PERFBENCH)
        for name in set(sys.modules) - before:
            if getattr(sys.modules[name], "__file__", "").startswith(PERFBENCH):
                del sys.modules[name]


corpus = _load("corpus")
trace = _load("trace")

with open(os.path.join(PERFBENCH, "golden.json")) as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("workload", ["sparse", "dense", "algebra"])
def test_golden_digests(workload, tmp_path):
    requests = corpus.WORKLOADS[workload](1)
    requests.write(str(tmp_path))
    golden = GOLDEN[workload]
    assert sorted(golden) == sorted(r.label for r in requests.requests)
    mismatched = []
    for req in requests.requests:
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in req.argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, (req.label, argv)
        if hashlib.sha256(out.getvalue().encode()).hexdigest() != golden[req.label]:
            mismatched.append(req.label)
    assert not mismatched


def test_tracer_leaves_outcomes_unchanged(
    tmp_path, running_example, running_example_series, rat_example, reduction_example
):
    # perfbench/trace.py wraps the library from outside: it replaces the
    # public functions and methods, `rmatrix.extend_prefix` and
    # `rmatrix.polynomial_solutions` among them, and the solvers the
    # subcommand lambdas look up when called
    paths = {}
    for name, op in (("run", running_example), ("rat", rat_example), ("red", reduction_example)):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(operator_to_json(op), fh)
    prefix = ",".join(str(c) for c in running_example_series)
    argvs = [
        ["newton", paths["run"]],
        ["series", paths["run"], "--order", "8"],
        ["poly", paths["run"]],
        ["rational", paths["rat"]],
        ["puiseux", paths["run"], "--order", "4"],
        ["normalize", paths["red"]],
        ["gcrd", paths["red"], paths["run"]],
        ["transcendence", paths["run"], "--initial", prefix],
    ]

    def outcomes():
        result = []
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            result.append((code, out.getvalue()))
        return result

    untraced = outcomes()
    tracer = trace.Tracer()
    tracer.install()
    try:
        traced = outcomes()
    finally:
        tracer.uninstall()
    assert [code for code, _ in untraced] == [0] * len(argvs)
    assert traced == untraced
    assert tracer.calls["rmatrix.extend_prefix"] and tracer.calls["rmatrix.polynomial_solutions"]
    assert tracer.calls["solver.series_basis"] and tracer.calls["rational.rational_basis"]

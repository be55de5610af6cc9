"""Byte-identical CLI output on the benchmark's seed-1 corpus.

For every workload in perfbench/, the corpus is generated into a
temporary directory and every request goes through `cli.main`; the
sha256 of each stdout must equal the digest recorded in
perfbench/golden.json.  The perfbench files are only read.
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

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_corpus():
    """Import perfbench/corpus.py (and the perfbench/exact.py it imports
    by bare name) without leaving perfbench/ on sys.path or its modules
    in sys.modules, where they would shadow stdlib names such as trace."""
    before = set(sys.modules)
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("corpus")
    finally:
        sys.path.remove(PERFBENCH)
        for name in set(sys.modules) - before:
            if getattr(sys.modules[name], "__file__", "").startswith(PERFBENCH):
                del sys.modules[name]


corpus = _load_corpus()

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

"""mahlersolve benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The workload's requests are
generated from the seed, written as operator files, and sent one after
another through `mahlersolve.cli.main(argv)` in this process, with
stdout captured.  After one untimed warm-up request, whole passes over
the request list repeat until `--seconds` have elapsed; request times
are scaled to a reference speed (see REFERENCE_S).  After the timed
region, the answers of the first pass, which were written to the work
directory, are re-checked (see check.py) and, at the default seed,
compared with the digests recorded in golden.json; every later answer
must repeat the first one.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The line before
it holds run metadata.  `--quick` shrinks the workloads for the
benchmark's own test (selftest.py); `--write-golden` records the
digests of the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import corpus as C  # noqa: E402
from trace import MODULES, Tracer  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 9
GOLDEN = os.path.join(HERE, "golden.json")
# Other load on a shared host slows this process by up to 2x for seconds at
# a time.  So a short reference loop runs between requests, outside their
# time, and every request time is scaled by REFERENCE_S over the median of
# the reference times around it: times are given at the speed at which the
# loop takes REFERENCE_S.  A request's time is the median of its scaled
# times over at least MIN_PASSES timed passes.  The tail percentile of each
# workload is the highest that leaves TAIL_SAMPLES requests beyond it (of
# 75 on sparse, 144 on dense, 112 on algebra); a full run with fewer is
# marked incorrect.
REFERENCE_S = 0.001
REFERENCE_WINDOW = 3  # reference samples on each side of a request
MIN_PASSES = 3
TAIL_PERCENTILE = {"sparse": 86, "dense": 93, "algebra": 91}
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for m in MODULES:
        units[f"{m}.self_s"] = "s"
        units[f"{m}.calls"] = "count"
        units[f"{m}.frac_ops"] = "count"
    units.update(
        {
            "rmatrix.prolong.self_s": "s",
            "rmatrix.prolong.frac_ops": "count",
            "rmatrix.prolong.coeffs": "count",
            "rmatrix.prolong.nonzero_ratio": "ratio",
            "rmatrix.solve_prescribed.self_s": "s",
            "rmatrix.solve_prescribed.width": "columns",
            "rmatrix.build_submatrix.self_s": "s",
            "solver.certify.self_s": "s",
            "solver.certify.frac_ops": "count",
            "serialize.basis_to_json.self_s": "s",
            "cli.out_bytes": "bytes",
            "linalg.rref.self_s": "s",
            "linalg.rref.frac_ops": "count",
            "linalg.rref.cells": "count",
            "rational.bell_coons_rank.self_s": "s",
            "poly.mul.self_s": "s",
            "poly.mul.calls": "count",
            "poly.graeffe.self_s": "s",
            "rational.denominator_bound.self_s": "s",
            "operator.right_divide.self_s": "s",
            "operator.interreduce.calls": "count",
            "normalize.split.calls": "count",
            "solver.puiseux.order_slope": "log/log",
            "trace.overhead_ratio": "ratio",
            "fail_ratio": "ratio",
        }
    )
    return units


# -- program -----------------------------------------------------------------


def require_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "mahlersolve", "cli.py")):
        sys.stderr.write(f"run.py: no mahlersolve sources under {SRC}\n")
        sys.exit(2)


def import_cli():
    sys.path.insert(0, SRC)
    import mahlersolve.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"run.py: mahlersolve was imported from {cli.__file__}, not {SRC}\n")
        sys.exit(2)
    return cli


def fresh_import_seconds() -> float:
    """Time to import mahlersolve.cli in a new interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import mahlersolve.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, SRC],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout)


def reference_seconds() -> float:
    """Time of a fixed loop of Fraction arithmetic, about 1 ms on a 2 GHz
    x86-64 core; it does not use mahlersolve."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def set_up(workload: str, seed: int, quick: bool, directory: str):
    """Generate and write the corpus, and import the program in a fresh
    process, SETUP_REPEATS times; returns the corpus and the median time,
    each sample scaled by the reference times before and after it."""
    samples = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(directory, ignore_errors=True)
        before = reference_seconds()
        start = time.perf_counter()
        corpus = C.WORKLOADS[workload](seed, quick)
        corpus.write(directory)
        elapsed = time.perf_counter() - start + fresh_import_seconds()
        reference = (before + reference_seconds()) / 2
        samples.append(elapsed * REFERENCE_S / reference)
    return corpus, statistics.median(samples)


def call(cli, argv):
    """One request; returns (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # start every request from a clean heap, as a new process would
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the request
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed request, not a crashed run
            code = -1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    if code:
        sys.stderr.write(f"run.py: exit {code} for {argv}: {err.getvalue()[-400:]}\n")
    return code, out.getvalue(), elapsed


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def beyond_tail(samples: int, percentile: float) -> int:
    """Samples above the nearest-rank percentile."""
    return samples - math.ceil(percentile / 100 * samples)


class Runner:
    """Sends the requests in whole passes and keeps what the checks need:
    the first timed pass's outputs, written to files so that they take no
    memory of the process, and every exit code and digest."""

    def __init__(self, cli, corpus, directory):
        self.cli = cli
        self.requests = corpus.requests
        self.argvs = [
            [os.path.join(directory, a) if a.endswith(".json") else a for a in r.argv]
            for r in corpus.requests
        ]
        self.out_dir = os.path.join(directory, "out")
        self.outputs: dict = {}  # label -> (exit code, stdout file) of the first pass
        self.results: list = []  # per pass: [(exit code, digest)] per request
        self.scaled: list = [[] for _ in corpus.requests]  # per request, see REFERENCE_S
        self.out_bytes = 0  # stdout bytes of the latest pass

    def warm_up(self) -> None:
        """One untimed request, so that lazy imports are done before timing."""
        call(self.cli, self.argvs[0])

    def one_pass(self, reference: bool = True) -> float:
        """Send every request once, with a reference loop after each when
        `reference` is set; returns the summed request time."""
        total = 0.0
        self.out_bytes = 0
        results = []
        elapsed_times = []
        references = [reference_seconds()] if reference else []
        for req, argv in zip(self.requests, self.argvs):
            code, text, elapsed = call(self.cli, argv)
            if reference:
                references.append(reference_seconds())
            elapsed_times.append(elapsed)
            total += elapsed
            self.out_bytes += len(text.encode())
            if not self.results:
                path = os.path.join(self.out_dir, f"{len(self.outputs)}.json")
                with open(path, "w") as fh:
                    fh.write(text)
                self.outputs[req.label] = (code, path)
            results.append((code, digest(text)))
        self.results.append(results)
        w = REFERENCE_WINDOW
        for i, elapsed in enumerate(elapsed_times if reference else ()):
            # references[i] ran just before request i, references[i + 1] just after.
            local = statistics.median(references[max(0, i + 1 - w) : i + 1 + w])
            self.scaled[i].append(elapsed * REFERENCE_S / local)
        return total

    def request_times(self) -> list:
        """Each request's median scaled time over the passes so far."""
        return [statistics.median(samples) for samples in self.scaled]

    def passes(self, seconds: float, after_pass=None, min_passes: int = MIN_PASSES, reference: bool = True) -> list:
        os.makedirs(self.out_dir, exist_ok=True)
        walls = []
        deadline = time.perf_counter() + seconds
        while len(walls) < min_passes or time.perf_counter() < deadline:
            walls.append(self.one_pass(reference))
            if after_pass:
                after_pass()
        return walls

    def failures(self, bad: set) -> int:
        """Requests that exited nonzero, answered differently from the first
        pass, or whose first answer failed a check (indices in `bad`)."""
        first = self.results[0]
        return sum(
            1
            for results in self.results
            for i, (code, dig) in enumerate(results)
            if code != 0 or i in bad or dig != first[i][1]
        )


def nearest_rank(values: list, percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def order_slope(runner: Runner) -> float:
    """Least-squares slope of log(request time) against log(order) over the
    scaling row; 0.0 on a workload without one (only `sparse` has it)."""
    points = [
        (math.log(req.scaling_order), math.log(t))
        for req, t in zip(runner.requests, runner.request_times())
        if req.scaling_order
    ]
    if not points:
        return 0.0
    mx = statistics.fmean(p[0] for p in points)
    my = statistics.fmean(p[1] for p in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def source_lines() -> int:
    package = os.path.join(SRC, "mahlersolve")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return "unknown"


def load_golden() -> dict:
    if not os.path.isfile(GOLDEN):
        return {}
    with open(GOLDEN) as fh:
        return json.load(fh)


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(C.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny orders and counts, for selftest.py")
    parser.add_argument("--write-golden", action="store_true", help="record the default seed's digests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    require_sources()

    directory = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        corpus, setup_s = set_up(args.workload, args.seed, args.quick, directory)
        cli = import_cli()
        runner = Runner(cli, corpus, directory)
        runner.warm_up()
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "quick": args.quick,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "src_lines": source_lines(),
            "requests": {w: len(C.WORKLOADS[w](args.seed, args.quick).requests) for w in C.WORKLOADS},
        }
        if args.trace:
            metrics, repeatable = traced(runner, args.seconds, meta)
        else:
            metrics, repeatable = untraced(runner, args.seconds, args.workload, args.quick, setup_s, meta)
        meta["passes"] = len(runner.results)

        # Checks, outside the timed region.
        start = time.perf_counter()
        errors = check.verify(corpus, runner.outputs)
        meta["check_s"] = time.perf_counter() - start
        golden_key = None if args.quick or args.seed != DEFAULT_SEED else args.workload
        golden = load_golden().get(golden_key, {}) if golden_key and not args.write_golden else {}
        meta["golden_checked"] = bool(golden)
        first = runner.results[0]
        bad = set()
        for i, req in enumerate(corpus.requests):
            if not errors[req.label] and golden and golden.get(req.label) != first[i][1]:
                errors[req.label] = "stdout digest differs from golden.json"
            if errors[req.label]:
                bad.add(i)
                sys.stderr.write(f"run.py: {req.label}: {errors[req.label]}\n")
        attempted = sum(len(results) for results in runner.results)
        failed = runner.failures(bad)
        if args.trace:
            metrics["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}

        if args.write_golden:
            if golden_key is None or failed:
                sys.stderr.write("run.py: golden digests are written only for a clean default-seed run\n")
                return 1
            table = load_golden()
            table[golden_key] = {r.label: first[i][1] for i, r in enumerate(corpus.requests)}
            with open(GOLDEN, "w") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(directory))

    print(json.dumps({"meta": meta}))
    result = {"correct": repeatable and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def untraced(runner: Runner, seconds: float, workload: str, quick: bool, setup_s: float, meta: dict):
    walls = runner.passes(seconds)
    times = runner.request_times()
    percentile = TAIL_PERCENTILE[workload]
    beyond = beyond_tail(len(times), percentile)
    meta["tail_percentile"] = percentile
    meta["tail_samples"] = len(times)
    meta["samples_beyond_tail"] = beyond
    meta["pass_s"] = walls
    values = {
        "setup_s": setup_s,
        "wall_s": sum(times),
        "latency_p50_ms": statistics.median(times) * 1000,
        "latency_tail_ms": nearest_rank(times, percentile) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    enough = quick or beyond >= TAIL_SAMPLES
    if not enough:
        sys.stderr.write(f"run.py: only {beyond} requests beyond the tail percentile\n")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, enough


def traced(runner: Runner, seconds: float, meta: dict):
    """Half the time untraced, half traced; the traced passes give the layer
    figures, and their counts must agree exactly from pass to pass."""
    untraced_walls = runner.passes(seconds / 2)
    slope = order_slope(runner)
    tracer = Tracer()
    snapshots = []

    def record():
        snapshots.append(tracer.snapshot())
        tracer.reset()

    tracer.install()
    try:
        traced_walls = runner.passes(seconds / 2, after_pass=record, min_passes=2, reference=False)
    finally:
        tracer.uninstall()

    counts = [{k: v for k, v in s.items() if not k.endswith(".self_s")} for s in snapshots]
    repeatable = all(c == counts[0] for c in counts)
    if not repeatable:
        sys.stderr.write("run.py: traced passes disagree on their counts\n")
    meta["traced_passes"] = len(snapshots)
    meta["order_slope_measured"] = any(r.scaling_order for r in runner.requests)
    meta["counts_repeat"] = repeatable

    units = per_layer_units()
    first = snapshots[0]
    values = {k: v for k, v in first.items() if k in units}
    for key in values:
        if key.endswith(".self_s"):
            values[key] = statistics.median(s[key] for s in snapshots)
    coeffs = first["rmatrix.prolong.coeffs"]
    values["rmatrix.prolong.nonzero_ratio"] = first["rmatrix.prolong.nonzero"] / coeffs if coeffs else 0.0
    values["cli.out_bytes"] = runner.out_bytes
    values["solver.puiseux.order_slope"] = slope
    values["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
    values["fail_ratio"] = 0.0  # set by main() once the answers are checked
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}, repeatable


if __name__ == "__main__":
    sys.exit(main())

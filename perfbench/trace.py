"""Spans around mahlersolve's layers, recorded from outside the library.

`Tracer.install()` replaces the public functions of every mahlersolve
module, and the arithmetic and public methods of the classes defined
there, by wrappers; `uninstall()` puts the originals back.  A wrapper is
bound under every name that referred to the original, in every module
namespace, because `from .rmatrix import prolong` binds its own name.

A span opens when a call enters another module than the innermost open
span's (a layer boundary), and at the functions in NAMED, which get
their own rows even when called from inside their module.  Other calls
within a module only count towards `calls`.  A span's self time is its
duration minus that of its child spans.  Fraction + - * / and negation,
with their reflected forms, are counted against the innermost open
span, so counts are exact and repeat from run to run.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import defaultdict
from fractions import Fraction

MODULES = (
    "cli",
    "serialize",
    "newton",
    "solver",
    "rmatrix",
    "linalg",
    "rational",
    "normalize",
    "operator",
    "poly",
)

# (module, qualified name) -> span name
NAMED = {
    ("rmatrix", "prolong"): "rmatrix.prolong",
    ("rmatrix", "solve_prescribed"): "rmatrix.solve_prescribed",
    ("rmatrix", "build_submatrix"): "rmatrix.build_submatrix",
    ("solver", "check_series_element"): "solver.certify",
    ("solver", "check_puiseux_element"): "solver.certify",
    ("serialize", "basis_to_json"): "serialize.basis_to_json",
    ("linalg", "rref"): "linalg.rref",
    ("rational", "bell_coons_rank"): "rational.bell_coons_rank",
    ("rational", "denominator_bound"): "rational.denominator_bound",
    ("poly", "Poly.__mul__"): "poly.mul",
    ("poly", "graeffe"): "poly.graeffe",
    ("operator", "right_divide"): "operator.right_divide",
    ("operator", "interreduce"): "operator.interreduce",
    ("normalize", "split"): "normalize.split",
}

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__")
FRACTION_OPS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
)


def _prolong_counts(counters, args, result):
    fresh = result[len(args[2]) :]
    counters["rmatrix.prolong.coeffs"] += len(fresh)
    counters["rmatrix.prolong.nonzero"] += sum(1 for c in fresh if c)


def _solve_prescribed_counts(counters, args, result):
    counters["rmatrix.solve_prescribed.width"] = max(
        counters["rmatrix.solve_prescribed.width"], args[3]
    )


def _rref_counts(counters, args, result):
    rows = args[0]
    counters["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)


COUNTERS = (
    "rmatrix.prolong.coeffs",
    "rmatrix.prolong.nonzero",
    "rmatrix.solve_prescribed.width",
    "linalg.rref.cells",
)

# span name -> hook(counters, args, result), run outside the span's time
HOOKS = {
    "rmatrix.prolong": _prolong_counts,
    "rmatrix.solve_prescribed": _solve_prescribed_counts,
    "linalg.rref": _rref_counts,
}


class Tracer:
    def __init__(self):
        self.stack: list = []  # open spans: [name, module, start, child time, fraction ops]
        self.self_s = defaultdict(float)  # span name -> total self time
        self.frac_ops = defaultdict(int)  # span name -> Fraction operations
        self.calls = defaultdict(int)  # function name -> calls, spans or not
        self.counters = defaultdict(int)
        self._restore: list = []

    def reset(self) -> None:
        """Forget what was recorded; the wrappers keep these very dicts."""
        for table in (self.self_s, self.frac_ops, self.calls, self.counters):
            table.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, module: str, qualname: str):
        name = NAMED.get((module, qualname), f"{module}.{qualname}")
        named = (module, qualname) in NAMED
        hook = HOOKS.get(name)
        stack, calls, self_s, frac_ops = self.stack, self.calls, self.self_s, self.frac_ops
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if not named and stack and stack[-1][1] == module:
                return fn(*args, **kwargs)
            span = [name, module, clock(), 0.0, 0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - span[2]
                self_s[name] += duration - span[3]
                frac_ops[name] += span[4]
                if stack:
                    stack[-1][3] += duration
            if hook is not None:
                hook(self.counters, args, result)
                if stack:
                    stack[-1][3] += clock() - end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_fraction(self, fn):
        stack = self.stack

        def op(*args):
            if stack:
                stack[-1][4] += 1
            return fn(*args)

        return op

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("mahlersolve")
        modules = [importlib.import_module(f"mahlersolve.{m}") for m in MODULES]
        wrappers = {}  # id(original) -> wrapper
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    wrappers.setdefault(id(obj), self._wrap(obj, short, attr))
                elif isinstance(obj, type):
                    for meth, fn in vars(obj).items():
                        if isinstance(fn, types.FunctionType) and (
                            meth in ARITHMETIC or not meth.startswith("_")
                        ):
                            qual = f"{obj.__name__}.{meth}"
                            wrappers.setdefault(id(fn), self._wrap(fn, short, qual))
        for namespace in [package, *modules]:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers:
                    self._replace(namespace, attr, obj, wrappers[id(obj)])
                elif isinstance(obj, type) and obj.__module__.startswith("mahlersolve."):
                    for meth, fn in list(vars(obj).items()):
                        if id(fn) in wrappers and getattr(obj, meth) is fn:
                            self._replace(obj, meth, fn, wrappers[id(fn)])
        for meth in FRACTION_OPS:
            original = vars(Fraction)[meth]
            self._replace(Fraction, meth, original, self._count_fraction(original))

    def _replace(self, owner, attr, original, wrapper) -> None:
        if vars(owner).get(attr) is wrapper:
            return
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer figures of everything recorded since the last reset."""
        out = {}
        for m in MODULES:
            prefix = m + "."
            out[f"{m}.self_s"] = sum(v for k, v in self.self_s.items() if k.startswith(prefix))
            out[f"{m}.calls"] = sum(v for k, v in self.calls.items() if k.startswith(prefix))
            out[f"{m}.frac_ops"] = sum(v for k, v in self.frac_ops.items() if k.startswith(prefix))
        for name in set(NAMED.values()):
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.frac_ops"] = self.frac_ops.get(name, 0)
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0)
        return out

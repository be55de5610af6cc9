"""Every small operator, checked across solvers.

The operators are all those of radix 2 and 3 with coefficients in
{-1, 0, 1}, a nonzero leading coefficient and some lower coefficient
nonzero, of order 1 with coefficient degree <= 2 or of order 2 with
coefficient degree <= 1: 2,632 equations.  For each one, every basis
the solvers return passes `certify`, the solvers agree with each other,
and the two transcendence tests give the same verdict:

- each polynomial solution lies in the span of the series basis;
- each rational solution's expansion below x^10 lies in the span of
  the Puiseux basis of all ramifications;
- `transcendence_test` and `bell_coons_test` agree on the prefixes of
  the first two series basis elements;
- the head of each series basis element, its first floor(nu) + 1
  coefficients, extends by `rmatrix.extend_prefix` to that element
  exactly: the prolongation behind the series basis and the one behind
  the transcendence tests agree.

The spans are compared by the Fraction elimination of oracles.py, not
by `linalg`.
"""

import itertools
import math
from fractions import Fraction

from conftest import dense, rational_valuation, terms
from oracles import eliminate, laurent, nu_mu_oracle
from mahlersolve.operator import MahlerOperator
from mahlersolve.poly import Poly
from mahlersolve.rational import bell_coons_test, rational_basis, transcendence_test
from mahlersolve.rmatrix import extend_prefix
from mahlersolve.solver import (
    certify,
    polynomial_basis,
    puiseux_basis,
    series_basis,
    solving_operator,
)

ORDER = 10


def small_operators():
    """The operators of the module docstring."""
    for radix, order, degree in itertools.product((2, 3), (1, 2), (2, 1)):
        if order + degree != 3:
            continue
        polys = [
            Poly.from_integers(1, [(e, c) for e, c in enumerate(cs) if c])
            for cs in itertools.product((-1, 0, 1), repeat=degree + 1)
        ]
        for coeffs in itertools.product(polys, repeat=order + 1):
            if coeffs[-1] and any(coeffs[:-1]):
                yield MahlerOperator(radix, list(coeffs))


def in_span(vector: dict, basis: list[dict]) -> bool:
    """Whether the vector {exponent: Fraction} is a combination of the
    basis vectors, by the rank of the dense rows over their exponents."""
    keys = sorted(set(vector).union(*basis))
    rows = [[b.get(k, Fraction(0)) for k in keys] for b in basis]
    grown = rows + [[vector.get(k, Fraction(0)) for k in keys]]
    return len(eliminate(grown)[0]) == len(eliminate(rows)[0])


def below(elem, top) -> dict:
    """The terms of a series or polynomial below x^top."""
    return {e: c for e, c in terms(elem) if e < top}


def test_small_operators_agree_across_solvers():
    counts = dict.fromkeys(
        (
            "operators",
            "polynomial",
            "rational",
            "rational verdicts",
            "transcendental",
            "extensions",
        ),
        0,
    )
    for op in small_operators():
        counts["operators"] += 1
        series = series_basis(op, ORDER)
        polys = polynomial_basis(op)
        rationals = rational_basis(op)
        puiseux = puiseux_basis(op, None, ORDER)
        for basis in (series, polys, rationals, puiseux):
            certify(op, basis)

        if polys.elements:
            top = series.elements[0].truncation_order
            span = [below(s, top) for s in series.elements]
        for p in polys.elements:
            counts["polynomial"] += 1
            assert in_span(below(p, top), span), (op, p)

        span = [below(s, ORDER) for s in puiseux.elements]
        for f in rationals.elements:
            counts["rational"] += 1
            lo = min(0, rational_valuation(f))
            expansion = dict(zip(range(lo, ORDER), laurent(f, lo, ORDER)))
            assert in_span({e: c for e, c in expansion.items() if c}, span), (op, f)

        if series.elements:
            solving = solving_operator(op)
            head = math.floor(nu_mu_oracle(solving)[0]) + 1
        for elem in series.elements:
            counts["extensions"] += 1
            nums = [0] * elem.truncation_order
            for e, v in elem.nums:
                nums[e] = v
            got = extend_prefix(solving, dense(elem)[:head], elem.truncation_order)
            assert got == (elem.den, nums), (op, elem)

        for elem in series.elements[:2]:
            prefix = dense(elem)
            verdict = transcendence_test(op, prefix).verdict
            assert bell_coons_test(op, prefix).verdict == verdict, (op, prefix)
            counts["rational verdicts" if verdict == "rational" else "transcendental"] += 1

    assert counts["operators"] == 2632
    assert all(counts.values()), counts

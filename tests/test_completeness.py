"""Completeness of the polynomial solver against an independent oracle.

`certify` proves that each basis element solves its equation, not that
the basis is complete: a degree bound that is too small would drop
solutions silently.  Here sympy takes the nullspace of the coefficient
system of op on y = c_0 + c_1 x + ... + c_(W-1) x^(W-1), with W above
any degree a polynomial solution can have, and `polynomial_basis` must
span exactly that nullspace.  The oracle shares no code with the
library; sympy is a test-only dependency.
"""

import random

import pytest

from conftest import random_operator, random_poly_solvable
from mahlersolve.solver import polynomial_basis

sympy = pytest.importorskip("sympy")


def _rational(c) -> "sympy.Rational":
    return sympy.Rational(c.numerator, c.denominator)


def coefficient_system(op, width: int) -> "sympy.Matrix":
    """The matrix of (c_0, ..., c_(width-1)) -> the coefficients of
    op(sum c_i x^i), one row per exponent that a term reaches."""
    rows: dict[int, list] = {}
    for k, lk in enumerate(op.coeffs):
        bk = op.radix**k
        for j, c in lk.terms:
            for i in range(width):
                rows.setdefault(j + bk * i, [0] * width)[i] += _rational(c)
    return sympy.Matrix([rows[m] for m in sorted(rows)])


def test_polynomial_basis_spans_the_nullspace():
    # W = deg op + 2 lies above the upper-polygon bound deg / (b^r - b^(r-1))
    # + 1 on the degree; the basis and the nullspace must agree in
    # dimension, and the basis must lie in the nullspace
    rng = random.Random(2016)
    nonempty = 0
    for i in range(60):
        radix, order = rng.choice((2, 3)), rng.randint(1, 2)
        if i % 2:
            op = random_poly_solvable(rng, radix, order)[0]
        else:
            op = random_operator(rng, radix, order, 4)
        width = op.degree + 2
        kernel = coefficient_system(op, width).nullspace()
        basis = polynomial_basis(op).elements
        assert len(basis) == len(kernel), op
        rows = [list(v) for v in kernel]
        rows += [[_rational(p.coefficient(e)) for e in range(width)] for p in basis]
        if rows:
            assert sympy.Matrix(rows).rank() == len(kernel), op
        nonempty += bool(basis)
    assert nonempty >= 20

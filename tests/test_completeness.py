"""Completeness of the polynomial solver, and the polynomial primitives
behind the denominator bound, against independent oracles.

`certify` proves that each basis element solves its equation, not that
the basis is complete: a degree bound that is too small would drop
solutions silently.  Here sympy takes the nullspace of the coefficient
system of op on y = c_0 + c_1 x + ... + c_(W-1) x^(W-1), with W above
any degree a polynomial solution can have, and `polynomial_basis` must
span exactly that nullspace.  A wrong Gräffe image or gcd would shrink
the denominator bound and drop rational solutions the same way, so
`graeffe` is compared with the determinant of sympy's Sylvester matrix
and `poly.gcd` with `sympy.gcd`.  The oracles share no code with the
library; sympy is a test-only dependency.
"""

import random
from fractions import Fraction

import pytest

from conftest import (
    coefficient,
    from_terms,
    random_operator,
    random_poly,
    random_poly_solvable,
    terms,
)
from mahlersolve.poly import Poly, gcd, graeffe
from mahlersolve.solver import polynomial_basis

sympy = pytest.importorskip("sympy")
X, Y = sympy.symbols("x y")


def _rational(c) -> "sympy.Rational":
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(p: Poly, var) -> "sympy.Expr":
    return sum((_rational(c) * var**e for e, c in terms(p)), sympy.Integer(0))


def from_sympy(expr) -> Poly:
    """The library Poly of a sympy polynomial in x."""
    pairs = sympy.Poly(expr, X).terms()
    return from_terms((e, Fraction(int(c.p), int(c.q))) for (e,), c in pairs)


def coefficient_system(op, width: int) -> "sympy.Matrix":
    """The matrix of (c_0, ..., c_(width-1)) -> the coefficients of
    op(sum c_i x^i), one row per exponent that a term reaches."""
    rows: dict[int, list] = {}
    for k, lk in enumerate(op.coeffs):
        bk = op.radix**k
        for j, c in terms(lk):
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
        rows += [[_rational(coefficient(p, e)) for e in range(width)] for p in basis]
        if rows:
            assert sympy.Matrix(rows).rank() == len(kernel), op
        nonempty += bool(basis)
    assert nonempty >= 20


def test_graeffe_is_the_sylvester_determinant():
    # Res_y(y^b - x, p(y)) as the determinant of the Sylvester matrix;
    # sympy.resultant is not the reference, since it returns the
    # opposite sign on some inputs (radix 3, p = 3/2 + 2x + 2x^2 + 2x^3
    # - 2x^4 + x^5), where the determinant agrees with graeffe
    from sympy.polys.subresultants_qq_zz import sylvester

    rng = random.Random(1612)
    cases = [(from_terms([(0, Fraction(3, 2)), (1, 2), (2, 2), (3, 2), (4, -2), (5, 1)]), 3)]
    while len(cases) < 60:
        pairs = [(e, Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))) for e in range(rng.randint(0, 4) + 1)]
        p = from_terms(pairs).shift(rng.choice((0, 0, 1)))
        if p:
            cases.append((p, rng.randint(2, 5)))
    for p, radix in cases:
        det = sylvester(Y**radix - X, to_sympy(p, Y), Y).det(method="domain-ge")
        assert graeffe(p, radix) == from_sympy(sympy.expand(det)), (p, radix)


def test_gcd_is_the_monic_sympy_gcd():
    rng = random.Random(5518)
    for _ in range(60):
        common = random_poly(rng, rng.randint(0, 3))
        a = random_poly(rng, rng.randint(0, 4)) * common
        b = random_poly(rng, rng.randint(0, 4)) * common
        if not a or not b:
            continue
        want = sympy.Poly(sympy.gcd(to_sympy(a, X), to_sympy(b, X)), X).monic()
        assert gcd(a, b) == from_sympy(want.as_expr()), (a, b)

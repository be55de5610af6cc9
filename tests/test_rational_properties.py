"""Rational bases and both transcendence oracles against the routes
they replaced.

`rational_basis` reads its canonical basis off one `rref`, and
`transcendence_test` reads its one candidate witness off the series.
The oracles in oracles.py take the old routes: elimination on the
rational functions themselves, and exact solves of the series against
the dense expansions of a whole rational basis.  Equations are built
with known rational solutions, so bases of dimension 2 occur, with
Laurent (negative valuation) and high-valuation elements; a random left
factor adds series solutions that are not rational.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    forbid_basis_solve,
    random_operator,
    random_poly,
    random_poly_solvable,
    random_series_solvable_operator,
)
from oracles import (
    bareiss_determinant,
    bell_coons_oracle,
    consistent_extension_oracle,
    laurent,
    nu_mu_oracle,
    rational_basis_oracle,
    transcendence_oracle,
)
from mahlersolve.errors import MahlerError
from mahlersolve.linalg import rref
from mahlersolve.newton import ramification_data
from mahlersolve.operator import MahlerOperator
from mahlersolve.poly import Poly, mahler_substitute
from mahlersolve.rmatrix import extend_prefix
from mahlersolve.rational import (
    RamifiedRationalFunction,
    RationalFunction,
    bell_coons_test,
    denominator_bound,
    ramified_rational_basis,
    rational_basis,
    transcendence_test,
)
from mahlersolve.solver import (
    certify,
    polynomial_basis,
    series_basis,
    solving_operator,
)

F = Fraction
ONE = Poly.one()
small = st.integers(-3, 3)
nonzero = small.filter(bool)


@st.composite
def rational_functions(draw, max_degree=2):
    """(a, c) for a / c: a = x^t (nonzero + ...), c = x^s (1 + ...)."""
    a = Poly([(0, F(draw(nonzero)))] + [(e, F(draw(small))) for e in range(1, max_degree + 1)])
    c = Poly([(0, F(1))] + [(e, F(draw(small))) for e in range(1, max_degree + 1)])
    return a.shift(draw(st.integers(0, 2))), c.shift(draw(st.integers(0, 1)))


def casoratian(radix: int, functions) -> MahlerOperator:
    """The operator y -> det(Casoratian matrix of y, f_1, ..., f_n), each
    row cleared of its denominators: it annihilates every f_i = a_i/c_i
    and is zero only when the f_i are linearly dependent."""
    n = len(functions)
    rows = []
    for a, c in functions:
        images = [(a, c)] + [
            (mahler_substitute(a, radix, k), mahler_substitute(c, radix, k)) for k in range(1, n + 1)
        ]
        row = []
        for k in range(n + 1):
            entry = images[k][0]
            for j in range(n + 1):
                if j != k:
                    entry = entry * images[j][1]
            row.append(entry)
        rows.append(row)
    coeffs = []
    for k in range(n + 1):
        minor = [[row[j] for j in range(n + 1) if j != k] for row in rows]
        det = bareiss_determinant(minor)
        coeffs.append(det if k % 2 == 0 else -det)
    return MahlerOperator(radix, coeffs)


@st.composite
def equations(draw, max_degree=2, max_order=2):
    """(op, n) with n rational functions known to solve op.  Either op
    has n drawn rational functions among its solutions, behind a left
    factor that may add others, or it is a product of first-order
    factors with a power-series solution that is mostly transcendental
    (n = 0)."""
    radix = draw(st.sampled_from((2, 3)))
    rng = random.Random(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        return random_series_solvable_operator(rng, radix, draw(st.integers(1, max_order))), 0
    n = draw(st.integers(1, max_order))
    right = casoratian(radix, [draw(rational_functions(max_degree)) for _ in range(n)])
    if not right:
        right = casoratian(radix, [(ONE, ONE)])
        n = 1
    left = random_operator(rng, radix, draw(st.integers(0, max_order - n)), 1)
    return left * right, n


def assert_reduced_echelon(elements):
    """Valuations strictly ascending, the Laurent coefficient of each
    element at its own valuation 1 and at every other valuation 0."""
    vals = [f.valuation for f in elements]
    assert vals == sorted(set(vals))
    if vals:
        lo = vals[0]
        for i, f in enumerate(elements):
            coeffs = laurent(f, lo, vals[-1] + 1)
            assert [coeffs[v - lo] for v in vals] == [int(i == j) for j in range(len(vals))]


def outcome(fn, *args):
    """fn(*args), or the type of the MahlerError it raises."""
    try:
        return fn(*args)
    except MahlerError as exc:
        return type(exc)


def _numerator_reach(op) -> int:
    """w - v_bar = deg q_star + v_bar + 1: the number of series
    coefficients that fix the numerator of a rational solution, and so
    the length `transcendence_test` extends a shorter prefix to; 0 where
    the bound does not apply."""
    try:
        bound = denominator_bound(solving_operator(op))
    except MahlerError:
        return 0
    return bound.q_star.degree + bound.v_bar + 1


@st.composite
def prefixes(draw, op):
    """A prefix of one of five kinds: the start of a series solution
    (a random combination of the basis), random numbers, zeros, one
    coefficient too few, and a solution with one coefficient bumped.
    Lengths run from the head to past `_numerator_reach`, so that
    prefixes both shorter and longer than the witness needs occur."""
    nu, _ = nu_mu_oracle(op)
    head = max(1, math.floor(nu) + 1)
    length = draw(st.integers(head, max(head, _numerator_reach(op)) + 2))
    kind = draw(st.sampled_from(("solution", "solution", "random", "zero", "short", "bumped")))
    if kind == "zero":
        return [F(0)] * length
    if kind == "short":
        return [F(0)] * (head - 1) + [F(1)] if head > 1 else []
    if kind == "random":
        return [F(draw(small), draw(st.integers(1, 3))) for _ in range(length)]
    prefix = [F(0)] * length
    for elem in series_basis(op, length - 1).elements:
        c = F(draw(nonzero))
        for e, v in elem.terms:
            prefix[int(e)] += c * v
    if kind == "bumped":
        prefix[draw(st.integers(0, length - 1))] += 1
    return prefix


@settings(max_examples=80)
@given(equations())
def test_rational_basis_matches_oracle(case):
    op, n = case
    basis = rational_basis(op)
    assert basis.elements == rational_basis_oracle(op)
    assert basis.dimension >= n
    assert_reduced_echelon(basis.elements)


@st.composite
def low_degree_equations(draw):
    """(op, sum of its coefficients): radix 2-3, order r = 1-3, every
    coefficient of degree < b^(r-1), about a third with sum 0, and some
    behind a zero l_0 (M-valuation 1).  Only constants can solve these."""
    radix = draw(st.sampled_from((2, 3)))
    r = draw(st.integers(1, 3))
    width = radix ** (r - 1)
    coefficient = st.lists(small, min_size=width, max_size=width).map(
        lambda cs: Poly([(e, F(c)) for e, c in enumerate(cs)])
    )
    coeffs = [draw(coefficient) for _ in range(r)]
    if draw(st.integers(0, 2)) == 0:
        coeffs.append(-sum(coeffs, Poly.zero()))
    else:
        coeffs.append(draw(coefficient))
    assume(coeffs[0] and coeffs[-1])
    if draw(st.integers(0, 3)) == 0:
        coeffs.insert(0, Poly.zero())
    return MahlerOperator(radix, coeffs), sum(coeffs, Poly.zero())


@settings(max_examples=100, derandomize=True)
@given(low_degree_equations())
def test_low_degree_equations_take_the_general_path(case):
    # degree < b^(r-1) gives v_bar = 0 and q_star = 1 on the general path,
    # so the rational basis is the constant 1 exactly when it solves
    op, total = case
    basis = rational_basis(op)
    assert basis.elements == (() if total else (RationalFunction.constant(1),))
    assert basis.elements == rational_basis_oracle(op)
    ramified = ramified_rational_basis(op)
    if op.m_valuation == 0 and ramification_data(op)[1] == 1:
        assert ramified.elements == tuple(RamifiedRationalFunction(1, f) for f in basis.elements)
    assert certify(op, basis) == [None] * basis.dimension
    assert certify(op, ramified) == [None] * ramified.dimension


def _rank(rows) -> int:
    return len(rref(rows)[2]) if rows else 0


@st.composite
def solver_families(draw):
    """An operator from `equations()`, or one with a known polynomial
    solution behind a random left factor."""
    if draw(st.booleans()):
        return draw(equations())[0]
    rng = random.Random(draw(st.integers(0, 2**16)))
    return random_poly_solvable(rng, draw(st.sampled_from((2, 3))), draw(st.integers(1, 2)))[0]


@settings(max_examples=150, derandomize=True)
@given(solver_families())
def test_polynomial_solutions_lie_in_the_rational_span(op):
    # compared by the rank of the Laurent expansions up to x^40
    rational_elements = rational_basis(op).elements
    polynomials = polynomial_basis(op).elements
    assert len(polynomials) <= len(rational_elements)
    lo = min([0] + [f.valuation for f in rational_elements])
    rows = [laurent(f, lo, 41) for f in rational_elements]
    extended = rows + [[p.coefficient(e) for e in range(lo, 41)] for p in polynomials]
    assert _rank(extended) == _rank(rows)


@settings(max_examples=80)
@given(st.data())
def test_transcendence_test_matches_oracle(data):
    op, _ = data.draw(equations())
    prefix = data.draw(prefixes(op))
    candidates = rational_basis(op).elements
    got = outcome(transcendence_test, op, prefix)
    want = outcome(transcendence_oracle, op, prefix, candidates)
    if isinstance(got, type):
        assert got == want
    else:
        assert (got.verdict, got.witness) == want


@settings(max_examples=50)
@given(st.data())
def test_bell_coons_test_matches_oracle(data):
    op, _ = data.draw(equations(max_degree=1, max_order=1))
    prefix = data.draw(prefixes(op))
    got = outcome(bell_coons_test, op, prefix)
    want = outcome(bell_coons_oracle, op, prefix)
    assert (got if isinstance(got, type) else got.verdict) == want


@st.composite
def extension_operators(draw):
    """An operator with nonzero l_0: from `equations()`, a random one
    with l_0 shifted up (nu >= 0 and most heads break a relation row),
    one with nu < 0 (each l_k, k >= 1, of higher valuation than l_0), or
    one of order 0."""
    kind = draw(st.sampled_from(("equation", "equation", "random", "negative", "order 0")))
    if kind == "equation":
        return solving_operator(draw(equations())[0])
    radix = draw(st.sampled_from((2, 3)))
    rng = random.Random(draw(st.integers(0, 2**16)))
    if kind == "order 0":
        return MahlerOperator(radix, [random_poly(rng, 3)])
    l0, *rest = random_operator(rng, radix, draw(st.integers(1, 2)), 3).coeffs
    if kind == "random":
        return MahlerOperator(radix, [l0.shift(draw(st.integers(1, 4)))] + rest)
    return MahlerOperator(radix, [l0] + [lk.shift(l0.valuation + 1) for lk in rest])


@st.composite
def extension_prefixes(draw, op):
    """The start of a series solution of op (a random combination of the
    series basis), the same with one coefficient of the head or of the
    tail bumped, or a prefix one coefficient too short."""
    head = max(math.floor(nu_mu_oracle(op)[0]) + 1, 0) if op.order >= 1 else 0
    length = max(head, 1) + draw(st.integers(0, 4))
    kind = draw(st.sampled_from(("solution", "head", "head", "tail", "short")))
    if kind == "short":
        return [F(draw(small)) for _ in range(max(head, 1) - 1)]
    prefix = [F(0)] * length
    if op.order >= 1:
        for elem in series_basis(op, length - 1).elements:
            c = F(draw(small), draw(st.integers(1, 3)))
            for e, v in elem.terms:
                prefix[int(e)] += c * v
    if kind == "head" and head:
        prefix[draw(st.integers(0, head - 1))] += 1
    if kind == "tail" and length > head:
        prefix[draw(st.integers(head, length - 1))] += 1
    return prefix


@settings(max_examples=100)
@given(st.data())
def test_consistent_extension_matches_oracle(data):
    # value for value, or the same error class: a bumped head fails the
    # relation rows, a bumped tail the closing comparison
    op = data.draw(extension_operators())
    prefix = data.draw(extension_prefixes(op))
    length = data.draw(st.integers(0, 12))
    got = outcome(extend_prefix, op, prefix, length)
    if isinstance(got, tuple):
        den, nums = got
        got = [F(v, den) for v in nums]
    assert got == outcome(consistent_extension_oracle, op, prefix, length)


def test_candidate_past_the_prefix(monkeypatch, rat_example):
    # the witness is read off the series, never combined from a rational
    # basis: with the basis solver, its window solve and its echelon form
    # all made to raise, a basis with extra elements of valuation 8 and 11
    # >= len(prefix) = 8 cannot enter, and the witness is still the target
    target = RationalFunction.make(ONE, 0, Poly([(0, F(-1)), (1, F(-1)), (2, F(1))]))
    prefix = laurent(target, 0, 8)
    true_basis = rational_basis(rat_example).elements
    forbid_basis_solve(monkeypatch)
    for extra in (8, 11):
        fake = true_basis + (RationalFunction.make(Poly.monomial(extra), 0, ONE),)
        got = transcendence_test(rat_example, prefix)
        assert (got.verdict, got.witness) == transcendence_oracle(rat_example, prefix, fake)
        assert got.witness == target


@pytest.mark.parametrize("fixture", ["rat_example", "reduction_example_normalized"])
def test_fixture_bases_match_oracle(fixture, request):
    op = request.getfixturevalue(fixture)
    basis = rational_basis(op)
    assert basis.dimension == 2
    assert basis.elements == rational_basis_oracle(op)
    assert_reduced_echelon(basis.elements)

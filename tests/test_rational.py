import functools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    coefficient,
    count_fraction_arithmetic,
    dense,
    forbid_basis_solve,
    from_terms,
    operator,
    pol,
    random_operator,
    random_poly,
    random_series_solvable_operator,
    rational_valuation,
)
from oracles import alt_denominator_bound, eliminate, laurent, nu_mu_oracle, same_span
from mahlersolve import rational
from mahlersolve.errors import (
    ExponentOverflowError,
    InconsistentPrefixError,
    InsufficientPrefixError,
    InternalInvariantError,
    InvalidArgumentError,
    UnsupportedEquationError,
    ZeroTrailingCoefficientError,
)
from mahlersolve.operator import MahlerOperator
from mahlersolve.poly import MAX_EXPONENT, Poly, gcd, mahler_substitute, poly_sections
from mahlersolve.rational import (
    DenominatorBound,
    RamifiedRationalFunction,
    RationalFunction,
    bell_coons_dimensions,
    bell_coons_rank,
    bell_coons_test,
    denominator_bound,
    ramified_rational_basis,
    rational_basis,
    transcendence_test,
)
from mahlersolve.rmatrix import extend_prefix
from mahlersolve.solver import SolutionBasis, certify, series_basis

F = Fraction
ONE = Poly.one()
X = Poly.x()


def rational_span(elements, lo, hi):
    return [laurent(f, lo, hi) for f in elements]


def verify_rational_solution(op, f):
    den = f.denominator.shift(f.x_power)
    total = Poly.zero()
    for k, lk in op.nonzero_coefficients():
        num_k = mahler_substitute(f.numerator, op.radix, k) if k else f.numerator
        cof = Poly.one()
        for i in range(op.order + 1):
            if i != k:
                cof = cof * (mahler_substitute(den, op.radix, i) if i else den)
        total = total + lk * num_k * cof
    return not total


def test_rational_function_normal_form():
    f = RationalFunction.make(pol(0, 2), 1, pol(0, -2, 2))
    # 2x / (x (2x^2 - 2x)) = 1/(x(x-1))
    assert f.x_power == 1
    assert f.denominator == pol(-1, 1)
    assert f.numerator == ONE
    assert rational_valuation(f) == -1
    assert f.laurent_coefficients(-1, 3) == (1, [-1, -1, -1, -1])
    # (den, nums) in lowest terms, zeros below -x_power and no terms for
    # an empty range: 1/(x (2 - x)) = 1/2 x^-1 + 1/4 + 1/8 x + ...
    g = RationalFunction.make(ONE, 1, pol(2, -1))
    assert g.laurent_coefficients(-3, 2) == (8, [0, 0, 4, 2, 1])
    assert g.laurent_coefficients(0, 1) == (4, [1])
    assert g.laurent_coefficients(-3, -1) == (1, [0, 0])
    assert g.laurent_coefficients(2, 2) == (1, [])
    assert RationalFunction.constant(0).laurent_coefficients(0, 2) == (1, [0, 0])
    zero = RationalFunction.make(Poly.zero(), 3, pol(1, 1))
    assert not zero.numerator and zero.denominator == ONE


def test_denominator_bound_trace(rat_example):
    bound = denominator_bound(rat_example)
    u1 = (pol(-1, 2) * pol(-1, -1, 1)).monic()
    assert bound.u_steps == (u1, ONE)
    assert bound.u_tilde == u1
    expected = (pol(-1, 2) * pol(-1, -1, 1) * pol(-1, 8) * pol(-1, -4, 1)).monic()
    assert bound.q_star == expected
    assert bound.v_bar == rat_example.degree // 6
    # degree guarantee for radix >= 3
    assert bound.q_star.degree <= rat_example.coeffs[2].degree // 3


def test_leading_coefficient_sections_trace(rat_example):
    # residue-9 sections of the order-2 leading coefficient: only the
    # classes 0, 1, 3, 4 survive, with proportional cofactors
    sections = poly_sections(rat_example.coeffs[2], 9)
    assert sections[0] == pol(3, -3, -9, 6)
    assert sections[1] == pol(-1, 1, 3, -2)
    assert sections[3] == pol(-1, 1, 3, -2)
    assert sections[4] == pol(2, -2, -6, 4)
    for i in (2, 5, 6, 7, 8):
        assert not sections[i]


def test_denominator_bound_trivial():
    op = operator(2, -ONE, ONE)
    bound = denominator_bound(op)
    assert bound.q_star == ONE and bound.v_bar == 0


def test_denominator_bound_rejects_unsupported_operators():
    unsupported = (
        MahlerOperator(2, []),  # zero
        operator(2, ONE + X),  # order 0
        operator(2, Poly.zero(), ONE),  # zero trailing coefficient
    )
    for op in unsupported:
        with pytest.raises(UnsupportedEquationError):
            denominator_bound(op)
    with pytest.raises(UnsupportedEquationError, match="zero operator"):
        ramified_rational_basis(MahlerOperator(3, []))


def test_denominator_bound_section_gcd_is_maximal():
    # at each loop step, M^r u divides the working polynomial exactly and
    # the section cofactors are coprime, so no larger factor was possible
    from mahlersolve.poly import gcd_all, lcm_orbit

    rng = random.Random(62)
    for _ in range(40):
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 2), 10)
        bound = denominator_bound(op)
        r = op.order
        ell = op.coeffs[-1]
        for u in bound.u_steps:
            sections = [s for s in poly_sections(ell, radix**r) if s]
            assert all(not s.divmod(u)[1] for s in sections)
            assert gcd_all(s.exact_div(u) for s in sections) == ONE
            assert not ell.divmod(mahler_substitute(u, radix, r))[1]
            if u.degree < 1:
                break
            ell = ell.exact_div(mahler_substitute(u, radix, r)) * lcm_orbit(u, radix, r)


def test_alt_denominator_bound(rat_example):
    # shortcut when the leading degree is small
    small = operator(3, ONE, Poly.zero(), Poly.zero(), pol(1, 0, 1))
    assert alt_denominator_bound(small) == ONE
    assert alt_denominator_bound(operator(2, -ONE, ONE)) == ONE
    # every true denominator divides the product bound
    bound = alt_denominator_bound(rat_example)
    assert not bound.divmod(pol(-1, 2))[1]
    assert not bound.divmod(pol(-1, -1, 1))[1]


def test_alt_denominator_bound_errors():
    with pytest.raises(ZeroTrailingCoefficientError):
        alt_denominator_bound(operator(2, Poly.zero(), ONE))
    with pytest.raises(UnsupportedEquationError, match="order >= 1"):
        alt_denominator_bound(operator(2, ONE + X))
    with pytest.raises(UnsupportedEquationError, match="zero operator"):
        alt_denominator_bound(MahlerOperator(2, []))


def test_rational_basis_golden(rat_example):
    basis = rational_basis(rat_example)
    assert basis.dimension == 2
    want = [
        RationalFunction.make(ONE, 0, pol(-1, 2)),
        RationalFunction.make(ONE, 0, pol(-1, -1, 1)),
    ]
    assert same_span(rational_span(basis.elements, 0, 12), rational_span(want, 0, 12))
    for f in basis.elements:
        assert verify_rational_solution(rat_example, f)
        assert gcd(f.numerator, f.denominator) == ONE
        assert coefficient(f.denominator, 0) != 0


def test_rational_basis_reduction_example(reduction_example_normalized):
    basis = rational_basis(reduction_example_normalized)
    assert basis.dimension == 2
    want = [
        RationalFunction.constant(1),
        RationalFunction.make(X, 0, pol(-1, 0, 1)),
    ]
    assert same_span(rational_span(basis.elements, 0, 14), rational_span(want, 0, 14))


def test_rational_basis_constants_only():
    lop = operator(2, X, -pol(1, 1), ONE)
    basis = rational_basis(lop)
    assert basis.dimension == 1
    assert basis.elements[0].numerator == ONE
    assert basis.elements[0].denominator == ONE
    # early exit: degree below radix^(order-1)
    tiny = operator(3, pol(1, -1), Poly.zero(), pol(-1, 1))
    early = rational_basis(tiny)
    for f in early.elements:
        assert f.numerator.degree <= 0 and f.denominator == ONE


def test_ramified_rational_examples(rat_example):
    lop = operator(2, -X, Poly.zero(), ONE)  # M^2 - x
    basis = ramified_rational_basis(lop)
    assert basis.dimension == 1
    elem = basis.elements[0]
    assert elem.ramification == 3
    assert elem.function.numerator == X and elem.function.denominator == ONE
    # integral slopes: plain rational solving, ramification 1
    same = ramified_rational_basis(rat_example)
    assert same.dimension == 2 and all(e.ramification == 1 for e in same.elements)
    triv = ramified_rational_basis(operator(2, -ONE, ONE))
    assert triv.dimension == 1
    assert triv.elements[0].function.numerator == ONE


def test_ramified_rational_strips_m_valuation():
    lop = operator(2, Poly.zero(), -X, ONE)  # M^2 - x M
    basis = ramified_rational_basis(lop)
    assert basis.dimension == 1
    elem = basis.elements[0]
    assert elem.ramification == 2
    assert elem.function.numerator == X  # x in t means x^(1/2)


def certify_ramified(op, elem):
    """Exact identity for y = f(x^(1/N)): substitute x = t^N and clear
    denominators, the resulting polynomial in t must vanish."""
    n = elem.ramification
    f = elem.function
    r = op.order
    b = op.radix
    dens = [f.denominator.substitute_power(b**i) if i else f.denominator for i in range(r + 1)]
    total = Poly.zero()
    for k, lk in op.nonzero_coefficients():
        part = lk.substitute_power(n)
        part = part * (f.numerator.substitute_power(b**k) if k else f.numerator)
        part = part.shift(f.x_power * (b**r - b**k))
        for i in range(r + 1):
            if i != k:
                part = part * dens[i]
        total = total + part
    return not total


def test_ramified_solutions_certify():
    lop = operator(2, Poly.monomial(1, -1), Poly.zero(), ONE)  # M^2 - x
    for elem in ramified_rational_basis(lop).elements:
        assert certify_ramified(lop, elem)
    shifted = operator(2, Poly.zero(), -X, ONE)  # M^2 - x M
    for elem in ramified_rational_basis(shifted).elements:
        assert certify_ramified(shifted, elem)
    msq3 = operator(3, Poly.monomial(1, -1), Poly.zero(), ONE)
    basis = ramified_rational_basis(msq3)
    assert basis.dimension == 1 and basis.elements[0].ramification == 8
    for elem in basis.elements:
        assert certify_ramified(msq3, elem)


# M^2 - x (n = 3), M^2 - x M (M-valuation 1, n = 2) and M^2 - x in radix
# 3 (n = 8): the three kinds of ramification the solver rescales by
RAMIFIED_FAMILY = (
    operator(2, -X, Poly.zero(), ONE),
    operator(2, Poly.zero(), -X, ONE),
    operator(3, -X, Poly.zero(), ONE),
)


def test_certify_ramified_matches_exact_identity():
    # certify checks a ramified rational basis against the caller's
    # operator; it accepts exactly when the exact identity holds
    rng = random.Random(2718)
    rejected = Counter()
    for i in range(30):
        base = RAMIFIED_FAMILY[i % 3]
        if i < 3:
            op = base
        else:
            op = random_operator(rng, base.radix, rng.randint(0, 1), 2) * base
        basis = ramified_rational_basis(op)
        assert basis.dimension >= 1
        assert certify(op, basis) == [None] * basis.dimension
        for elem in basis.elements:
            f = elem.function
            bump = f.numerator + Poly.monomial(rng.randint(0, 4))
            bad = RamifiedRationalFunction(
                elem.ramification, RationalFunction(bump, f.x_power, f.denominator)
            )
            for g in (elem, bad):
                single = SolutionBasis("ramified_rational_basis", (g,))
                if certify_ramified(op, g):
                    assert certify(op, single) == [None]
                else:
                    rejected[i % 3] += 1
                    with pytest.raises(
                        InternalInvariantError, match="ramified rational certificate failed"
                    ):
                        certify(op, single)
    assert all(rejected[k] >= 3 for k in range(3))


def test_transcendence_test(rat_example, monkeypatch):
    lop = operator(2, X, -pol(1, 1), ONE)
    prefix = [F(0), F(1), F(1), F(0), F(1)]
    verdict = transcendence_test(lop, prefix)
    assert verdict.verdict == "transcendental"
    assert verdict.witness is None

    verdict = transcendence_test(lop, [F(1), F(0), F(0), F(0), F(0)])
    assert verdict.verdict == "rational"
    assert verdict.witness == RationalFunction.constant(1)

    target = RationalFunction.make(ONE, 0, pol(-1, -1, 1))
    prefix = laurent(target, 0, 8)
    verdict = transcendence_test(rat_example, prefix)
    assert verdict.verdict == "rational"
    assert verdict.witness == target

    with pytest.raises(InconsistentPrefixError):
        transcendence_test(lop, [F(1), F(2), F(3), F(4), F(5)])
    with pytest.raises(InsufficientPrefixError):
        transcendence_test(lop, [F(1)])

    # a fault of the bound, or of the one extension to w - v_bar terms,
    # comes after every fault of the prefix; the zero prefix reads no bound
    def no_bound(op):
        raise UnsupportedEquationError("no bound")

    def overflowing_bound(op):
        return DenominatorBound(Poly.one(), MAX_EXPONENT, (), Poly.one())

    faults = ((no_bound, UnsupportedEquationError), (overflowing_bound, ExponentOverflowError))
    for bound, error in faults:
        monkeypatch.setattr(rational, "denominator_bound", bound)
        with pytest.raises(InconsistentPrefixError):
            transcendence_test(lop, [F(1), F(2), F(3), F(4), F(5)])
        with pytest.raises(error):
            transcendence_test(lop, [F(1), F(0), F(0), F(0), F(0)])
        assert transcendence_test(lop, [0, 0, 0]).witness == RationalFunction.constant(0)


LOP = operator(2, X, -pol(1, 1), ONE)


@pytest.mark.parametrize(
    "op, prefix, calls, verdict, witness",
    [
        # the zero series
        (LOP, [0, 0, 0], (1, 0, 0), "rational", RationalFunction.constant(0)),
        # y = x - x^3 - ...: q_star = 1, v_bar = 0, w = 1, and z = y has the
        # known term x at degree 1 >= w
        (operator(2, pol(0, -1), ONE, -ONE), [0, 1], (1, 0, 0), "transcendental", None),
        # y(x^4) = (1 + x) y: w = 1, so the witness is y(0) = 1, which fails
        # the certificate
        (operator(2, pol(-1, -1), Poly.zero(), ONE), [1], (1, 1, 0), "transcendental", None),
        # y = prod (1 - x^(2^k)): q_star = x - 1, v_bar = 1 and w = 4, so the
        # prefix is extended to w - v_bar = 3 terms; the witness fails the
        # certificate
        (operator(2, -ONE, pol(1, -1)), [1], (1, 1, 0), "transcendental", None),
        # y = x^2 - x^8 + ...: q_star = x, v_bar = 1 and w = 4, and z = x^2 y
        # is known only below x^4, where it is 0; the zero witness
        # certifies but does not expand to y
        (operator(2, pol(0, 0, -1), ONE, pol(0, 0, -1)), [0, 0, 1], (1, 1, 1), "transcendental", None),
        (LOP, [1, 0, 0, 0, 0], (1, 1, 1), "rational", RationalFunction.constant(1)),
        # y = 1/(1 - x): q_star = (x - 1)^2, v_bar = 2 and w = 7, so the
        # prefix is extended to 5 terms
        (
            operator(2, pol(-1, 1), pol(1, 0, -1)), [1], (1, 1, 1), "rational",
            RationalFunction.make(ONE, 0, pol(1, -1)),
        ),
    ],
    ids=[
        "zero", "tail", "certificate", "certificate-extended", "expansion", "rational",
        "rational-extended",
    ],
)
def test_transcendence_test_exits(monkeypatch, op, prefix, calls, verdict, witness):
    # every way out of the witness route, told apart by its calls:
    # (extensions of the prefix, certificates, comparisons with the series);
    # none solves for a rational basis
    forbid_basis_solve(monkeypatch)
    seen = Counter()
    for owner, name in (
        (rational, "extend_prefix"),
        (rational, "clear_denominator"),
        (RationalFunction, "laurent_coefficients"),
    ):
        monkeypatch.setattr(owner, name, _counted(seen, name, getattr(owner, name)))
    got = transcendence_test(op, prefix)
    monkeypatch.undo()
    names = ("extend_prefix", "clear_denominator", "laurent_coefficients")
    assert tuple(seen[name] for name in names) == calls
    assert (got.verdict, got.witness) == (verdict, witness)
    assert got.verdict == bell_coons_test(op, prefix).verdict


NON_RATIONAL_PREFIXES = (
    [0.5, 0, 0, 0, 0],
    [F(1), F(0), 0.0, F(0), F(0)],
    ["1", 0, 0, 0, 0],
    [True, 0, 0, 0, 0],
    [1, 0, 0, 0, False],
)


@pytest.mark.parametrize("prefix", NON_RATIONAL_PREFIXES)
def test_transcendence_test_rejects_non_rational_prefix(prefix):
    for op in (operator(2, X, -pol(1, 1), ONE), operator(2, pol(1, 1))):
        with pytest.raises(InvalidArgumentError, match="int or Fraction"):
            transcendence_test(op, prefix)


@pytest.mark.parametrize("prefix", NON_RATIONAL_PREFIXES)
def test_bell_coons_test_rejects_non_rational_prefix(prefix):
    for op in (operator(2, X, -pol(1, 1), ONE), operator(2, pol(1, 1))):
        with pytest.raises(InvalidArgumentError, match="int or Fraction"):
            bell_coons_test(op, prefix)


def test_bell_coons(rat_example):
    lop = operator(2, X, -pol(1, 1), ONE)
    kappa, bound = bell_coons_dimensions(lop)
    need = kappa + bound + 1
    y = [F(0)] * need
    k = 1
    while k < need:
        y[k] = F(1)
        k *= 2
    assert bell_coons_rank(lop, y) is True
    assert bell_coons_rank(lop, [F(1)] + [F(0)] * (need - 1)) is False
    # plain ints are coefficients too: the rank and both oracles take them
    assert bell_coons_rank(lop, [int(c) for c in y]) is True
    assert bell_coons_rank(lop, [1] + [0] * (need - 1)) is False
    for prefix in ([0, 1, 1, 0, 1], [1, 0, 0, 0, 0]):
        want = transcendence_test(lop, [F(c) for c in prefix])
        assert transcendence_test(lop, prefix) == want
        assert bell_coons_test(lop, prefix).verdict == want.verdict
    kappa2, bound2 = bell_coons_dimensions(rat_example)
    target = RationalFunction.make(ONE, 0, pol(-1, 2))
    series = laurent(target, 0, kappa2 + bound2 + 1)
    assert bell_coons_rank(rat_example, series) is False
    with pytest.raises(InsufficientPrefixError):
        bell_coons_rank(lop, [F(1), F(1)])


def test_series_extension_runs_on_ints(monkeypatch, rat_example):
    # Bell-Coons extends the prefix to kappa + bound + 1 coefficients by
    # prolonging its head on ints: the one Recurrence reads floor(nu) and
    # floor(mu) on ints, and neither the extension of the head, the
    # comparison with the rest of the prefix nor the Hankel test builds
    # or computes with a Fraction
    lop = operator(2, X, -pol(1, 1), ONE)
    witness = RationalFunction.make(ONE, 0, pol(-1, -1, 1))
    cases = [
        (lop, [F(0), F(1), F(1), F(0), F(1)], "transcendental"),
        (lop, [F(3, 2), F(0), F(0)], "rational"),
        (rat_example, laurent(witness, 0, 8), "rational"),
    ]
    lengths, counts = [], []
    for op, prefix, verdict in cases:
        kappa, bound = bell_coons_dimensions(op)
        head = prefix[: int(nu_mu_oracle(op)[0]) + 1]
        calls = count_fraction_arithmetic(monkeypatch)
        extend_prefix(op, head, kappa + bound + 1)
        parts = calls.copy()
        calls.clear()
        got = bell_coons_test(op, prefix)
        total = calls.copy()
        monkeypatch.undo()
        assert total == parts
        assert got.verdict == verdict
        lengths.append(kappa + bound + 1)
        counts.append(total)
    # the same count for 18 coefficients as for 200: none at all
    assert lengths == [18, 18, 200]
    assert counts == [Counter()] * 3


def _counted(calls: Counter, name: str, original):
    """`original`, counting each call in calls[name]."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return wrapper


def test_extension_prolongs_the_head_once(monkeypatch, rat_example, running_example):
    # the extension builds one Recurrence and prolongs the prefix's head
    # once: no series basis, and a head that breaks a relation row fails
    # before the prolongation; the order-0 path does neither
    from mahlersolve import rmatrix, solver

    assert not hasattr(rational, "series_basis")
    assert not hasattr(rational, "Recurrence")
    calls = Counter()
    counted = functools.partial(_counted, calls)
    for name in ("Recurrence", "_prolong"):
        monkeypatch.setattr(rmatrix, name, counted(name, getattr(rmatrix, name)))
    for module, name in ((solver, "series_basis"), (solver, "series_solutions")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    lop = operator(2, X, -pol(1, 1), ONE)
    prefix = laurent(RationalFunction.make(ONE, 0, pol(-1, -1, 1)), 0, 8)
    for op, start in ((lop, [F(0), F(1), F(1), F(0), F(1)]), (rat_example, prefix)):
        calls.clear()
        extend_prefix(op, start, 40)
        assert calls == Counter({"Recurrence": 1, "_prolong": 1})
    calls.clear()
    with pytest.raises(InconsistentPrefixError, match="relation for the coefficient of x"):
        extend_prefix(running_example, [F(1)] * 4, 8)
    assert calls == Counter({"Recurrence": 1})
    calls.clear()
    extend_prefix(operator(2, pol(1, 1)), [F(0)] * 3, 3)
    assert not calls


def test_bell_coons_dimensions_errors():
    with pytest.raises(ZeroTrailingCoefficientError):
        bell_coons_dimensions(operator(2, Poly.zero(), ONE))
    with pytest.raises(UnsupportedEquationError, match="order >= 1"):
        bell_coons_dimensions(operator(2, ONE + X))
    with pytest.raises(UnsupportedEquationError, match="zero operator"):
        bell_coons_dimensions(MahlerOperator(2, []))


def test_order_zero_transcendence():
    # l_0 y = 0 has only the zero solution
    op = operator(2, pol(1, 1))
    verdict = bell_coons_test(op, [F(0), F(0), F(0)])
    assert (verdict.verdict, verdict.witness, verdict.method) == ("rational", None, "bell-coons")
    verdict = transcendence_test(op, [F(0), F(0), F(0)])
    assert (verdict.verdict, verdict.method) == ("rational", "rational-basis")
    for oracle in (transcendence_test, bell_coons_test):
        with pytest.raises(InconsistentPrefixError, match="prefix extends to no series solution"):
            oracle(op, [F(1), F(0)])


def test_oracles_agree_on_transcendence_fixtures(rat_example):
    lop = operator(2, X, -pol(1, 1), ONE)
    target = RationalFunction.make(ONE, 0, pol(-1, -1, 1))
    cases = [
        (lop, [F(0), F(1), F(1), F(0), F(1)], "transcendental"),
        (lop, [F(1), F(0), F(0), F(0), F(0)], "rational"),
        (rat_example, laurent(target, 0, 8), "rational"),
    ]
    for op, prefix, expected in cases:
        for oracle in (transcendence_test, bell_coons_test):
            assert oracle(op, prefix).verdict == expected
    for oracle in (transcendence_test, bell_coons_test):
        with pytest.raises(InconsistentPrefixError):
            oracle(lop, [F(1), F(2), F(3), F(4), F(5)])
        with pytest.raises(InsufficientPrefixError):
            oracle(lop, [F(1)])


def test_certify_rational_matches_exact_identity(rat_example):
    basis = rational_basis(rat_example)
    assert certify(rat_example, basis) == [None, None]
    # a perturbed numerator is rejected exactly when the cleared identity fails
    rng = random.Random(616)
    verdicts = {True: 0, False: 0}
    for _ in range(25):
        radix = rng.choice((2, 3))
        p = random_poly(rng, 2)
        q = ONE + random_poly(rng, 2).shift(1)
        # y = p/q solves p q(x^b) M - p(x^b) q, so the product has it too
        right = MahlerOperator(radix, [-(mahler_substitute(p, radix) * q), p * mahler_substitute(q, radix)])
        op = random_operator(rng, radix, rng.randint(0, 1), 2) * right
        for f in rational_basis(op).elements:
            bump = f.numerator + Poly.monomial(rng.randint(0, 4))
            for g in (f, RationalFunction(bump, f.x_power, f.denominator)):
                solves = verify_rational_solution(op, g)
                verdicts[solves] += 1
                if solves:
                    assert certify(op, SolutionBasis("rational_basis", (g,))) == [None]
                else:
                    with pytest.raises(InternalInvariantError, match="rational certificate failed"):
                        certify(op, SolutionBasis("rational_basis", (g,)))
    assert verdicts[True] >= 20 and verdicts[False] >= 20


def test_transcendence_and_bell_coons_agree():
    rng = random.Random(808)
    agreements = transcendental = 0
    for _ in range(60):
        radix = rng.choice((2, 3))
        op = random_series_solvable_operator(rng, radix, rng.randint(1, 2))
        if not op.coefficient(0):
            continue
        kappa, bound = bell_coons_dimensions(op)
        need = kappa + bound + 1
        basis = series_basis(op, need)
        for elem in basis.elements:
            series = dense(elem)[:need]
            if len(series) < need:
                continue
            verdict = transcendence_test(op, series)
            hankel = bell_coons_rank(op, series)
            assert (verdict.verdict == "transcendental") == hankel
            # the early-exit test answers as the full rank of the matrix
            matrix = [series[i : i + bound + 1] for i in range(kappa + 1)]
            assert hankel == (len(eliminate(matrix)[0]) == kappa + 1)
            agreements += 1
            transcendental += hankel
    assert agreements >= 20 and 0 < transcendental < agreements


def test_degree_guards_random():
    rng = random.Random(613)
    for _ in range(60):
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 2), 9)
        r = op.order
        lead_deg = op.coeffs[-1].degree
        bound = denominator_bound(op)
        if radix == 2:
            assert bound.q_star.degree <= lead_deg
        else:
            assert bound.q_star.degree <= lead_deg // radix ** (r - 1)
        basis = rational_basis(op)
        for f in basis.elements:
            assert verify_rational_solution(op, f)
            assert not bound.q_star.divmod(f.denominator)[1]
            assert f.denominator.degree <= 3 * lead_deg // radix**r
            assert (
                f.numerator.degree
                <= f.denominator.degree + f.x_power + op.degree // (radix**r - radix ** (r - 1))
            )
            alt = alt_denominator_bound(op)
            assert not alt.divmod(f.denominator)[1] or f.denominator == ONE


def test_small_degree_implies_constants():
    rng = random.Random(1999)
    checked = 0
    for _ in range(400):
        if checked >= 100:
            break
        radix = rng.choice((2, 3))
        r = rng.randint(2, 3)
        max_deg = radix ** (r - 1) - 1
        if max_deg < 1:
            continue
        op = random_operator(rng, radix, r, max_deg)
        if op.degree >= radix ** (r - 1):
            continue
        checked += 1
        basis = rational_basis(op)
        for f in basis.elements:
            assert f.numerator.degree <= 0 and f.denominator == ONE
    assert checked >= 100


def _expansion(p: Poly, q: Poly, w: int) -> list[Fraction]:
    """First w coefficients of p/q, q(0) nonzero, divided out on Fractions."""
    out = []
    for n in range(w):
        s = coefficient(p, n) - sum(coefficient(q, e) * out[n - e] for e in range(1, n + 1))
        out.append(s / coefficient(q, 0))
    return out


def test_echelon_runs_on_ints(monkeypatch, rat_example):
    # the rational basis is one rref of int rows: the integer form of the
    # expansion of each p/q0 beside the numerators of p.  No Fraction is
    # built, and the basis is the reduced echelon form of the Fraction rows
    calls = count_fraction_arithmetic(monkeypatch)
    seen = []
    original = rational._echelon

    def counted(*args):
        before = calls.copy()
        out = original(*args)
        seen.append((args, out, calls - before))
        return out

    monkeypatch.setattr(rational, "_echelon", counted)
    p, q = pol(1, 2), pol(3, 1)
    ops = [
        rat_example,
        # (p q(x^2)) y(x^2) - (p(x^2) q) y(x) has the solution p/q, and q(0) = 3
        MahlerOperator(2, [-(mahler_substitute(p, 2) * q), p * mahler_substitute(q, 2)]),
    ]
    dims = [rational_basis(op).dimension for op in ops]
    monkeypatch.undo()
    assert dims == [2, 1]
    leads = []
    for (numerators, v_bar, q_star), out, count in seen:
        assert count == Counter()
        q0 = q_star.shift(-q_star.valuation)
        leads.append(abs(coefficient(q0, 0)))
        w = 1 + max(p.degree for p in numerators)
        rows = [_expansion(p, q0, w) + [coefficient(p, e) for e in range(w)] for p in numerators]
        reduced, _ = eliminate(rows)
        numerators = [from_terms((e, c) for e, c in enumerate(r[w:]) if c) for r in reduced]
        assert list(out) == [RationalFunction.make(p, v_bar, q_star) for p in numerators]
    assert max(leads) > 1

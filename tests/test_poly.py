import math
import random
from fractions import Fraction

import pytest

from conftest import (
    coefficient,
    count_fraction_arithmetic,
    derivative,
    evaluate,
    from_terms,
    mono,
    pol,
    terms,
)
from oracles import bareiss_determinant, graeffe_monic, poly_mul_oracle
from mahlersolve.errors import ExactDivisionError, ExponentOverflowError, InvalidArgumentError
from mahlersolve.poly import (
    MAX_EXPONENT,
    Poly,
    format_terms,
    gcd,
    gcd_all,
    graeffe,
    lcm,
    lcm_orbit,
    lowest_terms,
    mahler_substitute,
    poly_sections,
)
from mahlersolve.rational import RationalFunction
from mahlersolve.solver import PuiseuxSeries


def test_construction_normalizes():
    p = Poly.from_integers(-4, [(0, 6), (2, -2)])
    assert (p.den, p.nums) == (2, ((0, -3), (2, 1)))
    assert Poly.zero().degree == -1


def test_poly_from_integers_rejects_zero_denominator():
    with pytest.raises(InvalidArgumentError):
        Poly.from_integers(0, [(0, 3)])
    with pytest.raises(InvalidArgumentError):
        Poly.from_integers(0, [])


def test_series_from_integers_rejects_zero_denominator():
    with pytest.raises(InvalidArgumentError):
        PuiseuxSeries.from_integers(1, 0, [(0, 1)], 3)


@pytest.mark.parametrize("ramification", [0, -2])
def test_series_from_integers_rejects_ramification_below_one(ramification):
    # the unit of every exponent is 1/ramification
    with pytest.raises(InvalidArgumentError):
        PuiseuxSeries.from_integers(ramification, 1, [(1, 1)], 3)


@pytest.mark.parametrize("order", [Fraction(11, 2), Fraction(4), 5.5, "3", None])
def test_series_from_integers_takes_only_an_int_truncation_order(order):
    # in units of 1/ramification, so a Fraction would be read in the wrong unit
    with pytest.raises(InvalidArgumentError):
        PuiseuxSeries.from_integers(2, 1, [(-1, 1)], order)
    assert PuiseuxSeries.from_integers(2, 2, [(-1, 2)], 11) == PuiseuxSeries(2, 1, ((-1, 1),), 11)


@pytest.mark.parametrize("c", [0.5, "1", None, 1j])
def test_monomial_rejects_a_coefficient_that_is_not_rational(c):
    with pytest.raises(InvalidArgumentError):
        Poly.monomial(0, c)


def test_monomial_builds_no_fraction(monkeypatch):
    c = Fraction(-2, 3)
    calls = count_fraction_arithmetic(monkeypatch)
    p = Poly.monomial(3, c)
    assert calls["new"] == 0
    assert (p.den, p.nums) == (3, ((3, -2),))
    assert Poly.monomial(2, 0) == Poly.zero() and Poly.monomial(1) == Poly.x()


def test_arithmetic_basics():
    p = pol(1, 2, 3)
    q = pol(0, -2)
    assert p + q == pol(1, 0, 3)
    assert p - p == Poly.zero()
    assert p * Poly.zero() == Poly.zero()
    assert (p * q).degree == 3
    assert pol(1, 1) * pol(1, 1) == pol(1, 2, 1)
    assert p * mono(0, Fraction(1, 2)) == pol(Fraction(1, 2), 1, Fraction(3, 2))


def test_divmod_and_exact_division():
    a = pol(-1, 0, 1)  # x^2 - 1
    b = pol(1, 1)
    q, r = a.divmod(b)
    assert q == pol(-1, 1) and not r
    assert a.exact_div(b) == pol(-1, 1)
    with pytest.raises(ExactDivisionError):
        pol(1, 1, 1).exact_div(pol(1, 1))
    with pytest.raises(InvalidArgumentError):
        a.divmod(Poly.zero())


def test_gcd_lcm_monic():
    a = pol(-1, 0, 1) * pol(2, 2)
    b = pol(1, 1) * pol(0, 6)
    g = gcd(a, b)
    assert g == pol(1, 1)
    assert terms(g)[-1][1] == 1
    assert lcm(pol(-1, 1), pol(-1, 0, 1)) == pol(-1, 0, 1)
    assert gcd(Poly.zero(), a) == a.monic()
    assert gcd_all([pol(0, 2), pol(0, 0, 4), pol(0, -2, 2)]) == Poly.x()


def test_evaluate():
    p = pol(Fraction(2, 3), Fraction(4, 3))
    assert evaluate(p, 2) == Fraction(2, 3) + Fraction(8, 3)
    assert evaluate(pol(1, 1, 1), Fraction(1, 2)) == Fraction(7, 4)


def test_derivative():
    assert derivative(pol(5, 3, 0, 2)) == pol(3, 0, 6)


def test_mahler_substitute_examples():
    # direct substitution
    assert mahler_substitute(pol(-1, 1), 2) == pol(-1, 0, 1)
    # radix-3 image of x^2 - x - 1
    assert mahler_substitute(pol(-1, -1, 1), 3) == from_terms(
        [(0, Fraction(-1)), (3, Fraction(-1)), (6, Fraction(1))]
    )
    assert mahler_substitute(Poly.zero(), 5, 3) == Poly.zero()


def test_mahler_substitute_overflow():
    p = Poly.monomial(2**40)
    with pytest.raises(ExponentOverflowError):
        mahler_substitute(p, 2, 30)


def test_graeffe_examples():
    # resultant of (y^2 - x, y - c) = c^2 - x
    assert graeffe(pol(-3, 1), 2) == pol(9, -1)
    assert graeffe(pol(-1, 0, 1), 2) == pol(1, -2, 1)
    # radix 3: G((2x-1)(x^2-x-1)) is a unit times (8x-1)(x^2-4x-1)
    g = graeffe_monic(pol(-1, 2) * pol(-1, -1, 1), 3)
    assert g == (pol(-1, 8) * pol(-1, -4, 1)).monic()
    assert graeffe(Poly.monomial(0, 5), 2) == Poly.monomial(0, 25)


def test_graeffe_at_a_large_radix():
    # a constant c maps to c^b; the roots of x^2 + x + 1, primitive cube
    # roots of unity, are their own b-th powers for b = 1 mod 3 and have
    # b-th power 1 for b = 0 mod 3
    b = 10**4
    c = Fraction(-3, 2)
    assert graeffe(Poly.monomial(0, c), b) == Poly.monomial(0, c**b)
    assert graeffe(pol(1, 1, 1), b) == pol(1, 1, 1)
    assert graeffe(pol(1, 1, 1), b + 2) == pol(1, -2, 1)


def test_graeffe_matches_direct_resultant_radix():
    # an iterated radix-b step equals the single radix-b^i transform
    rng = random.Random(7)
    for _ in range(25):
        p = pol(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        if not p:
            continue
        for b, i in ((2, 2), (3, 2), (2, 3)):
            assert graeffe(p, b, i) == graeffe(p, b**i, 1)


def test_graeffe_identities_bulk():
    # 200 random polynomials: the three divisibility identities linking
    # the substitution and root-powering maps
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        deg = rng.randint(0, 5)
        p = pol(*[rng.randint(-3, 3) for _ in range(deg + 1)])
        if not p:
            continue
        checked += 1
        b = rng.choice((2, 3))
        i = rng.choice((1, 2))
        mp = mahler_substitute(p, b, i)
        assert graeffe(mp, b, i) == math.prod([p] * b**i, start=Poly.one())
        back = mahler_substitute(graeffe_monic(p, b, i), b, i)
        assert not back.divmod(p)[1]
        q = pol(*[rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
        if q:
            prod = p * q
            assert not mahler_substitute(prod, b, i).divmod(mahler_substitute(p, b, i))[1]
            if (prod * pol(1, 1) + Poly.one()).divmod(p)[1]:
                lhs = mahler_substitute(p, b, i)
                rhs = mahler_substitute(prod * pol(1, 1) + Poly.one(), b, i)
                assert rhs.divmod(lhs)[1]


def test_mahler_multiplicativity():
    rng = random.Random(11)
    for _ in range(50):
        p = pol(*[rng.randint(-3, 3) for _ in range(3)])
        q = pol(*[rng.randint(-3, 3) for _ in range(4)])
        assert mahler_substitute(p * q, 2) == mahler_substitute(p, 2) * mahler_substitute(q, 2)
        if p:
            assert mahler_substitute(p, 3).degree == 3 * p.degree


def test_squarefree_preserved_by_substitution():
    # if f(0) != 0 and f is squarefree then so is its radix image
    rng = random.Random(5)
    found = 0
    while found < 40:
        f = pol(*[rng.randint(-3, 3) for _ in range(rng.randint(2, 5))])
        if not f or f.degree < 1 or not coefficient(f, 0):
            continue
        if gcd(f, derivative(f)) != Poly.one():
            continue
        found += 1
        mf = mahler_substitute(f, rng.choice((2, 3)))
        assert gcd(mf, derivative(mf)) == Poly.one()


def test_poly_sections_examples():
    f = poly_sections(pol(0, 0, 0, 1, 2, 1), 3)
    assert f == [Poly.x(), Poly.x() * mono(0, 2), Poly.x()]
    assert poly_sections(Poly.zero(), 2) == [Poly.zero(), Poly.zero()]


def test_poly_sections_round_trip():
    rng = random.Random(99)
    for _ in range(200):
        p = from_terms(
            [
                (rng.randint(0, 30), Fraction(rng.randint(-5, 5)))
                for _ in range(rng.randint(0, 6))
            ]
        )
        b = rng.choice((2, 3, 5))
        sections = poly_sections(p, b)
        total = Poly.zero()
        for i, f in enumerate(sections):
            total = total + Poly.monomial(i) * f.substitute_power(b) if i else total + f.substitute_power(b)
        assert total == p


def test_lcm_orbit():
    assert lcm_orbit(pol(-1, 1), 2, 2) == pol(-1, 0, 1)
    assert lcm_orbit(pol(7), 3, 4) == Poly.one()
    two_factors = lcm_orbit(pol(-1, -1, 1), 3, 2)
    expected = pol(-1, -1, 1) * from_terms([(0, Fraction(-1)), (3, Fraction(-1)), (6, Fraction(1))])
    assert two_factors == expected.monic()
    with pytest.raises(InvalidArgumentError):
        lcm_orbit(Poly.zero(), 2, 1)


def test_bareiss_determinant():
    x = Poly.x()
    one = Poly.one()
    mat = [[one, x], [x, one]]
    assert bareiss_determinant(mat) == one - x * x
    assert bareiss_determinant([[Poly.zero(), one], [one, Poly.zero()]]) == -(one)
    assert bareiss_determinant([[Poly.zero(), Poly.zero()], [one, one]]) == Poly.zero()


def test_exponent_cap_is_enforced():
    with pytest.raises(ExponentOverflowError):
        Poly.monomial(MAX_EXPONENT + 1)
    with pytest.raises(ExponentOverflowError):
        Poly.monomial(MAX_EXPONENT // 2) * Poly.monomial(MAX_EXPONENT // 2 + 2)


def test_product_matches_schoolbook_oracle():
    rng = random.Random(11)
    dens = (1, 2, 3, 7)

    def draw(ints_only):
        def coeff():
            c = rng.randint(-5, 5)
            return c if ints_only else Fraction(c, rng.choice(dens))

        return from_terms((rng.randint(0, 12), coeff()) for _ in range(rng.randint(0, 6)))

    cases = [
        (pol(1, 1), pol(1, -1)),  # x^2 - 1: the x term cancels
        (pol(Fraction(1, 2), Fraction(1, 3)), pol(Fraction(1, 2), Fraction(-1, 3))),  # 1/4 - x^2/9
        (pol(Fraction(1, 6)), pol(6)),
        (Poly.zero(), pol(1, 2)),
        (pol(1, 2), Poly.zero()),
    ]
    cases += [(draw(rng.random() < 0.3), draw(rng.random() < 0.3)) for _ in range(400)]
    for p, q in cases:
        assert repr(p * q) == repr(poly_mul_oracle(p, q))


def test_integer_forms_read_an_iterator_once():
    # the (e, num) pairs may come as any iterable, read once
    pairs = [(0, 4), (1, 6)]
    assert lowest_terms(2, iter(pairs)) == lowest_terms(2, pairs) == (1, ((0, 2), (1, 3)))
    assert lowest_terms(1, iter(pairs)) == (1, tuple(pairs))
    assert Poly.from_integers(2, iter(pairs)) == Poly.from_integers(2, pairs) == pol(2, 3)
    elem = PuiseuxSeries.from_integers(1, 2, iter(pairs), 3)
    assert elem.nums == ((0, 2), (1, 3)) and elem == PuiseuxSeries.from_integers(1, 2, pairs, 3)
    with pytest.raises(InvalidArgumentError):
        Poly.from_integers(1, iter([(-1, 1)]))


def test_str_builds_no_fraction(monkeypatch):
    # str of a Poly and of a RationalFunction writes each coefficient
    # from the integer form: the text of the Fraction terms, no Fraction
    p = from_terms([(0, Fraction(-1, 2)), (3, Fraction(2, 3)), (5, Fraction(7))])
    f = RationalFunction.make(p, 1, from_terms([(0, Fraction(1, 3)), (2, Fraction(1))]))
    assert len(f.numerator.nums) == 3 and len(f.denominator.nums) == 2
    text = lambda q: format_terms((e, str(c)) for e, c in terms(q))
    want_p = text(p)
    want_f = f"({text(f.numerator)}) / (x * ({text(f.denominator)}))"
    assert want_p == "-1/2 + 2/3*x^3 + 7*x^5"
    calls = count_fraction_arithmetic(monkeypatch)
    assert (str(p), str(f)) == (want_p, want_f)
    assert calls["new"] == 0

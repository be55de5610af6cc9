"""The integer-backed Poly against the Fraction oracles in oracles.py.

Operands mix denominators, carry negative leading coefficients and
factors x^k, and include the zero polynomial; every result must also be
in canonical integer form.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import from_terms, mono, terms
from oracles import (
    graeffe_oracle,
    lcm_orbit_oracle,
    poly_add_oracle,
    poly_divmod_oracle,
    poly_gcd_oracle,
    poly_monic_oracle,
    poly_mul_oracle,
    poly_sections_oracle,
)
from mahlersolve.poly import (
    Poly,
    gcd,
    graeffe,
    lcm_orbit,
    mul_sub,
    poly_sections,
    residue_sections,
)

numerators = st.one_of(st.integers(-12, 12), st.integers(-(10**20), 10**20))
coefficients = st.builds(Fraction, numerators, st.sampled_from((1, 2, 3, 4, 6, 7, 9, 10**12)))


@st.composite
def polys(draw):
    """A sum of terms times x^shift, negated or not (so the leading
    coefficient takes either sign)."""
    terms = draw(st.lists(st.tuples(st.integers(0, 10), coefficients), max_size=6))
    shift = draw(st.integers(0, 4))
    sign = draw(st.sampled_from((1, -1)))
    return from_terms((e + shift, sign * c) for e, c in terms)


nonzero_polys = polys().filter(bool)
# zero and one-term operands beside general ones
operands = st.one_of(
    polys(),
    st.builds(lambda e, c: from_terms([(e, c)]), st.integers(0, 6), coefficients),
    st.just(Poly.zero()),
)


def assert_canonical(p: Poly) -> None:
    assert p.den > 0
    assert all(c for _, c in p.nums)
    assert all(e1 < e2 for (e1, _), (e2, _) in zip(p.nums, p.nums[1:]))
    assert math.gcd(p.den, *(c for _, c in p.nums)) == 1


@given(polys(), polys())
def test_sum_and_difference(a, b):
    for result, want in (
        (a + b, poly_add_oracle(terms(a), terms(b))),
        (a - b, poly_add_oracle(terms(a), terms(-b))),
        (-a, tuple((e, -c) for e, c in terms(a))),
    ):
        assert_canonical(result)
        assert terms(result) == want


@given(polys(), st.integers(0, 6), st.one_of(st.just(Fraction(1)), coefficients))
def test_one_term_product(a, k, c):
    # a one-term operand c x^k, on either side, takes the shift-and-scale
    # path (a plain shift for c = 1) and must agree with the general product
    m = from_terms([(k, c)])
    want = poly_mul_oracle(a, m)
    for result in (a * m, m * a):
        assert_canonical(result)
        assert result == want


@given(operands, operands, operands, operands)
def test_mul_sub(a, p, b, q):
    # both products over the lcm of their denominators, reduced once
    result = mul_sub(a, p, b, q)
    assert_canonical(result)
    want = poly_add_oracle(terms(poly_mul_oracle(a, p)), terms(-poly_mul_oracle(b, q)))
    assert terms(result) == want


@given(polys(), nonzero_polys)
def test_divmod(a, b):
    q, r = a.divmod(b)
    want_q, want_r = poly_divmod_oracle(terms(a), terms(b))
    assert_canonical(q)
    assert_canonical(r)
    assert (terms(q), terms(r)) == (want_q, want_r)


@given(polys(), polys(), polys())
def test_gcd(a, b, common):
    # a common factor makes nontrivial gcds likely
    a, b = a * common, b * common
    g = gcd(a, b)
    assert_canonical(g)
    assert terms(g) == poly_gcd_oracle(terms(a), terms(b))


@given(polys(), coefficients)
def test_monic_scale(a, c):
    for result, want in (
        (a.monic(), poly_monic_oracle(terms(a))),
        (a * mono(0, c), tuple((e, v * c) for e, v in terms(a) if v * c)),
    ):
        assert_canonical(result)
        assert terms(result) == want


@given(polys(), st.integers(2, 5))
def test_sections(a, radix):
    sections = poly_sections(a, radix)
    for section in sections:
        assert_canonical(section)
    assert [terms(s) for s in sections] == poly_sections_oracle(terms(a), radix)
    assert residue_sections(a, radix) == {i: s for i, s in enumerate(sections) if s}
    assert residue_sections(a, 1) == ({0: a} if a else {})


@settings(max_examples=300)
@given(polys(), st.integers(2, 7), st.integers(1, 2))
def test_graeffe(a, radix, power):
    # constants, zero roots (the shift), negative leads and rational
    # coefficients all go through the one power-sum path
    result = graeffe(a, radix, power)
    assert_canonical(result)
    assert result == graeffe_oracle(a, radix, power)


small = st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 2, 3)))
# factors that make gcd(u, M^j u) nontrivial: roots of unity and zero,
# and u | u(x^b) for x - 1, x, and x^2 + x + 1 at radix 2
special = st.sampled_from(
    [Poly.one(), Poly.x(), from_terms([(0, -1), (1, 1)]), from_terms([(0, 1), (1, 1)]),
     from_terms([(0, 1), (1, 1), (2, 1)]), from_terms([(0, -1), (3, 1)])]
)


@given(st.lists(st.tuples(st.integers(0, 3), small), max_size=4), special, special,
       st.integers(2, 3), st.integers(1, 3))
def test_lcm_orbit(pairs, f, g, radix, order):
    u = from_terms(pairs) * f * g
    assume(u)
    assert lcm_orbit(u, radix, order) == lcm_orbit_oracle(u, radix, order)


@given(st.lists(st.tuples(st.integers(0, 10), coefficients), max_size=6))
def test_constructor_and_from_integers_agree(pairs):
    p = from_terms(pairs)
    assert_canonical(p)
    # any scaling of the integer form describes the same polynomial
    assert Poly.from_integers(-6 * p.den, [(e, -6 * c) for e, c in p.nums]) == p


@given(operands)
def test_repr_round_trips(p):
    assert eval(repr(p), {"Poly": Poly}) == p

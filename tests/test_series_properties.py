"""The integer-backed PuiseuxSeries against its Fraction form.

A series is stored as integer numerators over one denominator, with
exponents in units of 1/scale.  These properties check that the integer
form means the same as the Fraction form it replaced: the JSON strings,
equality, hashing and the `terms` view.  Prolongation is compared with
its Fraction oracle in test_rmatrix.py, and certificates of perturbed
series are checked in test_solver.py.
"""

import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from mahlersolve.poly import Poly
from mahlersolve.serialize import basis_to_json, poly_to_json
from mahlersolve.solver import PuiseuxSeries, SolutionBasis

F = Fraction
numerators = st.one_of(st.integers(-12, 12), st.integers(-(10**20), 10**20)).filter(bool)
denominators = st.sampled_from((1, 2, 3, 4, 6, 9, 10**12))


@st.composite
def integer_series(draw):
    """(ramification, den, nums, truncation order) with exponents in
    units of 1/ramification: negative numerators, den 1, and pairs that
    share a factor with den all occur."""
    ramification = draw(st.sampled_from((1, 2, 3, 4, 6)))
    exps = sorted(draw(st.sets(st.integers(-20, 40), max_size=7)))
    den = draw(denominators)
    nums = [(e, draw(numerators)) for e in exps]
    truncation = F(draw(st.integers(41, 60)), draw(st.sampled_from((1, ramification))))
    return ramification, den, nums, truncation


@given(integer_series())
def test_json_strings_match_fractions(case):
    ramification, den, nums, truncation = case
    elem = PuiseuxSeries.from_integers(ramification, den, nums, truncation)
    doc = basis_to_json(SolutionBasis("puiseux_basis", (elem,)))
    want = [[str(F(e, ramification)), str(F(v, den))] for e, v in nums]
    assert doc["elements"][0]["terms"] == want
    assert doc["elements"][0]["truncation_order"] == str(truncation)
    poly = Poly.from_integers(den, [(e + 20, v) for e, v in nums])
    assert poly_to_json(poly) == [[e + 20, str(F(v, den))] for e, v in nums]


@given(integer_series())
def test_from_integers_matches_fraction_constructor(case):
    ramification, den, nums, truncation = case
    fast = PuiseuxSeries.from_integers(ramification, den, nums, truncation)
    terms = [(F(e, ramification), F(v, den)) for e, v in nums]
    slow = PuiseuxSeries(ramification, terms, truncation)
    assert fast == slow and hash(fast) == hash(slow)
    assert fast.terms == slow.terms == tuple(terms)
    assert (fast.scale, fast.den, fast.nums) == (slow.scale, slow.den, slow.nums)
    # canonical integer form: positive den in lowest terms with the nums
    assert fast.den > 0 and math.gcd(fast.den, *(v for _, v in fast.nums)) == 1
    assert fast.valuation == (terms[0][0] if terms else None)
    # the constructor also sorts its terms
    assert PuiseuxSeries(ramification, reversed(terms), truncation) == fast


def test_fraction_constructor_keeps_finer_exponents():
    # exponents outside (1/ramification)Z widen the scale, as before
    elem = PuiseuxSeries(2, ((F(1, 3), F(2, 4)), (F(1, 2), F(-3))), F(2))
    assert (elem.scale, elem.den, elem.nums) == (6, 2, ((2, 1), (3, -6)))
    assert basis_to_json(SolutionBasis("puiseux_basis", (elem,)))["elements"][0]["terms"] == [
        ["1/3", "1/2"],
        ["1/2", "-3"],
    ]
    # repeated exponents are summed, and a sum that vanishes is dropped
    twice = PuiseuxSeries(1, [(0, 1), (0, 2)], 5)
    assert twice.nums == ((0, 3),) and twice == PuiseuxSeries(1, [(0, 3)], 5)
    assert basis_to_json(SolutionBasis("series_basis", (twice,)))["elements"][0]["terms"] == [
        ["0", "3"]
    ]
    cancelled = PuiseuxSeries(2, [(F(1, 2), 1), (1, 4), (F(1, 2), -1)], 5)
    assert (cancelled.scale, cancelled.den, cancelled.nums) == (2, 1, ((2, 4),))
    assert cancelled == PuiseuxSeries(2, [(1, 4)], 5)

"""The integer-backed PuiseuxSeries against its Fraction meaning.

A series is stored as integer numerators over one denominator, with
exponents in units of 1/ramification.  These properties check that the
integer form means the same as its Fraction terms: the JSON strings,
the canonical form `from_integers` builds (against a Fraction build in
oracles.py), equality, hashing and the `terms` view.  Prolongation is
compared with its Fraction oracle in test_rmatrix.py, and certificates
of perturbed series are checked in test_solver.py.
"""

import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from oracles import series_oracle
from mahlersolve.poly import Poly
from mahlersolve.serialize import basis_to_json, poly_to_json
from mahlersolve.solver import PuiseuxSeries, SolutionBasis

F = Fraction
numerators = st.one_of(st.integers(-12, 12), st.integers(-(10**20), 10**20)).filter(bool)
denominators = st.sampled_from((1, 2, 3, 4, 6, 9, 10**12, -1, -6))


@st.composite
def integer_series(draw):
    """(ramification, den, nums, truncation order) with exponents in
    units of 1/ramification: negative numerators, den 1, a negative den,
    and pairs that share a factor with den all occur."""
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
def test_from_integers_matches_fraction_oracle(case):
    ramification, den, nums, truncation = case
    elem = PuiseuxSeries.from_integers(ramification, den, nums, truncation)
    terms = [(F(e, ramification), F(v, den)) for e, v in nums]
    want = series_oracle(ramification, terms, truncation)
    assert (elem.den, elem.nums) == (want.den, want.nums)
    assert elem == want and hash(elem) == hash(want)
    assert type(elem.truncation_order) is type(want.truncation_order)
    # canonical integer form: positive den in lowest terms with the nums
    assert elem.den > 0 and math.gcd(elem.den, *(v for _, v in elem.nums)) == 1
    assert elem.terms == tuple(terms)
    assert elem.valuation == (terms[0][0] if terms else None)

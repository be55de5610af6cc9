"""The CLI's JSON writer against `json.dumps(value, indent=2)`.

`cli._json` writes a `Terms`, the pairs of a series or of a polynomial,
in one step and every other value as the indenting encoder does.  The
documents below mix `Terms` with plain lists of pairs and near misses of
their shape, so that both paths, and the choice between them, are
compared byte for byte with the standard library; the serializers must
give every list of terms as `Terms`, so that the golden corpus runs the
typed path.
"""

import json

from hypothesis import example, given
from hypothesis import strategies as st

from conftest import operator, pol
from mahlersolve.cli import _json
from mahlersolve.poly import Poly
from mahlersolve.rational import RationalFunction, ramified_rational_basis, rational_basis
from mahlersolve.serialize import (
    Terms,
    basis_to_json,
    operator_to_json,
    poly_to_json,
    rational_to_json,
)
from mahlersolve.solver import polynomial_basis, puiseux_basis, series_basis

strings = st.text(
    st.one_of(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7fé \U0001f600'), st.characters()),
    max_size=6,
)
scalars = st.one_of(
    st.none(),
    st.sampled_from((True, False, 1, 0)),
    st.integers(),
    strings,
)
pairs = st.one_of(
    st.lists(strings, min_size=2, max_size=2),
    st.tuples(st.integers(), strings).map(list),
)
near_pairs = st.one_of(
    st.tuples(st.booleans(), strings).map(list),
    st.tuples(st.integers(), st.integers()).map(list),
    st.tuples(strings, st.integers()).map(list),
    st.tuples(strings, st.booleans()).map(list),
    st.lists(strings, min_size=1, max_size=1),
    st.lists(strings, min_size=3, max_size=3),
    st.just([]),
    strings,
)


@st.composite
def pair_lists(draw):
    """A list of [str, str] and [int, str] pairs, sometimes with one odd
    item."""
    items = draw(st.lists(pairs, min_size=1, max_size=5))
    if draw(st.integers(0, 2)) == 0:
        items.insert(draw(st.integers(0, len(items))), draw(near_pairs))
    return items


# what `serialize` writes: ASCII digits, "-" and "/"
ratios = st.tuples(st.integers(), st.one_of(st.none(), st.integers(1))).map(
    lambda nd: str(nd[0]) if nd[1] is None else f"{nd[0]}/{nd[1]}"
)
terms = st.lists(
    st.tuples(st.one_of(st.integers(min_value=0), ratios), ratios).map(list), max_size=5
).map(Terms)

documents = st.recursive(
    st.one_of(scalars, pair_lists(), pair_lists(), near_pairs, terms),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(strings, children, max_size=4),
    ),
    max_leaves=12,
)


@given(documents)
@example({})
@example([])
@example({"a": {}, "b": [], "c": [[]], "d": [{}]})
@example({"terms": [["-1/2", "3"], ["7", "é\"\\"]], "truncation_order": "9"})
@example([["1", "2"], ["3", 4]])
@example([[True, "x"], ["1", False]])
@example({"coefficients": [{"order": 0, "terms": [[0, "1"], [3, "-1/2"]]}], "content": [[2, "7"]]})
@example([[-5, "a"], [10**30, "b"], [-(10**40), "-3/4"], [0, ""]])
@example([[0, "1"], [True, "2"]])
@example([[False, "x"]])
@example({"terms": Terms(), "content": Terms([[0, "1"]]), "e": [Terms([["-3/4", "-3/4"]])]})
@example(Terms([[0, "1"], ["7/2", "-3/4"], [10**30, "0"]]))
def test_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2)


X, ONE = Poly.x(), Poly.one()


def _terms_lists(doc) -> list:
    """Every value under a "terms", "numerator", "denominator" or
    "content" key of a document, at any depth."""
    if isinstance(doc, list):
        return [t for item in doc for t in _terms_lists(item)]
    if not isinstance(doc, dict):
        return []
    found = [v for k, v in doc.items() if k in ("terms", "numerator", "denominator", "content")]
    return found + [t for v in doc.values() for t in _terms_lists(v)]


def test_serializers_give_terms(running_example, rat_example):
    lop = operator(2, X, -pol(1, 1), ONE)
    f = RationalFunction.make(pol(1, 2), 1, pol(1, 0, 1))
    docs = [
        operator_to_json(running_example),
        rational_to_json(f),
        {"content": poly_to_json(pol(0, 3))},
        *(
            basis_to_json(basis)
            for basis in (
                series_basis(running_example, 8),
                puiseux_basis(running_example, None, 6),
                polynomial_basis(lop),
                rational_basis(rat_example),
                ramified_rational_basis(operator(2, -X, Poly.zero(), ONE)),
            )
        ),
    ]
    found = [t for doc in docs for t in _terms_lists(doc)]
    assert len(found) >= 12 and all(type(t) is Terms for t in found)
    assert type(poly_to_json(Poly.zero())) is Terms

"""The CLI's JSON writer against `json.dumps(value, indent=2)`.

`cli._json` writes a list of [str, str] or [int, str] pairs, the terms
of a series or of a polynomial, in one step and every other value as
the indenting encoder does.  The documents below mix those pair lists
with near misses of their shape, so that both paths, and the choice
between them, are compared byte for byte with the standard library.
"""

import json

from hypothesis import example, given
from hypothesis import strategies as st

from mahlersolve.cli import _json

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


documents = st.recursive(
    st.one_of(scalars, pair_lists(), pair_lists(), near_pairs),
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
def test_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2)

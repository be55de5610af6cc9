import contextlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coefficient, from_terms, operator, pol, random_operator
from oracles import (
    candidate_degrees,
    candidate_valuations,
    edge_slope,
    newton_oracle,
    nu_mu_oracle,
)
from mahlersolve.cli import main
from mahlersolve.errors import (
    InvalidArgumentError,
    NoAdmissibleEdgeError,
    UnsupportedEquationError,
    ZeroTrailingCoefficientError,
)
from mahlersolve.newton import (
    lower_polygon,
    nu_ratio,
    ramification_data,
    ramification_edge,
    upper_polygon,
)
from mahlersolve.operator import MahlerOperator
from mahlersolve.poly import Poly
from mahlersolve.serialize import operator_to_json

F = Fraction
ONE = Poly.one()
X = Poly.x()


def test_running_example_polygons(running_example):
    lower = lower_polygon(running_example)
    assert [(e.start, e.end) for e in lower] == [((1, 6), (3, 0)), ((3, 0), (9, 3))]
    assert [edge_slope(e) for e in lower] == [F(-3), F(1, 2)]
    assert all(e.admissible for e in lower)
    upper = upper_polygon(running_example)
    assert [(e.start, e.end) for e in upper] == [((1, 37), (3, 40)), ((3, 40), (9, 19))]
    assert [edge_slope(e) for e in upper] == [F(3, 2), F(-7, 2)]


def test_candidate_sets(running_example, rat_example_transformed):
    assert candidate_valuations(running_example) == {F(3), F(-1, 2)}
    assert candidate_degrees(running_example) == {F(-3, 2), F(7, 2)}
    # only degrees 4 and 5 are possible for polynomial solutions here
    assert candidate_degrees(rat_example_transformed) == {F(4), F(5)}
    # two-term operator M^2 - x over radix 2
    msq = operator(2, -X, Poly.zero(), ONE)
    lower = lower_polygon(msq)
    assert len(lower) == 1
    assert lower[0].start == (1, 1) and lower[0].end == (4, 0)
    assert edge_slope(lower[0]) == F(-1, 3) and lower[0].admissible
    assert candidate_valuations(msq) == {F(1, 3)}
    # non-admissible edge gives no candidates
    assert candidate_valuations(operator(2, pol(0, -2), ONE)) == set()
    # x M - x has the single admissible degree 0
    assert candidate_degrees(operator(2, -X, X)) == {F(0)}


def test_mu_nu(running_example):
    # nu as a reduced pair, beside the oracle's nu and mu = v(l_0) + nu
    cases = [
        (running_example, (3, 1), (F(3), F(9))),
        (operator(2, -ONE, ONE), (0, 1), (F(0), F(0))),
        (operator(2, X, -pol(1, 1), ONE), (1, 1), (F(1), F(2))),
        (operator(2, -X, Poly.zero(), ONE), (1, 3), (F(1, 3), F(4, 3))),
    ]
    for op, ratio, nu_mu in cases:
        assert nu_ratio(op) == ratio
        assert nu_mu_oracle(op) == nu_mu
    with pytest.raises(ZeroTrailingCoefficientError):
        nu_ratio(operator(2, Poly.zero(), ONE))
    with pytest.raises(UnsupportedEquationError):
        nu_ratio(operator(2, ONE))
    with pytest.raises(UnsupportedEquationError, match="zero operator"):
        nu_ratio(MahlerOperator(2))


def test_ramification_data(running_example, sparse_stretch_example):
    assert ramification_data(running_example) == ({1, 2}, 2)
    q_set, n = ramification_data(sparse_stretch_example)
    assert q_set == {1, 5, 13} and n == 65
    slopes = [edge_slope(e) for e in lower_polygon(sparse_stretch_example)]
    assert slopes == [F(-203, 13), F(-3), F(0), F(1, 1458), F(221, 5)]
    assert all(e.admissible for e in lower_polygon(sparse_stretch_example))
    assert ramification_data(operator(2, -X, Poly.zero(), ONE)) == ({3}, 3)


def test_ramification_data_errors():
    with pytest.raises(ZeroTrailingCoefficientError):
        ramification_data(operator(2, Poly.zero(), ONE))
    with pytest.raises(UnsupportedEquationError, match="zero operator"):
        ramification_data(MahlerOperator(3))


def test_zero_operator_has_no_diagram_or_polygon():
    zero = MahlerOperator(2)
    for fn in (lower_polygon, upper_polygon):
        with pytest.raises(UnsupportedEquationError, match="zero operator"):
            fn(zero)


def test_select_edge(running_example, sparse_stretch_example):
    lower = lower_polygon(running_example)
    assert ramification_edge(lower, 2) == lower[1]
    assert ramification_edge(lower, 1) == lower[0]
    edge = ramification_edge(lower_polygon(sparse_stretch_example), 65)
    (u1, j1), s = edge.start, edge_slope(edge)
    assert s == F(221, 5) and 65 * (j1 - s * u1) == -6283186
    with pytest.raises(NoAdmissibleEdgeError):
        ramification_edge(lower_polygon(operator(2, pol(0, -2), ONE)), 1)


def test_ramification_edge_rejects_ramification_below_one(running_example):
    lower = lower_polygon(running_example)
    for ramification in (0, -3):
        with pytest.raises(InvalidArgumentError):
            ramification_edge(lower, ramification)


def test_polygon_invariants_random():
    rng = random.Random(420)
    for _ in range(150):
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 3), 8)
        lower = lower_polygon(op)
        upper = upper_polygon(op)
        assert len(lower) <= op.order and len(upper) <= op.order
        # slopes strictly increase (lower) / decrease (upper)
        for a, b in zip(lower, lower[1:]):
            assert edge_slope(a) < edge_slope(b)
        for a, b in zip(upper, upper[1:]):
            assert edge_slope(a) > edge_slope(b)
        # every diagram point lies on or above each lower edge line,
        # on or below each upper edge line
        for k, c in op.nonzero_coefficients():
            u = radix**k
            for edge in lower:
                line = edge.start[1] + edge_slope(edge) * (u - edge.start[0])
                assert c.valuation >= line or u < edge.start[0] or u > edge.end[0]
            for edge in upper:
                line = edge.start[1] + edge_slope(edge) * (u - edge.start[0])
                assert c.degree <= line or u < edge.start[0] or u > edge.end[0]
        # admissible edge coefficients sum to zero exactly; edge_points
        # holds the (k, exponent) of each monomial on the edge
        for edge in lower:
            total = sum((coefficient(op.coeffs[k], j) for k, j in edge.edge_points), F(0))
            assert (total == 0) == edge.admissible
        # valuation bounds from the hull
        v0 = op.coeffs[0].valuation
        vr = op.coeffs[-1].valuation
        r = op.order
        for v in candidate_valuations(op):
            assert -F(vr, radix ** (r - 1) * (radix - 1)) <= v <= F(v0, radix - 1)


def test_supporting_lines_hold_globally():
    # convexity: each lower edge's full line stays below every diagram
    # point, and each upper edge's line stays above
    rng = random.Random(77)
    for _ in range(60):
        op = random_operator(rng, 2, 3, 6)
        for edge in lower_polygon(op):
            for k, c in op.nonzero_coefficients():
                assert c.valuation >= edge.start[1] + edge_slope(edge) * (2**k - edge.start[0])
        for edge in upper_polygon(op):
            for k, c in op.nonzero_coefficients():
                assert c.degree <= edge.start[1] + edge_slope(edge) * (2**k - edge.start[0])


_COEFFICIENTS = st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 2)])


@st.composite
def _newton_operators(draw) -> MahlerOperator:
    """Radix 2 or 3, order 0 to 3, up to three terms per coefficient of
    degree at most 10.  Coefficients in +-1 and +-1/2 cancel on an edge
    often, three points as 1/2 + 1/2 - 1 included: of the 150
    derandomized examples, 34 have an admissible lower edge and 12 a
    ramification bound N > 1.  Every coefficient but the leading one may
    be zero, l_0 included."""
    radix, order = draw(st.integers(2, 3)), draw(st.integers(0, 3))
    terms = st.dictionaries(st.integers(0, 10), _COEFFICIENTS, max_size=3)
    coeffs = [draw(terms) for _ in range(order)]
    coeffs.append(draw(terms.filter(bool)))
    return MahlerOperator(radix, [from_terms(c.items()) for c in coeffs])


def _newton_text(doc: dict) -> str:
    """The text form of a `newton` document."""
    lines = []
    for side in ("lower", "upper"):
        lines.append(f"{side} polygon:")
        for e in doc[side]:
            verdict = "admissible" if e["admissible"] else "not admissible"
            lines.append(f"  {e['from']} -> {e['to']}  slope {e['slope']}  {verdict}")
    if "nu" in doc:
        lines.append(f"nu = {doc['nu']}, mu = {doc['mu']}, Q = {doc['Q']}, N = {doc['N']}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150)
@given(_newton_operators())
def test_newton_command_matches_hull_oracle(op):
    # the polygons, admissibility, nu/mu and Q, N run on ints; both
    # output formats must equal what gift wrapping on Fraction slopes
    # gives, and so must nu_ratio and the edge ramification_edge picks
    expected = newton_oracle(op)
    outputs = []
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "op.json")
        with open(path, "w") as fh:
            json.dump(operator_to_json(op), fh)
        for fmt in ("json", "text"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["newton", path, "--format", fmt]) == 0
            outputs.append(out.getvalue())
    assert json.loads(outputs[0]) == expected
    assert outputs[1] == _newton_text(expected)
    lower = lower_polygon(op)
    if "nu" in expected:
        nu = F(expected["nu"])
        assert nu_ratio(op) == (nu.numerator, nu.denominator)
        assert ramification_data(op) == (set(expected["Q"]), expected["N"])
        n = expected["N"]
        fits = [
            e for e in expected["lower"] if e["admissible"] and (F(e["slope"]) * n).denominator == 1
        ]
        if fits:
            edge = ramification_edge(lower, n)
            assert [list(edge.start), list(edge.end)] == [fits[-1]["from"], fits[-1]["to"]]
        else:
            with pytest.raises(NoAdmissibleEdgeError):
                ramification_edge(lower, n)

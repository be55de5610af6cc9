"""Newton diagrams and polygons of Mahler operators.

Every monomial x^j M^k of an operator contributes the diagram point
(b^k, j).  The lower (upper) polygon is the lower (upper) boundary of
the convex hull; edge slopes encode the candidate valuations (degrees)
of solutions.  An edge is admissible when the coefficients of the
monomials sitting exactly on it sum to zero.  Hulls, edge membership,
admissibility, nu and the edge a ramification selects run on ints, and
the module builds no Fraction.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NoAdmissibleEdgeError, UnsupportedEquationError, ZeroTrailingCoefficientError
from .operator import MahlerOperator


class PolygonEdge(NamedTuple):
    """An edge from the diagram point `start` to `end`, each (b^k, j), in
    ints: its slope is (j2 - j1) / (u2 - u1) for start (u1, j1) and end
    (u2, j2), u1 < u2."""

    start: tuple[int, int]
    end: tuple[int, int]
    admissible: bool
    # (k, exponent) for every operator monomial on the edge
    edge_points: tuple[tuple[int, int], ...]


def _hull(points: list[tuple[int, int]], lower: bool) -> list[tuple[int, int]]:
    """Monotone chain on points already sorted by strictly increasing u.

    Collinear intermediate points are dropped; only vertices remain.
    """
    hull: list[tuple[int, int]] = []
    for p in points:
        while len(hull) >= 2:
            (ux, vx), (uy, vy) = hull[-2], hull[-1]
            cross = (uy - ux) * (p[1] - vx) - (vy - vx) * (p[0] - ux)
            keep = cross > 0 if lower else cross < 0
            if keep:
                break
            hull.pop()
        hull.append(p)
    return hull


def _polygon(op: MahlerOperator, lower: bool) -> list[PolygonEdge]:
    """The edges on ints: points on an edge by cross-multiplication, and
    admissibility from the coefficients' numerators over their lcm."""
    if not op:
        raise UnsupportedEquationError("zero operator has no Newton polygon")
    lcm = math.lcm(*(c.den for c in op.coeffs))
    # (k, b^k, j, lcm * coefficient) of the extreme term of each coefficient
    cols = []
    for k, c in op.nonzero_coefficients():
        j, v = c.nums[0] if lower else c.nums[-1]
        cols.append((k, op.radix**k, j, v * (lcm // c.den)))
    hull = _hull([(u, j) for _, u, j, _ in cols], lower)
    edges = []
    for (u1, j1), (u2, j2) in zip(hull, hull[1:]):
        du, dj = u2 - u1, j2 - j1
        on_edge = [
            (k, j, v) for k, u, j, v in cols if u1 <= u <= u2 and (j - j1) * du == dj * (u - u1)
        ]
        points = tuple((k, j) for k, j, _ in on_edge)
        edges.append(PolygonEdge((u1, j1), (u2, j2), sum(v for *_, v in on_edge) == 0, points))
    return edges


def lower_polygon(op: MahlerOperator) -> list[PolygonEdge]:
    """Edges of the lower Newton polygon, left to right."""
    return _polygon(op, lower=True)


def upper_polygon(op: MahlerOperator) -> list[PolygonEdge]:
    """Edges of the upper Newton polygon, left to right."""
    return _polygon(op, lower=False)


def nu_ratio(op: MahlerOperator) -> tuple[int, int]:
    """nu, the opposite slope of the leftmost lower edge, as (p, q): p / q
    in lowest terms, q > 0.

    nu = max over k >= 1 of (v_0 - v_k)/(b^k - 1), compared by
    cross-multiplication.  mu, the V-intercept of that edge, is
    v(l_0) + nu = (p + v(l_0) q) / q, also in lowest terms.  Requires a
    nonzero M^0 coefficient and order >= 1.
    """
    if not op:
        raise UnsupportedEquationError("nu of the zero operator")
    if not op.coefficient(0):
        raise ZeroTrailingCoefficientError("nu needs a nonzero trailing coefficient")
    if op.order < 1:
        raise UnsupportedEquationError("nu requires order >= 1")
    v0 = op.coeffs[0].valuation
    p = q = None
    for k, c in op.nonzero_coefficients()[1:]:
        num, den = v0 - c.valuation, op.radix**k - 1
        if q is None or num * q > p * den:
            p, q = num, den
    g = math.gcd(p, q)
    return p // g, q // g


def ramification_data(op: MahlerOperator) -> tuple[set[int], int]:
    """(Q, N): denominators of admissible lower-edge slopes coprime to the
    radix, and their lcm (1 when Q is empty)."""
    if not op:
        raise UnsupportedEquationError("ramification data of the zero operator")
    if not op.coefficient(0):
        raise ZeroTrailingCoefficientError("ramification data needs a nonzero trailing coefficient")
    return ramification_bound(lower_polygon(op), op.radix)


def ramification_bound(edges: list[PolygonEdge], radix: int) -> tuple[set[int], int]:
    """`ramification_data` of an operator whose lower polygon has these edges."""
    q_set = set()
    for edge in edges:
        if edge.admissible:
            (u1, j1), (u2, j2) = edge.start, edge.end
            q = (u2 - u1) // math.gcd(j2 - j1, u2 - u1)
            if math.gcd(q, radix) == 1:
                q_set.add(q)
    return q_set, math.lcm(*q_set)


def ramification_edge(edges: list[PolygonEdge], ramification: int) -> PolygonEdge:
    """The rightmost admissible edge of a lower polygon whose slope is an
    integer multiple of 1/ramification."""
    chosen = None
    for edge in edges:
        (u1, j1), (u2, j2) = edge.start, edge.end
        if edge.admissible and (j2 - j1) * ramification % (u2 - u1) == 0:
            chosen = edge
    if chosen is None:
        raise NoAdmissibleEdgeError(
            f"no admissible edge with slope in (1/{ramification})Z"
        )
    return chosen

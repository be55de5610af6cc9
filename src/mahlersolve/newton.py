"""Newton diagrams and polygons of Mahler operators.

Every monomial x^j M^k of an operator contributes the diagram point
(b^k, j).  The lower (upper) polygon is the lower (upper) boundary of
the convex hull; edge slopes encode the candidate valuations (degrees)
of solutions.  An edge is admissible when the coefficients of the
monomials sitting exactly on it sum to zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import NoAdmissibleEdgeError, UnsupportedEquationError, ZeroTrailingCoefficientError
from .operator import MahlerOperator


class PolygonEdge(NamedTuple):
    start: tuple[int, int]
    end: tuple[int, int]
    slope: Fraction
    admissible: bool
    # (k, exponent, coefficient) for every operator monomial on the edge
    edge_points: tuple[tuple[int, int, Fraction], ...]

    @property
    def intercept(self) -> Fraction:
        """V-intercept of the supporting line."""
        return self.start[1] - self.slope * self.start[0]


def _column_points(op: MahlerOperator, lower: bool) -> list[tuple[int, int, int]]:
    """One extreme point per nonzero coefficient: (k, u=b^k, j)."""
    pts = []
    for k, c in op.nonzero_coefficients():
        j = c.valuation if lower else c.degree
        pts.append((k, op.radix**k, j))
    return pts


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
    if not op:
        raise UnsupportedEquationError("zero operator has no Newton polygon")
    cols = _column_points(op, lower)
    hull = _hull([(u, j) for _, u, j in cols], lower)
    edges = []
    for (u1, j1), (u2, j2) in zip(hull, hull[1:]):
        slope = Fraction(j2 - j1, u2 - u1)
        on_edge = []
        total = Fraction(0)
        for k, u, j in cols:
            if u1 <= u <= u2 and j1 + slope * (u - u1) == j:
                c = op.coeffs[k].coefficient(j)
                on_edge.append((k, j, c))
                total += c
        edges.append(
            PolygonEdge(
                start=(u1, j1),
                end=(u2, j2),
                slope=slope,
                admissible=(total == 0),
                edge_points=tuple(on_edge),
            )
        )
    return edges


def lower_polygon(op: MahlerOperator) -> list[PolygonEdge]:
    """Edges of the lower Newton polygon, left to right."""
    return _polygon(op, lower=True)


def upper_polygon(op: MahlerOperator) -> list[PolygonEdge]:
    """Edges of the upper Newton polygon, left to right."""
    return _polygon(op, lower=False)


def mu_nu(op: MahlerOperator) -> tuple[Fraction, Fraction]:
    """(nu, mu): opposite slope and V-intercept of the leftmost lower edge.

    nu = max over k >= 1 of (v_0 - v_k)/(b^k - 1) and mu = v_0 + nu.
    Requires a nonzero M^0 coefficient and order >= 1.
    """
    if not op:
        raise UnsupportedEquationError("mu_nu of the zero operator")
    if not op.coefficient(0):
        raise ZeroTrailingCoefficientError("mu_nu needs a nonzero trailing coefficient")
    if op.order < 1:
        raise UnsupportedEquationError("mu_nu requires order >= 1")
    v0 = op.coeffs[0].valuation
    nu = max(
        Fraction(v0 - c.valuation, op.radix**k - 1)
        for k, c in op.nonzero_coefficients()
        if k >= 1
    )
    return nu, v0 + nu


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
    q_set = {e.slope.denominator for e in edges if e.admissible}
    q_set = {q for q in q_set if math.gcd(q, radix) == 1}
    return q_set, math.lcm(*q_set)


def select_edge_for_ramification(
    edges: list[PolygonEdge], ramification: int
) -> tuple[Fraction, Fraction]:
    """Slope and V-intercept of the rightmost admissible edge of a lower
    polygon whose slope is an integer multiple of 1/ramification."""
    chosen = None
    for edge in edges:
        if edge.admissible and (edge.slope * ramification).denominator == 1:
            chosen = edge
    if chosen is None:
        raise NoAdmissibleEdgeError(
            f"no admissible edge with slope in (1/{ramification})Z"
        )
    return chosen.slope, chosen.intercept

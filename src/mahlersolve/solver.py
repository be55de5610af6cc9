"""User-facing solvers: truncated power-series bases, polynomial bases,
and ramified (Puiseux) bases of linear Mahler equations.

The simple shape shared by all solvers: pick the window parameters from
the Newton polygon, call the prescribed-support kernel solver, and, for
series-like output, extend each basis element by forward substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    InternalInvariantError,
    InvalidArgumentError,
    NoAdmissibleEdgeError,
    UnsupportedEquationError,
    ZeroTrailingCoefficientError,
)
from .newton import mu_nu, ramification_data, select_edge_for_ramification
from .normalize import normalize_l0
from .operator import IDENTITY_PHI, MahlerOperator, PhiTransform, apply_below, phi_apply
from .poly import Poly
from .rmatrix import prolong, solve_prescribed


@dataclass(frozen=True)
class TruncatedSeries:
    """c_0 + c_1 x + ... + c_{T-1} x^{T-1} + O(x^T) with T = len(coefficients)."""

    coefficients: tuple[Fraction, ...]

    @property
    def truncation_order(self) -> int:
        return len(self.coefficients)

    @property
    def valuation(self) -> Optional[int]:
        for i, c in enumerate(self.coefficients):
            if c:
                return i
        return None


@dataclass(frozen=True)
class PuiseuxSeries:
    """Finitely many terms c x^e with e in (1/ramification)Z, exponents
    strictly increasing, truncated at O(x^truncation_order)."""

    ramification: int
    terms: tuple[tuple[Fraction, Fraction], ...]
    truncation_order: Fraction

    @property
    def valuation(self) -> Optional[Fraction]:
        return self.terms[0][0] if self.terms else None


@dataclass(frozen=True)
class SolutionBasis:
    kind: str
    elements: tuple
    note: Optional[str] = None

    @property
    def dimension(self) -> int:
        return len(self.elements)


def _solving_operator(op: MahlerOperator, auto_normalize: bool) -> MahlerOperator:
    """Validate the equation and make its trailing coefficient nonzero."""
    if not op:
        raise UnsupportedEquationError("zero operator")
    if op.coefficient(0):
        return op
    if not auto_normalize:
        raise ZeroTrailingCoefficientError(
            "trailing coefficient is zero; normalize first or enable auto-normalization"
        )
    return normalize_l0(op)


def approximate_series_basis(
    op: MahlerOperator, auto_normalize: bool = True
) -> SolutionBasis:
    """Truncations to order floor(nu)+1 of all power-series solutions.

    Each element extends to exactly one power-series solution.
    """
    op = _solving_operator(op, auto_normalize)
    kind = "approximate_series_basis"
    if op.order < 1:
        return SolutionBasis(kind, ())
    nu, mu = mu_nu(op)
    if nu < 0:
        return SolutionBasis(kind, ())
    h = math.floor(mu) + 1
    w = math.floor(nu) + 1
    rows = _lower_row_indices(op, w)
    kernel = solve_prescribed(op, IDENTITY_PHI, h, w, rows, "lower")
    return SolutionBasis(kind, tuple(TruncatedSeries(v) for v in kernel.vectors))


def _lower_row_indices(op: MahlerOperator, w: int) -> list[int]:
    b = op.radix
    nz = [(c.valuation, b**k) for k, c in op.nonzero_coefficients()]
    return [min(v + n * bk for v, bk in nz) for n in range(w)]


def _upper_row_indices(op: MahlerOperator, w: int) -> list[int]:
    b = op.radix
    nz = [(c.degree, b**k) for k, c in op.nonzero_coefficients()]
    return [max(d + n * bk for d, bk in nz) for n in range(w)]


def series_basis(op: MahlerOperator, order: int, auto_normalize: bool = True) -> SolutionBasis:
    """Basis of power-series solutions truncated at O(x^(order+1)).

    The truncation never drops below the approximate order floor(nu)+1.
    """
    solving = _solving_operator(op, auto_normalize)
    approx = approximate_series_basis(solving, auto_normalize=False)
    if not approx.elements:
        return SolutionBasis("series_basis", ())
    nu, _ = mu_nu(solving)
    extra = max(0, order - math.floor(nu))
    elements = []
    for head in approx.elements:
        coeffs = prolong(solving, IDENTITY_PHI, list(head.coefficients), extra)
        elements.append(TruncatedSeries(tuple(coeffs)))
    return SolutionBasis("series_basis", tuple(elements))


def polynomial_solutions_bounded(
    op: MahlerOperator, w: int, auto_normalize: bool = True
) -> SolutionBasis:
    """Basis of polynomial solutions of degree < w."""
    if w < 1:
        raise ValueError("degree bound must be >= 1")
    op = _solving_operator(op, auto_normalize)
    kind = "polynomial_basis"
    if op.order < 1:
        return SolutionBasis(kind, ())
    nu, _ = mu_nu(op)
    if nu < 0:
        return SolutionBasis(kind, ())
    h = op.degree + (w - 1) * op.radix**op.order + 1
    rows = _upper_row_indices(op, w)
    kernel = solve_prescribed(op, IDENTITY_PHI, h, w, rows, "upper")
    return SolutionBasis(
        kind, tuple(Poly.from_coeffs(v) for v in kernel.vectors)
    )


def polynomial_basis(op: MahlerOperator, auto_normalize: bool = True) -> SolutionBasis:
    """Basis of all polynomial solutions; the degree bound comes from the
    upper Newton polygon."""
    solving = _solving_operator(op, auto_normalize)
    if solving.order < 1:
        return SolutionBasis("polynomial_basis", ())
    b, r = solving.radix, solving.order
    w = solving.degree // (b**r - b ** (r - 1)) + 1
    return polynomial_solutions_bounded(solving, w, auto_normalize=False)


def puiseux_basis(op: MahlerOperator, ramification: int, order: int) -> SolutionBasis:
    """Basis of solutions with exponents in (1/ramification)Z, truncated
    at O(x^(order+1)).

    A right factor M^w is stripped first and the output exponents are
    rescaled by b^-w; the effective ramification is then ramification*b^w.
    """
    if not op:
        raise UnsupportedEquationError("zero operator")
    if ramification < 1:
        raise InvalidArgumentError(f"ramification must be >= 1, got {ramification}")
    kind = "puiseux_basis"
    w0 = op.m_valuation
    if w0 > 0:
        op = op.m_shift(-w0)
        if op.order == 0:
            return SolutionBasis(kind, ())
        order = order * op.radix**w0
    if op.order == 0:
        return SolutionBasis(kind, ())

    scale = op.radix**w0
    out_ram = ramification * scale
    try:
        slope, intercept = select_edge_for_ramification(op, ramification)
    except NoAdmissibleEdgeError:
        return SolutionBasis(kind, (), note="no-admissible-edge")

    ns = slope * ramification
    nc = intercept * ramification
    if ns.denominator != 1 or nc.denominator != 1:
        raise InternalInvariantError("edge data is not integral for the chosen ramification")
    phi = PhiTransform(-int(ns), ramification, int(nc))
    transformed = phi_apply(op, phi)
    nu, mu = mu_nu(transformed)
    h = math.floor(mu) + 1
    width = math.floor(nu) + 1
    rows = _lower_row_indices(transformed, width)
    kernel = solve_prescribed(op, phi, h, width, rows, "lower")

    top = int(ns) + ramification * order
    trunc = Fraction(order, scale) + Fraction(1, out_ram)
    elements = []
    for head in kernel.vectors:
        if top < 0:
            coeffs: Sequence[Fraction] = ()
        else:
            extra = max(0, top - math.floor(nu))
            coeffs = prolong(op, phi, list(head), extra)[: top + 1]
        # coefficient i carries the exponent (-slope + i/ramification)/b^w0
        terms = []
        for i, c in enumerate(coeffs):
            if c:
                e = (-slope + Fraction(i, ramification)) / scale
                terms.append((e, c))
        elements.append(PuiseuxSeries(out_ram, tuple(terms), trunc))
    return SolutionBasis(kind, tuple(elements))


def puiseux_basis_all(op: MahlerOperator, order: int) -> SolutionBasis:
    """Basis of all Puiseux-series solutions; the ramification bound is
    the lcm of the admissible slope denominators coprime to the radix."""
    if not op:
        raise UnsupportedEquationError("zero operator")
    stripped = op.m_shift(-op.m_valuation)
    if stripped.order == 0:
        return SolutionBasis("puiseux_basis", ())
    _, n = ramification_data(stripped)
    return puiseux_basis(op, n, order)


# -- residual certificates -----------------------------------------------------


def certificate_order(op: MahlerOperator, truncation_order: Fraction) -> Fraction:
    """Largest order to which the image of a truncation is trustworthy:
    a truncated solution satisfies the equation modulo x^(this value)."""
    return min(
        c.valuation + op.radix**k * truncation_order
        for k, c in op.nonzero_coefficients()
    )


def _integer_support(
    terms: Sequence[tuple[Fraction, Fraction]], ramification: int
) -> tuple[int, list[tuple[int, Fraction]]]:
    """(scale, support): the terms c x^e with e written as an integer in
    units of 1/scale, sorted by exponent; scale is a multiple of the
    ramification and of every exponent's denominator."""
    scale = math.lcm(ramification, *(e.denominator for e, _ in terms))
    support = sorted((e.numerator * (scale // e.denominator), c) for e, c in terms)
    return scale, support


def residual_valuation(
    op: MahlerOperator, terms: Sequence[tuple[Fraction, Fraction]]
) -> Optional[Fraction]:
    """Smallest exponent with nonzero coefficient in op(terms), if any."""
    if not terms:
        return None
    scale, support = _integer_support(terms, 1)
    top = max(
        (c.degree * scale + op.radix**k * support[-1][0] for k, c in op.nonzero_coefficients()),
        default=0,
    )
    image = apply_below(op, support, top + 1, scale)
    return Fraction(min(image), scale) if image else None


def _check_residual(
    op: MahlerOperator,
    truncation_order: Fraction,
    support: Sequence[tuple[int, Fraction]],
    scale: int,
) -> Fraction:
    """Certified order of a truncated solution whose terms c x^(e/scale)
    are `support`; raises unless its image vanishes below that order."""
    bound = certificate_order(op, truncation_order)
    image = apply_below(op, support, math.ceil(bound * scale), scale)
    if image:
        val = Fraction(min(image), scale)
        raise InternalInvariantError(f"residual has a term of exponent {val} below {bound}")
    return bound


def check_series_element(op: MahlerOperator, element: TruncatedSeries) -> Fraction:
    """Verify the residual certificate of a truncated series solution and
    return the certified order; raises on failure."""
    support = [(n, c) for n, c in enumerate(element.coefficients) if c]
    return _check_residual(op, Fraction(element.truncation_order), support, 1)


def check_puiseux_element(op: MahlerOperator, element: PuiseuxSeries) -> Fraction:
    """Verify the residual certificate of a truncated Puiseux solution and
    return the certified order; raises on failure."""
    scale, support = _integer_support(element.terms, element.ramification)
    return _check_residual(op, element.truncation_order, support, scale)

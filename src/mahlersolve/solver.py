"""User-facing solvers: truncated power-series bases, polynomial bases,
and ramified (Puiseux) bases of linear Mahler equations, and `certify`,
which substitutes a basis back into its equation.

The simple shape shared by all solvers: pick the window parameters from
the Newton polygon, solve the window with `rmatrix.solve_prescribed`,
and, for series-like output, extend each basis element with
`rmatrix.prolong`.  Both return the nonzero (index, coefficient) pairs
only, so the cost follows the size of the answer, not the window width
or the truncation order.
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
from .poly import Poly, mahler_substitute
from .rmatrix import prolong, solve_prescribed


@dataclass(frozen=True)
class PuiseuxSeries:
    """Finitely many terms c x^e with e in (1/ramification)Z, exponents
    strictly increasing, truncated at O(x^truncation_order).  A power
    series is the case ramification = 1."""

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


def _series(
    pairs: Sequence[tuple[int, Fraction]],
    shift: int,
    ramification: int,
    truncation_order: Fraction,
) -> PuiseuxSeries:
    """The nonzero coefficients (i, c_i) as terms c_i x^((i - shift)/ramification)."""
    terms = tuple((Fraction(i - shift, ramification), c) for i, c in pairs)
    return PuiseuxSeries(ramification, terms, Fraction(truncation_order))


def solving_operator(op: MahlerOperator, auto_normalize: bool) -> MahlerOperator:
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


def _approximate_heads(op: MahlerOperator) -> tuple[int, tuple]:
    """(w, heads): the nonzero (n, y_n) pairs among the coefficients
    0..w-1, w = floor(nu)+1, of a basis of the power-series solutions of
    op (trailing coefficient nonzero)."""
    if op.order < 1:
        return 0, ()
    nu, mu = mu_nu(op)
    if nu < 0:
        return 0, ()
    h = math.floor(mu) + 1
    w = math.floor(nu) + 1
    return w, solve_prescribed(op, IDENTITY_PHI, h, w, "lower")


def approximate_series_basis(
    op: MahlerOperator, auto_normalize: bool = True
) -> SolutionBasis:
    """Truncations to order floor(nu)+1 of all power-series solutions.

    Each element extends to exactly one power-series solution.
    """
    w, heads = _approximate_heads(solving_operator(op, auto_normalize))
    return SolutionBasis("approximate_series_basis", tuple(_series(v, 0, 1, w) for v in heads))


def series_basis(op: MahlerOperator, order: int, auto_normalize: bool = True) -> SolutionBasis:
    """Basis of power-series solutions truncated at O(x^(order+1)).

    The truncation never drops below the approximate order floor(nu)+1.
    """
    if order < 0:
        raise InvalidArgumentError(f"order must be >= 0, got {order}")
    op = solving_operator(op, auto_normalize)
    w, heads = _approximate_heads(op)
    extra = max(0, order + 1 - w)
    elements = tuple(
        _series(prolong(op, IDENTITY_PHI, head, extra), 0, 1, w + extra) for head in heads
    )
    return SolutionBasis("series_basis", elements)


def polynomial_solutions_bounded(
    op: MahlerOperator, w: int, auto_normalize: bool = True
) -> SolutionBasis:
    """Basis of polynomial solutions of degree < w."""
    if w < 1:
        raise InvalidArgumentError(f"degree bound must be >= 1, got {w}")
    op = solving_operator(op, auto_normalize)
    kind = "polynomial_basis"
    if op.order < 1:
        return SolutionBasis(kind, ())
    nu, _ = mu_nu(op)
    if nu < 0:
        return SolutionBasis(kind, ())
    h = op.degree + (w - 1) * op.radix**op.order + 1
    kernel = solve_prescribed(op, IDENTITY_PHI, h, w, "upper")
    return SolutionBasis(kind, tuple(Poly(v) for v in kernel))


def polynomial_basis(op: MahlerOperator, auto_normalize: bool = True) -> SolutionBasis:
    """Basis of all polynomial solutions; the degree bound comes from the
    upper Newton polygon."""
    solving = solving_operator(op, auto_normalize)
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
    if order < 0:
        raise InvalidArgumentError(f"order must be >= 0, got {order}")
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
    kernel = solve_prescribed(op, phi, h, width, "lower")

    # like series_basis, never cut an element below the window head
    top = max(int(ns) + ramification * order, math.floor(nu))
    extra = top - math.floor(nu)
    trunc = Fraction(top + 1 - int(ns), out_ram)
    elements = []
    for head in kernel:
        coeffs = [(i, c) for i, c in prolong(op, phi, head, extra) if i <= top]
        # coefficient i carries the exponent (-slope + i/ramification)/b^w0 = (i - ns)/out_ram
        elements.append(_series(coeffs, int(ns), out_ram, trunc))
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


def _check_residual(op: MahlerOperator, elem: PuiseuxSeries) -> Fraction:
    """Certified order of a truncated solution; raises unless its image
    vanishes below that order."""
    scale, support = _integer_support(elem.terms, elem.ramification)
    bound = certificate_order(op, elem.truncation_order)
    image = apply_below(op, support, math.ceil(bound * scale), scale)
    if image:
        val = Fraction(min(image), scale)
        raise InternalInvariantError(f"residual has a term of exponent {val} below {bound}")
    return bound


def certify(op: MahlerOperator, basis: SolutionBasis) -> list[Optional[Fraction]]:
    """Substitute every element of a solution basis back into op.

    Returns, element by element, the certified order of a truncated
    series (see certificate_order) or None for an exact polynomial or
    rational solution; raises InternalInvariantError when an element
    fails its certificate.  Series, approximate-series, Puiseux,
    polynomial and rational bases are understood.
    """
    if basis.kind in ("series_basis", "approximate_series_basis", "puiseux_basis"):
        return [_check_residual(op, elem) for elem in basis.elements]
    if basis.kind == "polynomial_basis":
        for p in basis.elements:
            if residual_valuation(op, p.terms) is not None:
                raise InternalInvariantError("polynomial certificate failed")
        return [None] * basis.dimension
    if basis.kind == "rational_basis":
        # op(N / den) = 0 with den = x^v D exactly when N solves the
        # operator with coefficients l_k * prod_{i != k} den(x^(b^i))
        b = op.radix
        for f in basis.elements:
            den = f.denominator.shift(f.x_power)
            images = [mahler_substitute(den, b, i) if i else den for i in range(op.order + 1)]
            coeffs = list(op.coeffs)
            for k, _ in op.nonzero_coefficients():
                for i, img in enumerate(images):
                    if i != k:
                        coeffs[k] = coeffs[k] * img
            if residual_valuation(MahlerOperator(b, coeffs), f.numerator.terms) is not None:
                raise InternalInvariantError("rational certificate failed")
        return [None] * basis.dimension
    raise InvalidArgumentError(f"cannot certify a {basis.kind}")

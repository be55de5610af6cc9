"""User-facing solvers: truncated power-series bases, polynomial bases,
and ramified (Puiseux) bases of linear Mahler equations, and `certify`,
which substitutes a basis back into its equation.

The simple shape shared by all solvers: pick the window parameters from
the Newton polygon, solve the window with `rmatrix.solve_prescribed`,
and, for series-like output, extend each basis element with
`rmatrix.prolong`.  Both pass a vector as (den, pairs), the nonzero
coefficients only, as integer numerators over one denominator, so the
cost follows the size of the answer, not the window width or the
truncation order; a `Poly` or `PuiseuxSeries` keeps that form through
`certify` (which applies the operator on the same ints) to the JSON
writer, and no per-coefficient Fraction is built on the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

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
from .poly import Poly, lowest_terms, mahler_substitute
from .rmatrix import prolong, solve_prescribed


class PuiseuxSeries:
    """Finitely many terms c x^e with e in (1/ramification)Z, exponents
    strictly increasing, truncated at O(x^truncation_order).  A power
    series is the case ramification = 1.

    Stored like a `Poly`: `scale` is the least multiple of the
    ramification in whose units every exponent is an integer, and the
    terms are nums / den, `den` a positive int and `nums` the
    (e, int) pairs, e in units of 1/scale and strictly increasing, the
    ints nonzero and in lowest terms with den.  The (exponent, Fraction)
    view `terms` is built the first time it is read.
    """

    __slots__ = ("ramification", "scale", "den", "nums", "truncation_order", "_terms")

    def __init__(
        self,
        ramification: int,
        terms: Iterable[tuple[Fraction, Fraction]],
        truncation_order: Fraction,
    ):
        items = sorted((Fraction(e), Fraction(c)) for e, c in terms if c)
        scale = math.lcm(ramification, *(e.denominator for e, _ in items))
        den = math.lcm(*(c.denominator for _, c in items))
        self.ramification = ramification
        self.scale = scale
        self.den = den
        self.nums = tuple(
            (e.numerator * (scale // e.denominator), c.numerator * (den // c.denominator))
            for e, c in items
        )
        self.truncation_order = Fraction(truncation_order)
        self._terms = tuple(items)

    @classmethod
    def from_integers(
        cls,
        ramification: int,
        den: int,
        nums: Iterable[tuple[int, int]],
        truncation_order: Fraction,
    ) -> "PuiseuxSeries":
        """nums / den from a nonzero int den and (e, int) pairs, e in
        units of 1/ramification and strictly increasing, the ints
        nonzero; common factors are divided out."""
        s = cls.__new__(cls)
        s.ramification = s.scale = ramification
        s.den, s.nums = lowest_terms(den, nums)
        s.truncation_order = Fraction(truncation_order)
        s._terms = None
        return s

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The (exponent, Fraction coefficient) pairs, built on first use."""
        t = self._terms
        if t is None:
            den, scale = self.den, self.scale
            t = self._terms = tuple((Fraction(e, scale), Fraction(v, den)) for e, v in self.nums)
        return t

    @property
    def valuation(self) -> Optional[Fraction]:
        return Fraction(self.nums[0][0], self.scale) if self.nums else None

    def _key(self) -> tuple:
        return (self.ramification, self.scale, self.den, self.nums, self.truncation_order)

    def __eq__(self, other) -> bool:
        if isinstance(other, PuiseuxSeries):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"PuiseuxSeries({self.ramification}, {self.terms!r}, {self.truncation_order!r})"


@dataclass(frozen=True)
class SolutionBasis:
    kind: str
    elements: tuple
    note: Optional[str] = None

    @property
    def dimension(self) -> int:
        return len(self.elements)


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
    """(w, heads): the coefficients 0..w-1, w = floor(nu)+1, of a basis
    of the power-series solutions of op (trailing coefficient nonzero),
    each as the (den, pairs) of `solve_prescribed`."""
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
    return SolutionBasis(
        "approximate_series_basis",
        tuple(PuiseuxSeries.from_integers(1, *v, w) for v in heads),
    )


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
        PuiseuxSeries.from_integers(1, *prolong(op, IDENTITY_PHI, head, extra), w + extra)
        for head in heads
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
    return SolutionBasis(kind, tuple(Poly.from_integers(*v) for v in kernel))


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
    shift = int(ns)
    phi = PhiTransform(-shift, ramification, int(nc))
    transformed = phi_apply(op, phi)
    nu, mu = mu_nu(transformed)
    h = math.floor(mu) + 1
    width = math.floor(nu) + 1
    kernel = solve_prescribed(op, phi, h, width, "lower")

    # like series_basis, never cut an element below the window head
    top = max(shift + ramification * order, math.floor(nu))
    extra = top - math.floor(nu)
    trunc = Fraction(top + 1 - shift, out_ram)
    elements = []
    for head in kernel:
        den, pairs = prolong(op, phi, head, extra)
        # coefficient i carries the exponent (-slope + i/ramification)/b^w0 = (i - ns)/out_ram
        nums = [(i - shift, c) for i, c in pairs if i <= top]
        elements.append(PuiseuxSeries.from_integers(out_ram, den, nums, trunc))
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


def residual_valuation(
    op: MahlerOperator, den: int, nums: Sequence[tuple[int, int]], scale: int = 1
) -> Optional[Fraction]:
    """Smallest exponent with nonzero coefficient in op applied to
    sum(v x^(e/scale)) / den, if any; `nums` holds the (e, v) pairs, e
    and v ints, in increasing order of e."""
    if not nums:
        return None
    top = max(
        (c.degree * scale + op.radix**k * nums[-1][0] for k, c in op.nonzero_coefficients()),
        default=0,
    )
    image = apply_below(op, den, nums, top + 1, scale)
    return Fraction(min(image), scale) if image else None


def _check_residual(op: MahlerOperator, elem: PuiseuxSeries) -> Fraction:
    """Certified order of a truncated solution; raises unless its image
    vanishes below that order."""
    bound = certificate_order(op, elem.truncation_order)
    scale = elem.scale
    image = apply_below(op, elem.den, elem.nums, math.ceil(bound * scale), scale)
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
            if residual_valuation(op, p.den, p.nums) is not None:
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
            num = f.numerator
            if residual_valuation(MahlerOperator(b, coeffs), num.den, num.nums) is not None:
                raise InternalInvariantError("rational certificate failed")
        return [None] * basis.dimension
    raise InvalidArgumentError(f"cannot certify a {basis.kind}")

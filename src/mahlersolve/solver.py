"""User-facing solvers: truncated power-series bases, polynomial bases,
and ramified (Puiseux) bases of linear Mahler equations, and `certify`,
which substitutes a basis back into its equation.

The simple shape shared by all solvers: pick the window parameters from
the Newton polygon, solve the window, and, for series-like output,
extend each basis element.  `rmatrix.series_solutions` and
`rmatrix.polynomial_solutions` size and solve every window and
extension, `certify` applies op through one `integer_terms`, and
nothing is kept between calls.  The window parameters are ints: the
chosen edge's ends give the Puiseux shift and gamma, and a truncation
order or certified order is an int whenever it is integral, a Fraction
otherwise.  Vectors pass as (den, pairs), the nonzero coefficients
only, as integer numerators over one denominator, so the cost follows
the size of the answer, not the window width or the truncation order; a
`Poly` or `PuiseuxSeries` stores that form alone and keeps it through
`certify` (`operator.image_below` runs on the same ints) to the JSON
writer, and no per-coefficient Fraction is built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .errors import (
    InternalInvariantError,
    InvalidArgumentError,
    NoAdmissibleEdgeError,
    UnsupportedEquationError,
)
from .newton import lower_polygon, ramification_bound, ramification_edge
from .normalize import normalize_l0
from .operator import (
    IDENTITY_PHI,
    MahlerOperator,
    PhiTransform,
    clear_denominator,
    image_below,
    integer_terms,
)
from .poly import Poly, lowest_terms
from .rmatrix import polynomial_solutions, series_solutions


def _exact(num: int, den: int):
    """num / den (den > 0): an int when den divides num, else a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


class PuiseuxSeries(NamedTuple):
    """Finitely many terms c x^e with e in (1/ramification)Z, exponents
    strictly increasing, truncated at O(x^truncation_order).  A power
    series is the case ramification = 1.  The truncation order is an int
    when it is integral and a Fraction otherwise.

    Stored like a `Poly`: the terms are nums / den, `den` a positive int
    and `nums` the (e, int) pairs, e in units of 1/ramification and
    strictly increasing, the ints nonzero and in lowest terms with den.
    """

    ramification: int
    den: int
    nums: tuple
    truncation_order: int | Fraction

    @classmethod
    def from_integers(
        cls,
        ramification: int,
        den: int,
        nums: Iterable[tuple[int, int]],
        truncation_order,
    ) -> "PuiseuxSeries":
        """nums / den from a nonzero int den and (e, int) pairs, e in
        units of 1/ramification and strictly increasing, the ints
        nonzero; common factors are divided out.  The truncation order is
        an int or a Fraction."""
        t = truncation_order
        return cls(ramification, *lowest_terms(den, nums), t.numerator if t.denominator == 1 else t)

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The (exponent, Fraction coefficient) pairs."""
        ramification, den = self.ramification, self.den
        return tuple((Fraction(e, ramification), Fraction(v, den)) for e, v in self.nums)

    @property
    def valuation(self) -> Optional[Fraction]:
        return Fraction(self.nums[0][0], self.ramification) if self.nums else None


class SolutionBasis(NamedTuple):
    kind: str
    elements: tuple
    note: Optional[str] = None

    @property
    def dimension(self) -> int:
        return len(self.elements)


def solving_operator(op: MahlerOperator) -> MahlerOperator:
    """Validate the equation and make its trailing coefficient nonzero."""
    if not op:
        raise UnsupportedEquationError("zero operator")
    return op if op.coefficient(0) else normalize_l0(op)[1]


def series_basis(op: MahlerOperator, order: int) -> SolutionBasis:
    """Basis of power-series solutions truncated at O(x^(order+1)), never
    below the approximate order floor(nu)+1: at order 0, each element
    extends to exactly one power-series solution."""
    if order < 0:
        raise InvalidArgumentError(f"order must be >= 0, got {order}")
    t, vectors = series_solutions(solving_operator(op), IDENTITY_PHI, order)
    # the vectors are in lowest terms already
    return SolutionBasis("series_basis", tuple(PuiseuxSeries(1, *v, t) for v in vectors))


def polynomial_solutions_bounded(op: MahlerOperator, w: int) -> SolutionBasis:
    """Basis of polynomial solutions of degree < w."""
    if w < 1:
        raise InvalidArgumentError(f"degree bound must be >= 1, got {w}")
    vectors = polynomial_solutions(solving_operator(op), w)
    return SolutionBasis("polynomial_basis", tuple(Poly.from_integers(*v) for v in vectors))


def polynomial_basis(op: MahlerOperator) -> SolutionBasis:
    """Basis of all polynomial solutions; the degree bound comes from the
    upper Newton polygon."""
    solving = solving_operator(op)
    if solving.order < 1:
        return SolutionBasis("polynomial_basis", ())
    b, r = solving.radix, solving.order
    w = solving.degree // (b**r - b ** (r - 1)) + 1
    return polynomial_solutions_bounded(solving, w)


def puiseux_basis(op: MahlerOperator, ramification: Optional[int], order: int) -> SolutionBasis:
    """Basis of solutions with exponents in (1/ramification)Z, truncated
    at O(x^(order+1)); the ramification must be coprime to the radix.
    None: all Puiseux-series solutions, the ramification being the lcm
    of the admissible slope denominators coprime to the radix.

    A right factor M^w is stripped first and the output exponents are
    rescaled by b^-w; the effective ramification is then ramification*b^w.
    """
    if ramification is not None and ramification < 1:
        raise InvalidArgumentError(f"ramification must be >= 1, got {ramification}")
    if not op:
        raise UnsupportedEquationError("zero operator")
    if order < 0:
        raise InvalidArgumentError(f"order must be >= 0, got {order}")
    if ramification is not None and math.gcd(ramification, op.radix) != 1:
        raise InvalidArgumentError(
            f"ramification {ramification} is not coprime to radix {op.radix}"
        )
    kind = "puiseux_basis"
    w0 = op.m_valuation
    if w0 > 0:
        op = op.m_shift(-w0)
        order = order * op.radix**w0
    if op.order == 0:
        return SolutionBasis(kind, ())

    edges = lower_polygon(op)
    if ramification is None:
        _, ramification = ramification_bound(edges, op.radix)
    out_ram = ramification * op.radix**w0
    try:
        edge = ramification_edge(edges, ramification)
    except NoAdmissibleEdgeError:
        return SolutionBasis(kind, (), note="no-admissible-edge")

    # shift = slope * ramification and gamma = intercept * ramification,
    # from the ends (u1, j1) and (u2, j2) of the edge: gamma = j1 *
    # ramification - shift * u1 is an int whenever shift is
    (u1, j1), (u2, j2) = edge.start, edge.end
    shift, rem = divmod((j2 - j1) * ramification, u2 - u1)
    if rem:
        raise InternalInvariantError("edge data is not integral for the chosen ramification")
    phi = PhiTransform(-shift, ramification, j1 * ramification - shift * u1)
    # like series_basis, never cut an element below the window head
    t, vectors = series_solutions(op, phi, shift + ramification * order)
    trunc = _exact(t - shift, out_ram)
    # coefficient i carries the exponent (-slope + i/ramification)/b^w0 = (i - shift)/out_ram
    elements = tuple(
        PuiseuxSeries(out_ram, den, tuple((i - shift, c) for i, c in pairs), trunc)
        for den, pairs in vectors
    )
    return SolutionBasis(kind, elements)


# -- residual certificates -----------------------------------------------------


def certificate_order(op: MahlerOperator, truncation_order):
    """Largest order to which the image of a truncation is trustworthy:
    a truncated solution satisfies the equation modulo x^(this value).
    An int or Fraction truncation order gives an int when the value is
    integral and a Fraction otherwise."""
    n, d = truncation_order.numerator, truncation_order.denominator
    top = min(c.valuation * d + op.radix**k * n for k, c in op.nonzero_coefficients())
    return _exact(top, d)


def certify(op: MahlerOperator, basis: SolutionBasis) -> list[Optional[Fraction]]:
    """Substitute every element of a solution basis back into op.

    Returns, element by element, the certified order of a truncated
    series (see certificate_order) or None for an exact solution; raises
    InternalInvariantError when an element fails its certificate.  An
    exact element is a numerator whose image must vanish: a polynomial p
    under op, N / (x^v D) under clear_denominator(op, v, D), and a
    rational function of x^(1/n) likewise after x -> x^n in op.
    """
    kind = basis.kind
    if kind in ("series_basis", "puiseux_basis"):
        op_terms, orders = integer_terms(op), []
        for elem in basis.elements:
            bound, ram = certificate_order(op, elem.truncation_order), elem.ramification
            limit = -(-bound.numerator * ram // bound.denominator)  # ceil(bound * ram)
            _, image = image_below(op_terms, elem.nums, limit, ram)
            if image:
                val = Fraction(min(image), ram)
                raise InternalInvariantError(f"residual has a term of exponent {val} below {bound}")
            orders.append(bound)
        return orders
    # (operator, numerators): every polynomial shares op, and each
    # rational numerator has its own cleared operator
    if kind == "polynomial_basis":
        groups = [(op, basis.elements)]
    elif kind == "rational_basis":
        groups = [
            (clear_denominator(op, f.x_power, f.denominator), [f.numerator]) for f in basis.elements
        ]
    elif kind == "ramified_rational_basis":
        groups = []
        for elem in basis.elements:
            n, f = elem.ramification, elem.function
            substituted = MahlerOperator(op.radix, [c.substitute_power(n) for c in op.coeffs])
            groups.append((clear_denominator(substituted, f.x_power, f.denominator), [f.numerator]))
    else:
        raise InvalidArgumentError(f"cannot certify a {kind}")
    for cleared, numerators in groups:
        op_terms = integer_terms(cleared)
        # no limit: the whole image must vanish
        if any(image_below(op_terms, num.nums, math.inf)[1] for num in numerators):
            name = kind.removesuffix("_basis").replace("_", " ")
            raise InternalInvariantError(f"{name} certificate failed")
    return [None] * basis.dimension

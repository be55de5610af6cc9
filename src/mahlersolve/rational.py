"""Rational solutions: denominator bounds from the leading coefficient,
the full rational solver, ramified rational solving, and the two
transcendence tests.

Every rational solution is p / (x^v_bar q_star) with deg p < w =
deg q_star + 2 v_bar + 1 (`denominator_bound`).  The rational basis
solves for all such p and is put in canonical form by one
`linalg.rref` on the expansions of its numerators.  The
rational-basis transcendence test solves for nothing: the only
possible witness has the numerator x^v_bar q_star y mod x^w, read off
the series y, and it is certified and checked once against the series.
The series solution a transcendence prefix starts comes from
`rmatrix.extend_prefix`, which checks the prefix and prolongs its head.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import poly as P
from .errors import (
    ExponentOverflowError,
    InsufficientPrefixError,
    InvalidArgumentError,
    MahlerError,
    UnsupportedEquationError,
    ZeroTrailingCoefficientError,
)
from .linalg import independent, rref
from .newton import ramification_data
from .operator import (
    MahlerOperator,
    PhiTransform,
    clear_denominator,
    image_below,
    integer_terms,
    phi_apply,
)
from .poly import Poly, graeffe, lcm_orbit, lowest_terms, mahler_substitute, residue_sections
from .rmatrix import extend_prefix
from .solver import SolutionBasis, polynomial_solutions_bounded, solving_operator


class RationalFunction(NamedTuple):
    """numerator / (x^x_power * denominator) in lowest terms.

    Invariants: x_power >= 0, the denominator is monic with nonzero
    constant term, numerator and denominator are coprime, and the
    numerator has nonzero constant term unless x_power = 0.
    """

    numerator: Poly
    x_power: int
    denominator: Poly

    @classmethod
    def make(cls, numerator: Poly, x_power: int, denominator: Poly) -> "RationalFunction":
        if not denominator:
            raise ZeroDivisionError("zero denominator")
        if x_power < 0:
            raise InvalidArgumentError(f"negative x power {x_power}")
        if not numerator:
            return cls(Poly.zero(), 0, Poly.one())
        v = x_power + denominator.valuation
        den = denominator.shift(-denominator.valuation)
        g = P.gcd(numerator, den)
        num = numerator.exact_div(g)
        den = den.exact_div(g)
        cancel = min(v, num.valuation)
        num = num.shift(-cancel)
        v -= cancel
        # num / lc(den) on the integer forms
        lc, lc_den = den.nums[-1][1], den.den
        num = Poly.from_integers(num.den * lc, [(e, c * lc_den) for e, c in num.nums])
        return cls(num, v, den.monic())

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        if not c:
            return cls(Poly.zero(), 0, Poly.one())
        return cls(Poly.monomial(0, c), 0, Poly.one())

    @property
    def valuation(self) -> int:
        if not self.numerator:
            raise InvalidArgumentError("zero function has no valuation")
        return self.numerator.valuation - self.x_power

    def laurent_coefficients(self, lo: int, hi: int) -> tuple[int, list[int]]:
        """The exact expansion coefficients for exponents lo..hi-1 as
        (den, nums): int numerators over one positive den, in lowest
        terms."""
        # x^e is the term e + x_power of the power series numerator/denominator
        first, length = lo + self.x_power, hi + self.x_power
        if not self.numerator or length <= max(first, 0):
            return 1, [0] * max(hi - lo, 0)
        common, nums = _power_series_div(self.numerator, self.denominator, length)
        nums = [0] * -first + nums if first < 0 else nums[first:]
        common, pairs = lowest_terms(common, enumerate(nums))
        return common, [v for _, v in pairs]

    def __str__(self) -> str:
        den_parts = []
        if self.x_power:
            den_parts.append("x" if self.x_power == 1 else f"x^{self.x_power}")
        if self.denominator != Poly.one():
            den_parts.append(f"({self.denominator})")
        if not den_parts:
            return str(self.numerator)
        return f"({self.numerator}) / ({' * '.join(den_parts)})"


def _power_series_div(num: Poly, den: Poly, length: int) -> tuple[int, list[int]]:
    """The first `length` coefficients of num/den, den(0) nonzero, as
    (common, nums), int numerators over common = d0^length num.den: with
    A = num.nums, D = den.nums and d0 = D(0), the int t_n = A_n d0^n -
    sum_e D_e d0^(e-1) t_(n-e) is the coefficient of x^n in A/D times
    d0^(n+1), and t_n den.den d0^(length-1-n) that of num/den over common.
    """
    if not den.nums or den.nums[0][0]:
        raise ZeroDivisionError("denominator vanishes at 0")
    d0 = den.nums[0][1]
    tail = [(e, c * d0 ** (e - 1)) for e, c in den.nums[1:]]
    num_map = dict(num.nums)
    ints = [0] * length
    power = 1  # d0^n
    for n in range(length):
        acc = num_map.get(n, 0) * power
        for e, c in tail:
            if e > n:
                break
            acc -= c * ints[n - e]
        ints[n] = acc
        power *= d0
    common, power = power * num.den, den.den
    for n in range(length - 1, -1, -1):
        ints[n] *= power
        power *= d0
    return common, ints


class RamifiedRationalFunction(NamedTuple):
    """A rational function of x^(1/ramification)."""

    ramification: int
    function: RationalFunction


class DenominatorBound(NamedTuple):
    """Result of the leading-coefficient analysis, with the intermediate
    cofactor trace kept for inspection."""

    q_star: Poly
    v_bar: int
    u_steps: tuple[Poly, ...]
    u_tilde: Poly


def denominator_bound(op: MahlerOperator) -> DenominatorBound:
    """Monic polynomial q_star and shift v_bar such that every rational
    solution can be written p / (x^v_bar * q_star).

    Loop: take the b^r-residue sections of the working polynomial, remove
    the gcd u_k of the sections (substituted back), and multiply by the
    lcm of the orbit of u_k; once no factor remains, one more section pass
    one level down gives a polynomial whose Gräffe image collects the
    factors living on root-power cycles.
    """
    if not op:
        raise UnsupportedEquationError("zero operator")
    if not op.coefficient(0):
        raise UnsupportedEquationError("denominator bound requires a nonzero trailing coefficient")
    r = op.order
    if r < 1:
        raise UnsupportedEquationError("denominator bound requires order >= 1")
    b = op.radix
    delta = op.degree

    ell = op.coeffs[r]
    u_steps = []
    while True:
        u = P.gcd_all(residue_sections(ell, b**r).values())
        u_steps.append(u)
        if u.degree < 1:
            break
        ell = ell.exact_div(mahler_substitute(u, b, r)) * lcm_orbit(u, b, r)
    u_tilde = P.gcd_all(residue_sections(ell, b ** (r - 1)).values())

    q_star = Poly.one()
    for u in u_steps[:-1]:
        q_star = q_star * u
    q_star = (q_star * graeffe(u_tilde, b)).monic()
    v_bar = delta // (b**r - b ** (r - 1))
    return DenominatorBound(q_star, v_bar, tuple(u_steps), u_tilde)


def rational_basis(op: MahlerOperator) -> SolutionBasis:
    """Basis of the rational-function solutions.

    The change of unknown y = p / (x^v_bar q_star) (`clear_denominator`)
    turns the problem into a bounded-degree polynomial solve for p.
    """
    op = solving_operator(op)
    kind = "rational_basis"
    r = op.order
    if r < 1:
        return SolutionBasis(kind, ())
    bound = denominator_bound(op)
    q_star, v_bar = bound.q_star, bound.v_bar
    aux = clear_denominator(op, v_bar, q_star)

    w = q_star.degree + 2 * v_bar + 1
    numerators = polynomial_solutions_bounded(aux, w).elements
    return SolutionBasis(kind, _echelon(numerators, v_bar, q_star))


def _echelon(numerators: Sequence[Poly], v_bar: int, q_star: Poly) -> tuple:
    """The solutions p / (x^v_bar q_star) in reduced echelon form on their
    Laurent expansions: valuations ascending, leading coefficient one,
    each valuation a zero of the other elements.

    Every expansion is p/q0 shifted by the same power of x, q0 the x-free
    part of q_star, and p -> p/q0 mod x^w is injective on degree < w.  So
    one rref of the rows [first w coefficients of p/q0 | coefficients of
    p] puts its pivots in the left half, and the right half holds the
    numerators of the canonical basis.
    """
    if not numerators:
        return ()
    q0 = q_star.shift(-q_star.valuation)
    w = 1 + max(p.degree for p in numerators)
    rows = []
    for p in numerators:
        # the row over the expansion's common denominator, then divided by its content
        common, row = _power_series_div(p, q0, w)
        scale = common // p.den
        row += [0] * w
        for e, c in p.nums:
            row[w + e] = c * scale
        g = math.gcd(*row)
        rows.append([v // g for v in row])
    den, reduced, _ = rref(rows)
    return tuple(
        RationalFunction.make(
            Poly.from_integers(den, [(e, c) for e, c in enumerate(row[w:]) if c]), v_bar, q_star
        )
        for row in reduced
    )


def ramified_rational_basis(op: MahlerOperator) -> SolutionBasis:
    """Basis of solutions that are rational functions of some x^(1/N).

    The M-valuation is stripped, the variable is rescaled to make every
    admissible ramified slope integral, and the plain rational solver
    runs on the rescaled equation.
    """
    if not op:
        raise UnsupportedEquationError("zero operator")
    kind = "ramified_rational_basis"
    w0 = op.m_valuation
    if w0:
        op = op.m_shift(-w0)
    if op.order == 0:
        return SolutionBasis(kind, ())
    _, n = ramification_data(op)
    gamma = n * min(c.valuation for _, c in op.nonzero_coefficients())
    rescaled = phi_apply(op, PhiTransform(0, n, gamma))
    inner = rational_basis(rescaled)
    out_ram = n * op.radix**w0
    return SolutionBasis(
        kind,
        tuple(RamifiedRationalFunction(out_ram, f) for f in inner.elements),
    )


class TranscendenceVerdict(NamedTuple):
    verdict: str  # "rational" | "transcendental"
    witness: Optional[RationalFunction]
    method: str  # "rational-basis" | "bell-coons"


def transcendence_test(
    op: MahlerOperator, prefix: Sequence[int | Fraction]
) -> TranscendenceVerdict:
    """Decide whether the series solution identified by the prefix is a
    rational function (with witness) or transcendental.

    Solutions of a linear Mahler equation are never algebraic irrational,
    so the verdict is a dichotomy.  Every rational solution is
    p / (x^v_bar q_star) with deg p < w = deg q_star + 2 v_bar + 1
    (`denominator_bound`), so when the series y is rational, z = x^v_bar
    q_star y is the polynomial p.  The series is extended once, to
    max(len(prefix), w - v_bar) terms, so that z is known below x^w; a
    known term of z at degree >= w makes y transcendental, and otherwise
    p = z mod x^w gives the only possible witness.  The witness must
    pass the certificate of a rational basis element and expand to the
    series.  The expansion can differ only when x divides q_star: z
    below x^(v_bar + n) then fixes fewer than the n known terms of y.

    A zero prefix, or any prefix when the order is 0 and only the zero
    series solves, is checked by `extend_prefix` alone, with no bound.
    A fault of the prefix is reported before any fault of the bound or
    of the extension to w - v_bar terms.
    """
    op = solving_operator(op)
    if op.order < 1 or not any(prefix):
        extend_prefix(op, prefix, len(prefix))
        return TranscendenceVerdict("rational", RationalFunction.constant(0), "rational-basis")
    try:
        bound = denominator_bound(op)
        q_star, v_bar = bound.q_star, bound.v_bar
        w = q_star.degree + 2 * v_bar + 1
        den, series = extend_prefix(op, prefix, w - v_bar)
    except MahlerError:
        extend_prefix(op, prefix, len(prefix))
        raise
    # z_i, the coefficient of x^(v_bar + i) in z, times den q_star.den
    z = [0] * len(series)
    for e, c in q_star.nums:
        for i, s in enumerate(series[: len(series) - e]):
            if s:
                z[i + e] += c * s
    transcendental = TranscendenceVerdict("transcendental", None, "rational-basis")
    if any(z[w - v_bar :]):
        return transcendental
    p = Poly.from_integers(den * q_star.den, [(v_bar + i, c) for i, c in enumerate(z) if c])
    witness = RationalFunction.make(p, v_bar, q_star)
    cleared = clear_denominator(op, witness.x_power, witness.denominator)
    if image_below(integer_terms(cleared), witness.numerator.nums, math.inf)[1]:
        return transcendental
    exp_den, expansion = witness.laurent_coefficients(0, len(series))
    if any(c * den != n * exp_den for c, n in zip(expansion, series)):
        return transcendental
    return TranscendenceVerdict("rational", witness, "rational-basis")


def bell_coons_test(
    op: MahlerOperator, prefix: Sequence[int | Fraction]
) -> TranscendenceVerdict:
    """The Bell-Coons oracle for the same question as transcendence_test:
    extend the prefix to the series solution it identifies and decide by
    the Hankel rank; gives no witness."""
    op = solving_operator(op)
    if op.order < 1:
        # only the zero series solves l_0 y = 0; this raises otherwise
        extend_prefix(op, prefix, len(prefix))
        return TranscendenceVerdict("rational", None, "bell-coons")
    kappa, bound = bell_coons_dimensions(op)
    _, series = extend_prefix(op, prefix, kappa + bound + 1)
    verdict = "transcendental" if bell_coons_rank(op, series) else "rational"
    return TranscendenceVerdict(verdict, None, "bell-coons")


def bell_coons_dimensions(op: MahlerOperator) -> tuple[int, int]:
    """(kappa, bound) such that the rank test needs the Hankel-style
    matrix with kappa+1 rows and bound+1 columns, from kappa + bound + 1
    coefficients; more than MAX_EXPONENT raise ExponentOverflowError."""
    if not op:
        raise UnsupportedEquationError("zero operator")
    if not op.coefficient(0):
        raise ZeroTrailingCoefficientError("Bell-Coons test needs a nonzero trailing coefficient")
    r = op.order
    if r < 1:
        raise UnsupportedEquationError("Bell-Coons test requires order >= 1")
    b = op.radix
    d = op.degree
    kappa1 = (b - 1) * d // (b ** (r + 1) - 2 * b**r + 1)
    kappa2 = d // ((b - 1) * b ** (r - 1))
    kappa = kappa1 + kappa2 + 1
    bound = d + kappa * (b ** (r + 1) - 1) // (b - 1)
    if kappa + bound + 1 > P.MAX_EXPONENT:
        raise ExponentOverflowError(f"Bell-Coons test needs {kappa + bound + 1} coefficients")
    return kappa, bound


def bell_coons_rank(op: MahlerOperator, series: Sequence[int | Fraction]) -> bool:
    """Hankel-rank transcendence test: True means transcendental.

    Needs at least kappa + bound + 1 coefficients of a true series
    solution; the kappa + 1 rows of the matrix (y_{i+j}) are independent
    exactly when the function is not rational.  The rows are built one
    at a time and the test stops at the first dependent row, so a
    rational function of Hankel rank rho costs rho + 1 rows.
    """
    kappa, bound = bell_coons_dimensions(op)
    if len(series) < kappa + bound + 1:
        raise InsufficientPrefixError(
            f"need {kappa + bound + 1} coefficients, got {len(series)}"
        )
    return independent(series[i : i + bound + 1] for i in range(kappa + 1))

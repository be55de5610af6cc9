"""Rational solutions: denominator bounds from the leading coefficient,
the full rational solver, ramified rational solving, and the two
transcendence tests.

Every answer here is read off a reduced echelon basis rather than
solved for.  The rational basis is put in canonical form by one
`linalg.rref` on the expansions of its numerators.  The series basis
has unit pivots below its head, so a prefix picks its combination at
those pivots; the rational basis has unit pivots at its valuations, so
a series picks its rational witness there.  Each combination is then
checked once against what it must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import poly as P
from .errors import (
    ExponentOverflowError,
    InconsistentPrefixError,
    InsufficientPrefixError,
    InvalidArgumentError,
    UnsupportedEquationError,
    ZeroTrailingCoefficientError,
)
from .linalg import independent, rref
from .newton import mu_nu, ramification_data
from .operator import MahlerOperator, PhiTransform, clear_denominator, phi_apply
from .poly import Poly, graeffe, lcm_orbit, mahler_substitute, poly_sections
from .solver import (
    SolutionBasis,
    polynomial_solutions_bounded,
    series_basis,
    solving_operator,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class RationalFunction:
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
        c = Fraction(c)
        if not c:
            return cls(Poly.zero(), 0, Poly.one())
        return cls(Poly.monomial(0, c), 0, Poly.one())

    @property
    def valuation(self) -> int:
        if not self.numerator:
            raise InvalidArgumentError("zero function has no valuation")
        return self.numerator.valuation - self.x_power

    def scale(self, c) -> "RationalFunction":
        if not Fraction(c):
            return RationalFunction.constant(0)
        return RationalFunction.make(
            self.numerator.scale(c), self.x_power, self.denominator
        )

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        da = self.denominator.shift(self.x_power)
        db = other.denominator.shift(other.x_power)
        num = self.numerator * db + other.numerator * da
        return RationalFunction.make(num, 0, da * db)

    def laurent_coefficients(self, lo: int, hi: int) -> list[Fraction]:
        """Exact expansion coefficients for exponents lo..hi-1."""
        if hi <= lo:
            return []
        if not self.numerator:
            return [_ZERO] * (hi - lo)
        # numerator/denominator is a power series; shift by x_power.
        length = hi + self.x_power
        if length <= 0:
            return [_ZERO] * (hi - lo)
        num, den = self.numerator, self.denominator
        ints = _power_series_div(num, den, length)
        d0 = den.nums[0][1]
        series = []
        power = 1  # d0^(n+1)
        for t in ints:
            power *= d0
            series.append(Fraction(t * den.den, power * num.den) if t else _ZERO)
        out = []
        for e in range(lo, hi):
            idx = e + self.x_power
            out.append(series[idx] if 0 <= idx < length else _ZERO)
        return out

    def __str__(self) -> str:
        den_parts = []
        if self.x_power:
            den_parts.append("x" if self.x_power == 1 else f"x^{self.x_power}")
        if self.denominator != Poly.one():
            den_parts.append(f"({self.denominator})")
        if not den_parts:
            return str(self.numerator)
        return f"({self.numerator}) / ({' * '.join(den_parts)})"


def _power_series_div(num: Poly, den: Poly, length: int) -> list[int]:
    """The integer form of the first `length` coefficients of num/den,
    den(0) nonzero: with A = num.nums, D = den.nums and d0 = D(0), the
    int t_n = A_n d0^n - sum_e D_e d0^(e-1) t_(n-e) is the coefficient of
    x^n in A/D times d0^(n+1), so that of num/den is
    t_n den.den / (d0^(n+1) num.den).
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
    return ints


@dataclass(frozen=True)
class RamifiedRationalFunction:
    """A rational function of x^(1/ramification)."""

    ramification: int
    function: RationalFunction


@dataclass(frozen=True)
class DenominatorBound:
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
        sections = poly_sections(ell, b**r)
        u = P.gcd_all(s for s in sections if s)
        u_steps.append(u)
        if u.degree < 1:
            break
        ell = ell.exact_div(mahler_substitute(u, b, r)) * lcm_orbit(u, b, r)
    # one level down; for order 1 the "sections" are the polynomial itself
    sections = poly_sections(ell, b ** (r - 1)) if r > 1 else [ell]
    u_tilde = P.gcd_all(s for s in sections if s)

    q_star = Poly.one()
    for u in u_steps[:-1]:
        q_star = q_star * u
    q_star = (q_star * graeffe(u_tilde, b)).monic()
    v_bar = delta // (b**r - b ** (r - 1))
    return DenominatorBound(q_star, v_bar, tuple(u_steps), u_tilde)


def rational_basis(op: MahlerOperator, auto_normalize: bool = True) -> SolutionBasis:
    """Basis of the rational-function solutions.

    The change of unknown y = p / (x^v_bar q_star) (`clear_denominator`)
    turns the problem into a bounded-degree polynomial solve for p.
    """
    op = solving_operator(op, auto_normalize)
    kind = "rational_basis"
    r = op.order
    if r < 1:
        return SolutionBasis(kind, ())
    if op.degree < op.radix ** (r - 1):
        total = Poly.zero()
        for _, c in op.nonzero_coefficients():
            total = total + c
        if not total:
            return SolutionBasis(kind, (RationalFunction.constant(1),))
        return SolutionBasis(kind, ())

    bound = denominator_bound(op)
    q_star, v_bar = bound.q_star, bound.v_bar
    aux = clear_denominator(op, v_bar, q_star)

    w = q_star.degree + 2 * v_bar + 1
    numerators = polynomial_solutions_bounded(aux, w, auto_normalize=False).elements
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
    d0 = q0.nums[0][1]
    w = 1 + max(p.degree for p in numerators)
    rows = []
    for p in numerators:
        # the row times p.den d0^w, t_n q0.den d0^(w-1-n) | p.nums d0^w,
        # then divided by its content
        ints = _power_series_div(p, q0, w)
        row = [t * q0.den * d0 ** (w - 1 - n) for n, t in enumerate(ints)]
        row += [0] * w
        for e, c in p.nums:
            row[w + e] = c * d0**w
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
    scale = op.radix**w0
    _, n = ramification_data(op)
    if n == 1 and scale == 1:
        inner = rational_basis(op)
        return SolutionBasis(
            kind,
            tuple(RamifiedRationalFunction(1, f) for f in inner.elements),
        )
    gamma = n * min(c.valuation for _, c in op.nonzero_coefficients())
    rescaled = phi_apply(op, PhiTransform(0, n, gamma))
    inner = rational_basis(rescaled)
    out_ram = n * scale
    return SolutionBasis(
        kind,
        tuple(RamifiedRationalFunction(out_ram, f) for f in inner.elements),
    )


@dataclass(frozen=True)
class TranscendenceVerdict:
    verdict: str  # "rational" | "transcendental"
    witness: Optional[RationalFunction]
    method: str  # "rational-basis" | "bell-coons"


def _consistent_extension(
    op: MahlerOperator, prefix: Sequence[Fraction], length: int
) -> tuple[int, list[int]]:
    """The series solution that starts with the prefix, to
    max(length, len(prefix)) coefficients, as (den, nums): int
    numerators over one positive int den.  Raises when no solution
    starts with the prefix.

    The series basis is reduced echelon with its pivots, of value 1,
    below the head, so the one combination that can match the prefix
    takes the prefix coefficient at each element's pivot.
    """
    for c in prefix:
        if type(c) is not int and not isinstance(c, Fraction):
            raise InvalidArgumentError(f"prefix entries must be int or Fraction, got {c!r}")
    target = max(length, len(prefix))
    elements = ()
    if op.order >= 1:
        nu, _ = mu_nu(op)
        head = math.floor(nu) + 1 if nu >= 0 else 0
        if len(prefix) < max(head, 1):
            raise InsufficientPrefixError(
                f"need at least {max(head, 1)} coefficients, got {len(prefix)}"
            )
        elements = series_basis(op, target - 1, auto_normalize=False).elements
    combo = [(c, elem) for elem in elements if (c := prefix[elem.nums[0][0]])]
    den = math.lcm(*(c.denominator * elem.den for c, elem in combo))
    nums = [0] * target
    for c, elem in combo:
        f = c.numerator * (den // (c.denominator * elem.den))
        for e, v in elem.nums:
            nums[e] += f * v
    if any(c.numerator * den != v * c.denominator for c, v in zip(prefix, nums)):
        raise InconsistentPrefixError("prefix extends to no series solution")
    return den, nums


def transcendence_test(
    op: MahlerOperator, prefix: Sequence[Fraction], auto_normalize: bool = True
) -> TranscendenceVerdict:
    """Decide whether the series solution identified by the prefix is a
    rational function (with witness) or transcendental.

    Solutions of a linear Mahler equation are never algebraic irrational,
    so the verdict is a dichotomy.  The rational basis is reduced echelon
    in Laurent coordinates with its pivots at the valuations, so the one
    combination that can match the series takes the series coefficient
    at each valuation (0 at a negative one or one past the prefix); its
    expansion is then checked against the series.
    """
    op = solving_operator(op, auto_normalize)
    den, series = _consistent_extension(op, prefix, len(prefix))
    if not any(series):
        return TranscendenceVerdict("rational", RationalFunction.constant(0), "rational-basis")
    hi = len(series)
    witness = RationalFunction.constant(0)
    for f in rational_basis(op, auto_normalize=False).elements:
        v = f.valuation
        if 0 <= v < hi and series[v]:
            witness = witness + f.scale(Fraction(series[v], den))
    expansion = witness.laurent_coefficients(0, hi)
    if any(c.numerator * den != n * c.denominator for c, n in zip(expansion, series)):
        return TranscendenceVerdict("transcendental", None, "rational-basis")
    return TranscendenceVerdict("rational", witness, "rational-basis")


def bell_coons_test(op: MahlerOperator, prefix: Sequence[Fraction]) -> TranscendenceVerdict:
    """The Bell-Coons oracle for the same question as transcendence_test:
    extend the prefix to the series solution it identifies and decide by
    the Hankel rank; gives no witness."""
    op = solving_operator(op, True)
    if op.order < 1:
        # only the zero series solves l_0 y = 0; this raises otherwise
        _consistent_extension(op, prefix, len(prefix))
        return TranscendenceVerdict("rational", None, "bell-coons")
    kappa, bound = bell_coons_dimensions(op)
    _, series = _consistent_extension(op, prefix, kappa + bound + 1)
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


def bell_coons_rank(op: MahlerOperator, series: Sequence[Fraction]) -> bool:
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

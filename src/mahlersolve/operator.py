"""Linear Mahler operators: sums of polynomial coefficients times powers
of the radix-b substitution map M, with the commutation rule M x = x^b M.

The coefficient of M^k sits at index k of ``coeffs``; the zero operator
is the empty tuple.  Operator application (`image_below`, the only one),
the change of unknown y = p / (x^v q) (`clear_denominator`),
multiplication, the remainder of fraction-free right pseudo-division
(`right_remainder`), exponent substitutions, sections, interreduction,
and content normalization all live here.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import poly as P
from .errors import (
    InternalInvariantError,
    InvalidArgumentError,
    MixedRadixError,
    NegativeExponentError,
    UnsupportedEquationError,
)
from .poly import Poly, checked_power, mahler_substitute, mul_sub, poly_sections


class _TermsKey(tuple):
    """A Poly's (den, nums), ordered as its terms tuple of (exponent,
    Fraction) pairs is, without building a Fraction.  The integer form
    is canonical, so tuple equality is equality of the polynomials; an
    order comparison walks the terms and compares n1/d1 with n2/d2 as
    n1*d2 with n2*d1."""

    __slots__ = ()

    def __lt__(self, other):
        (d1, t1), (d2, t2) = self, other
        for (e1, n1), (e2, n2) in zip(t1, t2):
            if e1 != e2:
                return e1 < e2
            if n1 * d2 != n2 * d1:
                return n1 * d2 < n2 * d1
        return len(t1) < len(t2)

    def __gt__(self, other):
        return other < self

    def __le__(self, other):
        return not other < self

    def __ge__(self, other):
        return not self < other


class MahlerOperator:
    __slots__ = ("radix", "coeffs", "_key")

    def __init__(self, radix: int, coeffs: Iterable[Poly] = ()):
        if radix < 2:
            raise InvalidArgumentError(f"radix must be >= 2, got {radix}")
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.radix, self.coeffs, self._key = radix, tuple(cs), None

    @classmethod
    def from_dict(cls, radix: int, coeffs: Mapping[int, Poly]) -> "MahlerOperator":
        if not coeffs:
            return cls(radix)
        top = max(coeffs)
        return cls(radix, [coeffs.get(k, Poly.zero()) for k in range(top + 1)])

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def order(self) -> int:
        """Largest M-power with nonzero coefficient; -1 for zero."""
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        """Largest coefficient degree; -1 for zero."""
        return max((c.degree for c in self.coeffs if c), default=-1)

    @property
    def m_valuation(self) -> int:
        """Least k with a nonzero coefficient of M^k."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        raise UnsupportedEquationError("zero operator has no M-valuation")

    def coefficient(self, k: int) -> Poly:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Poly.zero()

    def nonzero_coefficients(self) -> list[tuple[int, Poly]]:
        return [(k, c) for k, c in enumerate(self.coeffs) if c]

    def __eq__(self, other) -> bool:
        if isinstance(other, MahlerOperator):
            return self.radix == other.radix and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.radix, self.coeffs))

    def sort_key(self):
        """Deterministic total order used by the interreduction loops,
        computed once per operator."""
        key = self._key
        if key is None:
            key = self._key = (
                -self.order,
                self.degree,
                tuple((k, _TermsKey((c.den, c.nums))) for k, c in self.nonzero_coefficients()),
            )
        return key

    # -- ring operations ----------------------------------------------------

    def _require_same_radix(self, other: "MahlerOperator") -> None:
        if self.radix != other.radix:
            raise MixedRadixError(f"radix {self.radix} vs {other.radix}")

    def __add__(self, other: "MahlerOperator") -> "MahlerOperator":
        if not isinstance(other, MahlerOperator):
            return NotImplemented
        self._require_same_radix(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return MahlerOperator(
            self.radix,
            [self.coefficient(k) + other.coefficient(k) for k in range(n)],
        )

    def __neg__(self) -> "MahlerOperator":
        return MahlerOperator(self.radix, [-c for c in self.coeffs])

    def __sub__(self, other: "MahlerOperator") -> "MahlerOperator":
        return self + (-other)

    def __mul__(self, other: "MahlerOperator") -> "MahlerOperator":
        if not isinstance(other, MahlerOperator):
            return NotImplemented
        self._require_same_radix(other)
        acc: dict[int, Poly] = {}
        for k, a in self.nonzero_coefficients():
            for kk, bb in other.nonzero_coefficients():
                moved = mahler_substitute(bb, self.radix, k) if k else bb
                key = k + kk
                acc[key] = acc.get(key, Poly.zero()) + a * moved
        return MahlerOperator.from_dict(self.radix, acc)

    def __rmul__(self, other: Poly) -> "MahlerOperator":
        # (poly) * operator: plain coefficient-wise multiplication
        if not isinstance(other, Poly):
            return NotImplemented
        return MahlerOperator(self.radix, [other * c for c in self.coeffs])

    def m_shift(self, delta: int) -> "MahlerOperator":
        """Multiply by M^delta on the right: shift all M-exponents by delta."""
        if not self or delta == 0:
            return self
        if delta > 0:
            return MahlerOperator(self.radix, (Poly.zero(),) * delta + self.coeffs)
        if self.m_valuation < -delta:
            raise InvalidArgumentError(
                f"m_shift by {delta} below the M-valuation {self.m_valuation}"
            )
        return MahlerOperator(self.radix, self.coeffs[-delta:])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in reversed(self.nonzero_coefficients()):
            m = "" if k == 0 else ("M" if k == 1 else f"M^{k}")
            body = str(c)
            if m:
                body = f"({body})*{m}" if len(c.nums) > 1 or body.startswith("-") else f"{body}*{m}"
            parts.append(body)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MahlerOperator(radix={self.radix}, order={self.order}, degree={self.degree})"


# -- application -------------------------------------------------------------


def integer_terms(op: MahlerOperator) -> tuple[int, list[tuple[int, int, int]]]:
    """(L, terms): L is the lcm of the coefficient denominators and
    terms lists (b^k, j, L c) for every term c x^j M^k of op, in
    increasing order of k, then j; every L c is an int."""
    b = op.radix
    lcm = math.lcm(*(lk.den for lk in op.coeffs))
    terms = []
    for k, lk in op.nonzero_coefficients():
        bk, f = b**k, lcm // lk.den
        terms.extend((bk, j, c * f) for j, c in lk.nums)
    return lcm, terms


def image_below(
    op_terms: tuple[int, Sequence[tuple[int, int, int]]],
    nums: Sequence[tuple[int, int]],
    limit: int,
    scale: int = 1,
) -> tuple[int, dict[int, int]]:
    """(L, image): op, given as its `integer_terms` (L, terms), applied to
    sum(v x^(e/scale)), the (e, v) pairs in `nums` ints in increasing
    order of e, below x^(limit/scale).  `image` maps each exponent, in
    units of 1/scale, to L times its nonzero coefficient, an int.  M^k
    multiplies exponents by b^k, so a truncated series is known only far
    below most of its image; the terms from limit/scale on are never
    formed.

    A dense input runs on lists: one with more pairs than terms, whose
    span of exponents and whose image window, from the least image
    exponent up to min(limit, the greatest + 1), are each under
    2 len(nums).  The pairs fill a list of the span, and each term adds
    into a list of the window with one `add_scaled` loop.  Any other
    input, such as a series with long runs of zeros or a polynomial of a
    few terms, sums each term's products into a dict."""
    lcm, terms = op_terms
    if 0 < len(terms) < len(nums):
        first, last = nums[0][0], nums[-1][0]
        span = last - first + 1
        base = min(j * scale + bk * first for bk, j, _ in terms)
        window = min(limit, max(j * scale + bk * last for bk, j, _ in terms) + 1) - base
        if span < 2 * len(nums) and window < 2 * len(nums):
            ys = [0] * span
            for e, v in nums:
                ys[e - first] = v
            sums = [0] * window
            for bk, j, c in terms:
                add_scaled(sums, zip(range(j * scale + bk * first - base, window, bk), ys), c)
            return lcm, {m + base: s for m, s in enumerate(sums) if s}
    acc: dict[int, int] = {}
    for bk, j, c in terms:
        js = j * scale
        for e, v in nums:
            m = js + bk * e
            if m >= limit:
                break
            if m in acc:
                acc[m] += c * v
            else:
                acc[m] = c * v
    return lcm, {m: s for m, s in acc.items() if s}


def add_scaled(acc: list[int], pairs: Iterable[tuple[int, int]], c: int) -> None:
    """acc[m] += c v for every (m, v) in pairs; a unit c adds or
    subtracts v without a multiplication."""
    if c == 1:
        for m, v in pairs:
            acc[m] += v
    elif c == -1:
        for m, v in pairs:
            acc[m] -= v
    else:
        for m, v in pairs:
            acc[m] += c * v


def clear_denominator(op: MahlerOperator, v: int, q: Poly) -> MahlerOperator:
    """The operator whose polynomial solutions p are exactly the
    numerators of the solutions p / (x^v q) of op: its coefficient of M^k
    is l_k x^(s - b^k v) prod_(i != k) q(x^(b^i)), where s = max_k(b^k v -
    v(l_k)) is the least shift that leaves no negative exponent.  The
    zero operator stays zero."""
    b = op.radix
    orbit = [mahler_substitute(q, b, i) if i else q for i in range(len(op.coeffs))]
    s = max((b**k * v - lk.valuation for k, lk in op.nonzero_coefficients()), default=0)
    coeffs = []
    for k, lk in enumerate(op.coeffs):
        if lk:
            lk = lk.shift(s - b**k * v)
            for i, image in enumerate(orbit):
                if i != k:
                    lk = lk * image
        coeffs.append(lk)
    return MahlerOperator(b, coeffs)


# -- right pseudo-division ----------------------------------------------------


def right_remainder(a: MahlerOperator, b: MahlerOperator) -> MahlerOperator:
    """The remainder r of fraction-free right pseudo-division of a by b.

    Some nonzero polynomial c and operator q give c*a = q*b + r with
    order(r) < order(b); b right-divides a exactly when r = 0.  Neither
    c nor q is formed.  A step with top = r_(order r), k = order r -
    order b and g = M^k(lead b) updates the remainder coefficient-wise
    on the integer forms, r_j <- g r_j - top b_(j-k)(x^(b^k)) through
    `poly.mul_sub`, with no operator product.
    """
    if not b:
        raise UnsupportedEquationError("right division by the zero operator")
    a._require_same_radix(b)
    radix = a.radix
    r = a
    nb = b.order
    lead_b = b.coeffs[-1]
    while r and r.order >= nb:
        k = r.order - nb
        g = mahler_substitute(lead_b, radix, k) if k else lead_b
        top = r.coeffs[-1]
        # the coefficients of M^k b, aligned with those of r
        mk_b = [Poly.zero()] * k + [mahler_substitute(bj, radix, k) if k else bj for bj in b.coeffs]
        r = MahlerOperator(radix, [mul_sub(g, rj, top, sj) for rj, sj in zip(r.coeffs, mk_b)])
        if r and r.order >= nb + k:
            raise InternalInvariantError("pseudo-division failed to reduce the order")
    return r


# -- exponent substitutions ----------------------------------------------------


class PhiTransform(NamedTuple):
    """Exponent map x^j M^k -> x^(alpha*b^k + beta*j - gamma) M^k.

    beta must be positive and coprime to the radix, which `validate_for`
    checks; the operator it is applied to must come out with nonnegative
    exponents.
    """

    alpha: int
    beta: int
    gamma: int

    def validate_for(self, radix: int) -> None:
        if self.beta < 1:
            raise InvalidArgumentError(f"beta must be positive, got {self.beta}")
        if math.gcd(self.beta, radix) != 1:
            raise InvalidArgumentError(f"beta={self.beta} is not coprime to radix {radix}")


IDENTITY_PHI = PhiTransform(0, 1, 0)


def phi_apply(op: MahlerOperator, phi: PhiTransform) -> MahlerOperator:
    """Apply the exponent map to every monomial of the operator."""
    phi.validate_for(op.radix)
    if phi == IDENTITY_PHI:
        return op
    alpha, beta, gamma = phi
    out = []
    for k, lk in enumerate(op.coeffs):
        nums = []
        for j, c in lk.nums:
            e = alpha * checked_power(op.radix, k) + beta * j - gamma
            if e < 0:
                raise NegativeExponentError(
                    f"x^{j} M^{k} maps to exponent {e} < 0 under {phi}"
                )
            nums.append((e, c))
        # beta > 0 keeps the exponents increasing
        out.append(Poly.from_integers(lk.den, nums))
    return MahlerOperator(op.radix, out)


# -- sections, interreduction, content ------------------------------------------


def operator_sections(op: MahlerOperator) -> list[MahlerOperator]:
    """The b sections: section i maps x^j M^(k+1) to x^((j-i)/b) M^k when
    b | j-i, else to 0, and annihilates the terms of M-degree zero.  Each
    coefficient is split into its residue classes once."""
    b = op.radix
    outs: list[dict[int, Poly]] = [{} for _ in range(b)]
    for k, lk in op.nonzero_coefficients():
        if k:
            for out, section in zip(outs, poly_sections(lk, b)):
                if section:
                    out[k - 1] = section
    return [MahlerOperator.from_dict(b, out) for out in outs]


def interreduce(op1: MahlerOperator, op2: MahlerOperator) -> MahlerOperator:
    """c2*op1 - c1*op2 where c1, c2 are the M^0 coefficients.

    Both operators must be nonzero with M-valuation 0; the result has a
    zero M^0 coefficient, hence is zero or has positive M-valuation.
    Its coefficient of M^k, k >= 1, is `poly.mul_sub(c2, op1_k, c1,
    op2_k)` on the integer forms; no operator product is formed.
    """
    op1._require_same_radix(op2)
    if not op1 or not op2 or op1.m_valuation != 0 or op2.m_valuation != 0:
        raise UnsupportedEquationError("interreduce requires nonzero operators of M-valuation 0")
    c1 = op1.coeffs[0]
    c2 = op2.coeffs[0]
    n = max(len(op1.coeffs), len(op2.coeffs))
    return MahlerOperator(
        op1.radix,
        [Poly.zero()]
        + [mul_sub(c2, op1.coefficient(k), c1, op2.coefficient(k)) for k in range(1, n)],
    )


def primitive_part(op: MahlerOperator) -> tuple[Poly, MahlerOperator]:
    """Factor op = content * primitive.

    The content is the monic gcd of the coefficients scaled so that the
    primitive part has a monic leading coefficient.  The leading
    coefficient n / d scales on ints: d / n times each coefficient of the
    primitive part, n / d times the content.
    """
    if not op:
        raise UnsupportedEquationError("primitive part of the zero operator")
    g = P.gcd_all(c for c in op.coeffs if c)
    reduced = [c.exact_div(g) if c else c for c in op.coeffs]
    lead = reduced[-1]
    n, d = lead.nums[-1][1], lead.den
    if n != d:
        reduced = [Poly.from_integers(c.den * n, [(e, v * d) for e, v in c.nums]) for c in reduced]
        g = Poly.from_integers(g.den * d, [(e, v * n) for e, v in g.nums])
    return g, MahlerOperator(op.radix, reduced)

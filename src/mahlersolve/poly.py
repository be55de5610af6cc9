"""Exact univariate polynomials over Q, stored as sparse term lists.

A polynomial is a tuple of (exponent, coefficient) pairs with strictly
increasing exponents and nonzero Fraction coefficients; the zero
polynomial is the empty tuple.  All operations are exact.  Exponents are
capped at MAX_EXPONENT so that index arithmetic downstream stays inside
a machine-word-like range.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ExactDivisionError, ExponentOverflowError

MAX_EXPONENT = 2**63 - 1


def _check_exponent(e: int) -> int:
    if e > MAX_EXPONENT:
        raise ExponentOverflowError(f"exponent {e} exceeds {MAX_EXPONENT}")
    return e


def checked_power(base: int, exp: int) -> int:
    """base**exp with the same overflow guard as polynomial exponents."""
    result = base**exp
    _check_exponent(result)
    return result


class Poly:
    """Immutable sparse polynomial with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, Fraction]] = ()):
        acc: dict[int, Fraction] = {}
        for e, c in terms:
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            _check_exponent(e)
            c = acc.get(e, _ZERO) + Fraction(c)
            if c:
                acc[e] = c
            elif e in acc:
                del acc[e]
        object.__setattr__(self, "terms", tuple(sorted(acc.items())))

    # -- construction helpers ------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return _POLY_ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _POLY_ONE

    @classmethod
    def x(cls) -> "Poly":
        return _POLY_X

    @classmethod
    def monomial(cls, e: int, c=1) -> "Poly":
        return cls([(e, Fraction(c))])

    @classmethod
    def from_coeffs(cls, coeffs: Sequence) -> "Poly":
        """Dense constructor: coeffs[i] is the coefficient of x**i."""
        return cls((i, Fraction(c)) for i, c in enumerate(coeffs) if c)

    # -- basic queries --------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def degree(self) -> int:
        """Largest exponent; -1 for the zero polynomial."""
        return self.terms[-1][0] if self.terms else -1

    @property
    def valuation(self) -> int:
        """Smallest exponent; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no valuation")
        return self.terms[0][0]

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[-1][1]

    @property
    def trailing_coefficient(self) -> Fraction:
        if not self.terms:
            raise ValueError("zero polynomial has no trailing coefficient")
        return self.terms[0][1]

    def coefficient(self, e: int) -> Fraction:
        for exp, c in self.terms:
            if exp == e:
                return c
            if exp > e:
                break
        return _ZERO

    def is_constant(self) -> bool:
        return self.degree <= 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.terms)

    # -- arithmetic ------------------------------------------------------

    def __neg__(self) -> "Poly":
        return _raw((e, -c) for e, c in self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        acc = dict(self.terms)
        for e, c in other.terms:
            s = acc.get(e, _ZERO) + c
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        return _raw(sorted(acc.items()))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if not (self.terms and other.terms):
            return _POLY_ZERO
        _check_exponent(self.degree + other.degree)
        # the sums run on ints: each operand is scaled by the lcm of its
        # denominators, and only the nonzero result terms become Fractions
        den1, ints1 = _integer_terms(self.terms)
        den2, ints2 = _integer_terms(other.terms)
        acc: dict[int, int] = {}
        for e1, c1 in ints1:
            for e2, c2 in ints2:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        den = den1 * den2
        return _raw((e, Fraction(s, den)) for e, s in sorted(acc.items()) if s)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return _POLY_ZERO
        return _raw((e, c * v) for e, v in self.terms)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = _POLY_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def shift(self, e: int) -> "Poly":
        """Multiply by x**e."""
        if e == 0:
            return self
        if e > 0:
            if self.terms:
                _check_exponent(self.degree + e)
            return _raw((exp + e, c) for exp, c in self.terms)
        if self.terms and self.valuation + e < 0:
            raise ExactDivisionError(f"x**{-e} does not divide {self}")
        return _raw((exp + e, c) for exp, c in self.terms)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division; other must be nonzero."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        q: dict[int, Fraction] = {}
        rem = dict(self.terms)
        dd = other.degree
        lead = other.leading_coefficient
        while rem:
            e = max(rem)
            if e < dd:
                break
            c = rem[e] / lead
            q[e - dd] = c
            for oe, oc in other.terms:
                k = e - dd + oe
                s = rem.get(k, _ZERO) - c * oc
                if s:
                    rem[k] = s
                elif k in rem:
                    del rem[k]
        return _raw(sorted(q.items())), _raw(sorted(rem.items()))

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if r:
            raise ExactDivisionError(f"({self}) is not divisible by ({other})")
        return q

    def divides(self, other: "Poly") -> bool:
        """Whether self divides other (zero divides only zero)."""
        if not self:
            return not other
        return not other.divmod(self)[1]

    # -- normalizations ---------------------------------------------------

    def monic(self) -> "Poly":
        if not self.terms:
            return self
        lc = self.leading_coefficient
        if lc == 1:
            return self
        return _raw((e, c / lc) for e, c in self.terms)

    def content(self) -> Fraction:
        """Positive rational c with self/c integer, coprime coefficients."""
        if not self.terms:
            return _ZERO
        num = 0
        den = 1
        for _, c in self.terms:
            num = math.gcd(num, c.numerator)
            den = math.lcm(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "Poly":
        """self divided by its content (zero stays zero)."""
        if not self.terms:
            return self
        return self.scale(1 / self.content())

    # -- evaluation and substitution --------------------------------------

    def evaluate(self, point) -> Fraction:
        point = Fraction(point)
        result = _ZERO
        prev = 0
        acc = Fraction(1)
        for e, c in self.terms:
            acc *= point ** (e - prev)
            prev = e
            result += c * acc
        return result

    def substitute_power(self, m: int) -> "Poly":
        """Compose with x -> x**m (m >= 1)."""
        if m < 1:
            raise ValueError("substitution power must be >= 1")
        if self.terms:
            _check_exponent(self.degree * m)
        return _raw((e * m, c) for e, c in self.terms)

    def derivative(self) -> "Poly":
        return _raw((e - 1, e * c) for e, c in self.terms if e)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                body = str(c)
            else:
                mono = "x" if e == 1 else f"x^{e}"
                if c == 1:
                    body = mono
                elif c == -1:
                    body = f"-{mono}"
                else:
                    body = f"{c}*{mono}"
            if parts and not body.startswith("-"):
                parts.append("+")
            parts.append(body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({list(self.terms)!r})"


_ZERO = Fraction(0)


def _integer_terms(terms) -> tuple[int, list[tuple[int, int]]]:
    """(L, [(e, L c)]): L is the lcm of the coefficient denominators."""
    den = math.lcm(*(c.denominator for _, c in terms))
    return den, [(e, c.numerator * (den // c.denominator)) for e, c in terms]


def _raw(terms) -> Poly:
    """Build a Poly from already-normalized (sorted, nonzero) terms."""
    p = Poly.__new__(Poly)
    object.__setattr__(p, "terms", tuple(terms))
    return p


_POLY_ZERO = Poly()
_POLY_ONE = Poly([(0, Fraction(1))])
_POLY_X = Poly([(1, Fraction(1))])


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0."""
    a, b = a.monic(), b.monic()
    while b:
        a, b = b, a.divmod(b)[1].monic()
    return a


def gcd_all(polys: Iterable[Poly]) -> Poly:
    g = Poly.zero()
    for p in polys:
        g = gcd(g, p)
        if g == Poly.one():
            break
    return g


def lcm(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return Poly.zero()
    return (a * b).exact_div(gcd(a, b)).monic()


def mahler_substitute(p: Poly, radix: int, power: int = 1) -> Poly:
    """Substitute x**(radix**power) for x.

    Multiplies every exponent by radix**power; raises
    ExponentOverflowError when the result leaves the supported range.
    """
    if radix < 2:
        raise ValueError("radix must be >= 2")
    if power < 1:
        raise ValueError("power must be >= 1")
    return p.substitute_power(checked_power(radix, power))


def poly_sections(p: Poly, radix: int) -> list[Poly]:
    """Split p into its radix residue classes.

    Returns (f_0, ..., f_{radix-1}) with p(x) = sum of x**i * f_i(x**radix);
    section i collects the exponents congruent to i, shifted and divided.
    """
    if radix < 2:
        raise ValueError("radix must be >= 2")
    buckets: list[list[tuple[int, Fraction]]] = [[] for _ in range(radix)]
    for e, c in p.terms:
        i = e % radix
        buckets[i].append(((e - i) // radix, c))
    return [_raw(b) for b in buckets]


def _graeffe_step(p: Poly, radix: int) -> Poly:
    # Determinant of the multiplication-by-p(y) map on the free module
    # with basis 1, y, ..., y^(radix-1) over Q[x], modulo y^radix = x.
    sections = poly_sections(p, radix)
    x = Poly.x()
    mat = [[Poly.zero()] * radix for _ in range(radix)]
    for j in range(radix):
        for i, f in enumerate(sections):
            if not f:
                continue
            row = (i + j) % radix
            entry = f if i + j < radix else f * x
            mat[row][j] = mat[row][j] + entry
    return bareiss_determinant(mat)


def graeffe(p: Poly, radix: int, power: int = 1) -> Poly:
    """Root-powering transform: the roots of the result are the
    radix**power-th powers of the roots of p.  Equals the resultant of
    y**(radix**power) - x and p(y) with respect to y; not unit-normalized.
    """
    if radix < 2:
        raise ValueError("radix must be >= 2")
    if power < 1:
        raise ValueError("power must be >= 1")
    result = p
    for _ in range(power):
        result = _graeffe_step(result, radix)
    return result


def graeffe_monic(p: Poly, radix: int, power: int = 1) -> Poly:
    """Monic associate of graeffe()."""
    return graeffe(p, radix, power).monic()


def lcm_orbit(a: Poly, radix: int, order: int) -> Poly:
    """lcm of a, Ma, ..., M^(order-1) a, monic-normalized."""
    if not a:
        raise ValueError("lcm_orbit of the zero polynomial")
    if order < 1:
        raise ValueError("order must be >= 1")
    result = a.monic()
    img = a
    for _ in range(1, order):
        img = mahler_substitute(img, radix)
        result = lcm(result, img)
    return result


def bareiss_determinant(mat: list[list[Poly]]) -> Poly:
    """Fraction-free determinant of a square matrix of polynomials."""
    n = len(mat)
    if n == 0:
        return Poly.one()
    m = [row[:] for row in mat]
    sign = 1
    prev = Poly.one()
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Poly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = Poly.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det

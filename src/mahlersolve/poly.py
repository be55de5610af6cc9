"""Exact univariate polynomials over Q, stored as sparse integer term lists.

A polynomial is nums / den: `den` is a positive int and `nums` a tuple
of (exponent, int) pairs with strictly increasing exponents and nonzero
integers, in lowest terms (gcd(den, every num) = 1); the zero polynomial
has den 1 and no nums.  Every operation runs on these ints: sums over a
common denominator, products of numerators (a*p - b*q in one pass,
`mul_sub`), pseudo-division for Euclidean division and a primitive
remainder sequence for gcds.  No Fraction is built: `from_integers` is
the one constructor and text comes from the ints (`ratio_text`).
Exponents are capped at MAX_EXPONENT so that index arithmetic
downstream stays inside a machine-word-like range.

A Gräffe step Res_y(y^b - x, p(y)) takes b n^2 integer operations (n =
deg p, lead c): Newton's identities give the power sums s_1..s_(b n) of
the roots c*alpha of the monic integer q(y) = c^(n-1) p(y/c); from the
s_(b j) they rebuild R = sum r_i z^(n-i), roots (c*alpha)^b, exactly.
The step is (-1)^(n(b+1)) c^b R(c^b x) / c^(b n), over den^b.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable

from .errors import ExactDivisionError, ExponentOverflowError, InvalidArgumentError

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

    __slots__ = ("den", "nums")

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
        """c x^e for an int or Fraction c."""
        if not isinstance(c, numbers.Rational):
            raise InvalidArgumentError(f"coefficient {c!r} is not an int or a Fraction")
        return cls.from_integers(c.denominator, [(e, c.numerator)] if c else [])

    @classmethod
    def from_integers(cls, den: int, nums: Iterable[tuple[int, int]]) -> "Poly":
        """nums / den from a nonzero int den and (e, int) pairs with
        strictly increasing exponents and nonzero ints; common factors
        are divided out."""
        if not den:
            raise InvalidArgumentError("zero denominator")
        nums = tuple(nums)
        if nums:
            if nums[0][0] < 0:
                raise InvalidArgumentError(f"negative exponent {nums[0][0]}")
            _check_exponent(nums[-1][0])
        return _reduced(den, nums)

    # -- basic queries --------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.nums)

    @property
    def degree(self) -> int:
        """Largest exponent; -1 for the zero polynomial."""
        return self.nums[-1][0] if self.nums else -1

    @property
    def valuation(self) -> int:
        """Smallest exponent; raises on the zero polynomial."""
        if not self.nums:
            raise InvalidArgumentError("zero polynomial has no valuation")
        return self.nums[0][0]

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.den, self.nums))

    # -- arithmetic ------------------------------------------------------

    def __neg__(self) -> "Poly":
        return _raw(self.den, tuple((e, -c) for e, c in self.nums))

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _combine(self, other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _combine(self, other, -1)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if not (self.nums and other.nums):
            return _POLY_ZERO
        _check_exponent(self.degree + other.degree)
        if len(self.nums) == 1:
            self, other = other, self
        if len(other.nums) == 1:
            # a one-term operand c x^k: shift and scale, no dict and no sort
            ((k, c),) = other.nums
            if c == other.den:
                return self.shift(k)
            return _reduced(self.den * other.den, [(e + k, v * c) for e, v in self.nums])
        acc: dict[int, int] = {}
        _accumulate(acc, self.nums, other.nums, 1)
        return _reduced(self.den * other.den, [(e, s) for e, s in sorted(acc.items()) if s])

    def shift(self, e: int) -> "Poly":
        """Multiply by x**e."""
        if e == 0 or not self.nums:
            return self
        if e > 0:
            _check_exponent(self.degree + e)
        elif self.valuation + e < 0:
            raise ExactDivisionError(f"x**{-e} does not divide {self}")
        return _raw(self.den, tuple((exp + e, c) for exp, c in self.nums))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division; other must be nonzero.

        Pseudo-division on the numerators, m A = Q B + R, followed by one
        rescaling: self = (Q other.den / (m self.den)) other + R / (m self.den).
        """
        if not other:
            raise InvalidArgumentError("polynomial division by zero")
        m, q, r = _pseudo_divmod(self.nums, other.nums)
        den = m * self.den
        quotient = _reduced(den, [(e, c * other.den) for e, c in q])
        return quotient, _reduced(den, r)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if r:
            raise ExactDivisionError(f"({self}) is not divisible by ({other})")
        return q

    # -- normalizations ---------------------------------------------------

    def monic(self) -> "Poly":
        nums = self.nums
        if not nums or nums[-1][1] == self.den:
            return self
        return _monic(nums)

    # -- substitution -------------------------------------------------------

    def substitute_power(self, m: int) -> "Poly":
        """Compose with x -> x**m (m >= 1)."""
        if m < 1:
            raise InvalidArgumentError("substitution power must be >= 1")
        if not self.nums:
            return self
        _check_exponent(self.degree * m)
        return _raw(self.den, tuple((e * m, c) for e, c in self.nums))

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        den = self.den
        return format_terms((e, ratio_text(c, den)) for e, c in self.nums)

    def __repr__(self) -> str:
        return f"Poly.from_integers({self.den!r}, {list(self.nums)!r})"


def ratio_text(num: int, den: int) -> str:
    """num / den (den positive) in lowest terms as text: "n" or "n/d"."""
    if den == 1:
        return str(num)
    g = math.gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def format_terms(terms: Iterable[tuple]) -> str:
    """The terms c x^e as text, "0" for none.  Each e and c is an int or
    a string "n" or "n/d" in lowest terms, such as "-1/2"; a negative or
    fractional exponent is written in parentheses."""
    parts = []
    for e, c in terms:
        e, c = str(e), str(c)
        if e == "0":
            body = c
        else:
            mono = "x" if e == "1" else f"x^{e}" if e.isdigit() else f"x^({e})"
            body = {"1": mono, "-1": f"-{mono}"}.get(c, f"{c}*{mono}")
        if parts and not body.startswith("-"):
            parts.append("+")
        parts.append(body)
    return " ".join(parts) or "0"


def _raw(den: int, nums: tuple) -> Poly:
    """Build a Poly from a canonical integer form."""
    p = Poly.__new__(Poly)
    p.den = den
    p.nums = nums
    return p


def lowest_terms(den: int, nums) -> tuple[int, tuple]:
    """(den, nums) divided by the gcd of den and every numerator, the
    sign carried by the numerators: the canonical integer form of the
    numbers v / den (den nonzero) for the (key, v) pairs in nums, any
    iterable."""
    nums = tuple(nums)
    if den != 1:
        g = math.gcd(den, *(c for _, c in nums))
        if den < 0:
            g = -g
        if g != 1:
            return den // g, tuple((e, c // g) for e, c in nums)
    return den, nums


def _reduced(den: int, nums) -> Poly:
    """Poly nums / den (den nonzero, nums sorted and nonzero) in lowest terms."""
    return _raw(*lowest_terms(den, nums))


def _combine(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign * b."""
    if not b.nums:
        return a
    if not a.nums:
        return b if sign == 1 else -b
    da, db = a.den, b.den
    g = math.gcd(da, db)
    fa, fb = db // g, sign * (da // g)
    acc = {e: c * fa for e, c in a.nums} if fa != 1 else dict(a.nums)
    for e, c in b.nums:
        acc[e] = acc.get(e, 0) + c * fb
    return _reduced(da * (db // g), [(e, s) for e, s in sorted(acc.items()) if s])


def _accumulate(acc: dict, a, b, f: int) -> None:
    """Add f times the product of the integer term lists a and b into acc,
    exponent by exponent: the schoolbook loop of every product."""
    for e1, c1 in a:
        c1 *= f
        for e2, c2 in b:
            e = e1 + e2
            acc[e] = acc.get(e, 0) + c1 * c2


def mul_sub(a: Poly, p: Poly, b: Poly, q: Poly) -> Poly:
    """a*p - b*q, both products accumulated into one dict over the lcm of
    their denominators and reduced once."""
    dp, dq = a.den * p.den, b.den * q.den
    if a.nums and p.nums:
        _check_exponent(a.degree + p.degree)
    if b.nums and q.nums:
        _check_exponent(b.degree + q.degree)
    g = math.gcd(dp, dq)
    acc: dict[int, int] = {}
    _accumulate(acc, a.nums, p.nums, dq // g)
    _accumulate(acc, b.nums, q.nums, -(dp // g))
    return _reduced(dp * (dq // g), [(e, s) for e, s in sorted(acc.items()) if s])


def _primitive(nums) -> tuple:
    """nums divided by the gcd of its entries (nonempty)."""
    g = math.gcd(*(c for _, c in nums))
    if g == 1:
        return tuple(nums)
    return tuple((e, c // g) for e, c in nums)


def _monic(nums) -> Poly:
    """The monic polynomial with these numerators (nonempty)."""
    lead = nums[-1][1]
    g = math.gcd(*(c for _, c in nums))
    if lead < 0:
        g = -g
    return _raw(lead // g, tuple((e, c // g) for e, c in nums))


def _pseudo_divmod(a, b) -> tuple[int, list, list]:
    """(m, q, r) with m a = q b + r, m a positive int and deg r < deg b.

    a and b are integer term lists, b nonzero.  A leading term c of the
    remainder costs the factor |lead b| / gcd(c, lead b), which is 1
    whenever lead b divides c; q and r come back sorted.
    """
    db, lead = b[-1]
    body = b[:-1]
    rem = dict(a)
    q: dict[int, int] = {}
    m = 1
    while rem:
        e = max(rem)
        if e < db:
            break
        c = rem.pop(e)
        g = math.gcd(c, lead)
        f = abs(lead) // g
        if f != 1:
            m *= f
            for k in rem:
                rem[k] *= f
            for k in q:
                q[k] *= f
        t = c // g if lead > 0 else -c // g
        s = e - db
        q[s] = t
        for be, bc in body:
            k = s + be
            v = rem.get(k, 0) - t * bc
            if v:
                rem[k] = v
            elif k in rem:
                del rem[k]
    return m, sorted(q.items()), sorted(rem.items())


_POLY_ZERO = _raw(1, ())
_POLY_ONE = _raw(1, ((0, 1),))
_POLY_X = _raw(1, ((1, 1),))


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0.

    A primitive remainder sequence on the numerators, made monic at the
    end.
    """
    if not b.nums:
        return a.monic()
    x, y = _primitive(a.nums), _primitive(b.nums)
    while y:
        x, y = y, _pseudo_divmod(x, y)[2]
        if y:
            y = _primitive(y)
    return _monic(x)


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
        raise InvalidArgumentError("radix must be >= 2")
    if power < 1:
        raise InvalidArgumentError("power must be >= 1")
    return p.substitute_power(checked_power(radix, power))


def residue_sections(p: Poly, radix: int) -> dict[int, Poly]:
    """The nonzero radix sections of p, {i: f_i} for the residues i that
    occur, so that p(x) = sum of x**i * f_i(x**radix); radix 1 gives
    {0: p}.  The cost does not grow with the radix."""
    if radix < 1:
        raise InvalidArgumentError("radix must be >= 1")
    buckets: dict[int, list[tuple[int, int]]] = {}
    for e, c in p.nums:
        i = e % radix
        buckets.setdefault(i, []).append(((e - i) // radix, c))
    return {i: _reduced(p.den, b) for i, b in buckets.items()}


def poly_sections(p: Poly, radix: int) -> list[Poly]:
    """The radix sections (f_0, ..., f_{radix-1}) of p, zeros included."""
    if radix < 2:
        raise InvalidArgumentError("radix must be >= 2")
    found = residue_sections(p, radix)
    return [found.get(i, _POLY_ZERO) for i in range(radix)]


def graeffe(p: Poly, radix: int, power: int = 1) -> Poly:
    """Root-powering transform: the roots of the result are the
    radix**power-th powers of the roots of p.  Equals the resultant of
    y**(radix**power) - x and p(y) with respect to y; not unit-normalized.
    """
    if radix < 2:
        raise InvalidArgumentError("radix must be >= 2")
    if power < 1:
        raise InvalidArgumentError("power must be >= 1")
    for _ in range(power):
        p = _root_power(p, radix)
    return p


def _root_power(p: Poly, b: int) -> Poly:
    """One radix-b step of `graeffe`, by power sums (module docstring)."""
    if not p.nums:
        return p
    n, c = p.nums[-1]
    a = dict(p.nums)
    e = [a.get(n - i, 0) * c ** (i - 1) for i in range(1, n + 1)]  # e[i - 1] = e_i
    s = [n]
    for m in range(1, b * n + 1):
        acc = m * e[m - 1] if m <= n else 0
        s.append(-acc - sum(e[i - 1] * s[m - i] for i in range(1, min(m, n + 1))))
    r = [1]
    for m in range(1, n + 1):
        r.append(-sum(r[i] * s[b * (m - i)] for i in range(m)) // m)
    sign, cb = (-1) ** (n * (b + 1)), c**b
    nums = [(n - i, sign * r[i] * cb // cb**i) for i in range(n + 1) if r[i]]
    return Poly.from_integers(p.den**b, nums[::-1])


def lcm_orbit(a: Poly, radix: int, order: int) -> Poly:
    """lcm of a, Ma, ..., M^(order-1) a, monic-normalized.  It recurses
    on L_k = lcm(a, M L_(k-1)), since M maps lcms to lcms (gcd(M p, M q)
    = M gcd(p, q)), so every gcd has the operand a of degree deg a."""
    if not a:
        raise InvalidArgumentError("lcm_orbit of the zero polynomial")
    if order < 1:
        raise InvalidArgumentError("order must be >= 1")
    result = a.monic()
    for _ in range(1, order):
        result = lcm(a, mahler_substitute(result, radix))
    return result

"""Forward substitution along the recurrence of an operator: the window
solve for approximate series and polynomial solutions, and term-by-term
prolongation of series solutions.

Extracting the coefficient of x^m from (phi(L)) y = 0 gives one linear
relation between series coefficients, row m of the recurrence: it reads
c y_n for every term c x^j M^k of phi(L) with j + b^k n = m.  In the
lower orientation position n is determined by row min_k(v(l_k) + b^k n),
which reads no later position; in the upper one by row
max_k(deg l_k + b^k n), which reads no earlier one.  The upper
orientation is the lower one in negated exponents and positions.

Two kernels solve the rows in order.  The push kernel `_push` pushes
each nonzero coefficient forward into the rows it appears in, so it
costs about (nonzero coefficients) x (operator terms), however wide the
window or long the truncation; the window solve and most prolongations
use it.  The walk kernel `_walk` keeps the coefficients and the pending
row sums in lists: each row pulls the terms of l_0 above its trailing
term, and the terms of M^k, k >= 1, are added in blocks, one plain loop
over the block's rows per term.  A term with coefficient +-1 adds or
subtracts without a multiplication, in the tail and in the blocks.  It
costs rows x (tail terms of l_0 + 1) list reads, whether the
coefficients are zero or not.  Prolongation walks exactly when the
diagonal d of the transformed operator is +-1 and the smallest offset
o_min of l_0's tail above its trailing term is at most `_NEAR_TAIL`:
each nonzero y_n then adds a term to row n + o_min, so unless terms
cancel, at least one row in every o_min solves to a nonzero value, and
the walk spends at most _NEAR_TAIL x (tail terms + 1) list reads per
nonzero coefficient, where one push step costs about 3-5.  Both kernels
run on ints: every coefficient is an integer numerator over the input's
denominator times a power of the diagonal.  Coefficient vectors come in
and go out in one form, (den, pairs): the nonzero (n, den y_n) ints over
a positive den, n increasing.  Both kernels return (scale, pairs): the
support and the solved coefficients over den x scale, the support alone
when no row is left; the push's (n, num, lev) triples never leave it.

A `Recurrence` holds phi(op), floor(nu), floor(mu) and the head length
as ints, and `integer_terms` when nu >= 0.  Only the three entry points
build one, and they set every window and prolongation size:
`series_solutions` solves the lower window and prolongs every head,
`polynomial_solutions` solves the upper window, and `extend_prefix`
checks a caller's prefix and prolongs its head, for `rational`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations
from typing import Callable, Optional, Sequence

from .errors import (
    ExponentOverflowError,
    InconsistentPrefixError,
    InsufficientPrefixError,
    InternalInvariantError,
    InvalidArgumentError,
)
from .linalg import rref
from .newton import nu_ratio
from .operator import (
    IDENTITY_PHI,
    MahlerOperator,
    PhiTransform,
    add_scaled,
    image_below,
    integer_terms,
    phi_apply,
)
from .poly import MAX_EXPONENT, lowest_terms

Term = tuple[int, int, int]  # (b^k, j, c): the term c x^j M^k

# Largest o_min for which prolongation walks.  On M - u in radix 2 with
# u = 1 + x^o + x^2o - x^3o, whose series solution has one nonzero
# coefficient in every o, 500 rows took the walk 0.93 times the push's
# time at o = 4 and 1.2-1.8 times at o = 5 to 8 (CPython 3.11, x86-64).
_NEAR_TAIL = 4


def _push(
    terms: Sequence[Term],
    support: Sequence[tuple[int, int]],
    d: int,
    start: int,
    last: int,
    shift: int = 0,
    position: Optional[Callable[[int], Optional[tuple[int, int]]]] = None,
) -> tuple[int, list[tuple[int, int]]]:
    """Forward substitution from the nonzero coefficients in `support`.

    `support` holds (n, num) pairs, num standing for D y_n with D a
    common denominator, whose rows up to `start` hold.  Each nonzero y_n
    adds c y_n to the pending sum of row j + b^k n for every term
    (b^k, j, c), and the pending rows up to `last` are solved in
    increasing order.  Row m determines y_{m - shift} through the
    diagonal d, as every row beyond the Newton corner does, unless
    `position` is given: then position(m) is None when row m determines
    no coefficient, else (n, d / diagonal of row m).  The sums run on
    ints: a coefficient or pending sum is a pair (num, lev) standing for
    num / (D d^lev).  Returns (s, pairs): the support and the new nonzero
    coefficients as (n, s D y_n) over the common scale s = d^(largest
    lev), in increasing order of n.
    """
    # the terms of each power of M by increasing j: a group ends at the
    # first row beyond `last`
    groups: dict[int, list[tuple[int, int]]] = {}
    for bk, j, c in terms:
        groups.setdefault(bk, []).append((j, c))
    by_power = [(bk, sorted(group)) for bk, group in groups.items()]
    pending: dict[int, list[int]] = {}  # row -> [num, lev] of its known terms
    rows: list[int] = []  # heap of the pending rows
    found = []

    def push(n: int, num: int, lev: int, settled: int) -> None:
        # every term of y_n lands at or above the row that determined it
        for bk, group in by_power:
            base = bk * n
            for j, c in group:
                m = j + base
                if m > last:
                    break
                if m <= settled:
                    continue
                row = pending.get(m)
                if row is None:
                    pending[m] = [c * num, lev]
                    heappush(rows, m)
                elif row[1] == lev:
                    row[0] += c * num
                elif row[1] > lev:
                    row[0] += c * num * d ** (row[1] - lev)
                else:
                    row[0] = row[0] * d ** (lev - row[1]) + c * num
                    row[1] = lev

    for n, num in support:
        push(n, num, 0, start)
    while rows:
        m = heappop(rows)
        num, lev = pending.pop(m)
        if not num:
            continue
        if position is None:
            n = m - shift
        else:
            solved = position(m)
            if not solved:
                continue
            n, f = solved
            num *= f
        num, lev = -num, lev + 1
        while lev and num % d == 0:
            num //= d
            lev -= 1
        found.append((n, num, lev))
        push(n, num, lev, m)
    top = max((lev for _, _, lev in found), default=0)
    scale = d**top
    pairs = [(n, num * scale) for n, num in support]
    pairs += [(n, num * d ** (top - lev)) for n, num, lev in found]
    pairs.sort()
    return scale, pairs


def _walk(
    terms: Sequence[Term],
    support: Sequence[tuple[int, int]],
    d: int,
    start: int,
    last: int,
    shift: int,
) -> tuple[int, list[tuple[int, int]]]:
    """`_push` for prolongation with a unit diagonal d = +-1, on lists.

    Rows start+1..last determine y_{start+1-shift}..y_{last-shift}, row
    m the coefficient y_{m - shift}, and every coefficient is an int
    over the head's denominator D.  Row n + shift pulls c y_{n - o} for
    each term (1, shift + o, c) of l_0's tail.  The terms of M^k, k >= 1,
    are added in blocks: once y_0..y_{N-1} are known, one `add_scaled`
    loop per term adds c y_i to row j + b^k i for every known i not
    added yet, and every row below the least j + b^k N then has all its
    terms.  The gap j - shift + (b^k - 1) N is positive, as `_prolong`
    checks, so each block solves at least one row.  Tail terms with
    c = 1 and c = -1 add and subtract y_{n - o} without a multiplication.
    Returns (1, pairs) for the support and the new coefficients, as
    `_push` does.
    """
    first, end = start + 1 - shift, last - shift
    tail = [(j - shift, c) for bk, j, c in terms if bk == 1 and j - shift <= end]
    # y_n sits at index n, followed by zeros that y[n - o] reads for n < o
    size = end + 1 + max((o for o, _ in tail), default=0)
    if size > MAX_EXPONENT:
        raise ExponentOverflowError(f"padded truncation order {size} exceeds {MAX_EXPONENT}")
    plus = [o for o, c in tail if c == 1]
    minus = [o for o, c in tail if c == -1]
    other = [(o, c) for o, c in tail if c not in (1, -1)]
    y = [0] * size
    for n, num in support:
        y[n] = num
    pending = [0] * (end + 1)  # the M^k terms already added to row n + shift
    # [b^k, j - shift, c, first i whose term is not added yet]: at first
    # the least i whose row j + b^k i lies above `start`
    blocks = [
        [bk, j - shift, c, max(0, (start - j) // bk + 1)] for bk, j, c in terms if bk > 1
    ]
    neg = -d
    n = first
    while n <= end:
        stop = end + 1
        for block in blocks:
            bk, o, c, i = block
            if i < n:
                hi = min(n, (end - o) // bk + 1)
                add_scaled(pending, zip(range(o + bk * i, o + bk * hi, bk), y[i:hi]), c)
                block[3] = i = n
            stop = min(stop, o + bk * i)
        if stop <= n:
            raise InternalInvariantError("prolongation block solved no row")
        for m in range(n, stop):
            s = pending[m]
            for o in plus:
                s += y[m - o]
            for o in minus:
                s -= y[m - o]
            for o, c in other:
                s += c * y[m - o]
            y[m] = neg * s
        n = stop
    return 1, [(n, v) for n, v in enumerate(y[: end + 1]) if v]


def _lines(terms: Sequence[Term]) -> list[Term]:
    """The term of least exponent of each power of M: the row of
    position n is the least value j + b^k n of these lines."""
    ends: dict[int, Term] = {}
    for bk, j, c in terms:
        if bk not in ends or j < ends[bk][1]:
            ends[bk] = (bk, j, c)
    return list(ends.values())


def _diagonal(lines: Sequence[Term], n: int) -> tuple[int, int]:
    """(row, diagonal) of position n: the diagonal sums the coefficients
    of the lines that attain the row."""
    row = min(j + bk * n for bk, j, _ in lines)
    return row, sum(c for bk, j, c in lines if j + bk * n == row)


def _ties(lines: Sequence[Term], lo: int, hi: int) -> dict[int, int]:
    """Diagonal of each position in lo..hi where two lines meet.  At any
    other position one line attains the row, and the diagonal is its
    nonzero coefficient."""
    ties = {}
    for (b1, j1, _), (b2, j2, _) in combinations(lines, 2):
        n, rem = divmod(j1 - j2, b2 - b1)
        if not rem and lo <= n <= hi:
            ties[n] = _diagonal(lines, n)[1]
    return ties


class Recurrence:
    """The recurrence of phi(op), built once per (op, phi): the transformed
    operator `op`, the ints `nu_floor` and `mu_floor`, floor(nu) and
    floor(mu) of its lower Newton polygon, `head` = max(floor(nu) + 1,
    0), the number of coefficients that fix a series solution, and the
    `integer_terms` of phi(op), None when nu < 0 and nothing solves.
    phi(op) needs order >= 1 and a nonzero trailing coefficient.
    """

    __slots__ = ("op", "nu_floor", "mu_floor", "head", "integer_terms")

    def __init__(self, op: MahlerOperator, phi: PhiTransform):
        self.op = op = phi_apply(op, phi)
        p, q = nu_ratio(op)
        self.nu_floor = p // q
        # mu = v(l_0) + nu with v(l_0) an int
        self.mu_floor = op.coeffs[0].valuation + self.nu_floor
        self.head = max(self.nu_floor + 1, 0)
        self.integer_terms = integer_terms(op) if self.nu_floor >= 0 else None


def _window(rec: Recurrence, h: int, width: int, sign: int) -> tuple:
    """Basis of {y of degree < width : phi(op) y = 0 mod x^h}, read in the
    lower orientation for sign 1 and in the upper one for sign -1.

    Each basis vector is (den, pairs), in lowest terms; the basis is
    reduced echelon with pivots at the lowest nonzero coefficient, pivot
    coefficients 1, ordered by pivot.  Every position whose row has a
    zero diagonal gets a unit seed, and forward substitution from it
    gives one candidate; the candidates are then recombined so that all
    rows below x^h hold, not only the rows that determine a position.
    With nu < 0, which no entry point solves, the terms are built here.
    """
    op_terms = rec.integer_terms or integer_terms(rec.op)
    terms = [(bk, sign * j, c) for bk, j, c in op_terms[1]]
    lines = _lines(terms)
    lo, hi = (0, width - 1) if sign == 1 else (1 - width, 0)

    ties = _ties(lines, lo, hi)
    seeds = sorted(n for n, g in ties.items() if not g)
    if len(seeds) > rec.op.order:
        raise InternalInvariantError(
            f"{len(seeds)} zero diagonal entries exceed the order {rec.op.order}"
        )
    d = math.lcm(*(abs(g) for g in ties.values() if g), *(abs(c) for _, _, c in lines))

    def position(m: int) -> Optional[tuple[int, int]]:
        n = max(-((j - m) // bk) for bk, j, _ in lines)
        row, g = _diagonal(lines, n)
        return (n, d // g) if row == m and g else None

    last = _diagonal(lines, hi)[0]
    candidates = []
    for s in seeds:
        start = _diagonal(lines, s)[0]
        # a candidate scaled by a constant spans the same line
        _, pairs = _push(terms, [(s, 1)], d, start, last, position=position)
        candidates.append({sign * n: v for n, v in pairs})

    # One row [residual below x^h | candidate] per candidate; the reduced
    # rows with their pivot in the candidate half span the combinations
    # whose residual vanishes, in reduced echelon form.
    residuals = [image_below(op_terms, sorted(vec.items()), h)[1] for vec in candidates]
    nonzero_rows = sorted(set().union(*residuals))
    support = sorted(set().union(*candidates))
    rows = [
        [res.get(m, 0) for m in nonzero_rows] + [vec.get(n, 0) for n in support]
        for res, vec in zip(residuals, candidates)
    ]
    den, reduced, pivots = rref(rows)
    k = len(nonzero_rows)
    return tuple(
        lowest_terms(den, [(n, v) for n, v in zip(support, row[k:]) if v])
        for row, p in zip(reduced, pivots)
        if p >= k
    )


def _prolong(rec: Recurrence, den: int, support: Sequence, extra: int) -> tuple:
    """A head, the nonzero (n, int) pairs `support` over den, that holds
    the rows up to floor(mu), extended by `extra` coefficients, as
    (den, pairs) in lowest terms: row m > floor(mu) gives y_{m - v(l_0)}."""
    # Scaled by L, row m reads d y_{m - v(l_0)} + (sum of c y_n over the
    # other terms) = 0; the trailing term d x^v(l_0) of l_0 comes first.
    (_, tv0, d), *terms = rec.integer_terms[1]
    mu_floor = rec.mu_floor

    top = mu_floor + extra
    # Row j + b^k n reads y_n through the term c x^j M^k and determines
    # y_{j + b^k n - v(l_0)}; the gap j - v(l_0) + (b^k - 1) n between the
    # two only grows with n, so the term's first row above floor(mu)
    # stands for every later row.
    for bk, j, c in terms:
        n = max(0, (mu_floor - j) // bk + 1)
        if j + bk * n <= top and j - tv0 + (bk - 1) * n <= 0:
            raise InternalInvariantError(
                "prolongation row touched an undetermined coefficient"
            )

    # terms are sorted by b^k, then j: the first one left is l_0's tail
    # term of least offset, if l_0 has a tail
    bk, j, _ = terms[0]
    kernel = _walk if abs(d) == 1 and bk == 1 and j - tv0 <= _NEAR_TAIL else _push
    scale, pairs = kernel(terms, support, d, mu_floor, top, tv0)
    return lowest_terms(den * scale, pairs)


def series_solutions(op: MahlerOperator, phi: PhiTransform, top: int) -> tuple[int, tuple]:
    """(t, vectors): a basis of the power-series solutions of phi(op),
    whose trailing coefficient is nonzero, each as (den, pairs) for its
    coefficients 0..t-1, t - 1 = max(top, floor(nu)), in lowest terms.
    One `Recurrence` gives the window, which fixes the coefficients up
    to floor(nu), and the prolongation of every head.  A t beyond
    MAX_EXPONENT raises ExponentOverflowError, and so does a walk whose
    zeros for l_0's tail take its list past MAX_EXPONENT entries."""
    if op.order < 1:
        return 0, ()
    rec = Recurrence(op, phi)
    if rec.nu_floor < 0:
        return 0, ()
    t = max(top + 1, rec.head)
    if t > MAX_EXPONENT:
        raise ExponentOverflowError(f"truncation order {t} exceeds {MAX_EXPONENT}")
    heads = _window(rec, rec.mu_floor + 1, rec.head, 1)
    return t, tuple(_prolong(rec, *head, t - rec.head) for head in heads)


def polynomial_solutions(op: MahlerOperator, w: int) -> tuple:
    """A basis of the polynomial solutions of op of degree < w, each as
    (den, pairs) in lowest terms: the upper window of height
    h = deg op + (w - 1) b^r + 1 holds the image of any such polynomial.
    Of order 0, or with nu < 0, only the zero polynomial solves."""
    if op.order < 1:
        return ()
    rec = Recurrence(op, IDENTITY_PHI)
    if rec.nu_floor < 0:
        return ()
    return _window(rec, op.degree + (w - 1) * op.radix**op.order + 1, w, -1)


def extend_prefix(
    op: MahlerOperator, prefix: Sequence[int | Fraction], length: int
) -> tuple[int, list[int]]:
    """The series solution of op that starts with the int or Fraction
    prefix, to max(length, len(prefix)) coefficients, as (den, nums): int
    numerators over one positive den, in lowest terms.  Its head, the
    first `head` = max(floor(nu) + 1, 0) coefficients, fixes it (of order
    0, only the zero series solves).  Raises, in this order,
    InvalidArgumentError for another entry, InsufficientPrefixError for
    fewer than max(head, 1) entries, ExponentOverflowError past
    MAX_EXPONENT coefficients, and InconsistentPrefixError for a head that
    breaks a relation row, named, or a rest that differs from the head's
    prolongation; a walk whose zeros for l_0's tail take its list past
    MAX_EXPONENT entries raises ExponentOverflowError before the rest is
    compared."""
    for c in prefix:
        if type(c) is not int and not isinstance(c, Fraction):
            raise InvalidArgumentError(f"prefix entries must be int or Fraction, got {c!r}")
    target = max(length, len(prefix))
    head = 0
    if op.order >= 1:
        rec = Recurrence(op, IDENTITY_PHI)
        head = rec.head
        if len(prefix) < max(head, 1):
            raise InsufficientPrefixError(
                f"need at least {max(head, 1)} coefficients, got {len(prefix)}"
            )
    if target > MAX_EXPONENT:
        raise ExponentOverflowError(f"truncation order {target} exceeds {MAX_EXPONENT}")
    den = math.lcm(*(c.denominator for c in prefix[:head]))
    pairs = [(n, c.numerator * den // c.denominator) for n, c in enumerate(prefix[:head]) if c]
    # the zero head extends to zero; it is the only head when nu < 0,
    # where the kernels' first position floor(nu) + 1 may be negative
    if pairs:
        _, residual = image_below(rec.integer_terms, pairs, rec.mu_floor + 1)
        if residual:
            raise InconsistentPrefixError(
                f"prefix violates the relation for the coefficient of x^{min(residual)}"
            )
        den, pairs = _prolong(rec, den, pairs, target - head)
    nums = [0] * target
    for n, v in pairs:
        nums[n] = v
    if any(c.numerator * den != v * c.denominator for c, v in zip(prefix, nums)):
        raise InconsistentPrefixError("prefix extends to no series solution")
    return den, nums

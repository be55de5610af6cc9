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
term, and the terms of M^k, k >= 1, are added in blocks of extended-slice
updates.  It costs rows x (tail terms of l_0 + 1) list reads, whether
the coefficients are zero or not.  `prolong` walks exactly when the
diagonal d of the transformed operator is +-1 and the smallest offset
o_min of l_0's tail above its trailing term is at most `_NEAR_TAIL`:
each nonzero y_n then adds a term to row n + o_min, so unless terms
cancel, at least one row in every o_min solves to a nonzero value, and
the walk spends at most _NEAR_TAIL x (tail terms + 1) list reads per
nonzero coefficient, where one push step costs about 3-5.  Both kernels
run on ints: every coefficient is an integer numerator over the input's
denominator times a power of the diagonal.  Coefficient vectors come in
and go out in one form, (den, pairs): the nonzero (n, den y_n) ints over
a positive den, n increasing.

The recurrence data, phi(op) with its `integer_terms`, nu and mu, is
computed by `series_solutions` once for the window and every head, and
by `solve_prescribed` and `prolong` each for itself; no call keeps it.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import combinations
from operator import add
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    ExponentOverflowError,
    IncompatiblePrefixError,
    InternalInvariantError,
    InvalidArgumentError,
    UnsupportedEquationError,
)
from .linalg import rref
from .newton import mu_nu
from .operator import MahlerOperator, PhiTransform, image_below, integer_terms, phi_apply
from .poly import MAX_EXPONENT, lowest_terms

Term = tuple[int, int, int]  # (b^k, j, c): the term c x^j M^k

# Largest o_min for which `prolong` walks.  On M - u with u = 1 + x^o
# + ..., whose series solution has one nonzero coefficient in every o,
# 500 rows took the walk 0.9-1.0 times the push's time at o = 4 and
# 1.0-1.4 times at o = 5 to 6 (CPython 3.11, x86-64).
_NEAR_TAIL = 4


def _push(
    terms: Sequence[Term],
    support: Sequence[tuple[int, int]],
    d: int,
    start: int,
    last: int,
    shift: int = 0,
    position: Optional[Callable[[int], Optional[tuple[int, int]]]] = None,
) -> list[tuple[int, int, int]]:
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
    num / (D d^lev).  Returns the new nonzero coefficients as
    (n, num, lev) triples in the order of their rows.
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
    return found


def _walk(
    terms: Sequence[Term],
    support: Sequence[tuple[int, int]],
    d: int,
    start: int,
    last: int,
    shift: int,
) -> list[tuple[int, int, int]]:
    """`_push` for prolongation with a unit diagonal d = +-1, on lists.

    Rows start+1..last determine y_{start+1-shift}..y_{last-shift}, row
    m the coefficient y_{m - shift}, and every coefficient is an int
    over the head's denominator D.  Row n + shift pulls c y_{n - o} for
    each term (1, shift + o, c) of l_0's tail.  The terms of M^k, k >= 1,
    are added in blocks: once y_0..y_{N-1} are known, one extended-slice
    update per term adds c y_i to row j + b^k i for every known i not
    added yet, and every row below the least j + b^k N then has all its
    terms.  The gap j - shift + (b^k - 1) N is positive, as `prolong`
    checks, so each block solves at least one row.  Returns the nonzero
    coefficients as (n, num, 0) triples in the order of their rows, as
    `_push` does.
    """
    first, end = start + 1 - shift, last - shift
    tail = [(j - shift, c) for bk, j, c in terms if bk == 1 and j - shift <= end]
    # y_n sits at index n, followed by zeros that y[n - o] reads for n < o
    y = [0] * (end + 1 + max((o for o, _ in tail), default=0))
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
                if i < hi:
                    rows = slice(o + bk * i, o + bk * hi, bk)
                    pending[rows] = map(add, pending[rows], map(c.__mul__, y[i:hi]))
                block[3] = i = n
            stop = min(stop, o + bk * i)
        if stop <= n:
            raise InternalInvariantError("prolongation block solved no row")
        for m in range(n, stop):
            s = pending[m]
            for o, c in tail:
                s += c * y[m - o]
            y[m] = neg * s
        n = stop
    return [(n, y[n], 0) for n in range(first, end + 1) if y[n]]


def _over_common(
    support: Sequence[tuple[int, int]], found: Sequence[tuple[int, int, int]], d: int
) -> tuple[int, list[tuple[int, int]]]:
    """(s, pairs): the support and the (n, num, lev) triples of `_push`,
    merged over the common scale d^maxlev = s, in increasing order of n."""
    top = max((lev for _, _, lev in found), default=0)
    scale = d**top
    pairs = [(n, num * scale) for n, num in support]
    pairs += [(n, num * d ** (top - lev)) for n, num, lev in found]
    pairs.sort()
    return scale, pairs


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


def solve_prescribed(
    op: MahlerOperator,
    phi: PhiTransform,
    h: int,
    width: int,
    orientation: str,
) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """Basis of {y of degree < width : phi(op) y = 0 mod x^h}.

    Each basis vector is (den, pairs), in lowest terms; the basis is
    reduced echelon with pivots at the lowest nonzero coefficient, pivot
    coefficients 1, ordered by pivot.  Every position whose row has a
    zero diagonal gets a unit seed, and forward substitution from it
    gives one candidate; the candidates are then recombined so that all
    rows below x^h hold, not only the rows that determine a position.
    """
    if orientation not in ("lower", "upper"):
        raise InvalidArgumentError("orientation must be 'lower' or 'upper'")
    if not op:
        raise UnsupportedEquationError("zero operator")
    transformed = phi_apply(op, phi)
    sign = 1 if orientation == "lower" else -1
    return _window(transformed.order, integer_terms(transformed), h, width, sign)


def _window(order: int, op_terms: tuple, h: int, width: int, sign: int) -> tuple:
    """`solve_prescribed` for an operator of this order with these `integer_terms`."""
    terms = [(bk, sign * j, c) for bk, j, c in op_terms[1]]
    lines = _lines(terms)
    lo, hi = (0, width - 1) if sign == 1 else (1 - width, 0)

    ties = _ties(lines, lo, hi)
    seeds = sorted(n for n, g in ties.items() if not g)
    if len(seeds) > order:
        raise InternalInvariantError(
            f"{len(seeds)} zero diagonal entries exceed the order {order}"
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
        found = _push(terms, [(s, 1)], d, start, last, position=position)
        # a candidate scaled by a constant spans the same line
        _, pairs = _over_common([(s, 1)], found, d)
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


def prolong(
    op: MahlerOperator,
    phi: PhiTransform,
    approx: tuple[int, Iterable[tuple[int, int]]],
    extra: int,
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Extend an approximate series solution of phi(op) by `extra` terms.

    `approx` is (den, pairs), as `solve_prescribed` returns it, for the
    coefficients 0..floor(nu); it must satisfy the relation rows up to
    floor(mu).  Beyond the Newton corner row m determines
    y_{m - v(l_0)}, so each further row gives one new coefficient.
    Returns (den, pairs) for the coefficients 0..floor(nu) + extra, head
    first, in lowest terms.
    """
    if extra < 0:
        raise InvalidArgumentError("extra must be >= 0")
    try:
        den, support = approx
        support = tuple(support)
        ok = type(den) is int and den > 0
        ok = ok and all(type(n) is type(v) is int and v for n, v in support)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise InvalidArgumentError(
            "approximate solution must be a positive int den and nonzero (int, int) pairs"
        )
    transformed = phi_apply(op, phi)
    if transformed.order < 1:
        raise UnsupportedEquationError("prolongation needs an operator of order >= 1")
    nu, mu = mu_nu(transformed)
    head = math.floor(nu) + 1
    bounds = [-1] + [n for n, _ in support] + [head]
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise InvalidArgumentError(
            f"approximate solution needs increasing indices in 0..{head - 1}"
        )
    op_terms = integer_terms(transformed)
    _, residual = image_below(op_terms, support, math.floor(mu) + 1)
    if residual:
        bad = min(residual)
        raise IncompatiblePrefixError(
            f"prefix violates the relation for the coefficient of x^{bad}"
        )
    return _prolong(op_terms[1], math.floor(mu), den, support, extra)


def _prolong(terms: list[Term], mu_floor: int, den: int, support: Sequence, extra: int) -> tuple:
    """`prolong` from `integer_terms`, for a head that holds the rows up to mu_floor."""
    if extra == 0:
        return lowest_terms(den, support)

    # Scaled by L, row m reads d y_{m - v(l_0)} + (sum of c y_n over the
    # other terms) = 0; the trailing term d x^v(l_0) of l_0 comes first.
    (_, tv0, d), terms = terms[0], terms[1:]

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
    if abs(d) == 1 and bk == 1 and j - tv0 <= _NEAR_TAIL:
        found = _walk(terms, support, d, mu_floor, top, tv0)
    else:
        found = _push(terms, support, d, mu_floor, top, tv0)
    scale, pairs = _over_common(support, found, d)
    return lowest_terms(den * scale, pairs)


def series_solutions(op: MahlerOperator, phi: PhiTransform, top: int) -> tuple[int, tuple]:
    """(t, vectors): a basis of the power-series solutions of phi(op),
    whose trailing coefficient is nonzero, each as the (den, pairs) of
    `prolong` for its coefficients 0..t-1, t - 1 = max(top, floor(nu)).
    The window fixes the coefficients up to floor(nu), and each head is
    then prolonged, all from one phi(op), integer terms, nu and mu.
    A t beyond MAX_EXPONENT raises ExponentOverflowError."""
    transformed = phi_apply(op, phi)
    if transformed.order < 1:
        return 0, ()
    nu, mu = mu_nu(transformed)
    if nu < 0:
        return 0, ()
    op_terms = integer_terms(transformed)
    w, mu_floor = math.floor(nu) + 1, math.floor(mu)
    t = max(top + 1, w)
    if t > MAX_EXPONENT:
        raise ExponentOverflowError(f"truncation order {t} exceeds {MAX_EXPONENT}")
    heads = _window(transformed.order, op_terms, mu_floor + 1, w, 1)
    return t, tuple(_prolong(op_terms[1], mu_floor, *head, t - w) for head in heads)

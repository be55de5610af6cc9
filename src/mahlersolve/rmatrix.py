"""Row-sparse finite slices of the infinite recurrence matrix of an
operator, the prescribed-support kernel solver, and term-by-term
prolongation of approximate series solutions.

Extracting the coefficient of x^m from (phi(L)) y = 0 gives one linear
relation between series coefficients; row m, column n of the matrix
holds the coefficient of y_n in that relation.

Prolongation pushes each nonzero coefficient forward into the rows it
appears in, so it costs about (nonzero coefficients) x (operator terms)
rather than (truncation order) x (operator terms).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Sequence

from .errors import IncompatiblePrefixError, InternalInvariantError
from .linalg import kernel_basis, rref
from .newton import mu_nu
from .operator import MahlerOperator, PhiTransform, apply_below, integer_terms, phi_apply

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RowSparseMatrix:
    """Rows indexed by labels from E, columns 0..width-1; each row stores
    its nonzero entries as sorted (column, value) pairs.  Immutable."""

    __slots__ = ("row_labels", "width", "rows")

    def __init__(self, row_labels, width, rows):
        self.row_labels = tuple(row_labels)
        self.width = width
        self.rows = tuple(tuple(row) for row in rows)

    def entry(self, i: int, n: int) -> Fraction:
        row = self.rows[i]
        cols = [c for c, _ in row]
        pos = bisect_left(cols, n)
        if pos < len(row) and row[pos][0] == n:
            return row[pos][1]
        return _ZERO

    def row_nonzeros(self, i: int):
        return self.rows[i]

    @property
    def height(self) -> int:
        return len(self.rows)


def build_submatrix(
    op: MahlerOperator,
    phi: PhiTransform,
    width: int,
    row_indices: Sequence[int],
) -> RowSparseMatrix:
    """Rows of the recurrence matrix of phi(op) with the given indices,
    restricted to the first `width` columns.

    The exponent transform is handled by index arithmetic on the original
    coefficients, so the transformed operator is never materialized.  For
    each coefficient of M^k only the stored terms in the right residue
    class modulo b^k are visited, which keeps sparse operators cheap.
    """
    phi.validate_for(op.radix)
    labels = list(row_indices)
    if any(b >= a for a, b in zip(labels[1:], labels)):
        raise ValueError("row indices must be strictly increasing")
    b = op.radix
    # (b^k, alpha b^k - gamma, beta^-1 mod b^k, terms of l_k) per M^k
    blocks = []
    for k, lk in op.nonzero_coefficients():
        bk = b**k
        inv = pow(phi.beta, -1, bk)
        blocks.append((bk, phi.alpha * bk - phi.gamma, inv, lk.terms))
    rows = []
    for m in labels:
        acc: dict[int, Fraction] = {}
        for bk, shift, inv, terms in blocks:
            base = m - shift
            if base < 0:
                continue
            j0 = (inv * base) % bk
            low = base - bk * width  # beta*j must satisfy low < beta*j <= base
            for j, c in terms:
                bj = phi.beta * j
                if bj > base:
                    break
                if j % bk != j0 or bj <= low:
                    continue
                n = (base - bj) // bk
                s = acc.get(n, _ZERO) + c
                if s:
                    acc[n] = s
                elif n in acc:
                    del acc[n]
        rows.append(sorted(acc.items()))
    return RowSparseMatrix(labels, width, rows)


@dataclass(frozen=True)
class KernelBasis:
    """Canonical basis of a kernel of polynomials of degree < width:
    reduced echelon with pivots at the lowest nonzero coefficient, pivot
    coefficients 1, ordered by pivot position."""

    width: int
    vectors: tuple[tuple[Fraction, ...], ...]

    def __len__(self) -> int:
        return len(self.vectors)


def _substitute(matrix: RowSparseMatrix, zero_positions: list[int], seed: int, lower: bool):
    """One candidate kernel vector: unit seed at one free position, zero at
    the other free positions, and substitution along the invertible rows.
    Rows with a zero diagonal are skipped; the residual pass picks up the
    equations they stand for."""
    w = matrix.width
    free = set(zero_positions)
    vec: list[Fraction] = [_ZERO] * w
    positions = range(w) if lower else range(w - 1, -1, -1)
    for i in positions:
        if i in free:
            vec[i] = _ONE if i == seed else _ZERO
            continue
        acc = _ZERO
        diag = _ZERO
        for col, val in matrix.row_nonzeros(i):
            if col == i:
                diag = val
            elif vec[col]:
                acc += val * vec[col]
        if acc:
            vec[i] = -acc / diag
    return vec


def solve_prescribed(
    op: MahlerOperator,
    phi: PhiTransform,
    h: int,
    width: int,
    row_indices: Sequence[int],
    orientation: str,
) -> KernelBasis:
    """Basis of {y of degree < width : phi(op) y = 0 mod x^h}.

    The row indices must select a square lower (resp. upper) triangular
    submatrix with at most order-many zeros on the diagonal; candidates
    found by substitution are recombined so that all rows below x^h hold.
    """
    if orientation not in ("lower", "upper"):
        raise ValueError("orientation must be 'lower' or 'upper'")
    lower = orientation == "lower"
    labels = list(row_indices)
    if len(labels) != width:
        raise ValueError("need exactly width row indices")
    if labels and labels[-1] >= h:
        raise ValueError("row indices must be below h")
    matrix = build_submatrix(op, phi, width, labels)

    zero_positions = []
    for i in range(width):
        row = matrix.row_nonzeros(i)
        bad = [c for c, _ in row if (c > i if lower else c < i)]
        if bad:
            raise InternalInvariantError(
                f"row {labels[i]} is not {orientation} triangular (column {bad[0]})"
            )
        if not matrix.entry(i, i):
            zero_positions.append(i)
    if op and len(zero_positions) > op.order:
        raise InternalInvariantError(
            f"{len(zero_positions)} zero diagonal entries exceed the order {op.order}"
        )

    candidates = [
        _substitute(matrix, zero_positions, seed, lower) for seed in zero_positions
    ]
    if not candidates:
        return KernelBasis(width, ())

    transformed = phi_apply(op, phi)
    supports = [[(n, v) for n, v in enumerate(g) if v] for g in candidates]
    residuals = [apply_below(transformed, s, h) for s in supports]
    nonzero_rows = sorted(set().union(*[r.keys() for r in residuals]))
    rho = len(candidates)
    s_rows = [[res.get(m, _ZERO) for res in residuals] for m in nonzero_rows]
    kernel = kernel_basis(s_rows, rho)

    combined = []
    for coeffs in kernel:
        vec = [_ZERO] * width
        for c, support in zip(coeffs, supports):
            if c:
                for idx, val in support:
                    vec[idx] += c * val
        combined.append(vec)
    reduced, _ = rref(combined)
    return KernelBasis(width, tuple(tuple(v) for v in reduced))


def prolong(
    op: MahlerOperator,
    phi: PhiTransform,
    approx: Sequence[Fraction],
    extra: int,
) -> list[Fraction]:
    """Extend an approximate series solution of phi(op) by `extra` terms.

    The input must hold the coefficients 0..floor(nu) and satisfy the
    relation rows up to floor(mu); each further row then determines one
    new coefficient by forward substitution.  Only rows that some nonzero
    coefficient reaches are visited: each nonzero y_n adds c y_n to the
    pending sum of row j + b^k n for every term c x^j M^k, and pending
    rows are solved in increasing order.  The sums run on ints over a
    common denominator; each nonzero new coefficient becomes a Fraction
    once, when its row is solved.
    """
    if extra < 0:
        raise ValueError("extra must be >= 0")
    transformed = phi_apply(op, phi)
    if transformed.order < 1:
        raise ValueError("prolongation needs an operator of order >= 1")
    nu, mu = mu_nu(transformed)
    head = math.floor(nu) + 1
    if len(approx) != head:
        raise ValueError(f"approximate solution must have exactly {head} coefficients")
    mu_floor = math.floor(mu)
    support = [(n, yn) for n, yn in enumerate(approx) if yn]
    residual = apply_below(transformed, support, mu_floor + 1)
    if residual:
        bad = min(residual)
        raise IncompatiblePrefixError(
            f"prefix violates the relation for the coefficient of x^{bad}"
        )
    if extra == 0:
        return list(approx)

    # Scaled by L, row m reads d y_{m - v(l_0)} + (sum of c y_n over the
    # other terms) = 0; the trailing term d x^v(l_0) of l_0 comes first.
    _, terms = integer_terms(transformed)
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

    # A coefficient or pending sum is an int pair (num, lev) standing for
    # num / (den d^lev), den the lcm of the prefix denominators.
    den = math.lcm(*(yn.denominator for _, yn in support))
    y = list(approx) + [_ZERO] * extra
    pending: dict[int, list[int]] = {}  # row -> [num, lev] of its known terms
    rows: list[int] = []  # heap of the pending rows

    def push(n: int, num: int, lev: int, settled: int) -> None:
        # rows up to `settled` are done: the prefix satisfies those up to
        # floor(mu), and the check above keeps a coefficient found at
        # row m out of the rows up to m
        for bk, j, c in terms:
            m = j + bk * n
            if settled < m <= top:
                row = pending.get(m)
                if row is None:
                    pending[m] = [c * num, lev]
                    heappush(rows, m)
                elif row[1] >= lev:
                    row[0] += c * num * d ** (row[1] - lev)
                else:
                    row[0] = row[0] * d ** (lev - row[1]) + c * num
                    row[1] = lev

    for n, yn in support:
        push(n, yn.numerator * (den // yn.denominator), 0, mu_floor)
    while rows:
        m = heappop(rows)
        num, lev = pending.pop(m)
        if num:
            num, lev = -num, lev + 1
            while lev and num % d == 0:
                num //= d
                lev -= 1
            n = m - tv0
            y[n] = Fraction(num, den * d**lev)
            push(n, num, lev, m)
    return y

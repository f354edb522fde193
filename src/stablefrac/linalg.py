"""Small exact Gaussian elimination helpers.

``Rref`` and ``rank`` work on sparse integer rows: a row is a
``{column: coefficient}`` map holding its nonzeros only, so elimination
touches nonzero entries and never scans a whole row.  Elimination is
fraction-free in the style of Bareiss (1968): a basis row is kept as its
primitive integer multiple, so no ``Fraction`` is built and the results are
the exact rationals of ordinary reduced row-echelon form.  ``Rref`` is the
one elimination routine: ``solve_exact``, the solver behind
``hulls.point_in_hull`` (the subset-search reference that the tests compare
the connected-set cube test against), adds its augmented rows to one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

SparseRow = Mapping[int, int]   # column -> nonzero integer coefficient


class Rref:
    """An incrementally maintained reduced row-echelon basis of sparse rows.

    Rows are added one at a time; dependent rows are rejected.  A new row is
    reduced against the basis and then pivots on its lowest nonzero column.
    Each basis row is stored as its primitive integer multiple (content 1)
    with a positive pivot entry and zeros in every other pivot column, so
    dividing it by its pivot entry gives the row of the reduced row-echelon
    form.  That form, and so the basis, depends only on the span of the rows
    added, not on their order.  It also yields a null-space vector for any
    free column, which is what the vertex walk needs.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}   # pivot column -> reduced row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivot_columns(self) -> set[int]:
        return set(self.rows)

    def copy(self) -> Rref:
        """An independent basis with the same rows.

        Every row dict is copied, since ``add`` may update a basis row in
        place.  Adding more rows to the copy gives the basis that adding all
        of them to a fresh ``Rref`` would give: the basis depends only on
        the span, so a basis shared by several row sets can be eliminated
        once and copied.
        """
        basis = Rref(self.ncols)
        basis.rows = {p: dict(row) for p, row in self.rows.items()}
        return basis

    def add(self, vector: SparseRow) -> bool:
        """Reduce ``vector`` against the basis; returns False if dependent."""
        v = {c: a for c, a in vector.items() if a}
        # a basis row is zero at the other pivots, so clearing one pivot
        # column of v leaves v's entries at the other pivots nonzero
        for p in [c for c in v if c in self.rows]:
            v = _eliminate(v, p, self.rows[p])
        if not v:
            return False
        pivot = min(v)
        v = _primitive(v, pivot)
        for p, row in self.rows.items():
            if pivot in row:
                self.rows[p] = _primitive(_eliminate(row, pivot, v), p)
        self.rows[pivot] = v
        return True

    def null_vector(self, free_col: int) -> list[int]:
        """A nonzero integer vector orthogonal to every row.

        It is a positive multiple of the null vector with 1 at ``free_col``
        and 0 at the other free columns, so it is positive at ``free_col``.
        """
        if free_col in self.rows:
            raise ValueError("free_col is a pivot column")
        hits = [(p, row[p], row[free_col])
                for p, row in self.rows.items() if free_col in row]
        scale = lcm(*(s for _, s, _ in hits))
        v = [0] * self.ncols
        v[free_col] = scale
        for p, s, a in hits:
            v[p] = -a * (scale // s)
        return v


def _eliminate(target: dict[int, int], p: int, row: dict[int, int]) -> dict[int, int]:
    """s * target - a * row with s, a the entries at ``p`` over their gcd.

    ``row[p]`` is positive, so s is, and the result is zero at ``p``.
    Entries that cancel to zero are dropped.  ``target`` is updated in place
    when s is 1.
    """
    s, a = row[p], target[p]
    g = gcd(s, a)
    s, a = s // g, a // g
    out = {c: s * b for c, b in target.items()} if s != 1 else target
    for c, b in row.items():
        x = out.get(c, 0) - a * b
        if x:
            out[c] = x
        else:
            del out[c]
    return out


def _primitive(row: dict[int, int], p: int) -> dict[int, int]:
    """``row`` divided by its content (gcd of entries), signed so row[p] > 0."""
    content = gcd(*row.values())
    if row[p] < 0:
        content = -content
    return {c: a // content for c, a in row.items()} if content != 1 else row


def rank(rows: Iterable[SparseRow], ncols: int) -> int:
    """The rank of ``rows``, which touch at most ``ncols`` distinct columns.

    The rows are pulled one at a time, so ``rows`` may build them lazily.
    ``ncols`` bounds the rank, so no row is pulled once the rank reaches it:
    the row that brings it there is the last one pulled.
    """
    basis, rows = Rref(ncols), iter(rows)
    while basis.rank < ncols and (row := next(rows, None)) is not None:
        basis.add(row)
    return basis.rank


def solve_exact(a_rows: Sequence[Sequence[Fraction]],
                rhs: Sequence[Fraction]) -> tuple[str, list[Fraction] | None]:
    """Solve ``A x = b`` exactly.

    Returns ("unique", x), ("none", None) for an inconsistent system, or
    ("many", None) for an underdetermined one.  Each row of ``[A | b]`` is
    scaled to integers and added to one ``Rref``: a pivot on the last column
    makes the system inconsistent, and otherwise x_c is that column's entry
    over the pivot entry of the row pivoting at c.
    """
    n = len(a_rows[0]) if a_rows else 0
    basis = Rref(n + 1)
    for row, b in zip(a_rows, rhs):
        values = [Fraction(v) for v in (*row, b)]
        scale = lcm(*(v.denominator for v in values))
        basis.add({c: v.numerator * (scale // v.denominator)
                   for c, v in enumerate(values)})
    if n in basis.rows:
        return ("none", None)
    if basis.rank < n:
        return ("many", None)
    return ("unique", [Fraction(basis.rows[c].get(n, 0), basis.rows[c][c])
                       for c in range(n)])

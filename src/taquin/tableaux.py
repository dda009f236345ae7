"""Tableaux on normal and skew shapes: validity classes, row bumping, reading words.

A ``Tableau`` stores the full outer grid row-major, with ``None`` marking the
cells of the inner shape.  Entries are distinct positive integers but are not
required to be 1..n, so mid-insertion states are first-class values.  A tableau is
checked where it enters; results built from checked ones come from the unchecked ``Tableau._of``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import zip_longest
from operator import itemgetter, lt
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, TableauError
from .partitions import Cell, Partition, SkewShape, _is_positive_int, inner_corners
from .partitions import skew_shape_of_cells


def _at(rows: Sequence[Sequence[int | None]], i: int, j: int) -> int | None:
    """Entry at 1-based (i, j) of a grid of rows; None on an empty cell or off the grid."""
    if 1 <= i <= len(rows) and 1 <= j <= len(rows[i - 1]):
        return rows[i - 1][j - 1]
    return None


def _cells(rows: Sequence[Sequence[int | None]]) -> Iterator[tuple[Cell, int]]:
    """(cell, entry) for every filled cell of a grid of rows, in row-major order."""
    for i, row in enumerate(rows, start=1):
        for j, entry in enumerate(row, start=1):
            if entry is not None:
                yield Cell(i, j), entry


class ShapeKind(Enum):
    NORMAL = "normal"
    SKEW = "skew"


@dataclass(frozen=True)
class Tableau:
    """A (skew) shape together with one entry per cell of the shape."""

    shape: SkewShape
    rows: tuple[tuple[int | None, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        outer = self.shape.outer
        if len(rows) != outer.num_rows:
            raise TableauError(
                f"expected {outer.num_rows} rows for shape {outer.parts}, got {len(rows)}"
            )
        inner = self.shape.inner
        seen: set[int] = set()
        for i, row in enumerate(rows, start=1):
            if len(row) != outer.row_len(i):
                raise TableauError(
                    f"row {i} has {len(row)} cells, shape wants {outer.row_len(i)}"
                )
            skipped = inner.row_len(i)
            for j, entry in enumerate(row, start=1):
                if j > skipped:
                    if not _is_positive_int(entry):
                        raise TableauError(f"cell ({i},{j}) needs a positive entry, got {entry!r}")
                    if entry in seen:
                        raise TableauError(f"duplicate entry {entry}")
                    seen.add(entry)
                elif entry is not None:
                    raise TableauError(f"cell ({i},{j}) lies outside the shape but holds {entry!r}")

    @classmethod
    def _of(cls, shape: SkewShape, rows: tuple[tuple[int | None, ...], ...]) -> Tableau:
        """``rows`` on ``shape``, unchecked: rows built from a checked tableau, word or shape."""
        tableau = object.__new__(cls)
        vars(tableau).update(shape=shape, rows=rows)
        return tableau

    @classmethod
    def normal(cls, rows: Sequence[Sequence[int]]) -> Tableau:
        """Build a normal-shape tableau from its entry rows."""
        shape = SkewShape(Partition(tuple(len(row) for row in rows)))
        return cls(shape, tuple(tuple(row) for row in rows))

    @classmethod
    def skew(
        cls,
        outer: Iterable[int],
        inner: Iterable[int],
        rows: Sequence[Sequence[int | None]],
    ) -> Tableau:
        """Build from raw shape sequences and a padded grid (None inside ``inner``)."""
        return cls(SkewShape.of(outer, inner), tuple(tuple(row) for row in rows))

    @classmethod
    def from_cells(cls, entries: Mapping[Cell, int]) -> Tableau:
        """Build from a cell-to-entry map; the skew shape is derived from the keys."""
        shape = skew_shape_of_cells(entries.keys())
        rows = tuple(
            tuple(
                entries.get(Cell(i, j))
                for j in range(1, shape.outer.row_len(i) + 1)
            )
            for i in range(1, shape.outer.num_rows + 1)
        )
        return cls(shape, rows)

    @property
    def size(self) -> int:
        return self.shape.size

    @property
    def entries(self) -> frozenset[int]:
        return frozenset(e for row in self.rows for e in row if e is not None)

    def to_cell_map(self) -> dict[Cell, int]:
        return dict(_cells(self.rows))


def _normal(rows: Iterable[Iterable[int]]) -> Tableau:
    """``Tableau.normal(rows)`` unchecked, for rows built from a checked tableau or word."""
    rows = tuple(map(tuple, rows))
    return Tableau._of(SkewShape(Partition(tuple(map(len, rows)))), rows)


def _descents(rows: Sequence[Sequence[int | None]]) -> Iterator[tuple[Cell, Cell]]:
    """Adjacent filled cells of a grid of rows whose second entry is not the larger.

    Each pair is (left-or-upper cell, right-or-lower cell), in row-major order
    with a cell's right neighbour before the one below it, for ``hms.descent_pairs``.
    """
    # Indices rather than ``_cells``: a Cell is built only for a pair that is yielded.
    for i, row in enumerate(rows, start=1):
        for j, entry in enumerate(row, start=1):
            if entry is None:
                continue
            right = _at(rows, i, j + 1)
            if right is not None and right <= entry:
                yield Cell(i, j), Cell(i, j + 1)
            below = _at(rows, i + 1, j)
            if below is not None and below <= entry:
                yield Cell(i, j), Cell(i + 1, j)


def is_partial(t: Tableau) -> bool:
    """True when entries strictly increase along every row and column: in one pass, each row's
    cells past the inner shape increase and, from the row above's first filled column, exceed it."""
    above, start = (), 0
    for row, skip in zip_longest(t.rows, t.shape.inner.parts, fillvalue=0):
        filled = row[skip:]
        if not (all(map(lt, filled, filled[1:])) and all(map(lt, above[start:], row[start:]))):
            return False
        above, start = row, skip
    return True


def is_standard(t: Tableau) -> bool:
    """True when the tableau is partial and its entries, distinct and positive, are 1..n:
    its largest, which ends a row (a row inside the inner shape ends in None), is n."""
    return is_partial(t) and max(filter(None, map(itemgetter(-1), t.rows)), default=0) == t.size


def _require_normal_partial(t: Tableau, op: str) -> None:
    if not t.shape.is_normal:
        raise DomainError(f"{op} needs a normal-shape tableau")
    if not is_partial(t):
        raise DomainError(f"{op} needs strictly increasing rows and columns")


def _bump(rows: list[list[int]], x: int) -> int:
    """Row-insert ``x`` in place; return the 0-based row that grew.

    Each row either absorbs the incoming value at its end or has its smallest
    entry exceeding the value displaced into the next row.
    """
    for i, row in enumerate(rows):
        pos = bisect_right(row, x)
        if pos == len(row):
            row.append(x)
            return i
        x, row[pos] = row[pos], x
    rows.append([x])
    return len(rows) - 1


def _unbump(rows: list[list[int]], i: int) -> int:
    """Undo in place the insertion that grew 0-based row ``i``, whose end is a corner."""
    x = rows[i].pop()
    if not rows[i]:
        rows.pop()
    for row in reversed(rows[:i]):
        pos = bisect_left(row, x) - 1
        x, row[pos] = row[pos], x
    return x


def row_insert(p: Tableau, x: int) -> tuple[Tableau, Cell]:
    """Insert ``x`` by row bumping, returning the new tableau and the added cell."""
    _require_normal_partial(p, "row_insert")
    if not _is_positive_int(x):
        raise DomainError(f"can only insert positive integers, got {x!r}")
    if any(x in row for row in p.rows):
        raise DomainError(f"entry {x} already present")

    rows = [list(row) for row in p.rows]
    i = _bump(rows, x)
    return _normal(rows), Cell(i + 1, len(rows[i]))


def reverse_bump(p: Tableau, cell: Cell) -> tuple[Tableau, int]:
    """Undo a row insertion that ended at ``cell`` (an inner corner of the shape)."""
    _require_normal_partial(p, "reverse_bump")
    cell = Cell(*cell)
    if cell not in inner_corners(p.shape.outer):
        raise DomainError(f"{cell} is not an inner corner of {p.shape.outer.parts}")

    rows = [list(row) for row in p.rows]
    value = _unbump(rows, cell.row - 1)
    return _normal(rows), value


def reading_word(t: Tableau) -> tuple[int, ...]:
    """Concatenate the rows bottom to top, each left to right, skipping empty cells."""
    word: list[int] = []
    for row in reversed(t.rows):
        word.extend(e for e in row if e is not None)
    return tuple(word)

"""Integer partitions, skew shapes, corner cells, hooks, and the hook-length count.

All values are immutable and all functions are pure, so everything here is safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, prod
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError, ShapeError


class Cell(NamedTuple):
    """1-based (row, col) address of a single diagram cell."""

    row: int
    col: int


def _is_positive_int(x: object) -> bool:
    """The one test of what a row length, a tableau entry, a task ID or a letter is."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing sequence of positive row lengths.

    The empty sequence is the (unique) partition of 0.  Trailing zeros are
    rejected rather than stripped so that equality stays structural.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        for k, part in enumerate(parts):
            if not _is_positive_int(part):
                raise ShapeError(f"row lengths must be positive integers, got {part!r}")
            if k and parts[k - 1] < part:
                raise ShapeError(f"row lengths must be weakly decreasing, got {parts}")

    @property
    def n(self) -> int:
        """Total number of cells."""
        return sum(self.parts)

    @property
    def num_rows(self) -> int:
        return len(self.parts)

    def row_len(self, i: int) -> int:
        """Length of 1-based row ``i``; zero past the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self) -> Partition:
        """Reflect the diagram across its main diagonal."""
        if not self.parts:
            return Partition()
        return Partition(
            tuple(sum(1 for p in self.parts if p > j) for j in range(self.parts[0]))
        )

    def contains(self, other: Partition) -> bool:
        """True when ``other`` fits inside this diagram row by row."""
        return len(other.parts) <= len(self.parts) and all(
            o <= s for o, s in zip(other.parts, self.parts)
        )

    def remove_corner(self, cell: Cell) -> Partition:
        """Remove an inner corner, yielding the smaller partition."""
        if cell not in inner_corners(self):
            raise DomainError(f"{cell} is not an inner corner of {self.parts}")
        parts = list(self.parts)
        parts[cell.row - 1] -= 1
        if parts and parts[-1] == 0:
            parts.pop()
        return Partition(parts)

    def add_corner(self, cell: Cell) -> Partition:
        """Add an outer corner, yielding the larger partition."""
        if cell not in outer_corners(self):
            raise DomainError(f"{cell} is not an outer corner of {self.parts}")
        parts = list(self.parts)
        if cell.row == len(parts) + 1:
            parts.append(1)
        else:
            parts[cell.row - 1] += 1
        return Partition(parts)


@dataclass(frozen=True)
class SkewShape:
    """The cells of ``outer`` that are not cells of ``inner``."""

    outer: Partition
    inner: Partition = field(default_factory=Partition)

    def __post_init__(self) -> None:
        if not self.outer.contains(self.inner):
            raise ShapeError(
                f"inner shape {self.inner.parts} does not fit inside {self.outer.parts}"
            )

    @classmethod
    def of(cls, outer: Iterable[int], inner: Iterable[int] = ()) -> SkewShape:
        """Build from raw row-length sequences."""
        return cls(Partition(tuple(outer)), Partition(tuple(inner)))

    @property
    def is_normal(self) -> bool:
        return not self.inner.parts

    @property
    def size(self) -> int:
        return self.outer.n - self.inner.n


def hook_lengths(shape: Partition) -> tuple[tuple[int, ...], ...]:
    """Per-cell counts of the cells to the right, below, and the cell itself."""
    conj = shape.conjugate().parts
    return tuple(
        tuple(length - j + conj[j - 1] - i + 1 for j in range(1, length + 1))
        for i, length in enumerate(shape.parts, start=1)
    )


def count_syt(shape: Partition) -> int:
    """Number of fillings of ``shape`` with 1..n strictly increasing in rows and columns.

    Exact integer arithmetic throughout; the division is exact.
    """
    hooks = prod(h for row in hook_lengths(shape) for h in row)
    return factorial(shape.n) // hooks


def inner_corners(shape: Partition) -> tuple[Cell, ...]:
    """Cells whose removal leaves a partition diagram, in row order."""
    parts = shape.parts
    return tuple(
        Cell(i, parts[i - 1])
        for i in range(1, len(parts) + 1)
        if i == len(parts) or parts[i - 1] > parts[i]
    )


def outer_corners(shape: Partition) -> tuple[Cell, ...]:
    """Positions outside the diagram whose addition leaves a partition, in row order."""
    parts = shape.parts
    corners = [
        Cell(i, parts[i - 1] + 1)
        for i in range(1, len(parts) + 1)
        if i == 1 or parts[i - 2] > parts[i - 1]
    ]
    corners.append(Cell(len(parts) + 1, 1))
    return tuple(corners)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of ``n`` in reverse lexicographic order."""
    if n < 0:
        raise DomainError("cannot partition a negative integer")

    def gen(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first, *rest)

    return [Partition(parts) for parts in gen(n, n)]


class SumSquaresIdentity(NamedTuple):
    """Outcome of comparing the sum of squared fillings counts with n!."""

    sum_of_squares: int
    factorial: int
    equal: bool


def verify_sum_squares(n: int) -> SumSquaresIdentity:
    """Check that the squared filling counts over all shapes of ``n`` sum to n!."""
    if n < 1:
        raise DomainError("identity check needs n >= 1")
    total = sum(count_syt(shape) ** 2 for shape in partitions_of(n))
    fact = factorial(n)
    return SumSquaresIdentity(total, fact, total == fact)


def skew_shape_of_cells(cells: Iterable[Cell]) -> SkewShape:
    """The skew shape whose cell set equals ``cells``, if one exists.

    Rows with no cells are given the least admissible width, which makes the
    returned (outer, inner) pair canonical.  Raises ShapeError when a
    coordinate is not an integer, or the cells do not form a skew diagram
    (gaps in a row, or rows that cannot be stacked).
    """
    cellset = set()
    for c in cells:
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (c[0], c[1])):
            raise ShapeError(f"cell coordinates must be integers, got {tuple(c)!r}")
        cellset.add((c[0], c[1]))
    if any(row < 1 or col < 1 for row, col in cellset):
        raise ShapeError("cells must have positive coordinates")
    cols_by_row: list[list[int]] = [[] for _ in range(max((r for r, _ in cellset), default=0))]
    for row, col in cellset:
        cols_by_row[row - 1].append(col)
    return _skew_shape_of_rows([sorted(cols) for cols in cols_by_row])


def _skew_shape_of_rows(cols_by_row: Sequence[list[int]]) -> SkewShape:
    """The skew shape whose 1-based row i holds exactly the sorted columns ``cols_by_row[i - 1]``.

    Trailing empty rows are dropped; see ``skew_shape_of_cells`` for the rest.
    """
    for i, cols in enumerate(cols_by_row, start=1):
        if cols and cols[-1] - cols[0] + 1 != len(cols):
            raise ShapeError(f"row {i} has a gap: columns {cols}")
    outer: list[int] = []  # both bottom to top
    inner: list[int] = []
    for cols in reversed(cols_by_row):
        if cols:
            outer.append(cols[-1])
            inner.append(cols[0] - 1)
        elif outer:
            # Empty row between occupied ones: both bounds collapse to the
            # least width that still nests above the row below.
            outer.append(outer[-1])
            inner.append(outer[-1])
    if any(a > b for seq in (outer, inner) for a, b in zip(seq, seq[1:])):
        raise ShapeError("cells do not stack into a skew diagram")
    return SkewShape(Partition(tuple(outer[::-1])), Partition(tuple(p for p in inner[::-1] if p)))

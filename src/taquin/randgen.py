"""Seeded random instance generators for property runs and tests.

Everything takes an explicit ``random.Random`` so callers control
reproducibility; nothing here touches global RNG state.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from random import Random

from .hms import CapacityGrid, HmtState, TaskSet
from .partitions import Partition, SkewShape
from .tableaux import Tableau


def random_partition_in_box(
    rng: Random, max_rows: int, max_cols: int, min_cells: int = 1
) -> Partition:
    """A partition fitting in a max_rows x max_cols box with at least min_cells cells."""
    while True:
        parts: list[int] = []
        width = max_cols
        for _ in range(rng.randint(1, max_rows)):
            width = rng.randint(1, width)
            parts.append(width)
        shape = Partition(tuple(parts))
        if shape.n >= min_cells:
            return shape


def random_subpartition(rng: Random, outer: Partition) -> Partition:
    """A partition contained in ``outer`` and strictly smaller than it."""
    while True:
        parts: list[int] = []
        ceiling = outer.parts[0] if outer.parts else 0
        for length in outer.parts:
            ceiling = rng.randint(0, min(length, ceiling))
            parts.append(ceiling)
        while parts and parts[-1] == 0:
            parts.pop()
        inner = Partition(tuple(parts))
        if inner.n < outer.n:
            return inner


def random_standard_filling(rng: Random, shape: SkewShape) -> Tableau:
    """A uniformly-seeded random standard filling of ``shape`` with 1..size.

    Values are placed in increasing order, each on a random addable cell: the
    first empty cell of a row whose cell above is filled or outside the
    shape.  Rows fill left to right, so each row's first empty column
    (``ends``) is the whole state, and each value costs one pass over the
    rows, which lists the addable cells in row-major order.
    """
    rows: list[list[int | None]] = [[None] * length for length in shape.outer.parts]
    ends = [shape.inner.row_len(i) for i in range(1, len(rows) + 1)]
    for value in range(1, shape.size + 1):
        frontier = [
            i for i, row in enumerate(rows)
            if ends[i] < len(row) and (i == 0 or ends[i] < ends[i - 1])
        ]
        i = frontier[rng.randrange(len(frontier))]
        rows[i][ends[i]] = value
        ends[i] += 1
    return Tableau._of(shape, tuple(map(tuple, rows)))


def _place(filling: Tableau, rows: int, cols: int) -> HmtState:
    """The state of a ``rows`` x ``cols`` mesh holding ``filling`` in its top-left cells."""
    grid = [list(row) + [None] * (cols - len(row)) for row in filling.rows]
    grid += [[None] * cols for _ in range(rows - len(grid))]
    return HmtState(Partition((cols,) * rows), grid)


def random_standard_assignment(
    rng: Random,
    max_rows: int = 4,
    max_cols: int = 4,
    min_tasks: int = 2,
) -> HmtState:
    """A standard normal-shape mesh state on a random canonical grid."""
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    while rows * cols < min_tasks:
        rows = rng.randint(1, max_rows)
        cols = rng.randint(1, max_cols)
    region = random_partition_in_box(rng, rows, cols, min_cells=min_tasks)
    return _place(random_standard_filling(rng, SkewShape(region)), rows, cols)


def random_skew_assignment(rng: Random, max_rows: int = 4, max_cols: int = 4) -> HmtState:
    """A standard skew-shape mesh state: at least one task, nonempty embedded inner shape."""
    while True:
        rows = rng.randint(1, max_rows)
        cols = rng.randint(1, max_cols)
        if rows * cols < 2:
            continue
        outer = random_partition_in_box(rng, rows, cols, min_cells=2)
        inner = random_subpartition(rng, outer)
        if not inner.parts:  # a strict subpartition leaves at least one task
            continue
        return _place(random_standard_filling(rng, SkewShape(outer, inner)), rows, cols)


def random_hierarchical_capacities(rng: Random, shape: Partition) -> CapacityGrid:
    """Random positive rational rates strictly decreasing along rows and columns."""
    rows = shape.num_rows
    cols = shape.row_len(1)
    upper: list[tuple[int, int]] = []  # reduced (numerator, denominator) pairs
    rates: list[tuple[Fraction, ...]] = []
    for i in range(rows):
        row: list[tuple[int, int]] = []
        for j in range(cols):
            if i or j:
                # Strictly below both neighbours: the smaller (upper on a tie) times s/10.
                c, d = upper[j] if i else row[j - 1]
                if i and j and row[j - 1][0] * d < c * row[j - 1][1]:
                    c, d = row[j - 1]
                c, d = c * rng.randint(1, 9), d * 10
                g = gcd(c, d)
                row.append((c // g, d // g))
            else:
                row.append(Fraction(rng.randint(1, 64), rng.randint(1, 8)).as_integer_ratio())
        rates.append(tuple(Fraction(c, d) for c, d in row))
        upper = row
    return CapacityGrid(shape, tuple(rates))


def random_requirements(rng: Random, m: int) -> TaskSet:
    """Random positive rational requirements for tasks 1..m."""
    return TaskSet(tuple(Fraction(rng.randint(1, 100), rng.randint(1, 20)) for _ in range(m)))

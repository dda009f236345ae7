"""Shared strategies and brute-force oracles for the suite."""

from __future__ import annotations

from itertools import permutations
from random import Random
from typing import Iterator

from hypothesis import strategies as st

from taquin.hms import HmtState
from taquin.jdt import backward_slide_trace, forward_slide_trace
from taquin.partitions import Cell, Partition, SkewShape, inner_corners, outer_corners
from taquin.randgen import random_partition_in_box, random_standard_filling, random_subpartition
from taquin.rsk import Permutation
from taquin.tableaux import Tableau


def all_permutations(n: int) -> list[Permutation]:
    return [Permutation(word) for word in permutations(range(1, n + 1))]


def shape_cells(shape: Partition | SkewShape) -> list[Cell]:
    """All cells of a partition or skew shape, in row-major order."""
    outer, inner = (shape, Partition()) if isinstance(shape, Partition) else (shape.outer, shape.inner)
    return [
        Cell(i, j)
        for i, length in enumerate(outer.parts, start=1)
        for j in range(inner.row_len(i) + 1, length + 1)
    ]


def subpartitions(outer: Partition) -> Iterator[Partition]:
    """Every partition contained in ``outer`` (including the empty one and outer itself)."""

    def rec(row: int, ceiling: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if row == len(outer.parts):
            yield tuple(acc)
            return
        for length in range(min(outer.parts[row], ceiling), -1, -1):
            if length == 0:
                yield tuple(acc)
                return
            acc.append(length)
            yield from rec(row + 1, length, acc)
            acc.pop()

    top = outer.parts[0] if outer.parts else 0
    for parts in rec(0, top, []):
        yield Partition(parts)


def enumerate_skew_fillings(shape: SkewShape) -> Iterator[Tableau]:
    """All standard fillings of a skew shape, by linear-extension backtracking.

    Values 1..size are placed, in turn, on any cell whose left/above neighbours
    inside the shape are already filled, trying those cells in row-major order.
    """
    cells = shape_cells(shape)
    remaining = set(cells)
    entries: dict[Cell, int] = {}

    def addable(cell: Cell) -> bool:
        return (
            Cell(cell.row, cell.col - 1) not in remaining
            and Cell(cell.row - 1, cell.col) not in remaining
        )

    def rec(value: int) -> Iterator[Tableau]:
        if not remaining:
            rows = tuple(
                tuple(entries.get(Cell(i, j)) for j in range(1, length + 1))
                for i, length in enumerate(shape.outer.parts, start=1)
            )
            yield Tableau(shape, rows)
            return
        for cell in sorted(c for c in remaining if addable(c)):
            remaining.remove(cell)
            entries[cell] = value
            yield from rec(value + 1)
            del entries[cell]
            remaining.add(cell)

    yield from rec(1)


def exhaustive_rectifications(
    t: Tableau, memo: dict[Tableau, frozenset[Tableau]]
) -> frozenset[Tableau]:
    """Every normal tableau reachable by any sequence of inner-corner choices."""
    if t.shape.is_normal:
        return frozenset([t])
    cached = memo.get(t)
    if cached is not None:
        return cached
    results: set[Tableau] = set()
    for corner in inner_corners(t.shape.inner):
        slid, _, _ = forward_slide_trace(t, corner)
        results |= exhaustive_rectifications(slid, memo)
    frozen = frozenset(results)
    memo[t] = frozen
    return frozen


def slide_until_normal(t: Tableau, choose) -> Tableau:
    """Forward-slide at ``choose(inner corners)`` through the public API until the shape is normal."""
    while not t.shape.is_normal:
        t, _, _ = forward_slide_trace(t, choose(inner_corners(t.shape.inner)))
    return t


def equivalent_skew_pair(rng: Random, max_cells: int = 8) -> tuple[Tableau, Tableau]:
    """Two skew tableaux derived from one normal tableau by backward slides.

    Backward slides are invertible by forward slides, so both rectify back to
    the common ancestor and the pair is slide-equivalent by construction.
    """
    size = rng.randint(2, max_cells)
    shapes = [p for p in subpartitions(Partition((4, 4, 4, 4))) if p.n == size]
    base = random_standard_filling(rng, SkewShape(shapes[rng.randrange(len(shapes))]))
    pair = []
    for _ in range(2):
        current = base
        for _ in range(rng.randint(1, 3)):
            corners = outer_corners(current.shape.outer)
            current, _, _ = backward_slide_trace(current, corners[rng.randrange(len(corners))])
        pair.append(current)
    return pair[0], pair[1]


def random_skew_syt(rng: Random, max_cells: int, min_cells: int = 1) -> Tableau:
    """A random standard tableau of random skew shape with a bounded cell count."""
    while True:
        outer = random_partition_in_box(rng, max_rows=4, max_cols=4, min_cells=min_cells)
        inner = random_subpartition(rng, outer)
        shape = SkewShape(outer, inner)
        if min_cells <= shape.size <= max_cells:
            return random_standard_filling(rng, shape)


def independent_skew_pair(rng: Random, max_cells: int = 8) -> tuple[Tableau, Tableau]:
    """Two independently drawn skew tableaux with the same number of cells."""
    first = random_skew_syt(rng, max_cells=max_cells, min_cells=2)
    while True:
        second = random_skew_syt(rng, max_cells=max_cells, min_cells=2)
        if second.size == first.size:
            return first, second


def state_from_tableau(t: Tableau, shape: tuple[int, ...]) -> HmtState:
    """Embed a tableau's entries into a canonical grid of the given shape."""
    rows, cols = len(shape), (shape[0] if shape else 0)
    grid: list[list[int | None]] = [[None] * cols for _ in range(rows)]
    for cell, entry in t.to_cell_map().items():
        grid[cell.row - 1][cell.col - 1] = entry
    return HmtState(Partition(shape), tuple(tuple(row) for row in grid))


@st.composite
def partitions_st(draw, max_rows: int = 4, max_part: int = 5, allow_empty: bool = True):
    rows = draw(st.integers(0 if allow_empty else 1, max_rows))
    parts: list[int] = []
    ceiling = max_part
    for _ in range(rows):
        ceiling = draw(st.integers(1, ceiling))
        parts.append(ceiling)
    return Partition(tuple(parts))


@st.composite
def normal_partial_tableaux_st(draw, max_cells: int = 10):
    """A partial tableau of normal shape whose entries need not be 1..n."""
    shape = draw(partitions_st(allow_empty=True))
    seed = draw(st.integers(0, 2**32))
    standard = random_standard_filling(Random(seed), SkewShape(shape))
    spread = draw(st.lists(st.integers(1, 4), min_size=shape.n, max_size=shape.n))
    values: list[int] = []
    total = 0
    for gap in spread:
        total += gap
        values.append(total)
    relabel = {k: values[k - 1] for k in range(1, shape.n + 1)}
    rows = tuple(
        tuple(relabel[e] if e is not None else None for e in row) for row in standard.rows
    )
    return Tableau(standard.shape, rows)

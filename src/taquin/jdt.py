"""Forward and backward jeu de taquin slides, rectification, and slide equivalence.

A forward slide opens a hole at an inner corner of the inner shape and pulls
the smaller of the right/below entries into it until the hole reaches an inner
corner of the outer shape; a backward slide is the mirror image and inverts it.
Both, and the completion cascades of ``hms``, run on one trusting kernel.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import DomainError
from .partitions import Cell, Partition, SkewShape, inner_corners, outer_corners
from .tableaux import Tableau, _at, is_partial


class SlideStep(NamedTuple):
    """One hole move: ``moved_entry`` slid from ``source`` into ``hole``."""

    hole: Cell
    moved_entry: int
    source: Cell


Grid = list[list[int | None]]


def _slide(grid: Grid, hole: Cell, step: int) -> list[SlideStep]:
    """Fill ``hole`` in place until no neighbour can move in; return the moves.

    Empty and off-grid cells both read as ``None``.  With ``step=+1`` the
    smaller of the right/below entries moves in (a forward slide or completion
    cascade); with ``step=-1`` the larger of the left/above entries does.
    """
    i, j = hole
    steps: list[SlideStep] = []
    while True:
        across, down = _at(grid, i, j + step), _at(grid, i + step, j)
        if across is None and down is None:
            return steps
        # Entries are positive, so scaling by ``step = -1`` reverses their order.
        if down is None or (across is not None and across * step < down * step):
            source, moved = Cell(i, j + step), across
        else:
            source, moved = Cell(i + step, j), down
        grid[i - 1][j - 1] = moved
        grid[source.row - 1][source.col - 1] = None
        steps.append(SlideStep(Cell(i, j), moved, source))
        i, j = source


def _require_partial(p: Tableau) -> None:
    if not is_partial(p):
        raise DomainError("slides are defined on strictly increasing tableaux")


def forward_slide_trace(p: Tableau, start: Cell) -> tuple[Tableau, Cell, tuple[SlideStep, ...]]:
    """Forward slide returning the result, the vacated cell, and every hole move."""
    start = Cell(*start)
    _require_partial(p)
    if start not in inner_corners(p.shape.inner):
        raise DomainError(f"{start} is not an inner corner of {p.shape.inner.parts}")

    grid = [list(row) for row in p.rows]
    steps = _slide(grid, start, 1)
    vacated = steps[-1].source if steps else start
    grid[vacated.row - 1].pop()  # an inner corner of the outer shape ends its row
    if not grid[-1]:
        grid.pop()
    shape = SkewShape(p.shape.outer.remove_corner(vacated), p.shape.inner.remove_corner(start))
    return Tableau(shape, grid), vacated, tuple(steps)


def backward_slide_trace(p: Tableau, start: Cell) -> tuple[Tableau, Cell, tuple[SlideStep, ...]]:
    """Backward slide returning the result, the vacated cell, and every hole move."""
    start = Cell(*start)
    _require_partial(p)
    if start not in outer_corners(p.shape.outer):
        raise DomainError(f"{start} is not an outer corner of {p.shape.outer.parts}")

    grid = [list(row) for row in p.rows]
    if start.row > len(grid):
        grid.append([])
    grid[start.row - 1].append(None)
    steps = _slide(grid, start, -1)
    vacated = steps[-1].source if steps else start
    shape = SkewShape(p.shape.outer.add_corner(start), p.shape.inner.add_corner(vacated))
    return Tableau(shape, grid), vacated, tuple(steps)


def _rectify_slides(grid: Grid, inner: Partition) -> Iterator[tuple[Cell, list[SlideStep]]]:
    """Forward-slide ``grid`` in place until ``inner`` is empty; yield each corner and its moves.

    Each slide opens the first (smallest row, then column) inner corner: the
    rectified result is the same whatever order the corners are opened in, so
    one fixed order keeps traces stable.  Empty cells outside ``inner`` act as
    outside the shape, so vacated cells stay as ``None``.
    """
    while inner.parts:
        corner = inner_corners(inner)[0]
        yield corner, _slide(grid, corner, 1)
        inner = inner.remove_corner(corner)


def rectify(p: Tableau) -> Tableau:
    """Forward-slide until the inner shape is empty.

    The result does not depend on the order the inner corners are opened in.
    """
    if p.shape.is_normal:
        return p
    _require_partial(p)
    grid = [list(row) for row in p.rows]
    for _ in _rectify_slides(grid, p.shape.inner):
        pass
    rows = [[entry for entry in row if entry is not None] for row in grid]
    return Tableau.normal([row for row in rows if row])


def jdt_equivalent(p1: Tableau, p2: Tableau) -> bool:
    """True when both tableaux rectify to the same normal-shape tableau."""
    return rectify(p1) == rectify(p2)

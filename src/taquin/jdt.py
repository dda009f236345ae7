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
from .tableaux import Tableau, is_partial


class Relocation(NamedTuple):
    """One move: ``task``, a tableau entry or a task ID, slid from ``source`` into ``dest``."""

    task: int
    source: Cell
    dest: Cell


Grid = list[list[int | None]]


def _slide(grid: Grid, hole: Cell, step: int) -> list[Relocation]:
    """Fill ``hole`` in place until no neighbour can move in; return the moves.

    Empty and off-grid cells both read as ``None``.  With ``step=+1`` the
    smaller of the right/below entries moves in (a forward slide or completion
    cascade); with ``step=-1`` the larger of the left/above entries does.
    """
    i, j = hole.row - 1, hole.col - 1
    moves: list[Relocation] = []
    while True:
        row, i_down, j_across = grid[i], i + step, j + step
        across = row[j_across] if 0 <= j_across < len(row) else None
        down = grid[i_down][j] if 0 <= i_down < len(grid) and j < len(grid[i_down]) else None
        if across is None and down is None:
            return moves
        # Entries are positive, so scaling by ``step = -1`` reverses their order.
        if down is None or (across is not None and across * step < down * step):
            moved, j = across, j_across
        else:
            moved, i = down, i_down
        row[hole.col - 1], grid[i][j] = moved, None  # ``row`` is still the hole's row
        hole, dest = Cell(i + 1, j + 1), hole
        moves.append(Relocation(moved, hole, dest))


def _require_partial(p: Tableau) -> None:
    if not is_partial(p):
        raise DomainError("slides are defined on strictly increasing tableaux")


def forward_slide_trace(p: Tableau, start: Cell) -> tuple[Tableau, Cell, tuple[Relocation, ...]]:
    """Forward slide returning the result, the vacated cell, and every hole move."""
    start = Cell(*start)
    _require_partial(p)
    if start not in inner_corners(p.shape.inner):
        raise DomainError(f"{start} is not an inner corner of {p.shape.inner.parts}")

    grid = [list(row) for row in p.rows]
    moves = _slide(grid, start, 1)
    vacated = moves[-1].source if moves else start
    grid[vacated.row - 1].pop()  # an inner corner of the outer shape ends its row
    if not grid[-1]:
        grid.pop()
    shape = SkewShape(p.shape.outer.remove_corner(vacated), p.shape.inner.remove_corner(start))
    return Tableau(shape, grid), vacated, tuple(moves)


def backward_slide_trace(p: Tableau, start: Cell) -> tuple[Tableau, Cell, tuple[Relocation, ...]]:
    """Backward slide returning the result, the vacated cell, and every hole move."""
    start = Cell(*start)
    _require_partial(p)
    if start not in outer_corners(p.shape.outer):
        raise DomainError(f"{start} is not an outer corner of {p.shape.outer.parts}")

    grid = [list(row) for row in p.rows]
    if start.row > len(grid):
        grid.append([])
    grid[start.row - 1].append(None)
    moves = _slide(grid, start, -1)
    vacated = moves[-1].source if moves else start
    shape = SkewShape(p.shape.outer.add_corner(start), p.shape.inner.add_corner(vacated))
    return Tableau(shape, grid), vacated, tuple(moves)


def _rectify_slides(grid: Grid, inner: Partition) -> Iterator[tuple[Cell, list[Relocation]]]:
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

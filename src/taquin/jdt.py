"""Forward and backward jeu de taquin slides, rectification, and slide equivalence.

A forward slide opens a hole at an inner corner of the inner shape and pulls
the smaller of the right/below entries into it until the hole reaches an inner
corner of the outer shape; a backward slide is the mirror image and inverts it.
Both, and the completion cascades of ``hms``, run on one trusting kernel.
"""

from __future__ import annotations

from itertools import product, repeat
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


def _slide(grid: Grid, hole: Cell, step: int, log: list[int]) -> Cell:
    """Vacate ``hole`` and fill it in place until no neighbour can move in; return where it stopped.

    Empty and off-grid cells both read as ``None``.  With ``step=+1`` the
    smaller of the right/below entries moves in (a forward slide or completion
    cascade); with ``step=-1`` the larger of the left/above entries does.
    ``log`` gets the hole's offset ``i * w + j`` (0-based, ``w`` the first
    row's length), then each move's entry and source offset: a move's
    destination is the offset logged just before its entry.
    """
    i, j, w = hole.row - 1, hole.col - 1, len(grid[0])
    grid[i][j] = None
    log.append(i * w + j)
    while True:
        row, i_down, j_across = grid[i], i + step, j + step
        across = row[j_across] if 0 <= j_across < len(row) else None
        down = grid[i_down][j] if 0 <= i_down < len(grid) and j < len(grid[i_down]) else None
        if across is None and down is None:
            return Cell(i + 1, j + 1)
        # Entries are positive, so scaling by ``step = -1`` reverses their order.
        if down is None or (across is not None and across * step < down * step):
            row[j], row[j_across], j = across, None, j_across
            log.append(across)
        else:
            row[j], grid[i_down][j], i = down, None, i_down
            log.append(down)
        log.append(i * w + j)


_new = tuple.__new__  # a NamedTuple's own ``__new__`` adds a Python call per value


def _cell_table(grid: Grid) -> list[Cell]:
    """The cells of ``grid``'s bounding box, indexed by offset (see ``_slide``)."""
    cols = range(1, max(map(len, grid), default=0) + 1)
    return list(map(_new, repeat(Cell), product(range(1, len(grid) + 1), cols)))


def _relocations(log: list[int], cells: list[Cell]) -> tuple[Relocation, ...]:
    """The moves in one slide's ``log`` entries, with ``cells`` from ``_cell_table``."""
    moves = range(1, len(log), 2)
    return tuple([_new(Relocation, (log[k], cells[log[k + 1]], cells[log[k - 1]])) for k in moves])


def _replay(rows: tuple, log: list[int], ends: list[int]) -> Iterator[tuple[list[int], tuple]]:
    """Replay the slides logged up to each of ``ends`` over ``rows``, a tuple of row tuples.

    Yields each slide's entries and the rows after it, which share every row
    the slide did not rewrite; an empty slide (a trace's no-op) rewrites none.
    """
    grid, w, start = [list(row) for row in rows], max(map(len, rows), default=0), 0
    for end in ends:
        entries, start = log[start:end], end
        if entries:
            for k in range(1, len(entries), 2):
                i, j = divmod(entries[k - 1], w)
                grid[i][j] = entries[k]
            i, j = divmod(entries[-1], w)
            grid[i][j] = None
            first, last = entries[0] // w, i + 1
            rows = rows[:first] + tuple(map(tuple, grid[first:last])) + rows[last:]
        yield entries, rows


def _require_partial(p: Tableau) -> None:
    if not is_partial(p):
        raise DomainError("slides are defined on strictly increasing tableaux")


def forward_slide_trace(p: Tableau, start: Cell) -> tuple[Tableau, Cell, tuple[Relocation, ...]]:
    """Forward slide returning the result, the vacated cell, and every hole move."""
    start = Cell(*start)
    _require_partial(p)
    if start not in inner_corners(p.shape.inner):
        raise DomainError(f"{start} is not an inner corner of {p.shape.inner.parts}")

    grid, log = [list(row) for row in p.rows], []
    vacated = _slide(grid, start, 1, log)
    grid[vacated.row - 1].pop()  # an inner corner of the outer shape ends its row
    if not grid[-1]:
        grid.pop()
    shape = SkewShape(p.shape.outer.remove_corner(vacated), p.shape.inner.remove_corner(start))
    return Tableau(shape, grid), vacated, _relocations(log, _cell_table(p.rows))


def backward_slide_trace(p: Tableau, start: Cell) -> tuple[Tableau, Cell, tuple[Relocation, ...]]:
    """Backward slide returning the result, the vacated cell, and every hole move."""
    start = Cell(*start)
    _require_partial(p)
    if start not in outer_corners(p.shape.outer):
        raise DomainError(f"{start} is not an outer corner of {p.shape.outer.parts}")

    grid, log = [list(row) for row in p.rows], []
    if start.row > len(grid):
        grid.append([])
    grid[start.row - 1].append(None)
    vacated = _slide(grid, start, -1, log)
    shape = SkewShape(p.shape.outer.add_corner(start), p.shape.inner.add_corner(vacated))
    return Tableau(shape, grid), vacated, _relocations(log, _cell_table(grid))


def _rectify_slides(grid: Grid, inner: Partition, log: list[int], ends: list[int]) -> list[Cell]:
    """Forward-slide ``grid`` in place until ``inner`` is empty; return the corners opened.

    Each slide opens the first (smallest row, then column) inner corner: the
    rectified result is the same whatever order the corners are opened in, so
    one fixed order keeps traces stable.  Empty cells outside ``inner`` act as
    outside the shape, so vacated cells stay as ``None``.  Each slide goes to
    ``log`` (see ``_slide``), and then the log's length to ``ends``.
    """
    corners = []
    while inner.parts:
        corners.append(inner_corners(inner)[0])
        _slide(grid, corners[-1], 1, log)
        ends.append(len(log))
        inner = inner.remove_corner(corners[-1])
    return corners


def rectify(p: Tableau) -> Tableau:
    """Forward-slide until the inner shape is empty.

    The result does not depend on the order the inner corners are opened in.
    """
    if p.shape.is_normal:
        return p
    _require_partial(p)
    grid = [list(row) for row in p.rows]
    _rectify_slides(grid, p.shape.inner, [], [])
    rows = [[entry for entry in row if entry is not None] for row in grid]
    return Tableau.normal([row for row in rows if row])


def jdt_equivalent(p1: Tableau, p2: Tableau) -> bool:
    """True when both tableaux rectify to the same normal-shape tableau."""
    return rectify(p1) == rectify(p2)

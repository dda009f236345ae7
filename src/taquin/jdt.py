"""Forward and backward jeu de taquin slides, rectification, and slide equivalence.

A forward slide opens a hole at an inner corner of the inner shape and pulls
the smaller of the right/below entries into it until the hole reaches an inner
corner of the outer shape; a backward slide is the mirror image and inverts it.
Both, and ``hms``'s cascades, run on one trusting kernel over one flat list
(``_pad``): cell (i, j), 0-based, at offset ``i * W + j`` with ``W`` one more
than the widest row, so each row ends in a padding cell; a padding row follows
the last.  Idle and padding cells hold one sentinel: ``1 + max(entry)``, or 0
on negated entries.  ``_moves`` reads a slide's moves from its log, and
``_slide_rows`` runs one slide for both slide traces and a single completion.
"""

from __future__ import annotations

from itertools import chain, product, repeat
from typing import Iterator, NamedTuple, Sequence

from .errors import DomainError
from .partitions import Cell, Partition, SkewShape, inner_corners, outer_corners
from .tableaux import Tableau, _normal, is_partial


class Relocation(NamedTuple):
    """One move: ``task``, a tableau entry or a task ID, slid from ``source`` into ``dest``."""

    task: int
    source: Cell
    dest: Cell


def _pad(rows: Sequence[tuple[int | None, ...]], step: int = 1) -> tuple[list[int], int]:
    """``rows`` as ``_slide``'s flat grid, and its ``W``; ``step=-1`` negates the entries."""
    w = 1 + max(map(len, rows), default=0)
    flat = [*chain.from_iterable(row + (None,) * (w - len(row)) for row in rows), *(None,) * w]
    idle = 1 + max(filter(None, flat), default=0) if step > 0 else 0
    return [idle if entry is None else entry * step for entry in flat], w


def _slide(flat: list[int], k: int, step: int, w: int, log: list[int], where: dict) -> None:
    """Vacate offset ``k`` of a ``_pad`` grid and fill it in place until nothing can move in.

    The smaller of the entries at ``k + step`` and ``k + step * w`` moves in
    until it is the sentinel ``flat[-1]``; on negated entries (``step=-1``)
    that is the larger left/above one.  Off the grid, even left of or above
    cell (0, 0), is padding, so a move tests no bounds.  ``log`` gets ``k``,
    then each move's entry and source offset (its destination is the offset
    logged before its entry); ``where`` gets each moved entry's new offset.
    """
    idle, down, add = flat[-1], step * w, log.append
    add(k)
    while True:
        across, below = flat[k + step], flat[k + down]
        if across < below:
            flat[k], where[across] = across, k
            k += step
            add(across)
        elif below != idle:
            flat[k], where[below] = below, k
            k += down
            add(below)
        else:
            flat[k] = idle
            return
        add(k)


_new = tuple.__new__  # a NamedTuple's own ``__new__`` adds a Python call per value


def _cell_table(rows: Sequence[Sequence[object]]) -> list[Cell]:
    """The cells of ``rows``' box and padding column, each at its offset ``i * W + j``."""
    cols = range(1, 2 + max(map(len, rows), default=0))  # W columns
    return list(map(_new, repeat(Cell), product(range(1, len(rows) + 1), cols)))


def _moves(log: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """Each move in one slide's ``log`` entries as its ``(entry, source, dest)`` offsets."""
    return zip(log[1::2], log[2::2], log[:-1:2])


def _relocations(log: list[int], cells: Sequence[Cell] | dict) -> tuple[Relocation, ...]:
    """The moves in one slide's ``log`` entries; ``cells`` names each offset (``_cell_table``)."""
    return tuple([_new(Relocation, (t, cells[src], cells[dst])) for t, src, dst in _moves(log)])


def _replay(rows: tuple, log: list[int], ends: list[int]) -> Iterator[tuple[list[int], tuple]]:
    """Replay the slides logged up to each of ``ends`` over ``rows``, a tuple of row tuples.

    Yields each slide's entries and the rows after it, sharing the rows it left; offsets use ``W``.
    """
    grid, w, start = [list(row) for row in rows], 1 + max(map(len, rows), default=0), 0
    for end in ends:
        entries, start = log[start:end], end
        if entries:
            for k in range(1, len(entries), 2):
                i, j = divmod(entries[k - 1], w)
                grid[i][j] = entries[k]
            i, j = divmod(entries[-1], w)
            grid[i][j] = None
            first, last = sorted((entries[0] // w, i))  # a backward slide ends above its start
            rows = rows[:first] + tuple(map(tuple, grid[first : last + 1])) + rows[last + 1 :]
        yield entries, rows


def _require_partial(p: Tableau) -> None:
    if not is_partial(p):
        raise DomainError("slides are defined on strictly increasing tableaux")


def _slide_rows(rows: tuple, start: Cell, step: int) -> tuple[tuple, Cell, tuple[Relocation, ...]]:
    """Slide ``rows``, a tuple of row tuples, once from ``start`` (``step`` as ``_pad``'s): the
    rows after (sharing the rows it left), the vacated cell and the moves, as ``Cell``s."""
    (flat, w), log = _pad(rows, step), []
    _slide(flat, (start.row - 1) * w + start.col - 1, step, w, log, {})
    path = {k: Cell(k // w + 1, k % w + 1) for k in log[::2]}  # the cells the hole crossed
    log[1::2] = [entry * step for entry in log[1::2]]
    [(_, rows)] = _replay(rows, log, [len(log)])
    return rows, path[log[-1]], _relocations(log, path)


def forward_slide_trace(p: Tableau, start: Cell) -> tuple[Tableau, Cell, tuple[Relocation, ...]]:
    """Forward slide returning the result, the vacated cell, and every hole move."""
    start = Cell(*start)
    _require_partial(p)
    if start not in inner_corners(p.shape.inner):
        raise DomainError(f"{start} is not an inner corner of {p.shape.inner.parts}")
    rows, end, moves = _slide_rows(p.rows, start, 1)
    shape = SkewShape(p.shape.outer.remove_corner(end), p.shape.inner.remove_corner(start))
    rows = tuple(row[:n] for row, n in zip(rows, shape.outer.parts))  # drop the vacated cell
    return Tableau._of(shape, rows), end, moves


def backward_slide_trace(p: Tableau, start: Cell) -> tuple[Tableau, Cell, tuple[Relocation, ...]]:
    """Backward slide returning the result, the vacated cell, and every hole move."""
    start = Cell(*start)
    _require_partial(p)
    if start not in outer_corners(p.shape.outer):
        raise DomainError(f"{start} is not an outer corner of {p.shape.outer.parts}")
    rows = list(p.rows) + [()] * (start.row - len(p.rows))  # ``start`` may open a row
    rows[start.row - 1] += (None,)
    rows, end, moves = _slide_rows(tuple(rows), start, -1)
    shape = SkewShape(p.shape.outer.add_corner(start), p.shape.inner.add_corner(end))
    return Tableau._of(shape, rows), end, moves


def _rectify_slides(flat: list[int], w: int, inner: Partition, log: list, ends: list) -> list[Cell]:
    """Forward-slide a ``_pad`` grid in place until ``inner`` is empty; return the corners opened.

    Each opens the first inner corner (one order keeps traces stable); ``ends`` gets its log end.
    """
    corners, where = [], {}  # no caller reads the entries' offsets
    while inner.parts:
        corners.append(inner_corners(inner)[0])
        _slide(flat, (corners[-1].row - 1) * w + corners[-1].col - 1, 1, w, log, where)
        ends.append(len(log))
        inner = inner.remove_corner(corners[-1])
    return corners


def rectify(p: Tableau) -> Tableau:
    """Forward-slide until the inner shape is empty: any order of inner corners gives this."""
    _require_partial(p)
    if p.shape.is_normal:
        return p
    flat, w = _pad(p.rows)
    _rectify_slides(flat, w, p.shape.inner, [], [])
    rows = [[e for e in flat[k : k + w] if e != flat[-1]] for k in range(0, len(flat) - w, w)]
    return _normal(row for row in rows if row)


def jdt_equivalent(p1: Tableau, p2: Tableau) -> bool:
    """True when both tableaux rectify to the same normal-shape tableau."""
    return rectify(p1) == rectify(p2)

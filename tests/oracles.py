"""Reference implementations that the tests check the library against.

Most functions here are the loop-per-function code that the shared kernels
replaced, kept as a differential oracle: every descent check, slide,
completion cascade, rectification and RSK step is written out on its own,
with validation on every call.  The random filling and the region
derivation are the earlier versions built on sets and maps of cells.  The
tests in ``test_kernels.py`` require the library to agree with them move for
move.  ``completion_error`` is the scan that once checked every completion
sequence, and ``capacity_grid_error`` and ``task_set_error`` are the
``Fraction`` comparisons that once checked every capacity grid and task
set; ``random_hierarchical_capacities`` is the generator before it drew in
integer pairs.  ``knuth_neighbors`` and ``knuth_reachable_oracle`` decide Knuth
equivalence by brute force, independently of insertion tableaux.
``encode_trace`` renders a test-side trace from its events, where the
library's encoder and writer read the move log.  ``verify_trace`` shares
no code with the library either: it checks a printed trace against the
paper's greedy relocation rule.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from random import Random
from typing import Callable, Iterable, NamedTuple, Sequence

from conftest import shape_cells
from taquin.errors import DomainError, InvalidStateError, ResourceLimitError, ShapeError
from taquin.hms import (
    CapacityGrid,
    Completion,
    HmtState,
    RectifyCorner,
    Relocation,
    StateKind,
    TaskRun,
    TaskSet,
    TraceEvent,
    TurnaroundReport,
    classify_state,
)
from taquin.jsonio import encode_cell, encode_hmt_state
from taquin.partitions import (
    Cell,
    Partition,
    SkewShape,
    _is_positive_int,
    inner_corners,
    outer_corners,
)
from taquin.rsk import Permutation
from taquin.tableaux import ShapeKind, Tableau, _at, _cells

# The library always opens the first inner corner; the oracles still take any order.
SlidePolicy = Callable[[Sequence[Cell]], Cell]


class Trace(NamedTuple):
    """A trace as its initial state and events, as the oracles build it and the tests decode it.

    It equals ``(trace.initial, trace.events)`` of the library trace it matches.
    """

    initial: HmtState
    events: tuple[TraceEvent, ...]

    @property
    def final(self) -> HmtState:
        return self.events[-1].state if self.events else self.initial


def first_corner(corners: Sequence[Cell]) -> Cell:
    """Default slide policy: the lexicographically smallest (row, col) corner."""
    return corners[0]


def is_partial(t: Tableau) -> bool:
    """True when entries strictly increase along every row and column."""
    for i, row in enumerate(t.rows, start=1):
        for j, entry in enumerate(row, start=1):
            if entry is None:
                continue
            right = _at(t.rows, i, j + 1)
            below = _at(t.rows, i + 1, j)
            if right is not None and right <= entry:
                return False
            if below is not None and below <= entry:
                return False
    return True


def is_standard(t: Tableau) -> bool:
    """True when the tableau is partial and its entries are exactly 1..n."""
    return is_partial(t) and t.entries == frozenset(range(1, t.size + 1))


def descent_pairs(state: HmtState) -> tuple[tuple[Cell, Cell], ...]:
    """Adjacent occupied pairs whose lower-priority cell holds the higher-priority task.

    Pairs are reported as (left-or-above cell, right-or-below cell) in
    row-major scan order.  Works on any occupancy, valid region or not.
    """
    pairs: list[tuple[Cell, Cell]] = []
    for cell, task in _cells(state.occupancy):
        i, j = cell
        right = _at(state.occupancy, i, j + 1)
        if right is not None and right < task:
            pairs.append((cell, Cell(i, j + 1)))
        below = _at(state.occupancy, i + 1, j)
        if below is not None and below < task:
            pairs.append((cell, Cell(i + 1, j)))
    return tuple(pairs)


def _require_normal_partial(t: Tableau, op: str) -> None:
    if not t.shape.is_normal:
        raise DomainError(f"{op} needs a normal-shape tableau")
    if not is_partial(t):
        raise DomainError(f"{op} needs strictly increasing rows and columns")


def row_insert(p: Tableau, x: int) -> tuple[Tableau, Cell]:
    """Insert ``x`` by row bumping, returning the new tableau and the added cell.

    Each row either absorbs the incoming value at its end or has its smallest
    entry exceeding the value displaced into the next row.
    """
    _require_normal_partial(p, "row_insert")
    if not isinstance(x, int) or isinstance(x, bool) or x < 1:
        raise DomainError(f"can only insert positive integers, got {x!r}")
    if x in p.entries:
        raise DomainError(f"entry {x} already present")

    rows = [list(row) for row in p.rows]
    current = x
    i = 0
    while i < len(rows):
        row = rows[i]
        pos = bisect_right(row, current)
        if pos == len(row):
            break
        current, row[pos] = row[pos], current
        i += 1
    if i == len(rows):
        rows.append([])
    rows[i].append(current)
    return Tableau.normal(rows), Cell(i + 1, len(rows[i]))


def reverse_bump(p: Tableau, cell: Cell) -> tuple[Tableau, int]:
    """Undo a row insertion that ended at ``cell`` (an inner corner of the shape)."""
    _require_normal_partial(p, "reverse_bump")
    cell = Cell(*cell)
    if cell not in inner_corners(p.shape.outer):
        raise DomainError(f"{cell} is not an inner corner of {p.shape.outer.parts}")

    rows = [list(row) for row in p.rows]
    current = rows[cell.row - 1].pop()
    if not rows[cell.row - 1]:
        rows.pop()
    for k in range(cell.row - 2, -1, -1):
        row = rows[k]
        pos = bisect_left(row, current) - 1
        current, row[pos] = row[pos], current
    return Tableau.normal(rows), current


def rsk(pi: Permutation) -> tuple[Tableau, Tableau]:
    """Map a permutation to its insertion and recording tableau pair.

    The insertion tableau accumulates the word by row bumping; the recording
    tableau marks, with k, the cell created by the k-th insertion, so both
    grow through the same shape chain.
    """
    p = Tableau.normal([])
    q_rows: list[list[int]] = []
    for k, value in enumerate(pi.word, start=1):
        p, added = row_insert(p, value)
        if added.row > len(q_rows):
            q_rows.append([k])
        else:
            q_rows[added.row - 1].append(k)
    return p, Tableau.normal(q_rows)


def rsk_inverse(p: Tableau, q: Tableau) -> Permutation:
    """Recover the unique permutation whose insertion/recording pair is (p, q)."""
    if not (p.shape.is_normal and q.shape.is_normal and p.shape == q.shape):
        raise DomainError("insertion and recording tableaux must share one normal shape")
    if not (is_standard(p) and is_standard(q)):
        raise DomainError("both tableaux must be standard")

    placement = q.to_cell_map()
    cell_by_step = {step: cell for cell, step in placement.items()}
    word: list[int] = []
    current = p
    for k in range(p.size, 0, -1):
        current, value = reverse_bump(current, cell_by_step[k])
        word.append(value)
    word.reverse()
    return Permutation(tuple(word))


def forward_slide_trace(p: Tableau, start: Cell) -> tuple[Tableau, Cell, tuple[Relocation, ...]]:
    """Forward slide returning the result, the vacated cell, and every hole move."""
    start = Cell(*start)
    if not is_partial(p):
        raise DomainError("slides are defined on strictly increasing tableaux")
    if start not in inner_corners(p.shape.inner):
        raise DomainError(f"{start} is not an inner corner of {p.shape.inner.parts}")

    entries = p.to_cell_map()
    stops = set(inner_corners(p.shape.outer))
    hole = start
    steps: list[Relocation] = []
    while hole not in stops:
        right = entries.get(Cell(hole.row, hole.col + 1))
        below = entries.get(Cell(hole.row + 1, hole.col))
        assert right != below or right is None  # entries are distinct
        if below is None or (right is not None and right < below):
            source = Cell(hole.row, hole.col + 1)
            moved = right
        else:
            source = Cell(hole.row + 1, hole.col)
            moved = below
        assert moved is not None  # a non-corner hole always has an occupied neighbor
        steps.append(Relocation(moved, source, hole))
        entries[hole] = moved
        del entries[source]
        hole = source

    new_shape = SkewShape(
        p.shape.outer.remove_corner(hole),
        p.shape.inner.remove_corner(start),
    )
    return _rebuild(new_shape, entries), hole, tuple(steps)


def backward_slide_trace(p: Tableau, start: Cell) -> tuple[Tableau, Cell, tuple[Relocation, ...]]:
    """Backward slide returning the result, the vacated cell, and every hole move."""
    start = Cell(*start)
    if not is_partial(p):
        raise DomainError("slides are defined on strictly increasing tableaux")
    if start not in outer_corners(p.shape.outer):
        raise DomainError(f"{start} is not an outer corner of {p.shape.outer.parts}")

    entries = p.to_cell_map()
    stops = set(outer_corners(p.shape.inner))
    hole = start
    steps: list[Relocation] = []
    while hole not in stops:
        above = entries.get(Cell(hole.row - 1, hole.col))
        left = entries.get(Cell(hole.row, hole.col - 1))
        assert above != left or above is None
        if left is None or (above is not None and above > left):
            source = Cell(hole.row - 1, hole.col)
            moved = above
        else:
            source = Cell(hole.row, hole.col - 1)
            moved = left
        assert moved is not None
        steps.append(Relocation(moved, source, hole))
        entries[hole] = moved
        del entries[source]
        hole = source

    new_shape = SkewShape(
        p.shape.outer.add_corner(start),
        p.shape.inner.add_corner(hole),
    )
    return _rebuild(new_shape, entries), hole, tuple(steps)


def _rebuild(shape: SkewShape, entries: dict[Cell, int]) -> Tableau:
    rows = tuple(
        tuple(entries.get(Cell(i, j)) for j in range(1, shape.outer.row_len(i) + 1))
        for i in range(1, shape.outer.num_rows + 1)
    )
    return Tableau(shape, rows)


def forward_slide(p: Tableau, start: Cell) -> tuple[Tableau, Cell]:
    """Slide into an inner corner of the inner shape; returns (result, vacated cell)."""
    result, vacated, _ = forward_slide_trace(p, start)
    return result, vacated


def rectify(p: Tableau, slide_policy: SlidePolicy = first_corner) -> Tableau:
    """Forward-slide until the inner shape is empty.

    The result does not depend on ``slide_policy``; the default picks the
    lexicographically smallest (row, col) inner corner so traces are stable.
    """
    current = p
    while not current.shape.is_normal:
        corners = inner_corners(current.shape.inner)
        start = Cell(*slide_policy(corners))
        if start not in corners:
            raise DomainError(f"slide policy returned {start}, not one of {corners}")
        current, _ = forward_slide(current, start)
    return current


def random_standard_filling(rng: Random, shape: SkewShape) -> Tableau:
    """A uniformly-seeded random standard filling of ``shape`` with 1..size.

    Values are placed in increasing order on a random addable cell (one whose
    left and above neighbours inside the shape are already filled).
    """
    remaining = set(shape_cells(shape))
    entries: dict[Cell, int] = {}

    def addable(cell: Cell) -> bool:
        left = Cell(cell.row, cell.col - 1)
        above = Cell(cell.row - 1, cell.col)
        return (left not in remaining) and (above not in remaining)

    for value in range(1, shape.size + 1):
        frontier = sorted(cell for cell in remaining if addable(cell))
        cell = frontier[rng.randrange(len(frontier))]
        entries[cell] = value
        remaining.remove(cell)
    rows = tuple(
        tuple(entries.get(Cell(i, j)) for j in range(1, length + 1))
        for i, length in enumerate(shape.outer.parts, start=1)
    )
    return Tableau(shape, rows)


def skew_shape_of_cells(cells: Iterable[Cell]) -> SkewShape:
    """The skew shape whose cell set equals ``cells``, if one exists.

    Rows with no cells are given the least admissible width, which makes the
    returned (outer, inner) pair canonical.  Raises ShapeError when the cells
    do not form a skew diagram (gaps in a row, or rows that cannot be stacked).
    """
    cellset = {Cell(int(c[0]), int(c[1])) for c in cells}
    if not cellset:
        return SkewShape(Partition())
    if any(c.row < 1 or c.col < 1 for c in cellset):
        raise ShapeError("cells must have positive coordinates")

    cols_by_row: dict[int, list[int]] = {}
    for c in cellset:
        cols_by_row.setdefault(c.row, []).append(c.col)
    num_rows = max(cols_by_row)
    bounds: list[tuple[int, int] | None] = [None] * (num_rows + 1)
    for i, cols in sorted(cols_by_row.items()):
        cols.sort()
        if cols[-1] - cols[0] + 1 != len(cols):
            raise ShapeError(f"row {i} has a gap: columns {cols}")
        bounds[i] = (cols[0], cols[-1])

    outer = [0] * (num_rows + 1)
    inner = [0] * (num_rows + 1)
    width_below = 0
    for i in range(num_rows, 0, -1):
        if bounds[i] is None:
            # Empty row between occupied ones: both bounds collapse to the
            # least width that still nests above the row below.
            outer[i] = inner[i] = width_below
        else:
            first, last = bounds[i]
            outer[i] = last
            inner[i] = first - 1
        width_below = outer[i]

    outer_parts = outer[1:]
    inner_parts = inner[1:]
    for i in range(1, num_rows):
        if outer_parts[i - 1] < outer_parts[i] or inner_parts[i - 1] < inner_parts[i]:
            raise ShapeError("cells do not stack into a skew diagram")
    while inner_parts and inner_parts[-1] == 0:
        inner_parts.pop()
    return SkewShape(Partition(outer_parts), Partition(inner_parts))


def maximally_embedded(state: HmtState) -> tuple[SkewShape, Tableau]:
    """The skew shape of the occupied cells and the tableau they form.

    The earlier route: a cell-to-task map, the skew shape of its keys, and
    rows rebuilt by one cell lookup each.
    """
    entries = dict(_cells(state.occupancy))
    try:
        embedded = _rebuild(skew_shape_of_cells(entries.keys()), entries)
    except ShapeError as exc:
        raise InvalidStateError(f"occupied cells do not form a tableau region: {exc}") from exc
    if not state.shape.contains(embedded.shape.outer):
        raise InvalidStateError("embedded shape exceeds the processor grid")
    return embedded.shape, embedded


def _require_standard_normal(state: HmtState, op: str) -> None:
    kind, form = classify_state(state)
    if kind is not StateKind.STANDARD or form is not ShapeKind.NORMAL:
        raise DomainError(f"{op} needs a standard state of normal shape")


def reassign_on_completion(state: HmtState, task: int) -> tuple[HmtState, tuple[Relocation, ...]]:
    """Vacate the completed task's cell and run the greedy relocation cascade.

    While the idle cell has an occupied right or below neighbour, the
    higher-priority (smaller ID) of the two moves into it; the cascade stops
    when both are idle or outside the grid, which leaves the state standard
    and of normal shape again.
    """
    _require_standard_normal(state, "reassign_on_completion")
    hole = state.cell_of(task)
    grid = [list(row) for row in state.occupancy]
    grid[hole.row - 1][hole.col - 1] = None

    def occupant(i: int, j: int) -> int | None:
        if 1 <= i <= len(grid) and 1 <= j <= len(grid[i - 1]):
            return grid[i - 1][j - 1]
        return None

    relocations: list[Relocation] = []
    while True:
        right = occupant(hole.row, hole.col + 1)
        below = occupant(hole.row + 1, hole.col)
        if right is None and below is None:
            break
        if below is None or (right is not None and right < below):
            source = Cell(hole.row, hole.col + 1)
            mover = right
        else:
            source = Cell(hole.row + 1, hole.col)
            mover = below
        grid[hole.row - 1][hole.col - 1] = mover
        grid[source.row - 1][source.col - 1] = None
        relocations.append(Relocation(mover, source, hole))
        hole = source

    return HmtState(state.shape, grid, state.capacities), tuple(relocations)


def reassignment_sequence(a0: HmtState, completions: Iterable[int]) -> Trace:
    """Fold completion events over ``a0``, recording each reassignment.

    ``completions`` must be distinct task IDs assigned in ``a0`` (a full
    permutation or any prefix of one).  The first m-1 completions trigger
    relocation cascades; a final m-th completion leaves the lone surviving
    assignment in place and is recorded as a flagged no-op event.
    """
    _require_standard_normal(a0, "reassignment_sequence")
    completions = [int(task) for task in completions]
    assigned = set(a0.task_cells())
    if len(set(completions)) != len(completions):
        raise DomainError("completion sequence repeats a task")
    missing = [task for task in completions if task not in assigned]
    if missing:
        raise DomainError(f"completion of unassigned task {missing[0]}")

    m = a0.task_count
    events: list[TraceEvent] = []
    state = a0
    for index, task in enumerate(completions):
        if index < m - 1:
            state, relocations = reassign_on_completion(state, task)
            events.append(TraceEvent(Completion(task), relocations, state))
        else:
            # The last task's completion empties the workload but moves nothing.
            events.append(TraceEvent(Completion(task), (), state, noop=True))
    return Trace(a0, tuple(events))


def completion_error(a0: HmtState, completions: list) -> str | None:
    """The message ``hms.reassignment_sequence`` raises for ``completions`` on a standard normal
    ``a0``, or None where it accepts them: the scan it ran on every sequence before its set tests.
    """
    assigned = a0.task_cells()
    missing = [task for task in completions if not _is_positive_int(task) or task not in assigned]
    # Every completion that is no task ID is missing; only task IDs are sure to be hashable.
    if all(map(_is_positive_int, missing)) and len(set(completions)) != len(completions):
        return "completion sequence repeats a task"
    return f"completion of unassigned task {missing[0]!r}" if missing else None


def capacity_grid_error(shape: Partition, rates: Iterable[Iterable[object]]) -> Exception | None:
    """What ``CapacityGrid(shape, rates)`` raises, or None where it accepts: its checks as
    ``Fraction`` comparisons, before they ran on integer pairs."""
    try:
        if len(set(shape.parts)) > 1:
            raise DomainError(f"shape {shape.parts} is not canonical (equal row lengths)")
        grid = tuple(tuple(Fraction(r) for r in row) for row in rates)
        if tuple(map(len, grid)) != shape.parts:
            raise DomainError("capacity grid does not match its shape")
        for i, row in enumerate(grid):
            for j, rate in enumerate(row):
                if rate <= 0:
                    raise DomainError(f"capacity at ({i + 1},{j + 1}) must be positive")
                if j and row[j - 1] <= rate:
                    raise DomainError(f"capacities must strictly decrease along row {i + 1}")
                if i and grid[i - 1][j] <= rate:
                    raise DomainError(f"capacities must strictly decrease down column {j + 1}")
    except (DomainError, TypeError, ValueError, ZeroDivisionError) as exc:
        return exc
    return None


def task_set_error(requirements: Iterable[object]) -> Exception | None:
    """What ``TaskSet(requirements)`` raises, or None where it accepts: its check as
    ``Fraction`` comparisons, before it ran on integer pairs."""
    try:
        for task, requirement in enumerate(tuple(map(Fraction, requirements)), start=1):
            if requirement <= 0:
                raise DomainError(f"requirement of task {task} must be positive")
    except (DomainError, TypeError, ValueError, ZeroDivisionError) as exc:
        return exc
    return None


def random_hierarchical_capacities(rng: Random, shape: Partition) -> CapacityGrid:
    """Random positive rational rates strictly decreasing along rows and columns, drawn in
    ``Fraction`` arithmetic: each rate is the smaller neighbour's times a random tenth."""
    rows = shape.num_rows
    cols = shape.row_len(1)
    rates: list[list[Fraction]] = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            neighbours = []
            if i:
                neighbours.append(rates[i - 1][j])
            if j:
                neighbours.append(rates[i][j - 1])
            if neighbours:
                rates[i][j] = min(neighbours) * Fraction(rng.randint(1, 9), 10)
            else:
                rates[i][j] = Fraction(rng.randint(1, 64), rng.randint(1, 8))
    return CapacityGrid(shape, tuple(tuple(row) for row in rates))


def rectify_assignment(a0: HmtState, slide_policy: SlidePolicy = first_corner) -> Trace:
    """Relocate greedily until the occupied region is left-justified and top-aligned.

    Each event opens the chosen idle corner of the embedded inner shape and
    cascades one full forward slide; after as many events as the inner shape
    has cells, the state is standard and of normal shape.
    """
    shape, embedded = maximally_embedded(a0)
    if not is_partial(embedded):
        raise DomainError("rectify_assignment needs a standard state")

    events: list[TraceEvent] = []
    state = a0
    current = embedded
    while not current.shape.is_normal:
        corners = inner_corners(current.shape.inner)
        corner = Cell(*slide_policy(corners))
        if corner not in corners:
            raise DomainError(f"slide policy returned {corner}, not one of {corners}")
        current, _, relocations = forward_slide_trace(current, corner)
        grid = [list(row) for row in state.occupancy]
        for move in relocations:
            grid[move.dest.row - 1][move.dest.col - 1] = move.task
            grid[move.source.row - 1][move.source.col - 1] = None
        state = HmtState(state.shape, grid, state.capacities)
        events.append(TraceEvent(RectifyCorner(corner), relocations, state))
    return Trace(a0, tuple(events))


def encode_trace(trace: Trace) -> dict:
    """The JSON tree ``jsonio.encode_trace`` gives a library trace, walked event by event."""
    events = []
    for event in trace.events:
        trigger = event.trigger
        events.append({
            "trigger": {"completed": trigger.task} if isinstance(trigger, Completion)
            else {"rectify_corner": encode_cell(trigger.corner)},
            "relocations": [
                {"task": move.task, "from": encode_cell(move.source), "to": encode_cell(move.dest)}
                for move in event.relocations
            ],
            "state": encode_hmt_state(event.state),
            **({"noop": True} if event.noop else {}),
        })
    return {"initial": encode_hmt_state(trace.initial), "events": events}


def turnaround_sequential(
    a0: HmtState,
    tasks: TaskSet,
    caps: CapacityGrid,
    relocate: bool,
) -> TurnaroundReport:
    """Total turnaround of running tasks 1..m in priority order, one at a time.

    Each duration is requirement/capacity at the cell the task occupies when
    it starts.  With ``relocate`` the greedy cascade runs after every
    completion (relocations are cost-free), so each next task starts on the
    fastest processor; without it tasks run where initially assigned.
    """
    if caps.shape != a0.shape:
        raise DomainError("capacity grid shape differs from state shape")
    _require_standard_normal(a0, "turnaround_sequential")
    m = a0.task_count
    if sorted(a0.task_cells()) != list(range(1, m + 1)):
        raise DomainError("assigned tasks must be exactly 1..m")
    if tasks.m != m:
        raise DomainError(f"need requirements for exactly {m} tasks, got {tasks.m}")

    # Stop once a reduced partial sum outgrows what ``str`` prints (a digit is
    # under 10/3 bits; 0: no limit), checked after every term.
    digits = getattr(sys, "get_int_max_str_digits", int)()
    runs: list[TaskRun] = []
    total, state = Fraction(0), a0
    for task in range(1, m + 1):
        cell = state.cell_of(task) if relocate else a0.cell_of(task)
        rate = caps.rates[cell.row - 1][cell.col - 1]
        runs.append(TaskRun(task, cell, tasks.requirements[task - 1] / rate))
        total += runs[-1].duration
        if digits and max(total.numerator, total.denominator).bit_length() > digits * 10 // 3:
            raise ResourceLimitError(f"a turnaround sum has over {digits} digits to print")
        if relocate:
            state, _ = reassign_on_completion(state, task)
    return TurnaroundReport(total, tuple(runs))


def knuth_neighbors(pi: Permutation) -> frozenset[Permutation]:
    """All permutations one elementary Knuth transformation away.

    Each transformation rewrites a window of three consecutive letters whose
    values, with x < y < z, match one of the patterns yxz<->yzx (swap the last
    two) or xzy<->zxy (swap the first two).
    """
    word = pi.word
    neighbors: set[Permutation] = set()
    for k in range(len(word) - 2):
        a, b, c = word[k : k + 3]
        if b < a < c or c < a < b:
            swapped = word[:k] + (a, c, b) + word[k + 3 :]
            neighbors.add(Permutation(swapped))
        if a < c < b or b < c < a:
            swapped = word[:k] + (b, a, c) + word[k + 3 :]
            neighbors.add(Permutation(swapped))
    return frozenset(neighbors)


def knuth_reachable_oracle(pi: Permutation, tau: Permutation, max_length: int = 8) -> bool:
    """Breadth-first closure of elementary transformations.

    Exponentially slower than ``knuth_equivalent`` but independent of it, so it
    serves as the cross-check.  Guarded by ``max_length``.
    """
    if pi.n != tau.n:
        raise DomainError(f"length mismatch: {pi.n} vs {tau.n}")
    if pi.n > max_length:
        raise ResourceLimitError(f"closure search bounded to length {max_length}")

    seen = {pi}
    frontier = deque([pi])
    while frontier:
        current = frontier.popleft()
        if current == tau:
            return True
        for neighbor in knuth_neighbors(current):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return False


class TraceViolation(AssertionError):
    """A printed trace breaks the greedy relocation rule."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise TraceViolation(message)


def _same(a: object, b: object) -> bool:
    """JSON equality: unlike ``==``, ``true`` is not ``1`` and ``1.0`` is not ``1``."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _trace_cell(obj: object, what: str) -> tuple[int, int]:
    ok = isinstance(obj, list) and len(obj) == 2 and all(type(x) is int for x in obj)
    _require(ok, f"{what} {obj!r} is not a [row, col] pair")
    return obj[0], obj[1]


def _busy_right_below(grid: list[list[int | None]], hole: tuple[int, int]) -> dict:
    """The occupied right and below neighbours of ``hole`` on the mesh, cell to task."""
    i, j = hole
    busy = {}
    for r, c in ((i, j + 1), (i + 1, j)):
        if 1 <= r <= len(grid) and 1 <= c <= len(grid[r - 1]) and grid[r - 1][c - 1] is not None:
            busy[r, c] = grid[r - 1][c - 1]
    return busy


def _inner_shape(grid: list[list[int | None]]) -> set[tuple[int, int]]:
    """The idle cells weakly above and left of some task: the inner shape rectification empties."""
    inner, reach = set(), 0  # the rightmost column holding a task in this row or one below
    for i in range(len(grid), 0, -1):
        row = grid[i - 1]
        reach = max([reach, *(j for j, task in enumerate(row, start=1) if task is not None)])
        inner |= {(i, j) for j in range(1, min(reach, len(row)) + 1) if row[j - 1] is None}
    return inner


def verify_trace(trace: dict) -> None:
    """Check a trace's JSON, as ``simulate`` and ``rectify`` print it, against the paper's rule.

    Uses no library code: the initial cells are replayed move by move on a
    list of lists.  Each relocation must move a task into the adjacent idle
    cell, from its right or below; the task moved must be the smaller of the
    occupied right/below neighbours, and a cascade may stop only where both
    are idle or off the mesh.  A rectification opens an inner corner of what
    is left of the initial inner shape.  Each recorded state must equal the
    replayed one, and ``noop`` may mark only a trace's final event,
    completing the last task left (which such a completion must be).  Raises
    ``TraceViolation`` at the first event that breaks a rule.
    """
    _require(set(trace) == {"initial", "events"}, f"trace keys {sorted(trace)}")
    initial, events = trace["initial"], trace["events"]
    grid = [list(row) for row in initial["cells"]]
    _require(_same(list(map(len, grid)), initial["shape"]), "initial cells do not fill the shape")
    tasks = [task for row in grid for task in row if task is not None]
    ok = all(type(task) is int and task > 0 for task in tasks) and len(set(tasks)) == len(tasks)
    _require(ok, "initial tasks are not distinct positive integers")
    inner = _inner_shape(grid)
    for e, event in enumerate(events, start=1):
        at = f"event {e}"
        keys = {"trigger", "relocations", "state", "noop"}
        _require(set(event) <= keys, f"{at}: keys {sorted(event)}")
        trigger, moves = event["trigger"], event["relocations"]
        tasks = [task for row in grid for task in row if task is not None]
        noop = "noop" in event
        if noop:
            final = e == len(events) and len(tasks) == 1 and _same(trigger, {"completed": tasks[0]})
            _require(event["noop"] is True and final and moves == [], f"{at}: a no-op that is not "
                     "the final completion of the last task")
        elif set(trigger) == {"completed"}:
            task = trigger["completed"]
            _require(type(task) is int and task in tasks, f"{at}: task {task!r} is not assigned")
            _require(len(tasks) > 1, f"{at}: the last task's completion is not a no-op")
            i, row = next((i, row) for i, row in enumerate(grid, start=1) if task in row)
            hole = i, row.index(task) + 1
            row[hole[1] - 1] = None
        else:
            _require(set(trigger) == {"rectify_corner"}, f"{at}: trigger {trigger!r}")
            hole = _trace_cell(trigger["rectify_corner"], f"{at}: corner")
            on_mesh = 1 <= hole[0] <= len(grid) and 1 <= hole[1] <= len(grid[hole[0] - 1])
            _require(on_mesh and grid[hole[0] - 1][hole[1] - 1] is None, f"{at}: corner not idle")
            i, j = hole
            corner = hole in inner and not {(i, j + 1), (i + 1, j)} & inner
            _require(corner, f"{at}: {hole} is no inner corner of the inner shape left")
            inner.remove(hole)
        for n, move in enumerate([] if noop else moves, start=1):
            where = f"{at}, relocation {n}"
            _require(set(move) == {"task", "from", "to"}, f"{where}: keys {sorted(move)}")
            source, dest = _trace_cell(move["from"], where), _trace_cell(move["to"], where)
            _require(dest == hole, f"{where}: moves into {dest}, not the idle cell {hole}")
            busy = _busy_right_below(grid, hole)
            _require(source in busy, f"{where}: {source} is no occupied right/below neighbour")
            _require(_same(move["task"], busy[source]), f"{where}: {source} holds {busy[source]}")
            _require(busy[source] == min(busy.values()), f"{where}: a larger task moved")
            grid[dest[0] - 1][dest[1] - 1], grid[source[0] - 1][source[1] - 1] = busy[source], None
            hole = source
        if not noop:
            _require(not _busy_right_below(grid, hole), f"{at}: stops beside an occupied cell")
        replayed = {**initial, "cells": grid}
        _require(_same(event["state"], replayed), f"{at}: state differs from the replay")

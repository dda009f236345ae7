"""Hierarchical 2D mesh states: capacity grids, greedy reassignment, turnaround.

A mesh state is a canonical (rectangular) grid of processors whose cells may
hold task IDs; smaller IDs mean higher priority, and processor capacity
strictly decreases along rows and columns.  Completions and rectifications
relocate tasks greedily between adjacent cells, one move at a time.  States
are immutable snapshots; every function returns new values.
"""

from __future__ import annotations

import sys
from bisect import bisect
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, chain, compress, count, repeat
from math import gcd, lcm
from operator import floordiv, lt, mul, truediv
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, InvalidStateError, ResourceLimitError, ShapeError
from .jdt import Relocation, _cell_table, _pad, _rectify_slides, _relocations, _replay, _slide
from .jdt import _slide_rows
from .partitions import Cell, Partition, SkewShape, _is_positive_int, _skew_shape_of_rows
from .tableaux import ShapeKind, Tableau, _cells, _descents, is_partial


class StateKind(Enum):
    STANDARD = "standard"
    GENERALIZED = "generalized"


def _require_canonical(shape: Partition) -> None:
    if len(set(shape.parts)) > 1:
        raise DomainError(f"shape {shape.parts} is not canonical (equal row lengths)")


@dataclass(frozen=True)
class CapacityGrid:
    """Execution rate per processor cell, strictly decreasing along rows and columns."""

    shape: Partition
    rates: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        _require_canonical(self.shape)
        rates = tuple(tuple(Fraction(r) for r in row) for row in self.rates)
        object.__setattr__(self, "rates", rates)
        if tuple(map(len, rates)) != self.shape.parts:
            raise DomainError("capacity grid does not match its shape")
        for i, row in enumerate(rates):
            for j, rate in enumerate(row):
                if rate <= 0:
                    raise DomainError(f"capacity at ({i + 1},{j + 1}) must be positive")
                if j and row[j - 1] <= rate:
                    raise DomainError(f"capacities must strictly decrease along row {i + 1}")
                if i and rates[i - 1][j] <= rate:
                    raise DomainError(f"capacities must strictly decrease down column {j + 1}")


def default_capacity_grid(shape: Partition) -> CapacityGrid:
    """Capacities 2^-(i+j-2): an admissible hierarchy for when none is supplied."""
    rates = tuple(
        tuple(Fraction(1, 2 ** (i + j)) for j in range(shape.row_len(i + 1)))
        for i in range(shape.num_rows)
    )
    return CapacityGrid(shape, rates)


@dataclass(frozen=True)
class TaskSet:
    """Positive resource requirements for tasks 1..m (index = task ID - 1)."""

    requirements: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        reqs = tuple(Fraction(r) for r in self.requirements)
        object.__setattr__(self, "requirements", reqs)
        for task, requirement in enumerate(reqs, start=1):
            if requirement <= 0:
                raise DomainError(f"requirement of task {task} must be positive")

    @property
    def m(self) -> int:
        return len(self.requirements)


@dataclass(frozen=True)
class HmtState:
    """A canonical processor grid with an optional task ID per cell.

    Construction checks only structural well-formedness (grid dimensions,
    distinct positive task IDs).  Whether the occupied cells form a tableau
    region is a property of the state, surfaced by ``maximally_embedded`` and
    ``classify_state``, because legitimate operations (naive column sliding)
    can produce states whose occupied region is not a skew shape.
    """

    shape: Partition
    occupancy: tuple[tuple[int | None, ...], ...]
    capacities: CapacityGrid | None = None

    def __post_init__(self) -> None:
        _require_canonical(self.shape)
        grid = tuple(tuple(row) for row in self.occupancy)
        object.__setattr__(self, "occupancy", grid)
        if tuple(map(len, grid)) != self.shape.parts:
            raise DomainError("occupancy grid does not match its shape")
        seen: set[int] = set()
        for i, row in enumerate(grid, start=1):
            for j, task in enumerate(row, start=1):
                if task is None:
                    continue
                if not _is_positive_int(task):
                    raise DomainError(f"cell ({i},{j}) holds invalid task ID {task!r}")
                if task in seen:
                    raise DomainError(f"task {task} assigned to two cells")
                seen.add(task)
        if self.capacities is not None and self.capacities.shape != self.shape:
            raise DomainError("capacity grid shape differs from state shape")

    @classmethod
    def of(
        cls,
        shape: Iterable[int],
        rows: Iterable[Iterable[int | None]],
        capacities: CapacityGrid | None = None,
    ) -> HmtState:
        return cls(Partition(tuple(shape)), tuple(tuple(row) for row in rows), capacities)

    @property
    def task_count(self) -> int:
        return sum(1 for row in self.occupancy for task in row if task is not None)

    def task_cells(self) -> dict[int, Cell]:
        return {task: cell for cell, task in _cells(self.occupancy)}

    def cell_of(self, task: int) -> Cell:
        if _is_positive_int(task):
            for cell, entry in _cells(self.occupancy):
                if entry == task:
                    return cell
        raise DomainError(f"task {task!r} is not assigned")

    def _snapshot(self, occupancy: tuple[tuple[int | None, ...], ...]) -> HmtState:
        """This mesh holding ``occupancy``, unchecked: it may only move or drop tasks."""
        snapshot = object.__new__(HmtState)
        vars(snapshot).update(vars(self), occupancy=occupancy)
        return snapshot


def maximally_embedded(state: HmtState) -> tuple[SkewShape, Tableau]:
    """The skew shape of the occupied cells and the tableau they form (prefixes of the rows)."""
    rows = state.occupancy
    filled = [[j for j, task in enumerate(row, start=1) if task is not None] for row in rows]
    try:
        shape = _skew_shape_of_rows(filled)
    except ShapeError as exc:
        raise InvalidStateError(f"occupied cells do not form a tableau region: {exc}") from exc
    return shape, Tableau._of(shape, tuple(row[:n] for row, n in zip(rows, shape.outer.parts)))


def classify_state(state: HmtState) -> tuple[StateKind, ShapeKind]:
    """(standard | generalized, normal | skew) for a state with a valid region."""
    shape, embedded = maximally_embedded(state)
    kind = StateKind.STANDARD if is_partial(embedded) else StateKind.GENERALIZED
    form = ShapeKind.NORMAL if shape.is_normal else ShapeKind.SKEW
    return kind, form


def descent_pairs(state: HmtState) -> tuple[tuple[Cell, Cell], ...]:
    """Adjacent occupied pairs whose lower-priority cell holds the higher-priority task.

    Pairs are reported as (left-or-above cell, right-or-below cell) in
    row-major scan order.  Works on any occupancy, valid region or not.
    """
    return tuple(_descents(state.occupancy))


@dataclass(frozen=True)
class Completion:
    """Trigger: the named task finished and vacated its cell."""

    task: int


@dataclass(frozen=True)
class RectifyCorner:
    """Trigger: a greedy relocation cascade opened at this idle corner."""

    corner: Cell


@dataclass(frozen=True)
class TraceEvent:
    trigger: Completion | RectifyCorner
    relocations: tuple[Relocation, ...]
    state: HmtState
    noop: bool = False


class ReassignmentTrace:
    """A trace whose event e has trigger ``kind(args[e])`` and ends at ``log[ends[e]]``."""

    def __init__(self, initial: HmtState, kind: type, args: list, log: list[int], ends: list[int]):
        vars(self).update(initial=initial, _kind=kind, _args=args, _log=log, _ends=ends)

    def replay(self) -> Iterator[tuple[type, object, list[int], tuple]]:
        """Each event's trigger kind and argument, its log entries and the rows after it."""
        steps = _replay(self.initial.occupancy, self._log, self._ends)
        return ((self._kind, arg, log, rows) for arg, (log, rows) in zip(self._args, steps))

    @property
    def states(self) -> tuple[HmtState, ...]:
        """The assignment sequence: initial state plus one state per relocating event."""
        # Not ``cached_property``, which takes no lock since Python 3.12: the first tuple stored wins.
        if "states" not in vars(self):
            snapshots = [self.initial._snapshot(rows) for _, _, log, rows in self.replay() if log]
            vars(self).setdefault("states", (self.initial, *snapshots))
        return vars(self)["states"]

    @property
    def final(self) -> HmtState:
        return self.states[-1]

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """Each event, holding a state from ``states``: a no-op holds the one before it."""
        if "events" not in vars(self):
            states, cells, events = iter(self.states), _cell_table(self.initial.occupancy), []
            state = next(states)
            for arg, start, end in zip(self._args, [0, *self._ends], self._ends):
                state = next(states) if end > start else state
                moves = _relocations(self._log[start:end], cells)
                events.append(TraceEvent(self._kind(arg), moves, state, end == start))
            vars(self).setdefault("events", tuple(events))
        return vars(self)["events"]

    def __eq__(self, other: object) -> bool:
        # From one initial state, the triggers and the log fix every event (no event: no kind).
        return isinstance(other, ReassignmentTrace) and (
            self.initial, self._args and self._kind, self._args, self._log, self._ends
        ) == (other.initial, other._args and other._kind, other._args, other._log, other._ends)


def _require_standard_normal(state: HmtState, op: str) -> None:
    # One pass: each row a filled prefix no longer than the one above, entries increasing
    # along rows and down columns.  Only a state that fails is classified, for its error.
    above = [0] * max(state.shape.parts, default=0)
    for row in state.occupancy:
        n = len(row) if all(row) else row.index(None)  # task IDs are positive
        filled = row[:n]
        increasing = all(map(lt, filled, filled[1:])) and all(map(lt, above, filled))
        if any(row[n:]) or n > len(above) or not increasing:
            break
        above = filled
    else:
        return
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
    rows = state.occupancy  # only a task ID is looked up: ``True in row`` would find task 1
    i = next((i for i, row in enumerate(rows) if task in row), -1) if _is_positive_int(task) else -1
    if i < 0:
        raise DomainError(f"task {task!r} is not assigned")
    after, _, moves = _slide_rows(rows, Cell(i + 1, rows[i].index(task) + 1), 1)
    return state._snapshot(after), moves


def reassignment_sequence(a0: HmtState, completions: Iterable[int]) -> ReassignmentTrace:
    """Fold completion events over ``a0``, recording each reassignment.

    ``completions`` must be distinct task IDs assigned in ``a0`` (a full
    permutation or any prefix of one).  The first m-1 completions trigger
    relocation cascades; a final m-th completion leaves the lone surviving
    assignment in place and is recorded as a flagged no-op event.
    """
    _require_standard_normal(a0, "reassignment_sequence")
    completions = list(completions)
    (flat, w), log, ends = _pad(a0.occupancy), [], []
    # ``flat`` is the mesh padded for ``jdt._slide``: cell (i, j) at offset i * W + j, W = cols + 1,
    # idle and padding cells holding the sentinel ``flat[-1]``.  ``where`` maps each task to its
    # offset; the kernel stores each moved task's new one, so a cascade starts at ``where.pop``.
    where = {task: k for k, task in enumerate(flat) if task < flat[-1]}
    missing = [task for task in completions if not _is_positive_int(task) or task not in where]
    # Every completion that is no task ID is missing; only task IDs are sure to be hashable.
    if all(map(_is_positive_int, missing)) and len(set(completions)) != len(completions):
        raise DomainError("completion sequence repeats a task")
    if missing:
        raise DomainError(f"completion of unassigned task {missing[0]!r}")

    for task in completions[: len(where) - 1]:
        _slide(flat, where.pop(task), 1, w, log, where)
        ends.append(len(log))
    # The last task's completion empties the workload but moves nothing: a no-op.
    ends += [len(log)] * (len(completions) - len(ends))
    return ReassignmentTrace(a0, Completion, completions, log, ends)


def rectify_assignment(a0: HmtState) -> ReassignmentTrace:
    """Relocate greedily until the occupied region is left-justified and top-aligned.

    Each event opens the first (smallest row, then column) idle corner of the
    embedded inner shape and cascades one full forward slide; after as many
    events as the inner shape has cells, the state is standard and of normal
    shape.
    """
    shape, embedded = maximally_embedded(a0)
    if not is_partial(embedded):
        raise DomainError("rectify_assignment needs a standard state")

    # Idle cells outside the embedded shape read as off-grid: slide on the mesh itself.
    (flat, w), log, ends = _pad(a0.occupancy), [], []
    corners = _rectify_slides(flat, w, shape.inner, log, ends)
    return ReassignmentTrace(a0, RectifyCorner, corners, log, ends)


def naive_slide_up(a0: HmtState) -> HmtState:
    """Compact every column upward, preserving the order of its tasks.

    The traditional relocation baseline: each column's occupants move to its
    topmost cells.  The result may be generalized and its occupied region may
    no longer be a tableau region.
    """
    rows = a0.shape.num_rows
    columns = [[task for task in column if task is not None] for column in zip(*a0.occupancy)]
    padded = [column + [None] * (rows - len(column)) for column in columns]
    return a0._snapshot(tuple(zip(*padded)))


def reassignment_equivalent(s1: HmtState, s2: HmtState) -> bool:
    """True when greedy rectification ends both states in the same assignment."""
    if s1.shape != s2.shape:
        raise DomainError("states live on different processor grids")
    return rectify_assignment(s1).final.occupancy == rectify_assignment(s2).final.occupancy


class TaskRun(NamedTuple):
    """Execution record: the cell a task ran on and how long it took."""

    task: int
    cell: Cell
    duration: Fraction


@dataclass(frozen=True)
class TurnaroundReport:
    total: Fraction
    per_task: tuple[TaskRun, ...]

    def __getattr__(self, name: str) -> tuple[TaskRun, ...]:
        # Only a library report lacks ``per_task``: built on first read and stored as
        # ``ReassignmentTrace.states`` is, so every thread reads the first tuple stored.
        if name != "per_task" or "_runs" not in vars(self):
            raise AttributeError(name)
        return vars(self).setdefault("per_task", self._runs())


def _exact_sum(ps: list[int], qs: list[int], d: int, c: int) -> tuple[int, int]:
    """The sum of p/q times d/c as (numerator, denominator), stopping where a per-term sum does.

    Terms are positive and a prefix's lcm divides its run's, so no partial sum in a run passes
    what ``str`` prints (a digit is under 10/3 bits; 0: no limit) if the run's scaled end does
    not; from a run that does, terms are added one at a time and reduced past the limit.
    """
    digits = getattr(sys, "get_int_max_str_digits", int)()
    bits, ends, num, den, i = digits * 10 // 3, [0, *accumulate(map(int.bit_length, qs))], 0, 1, 0
    while i < len(qs):
        # The longest run whose denominators' bits fit beside the sum's: ``den`` if none fits.
        j = bisect(ends, ends[i] + bits - den.bit_length()) - 1 if digits else len(qs)
        run = lcm(den, *qs[i:j])
        top = num * (run // den) + sum(map(mul, ps[i:j], map(floordiv, repeat(run), qs[i:j])))
        if j <= i or digits and max(top * d, run * c).bit_length() > bits:
            break
        num, den, i = top, run, j
    num, den = num * d, den * c
    for p, q in zip(map(mul, ps[i:], repeat(d)), map(mul, qs[i:], repeat(c))):
        g = gcd(den, q)
        num, den = num * (q // g) + p * (den // g), den * (q // g)
        if max(num, den).bit_length() > bits:
            num, den = Fraction(num, den).as_integer_ratio()
            if max(num, den).bit_length() > bits:
                raise ResourceLimitError(f"a turnaround sum has over {digits} digits to print")
    return num, den


def turnaround_sequential(
    a0: HmtState,
    tasks: TaskSet,
    caps: CapacityGrid,
    relocate: bool,
) -> TurnaroundReport:
    """Total turnaround of running tasks 1..m in priority order, one at a time.

    Each duration is requirement/capacity at the cell the task occupies when
    it starts: its initial cell, or with ``relocate`` (cost-free cascades)
    always (1,1), the fastest processor, because each cascade is a jeu de
    taquin slide and keeps the state standard and of normal shape.  Requirement
    a/b on rate c/d adds a*d/(b*c); with relocation one rate scales the sum of a/b.
    """
    if caps.shape != a0.shape:
        raise DomainError("capacity grid shape differs from state shape")
    _require_standard_normal(a0, "turnaround_sequential")
    flat = list(chain.from_iterable(a0.occupancy))
    ids = list(filter(None, flat))
    m = len(ids)
    if max(ids, default=0) != m:  # m distinct positive IDs are 1..m when m is the largest
        raise DomainError("assigned tasks must be exactly 1..m")
    if tasks.m != m:
        raise DomainError(f"need requirements for exactly {m} tasks, got {tasks.m}")
    rates = list(compress(chain.from_iterable(caps.rates), flat))  # in row-major order
    a, b = tuple(zip(*map(Fraction.as_integer_ratio, tasks.requirements))) or ((), ())
    if relocate:  # every task starts on (1,1), where a standard normal state holds task 1
        starts, rates = [1] * m, rates[:1] * m
        c, d = rates[0].as_integer_ratio() if m else (1, 1)
        num, den = _exact_sum(a, b, d, c)
    else:
        starts = range(1, m + 1)
        rates = list(map(rates.__getitem__, sorted(range(m), key=ids.__getitem__)))
        c, d = tuple(zip(*map(Fraction.as_integer_ratio, rates))) or ((), ())
        num, den = _exact_sum(list(map(mul, a, d)), list(map(mul, b, c)), 1, 1)

    def runs() -> tuple[TaskRun, ...]:
        durations = map(truediv, tasks.requirements, rates)
        return tuple(map(TaskRun, count(1), map(a0.task_cells().get, starts), durations))

    report = object.__new__(TurnaroundReport)  # its ``per_task`` is built when first read
    vars(report).update(total=Fraction(num, den), _runs=runs)
    return report

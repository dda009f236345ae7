import dataclasses
import hashlib
import json
import operator
import pickle
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from random import Random

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shape_cells, slide_until_normal, state_from_tableau
from taquin.errors import DomainError, InvalidStateError, TaquinError
from taquin.hms import (
    CapacityGrid,
    Completion,
    HmtState,
    ReassignmentTrace,
    RectifyCorner,
    StateKind,
    TaskSet,
    TraceEvent,
    classify_state,
    default_capacity_grid,
    descent_pairs,
    maximally_embedded,
    naive_slide_up,
    reassign_on_completion,
    reassignment_equivalent,
    reassignment_sequence,
    rectify_assignment,
    turnaround_sequential,
)
from taquin.jsonio import canonical_dumps, decode_task_set, encode_trace, write_trace
from taquin.partitions import Cell, Partition, SkewShape
from taquin.randgen import (
    random_hierarchical_capacities,
    random_requirements,
    random_skew_assignment,
    random_standard_assignment,
    random_standard_filling,
    random_subpartition,
)
from taquin.tableaux import ShapeKind, Tableau

FIG3_A0 = HmtState.of((3, 3, 3), [[1, 2, 4], [3, 5, 7], [6, 8, 9]])
FIG4_T1 = HmtState.of(
    (4, 4, 4, 4),
    [[None, None, 1, 6], [None, None, 4, None], [2, 3, 5, None], [7, 8, None, None]],
)
FIG4_T2 = HmtState.of(
    (4, 4, 4, 4),
    [[None, None, 1, 6], [None, 3, 4, None], [2, 5, None, None], [7, 8, None, None]],
)
FIG6_B = HmtState.of(
    (4, 4, 4, 4), [[2, 1, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]]
)
FIG6_C = HmtState.of(
    (4, 4, 4, 4),
    [[None, None, 1, 5], [None, None, 3, 7], [2, 6, None, None], [4, 8, None, None]],
)


def grid(state):
    return [list(row) for row in state.occupancy]


def verify(trace) -> None:
    """Check the trace's printed JSON against the paper's relocation rule."""
    oracles.verify_trace(json.loads(canonical_dumps(encode_trace(trace))))


# --- capacity grids ---------------------------------------------------------


def test_capacity_grid_allows_antidiagonal_ties():
    caps = CapacityGrid(
        Partition((2, 2)),
        ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 4))),
    )
    assert caps.rates[0][1] == caps.rates[1][0] == Fraction(1, 2)


def test_capacity_grid_rejects_violations():
    with pytest.raises(DomainError):
        CapacityGrid(Partition((2, 1)), ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2),)))
    with pytest.raises(DomainError):
        CapacityGrid(Partition((2, 2)), ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 4))))
    with pytest.raises(DomainError):
        CapacityGrid(Partition((2, 2)), ((Fraction(1), Fraction(1, 2)), (Fraction(1), Fraction(1, 4))))
    with pytest.raises(DomainError):
        CapacityGrid(Partition((1,)), ((Fraction(0),),))


def test_default_capacity_grid():
    assert default_capacity_grid(Partition((1,))).rates == ((Fraction(1),),)
    assert default_capacity_grid(Partition((3, 3, 3))).rates[0] == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 4),
    )
    two = default_capacity_grid(Partition((2, 2)))
    assert two.rates == (
        (Fraction(1), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 4)),
    )
    with pytest.raises(DomainError):
        default_capacity_grid(Partition((2, 1)))


def test_random_capacities_are_admissible():
    rng = Random(3)
    for _ in range(20):
        shape = Partition((rng.randint(1, 4),) * rng.randint(1, 4))
        CapacityGrid(shape, random_hierarchical_capacities(rng, shape).rates)


# --- task sets ---------------------------------------------------------------


def test_task_set_validation():
    tasks = TaskSet((Fraction(4), Fraction(3), Fraction(2)))
    assert tasks.m == 3
    assert tasks.requirements[1] == 3
    with pytest.raises(DomainError):
        TaskSet((Fraction(0),))
    with pytest.raises(DomainError):
        decode_task_set({"1": 1, "3": 2})


class Ratio(Fraction):
    """A ``Fraction`` subclass: the constructors store a plain ``Fraction`` of its value."""


@st.composite
def rational_entries(draw, value: Fraction) -> object:
    """``value`` as a ``Fraction``, a ``Ratio``, a ``"p/q"`` string, or an int where it is one."""
    forms = [value, Ratio(value), f"{value.numerator}/{value.denominator}", str(value)]
    if value.denominator == 1:
        forms.append(int(value))
    return draw(st.sampled_from(forms))


RATIONALS = st.builds(Fraction, st.integers(-3, 12), st.integers(1, 4))


@st.composite
def capacity_inputs(draw) -> tuple[Partition, list[list[object]]]:
    """A strictly decreasing grid with up to two faults: an entry replaced by 0, a negative,
    its left or upper neighbour, or any small rational; or a row one entry short."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    top = Fraction(draw(st.integers(22, 40)))  # above the 6 drops of at most 3 to a far corner
    drop = st.builds(Fraction, st.integers(1, 3), st.integers(1, 4))
    values = [[top] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            if i or j:
                values[i][j] = min(values[i - 1][j] if i else top, values[i][j - 1] if j else top)
                values[i][j] -= draw(drop)
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        fault = draw(st.sampled_from(["zero", "negative", "left", "upper", "any"]))
        if fault == "left" and j:
            values[i][j] = values[i][j - 1]
        elif fault == "upper" and i:
            values[i][j] = values[i - 1][j]
        elif fault in ("zero", "negative"):
            values[i][j] = Fraction(0 if fault == "zero" else -draw(st.integers(1, 5)))
        elif fault == "any":
            values[i][j] = draw(RATIONALS)
    grid = [[draw(rational_entries(value)) for value in row] for row in values]
    if draw(st.integers(0, 9)) == 0:
        grid[draw(st.integers(0, rows - 1))].pop()
    return Partition((cols,) * rows), grid


def assert_stored(stored: tuple, given: list) -> None:
    """Every stored entry is a plain ``Fraction`` of its input, the same object if it was one."""
    assert stored == tuple(map(Fraction, given))
    assert all(type(kept) is Fraction for kept in stored)
    assert all(kept is entry for kept, entry in zip(stored, given) if type(entry) is Fraction)


@settings(max_examples=300, deadline=None)
@given(capacity_inputs())
def test_capacity_grid_checks_accept_and_report_as_the_fraction_comparisons_did(case):
    shape, rates = case
    expected = oracles.capacity_grid_error(shape, rates)
    try:
        caps = CapacityGrid(shape, tuple(map(tuple, rates)))
    except DomainError as exc:
        assert type(exc) is type(expected) and str(exc) == str(expected)
    else:
        assert expected is None
        for stored, row in zip(caps.rates, rates, strict=True):
            assert_stored(stored, row)


@settings(max_examples=300, deadline=None)
@given(st.lists(RATIONALS.flatmap(rational_entries), max_size=8))
def test_task_set_checks_accept_and_report_as_the_fraction_comparisons_did(requirements):
    expected = oracles.task_set_error(requirements)
    try:
        tasks = TaskSet(tuple(requirements))
    except DomainError as exc:
        assert type(exc) is type(expected) and str(exc) == str(expected)
    else:
        assert expected is None
        assert_stored(tasks.requirements, requirements)


# --- states and embedding ----------------------------------------------------


def test_state_validation():
    with pytest.raises(DomainError):
        HmtState.of((2, 1), [[1, 2], [3]])
    with pytest.raises(DomainError):
        HmtState.of((2, 2), [[1, 1], [None, None]])
    with pytest.raises(DomainError):
        HmtState.of((2, 2), [[1, 2]])
    with pytest.raises(DomainError):
        HmtState.of(
            (2, 2),
            [[1, None], [None, None]],
            default_capacity_grid(Partition((3, 3))),
        )


def test_maximally_embedded_worked_example():
    shape, embedded = maximally_embedded(FIG4_T1)
    assert shape == SkewShape.of((4, 3, 3, 2), (2, 2))
    assert embedded == Tableau.skew(
        (4, 3, 3, 2), (2, 2), [[None, None, 1, 6], [None, None, 4], [2, 3, 5], [7, 8]]
    )


def test_maximally_embedded_full_grid_and_gaps():
    shape, embedded = maximally_embedded(FIG6_B)
    assert shape.is_normal and shape.outer.parts == (4, 4, 4, 4)
    assert embedded.size == 16

    with pytest.raises(InvalidStateError):
        maximally_embedded(HmtState.of((3, 3, 3), [[1, None, 2], [None] * 3, [None] * 3]))
    with pytest.raises(InvalidStateError):
        maximally_embedded(HmtState.of((1, 1, 1), [[1], [None], [2]]))


def test_maximally_embedded_handles_empty_leading_rows():
    state = HmtState.of((3, 3, 3), [[None, None, None], [None, 1, 2], [3, 4, None]])
    shape, _ = maximally_embedded(state)
    assert (shape.outer.parts, shape.inner.parts) == ((3, 3, 2), (3, 1))
    final = rectify_assignment(state).final
    assert grid(final) == [[1, 2, None], [3, 4, None], [None, None, None]]


def test_maximally_embedded_rejects_row_starts_moving_right():
    # Row starts may only move weakly leftward going down.
    state = HmtState.of((3, 3, 3), [[None, None, None], [None, 1, 2], [None, None, 3]])
    with pytest.raises(InvalidStateError):
        maximally_embedded(state)


def test_classify_state_examples():
    assert classify_state(FIG6_B) == (StateKind.GENERALIZED, ShapeKind.NORMAL)
    assert classify_state(FIG6_C) == (StateKind.STANDARD, ShapeKind.SKEW)
    assert classify_state(FIG3_A0) == (StateKind.STANDARD, ShapeKind.NORMAL)


# --- descent pairs -----------------------------------------------------------


def test_descent_pairs_examples():
    assert descent_pairs(FIG6_B) == ((Cell(1, 1), Cell(1, 2)),)
    assert descent_pairs(FIG3_A0) == ()
    slid = naive_slide_up(FIG6_C)
    assert descent_pairs(slid) == (
        (Cell(1, 2), Cell(1, 3)),
        (Cell(2, 2), Cell(2, 3)),
    )


def test_descent_pairs_vertical():
    state = HmtState.of((2, 2), [[2, 3], [1, None]])
    assert descent_pairs(state) == ((Cell(1, 1), Cell(2, 1)),)


# --- completion-driven reassignment ------------------------------------------


def test_reassign_on_completion_first_event():
    state, relocations = reassign_on_completion(FIG3_A0, 1)
    assert grid(state) == [[2, 4, 7], [3, 5, 9], [6, 8, None]]
    assert [(m.task, tuple(m.source), tuple(m.dest)) for m in relocations] == [
        (2, (1, 2), (1, 1)),
        (4, (1, 3), (1, 2)),
        (7, (2, 3), (1, 3)),
        (9, (3, 3), (2, 3)),
    ]


def test_reassign_on_completion_second_event():
    a1, _ = reassign_on_completion(FIG3_A0, 1)
    a2, _ = reassign_on_completion(a1, 3)
    assert grid(a2) == [[2, 4, 7], [5, 8, 9], [6, None, None]]


def test_reassign_on_completion_single_cell():
    state, relocations = reassign_on_completion(HmtState.of((1,), [[1]]), 1)
    assert grid(state) == [[None]]
    assert relocations == ()


def test_reassign_on_completion_rejects_bad_input():
    with pytest.raises(DomainError):
        reassign_on_completion(FIG3_A0, 99)
    with pytest.raises(DomainError):
        reassign_on_completion(FIG6_C, 1)  # skew
    with pytest.raises(DomainError):
        reassign_on_completion(FIG6_B, 1)  # generalized


def test_reassignment_sequence_reproduces_full_example():
    trace = reassignment_sequence(FIG3_A0, (1, 3, 2, 5, 8, 4, 6, 7, 9))
    expected = [
        [[1, 2, 4], [3, 5, 7], [6, 8, 9]],
        [[2, 4, 7], [3, 5, 9], [6, 8, None]],
        [[2, 4, 7], [5, 8, 9], [6, None, None]],
        [[4, 7, 9], [5, 8, None], [6, None, None]],
        [[4, 7, 9], [6, 8, None], [None, None, None]],
        [[4, 7, 9], [6, None, None], [None, None, None]],
        [[6, 7, 9], [None, None, None], [None, None, None]],
        [[7, 9, None], [None, None, None], [None, None, None]],
        [[9, None, None], [None, None, None], [None, None, None]],
    ]
    assert [grid(s) for s in trace.states] == expected
    assert len(trace.events) == 9
    assert trace.events[-1].noop and trace.events[-1].relocations == ()
    assert trace.events[-1].trigger == Completion(9)
    assert all(not event.noop for event in trace.events[:-1])
    verify(trace)
    for state in trace.states:
        assert classify_state(state) == (StateKind.STANDARD, ShapeKind.NORMAL)
        assert descent_pairs(state) == ()


def test_reassignment_sequence_prefix_and_pair():
    trace = reassignment_sequence(HmtState.of((2,), [[1, 2]]), (1, 2))
    assert grid(trace.states[-1]) == [[2, None]]
    assert len(trace.events) == 2 and trace.events[-1].noop

    prefix = reassignment_sequence(FIG3_A0, (1, 3))
    assert len(prefix.events) == 2
    assert not any(event.noop for event in prefix.events)


def test_reassignment_sequence_rejects_bad_completions():
    with pytest.raises(DomainError):
        reassignment_sequence(FIG3_A0, (1, 1))
    with pytest.raises(DomainError):
        reassignment_sequence(FIG3_A0, (1, 99))


@pytest.mark.parametrize("task", [2.7, True, "3", [1], {1}])
def test_reassignment_sequence_rejects_non_int_task_ids(task):
    with pytest.raises(DomainError):
        reassignment_sequence(FIG3_A0, [task])


def test_reassignment_sequence_error_messages():
    # Unhashable completions are reported as unassigned before the repeat check hashes them.
    for completions, message in (
        ([[1]], "completion of unassigned task [1]"),
        ([{1}], "completion of unassigned task {1}"),
        ([1, [1], [1]], "completion of unassigned task [1]"),
        ([1.0], "completion of unassigned task 1.0"),
        ([True], "completion of unassigned task True"),
        ([1, 1], "completion sequence repeats a task"),
        ([2, 1, 2, 99], "completion sequence repeats a task"),
        ([2, 99], "completion of unassigned task 99"),
    ):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            reassignment_sequence(FIG3_A0, completions)


def test_reassign_on_completion_rejects_bool_task_id():
    with pytest.raises(DomainError):
        reassign_on_completion(FIG3_A0, True)


PARTIAL_2X2 = HmtState.of((2, 2), [[1, 2], [3, None]])
LOOKUPS = [0, -1, 4, 9, 10, 11, 99, 2**70, True, False, 1.0, 3.0, "1", None, [1]]


@pytest.mark.parametrize("state", [FIG3_A0, PARTIAL_2X2], ids=["full-3x3", "partial-2x2"])
@pytest.mark.parametrize("task", LOOKUPS, ids=repr)
def test_reassign_on_completion_finds_exactly_the_assigned_task_ids(state, task):
    """Idle and padding cells of the slide's grid hold m + 1 (10 and 4 here): never a task."""
    if type(task) is int and any(task in row for row in state.occupancy):
        assert reassign_on_completion(state, task) == oracles.reassign_on_completion(state, task)
        return
    with pytest.raises(DomainError) as caught:
        reassign_on_completion(state, task)
    assert type(caught.value) is DomainError
    assert str(caught.value) == f"task {task!r} is not assigned"


class TaskId(int):
    """A task ID of a subclass of ``int``: it fails the set tests' type check, not the scan."""


def test_reassignment_sequence_accepts_int_subclasses_and_the_empty_sequence():
    assert reassignment_sequence(FIG3_A0, [TaskId(1), 3]) == reassignment_sequence(FIG3_A0, [1, 3])
    assert reassignment_sequence(FIG3_A0, [3, TaskId(1)]).final.occupancy == (
        reassignment_sequence(FIG3_A0, [3, 1]).final.occupancy
    )
    empty = reassignment_sequence(FIG3_A0, iter(()))
    assert empty.states == (FIG3_A0,) and empty.events == ()


COMPLETION_ENTRIES = st.one_of(
    st.integers(-1, 11),
    st.sampled_from([True, False, 1.0, 2.5, "3", None, TaskId(2), TaskId(11)]),
    st.lists(st.integers(1, 3), max_size=2),
)


@st.composite
def completion_lists(draw, state: HmtState) -> list:
    """A prefix of a random order of ``state``'s tasks with up to two entries of any kind inserted."""
    order = list(draw(st.permutations(sorted(state.task_cells()))))
    order = order[: draw(st.integers(0, len(order)))]
    for _ in range(draw(st.integers(0, 2))):
        order.insert(draw(st.integers(0, len(order))), draw(COMPLETION_ENTRIES))
    return order


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([FIG3_A0, PARTIAL_2X2]), st.data())
def test_completion_checks_accept_and_report_as_the_scan_did(state, data):
    completions = data.draw(completion_lists(state))
    expected = oracles.completion_error(state, completions)
    try:
        trace = reassignment_sequence(state, completions)
    except DomainError as exc:
        assert type(exc) is DomainError and str(exc) == expected
    else:
        assert expected is None
        assert trace == reassignment_sequence(state, list(map(int, completions)))


@pytest.mark.parametrize("state,task,cell", [(FIG3_A0, 9, (3, 3)), (PARTIAL_2X2, 3, (2, 1))])
def test_completing_a_task_with_no_right_or_below_neighbour_moves_nothing(state, task, cell):
    after, moves = reassign_on_completion(state, task)
    assert moves == ()
    assert after.occupancy[cell[0] - 1][cell[1] - 1] is None
    assert grid(after) == [[None if t == task else t for t in row] for row in state.occupancy]


def test_priority_order_completion_keeps_smallest_on_top():
    rng = Random(23)
    for _ in range(30):
        state = random_standard_assignment(rng, min_tasks=2)
        m = state.task_count
        for task in range(1, m):
            state, _ = reassign_on_completion(state, task)
            assert state.occupancy[0][0] == task + 1


def promote(state: HmtState) -> HmtState:
    """One promotion round on a full mesh: complete task 1, admit m at the freed cell, relabel."""
    m = state.task_count
    state, _ = reassign_on_completion(state, 1)
    assert state.occupancy[-1][-1] is None
    relabelled = [[m if t is None else t - 1 for t in row] for row in state.occupancy]
    return HmtState(state.shape, relabelled)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_promotion_has_order_rows_times_cols(rows, cols, seed):
    """Schützenberger promotion on a full r x c mesh: rc rounds give back the start.

    One round completes task 1, admits task rc+1 at the freed cell and
    relabels every task t as t-1.  The cascade must always free (r, c).
    """
    shape = Partition((cols,) * rows)
    start = HmtState(shape, random_standard_filling(Random(seed), SkewShape(shape)).rows)
    state = start
    for _ in range(rows * cols):
        state = promote(state)
    assert state == start


def evacuate(a0: HmtState) -> HmtState:
    """Schützenberger evacuation of a full mesh, read off its completion sequence.

    Tasks 1..m complete in turn, and event k writes m+1-k into the cell it
    vacates: the source of its last relocation, or the completed task's own
    cell when nothing moved.
    """
    m = a0.task_count
    grid: list[list[int | None]] = [[None] * len(row) for row in a0.occupancy]
    before = a0
    for k, event in enumerate(reassignment_sequence(a0, range(1, m + 1)).events, start=1):
        assert before.occupancy[0][0] == k  # the slide keeps the next task on (1,1)
        vacated = event.relocations[-1].source if event.relocations else before.cell_of(k)
        grid[vacated.row - 1][vacated.col - 1] = m + 1 - k
        before = event.state
    return HmtState(a0.shape, grid)


def check_evacuation(a0: HmtState) -> None:
    """On a rectangle, evacuation is the 180-degree rotation with each i read as m+1-i.

    Hence it is an involution (Stanley, "Promotion and evacuation",
    Electron. J. Combin. 16(2), 2009).
    """
    m = a0.task_count
    evacuated = evacuate(a0)
    rotated = tuple(tuple(m + 1 - t for t in reversed(row)) for row in reversed(a0.occupancy))
    assert evacuated.occupancy == rotated
    assert evacuate(evacuated) == a0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_evacuation_is_rotation_and_involution(rows, cols, seed):
    shape = Partition((cols,) * rows)
    check_evacuation(HmtState(shape, random_standard_filling(Random(seed), SkewShape(shape)).rows))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_promotion_conjugated_by_evacuation_is_its_inverse(rows, cols, seed):
    """On a rectangle, promotion and evacuation satisfy ∂ε = ε∂⁻¹ (Stanley 2009).

    ∂ has order rc (see above), so ∂⁻¹ is ∂ applied rc - 1 times.
    """
    shape = Partition((cols,) * rows)
    start = HmtState(shape, random_standard_filling(Random(seed), SkewShape(shape)).rows)
    inverse = start
    for _ in range(rows * cols - 1):
        inverse = promote(inverse)
    assert promote(evacuate(start)) == evacuate(inverse)


def test_evacuation_is_rotation_and_involution_at_60_by_60():
    # Filled along antidiagonals, then at random.
    k = 60
    order = sorted(((i, j) for i in range(k) for j in range(k)), key=lambda c: (c[0] + c[1], c[1]))
    grid = [[0] * k for _ in range(k)]
    for task, (i, j) in enumerate(order, start=1):
        grid[i][j] = task
    check_evacuation(HmtState.of((k,) * k, grid))
    shape = Partition((k,) * k)
    check_evacuation(HmtState(shape, random_standard_filling(Random(60), SkewShape(shape)).rows))


def assert_untouched_rows_shared(initial, events, holes) -> None:
    """Each event's state shares, as the same object, every row its cascade did not touch.

    A cascade touches the row of the cell it opens (``holes``, one per event)
    and the rows of each relocation's source and destination.
    """
    before = initial
    for event, hole in zip(events, holes, strict=True):
        touched = {hole.row} | {c.row for m in event.relocations for c in (m.source, m.dest)}
        for row, (old, new) in enumerate(zip(before.occupancy, event.state.occupancy), start=1):
            assert row in touched or new is old, (event, row)
        before = event.state


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1), st.booleans())
def test_snapshots_share_the_rows_a_cascade_does_not_touch(rows, cols, seed, with_caps):
    rng = Random(seed)
    mesh = Partition((cols,) * rows)
    caps = random_hierarchical_capacities(rng, mesh) if with_caps else None
    a0 = HmtState(mesh, random_standard_filling(rng, SkewShape(mesh)).rows, caps)
    order = rng.sample(range(1, a0.task_count + 1), a0.task_count)
    trace = reassignment_sequence(a0, order)
    holes = [state.cell_of(event.trigger.task) for event, state in zip(trace.events, trace.states)]
    assert_untouched_rows_shared(trace.initial, trace.events, holes)
    assert trace.events[-1].noop and trace.events[-1].state is trace.states[-1]

    after, moves = reassign_on_completion(a0, order[0])
    events = (TraceEvent(Completion(order[0]), moves, after),)
    assert_untouched_rows_shared(a0, events, [a0.cell_of(order[0])])

    skew = SkewShape(mesh, random_subpartition(rng, mesh))
    trace = rectify_assignment(HmtState(mesh, random_standard_filling(rng, skew).rows, caps))
    corners = [event.trigger.corner for event in trace.events]
    assert_untouched_rows_shared(trace.initial, trace.events, corners)


# --- rectification -----------------------------------------------------------


def test_rectify_assignment_reproduces_comparison_example():
    trace = rectify_assignment(FIG6_C)
    assert len(trace.events) == 4
    assert grid(trace.final) == [
        [1, 3, 5, None],
        [2, 6, 7, None],
        [4, None, None, None],
        [8, None, None, None],
    ]
    assert [tuple(e.trigger.corner) for e in trace.events] == [(2, 2), (1, 2), (2, 1), (1, 1)]
    verify(trace)
    for state in trace.states:
        assert classify_state(state)[0] is StateKind.STANDARD
        assert descent_pairs(state) == ()
    assert classify_state(trace.final) == (StateKind.STANDARD, ShapeKind.NORMAL)


def test_rectify_assignment_matches_tableau_rectification():
    trace = rectify_assignment(FIG4_T1)
    assert grid(trace.final) == [
        [1, 3, 4, 6],
        [2, 8, None, None],
        [5, None, None, None],
        [7, None, None, None],
    ]
    assert len(trace.events) == 4  # one event per vacated inner cell


def test_rectify_assignment_normal_input_is_noop():
    trace = rectify_assignment(FIG3_A0)
    assert trace.events == ()
    assert trace.final == FIG3_A0


def test_rectify_assignment_rejects_generalized():
    with pytest.raises(DomainError):
        rectify_assignment(naive_slide_up(FIG6_C))


def test_rectify_assignment_policy_independent_final():
    rng = Random(29)
    for _ in range(20):
        state = random_skew_assignment(rng)
        _, embedded = maximally_embedded(state)
        last = slide_until_normal(embedded, lambda corners: corners[-1])
        final = rectify_assignment(state).final
        assert final.occupancy == state_from_tableau(last, state.shape.parts).occupancy


def test_rectify_assignment_event_triggers_are_corners():
    trace = rectify_assignment(FIG4_T2)
    assert all(isinstance(e.trigger, RectifyCorner) for e in trace.events)
    assert len(trace.events) == 3


def all_rectification_outcomes(state):
    """Final occupancies over every possible sequence of corner choices.

    Independent single-event stepper: one full cascade per recursion level,
    mirroring what one trace event does.
    """
    from taquin.jdt import forward_slide_trace
    from taquin.partitions import inner_corners

    shape, embedded = maximally_embedded(state)
    if shape.is_normal:
        return {state.occupancy}
    outcomes = set()
    for corner in inner_corners(shape.inner):
        _, _, moves = forward_slide_trace(embedded, corner)
        moved = [list(row) for row in state.occupancy]
        for move in moves:
            moved[move.dest.row - 1][move.dest.col - 1] = move.task
            moved[move.source.row - 1][move.source.col - 1] = None
        outcomes |= all_rectification_outcomes(HmtState(state.shape, moved, state.capacities))
    return outcomes


def test_random_traces_relocate_legally():
    rng = Random(47)
    for _ in range(50):
        state = random_standard_assignment(rng, min_tasks=2)
        completions = sorted(state.task_cells())
        rng.shuffle(completions)
        verify(reassignment_sequence(state, completions))
        verify(rectify_assignment(random_skew_assignment(rng)))


def assert_events_hold_states(trace) -> None:
    """Each relocating event holds the next state of ``trace.states``; a no-op the one before."""
    states = iter(trace.states)
    state = next(states)
    for event in trace.events:
        state = state if event.noop else next(states)
        assert event.state is state
    assert next(states, None) is None


def test_states_final_equality_and_encoding_build_no_events():
    completions = (1, 3, 2, 5, 8, 4, 6, 7, 9)
    builds = (
        lambda: rectify_assignment(FIG6_C),
        lambda: reassignment_sequence(FIG3_A0, completions),  # its last event is a no-op
    )
    readers = (
        lambda t, u: t.states, lambda t, u: t.final, operator.eq, lambda t, u: encode_trace(t)
    )
    for build in builds:
        for read in readers:
            trace, other = build(), build()
            read(trace, other)
            assert "events" not in vars(trace) and "events" not in vars(other)
        states_first, events_first = build(), build()
        states = states_first.states
        assert states_first.events and states_first.states is states
        events = events_first.events
        assert events_first.states and events_first.events is events
        assert_events_hold_states(states_first)
        assert_events_hold_states(events_first)
    assert builds[1]().events[-1].noop


def test_threads_reading_one_trace_share_its_events():
    """Threads that race to read one trace get one events tuple and states tuple, and write one
    text, whichever of the two each reads first."""
    mesh = Partition((40,) * 40)
    a0 = HmtState(mesh, random_standard_filling(Random(40), SkewShape(mesh)).rows)
    trace = reassignment_sequence(a0, range(1, mesh.n + 1))
    start = threading.Barrier(4)

    def read(i):
        start.wait(timeout=60)
        if i % 2:  # half the threads read the states first
            states, events, final = trace.states, trace.events, trace.final
        else:
            events, states, final = trace.events, trace.states, trace.final
        digest = hashlib.sha256()
        write_trace(trace, lambda text: digest.update(text.encode()))
        return events, states, final, digest.digest()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that their first reads overlap
    try:
        with ThreadPoolExecutor(4) as pool:
            reads = list(pool.map(read, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    events, states, final, text = reads[0]
    assert len(events) == mesh.n
    for other_events, other_states, other_final, other_text in reads[1:]:
        assert other_events is events and other_final is final
        assert all(map(operator.is_, other_states, states))
        assert other_text == text
    assert trace.events is events
    assert_events_hold_states(trace)


def test_traces_are_equal_when_their_initial_states_and_events_are():
    order = (1, 3, 2, 5, 8, 4, 6, 7, 9)
    trace = reassignment_sequence(FIG3_A0, order)
    assert trace == reassignment_sequence(FIG3_A0, order)
    assert rectify_assignment(FIG6_C) == rectify_assignment(FIG6_C)
    # Rebuilt with one field changed: the initial state, one trigger or one move.
    names = ("initial", "_kind", "_args", "_log", "_ends")
    initial, kind, args, log, ends = map(vars(trace).get, names)
    assert ReassignmentTrace(initial, kind, list(args), list(log), list(ends)) == trace
    with_caps = HmtState(FIG3_A0.shape, FIG3_A0.occupancy, default_capacity_grid(FIG3_A0.shape))
    moved = list(log)
    moved[1] = 4  # the first move's task
    for other in (
        ReassignmentTrace(with_caps, kind, args, log, ends),
        ReassignmentTrace(initial, kind, [2, *args[1:]], log, ends),
        ReassignmentTrace(initial, kind, args, moved, ends),
    ):
        assert other != trace and trace != other
    assert trace != (trace.initial, trace.events) and trace != object()
    # No event: the trigger kind is never read.
    assert reassignment_sequence(FIG3_A0, []) == rectify_assignment(FIG3_A0)


def test_rectify_assignment_confluent_for_small_inner_shapes():
    rng = Random(43)
    states = [FIG4_T1, FIG4_T2, FIG6_C]
    while len(states) < 40:
        state = random_skew_assignment(rng)
        if maximally_embedded(state)[0].inner.n <= 4:
            states.append(state)
    for state in states:
        outcomes = all_rectification_outcomes(state)
        assert len(outcomes) == 1
        assert next(iter(outcomes)) == rectify_assignment(state).final.occupancy


# --- naive slide-up -----------------------------------------------------------


def test_naive_slide_up_worked_example():
    slid = naive_slide_up(FIG6_C)
    assert grid(slid) == [
        [2, 6, 1, 5],
        [4, 8, 3, 7],
        [None, None, None, None],
        [None, None, None, None],
    ]


def test_naive_slide_up_idempotent_on_top_justified():
    assert naive_slide_up(FIG3_A0) == FIG3_A0
    slid = naive_slide_up(FIG6_C)
    assert naive_slide_up(slid) == slid


def test_naive_slide_up_can_create_descents():
    slid = naive_slide_up(FIG4_T1)
    assert len(descent_pairs(slid)) >= 1


def test_naive_slide_up_preserves_capacities():
    caps = default_capacity_grid(Partition((4, 4, 4, 4)))
    state = HmtState(FIG6_C.shape, FIG6_C.occupancy, caps)
    assert naive_slide_up(state).capacities == caps


# --- the mark of a checked state ------------------------------------------------


MARK = "_standard_normal"  # the key a state that passed the standard-normal check holds


def unmarked(state: HmtState) -> HmtState:
    return HmtState(state.shape, state.occupancy, state.capacities)


def outcomes(state: HmtState) -> list:
    """What each operation that needs a standard normal state does with ``state``."""
    tasks, caps = TaskSet((1,) * state.shape.n), default_capacity_grid(state.shape)
    calls = (
        lambda: reassign_on_completion(state, 1),
        lambda: reassignment_sequence(state, [1]),
        lambda: turnaround_sequential(state, tasks, caps, relocate=False),
        lambda: turnaround_sequential(state, tasks, caps, relocate=True),
    )
    results = []
    for call in calls:
        try:
            results.append(call())
        except TaquinError as exc:
            results.append((type(exc), str(exc)))
    return results


@pytest.mark.parametrize("capacities", [False, True])
def test_a_marked_state_equals_hashes_prints_and_pickles_as_an_unmarked_copy(capacities):
    caps = default_capacity_grid(FIG3_A0.shape) if capacities else None
    state = HmtState(FIG3_A0.shape, FIG3_A0.occupancy, caps)
    copy, expected = unmarked(state), outcomes(unmarked(state))
    assert outcomes(state) == expected  # the first call marks ``state``
    assert MARK in vars(state) and MARK not in vars(copy)
    loaded = pickle.loads(pickle.dumps(state))
    for marked in (state, loaded):
        assert marked == copy and copy == marked and hash(marked) == hash(copy)
        assert repr(marked) == repr(copy)
        assert pickle.loads(pickle.dumps(copy)) == marked
    assert dataclasses.replace(state) == copy and MARK not in vars(dataclasses.replace(state))
    assert outcomes(loaded) == outcomes(state) == expected


def test_a_state_that_fails_the_check_is_never_marked():
    messages = [(DomainError, f"{op} needs a standard state of normal shape") for op in (
        "reassign_on_completion", "reassignment_sequence", "turnaround_sequential",
        "turnaround_sequential",
    )]
    for failing in (FIG6_C, FIG6_B, FIG4_T1):
        state = unmarked(failing)
        assert outcomes(state) == outcomes(state) == messages
        assert MARK not in vars(state)
    # A marked state is still checked for what the mark does not cover: its task IDs.
    gapped = HmtState.of((2, 2), [[1, 2], [3, 5]])
    first, second = outcomes(gapped), outcomes(gapped)
    assert MARK in vars(gapped) and first == second
    assert first[2:] == [(DomainError, "assigned tasks must be exactly 1..m")] * 2


def test_snapshots_of_a_marked_state_are_unmarked_and_checked_again():
    full = HmtState.of((4, 4, 4, 4), [range(1, 5), range(5, 9), range(9, 13), range(13, 17)])
    outcomes(full)
    assert MARK in vars(full)
    skew, generalized = full._snapshot(FIG4_T1.occupancy), full._snapshot(FIG6_B.occupancy)
    refused = [skew, naive_slide_up(skew), generalized, naive_slide_up(generalized)]
    for state in refused:
        results = outcomes(state)
        assert results == outcomes(unmarked(state))
        assert all(isinstance(result, tuple) for result in results)  # each call is refused
    snapshots = [
        *refused,
        naive_slide_up(full),
        reassign_on_completion(full, 1)[0],
        *reassignment_sequence(full, range(1, 17)).states[1:],
        *rectify_assignment(skew).states[1:],
    ]
    assert all(vars(s).keys() == {"shape", "occupancy", "capacities"} for s in snapshots)


# --- reassignment equivalence --------------------------------------------------


def test_reassignment_equivalent_examples():
    assert reassignment_equivalent(FIG4_T1, FIG4_T2)
    assert reassignment_equivalent(FIG4_T1, FIG4_T1)
    assert not reassignment_equivalent(FIG6_C, FIG4_T1)
    with pytest.raises(DomainError):
        reassignment_equivalent(FIG4_T1, FIG3_A0)


def test_equivalent_reassignments_have_knuth_equivalent_reading_words():
    from conftest import equivalent_skew_pair
    from taquin.rsk import Permutation, knuth_equivalent
    from taquin.tableaux import reading_word

    rng = Random(41)
    grid = (7,) * 7  # large enough to hold any slid 8-cell tableau
    for _ in range(25):
        a, b = equivalent_skew_pair(rng)
        s1 = state_from_tableau(a, grid)
        s2 = state_from_tableau(b, grid)
        assert reassignment_equivalent(s1, s2)
        _, emb1 = maximally_embedded(s1)
        _, emb2 = maximally_embedded(s2)
        assert knuth_equivalent(
            Permutation(reading_word(emb1)), Permutation(reading_word(emb2))
        )


# --- turnaround ----------------------------------------------------------------


def worked_instance():
    state = HmtState.of((2, 2), [[1, 2], [3, 4]])
    caps = CapacityGrid(
        Partition((2, 2)), ((Fraction(4), Fraction(2)), (Fraction(2), Fraction(1)))
    )
    tasks = TaskSet((Fraction(4), Fraction(3), Fraction(2), Fraction(1)))
    return state, tasks, caps


def test_turnaround_static_worked_example():
    state, tasks, caps = worked_instance()
    report = turnaround_sequential(state, tasks, caps, relocate=False)
    assert report.total == Fraction(9, 2)
    assert [(r.task, tuple(r.cell), r.duration) for r in report.per_task] == [
        (1, (1, 1), Fraction(1)),
        (2, (1, 2), Fraction(3, 2)),
        (3, (2, 1), Fraction(1)),
        (4, (2, 2), Fraction(1)),
    ]


def test_turnaround_relocating_worked_example():
    state, tasks, caps = worked_instance()
    report = turnaround_sequential(state, tasks, caps, relocate=True)
    assert report.total == Fraction(5, 2)
    assert all(run.cell == Cell(1, 1) for run in report.per_task)
    assert [run.duration for run in report.per_task] == [
        Fraction(1),
        Fraction(3, 4),
        Fraction(1, 2),
        Fraction(1, 4),
    ]


def test_turnaround_single_task():
    state = HmtState.of((2, 2), [[1, None], [None, None]])
    caps = default_capacity_grid(Partition((2, 2)))
    tasks = TaskSet((Fraction(5),))
    static = turnaround_sequential(state, tasks, caps, relocate=False)
    moved = turnaround_sequential(state, tasks, caps, relocate=True)
    assert static.total == moved.total == Fraction(5)


def test_turnaround_rejects_bad_input():
    state, tasks, caps = worked_instance()
    with pytest.raises(DomainError):
        turnaround_sequential(state, TaskSet((Fraction(1),)), caps, relocate=False)
    with pytest.raises(DomainError):
        turnaround_sequential(state, tasks, default_capacity_grid(Partition((3, 3, 3))), False)
    gapped = HmtState.of((2, 2), [[1, 2], [3, 5]])
    with pytest.raises(DomainError):
        turnaround_sequential(gapped, tasks, caps, relocate=False)


def test_turnaround_improvement_property():
    rng = Random(31)
    for _ in range(40):
        state = random_standard_assignment(rng, min_tasks=2)
        caps = random_hierarchical_capacities(rng, state.shape)
        tasks = random_requirements(rng, state.task_count)
        static = turnaround_sequential(state, tasks, caps, relocate=False).total
        moved = turnaround_sequential(state, tasks, caps, relocate=True).total
        assert moved < static
        assert moved == sum(tasks.requirements, Fraction(0)) / caps.rates[0][0]


def test_descent_swap_strictly_improves_cost():
    # On a fixed-priority grid with decreasing requirements, swapping the tasks
    # of any descent pair strictly lowers the total execution time.
    rng = Random(37)
    checked = 0
    while checked < 25:
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        shape = Partition((cols,) * rows)
        caps = random_hierarchical_capacities(rng, shape)
        m = rows * cols
        order = list(range(1, m + 1))
        rng.shuffle(order)
        cells_iter = shape_cells(Partition((cols,) * rows))
        placement = dict(zip(cells_iter, order))
        state = HmtState(
            shape,
            tuple(
                tuple(placement[Cell(i, j)] for j in range(1, cols + 1))
                for i in range(1, rows + 1)
            ),
        )
        requirements = []
        current = Fraction(rng.randint(50, 100), rng.randint(1, 4))
        for _ in range(m):
            requirements.append(current)
            current *= Fraction(rng.randint(1, 9), 10)
        tasks = TaskSet(tuple(requirements))

        def cost(assignment):
            return sum(
                (tasks.requirements[t - 1] / caps.rates[i - 1][j - 1] for t, (i, j) in assignment.items()),
                Fraction(0),
            )

        for first, second in descent_pairs(state):
            assignment = {task: cell for cell, task in placement.items()}
            swapped = dict(assignment)
            a, b = placement[first], placement[second]
            swapped[a], swapped[b] = swapped[b], swapped[a]
            assert cost(swapped) < cost(assignment)
            checked += 1


RATE_ROWS = [[12, 6, 4], [6, 4, 3], [4, 3, 2]]  # strictly decreasing along rows and columns
REQUIREMENTS = [3, 1, 4, 1, 5, 9, 2, 6, 5]
INSTANCES = {  # a full 3 x 3 mesh's rates and requirements, given as each kind of input
    "ints": (RATE_ROWS, REQUIREMENTS),
    "strings": (
        [["24/2", "6", "8/3"], ["6/1", "8/3", "5/2"], ["8/3", "5/2", "1/7"]],
        [f"{r}/{k + 2}" for k, r in enumerate(REQUIREMENTS)],
    ),
    "fractions": (
        [[Fraction(r, 7) for r in row] for row in RATE_ROWS],
        [Fraction(r, 10 - k) for k, r in enumerate(REQUIREMENTS)],
    ),
}


@pytest.mark.parametrize("kind", INSTANCES)
def test_turnaround_of_int_string_and_fraction_inputs_matches_the_oracle(kind):
    rates, requirements = INSTANCES[kind]
    caps, tasks = CapacityGrid(Partition((3, 3, 3)), rates), TaskSet(requirements)
    assert caps.rates == tuple(tuple(map(Fraction, row)) for row in rates)
    assert tasks.requirements == tuple(map(Fraction, requirements))
    for state in (FIG3_A0, HmtState.of((3, 3, 3), [[1, 2, 3], [4, 5, 6], [7, 8, 9]])):
        for relocate in (False, True):
            report = turnaround_sequential(state, tasks, caps, relocate)
            assert report == oracles.turnaround_sequential(state, tasks, caps, relocate)


def test_task_sets_and_capacity_grids_compare_replace_and_pickle_by_their_fields():
    tasks = TaskSet((1, "2/3", Fraction(10, 14)))
    caps = CapacityGrid(Partition((2, 2)), ((3, "5/2"), (Fraction(4, 2), "1")))
    same_tasks = TaskSet((Fraction(1), Fraction(2, 3), Fraction(5, 7)))
    same_caps = CapacityGrid(Partition((2, 2)), ((3, Fraction(5, 2)), (2, 1)))
    for value, same in ((tasks, same_tasks), (caps, same_caps)):
        assert value == same and hash(value) == hash(same) and repr(value) == repr(same)
        assert vars(value).keys() == vars(same).keys() == {f.name for f in dataclasses.fields(value)}
        loaded = pickle.loads(pickle.dumps(value))
        assert loaded == same and vars(loaded) == vars(same)
    longer = dataclasses.replace(tasks, requirements=(4, "1/2", 6, 8))
    assert longer.requirements == (4, Fraction(1, 2), 6, 8)
    scaled = dataclasses.replace(caps, rates=((6, 5), (4, 2)))
    assert scaled.rates == ((6, 5), (4, 2)) and all(type(r) is Fraction for r in scaled.rates[0])
    state = HmtState.of((2, 2), [[1, 2], [3, 4]])
    for relocate in (False, True):
        report = turnaround_sequential(state, longer, scaled, relocate)
        assert report == oracles.turnaround_sequential(state, longer, scaled, relocate)
    assert TaskSet(()) == pickle.loads(pickle.dumps(TaskSet(())))

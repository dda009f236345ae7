"""Differential tests: the shared kernels against the loop-per-function oracles.

Every public function built on ``tableaux._descents``, ``jdt._slide`` or
``tableaux._bump``, and the one-pass ``is_partial`` and ``is_standard``, must
agree with its earlier implementation in ``oracles.py``: same results, same
descent pairs, slide steps and relocations in the same order, same trace
states.  Every tableau the library builds unchecked (``Tableau._of``) must
equal, hash and pickle as the checked one.  The row-grid random filling and region
derivation must agree with the earlier cell-set versions: same values, same
random draws, same error messages.
"""

from __future__ import annotations

import gc
import math
import pickle
import sys
import tracemalloc
from fractions import Fraction
from functools import partial
from random import Random

import oracles
import pytest
from conftest import shape_cells
from hypothesis import given, settings
from hypothesis import strategies as st

from taquin import hms, jdt
from taquin.errors import DomainError, InvalidStateError, ResourceLimitError, ShapeError
from taquin.hms import CapacityGrid, HmtState, TaskSet
from taquin.partitions import (
    Partition,
    SkewShape,
    inner_corners,
    outer_corners,
    skew_shape_of_cells,
)
from taquin.randgen import (
    random_hierarchical_capacities,
    random_requirements,
    random_standard_filling,
    random_subpartition,
)
from taquin.rsk import Permutation, rsk, rsk_inverse
from taquin.tableaux import Tableau, is_partial, is_standard, reverse_bump, row_insert

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def partitions_in_box(draw, rows: int, cols: int, min_cells: int = 0) -> Partition:
    parts = sorted(draw(st.lists(st.integers(1, cols), max_size=rows)), reverse=True)
    if sum(parts) < min_cells:
        parts = [cols] * rows
    return Partition(tuple(parts))


@st.composite
def skew_shapes(draw, rows: int, cols: int) -> SkewShape:
    outer = draw(partitions_in_box(rows, cols, min_cells=1))
    # Sorting row-wise bounded lengths keeps each one inside its outer row.
    inner = sorted((draw(st.integers(0, part)) for part in outer.parts), reverse=True)
    return SkewShape(outer, Partition(tuple(part for part in inner if part)))


@st.composite
def skew_syt(draw, rows: int = 8, cols: int = 8):
    """A standard filling of a random skew shape of up to rows x cols (64) cells."""
    return random_standard_filling(Random(draw(SEEDS)), draw(skew_shapes(rows, cols)))


def embed(filling, rows: int, cols: int) -> HmtState:
    grid = [[None] * cols for _ in range(rows)]
    for cell, entry in filling.to_cell_map().items():
        grid[cell.row - 1][cell.col - 1] = entry
    return HmtState(Partition((cols,) * rows), grid)


def policies(seed: int):
    """Fresh first-corner, last-corner and seeded random slide policies for the oracles."""
    rng = Random(seed)
    return (
        oracles.first_corner,
        lambda corners: corners[-1],
        lambda corners: corners[rng.randrange(len(corners))],
    )


@st.composite
def generalized_fillings(draw, rows: int = 8, cols: int = 8) -> Tableau:
    """A random skew shape holding 1..size in any order, so rows and columns may descend."""
    shape = draw(skew_shapes(rows, cols))
    return fill(shape, draw(st.permutations(range(1, shape.size + 1))))


def fill(shape: SkewShape, word) -> Tableau:
    """``shape`` holding ``word`` in row-major order."""
    entries = iter(word)
    grid = [
        [None if j <= shape.inner.row_len(i) else next(entries) for j in range(1, length + 1)]
        for i, length in enumerate(shape.outer.parts, start=1)
    ]
    return Tableau(shape, grid)


@st.composite
def any_occupancy(draw, max_side: int = 8) -> HmtState:
    """A mesh of up to 8 x 8 with idle cells anywhere and tasks in any order."""
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    busy = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    tasks = iter(draw(st.permutations(range(1, rows * cols + 1))))
    grid = [[next(tasks) if busy[i * cols + j] else None for j in range(cols)] for i in range(rows)]
    return HmtState(Partition((cols,) * rows), grid)


@settings(max_examples=100, deadline=None)
@given(st.one_of(skew_syt(), generalized_fillings()))
def test_descent_walk_matches_oracle_on_tableaux(t):
    assert is_partial(t) == oracles.is_partial(t)
    state = embed(t, t.shape.outer.num_rows, t.shape.outer.parts[0])
    # Column compaction can leave an occupied region that is not a skew shape.
    for mesh in (state, hms.naive_slide_up(state)):
        assert hms.descent_pairs(mesh) == oracles.descent_pairs(mesh)


@st.composite
def skew_shapes_ending_inside(draw, rows: int = 8, cols: int = 8) -> SkewShape:
    """A skew shape whose last rows lie wholly inside its inner shape, so they end in None."""
    outer = draw(partitions_in_box(rows, cols, min_cells=1))
    cut = draw(st.integers(0, outer.num_rows - 1))  # rows from ``cut`` on are inner; 0: all
    floor = outer.parts[cut]
    inner = [draw(st.integers(floor, part)) for part in outer.parts[:cut]] + [*outer.parts[cut:]]
    return SkewShape(outer, Partition(tuple(sorted(inner, reverse=True))))


@st.composite
def gapped(draw, fillings) -> Tableau:
    """A filling from ``fillings`` whose entries from some v on are raised by 1..5: a gap at v."""
    t = draw(fillings)
    v, gap = draw(st.integers(1, max(t.size, 1))), draw(st.integers(1, 5))
    rows = [[e + gap if e is not None and e >= v else e for e in row] for row in t.rows]
    return Tableau(t.shape, rows)


def fillings_ending_inside():
    return skew_shapes_ending_inside().flatmap(
        lambda shape: st.one_of(
            SEEDS.map(lambda seed: random_standard_filling(Random(seed), shape)),
            st.permutations(range(1, shape.size + 1)).map(lambda word: fill(shape, word)),
        )
    )


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        skew_syt(),
        generalized_fillings(),
        fillings_ending_inside(),
        gapped(st.one_of(skew_syt(), generalized_fillings(), fillings_ending_inside())),
        st.just(Tableau.normal([])),
    )
)
def test_one_pass_checks_match_oracle(t):
    assert is_partial(t) == oracles.is_partial(t)
    assert is_standard(t) == oracles.is_standard(t)


def assert_as_checked(t: Tableau) -> None:
    """``t``, built unchecked, equals, hashes and pickles as the same tableau built checked."""
    checked = Tableau(t.shape, t.rows)
    assert t == checked and hash(t) == hash(checked)
    assert pickle.loads(pickle.dumps(t)) == checked


@settings(max_examples=60, deadline=None)
@given(skew_syt(), st.integers(0, 40).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_trusted_tableaux_equal_checked_ones(t, word):
    assert_as_checked(t)  # random_standard_filling
    for corner in inner_corners(t.shape.inner):
        assert_as_checked(jdt.forward_slide_trace(t, corner)[0])
    for corner in outer_corners(t.shape.outer):
        assert_as_checked(jdt.backward_slide_trace(t, corner)[0])
    normal = jdt.rectify(t)
    assert_as_checked(normal)
    assert_as_checked(hms.maximally_embedded(embed(t, len(t.rows) + 1, len(t.rows[0]) + 1))[1])
    pi = Permutation(tuple(word))
    p, q = rsk(pi)
    assert_as_checked(p)
    assert_as_checked(q)
    assert_as_checked(row_insert(normal, 1 + t.size)[0])
    for corner in inner_corners(normal.shape.outer):
        assert_as_checked(reverse_bump(normal, corner)[0])
    inverse = rsk_inverse(p, q)
    assert inverse == Permutation(pi.word) and hash(inverse) == hash(pi)
    assert pickle.loads(pickle.dumps(inverse)) == pi


@settings(max_examples=100, deadline=None)
@given(any_occupancy())
def test_descent_pairs_match_oracle_on_any_occupancy(state):
    assert hms.descent_pairs(state) == oracles.descent_pairs(state)


@settings(max_examples=60, deadline=None)
@given(skew_syt())
def test_slide_traces_match_oracle(t):
    for corner in inner_corners(t.shape.inner):
        assert jdt.forward_slide_trace(t, corner) == oracles.forward_slide_trace(t, corner)
    for corner in outer_corners(t.shape.outer):
        assert jdt.backward_slide_trace(t, corner) == oracles.backward_slide_trace(t, corner)


@settings(max_examples=60, deadline=None)
@given(skew_syt(), SEEDS)
def test_rectify_matches_oracle_under_every_policy(t, seed):
    result = jdt.rectify(t)
    for policy in policies(seed):
        assert oracles.rectify(t, policy) == result


@st.composite
def normal_meshes(draw, max_side: int = 12) -> HmtState:
    """A standard normal state on a mesh of up to 12 x 12; every cell is busy half the time."""
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    region = Partition((cols,) * rows)
    if draw(st.booleans()):
        region = draw(partitions_in_box(rows, cols, min_cells=1))
    return embed(random_standard_filling(Random(draw(SEEDS)), SkewShape(region)), rows, cols)


@settings(max_examples=40, deadline=None)
@given(normal_meshes(), SEEDS, st.data())
def test_completions_match_oracle(state, seed, data):
    rng = Random(seed)
    order = list(range(1, state.task_count + 1))
    rng.shuffle(order)
    order = order[: data.draw(st.integers(1, len(order)))]
    assert hms.reassign_on_completion(state, order[0]) == oracles.reassign_on_completion(
        state, order[0]
    )
    trace = hms.reassignment_sequence(state, order)
    assert (trace.initial, trace.events) == oracles.reassignment_sequence(state, order)


def with_capacities(state: HmtState, rng: Random) -> HmtState:
    return HmtState(state.shape, state.occupancy, random_hierarchical_capacities(rng, state.shape))


@settings(max_examples=40, deadline=None)
@given(normal_meshes(), skew_syt(), st.booleans(), SEEDS)
def test_trusted_snapshots_pass_validation(state, t, capacities, seed):
    """Every state a trace or a completion builds without checks would pass them."""
    rng = Random(seed)
    skew = embed(t, t.shape.outer.num_rows + 1, t.shape.outer.parts[0] + 1)
    if capacities:
        state, skew = with_capacities(state, rng), with_capacities(skew, rng)
    order = list(range(1, state.task_count + 1))
    rng.shuffle(order)
    snapshots = [
        (state, [hms.reassign_on_completion(state, order[0])[0]]),
        (state, hms.reassignment_sequence(state, order).states),
        (skew, hms.rectify_assignment(skew).states),
        (skew, [hms.naive_slide_up(skew)]),
    ]
    for a0, states in snapshots:
        for s in states:
            assert HmtState(s.shape, s.occupancy, s.capacities) == s
            assert s.capacities is a0.capacities


@settings(max_examples=40, deadline=None)
@given(normal_meshes(), SEEDS)
def test_turnaround_matches_oracle(state, seed):
    rng = Random(seed)
    caps = random_hierarchical_capacities(rng, state.shape)
    tasks = random_requirements(rng, state.task_count)
    for relocate in (False, True):
        new = hms.turnaround_sequential(state, tasks, caps, relocate)
        assert new == oracles.turnaround_sequential(state, tasks, caps, relocate)


def big_digit_capacities(rng: Random, shape: Partition, digits: int) -> CapacityGrid:
    """Rates strictly decreasing along rows and columns, each step a ratio of ``digits``-digit integers."""
    top = 10**digits
    rates = [[Fraction(0)] * shape.parts[0] for _ in shape.parts]
    for i, j in shape_cells(shape):
        above = [rates[i - 2][j - 1]] if i > 1 else []
        left = [rates[i - 1][j - 2]] if j > 1 else []
        cap = min(above + left, default=Fraction(rng.randrange(1, top), rng.randrange(1, top)))
        shrink = Fraction(rng.randrange(1, top), 1) / rng.randrange(top, 2 * top)
        rates[i - 1][j - 1] = cap * shrink if above or left else cap
    return CapacityGrid(shape, tuple(map(tuple, rates)))


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no printable-digit limit"
)


def total_or_limit(turnaround, *args):
    """The total of ``turnaround(*args)``, or the message of the resource limit it hits."""
    try:
        return turnaround(*args).total
    except ResourceLimitError as exc:
        return ResourceLimitError, str(exc)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no printable-digit limit")
@settings(max_examples=80, deadline=None)
@given(normal_meshes(max_side=6), SEEDS, st.integers(1, 200))
def test_turnaround_stops_where_the_fraction_sum_does(state, seed, digits):
    """Under a 640-digit limit, the integer sum gives the per-term-guarded sum's total or error."""
    rng = Random(seed)
    caps = big_digit_capacities(rng, state.shape, rng.randint(1, digits))
    top = 10**digits
    tasks = TaskSet(tuple(
        Fraction(rng.randrange(1, top), rng.randrange(1, top)) for _ in range(state.task_count)
    ))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for relocate in (False, True):
            args = state, tasks, caps, relocate
            new = total_or_limit(hms.turnaround_sequential, *args)
            assert new == total_or_limit(oracles.turnaround_sequential, *args)
    finally:
        sys.set_int_max_str_digits(limit)


@needs_digit_limit
@settings(max_examples=30, deadline=None)
@given(normal_meshes(max_side=6), SEEDS, st.integers(1, 200))
def test_turnaround_without_a_digit_limit_matches_oracle(state, seed, digits):
    """With no limit (0, or an interpreter that predates it), the whole sum is one exact run."""
    rng = Random(seed)
    caps = big_digit_capacities(rng, state.shape, rng.randint(1, digits))
    top = 10**digits
    tasks = TaskSet(tuple(
        Fraction(rng.randrange(1, top), rng.randrange(1, top)) for _ in range(state.task_count)
    ))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for relocate in (False, True):
            args = state, tasks, caps, relocate
            assert hms.turnaround_sequential(*args) == oracles.turnaround_sequential(*args)
    finally:
        sys.set_int_max_str_digits(limit)


BITS = 640 * 10 // 3  # the most bits a part may have under a 640-digit limit


def counted(calls: list[int], f, *args):
    calls.append(len(args))
    return f(*args)


def relocation_sum(monkeypatch, requirements: list[Fraction]):
    """Under a 640-digit limit, on a 1 x m mesh with default capacities (rate 1 at (1,1)): the
    relocation sum's total or limit message, and the argument counts of its ``lcm`` calls (one
    a run) and ``gcd`` calls (one a term added alone).  Both modes must match the oracle."""
    a0 = HmtState.of((len(requirements),), [range(1, len(requirements) + 1)])
    args = a0, TaskSet(tuple(requirements)), hms.default_capacity_grid(a0.shape)
    calls: dict[str, list[int]] = {"lcm": [], "gcd": []}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for relocate in (False, True):
            oracle = total_or_limit(oracles.turnaround_sequential, *args, relocate)
            for name, log in calls.items():
                log.clear()
                monkeypatch.setattr(hms, name, partial(counted, log, getattr(math, name)))
            total = total_or_limit(hms.turnaround_sequential, *args, relocate)
            assert total == oracle
    finally:
        sys.set_int_max_str_digits(limit)
    return total, calls


@needs_digit_limit
def test_turnaround_run_ending_exactly_at_the_limit(monkeypatch):
    # Beside the empty sum's 1-bit denominator, four 533-bit ones fill the first run's budget,
    # and its numerator 4 * (2^(BITS-2) - 1) has exactly BITS bits: no term is added alone.
    big, small = Fraction(2 ** (BITS - 2) - 1, 2**532), Fraction(1, 2**532)
    assert 1 + 4 * 533 == BITS
    total, calls = relocation_sum(monkeypatch, [big] * 4 + [small] * 3)
    assert calls == {"lcm": [5, 4], "gcd": []}
    assert total == Fraction(2**BITS - 1, 2**532)


@needs_digit_limit
def test_turnaround_run_past_the_limit_whose_reduced_sum_prints(monkeypatch):
    # x/3 + y/3 = 3z/3: the run's end 3z has BITS + 1 bits, the reduced sum z has BITS.
    x, y = 2**BITS - 1, 2 ** (BITS - 1) + 4
    total, calls = relocation_sum(monkeypatch, [Fraction(x, 3), Fraction(y, 3)])
    assert calls == {"lcm": [3], "gcd": [2, 2]}
    assert total == 2 ** (BITS - 1) + 1 == (x + y) // 3


@needs_digit_limit
def test_turnaround_stops_in_the_middle_of_a_run(monkeypatch):
    # One run of five thirds; the third partial sum, (2^(BITS+1) + 3)/3, is in lowest terms.
    third, past = Fraction(1, 3), Fraction(2 ** (BITS + 1) + 1, 3)
    total, calls = relocation_sum(monkeypatch, [third, third, past, third, third])
    assert calls == {"lcm": [6], "gcd": [2, 2, 2]}
    assert total == (ResourceLimitError, "a turnaround sum has over 640 digits to print")


@settings(max_examples=60, deadline=None)
@given(skew_syt(), st.integers(0, 3), st.integers(0, 3), SEEDS)
def test_rectify_assignment_matches_oracle(t, extra_rows, extra_cols, seed):
    state = embed(t, t.shape.outer.num_rows + extra_rows, t.shape.outer.parts[0] + extra_cols)
    trace = hms.rectify_assignment(state)
    assert (trace.initial, trace.events) == oracles.rectify_assignment(state)
    for policy in policies(seed):
        assert oracles.rectify_assignment(state, policy).final == trace.final


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 300).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_rsk_and_inverse_match_oracle(word):
    pi = Permutation(tuple(word))
    p, q = rsk(pi)
    assert (p, q) == oracles.rsk(pi)
    assert rsk_inverse(p, q) == oracles.rsk_inverse(p, q) == pi
    assert row_insert(p, pi.n + 1) == oracles.row_insert(p, pi.n + 1)
    for corner in inner_corners(p.shape.outer):
        assert reverse_bump(p, corner) == oracles.reverse_bump(p, corner)


def outcome(f, *args):
    """``f(*args)``, or the type and message of the region error it raises."""
    try:
        return f(*args)
    except (ShapeError, InvalidStateError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(skew_shapes(10, 10), SEEDS)
def test_random_filling_matches_oracle_draw_for_draw(shape, seed):
    rng, oracle_rng = Random(seed), Random(seed)
    assert random_standard_filling(rng, shape) == oracles.random_standard_filling(oracle_rng, shape)
    assert rng.getstate() == oracle_rng.getstate()


@st.composite
def cell_sets(draw) -> list[tuple[int, int]]:
    """The cells of a skew shape with rows dropped and cells toggled.

    That gives gaps, empty middle rows, rows that cannot stack and, at
    row or column 0, coordinates that are not positive.
    """
    cells = {tuple(cell) for cell in shape_cells(draw(skew_shapes(6, 6)))}
    dropped = draw(st.sets(st.integers(1, 6), max_size=2))
    cells = {cell for cell in cells if cell[0] not in dropped}
    for cell in draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=3)):
        cells ^= {cell}
    return draw(st.permutations(sorted(cells)))


@settings(max_examples=300, deadline=None)
@given(cell_sets())
def test_skew_shape_of_cells_matches_oracle(cells):
    assert outcome(skew_shape_of_cells, cells) == outcome(oracles.skew_shape_of_cells, cells)


@st.composite
def meshes_holding_a_filling(draw) -> HmtState:
    """A skew tableau, in or out of order, in the corner of a mesh up to two rows and columns larger."""
    t = draw(st.one_of(skew_syt(), generalized_fillings()))
    rows, cols = t.shape.outer.num_rows, t.shape.outer.parts[0]
    return embed(t, rows + draw(st.integers(0, 2)), cols + draw(st.integers(0, 2)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(any_occupancy(), meshes_holding_a_filling()))
def test_maximally_embedded_matches_oracle(state):
    assert outcome(hms.maximally_embedded, state) == outcome(oracles.maximally_embedded, state)


@st.composite
def spoiled_normal_meshes(draw) -> HmtState:
    """A standard normal mesh with, each maybe, a row emptied, a task idled and two tasks swapped."""
    state = draw(normal_meshes(max_side=6))
    grid = [list(row) for row in state.occupancy]
    if draw(st.booleans()):
        grid[draw(st.integers(0, len(grid) - 1))] = [None] * len(grid[0])
    busy = [(i, j) for i, row in enumerate(grid) for j, task in enumerate(row) if task]
    if busy and draw(st.booleans()):
        i, j = draw(st.sampled_from(busy))
        grid[i][j] = None
    if len(busy) > 1 and draw(st.booleans()):
        (a, b), (c, d) = draw(st.permutations(busy))[:2]
        grid[a][b], grid[c][d] = grid[c][d], grid[a][b]
    return HmtState(state.shape, grid)


def precondition(require, state):
    """None when ``require`` accepts ``state``, else the type and message of its error."""
    try:
        require(state, "op")
    except (DomainError, InvalidStateError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.one_of(spoiled_normal_meshes(), any_occupancy(), meshes_holding_a_filling()))
def test_one_pass_precondition_matches_classify_state(state):
    assert precondition(hms._require_standard_normal, state) == precondition(
        oracles._require_standard_normal, state
    )


@st.composite
def logged_traces(draw):
    """A library trace, its snapshot-per-event oracle, and the cell each of its events opened.

    Completions (full, prefix or empty orders; a full one ends in a no-op)
    on full or partly filled normal meshes, or rectifications of skew ones,
    up to 12 x 12, with capacities or without.
    """
    rng = Random(draw(SEEDS))
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    mesh = Partition((cols,) * rows)
    outer = mesh if draw(st.booleans()) else draw(partitions_in_box(rows, cols, min_cells=1))
    kind = draw(st.sampled_from(["full", "prefix", "empty", "rectify"]))
    inner = random_subpartition(rng, outer) if kind == "rectify" else Partition()
    a0 = embed(random_standard_filling(rng, SkewShape(outer, inner)), rows, cols)
    if draw(st.booleans()):
        a0 = with_capacities(a0, rng)
    if kind == "rectify":
        trace = hms.rectify_assignment(a0)
        return trace, oracles.rectify_assignment(a0), [e.trigger.corner for e in trace.events]
    order = rng.sample(range(1, a0.task_count + 1), a0.task_count)
    order = order[: {"full": len(order), "prefix": rng.randrange(len(order)), "empty": 0}[kind]]
    trace = hms.reassignment_sequence(a0, order)
    oracle = oracles.reassignment_sequence(a0, order)
    befores = [a0] + [event.state for event in oracle.events]
    return trace, oracle, [s.cell_of(e.trigger.task) for s, e in zip(befores, oracle.events)]


@settings(max_examples=150, deadline=None)
@given(logged_traces())
def test_replayed_traces_match_the_snapshot_oracle(case):
    trace, oracle, holes = case
    assert (trace.initial, trace.events) == oracle
    assert trace.states == (oracle.initial, *[e.state for e in oracle.events if not e.noop])
    assert trace.final == oracle.final
    events = trace.events
    assert trace.events is events and all(a is b for a, b in zip(trace.events, events))
    # A replayed state shares, as the same object, every row its event did not touch.
    before = trace.initial
    for event, hole in zip(events, holes, strict=True):
        touched = {hole.row} | {cell.row for m in event.relocations for cell in (m.source, m.dest)}
        for row, (old, new) in enumerate(zip(before.occupancy, event.state.occupancy), start=1):
            assert row in touched or new is old
        assert not event.noop or event.state is before
        before = event.state


def test_building_a_trace_holds_few_bytes_per_relocation():
    """A 40 x 40 mesh in priority order: 62,400 relocations, kept as a move log, not objects."""
    mesh = Partition((40,) * 40)
    a0 = HmtState(mesh, random_standard_filling(Random(40), SkewShape(mesh)).rows)
    order = list(range(1, mesh.n + 1))
    gc.collect()
    tracemalloc.start()
    try:
        trace = hms.reassignment_sequence(a0, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    relocations = sum(len(event.relocations) for event in trace.events)
    assert relocations == 62400
    assert peak < 64 * relocations

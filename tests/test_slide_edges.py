"""Edge cases of the padded slide kernel, each against the loop-per-function oracles.

The kernel slides on one flat list with a padding cell after each row and a
padding row after the last, idle and padding cells holding one sentinel
(``jdt._pad``).  These cases sit where that layout could go wrong: the
sentinel next to huge entries, grids with no entries, one row or one column,
top rows that are all inner cells, backward slides that leave the input's
box, and idle cells inside the box but outside the embedded shape.  Every
trace is also checked by ``oracles.verify_trace``.
"""

from __future__ import annotations

import json
from itertools import permutations
from random import Random

import oracles
import pytest
from conftest import state_from_tableau

from taquin import hms, jdt
from taquin.errors import DomainError
from taquin.hms import HmtState
from taquin.jsonio import canonical_dumps, encode_trace
from taquin.partitions import Cell, Partition, SkewShape, inner_corners, outer_corners
from taquin.randgen import random_standard_filling, random_subpartition
from taquin.tableaux import Tableau


def shifted(t: Tableau, offset: int, scale: int = 1) -> Tableau:
    """``t`` with each entry e replaced by ``offset + scale * e``: the same order, other IDs."""
    rows = [[None if e is None else offset + scale * e for e in row] for row in t.rows]
    return Tableau(t.shape, rows)


def check_slides(t: Tableau) -> None:
    """Every forward and backward slide of ``t``, and its rectification, match the oracles."""
    for corner in inner_corners(t.shape.inner):
        assert jdt.forward_slide_trace(t, corner) == oracles.forward_slide_trace(t, corner)
    for corner in outer_corners(t.shape.outer):
        assert jdt.backward_slide_trace(t, corner) == oracles.backward_slide_trace(t, corner)
    assert jdt.rectify(t) == oracles.rectify(t)


def check_mesh(state: HmtState, order: list[int] | None = None) -> None:
    """Completing ``state`` in ``order``, or rectifying it, matches the oracles and the rule."""
    if order is None:
        trace, oracle = hms.rectify_assignment(state), oracles.rectify_assignment(state)
    else:
        trace = hms.reassignment_sequence(state, order)
        oracle = oracles.reassignment_sequence(state, order)
    assert trace == oracle
    oracles.verify_trace(json.loads(canonical_dumps(encode_trace(trace))))


def mesh(rows: int, cols: int, t: Tableau) -> HmtState:
    return state_from_tableau(t, (cols,) * rows)


HUGE = (2**63, 2**63 + 1, 2**64 - 1, 10**30)


@pytest.mark.parametrize("base", HUGE)
def test_task_ids_above_two_to_the_63(base):
    rng = Random(base % 1000)
    for rows, cols in ((3, 4), (1, 5), (5, 1), (4, 4)):
        box = Partition((cols,) * rows)
        skew = SkewShape(box, random_subpartition(rng, box))
        for scale in (1, 2**70):  # consecutive IDs, then IDs far apart
            full = shifted(random_standard_filling(rng, SkewShape(box)), base, scale)
            order = [e for row in full.rows for e in row]
            rng.shuffle(order)
            check_mesh(mesh(rows, cols, full), order)
            skewed = shifted(random_standard_filling(rng, skew), base, scale)
            check_mesh(mesh(rows + 1, cols + 1, skewed))
            check_slides(shifted(random_standard_filling(rng, skew), base, scale))


def test_the_sentinel_is_one_past_the_largest_entry():
    flat, w = jdt._pad(((2**64, None), (2**64 + 1, 2**64 + 2)))
    assert w == 3 and len(flat) == 3 * w and set(flat) == {2**64, 2**64 + 1, 2**64 + 2, 2**64 + 3}
    assert flat[-1] == flat[1] == flat[2] == 2**64 + 3
    flat, w = jdt._pad(((5, None),), -1)
    assert flat == [-5, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 4), (4, 1), (3, 3)])
def test_an_all_idle_mesh(rows, cols):
    idle = HmtState.of((cols,) * rows, [[None] * cols] * rows)
    check_mesh(idle, [])
    check_mesh(idle)
    assert hms.rectify_assignment(idle).events == ()
    with pytest.raises(DomainError, match="not assigned"):
        hms.reassign_on_completion(idle, 1)
    with pytest.raises(DomainError, match="unassigned task 1"):
        hms.reassignment_sequence(idle, [1])


@pytest.mark.parametrize("n", range(1, 9))
def test_one_row_and_one_column_meshes(n):
    rng = Random(n)
    row = Tableau.normal([list(range(1, n + 1))])
    column = Tableau.normal([[k] for k in range(1, n + 1)])
    orders = list(permutations(range(1, n + 1))) if n <= 4 else [rng.sample(range(1, n + 1), n)]
    for order in orders:
        for state in (mesh(1, n, row), mesh(n, 1, column)):
            check_mesh(state, list(order))
            first = order[0]
            expected = oracles.reassign_on_completion(state, first)
            assert hms.reassign_on_completion(state, first) == expected
    for k in range(n):  # k idle cells ahead of the tasks
        tasks = list(range(1, n - k + 1))
        check_mesh(HmtState.of((n,), [[None] * k + tasks]))
        check_mesh(HmtState.of((1,) * n, [[None]] * k + [[e] for e in tasks]))
        check_slides(Tableau.skew((n,), (k,) if k else (), [[None] * k + tasks]))
        check_slides(Tableau.skew((1,) * n, (1,) * k, [[None]] * k + [[e] for e in tasks]))


def test_skew_tableaux_whose_top_rows_are_all_inner():
    rng = Random(7)
    shapes = ((4, 4, 3), (4, 4)), ((3, 3, 3, 2), (3, 3, 1)), ((2, 1, 1), (2,)), ((5,) * 3, (5, 5))
    for outer, inner in shapes:
        shape = SkewShape(Partition(outer), Partition(inner))
        for _ in range(5):
            t = random_standard_filling(rng, shape)
            check_slides(t)
            check_mesh(mesh(len(outer) + 1, outer[0] + 1, t))


def test_backward_slides_open_a_new_row_and_a_new_column():
    rng = Random(11)
    shapes = ((3, 2), ()), ((4, 4, 1), (2, 1)), ((1,), ()), ((3,), (1,)), ((1, 1, 1), (1,))
    for outer, inner in shapes:
        shape = SkewShape(Partition(outer), Partition(inner))
        for _ in range(5):
            t = random_standard_filling(rng, shape)
            rows, cols = len(outer), outer[0]
            for start in (Cell(rows + 1, 1), Cell(1, cols + 1)):
                assert start in outer_corners(t.shape.outer)
                result = jdt.backward_slide_trace(t, start)
                assert result == oracles.backward_slide_trace(t, start)
                # The forward slide from the vacated cell undoes it.
                assert jdt.forward_slide_trace(result[0], result[1])[0] == t


def test_rectify_assignment_with_idle_cells_in_the_box_but_off_the_shape():
    rng = Random(5)
    # The occupied cells' bounding box holds idle cells right of the shorter rows.
    shapes = ((3, 2, 1), (1,), 0), ((4, 2, 2, 1), (2, 1), 1), ((3, 3, 1), (2,), 2)
    for outer, inner, extra in shapes:
        shape = SkewShape(Partition(outer), Partition(inner))
        for _ in range(5):
            t = random_standard_filling(rng, shape)
            state = mesh(len(outer) + extra, outer[0] + extra, t)
            off_shape = [(i, j) for i in range(len(outer)) for j in range(outer[i], outer[0])]
            assert off_shape and all(state.occupancy[i][j] is None for i, j in off_shape)
            check_mesh(state)

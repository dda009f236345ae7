from random import Random

import pytest

from conftest import (
    enumerate_skew_fillings,
    equivalent_skew_pair,
    exhaustive_rectifications,
    random_skew_syt,
    shape_cells,
    slide_until_normal,
    subpartitions,
)
from taquin.errors import DomainError
from taquin.jdt import (
    backward_slide_trace,
    forward_slide_trace,
    jdt_equivalent,
    rectify,
)
from taquin.partitions import Cell, SkewShape, inner_corners, outer_corners, partitions_of
from taquin.rsk import Permutation, knuth_equivalent, rsk
from taquin.tableaux import Tableau, is_partial, reading_word

EXAMPLE = Tableau.skew((4, 3, 3), (1,), [[None, 3, 5, 9], [2, 4, 8], [6, 7, 10]])
T3 = Tableau.skew((4, 3, 3, 2), (2, 2), [[None, None, 1, 6], [None, None, 4], [2, 3, 5], [7, 8]])
T4 = Tableau.skew((4, 3, 2, 2), (2, 1), [[None, None, 1, 6], [None, 3, 4], [2, 5], [7, 8]])
T5 = Tableau.normal([[1, 3, 4, 6], [2, 8], [5], [7]])


def test_forward_slide_worked_example():
    result, vacated, _ = forward_slide_trace(EXAMPLE, Cell(1, 1))
    assert result == Tableau.normal([[2, 3, 5, 9], [4, 7, 8], [6, 10]])
    assert vacated == Cell(3, 3)


def test_forward_slide_trivial_and_derived():
    result, vacated, _ = forward_slide_trace(Tableau.skew((2,), (1,), [[None, 5]]), Cell(1, 1))
    assert result == Tableau.normal([[5]])
    assert vacated == Cell(1, 2)

    result, vacated, _ = forward_slide_trace(
        Tableau.skew((2, 2), (1,), [[None, 2], [1, 3]]), Cell(1, 1)
    )
    assert result == Tableau.normal([[1, 2], [3]])
    assert vacated == Cell(2, 2)


def test_backward_slide_worked_example():
    result, vacated, _ = backward_slide_trace(EXAMPLE, Cell(2, 4))
    assert result == Tableau.skew(
        (4, 4, 3), (2,), [[None, None, 3, 5], [2, 4, 8, 9], [6, 7, 10]]
    )
    assert vacated == Cell(1, 2)


def test_backward_slide_trivial():
    result, vacated, _ = backward_slide_trace(Tableau.normal([[5]]), Cell(1, 2))
    assert result == Tableau.skew((2,), (1,), [[None, 5]])
    assert vacated == Cell(1, 1)


def test_slides_invert_each_other_on_example():
    forward, vacated, _ = forward_slide_trace(EXAMPLE, Cell(1, 1))
    restored, hole, _ = backward_slide_trace(forward, vacated)
    assert restored == EXAMPLE
    assert hole == Cell(1, 1)


def test_slide_rejects_bad_start():
    with pytest.raises(DomainError):
        forward_slide_trace(EXAMPLE, Cell(2, 1))
    with pytest.raises(DomainError):
        backward_slide_trace(EXAMPLE, Cell(3, 3))
    generalized = Tableau.skew((2, 2), (1,), [[None, 1], [3, 2]])
    with pytest.raises(DomainError):
        forward_slide_trace(generalized, Cell(1, 1))


def test_slide_steps_record_every_move():
    _, _, moves = forward_slide_trace(EXAMPLE, Cell(1, 1))
    assert [(m.dest, m.task, m.source) for m in moves] == [
        (Cell(1, 1), 2, Cell(2, 1)),
        (Cell(2, 1), 4, Cell(2, 2)),
        (Cell(2, 2), 7, Cell(3, 2)),
        (Cell(3, 2), 10, Cell(3, 3)),
    ]
    _, _, moves = backward_slide_trace(EXAMPLE, Cell(2, 4))
    assert [m.task for m in moves] == [9, 5, 3]


def test_rectify_worked_examples():
    assert rectify(T3) == T5
    assert rectify(T4) == T5
    assert rectify(T5) == T5


def test_rectify_policy_independence():
    rng = Random(42)
    for _ in range(40):
        t = random_skew_syt(rng, max_cells=8)
        last = slide_until_normal(t, lambda corners: corners[-1])
        rand = slide_until_normal(t, lambda corners: corners[rng.randrange(len(corners))])
        assert rectify(t) == last == rand


def test_jdt_equivalent_examples():
    assert jdt_equivalent(T3, T4)
    assert jdt_equivalent(T3, T3)
    assert not jdt_equivalent(T3, Tableau.normal([[1]]))


@pytest.mark.parametrize(
    "bad",
    [Tableau.normal([[2, 1]]), Tableau.skew((3,), (1,), [[None, 2, 1]])],
    ids=["normal", "skew"],
)
def test_rectify_and_jdt_equivalent_reject_generalized_tableaux(bad):
    # One domain on either shape: a normal generalized tableau is not passed through.
    with pytest.raises(DomainError, match="strictly increasing"):
        rectify(bad)
    with pytest.raises(DomainError, match="strictly increasing"):
        jdt_equivalent(bad, Tableau.normal([[1, 2]]))
    with pytest.raises(DomainError, match="strictly increasing"):
        jdt_equivalent(T5, bad)


def test_slides_always_produce_partial_tableaux():
    rng = Random(7)
    for _ in range(50):
        t = random_skew_syt(rng, max_cells=8)
        for corner in inner_corners(t.shape.inner):
            slid, _, _ = forward_slide_trace(t, corner)
            assert is_partial(slid)
            assert slid.entries == t.entries
        for corner in outer_corners(t.shape.outer):
            slid, _, _ = backward_slide_trace(t, corner)
            assert is_partial(slid)
            assert slid.entries == t.entries


def test_slides_invert_each_other_randomized():
    rng = Random(11)
    for _ in range(50):
        t = random_skew_syt(rng, max_cells=8)
        for corner in inner_corners(t.shape.inner):
            slid, vacated, _ = forward_slide_trace(t, corner)
            back, hole, _ = backward_slide_trace(slid, vacated)
            assert back == t and hole == corner
        for corner in outer_corners(t.shape.outer):
            slid, vacated, _ = backward_slide_trace(t, corner)
            forth, hole, _ = forward_slide_trace(slid, vacated)
            assert forth == t and hole == corner


def test_single_slide_preserves_knuth_class():
    rng = Random(13)
    for _ in range(60):
        t = random_skew_syt(rng, max_cells=8)
        word = Permutation(reading_word(t))
        for corner in inner_corners(t.shape.inner):
            slid, _, _ = forward_slide_trace(t, corner)
            assert knuth_equivalent(word, Permutation(reading_word(slid)))


def test_rectification_equals_insertion_tableau_of_reading_word():
    rng = Random(17)
    for _ in range(60):
        t = random_skew_syt(rng, max_cells=8)
        assert rectify(t) == rsk(Permutation(reading_word(t)))[0]


def test_skew_filling_enumerator_is_complete():
    # The linear-extension enumerator used by the confluence sweep must agree
    # with a raw filter over all assignments of 1..k to the skew cells.
    from itertools import permutations as perms

    for outer_parts, inner_parts in [((3, 2), (1,)), ((2, 2, 1), (1,)), ((3, 3), (2,)), ((2, 2), (2, 1))]:
        shape = SkewShape.of(outer_parts, inner_parts)
        cells = shape_cells(shape)
        brute = 0
        for values in perms(range(1, shape.size + 1)):
            grid = dict(zip(cells, values))
            ok = all(
                (Cell(c.row, c.col + 1) not in grid or grid[Cell(c.row, c.col + 1)] > v)
                and (Cell(c.row + 1, c.col) not in grid or grid[Cell(c.row + 1, c.col)] > v)
                for c, v in grid.items()
            )
            brute += ok
        listed = list(enumerate_skew_fillings(shape))
        assert len(listed) == brute
        assert len(set(listed)) == len(listed)
        assert all(is_partial(t) and t.entries == frozenset(range(1, shape.size + 1)) for t in listed)


def test_confluence_exhaustive_small():
    # Every corner-choice sequence rectifies to the same tableau (outer <= 5 cells).
    memo = {}
    for n in range(1, 6):
        for outer in partitions_of(n):
            for inner in subpartitions(outer):
                if not inner.parts:
                    continue
                for filling in enumerate_skew_fillings(SkewShape(outer, inner)):
                    results = exhaustive_rectifications(filling, memo)
                    assert len(results) == 1
                    assert next(iter(results)) == rectify(filling)


def test_equivalent_pairs_by_construction():
    rng = Random(19)
    for _ in range(40):
        a, b = equivalent_skew_pair(rng)
        assert jdt_equivalent(a, b)

from itertools import permutations

import pytest
from hypothesis import given

from conftest import partitions_st, shape_cells, subpartitions
from taquin.errors import DomainError, ShapeError
from taquin.partitions import (
    Cell,
    Partition,
    SkewShape,
    count_syt,
    hook_lengths,
    inner_corners,
    outer_corners,
    partitions_of,
    skew_shape_of_cells,
    verify_sum_squares,
)


def brute_force_count(shape: Partition) -> int:
    """Count standard fillings by trying every assignment of 1..n to the cells."""
    cells = shape_cells(shape)
    count = 0
    for values in permutations(range(1, shape.n + 1)):
        grid = dict(zip(cells, values))
        ok = all(
            (Cell(c.row, c.col + 1) not in grid or grid[Cell(c.row, c.col + 1)] > v)
            and (Cell(c.row + 1, c.col) not in grid or grid[Cell(c.row + 1, c.col)] > v)
            for c, v in grid.items()
        )
        count += ok
    return count


def test_partition_rejects_bad_rows():
    with pytest.raises(ShapeError):
        Partition((2, 3))
    with pytest.raises(ShapeError):
        Partition((3, 0))
    with pytest.raises(ShapeError):
        Partition((-1,))


def test_empty_partition():
    empty = Partition()
    assert empty.n == 0
    assert shape_cells(empty) == []
    assert count_syt(empty) == 1
    assert inner_corners(empty) == ()
    assert outer_corners(empty) == (Cell(1, 1),)


def test_hook_lengths_examples():
    assert hook_lengths(Partition((3, 2, 1))) == ((5, 3, 1), (3, 1), (1,))
    grid = hook_lengths(Partition((4, 4, 4, 4)))
    assert grid == ((7, 6, 5, 4), (6, 5, 4, 3), (5, 4, 3, 2), (4, 3, 2, 1))
    assert grid[0][0] == 7 and grid[3][3] == 1
    assert hook_lengths(Partition((1,))) == ((1,),)


def test_count_syt_examples():
    assert count_syt(Partition((3, 2, 1))) == 16
    assert count_syt(Partition((4, 4, 4, 4))) == 24024
    for n in (1, 2, 5, 9):
        assert count_syt(Partition((n,))) == 1
    assert count_syt(Partition((2, 1))) == 2


def test_count_syt_matches_brute_force():
    for n in range(1, 7):
        for shape in partitions_of(n):
            assert count_syt(shape) == brute_force_count(shape)


def test_corner_examples():
    assert set(inner_corners(Partition((3, 2, 1)))) == {Cell(1, 3), Cell(2, 2), Cell(3, 1)}
    assert set(outer_corners(Partition((1,)))) == {Cell(1, 2), Cell(2, 1)}
    assert set(inner_corners(Partition((3, 3, 2)))) == {Cell(2, 3), Cell(3, 2)}


@given(partitions_st())
def test_corner_removal_and_addition_stay_valid(shape):
    for corner in inner_corners(shape):
        smaller = shape.remove_corner(corner)
        assert smaller.n == shape.n - 1
    for corner in outer_corners(shape):
        bigger = shape.add_corner(corner)
        assert bigger.n == shape.n + 1
        assert bigger.remove_corner(corner) == shape


def test_remove_corner_rejects_non_corner():
    with pytest.raises(DomainError):
        Partition((3, 2)).remove_corner(Cell(1, 1))
    with pytest.raises(DomainError):
        Partition((3, 2)).add_corner(Cell(1, 1))


@given(partitions_st())
def test_hooks_symmetric_under_conjugation(shape):
    conj = shape.conjugate()
    hooks = hook_lengths(shape)
    transposed = hook_lengths(conj)
    for cell in shape_cells(shape):
        assert hooks[cell.row - 1][cell.col - 1] == transposed[cell.col - 1][cell.row - 1]
    assert conj.conjugate() == shape


def test_partitions_of_small():
    assert [p.parts for p in partitions_of(0)] == [()]
    assert [p.parts for p in partitions_of(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert len(partitions_of(7)) == 15


def test_partitions_of_is_reverse_lexicographic():
    for n in range(9):
        listed = [p.parts for p in partitions_of(n)]
        assert listed == sorted(listed, reverse=True)
        assert len(set(listed)) == len(listed)
        assert all(sum(parts) == n for parts in listed)


def test_verify_sum_squares_examples():
    assert verify_sum_squares(1) == (1, 1, True)
    assert verify_sum_squares(3) == (6, 6, True)
    assert verify_sum_squares(6) == (720, 720, True)


def test_verify_sum_squares_up_to_ten():
    for n in range(1, 11):
        assert verify_sum_squares(n).equal


def test_skew_shape_validation():
    shape = SkewShape.of((4, 3, 3, 2), (2, 2))
    assert shape.size == 8
    assert not shape.is_normal
    assert SkewShape.of((3, 2)).is_normal
    with pytest.raises(ShapeError):
        SkewShape.of((2, 2), (3,))
    with pytest.raises(ShapeError):
        SkewShape.of((3,), (1, 1))


def test_skew_shape_cells_row_major():
    shape = SkewShape.of((3, 2), (1,))
    assert shape_cells(shape) == [Cell(1, 2), Cell(1, 3), Cell(2, 1), Cell(2, 2)]


def test_skew_shape_of_cells_roundtrip():
    for outer_parts in [(3, 2, 1), (4, 4), (2, 2, 2), (5,)]:
        outer = Partition(outer_parts)
        for inner in subpartitions(outer):
            shape = SkewShape(outer, inner)
            cells = shape_cells(shape)
            if not cells:
                continue
            derived = skew_shape_of_cells(cells)
            assert set(shape_cells(derived)) == set(cells)


def test_skew_shape_of_cells_canonicalizes_empty_rows():
    # Row 1 empty: the width of the unconstrained row collapses to the row below.
    derived = skew_shape_of_cells([Cell(2, 2)])
    assert derived.outer.parts == (2, 2)
    assert derived.inner.parts == (2, 1)


def test_skew_shape_of_cells_rejects_gaps():
    with pytest.raises(ShapeError):
        skew_shape_of_cells([Cell(1, 1), Cell(1, 3)])
    # Wide row above a lower wide row with an empty row between cannot stack.
    with pytest.raises(ShapeError):
        skew_shape_of_cells([Cell(1, 1), Cell(1, 2), Cell(1, 3), Cell(3, 1), Cell(3, 2)])


def test_skew_shape_of_cells_accepts_disconnected_regions():
    shape = skew_shape_of_cells([Cell(1, 3), Cell(3, 1), Cell(3, 2)])
    assert set(shape_cells(shape)) == {Cell(1, 3), Cell(3, 1), Cell(3, 2)}


def test_skew_shape_of_cells_empty():
    assert skew_shape_of_cells([]).size == 0


@pytest.mark.parametrize(
    "cells",
    [[(1, 1.9), (1, 2.2)], [("1", "2")], [(True, True)], [(1, 1), (1, 2.0)], [(1.0, 1)]],
)
def test_skew_shape_of_cells_rejects_coordinates_that_are_not_integers(cells):
    # int() would truncate (1, 1.9), (1, 2.2) into a two-cell row.
    with pytest.raises(ShapeError, match="coordinates must be integers"):
        skew_shape_of_cells(cells)

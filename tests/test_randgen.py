"""Literal pins of seeded generator output: the benchmark and ``turnaround --random`` build on it."""

from random import Random

import pytest

from taquin.partitions import SkewShape
from taquin.randgen import (
    random_skew_assignment,
    random_standard_assignment,
    random_standard_filling,
)
from taquin.tableaux import is_standard

_ = None


@pytest.mark.parametrize(
    "seed, shape, cells",
    [
        (5, (3, 3, 3), ((1, 3, 5), (2, 6, 7), (4, 8, 9))),
        (19, (4, 4), ((1, 3, 5, _), (2, 4, 6, _))),
        (38, (4, 4, 4, 4), ((1, 4, 6, 8), (2, 5, 7, _), (3, _, _, _), (_, _, _, _))),
    ],
)
def test_random_standard_assignment_is_pinned(seed, shape, cells):
    state = random_standard_assignment(Random(seed))
    assert state.shape.parts == shape
    assert state.occupancy == cells
    assert state.capacities is None


@pytest.mark.parametrize(
    "seed, shape, cells",
    [
        (11, (5, 5, 5, 5), ((_, _, _, _, _), (1, 2, _, _, _), (3, _, _, _, _), (4, _, _, _, _))),
        (13, (3, 3, 3), ((_, 1, 2), (3, _, _), (4, _, _))),
        (
            17,
            (4, 4, 4, 4, 4),
            ((_, _, 1, _), (2, 4, _, _), (3, _, _, _), (_, _, _, _), (_, _, _, _)),
        ),
    ],
)
def test_random_skew_assignment_is_pinned(seed, shape, cells):
    state = random_skew_assignment(Random(seed), 6, 6)
    assert state.shape.parts == shape
    assert state.occupancy == cells
    assert state.capacities is None


@pytest.mark.parametrize(
    "outer, inner",
    [((2, 1), (1, 1)), ((3, 3, 2, 1), (2, 2, 2, 1)), ((1,), (1,))],
)
def test_random_standard_filling_keeps_the_requested_shape(outer, inner):
    # Trailing rows wholly inside the inner shape hold no entry but stay part of the shape.
    shape = SkewShape.of(outer, inner)
    for seed in range(5):
        filling = random_standard_filling(Random(seed), shape)
        assert filling.shape == shape
        assert is_standard(filling)

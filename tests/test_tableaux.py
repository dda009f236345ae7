import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import enumerate_skew_fillings, normal_partial_tableaux_st
from taquin.errors import DomainError, TableauError
from taquin.partitions import Cell, SkewShape, count_syt, partitions_of
from taquin.tableaux import (
    Tableau,
    _at,
    is_partial,
    is_standard,
    reading_word,
    reverse_bump,
    row_insert,
)

T3 = Tableau.skew((4, 3, 3, 2), (2, 2), [[None, None, 1, 6], [None, None, 4], [2, 3, 5], [7, 8]])
T4 = Tableau.skew((4, 3, 2, 2), (2, 1), [[None, None, 1, 6], [None, 3, 4], [2, 5], [7, 8]])


def test_classify_standard_and_generalized():
    standard = Tableau.normal([[1, 3, 5], [2, 4], [6]])
    assert is_standard(standard) and standard.shape.is_normal
    generalized = Tableau.normal([[1, 3, 5], [4, 2], [6]])
    assert not is_partial(generalized) and generalized.shape.is_normal


def test_classify_partial_skew():
    skew = Tableau.skew(
        (4, 3, 3, 2), (2, 2), [[None, None, 1, 7], [None, None, 3], [2, 4, 5], [6, 9]]
    )
    assert is_partial(skew) and not is_standard(skew) and not skew.shape.is_normal
    not_increasing = Tableau.skew(
        (4, 3, 3, 2), (2, 2), [[None, None, 1, 7], [None, None, 5], [2, 4, 3], [6, 9]]
    )
    assert not is_partial(not_increasing) and not not_increasing.shape.is_normal


def test_classify_empty_tableau():
    empty = Tableau.normal([])
    assert is_standard(empty) and empty.shape.is_normal


def test_structural_errors():
    with pytest.raises(TableauError):
        Tableau.normal([[1, 1]])
    with pytest.raises(TableauError):
        Tableau.normal([[1, None]])
    with pytest.raises(TableauError):
        Tableau.skew((2,), (1,), [[5, 3]])
    with pytest.raises(TableauError):
        Tableau.skew((2, 2), (1,), [[None, 1]])
    with pytest.raises(TableauError):
        Tableau.normal([[0, 2]])


def test_row_insert_worked_example():
    p = Tableau.normal([[1, 3, 8, 10], [2, 4, 9], [6, 7], [11, 12]])
    result, added = row_insert(p, 5)
    assert result == Tableau.normal([[1, 3, 5, 10], [2, 4, 8], [6, 7, 9], [11, 12]])
    assert added == Cell(3, 3)


def test_row_insert_trivial_cases():
    result, added = row_insert(Tableau.normal([]), 7)
    assert result == Tableau.normal([[7]])
    assert added == Cell(1, 1)

    result, added = row_insert(Tableau.normal([[1, 2]]), 3)
    assert result == Tableau.normal([[1, 2, 3]])
    assert added == Cell(1, 3)


def test_row_insert_rejects_bad_input():
    p = Tableau.normal([[1, 2]])
    with pytest.raises(DomainError):
        row_insert(p, 2)
    with pytest.raises(DomainError):
        row_insert(T3, 10)  # skew shape
    with pytest.raises(DomainError):
        row_insert(Tableau.normal([[2, 1]]), 3)  # not increasing


def test_reverse_bump_worked_example():
    p = Tableau.normal([[1, 3, 5, 10], [2, 4, 8], [6, 7, 9], [11, 12]])
    result, x = reverse_bump(p, Cell(3, 3))
    assert result == Tableau.normal([[1, 3, 8, 10], [2, 4, 9], [6, 7], [11, 12]])
    assert x == 5


def test_reverse_bump_trivial_cases():
    result, x = reverse_bump(Tableau.normal([[7]]), Cell(1, 1))
    assert result == Tableau.normal([])
    assert x == 7

    result, x = reverse_bump(Tableau.normal([[1, 2, 3]]), Cell(1, 3))
    assert result == Tableau.normal([[1, 2]])
    assert x == 3


def test_reverse_bump_rejects_non_corner():
    p = Tableau.normal([[1, 2], [3, 4]])
    with pytest.raises(DomainError):
        reverse_bump(p, Cell(1, 2))
    with pytest.raises(DomainError):
        reverse_bump(p, Cell(1, 1))


@given(normal_partial_tableaux_st(), st.integers(1, 60))
def test_bump_roundtrip(p, x):
    if x in p.entries:
        x = max(p.entries | {0}) + x
    inserted, added = row_insert(p, x)
    assert is_partial(inserted)
    assert inserted.size == p.size + 1
    restored, value = reverse_bump(inserted, added)
    assert restored == p
    assert value == x


@given(normal_partial_tableaux_st())
def test_reverse_bump_roundtrip_from_any_corner(p):
    from taquin.partitions import inner_corners

    for corner in inner_corners(p.shape.outer):
        popped, value = reverse_bump(p, corner)
        assert row_insert(popped, value) == (p, corner)


def test_reading_word_examples():
    assert reading_word(T3) == (7, 8, 2, 3, 5, 4, 1, 6)
    assert reading_word(T4) == (7, 8, 2, 5, 3, 4, 1, 6)
    assert reading_word(Tableau.normal([[1, 2, 3]])) == (1, 2, 3)


def test_reading_word_of_standard_is_permutation():
    for shape in partitions_of(5):
        for t in enumerate_skew_fillings(SkewShape(shape)):
            assert sorted(reading_word(t)) == list(range(1, 6))


def test_enumeration_count_matches_hook_formula():
    for n in range(1, 11):
        for shape in partitions_of(n):
            assert sum(1 for _ in enumerate_skew_fillings(SkewShape(shape))) == count_syt(shape)


def test_tableau_accessors():
    assert _at(T3.rows, 1, 3) == 1
    assert _at(T3.rows, 1, 1) is None
    assert _at(T3.rows, 9, 9) is None
    assert T3.entries == frozenset(range(1, 9))
    assert T3.size == 8

from bisect import bisect_left
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_permutations, enumerate_skew_fillings
from oracles import knuth_neighbors, knuth_reachable_oracle
from taquin.errors import DomainError, ResourceLimitError
from taquin.partitions import SkewShape, count_syt, partitions_of
from taquin.rsk import Permutation, knuth_equivalent, rsk, rsk_inverse
from taquin.tableaux import Tableau, is_standard, reading_word


@st.composite
def permutations_st(draw, max_n: int = 7):
    n = draw(st.integers(0, max_n))
    word = draw(st.permutations(list(range(1, n + 1))))
    return Permutation(tuple(word))


def test_permutation_validation():
    Permutation((2, 1, 3))
    with pytest.raises(DomainError):
        Permutation((1, 1, 2))
    with pytest.raises(DomainError):
        Permutation((2, 3))


@pytest.mark.parametrize("word", [(True,), (2.0, 1.0), (1, "2")])
def test_permutation_rejects_letters_that_are_not_ints(word):
    with pytest.raises(DomainError, match="not an integer"):
        Permutation(word)


def test_rsk_worked_example():
    p, q = rsk(Permutation((7, 8, 2, 3, 5, 4, 1, 6)))
    assert p == Tableau.normal([[1, 3, 4, 6], [2, 8], [5], [7]])
    assert q == Tableau.normal([[1, 2, 5, 8], [3, 4], [6], [7]])

    p2, _ = rsk(Permutation((7, 8, 2, 5, 3, 4, 1, 6)))
    assert p2 == p


def test_rsk_identity_gives_single_row():
    for n in (1, 4, 6):
        p, q = rsk(Permutation(tuple(range(1, n + 1))))
        assert p == q == Tableau.normal([list(range(1, n + 1))])


@given(permutations_st())
def test_rsk_outputs_standard_same_shape(pi):
    p, q = rsk(pi)
    assert p.shape == q.shape
    assert is_standard(p) and is_standard(q)
    assert p.size == pi.n


# Size-independent invariants: they check the bump kernel at sizes the
# brute-force oracles cannot reach.
@settings(max_examples=25, deadline=None)
@given(permutations_st(max_n=1000))
def test_rsk_of_inverse_swaps_the_tableaux(pi):
    inverse = [0] * pi.n
    for position, value in enumerate(pi.word, start=1):
        inverse[value - 1] = position
    p, q = rsk(pi)
    assert rsk(Permutation(tuple(inverse))) == (q, p)


def longest_increasing_subsequence(word) -> int:
    """Patience sorting: tails[k] is the least last entry of an increasing run of length k+1."""
    tails: list[int] = []
    for value in word:
        k = bisect_left(tails, value)
        if k == len(tails):
            tails.append(value)
        else:
            tails[k] = value
    return len(tails)


@settings(max_examples=25, deadline=None)
@given(permutations_st(max_n=1000))
def test_first_row_is_longest_increasing_subsequence(pi):
    p, _ = rsk(pi)
    first_row = p.rows[0] if p.rows else ()
    assert len(first_row) == longest_increasing_subsequence(pi.word)


def test_rsk_inverse_examples():
    row = Tableau.normal([[1, 2, 3]])
    assert rsk_inverse(row, row) == Permutation((1, 2, 3))

    column = Tableau.normal([[1], [2]])
    assert rsk_inverse(column, column) == Permutation((2, 1))

    pi = Permutation((7, 8, 2, 3, 5, 4, 1, 6))
    assert rsk_inverse(*rsk(pi)) == pi


def test_rsk_inverse_rejects_bad_pairs():
    row = Tableau.normal([[1, 2]])
    column = Tableau.normal([[1], [2]])
    with pytest.raises(DomainError):
        rsk_inverse(row, column)
    with pytest.raises(DomainError):
        rsk_inverse(Tableau.normal([[2, 3]]), Tableau.normal([[1, 2]]))
    with pytest.raises(DomainError):
        rsk_inverse(Tableau.normal([[2, 1]]), Tableau.normal([[1, 2]]))


def test_rsk_inverse_rejects_a_tableau_that_skips_an_entry():
    standard = Tableau.normal([[1, 2], [3]])
    for skips in ([[1, 2], [8]], [[1, 3], [4]], [[2, 3], [4]], [[1, 4], [3]]):
        for pair in ((Tableau.normal(skips), standard), (standard, Tableau.normal(skips))):
            with pytest.raises(DomainError, match="both tableaux must be standard"):
                rsk_inverse(*pair)


def test_rsk_bijection_exhaustive_small():
    for n in range(6):
        for pi in all_permutations(n):
            assert rsk_inverse(*rsk(pi)) == pi


def test_rsk_image_counts_match_squared_identity():
    for n in range(1, 6):
        images = set()
        by_shape = Counter()
        for pi in all_permutations(n):
            p, q = rsk(pi)
            images.add((p, q))
            by_shape[p.shape.outer.parts] += 1
        assert len(images) == factorial(n)
        for shape in partitions_of(n):
            assert by_shape[shape.parts] == count_syt(shape) ** 2


def test_insertion_tableau_of_reading_word_is_identity():
    # Rebuilding a standard tableau from its own reading word restores it.
    for n in range(1, 9):
        for shape in partitions_of(n):
            for t in enumerate_skew_fillings(SkewShape(shape)):
                p, _ = rsk(Permutation(reading_word(t)))
                assert p == t


def test_knuth_neighbors_examples():
    assert Permutation((2, 3, 1)) in knuth_neighbors(Permutation((2, 1, 3)))
    assert Permutation((3, 1, 2)) in knuth_neighbors(Permutation((1, 3, 2)))
    assert knuth_neighbors(Permutation((1, 2, 3))) == frozenset()
    assert knuth_neighbors(Permutation((1, 2))) == frozenset()


def test_knuth_neighbors_symmetric():
    for pi in all_permutations(4):
        for tau in knuth_neighbors(pi):
            assert pi in knuth_neighbors(tau)


def test_knuth_equivalent_examples():
    assert knuth_equivalent(Permutation((2, 1, 3)), Permutation((2, 3, 1)))
    assert knuth_equivalent(Permutation((1, 3, 2)), Permutation((3, 1, 2)))
    pi = Permutation((3, 1, 4, 2))
    assert knuth_equivalent(pi, pi)
    assert not knuth_equivalent(Permutation((1, 2, 3)), Permutation((3, 2, 1)))
    with pytest.raises(DomainError):
        knuth_equivalent(Permutation((1, 2)), Permutation((1, 2, 3)))


def test_knuth_reachable_oracle_examples():
    assert knuth_reachable_oracle(Permutation((2, 1, 3)), Permutation((2, 3, 1)))
    assert knuth_reachable_oracle(Permutation((1, 2, 3)), Permutation((1, 2, 3)))
    assert not knuth_reachable_oracle(Permutation((1, 2, 3)), Permutation((2, 1, 3)))
    with pytest.raises(ResourceLimitError):
        nine = Permutation(tuple(range(1, 10)))
        knuth_reachable_oracle(nine, nine)
    with pytest.raises(DomainError):
        knuth_reachable_oracle(Permutation((1,)), Permutation((1, 2)))


def test_oracle_agreement_small():
    for n in (3, 4):
        perms = all_permutations(n)
        for pi in perms:
            for tau in perms:
                assert knuth_equivalent(pi, tau) == knuth_reachable_oracle(pi, tau)


def test_knuth_class_sizes_match_recording_count():
    # Every insertion-tableau class holds one permutation per recording tableau.
    perms = all_permutations(5)
    by_p = Counter(rsk(pi)[0] for pi in perms)
    for p, size in by_p.items():
        assert size == count_syt(p.shape.outer)

"""Permutations, the Robinson-Schensted correspondence, and Knuth equivalence."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .partitions import _is_positive_int
from .tableaux import Tableau, _bump, _normal, _unbump, is_standard


@dataclass(frozen=True)
class Permutation:
    """One-line notation: position k maps to ``word[k-1]``."""

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        for letter in word:
            if not _is_positive_int(letter):
                raise DomainError(f"letter {letter!r} is not an integer of at least 1")
        if sorted(word) != list(range(1, len(word) + 1)):
            raise DomainError(f"{word} is not a rearrangement of 1..{len(word)}")

    @property
    def n(self) -> int:
        return len(self.word)


def rsk(pi: Permutation) -> tuple[Tableau, Tableau]:
    """Map a permutation to its insertion and recording tableau pair.

    The insertion tableau accumulates the word by row bumping; the recording
    tableau marks, with k, the cell created by the k-th insertion, so both
    grow through the same shape chain.
    """
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for k, value in enumerate(pi.word, start=1):
        i = _bump(p_rows, value)
        if i == len(q_rows):
            q_rows.append([k])
        else:
            q_rows[i].append(k)
    return _normal(p_rows), _normal(q_rows)


def rsk_inverse(p: Tableau, q: Tableau) -> Permutation:
    """Recover the unique permutation whose insertion/recording pair is (p, q)."""
    if not (p.shape.is_normal and q.shape.is_normal and p.shape == q.shape):
        raise DomainError("insertion and recording tableaux must share one normal shape")
    if not (is_standard(p) and is_standard(q)):
        raise DomainError("both tableaux must be standard")

    # Q standard makes the cell holding k a corner once k+1..n are undone.
    row_by_step = {step: cell.row - 1 for cell, step in q.to_cell_map().items()}
    rows = [list(row) for row in p.rows]
    word = [_unbump(rows, row_by_step[k]) for k in range(p.size, 0, -1)]
    pi = object.__new__(Permutation)  # unchecked: a standard pair's word is a permutation
    vars(pi).update(word=tuple(reversed(word)))
    return pi


def knuth_equivalent(pi: Permutation, tau: Permutation) -> bool:
    """Decide Knuth equivalence via equality of insertion tableaux."""
    if pi.n != tau.n:
        raise DomainError(f"length mismatch: {pi.n} vs {tau.n}")
    return rsk(pi)[0] == rsk(tau)[0]

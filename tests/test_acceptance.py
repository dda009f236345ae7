"""Acceptance suite: every criterion with its stated bound, one line per result.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from math import factorial
from random import Random
from time import perf_counter

from conftest import (
    all_permutations,
    enumerate_skew_fillings,
    equivalent_skew_pair,
    exhaustive_rectifications,
    independent_skew_pair,
    subpartitions,
)
from taquin import figures
from taquin.hms import (
    StateKind,
    classify_state,
    descent_pairs,
    naive_slide_up,
    reassignment_sequence,
    rectify_assignment,
    turnaround_sequential,
)
from taquin.partitions import Partition, SkewShape, partitions_of, verify_sum_squares, count_syt
from taquin.randgen import (
    random_hierarchical_capacities,
    random_requirements,
    random_skew_assignment,
    random_standard_assignment,
)
from oracles import knuth_reachable_oracle
from taquin.rsk import Permutation, knuth_equivalent, rsk, rsk_inverse
from taquin.tableaux import ShapeKind, reading_word
from taquin.jdt import jdt_equivalent

ACCEPTANCE_SEED = 1729


def criterion(label):
    def decorate(test):
        @functools.wraps(test)
        def wrapper():
            try:
                detail = test()
            except BaseException:
                print(f"FAIL {label}")
                raise
            print(f"PASS {label}" + (f" ({detail})" if detail else ""))

        return wrapper

    return decorate


@criterion("1 hook formula")
def test_criterion_1_hook_formula():
    count_syt(Partition((2, 2)))  # warm caches before timing
    start = perf_counter()
    small = count_syt(Partition((3, 2, 1)))
    square = count_syt(Partition((4, 4, 4, 4)))
    elapsed = perf_counter() - start
    assert small == 16
    assert square == 24024
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    return f"16 and 24024 in {elapsed * 1e6:.0f} us"


@criterion("2 RSK bijection and counting")
def test_criterion_2_rsk_bijection():
    start = perf_counter()
    cases = 0
    for n in range(7):
        perms = all_permutations(n)
        for pi in perms:
            assert rsk_inverse(*rsk(pi)) == pi
        cases += len(perms)
    assert cases >= 720

    for n in range(1, 11):
        assert verify_sum_squares(n).equal

    for n in range(1, 8):
        images = set()
        by_shape = Counter()
        for pi in all_permutations(n):
            p, q = rsk(pi)
            images.add((p, q))
            by_shape[p.shape.outer] += 1
        assert len(images) == factorial(n)
        for shape in partitions_of(n):
            assert by_shape[shape] == count_syt(shape) ** 2
        assert sum(count_syt(shape) ** 2 for shape in by_shape) == factorial(n)
    elapsed = perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    return f"{cases} roundtrips, identities to n=10, images to n=7 in {elapsed:.1f} s"


@criterion("3 figure fixtures byte-exact")
def test_criterion_3_figures():
    figures.render("fig1-row-insertion")  # warm package-data access before timing
    start = perf_counter()
    results = figures.run_all()
    elapsed = perf_counter() - start
    mismatched = [r.name for r in results if not r.matched]
    assert not mismatched, f"golden mismatch: {mismatched}"
    assert len(results) == len(figures.FIGURES)
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    return f"{len(results)} scenarios in {elapsed * 1000:.0f} ms"


@criterion("4 rectification confluence")
def test_criterion_4_confluence():
    start = perf_counter()
    memo = {}
    tableaux_checked = 0
    for n in range(1, 8):
        for outer in partitions_of(n):
            for inner in subpartitions(outer):
                if not inner.parts:
                    continue
                for filling in enumerate_skew_fillings(SkewShape(outer, inner)):
                    results = exhaustive_rectifications(filling, memo)
                    assert len(results) == 1, f"non-confluent: {filling}"
                    tableaux_checked += 1
    elapsed = perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    return f"{tableaux_checked} skew tableaux in {elapsed:.1f} s"


@criterion("5 equivalence triangle")
def test_criterion_5_equivalence_triangle():
    rng = Random(ACCEPTANCE_SEED)
    agreements = 0
    positives = 0
    for trial in range(500):
        if trial % 2 == 0:
            a, b = equivalent_skew_pair(rng, max_cells=8)
        else:
            a, b = independent_skew_pair(rng, max_cells=8)
        via_slides = jdt_equivalent(a, b)
        word_a = Permutation(reading_word(a))
        word_b = Permutation(reading_word(b))
        via_knuth = knuth_equivalent(word_a, word_b)
        via_insertion = rsk(word_a)[0] == rsk(word_b)[0]
        assert via_slides == via_knuth == via_insertion
        agreements += 1
        positives += via_slides
    assert agreements == 500
    assert 0 < positives < 500  # both outcomes exercised
    return f"500 pairs, {positives} equivalent, 0 disagreements"


@criterion("6 Knuth oracle agreement")
def test_criterion_6_knuth_oracle():
    start = perf_counter()
    pairs = 0
    for n in (4, 5):
        perms = all_permutations(n)
        for pi in perms:
            for tau in perms:
                assert knuth_equivalent(pi, tau) == knuth_reachable_oracle(pi, tau)
                pairs += 1
    elapsed = perf_counter() - start
    assert pairs == 24**2 + 120**2
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    return f"{pairs} pairs in {elapsed:.1f} s"


@criterion("7 scheduler invariants")
def test_criterion_7_scheduler_invariants():
    rng = Random(ACCEPTANCE_SEED)
    for _ in range(1000):
        state = random_standard_assignment(rng, max_rows=5, max_cols=5, min_tasks=2)
        completions = sorted(state.task_cells())
        rng.shuffle(completions)
        trace = reassignment_sequence(state, completions)
        for intermediate in trace.states:
            kind, form = classify_state(intermediate)
            assert kind is StateKind.STANDARD
            assert form is ShapeKind.NORMAL
            assert descent_pairs(intermediate) == ()
    return "1000 traces, every state standard/normal, no descent pairs"


@criterion("8 turnaround improvement")
def test_criterion_8_turnaround():
    rng = Random(ACCEPTANCE_SEED)
    for _ in range(500):
        state = random_standard_assignment(rng, max_rows=4, max_cols=4, min_tasks=2)
        caps = random_hierarchical_capacities(rng, state.shape)
        tasks = random_requirements(rng, state.task_count)
        static = turnaround_sequential(state, tasks, caps, relocate=False).total
        moved = turnaround_sequential(state, tasks, caps, relocate=True).total
        assert moved < static
        expected = sum(tasks.requirements, Fraction(0)) / caps.rates[0][0]
        assert moved == expected
    return "500 instances, T2 < T1 and T2 = sum(r)/c(1,1) exactly"


@criterion("9 descent-pair contrast")
def test_criterion_9_descent_contrast():
    rng = Random(ACCEPTANCE_SEED)
    instances = [figures.load_state_fixture("fig6c.json")]
    instances += [random_skew_assignment(rng, max_rows=5, max_cols=5) for _ in range(99)]
    positives = 0
    for state in instances:
        slid = naive_slide_up(state)
        naive_descents = len(descent_pairs(slid))
        assert naive_descents >= 0
        positives += naive_descents > 0
        final = rectify_assignment(state).final
        assert descent_pairs(final) == ()
        kind, form = classify_state(final)
        assert kind is StateKind.STANDARD and form is ShapeKind.NORMAL
    assert positives >= 1
    return f"100 states, {positives} naive slide-ups with descents, greedy always clean"

"""Timings for CI's job summary, one line per kernel: a report, not a gate.

Run from the repository root with ``PYTHONPATH=src python tests/ci_report.py``.
Every time is the best of several calls, except the CLI's start baseline, which
is the median of several child processes.  The one check is the stop at the
printable digits: each turnaround on 4000-digit requirements must raise.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from random import Random

from taquin.cli import MAX_RSK_N
from taquin.errors import ResourceLimitError
from taquin.hms import (
    HmtState,
    TaskSet,
    reassign_on_completion,
    reassignment_sequence,
    rectify_assignment,
    turnaround_sequential,
)
from taquin.jdt import backward_slide_trace, forward_slide_trace
from taquin.jsonio import encode_trace
from taquin.partitions import Cell, Partition, SkewShape
from taquin.randgen import (
    random_hierarchical_capacities,
    random_requirements,
    random_standard_filling,
)
from taquin.rsk import Permutation, rsk, rsk_inverse
from taquin.tableaux import is_standard


def best_ms(f, repeat: int = 3) -> float:
    """The least wall time of ``repeat`` calls of ``f``, in ms."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        f()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def full_mesh(rng: Random, rows: int, cols: int) -> HmtState:
    mesh = Partition((cols,) * rows)
    return HmtState(mesh, random_standard_filling(rng, SkewShape(mesh)).rows)


def priority_order_completions() -> str:
    """A 60x60 mesh filled along antidiagonals and completed in priority order (212,400
    relocations), with the collector on and off, and the trace's ``tracemalloc`` peak."""
    k = 60
    cells = sorted(((i, j) for i in range(k) for j in range(k)), key=lambda c: (sum(c), c[1]))
    grid = [[0] * k for _ in range(k)]
    for task, (i, j) in enumerate(cells, start=1):
        grid[i][j] = task
    a0, order = HmtState.of((k,) * k, grid), list(range(1, k * k + 1))
    on = best_ms(lambda: reassignment_sequence(a0, order))
    gc.disable()
    off = best_ms(lambda: reassignment_sequence(a0, order))
    gc.enable()
    tracemalloc.start()
    reassignment_sequence(a0, order)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return (f"60x60 priority-order reassignment_sequence: {on:.0f} ms with gc, "
            f"{off:.0f} ms without, tracemalloc peak {peak / 1e6:.1f} MB")


def trace_readers() -> str:
    """A full 32x32 mesh completed in priority order: the sequence alone, then with each reader
    of its move log (``final``, ``==`` against a trace built beforehand, ``encode_trace``)."""
    a0, order = full_mesh(Random(1), 32, 32), list(range(1, 32 * 32 + 1))
    built = reassignment_sequence(a0, order)

    def sequence():
        return reassignment_sequence(a0, order)

    readers = (
        ("alone", sequence),
        ("with final", lambda: sequence().final),
        ("with ==", lambda: sequence() == built),
        ("with encode_trace", lambda: encode_trace(sequence())),
    )
    line = [f"{name} {best_ms(read, 7):.1f} ms" for name, read in readers]
    return "32x32 priority-order reassignment_sequence, best of 7: " + ", ".join(line)


def other_slides() -> str:
    """The slide kernel's other callers: a 32x32 mesh holding a random filling of the staircase
    skew shape rectified, and a 60x60 tableau slid backward from a new row and forward again."""
    rng, k = Random(1), 32
    mesh = Partition((k,) * k)
    staircase = SkewShape(mesh, Partition(tuple(range(k - 1, 0, -1))))
    a0 = HmtState(mesh, random_standard_filling(rng, staircase).rows)
    t = random_standard_filling(rng, SkewShape(Partition((60,) * 60)))

    def round_trip():
        slid, vacated, _ = backward_slide_trace(t, Cell(61, 1))
        assert forward_slide_trace(slid, vacated)[0] == t

    return (f"32x32 staircase-skew rectify_assignment: "
            f"{best_ms(lambda: rectify_assignment(a0)):.0f} ms, "
            f"60x60 backward_slide_trace round trip: {best_ms(round_trip):.1f} ms")


def turnarounds() -> str:
    """Both modes on full meshes with random capacities and requirements.  Then the stop at the
    printable digits: a full 1x512 mesh with requirements 1/d, each d a 4000-digit integer,
    where every call must raise (skipped where the interpreter has no limit)."""

    def timed(a0, tasks, caps, relocate, stops):
        def call():
            try:
                turnaround_sequential(a0, tasks, caps, relocate)
                assert not stops, "the 4000-digit sum did not stop"
            except ResourceLimitError:
                assert stops

        return f"{best_ms(call):.1f} ms"

    rng, line = Random(1), []
    for rows, cols in ((32, 32), (1, 1024)):
        a0 = full_mesh(rng, rows, cols)
        caps = random_hierarchical_capacities(rng, a0.shape)
        tasks = random_requirements(rng, a0.shape.n)
        for relocate in (False, True):
            line.append(f"{rows}x{cols} relocate={relocate} "
                        + timed(a0, tasks, caps, relocate, False))
    if hasattr(sys, "get_int_max_str_digits"):
        a0 = full_mesh(rng, 1, 512)
        caps = random_hierarchical_capacities(rng, a0.shape)
        tasks = TaskSet(tuple(Fraction(1, rng.randrange(10**3999, 10**4000)) for _ in range(512)))
        for relocate in (False, True):
            line.append(f"1x512 stop relocate={relocate} " + timed(a0, tasks, caps, relocate, True))
    return "turnaround_sequential, best of 3: " + ", ".join(line)


def single_completions() -> str:
    """One completion on a full 32x32 mesh, best of 20 calls per task."""
    a0 = full_mesh(Random(1), 32, 32)
    line = [
        f"task {task} {best_ms(lambda: reassign_on_completion(a0, task), 20):.2f} ms"
        for task in (1, 512, 1024)
    ]
    return "32x32 reassign_on_completion, best of 20: " + ", ".join(line)


def rsk_round_trip() -> str:
    """rsk then rsk_inverse on one random permutation of the CLI's largest size, and
    is_standard on its P."""
    word = list(range(1, MAX_RSK_N + 1))
    Random(1).shuffle(word)
    pi = Permutation(tuple(word))
    p, q = rsk(pi)
    assert rsk_inverse(p, q) == pi
    return (f"{MAX_RSK_N}-letter permutation, best of 3: rsk {best_ms(lambda: rsk(pi)):.0f} ms, "
            f"rsk_inverse {best_ms(lambda: rsk_inverse(p, q)):.0f} ms, "
            f"is_standard(P) {best_ms(lambda: is_standard(p)):.2f} ms")


def cli_start() -> str:
    """The CLI's start baseline: a child that imports ``taquin.cli`` and prints ``--help``,
    beside a bare interpreter, median of 7 wall times each (the child inherits PYTHONPATH)."""

    def median_ms(code: str) -> float:
        times = []
        for _ in range(7):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], stdout=subprocess.DEVNULL, check=True)
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3

    help_ms = median_ms("import sys; from taquin.cli import main; sys.exit(main(['--help']))")
    return (f"CLI start, median of 7 child runs: taquin --help {help_ms:.0f} ms, "
            f"python -c pass {median_ms('pass'):.0f} ms")


if __name__ == "__main__":
    for report in (priority_order_completions, trace_readers, other_slides, turnarounds,
                   single_completions, rsk_round_trip, cli_start):
        print(report(), flush=True)

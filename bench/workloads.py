"""The benchmark's three workloads: seeded inputs, the operation, its output check, its work counts.

Every workload builds a pool of rounds at set-up from ``random.Random(seed)``.
A round is a fixed mix of operations; the timed loop replays whole rounds, so
every run sees the same mix whatever its length.  ``run`` is the timed
operation.  ``check`` and ``counts`` run outside the timed interval and read
only the operation's outputs: the checks here are independent of the code
paths they check (own patience sort, raw-grid scans, byte comparison).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path
from random import Random
from typing import Any, NamedTuple

HERE = Path(__file__).resolve().parent

# Ops per size class in one 25-op round, smallest class first.  Cumulative
# shares 0.28 / 0.68 / 0.80 / 1.00 put the median in the middle of the second
# class and the 90th percentile in the middle of the largest one, away from
# class boundaries and from the tails that short fast or slow spells of a
# shared host stretch.  With 25 ops, both percentiles fall in the middle of
# one op's share (the 13th and the 23rd), not between two ops of different
# sizes, where a percentile jumps with small changes of either op's time.
CLASS_WEIGHTS = (7, 10, 3, 5)

# The ops of a class sit at fixed positions spread over half an octave around
# the class's nominal size, the same in every round and for every seed.  A
# shared host can alternate between fast and slow spells; with one size per
# class a latency percentile jumps between the two speeds from run to run,
# while spread sizes make it move smoothly with the share of fast time.
SIZE_SPREAD_OCTAVES = 0.5

CHILD_TIMEOUT_S = 60


class Op(NamedTuple):
    """One operation: ``command`` names its kind, ``size_class`` groups it for the slope fit."""

    command: str
    size_class: str | None
    size: int
    data: Any


def spread_position(j: int, count: int) -> float:
    """Position in (-0.5, 0.5) of the j-th of ``count`` evenly spread ops."""
    return (j + 0.5) / count - 0.5


def round_slots(weights: tuple[int, ...]) -> list[tuple[int, float]]:
    """(class index, size position) of each op of one round, classes interleaved."""
    slots = [((j + 0.5) / w, c, spread_position(j, w)) for c, w in enumerate(weights)
             for j in range(w)]
    return [(c, u) for _, c, u in sorted(slots)]


def scaled(nominal: float, position: float) -> float:
    return nominal * 2 ** (position * SIZE_SPREAD_OCTAVES)


def mesh_sides(k: int, position: float) -> tuple[int, int]:
    """Rows and columns, each within 1 of k, whose product is nearest the scaled k * k."""
    target = scaled(k * k, position)
    sides = [(r, c) for r in (k - 1, k, k + 1) for c in (k - 1, k, k + 1)]
    return min(sides, key=lambda rc: (abs(rc[0] * rc[1] - target), rc))


def longest_increasing(word) -> int:
    """Length of the longest increasing subsequence, by patience sorting."""
    tails: list[int] = []
    for x in word:
        k = bisect_left(tails, x)
        if k == len(tails):
            tails.append(x)
        else:
            tails[k] = x
    return len(tails)


def is_normal_and_descent_free(grid) -> bool:
    """Occupied cells form a top-left justified partition and increase right and down."""
    width_above = len(grid[0]) if grid else 0
    for i, row in enumerate(grid):
        width = 0
        while width < len(row) and row[width] is not None:
            width += 1
        if width > width_above or any(task is not None for task in row[width:]):
            return False
        for j in range(width):
            if j + 1 < width and row[j + 1] < row[j]:
                return False
            if i + 1 < len(grid) and grid[i + 1][j] is not None and grid[i + 1][j] < row[j]:
                return False
        width_above = width
    return True


def trace_counts(trace) -> dict[str, int]:
    moves = [len(event.relocations) for event in trace.events]
    return {"hms.relocations": sum(moves), "hms.longest_cascade": max(moves, default=0)}


def full_state(tq, rng: Random, rows: int, cols: int):
    """A rows x cols mesh with every cell busy, holding a random standard filling."""
    shape = tq.partitions.Partition((cols,) * rows)
    filling = tq.randgen.random_standard_filling(rng, tq.partitions.SkewShape(shape))
    return tq.hms.HmtState(shape, filling.rows)


class Workload:
    """Base: ``make_op`` draws one input of a size class; subclasses run and check it."""

    name = ""
    sizes: tuple[int, ...] = ()
    children = False  # whether ops run in child processes
    # Distinct rounds of inputs; the more there are, the less the latency
    # percentiles depend on the seed.  Set-up time grows with it.
    pool_rounds = 4

    def __init__(self, tq, seed: int, work_dir: Path) -> None:
        self.tq = tq
        self.work_dir = work_dir
        rng = Random(seed)
        self.rounds = [self.make_round(rng) for _ in range(self.pool_rounds)]

    def make_round(self, rng: Random) -> list[Op]:
        return [self.make_op(rng, self.sizes[c], u) for c, u in round_slots(CLASS_WEIGHTS)]

    def make_op(self, rng: Random, nominal: int, position: float) -> Op:
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, out: Any) -> bool:
        raise NotImplementedError

    def counts(self, op: Op, out: Any) -> dict[str, int]:
        return {}

    def counts_work(self, op: Op) -> bool:
        """Whether ``counts`` holds the op's kernel work, so its spans feed the work rates."""
        return True

    def close(self) -> None:
        """Release what set-up made; library workloads make nothing."""


class RskRoundtrip(Workload):
    """rsk then rsk_inverse on a random permutation of n letters."""

    name = "rsk-roundtrip"
    sizes = (64, 128, 256, 512)
    pool_rounds = 8

    def make_op(self, rng, nominal, position):
        n = round(scaled(nominal, position))
        word = list(range(1, n + 1))
        rng.shuffle(word)
        return Op("rsk-roundtrip", f"n={nominal}", n, self.tq.rsk.Permutation(tuple(word)))

    def run(self, op):
        rsk = self.tq.rsk
        p, q = rsk.rsk(op.data)
        return p, q, rsk.rsk_inverse(p, q)

    def check(self, op, out):
        p, _, back = out
        return back == op.data and len(p.rows[0]) == longest_increasing(op.data.word)

    def counts(self, op, out):
        # Insertion k bumps once per row above the cell it creates, and Q
        # records k in that cell.
        q = out[1]
        return {"rsk.bumps": sum(i * len(row) for i, row in enumerate(q.rows))}


class MeshCompletions(Workload):
    """A full completion sequence plus both turnaround variants on a full mesh of about k x k."""

    name = "mesh-completions"
    sizes = (5, 8, 11, 15)
    pool_rounds = 6

    def make_op(self, rng, k, position):
        tq = self.tq
        state = full_state(tq, rng, *mesh_sides(k, position))
        m = state.task_count
        order = list(range(1, m + 1))
        rng.shuffle(order)
        tasks = tq.randgen.random_requirements(rng, m)
        caps = tq.randgen.random_hierarchical_capacities(rng, state.shape)
        return Op("mesh-completions", f"k={k}", m, (state, order, tasks, caps))

    def run(self, op):
        hms = self.tq.hms
        state, order, tasks, caps = op.data
        trace = hms.reassignment_sequence(state, order)
        moved = hms.turnaround_sequential(state, tasks, caps, relocate=True)
        static = hms.turnaround_sequential(state, tasks, caps, relocate=False)
        return trace, moved.total, static.total

    def check(self, op, out):
        trace, t2, t1 = out
        order = op.data[1]
        if not t2 < t1 or len(trace.events) != len(order):
            return False
        remaining = set(order)
        for index, event in enumerate(trace.events):
            if event.trigger.task != order[index]:
                return False
            remaining.discard(order[index])
            if event.noop:
                if index != len(order) - 1:
                    return False
                continue
            grid = event.state.occupancy
            if {t for row in grid for t in row if t is not None} != remaining:
                return False
            if not is_normal_and_descent_free(grid):
                return False
        return True

    def counts(self, op, out):
        return trace_counts(out[0])


def random_parts(rng: Random, cells: int, rows: int, cols: int) -> tuple[int, ...]:
    """Row lengths of a random partition of ``cells`` cells inside a rows x cols box.

    Fixing the cell count keeps the rectification work steady from seed to
    seed; only the shape is random.
    """
    parts: list[int] = []
    for _ in range(cells):
        addable = [
            i for i in range(min(len(parts) + 1, rows))
            if (parts[i] if i < len(parts) else 0) < cols
            and (i == 0 or parts[i - 1] > (parts[i] if i < len(parts) else 0))
        ]
        i = rng.choice(addable)
        if i == len(parts):
            parts.append(1)
        else:
            parts[i] += 1
    return tuple(parts)


# The plain child runs the CLI as the installed ``taquin`` entry point does.
CLI_BOOT = "import sys; from taquin.cli import main; sys.exit(main())"

# One round of CLI commands; simulate-16 is the heaviest (multi-MB trace
# output) and fills the top fifth, so the 90th percentile lies inside it.
CLI_ROUND = (
    "rsk", "simulate-16", "count", "check", "simulate-4",
    "turnaround", "rsk-inverse", "simulate-16", "malformed", "verify-identity",
    "rsk", "simulate-8", "figures", "check", "simulate-16",
    "turnaround-random", "rectify", "simulate-4", "malformed", "simulate-16",
)
CLI_COMMANDS = (
    "rsk", "rsk-inverse", "simulate", "rectify", "turnaround", "turnaround-random",
    "count", "verify-identity", "check", "figures", "malformed",
)


class CliMix(Workload):
    """One ``taquin`` process per op, on input files and expected bytes made at set-up."""

    name = "cli-mix"
    pool_rounds = 1
    children = True

    def __init__(self, tq, seed, work_dir):
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        self.files = 0
        self.spans_path: str | None = None
        self.env = {**os.environ, "PYTHONPATH": str(Path(tq.pkg.__file__).parent.parent)}
        super().__init__(tq, seed, work_dir)

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def write(self, obj: Any, raw: str | None = None) -> str:
        self.files += 1
        path = self.work_dir / f"in{self.files}.json"
        path.write_text(raw if raw is not None else self.tq.jsonio.canonical_dumps(obj))
        return str(path)

    def make_round(self, rng):
        ops, seen = [], {}
        for command in CLI_ROUND:
            seen[command] = seen.get(command, -1) + 1
            position = spread_position(seen[command], CLI_ROUND.count(command))
            ops.append(self.make_command(rng, command, position))
        return ops

    def make_command(self, rng: Random, command: str, position: float) -> Op:
        tq = self.tq
        io, hms = tq.jsonio, tq.hms
        env, size_class, size, relocations, code = None, None, 0, {}, 0
        if command == "rsk":
            word = list(range(1, 301))
            rng.shuffle(word)
            p, q = tq.rsk.rsk(tq.rsk.Permutation(tuple(word)))
            args = ["rsk", "--perm", ",".join(map(str, word))]
            out = {"perm": word, "P": io.encode_tableau(p), "Q": io.encode_tableau(q)}
        elif command == "rsk-inverse":
            word = list(range(1, 301))
            rng.shuffle(word)
            p, q = tq.rsk.rsk(tq.rsk.Permutation(tuple(word)))
            pe, qe = io.encode_tableau(p), io.encode_tableau(q)
            args = ["rsk", "--inverse", self.write(pe), self.write(qe)]
            out = {"P": pe, "Q": qe, "perm": word}
        elif command.startswith("simulate-"):
            k = int(command.split("-")[1])
            state = full_state(tq, rng, *mesh_sides(k, position))
            command, size_class, size = "simulate", f"k={k}", state.task_count
            order = list(range(1, size + 1))
            rng.shuffle(order)
            trace = hms.reassignment_sequence(state, order)
            relocations = trace_counts(trace)
            args = ["simulate", "--state", self.write(io.encode_hmt_state(state)),
                    "--completions", ",".join(map(str, order))]
            out = io.encode_trace(trace)
        elif command == "rectify":
            k = 10
            inner = tq.partitions.Partition(random_parts(rng, k * k // 8, k // 2, k // 2))
            shape = tq.partitions.SkewShape(tq.partitions.Partition((k,) * k), inner)
            state = hms.HmtState(shape.outer, tq.randgen.random_standard_filling(rng, shape).rows)
            trace = hms.rectify_assignment(state)
            relocations = trace_counts(trace)
            # Each event is one forward slide, and each relocation one step of it.
            relocations["jdt.slide_steps"] = relocations["hms.relocations"]
            args = ["rectify", "--state", self.write(io.encode_hmt_state(state))]
            out = io.encode_trace(trace)
        elif command == "turnaround":
            state = full_state(tq, rng, 6, 6)
            tasks = tq.randgen.random_requirements(rng, 36)
            caps = tq.randgen.random_hierarchical_capacities(rng, state.shape)
            t1 = hms.turnaround_sequential(state, tasks, caps, relocate=False).total
            t2 = hms.turnaround_sequential(state, tasks, caps, relocate=True).total
            capacities = {"shape": io.encode_partition(caps.shape),
                          "c": io.encode_capacity_rates(caps)}
            args = ["turnaround", "--state", self.write(io.encode_hmt_state(state)),
                    "--requirements", self.write(io.encode_task_set(tasks)),
                    "--capacities", self.write(capacities)]
            out = {"t1": io.encode_fraction(t1), "t2": io.encode_fraction(t2),
                   "difference": io.encode_fraction(t1 - t2)}
        elif command == "turnaround-random":
            seed, trials = rng.randrange(10**6), 20
            env = {**self.env, "TAQUIN_SEED": str(seed)}
            trial_rng = Random(seed)
            differences = []
            for _ in range(trials):
                state = tq.randgen.random_standard_assignment(trial_rng, min_tasks=2)
                caps = tq.randgen.random_hierarchical_capacities(trial_rng, state.shape)
                tasks = tq.randgen.random_requirements(trial_rng, state.task_count)
                t1 = hms.turnaround_sequential(state, tasks, caps, relocate=False).total
                t2 = hms.turnaround_sequential(state, tasks, caps, relocate=True).total
                differences.append(t1 - t2)
            violations = [t for t, d in enumerate(differences) if not d > 0]
            args = ["turnaround", "--random", str(trials)]
            out = {"trials": trials, "seed": seed, "all_improved": not violations,
                   "min_difference": io.encode_fraction(min(differences)),
                   "violations": violations}
            code = 1 if violations else 0
        elif command == "count":
            shape = tq.randgen.random_partition_in_box(rng, 6, 6)
            args = ["count", "--shape", ",".join(map(str, shape.parts))]
            out = {"shape": list(shape.parts),
                   "hook_lengths": [list(r) for r in tq.partitions.hook_lengths(shape)],
                   "count": tq.partitions.count_syt(shape)}
        elif command == "verify-identity":
            n = rng.randint(8, 14)
            result = tq.partitions.verify_sum_squares(n)
            args = ["verify-identity", "--n", str(n)]
            out = {"n": n, "sum_of_squares": result.sum_of_squares,
                   "factorial": result.factorial, "equal": result.equal}
        elif command == "check":
            state = tq.randgen.random_skew_assignment(rng, 6, 6)
            kind, form = hms.classify_state(state)
            shape, _ = hms.maximally_embedded(state)
            args = ["check", "--state", self.write(io.encode_hmt_state(state))]
            out = {"classification": kind.value, "form": form.value,
                   "embedded": io.encode_skew_shape(shape),
                   "descent_pairs": [[io.encode_cell(a), io.encode_cell(b)]
                                     for a, b in hms.descent_pairs(state)]}
        elif command == "figures":
            args = ["figures"]
            out = "".join(f"ok {name}\n" for name in tq.figures.FIGURES)
        else:
            args = self.malformed(rng)
            return Op(command, None, 0, (args, None, 2, b"", {}))
        text = out if isinstance(out, str) else io.canonical_dumps(out)
        return Op(command, size_class, size, (args, env, code, text.encode(), relocations))

    def malformed(self, rng: Random) -> list[str]:
        """Arguments whose only correct outcome is exit code 2 and a one-line error."""
        tq = self.tq
        kind = rng.randrange(5)
        if kind == 0:
            word = list(range(1, rng.randint(5, 40)))
            word[rng.randrange(1, len(word))] = word[0]
            return ["rsk", "--perm", ",".join(map(str, word))]
        if kind == 1:
            small = rng.randint(1, 5)
            return ["count", "--shape", f"{small},{small + rng.randint(1, 5)}"]
        if kind == 2:
            text = tq.jsonio.canonical_dumps(
                tq.jsonio.encode_hmt_state(full_state(tq, rng, 4, 4)))
            return ["check", "--state", self.write(None, text[: rng.randrange(1, len(text) - 1)])]
        if kind == 3:
            k = rng.randint(2, 6)
            rows = [[i * k + j + 1 for j in range(k)] for i in range(k)]
            rows[-1][-1] = rows[0][0]
            return ["check", "--state", self.write({"shape": [k] * k, "cells": rows})]
        state = full_state(tq, rng, 4, 4)
        requirements = {str(t): "1" for t in range(1, 16)}
        return ["turnaround", "--state", self.write(tq.jsonio.encode_hmt_state(state)),
                "--requirements", self.write(requirements)]

    def run(self, op):
        args, env, _, _, _ = op.data
        if self.spans_path is None:
            argv = [sys.executable, "-c", CLI_BOOT, *args]
        else:
            argv = [sys.executable, str(HERE / "launcher.py"), self.spans_path, *args]
        return subprocess.run(argv, capture_output=True, env=env or self.env,
                              timeout=CHILD_TIMEOUT_S, check=False)

    def check(self, op, out):
        _, _, code, stdout, _ = op.data
        if out.returncode != code or out.stdout != stdout:
            return False
        if code != 2:
            return out.stderr == b""
        err = out.stderr.decode("utf-8", "replace")
        return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def counts(self, op, out):
        return {**op.data[4], "jsonio.bytes_out": len(out.stdout)}

    def counts_work(self, op):
        # Only simulate and rectify have work counts; figures also runs
        # cascades and slides, but on fixtures whose work is not counted.
        return bool(op.data[4])


WORKLOADS = {w.name: w for w in (RskRoundtrip, MeshCompletions, CliMix)}

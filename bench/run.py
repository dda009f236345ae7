"""Benchmark of the taquin library and CLI: closed-loop workloads with checked outputs.

Usage, from the repository root:

    python3 bench/run.py --workload rsk-roundtrip --seed 1 --seconds 30 --trace 0

One caller issues each operation only after the previous one returned (a
closed loop with one client); CLI children run one at a time.  With
``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` the run sets up once, replays the first rounds of the input pool
untraced for half the time, then runs those rounds once more with spans
around each layer's public functions, and the last line holds the per-layer
metrics.  The line before
it is a record of the run: interpreter, host, commit, seeds, sample counts,
the per-size-class latency medians and the times before scaling to the
host's reference speed (see ``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from hostspeed import HostSpeed
from spans import SPAN_NAMES, SpanStats, Tracer
from workloads import CLI_COMMANDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# An end-to-end run sets up SETUP_SECONDS / (first set-up's time) times,
# clamped to [SETUP_MIN_RUNS, SETUP_MAX_RUNS], and reports the median of
# their times scaled to the host's reference speed.  The repeats are spread
# evenly through the timed loop, so that they sample the host over the run.
SETUP_MIN_RUNS = 4
SETUP_MAX_RUNS = 25
SETUP_SECONDS = 6.0
SETUP_PROBES = 2  # reference probes just before and just after each set-up
TRACED_ROUNDS = 4
MIN_OPS = 100  # so that at least ten latencies lie beyond the 90th percentile
MODULES = ("partitions", "tableaux", "rsk", "jdt", "hms", "jsonio", "randgen", "figures", "cli")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "size_slope": "1",
    "peak_rss_mb": "MB",
}

# Span-derived per-layer metrics: span name and the statistics kept for it.
SPAN_METRICS = (
    ("tableaux.Tableau.init", ("calls", "self_s")),
    ("tableaux.is_partial", ("calls", "self_s")),
    ("tableaux.row_insert", ("self_s",)),
    ("tableaux.reverse_bump", ("self_s",)),
    ("rsk.rsk", ("busy_s",)),
    ("rsk.rsk_inverse", ("busy_s",)),
    ("hms.reassign_on_completion", ("calls", "self_s")),
    ("hms.reassignment_sequence", ("busy_s",)),
    ("hms.turnaround_sequential", ("busy_s",)),
    ("hms.classify_state", ("calls", "busy_s")),
    ("hms.maximally_embedded", ("self_s",)),
    ("partitions.skew_shape_of_cells", ("calls", "self_s")),
    ("tableaux.Tableau.from_cells", ("self_s",)),
    ("hms.HmtState.cell_of", ("calls", "self_s")),
    ("hms.HmtState.init", ("calls", "self_s")),
    ("jdt.forward_slide_trace", ("calls", "self_s")),
    ("jdt.backward_slide_trace", ("self_s",)),
    ("hms.rectify_assignment", ("busy_s", "self_s")),
    ("partitions.inner_corners", ("calls",)),
    ("cli.main", ("busy_s",)),
    ("jsonio.canonical_dumps", ("busy_s",)),
    ("jsonio.encode_trace", ("busy_s",)),
    ("jsonio.decode_hmt_state", ("busy_s",)),
    ("jsonio.decode_tableau", ("busy_s",)),
    ("partitions.count_syt", ("busy_s",)),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "busy_s": "s"}

# Per-layer metrics derived from outputs, from spans across functions, or from
# the untraced loop of the same run.
DERIVED = {
    "rsk.bumps": "count",
    "rsk.bumps_per_s": "1/s",
    "hms.relocations": "count",
    "hms.longest_cascade": "count",
    "hms.relocations_per_s": "1/s",
    "hms.validate_share": "ratio",
    "jdt.slide_steps": "count",
    "jdt.slide_steps_per_s": "1/s",
    "cli.import_s": "s",
    **{f"cli.{command}.p50_ms": "ms" for command in CLI_COMMANDS},
    "jsonio.bytes_out": "bytes",
    "trace.overhead_frac": "ratio",
}
COUNTS = ("rsk.bumps", "hms.relocations", "hms.longest_cascade", "jdt.slide_steps",
          "jsonio.bytes_out")
MAX_COUNTS = frozenset({"hms.longest_cascade"})

# The hms entry points whose outermost spans bound ``hms.validate_share``.
HMS_FUNCTIONS = frozenset(
    n for n in SPAN_NAMES if n.startswith("hms.") and not n.startswith("hms.HmtState.")
)
SPAN_GROUPS = {
    "validate": frozenset({"hms.classify_state", "hms.maximally_embedded"}),
    "hms": HMS_FUNCTIONS,
}


def per_layer_units() -> dict[str, str]:
    units = {
        f"{name}.{stat}": STAT_UNITS[stat] for name, stats in SPAN_METRICS for stat in stats
    }
    units.update(DERIVED)
    return units


def load_taquin() -> SimpleNamespace:
    """Import taquin afresh from this checkout's ``src`` (set-up pays the import)."""
    for name in [n for n in sys.modules if n.split(".")[0] == "taquin"]:
        del sys.modules[name]
    pkg = importlib.import_module("taquin")
    if Path(pkg.__file__).resolve().parent != (SRC / "taquin").resolve():
        raise ImportError(f"imported taquin from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(pkg=pkg, **{m: importlib.import_module(f"taquin.{m}") for m in MODULES})


def set_up(name: str, seed: int, tag: int = 0):
    """Import and build the workload's inputs; returns (workload, seconds).

    ``tag`` keeps the files of set-ups alive at the same time apart.
    """
    start = perf_counter()
    workload = WORKLOADS[name](load_taquin(), seed, WORK / f"{name}-{seed}-{os.getpid()}-{tag}")
    return workload, perf_counter() - start


class Loop:
    """Latencies, check failures and counts of the operations one loop ran."""

    def __init__(self) -> None:
        self.ops: list = []
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.ok: list[bool] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.errors: list[str] = []

    def run_op(self, workload, op, count: bool = False) -> None:
        start = perf_counter()
        try:
            out = workload.run(op)
        except Exception as exc:  # a failed op is counted, never fatal
            self.record(op, start, perf_counter() - start, f"raised {exc!r}")
            return
        latency = perf_counter() - start
        try:
            error = None if workload.check(op, out) else "wrong output"
        except Exception as exc:
            error = f"check raised {exc!r}"
        self.record(op, start, latency, error)
        if error is None and count:
            for key, value in workload.counts(op, out).items():
                merge = max if key in MAX_COUNTS else int.__add__
                self.counts[key] = merge(self.counts[key], value)

    def record(self, op, start: float, latency: float, error: str | None) -> None:
        self.ops.append(op)
        self.starts.append(start)
        self.latencies.append(latency)
        self.ok.append(error is None)
        if error and len(self.errors) < 10:
            self.errors.append(f"{op.command}: {error}")

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def ok_latencies(self, command: str | None = None, latencies=None) -> list[float]:
        if latencies is None:
            latencies = self.latencies
        return [
            lat for op, lat, ok in zip(self.ops, latencies, self.ok)
            if ok and (command is None or op.command == command)
        ]

    def ops_per_s(self, latencies=None) -> float:
        busy = sum(self.latencies if latencies is None else latencies)
        return (len(self.ops) - self.failed) / busy if busy else 0.0

    def scaled(self, host: HostSpeed) -> list[float]:
        return [host.scaled(s, lat) for s, lat in zip(self.starts, self.latencies)]


def timed_loop(workload, steps: list[list], seconds: float, min_ops: int,
               pause=None, pauses: int = 0, host: HostSpeed | None = None) -> Loop:
    """Replay whole steps (lists of ops) until ``seconds`` and ``min_ops`` are both reached.

    ``pause`` is called ``pauses`` times between steps, evenly spread over
    the replay; its own time does not count towards ``seconds``.  ``host``,
    if given, is probed between ops, after each ``host.gap_s`` of replay.
    """
    loop = Loop()
    replayed = 0.0
    since_probe = 0.0
    done = 0
    r = 0
    while replayed < seconds or len(loop.ops) < min_ops:
        for op in steps[r % len(steps)]:
            start = perf_counter()
            loop.run_op(workload, op)
            replayed += perf_counter() - start
            since_probe += perf_counter() - start
            if host is not None and since_probe >= host.gap_s:
                host.probe()
                since_probe = 0.0
        r += 1
        while done < pauses and replayed >= seconds * (done + 1) / (pauses + 1):
            pause()
            done += 1
    for _ in range(done, pauses):
        pause()
    return loop


def traced_ops(workload) -> list:
    """The ops of the traced pass: a fixed prefix of the pool, so its counts are exact."""
    return [op for rnd in workload.rounds[:TRACED_ROUNDS] for op in rnd]


def class_medians(loop: Loop, latencies: list[float]) -> list[dict]:
    """Median latency per size class, next to the class's median size."""
    classes: dict[str, list] = {}
    for op, lat, ok in zip(loop.ops, latencies, loop.ok):
        if op.size_class is not None and ok:
            classes.setdefault(op.size_class, []).append((op.size, lat))
    return [
        {
            "class": name,
            "size": statistics.median(size for size, _ in pairs),
            "samples": len(pairs),
            "p50_ms": 1000 * statistics.median(lat for _, lat in pairs),
        }
        for name, pairs in sorted(classes.items(), key=lambda kv: kv[1][0][0])
    ]


def log_log_slope(classes: list[dict]) -> float:
    xs = [math.log(c["size"]) for c in classes]
    ys = [math.log(c["p50_ms"]) for c in classes]
    return statistics.linear_regression(xs, ys).slope


def timings(loop: Loop, latencies: list[float], setups: list[float]) -> dict:
    ok = loop.ok_latencies(latencies=latencies)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": loop.ops_per_s(latencies),
        "latency_p50_ms": 1000 * statistics.median(ok),
        "latency_p90_ms": 1000 * statistics.quantiles(ok, n=10)[8],
    }


def end_to_end(workload, loop: Loop, setups: list[tuple[float, float]],
               host: HostSpeed) -> tuple[dict, dict]:
    """End-to-end metrics, with every time scaled to the host's reference speed."""
    latencies = loop.scaled(host)
    classes = class_medians(loop, latencies)
    who = resource.RUSAGE_CHILDREN if workload.children else resource.RUSAGE_SELF
    values = {
        **timings(loop, latencies, [host.scaled(s, d) for s, d in setups]),
        "size_slope": log_log_slope(classes),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    raw = timings(loop, loop.latencies, [d for _, d in setups])
    samples = {
        "setup_s": len(setups),
        "ops_per_s": len(loop.ops),
        "latency_p50_ms": len(loop.ok_latencies()),
        "latency_p90_ms": len(loop.ok_latencies()),
        "size_slope": len(classes),
        "peak_rss_mb": 1,
        "probes": len(host.seconds),
    }
    probe_ms = [1000 * s for s in host.seconds]
    return values, {"samples": samples, "classes": classes, "unscaled": raw,
                    "probe_ms_quartiles": statistics.quantiles(probe_ms, n=4),
                    "setup_runs_s": [d for _, d in setups]}


def traced_pass(workload) -> tuple[Loop, SpanStats, SpanStats, list[float], dict]:
    """Run the traced ops once with spans installed; spans stay in memory.

    Returns the stats of all spans and those of the ops whose work is counted.
    """
    loop = Loop()
    stats = SpanStats(SPAN_GROUPS)
    rated = SpanStats(SPAN_GROUPS) if workload.children else stats
    import_times: list[float] = []
    child_spans = []
    tracer = Tracer()
    if workload.children:
        workload.spans_path = str(workload.work_dir / "spans.json")
    else:
        tracer.install()
    try:
        for op_id, op in enumerate(traced_ops(workload)):
            tracer.op = op_id
            loop.run_op(workload, op, count=True)
            if workload.children and os.path.exists(workload.spans_path):
                with open(workload.spans_path, encoding="utf-8") as handle:
                    child = json.load(handle)
                os.remove(workload.spans_path)
                child["spans"]["op"] = [op_id] * len(child["spans"]["op"])
                import_times.append(child["import_s"])
                stats.add(child["spans"])
                if workload.counts_work(op):
                    rated.add(child["spans"])
                child_spans.append(child["spans"])
    finally:
        tracer.uninstall()
        workload.spans_path = None
    own = tracer.columns()
    stats.add(own)
    return loop, stats, rated, import_times, {"process": own, "children": child_spans}


def per_layer(untraced: Loop, traced: Loop, stats: SpanStats, rated: SpanStats,
              import_times: list[float]) -> dict:
    values: dict[str, float] = {}
    for name, kept in SPAN_METRICS:
        for stat in kept:
            values[f"{name}.{stat}"] = getattr(stats, stat)[name]
    counts = traced.counts
    values.update(counts)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    busy = rated.busy_s
    values["rsk.bumps_per_s"] = rate(counts["rsk.bumps"], busy["rsk.rsk"])
    values["hms.relocations_per_s"] = rate(
        counts["hms.relocations"],
        busy["hms.reassignment_sequence"] + busy["hms.rectify_assignment"],
    )
    values["hms.validate_share"] = rate(stats.outer_s["validate"], stats.outer_s["hms"])
    values["jdt.slide_steps_per_s"] = rate(
        counts["jdt.slide_steps"],
        busy["jdt.forward_slide_trace"] + busy["jdt.backward_slide_trace"],
    )
    values["cli.import_s"] = statistics.median(import_times) if import_times else 0.0
    for command in CLI_COMMANDS:
        latencies = untraced.ok_latencies(command)
        values[f"cli.{command}.p50_ms"] = 1000 * statistics.median(latencies) if latencies else 0.0
    values["trace.overhead_frac"] = rate(untraced.ops_per_s(), traced.ops_per_s()) - 1
    return values


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; the benchmark may run outside one."""
    if not (ROOT / ".git").exists():  # not the HEAD of some enclosing repository
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": args.held_out_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out-seed", type=int,
                        help="seed kept out of tuning; recorded so later claims can name it")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "taquin" / "__init__.py").is_file():
        print(f"error: no taquin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    host = HostSpeed(child=WORKLOADS[args.workload].children)
    setups: list[tuple[float, float]] = []  # (start, seconds) of each set-up

    def timed_set_up():
        host.probe(SETUP_PROBES)
        start = perf_counter()
        made, seconds = set_up(args.workload, args.seed, tag=len(setups))
        setups.append((start, seconds))
        host.probe(SETUP_PROBES)
        return made

    workload = timed_set_up()
    first = setups[0][1]

    try:
        if args.trace:
            # Whole passes over the traced ops, so both loops run one mix.
            untraced = timed_loop(workload, [traced_ops(workload)], args.seconds / 2, 0)
            traced, stats, rated, import_times, spans = traced_pass(workload)
            values = per_layer(untraced, traced, stats, rated, import_times)
            units = per_layer_units()
            WORK.mkdir(exist_ok=True)
            spans_file = WORK / f"spans-{args.workload}-{args.seed}.json"
            with open(spans_file, "w", encoding="utf-8") as handle:
                json.dump({"span_names": SPAN_NAMES, **spans}, handle)
            loops = (untraced, traced)
            extra = {"samples": {"untraced_ops": len(untraced.ops), "traced_ops": len(traced.ops),
                                 "cli_children": len(import_times)},
                     "spans_file": str(spans_file.relative_to(ROOT)),
                     "setup_runs_s": [first]}
        else:
            runs = min(max(round(SETUP_SECONDS / first), SETUP_MIN_RUNS), SETUP_MAX_RUNS)
            loop = timed_loop(workload, workload.rounds, args.seconds, MIN_OPS,
                              lambda: timed_set_up().close(), runs - 1, host)
            values, extra = end_to_end(workload, loop, setups, host)
            units = END_TO_END
            loops = (loop,)
    finally:
        workload.close()
    attempted = sum(len(loop.ops) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    errors = [e for loop in loops for e in loop.errors][:10]
    record = {**stamp(args), **extra, "failed_frac": failed / attempted,
              "errors": errors}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: counting, identities, bumping, slides, and simulations.

Exit codes: 0 on success, 1 when a checked property or golden comparison is
violated, 2 on any input or usage error.  All JSON output is canonical
(sorted keys, fixed spacing) so runs are byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from random import Random
from typing import Any, NoReturn

from . import figures
from .errors import ResourceLimitError, TaquinError
from .hms import (
    HmtState,
    ReassignmentTrace,
    classify_state,
    default_capacity_grid,
    descent_pairs,
    maximally_embedded,
    reassignment_sequence,
    rectify_assignment,
    turnaround_sequential,
)
from .jsonio import (
    canonical_dumps,
    decode_capacity_grid,
    decode_hmt_state,
    decode_tableau,
    decode_task_set,
    encode_cell,
    encode_fraction,
    encode_permutation,
    encode_skew_shape,
    encode_tableau,
    write_trace,
)
from .partitions import Partition, count_syt, hook_lengths, verify_sum_squares
from .randgen import (
    random_hierarchical_capacities,
    random_requirements,
    random_standard_assignment,
)
from .rsk import Permutation, rsk, rsk_inverse

DEFAULT_SEED = 1729
SEED_ENV_VAR = "TAQUIN_SEED"
MAX_COUNT_CELLS = 2000  # f <= sqrt(n!) then prints within the 4300-digit int-to-str limit
MAX_IDENTITY_N = 40  # the check walks all p(n) shapes: ~2 s at n=40, ~12 s at n=50
MAX_RANDOM_TRIALS = 10000  # about 0.12 ms a trial, so about 1.3 s
MAX_RSK_N = 5000  # a decreasing word bumps n^2/2 times: ~1.3 s at n=5000, either direction
MAX_TURNAROUND_CELLS = 1024  # bounds the exact rational sums, one term per task
# A trace's text holds one full state per event, and each cascade makes fewer
# than rows + cols relocations, so cells x (rows + cols) bounds both: 65536 is
# 32x32's value (~25 MB of JSON) and caps a one-row mesh at 1x255.
MAX_TRACE_SIZE = 65536


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so they print as one ``error:`` line like every other input error."""

    def error(self, message: str) -> NoReturn:
        raise TaquinError(message)


def _seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError as exc:
        raise TaquinError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece) for piece in text.split(",") if piece.strip() != "")
    except ValueError as exc:
        raise TaquinError(f"{what} must be comma-separated integers, got {text!r}") from exc


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """One JSON object; a repeated key is an error, not a silent last-one-wins."""
    seen: set[str] = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"key {key!r} repeats within one object")
        seen.add(key)
    return dict(pairs)


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise TaquinError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also over-long integers, over-deep nesting
        raise TaquinError(f"{path} is not valid JSON: {exc}") from exc


def _load_state(path: str, trace: bool) -> HmtState:
    """Decode a mesh state held to the trace bound, or else to the turnaround bound."""
    state = decode_hmt_state(_load_json(path))
    cells, rows, cols = state.shape.n, state.shape.num_rows, state.shape.row_len(1)
    if trace and cells * (rows + cols) > MAX_TRACE_SIZE:
        raise ResourceLimitError(
            f"a {rows}x{cols} mesh has cells x (rows + cols) = {cells * (rows + cols)};"
            f" traces are bounded to {MAX_TRACE_SIZE}"
        )
    if not trace and cells > MAX_TURNAROUND_CELLS:
        raise ResourceLimitError(
            f"mesh has {cells} cells; turnarounds are bounded to {MAX_TURNAROUND_CELLS}"
        )
    return state


def _check_rsk_n(n: int) -> None:
    if n > MAX_RSK_N:
        raise ResourceLimitError(f"rsk is bounded to n <= {MAX_RSK_N}, got n = {n}")


def _emit(obj: Any) -> None:
    sys.stdout.write(canonical_dumps(obj))


def _emit_trace(trace: ReassignmentTrace, trace_path: str | None) -> None:
    """Stream the trace to stdout and, if named, to a file opened before stdout sees a byte."""
    if trace_path is None:
        write_trace(trace, sys.stdout.write)
        return
    try:
        handle = open(trace_path, "w", encoding="utf-8")
    except OSError as exc:
        raise TaquinError(f"cannot write {trace_path}: {exc}") from exc

    def write(text: str) -> None:
        handle.write(text)
        sys.stdout.write(text)

    with handle:
        write_trace(trace, write)


def _cmd_count(args: argparse.Namespace) -> int:
    shape = Partition(_parse_int_list(args.shape, "--shape"))
    if shape.n > MAX_COUNT_CELLS:
        raise ResourceLimitError(f"shape has {shape.n} cells; the bound is {MAX_COUNT_CELLS}")
    _emit(
        {
            "shape": list(shape.parts),
            "hook_lengths": [list(row) for row in hook_lengths(shape)],
            "count": count_syt(shape),
        }
    )
    return 0


def _cmd_verify_identity(args: argparse.Namespace) -> int:
    if args.n > MAX_IDENTITY_N:
        raise ResourceLimitError(f"verify-identity is bounded to n <= {MAX_IDENTITY_N}")
    result = verify_sum_squares(args.n)
    _emit(
        {
            "n": args.n,
            "sum_of_squares": result.sum_of_squares,
            "factorial": result.factorial,
            "equal": result.equal,
        }
    )
    return 0 if result.equal else 1


def _cmd_rsk(args: argparse.Namespace) -> int:
    if args.inverse is not None:
        p = decode_tableau(_load_json(args.inverse[0]))
        _check_rsk_n(p.size)  # a Q of another shape is rejected before any bump
        q = decode_tableau(_load_json(args.inverse[1]))
        pi = rsk_inverse(p, q)
    elif args.perm is not None:
        word = _parse_int_list(args.perm, "--perm")
        _check_rsk_n(len(word))
        pi = Permutation(word)
        p, q = rsk(pi)
    else:
        raise TaquinError("rsk needs --perm or --inverse")
    _emit({"P": encode_tableau(p), "Q": encode_tableau(q), "perm": encode_permutation(pi)})
    return 0


def _cmd_rectify(args: argparse.Namespace) -> int:
    state = _load_state(args.state, trace=True)
    _emit_trace(rectify_assignment(state), args.trace)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    state = _load_state(args.state, trace=True)
    completions = _parse_int_list(args.completions, "--completions")
    _emit_trace(reassignment_sequence(state, completions), args.trace)
    return 0


def _turnaround_random(args: argparse.Namespace) -> int:
    if args.random < 0:
        raise TaquinError(f"--random needs N >= 0, got {args.random}")
    if args.random > MAX_RANDOM_TRIALS:
        raise ResourceLimitError(f"--random is bounded to N <= {MAX_RANDOM_TRIALS}")
    seed = _seed()
    rng = Random(seed)
    violations = []
    differences = []
    for trial in range(args.random):
        state = random_standard_assignment(rng, min_tasks=2)
        caps = random_hierarchical_capacities(rng, state.shape)
        tasks = random_requirements(rng, state.task_count)
        t1 = turnaround_sequential(state, tasks, caps, relocate=False).total
        t2 = turnaround_sequential(state, tasks, caps, relocate=True).total
        differences.append(t1 - t2)
        if not t2 < t1:
            violations.append(trial)
    _emit(
        {
            "trials": args.random,
            "seed": seed,
            "all_improved": not violations,
            "min_difference": encode_fraction(min(differences)) if differences else None,
            "violations": violations,
        }
    )
    return 0 if not violations else 1


def _cmd_turnaround(args: argparse.Namespace) -> int:
    if args.random is not None:
        if (args.state, args.requirements, args.capacities, args.relocate) != (None,) * 4:
            raise TaquinError("--random takes no --state, --requirements, --capacities,"
                              " --relocate or --no-relocate")
        return _turnaround_random(args)
    if args.state is None or args.requirements is None:
        raise TaquinError("turnaround needs --state and --requirements (or --random N)")
    state = _load_state(args.state, trace=False)
    tasks = decode_task_set(_load_json(args.requirements))
    if args.capacities is not None:
        caps = decode_capacity_grid(_load_json(args.capacities))
    elif state.capacities is not None:
        caps = state.capacities
    else:
        caps = default_capacity_grid(state.shape)

    if args.relocate is None:
        static = turnaround_sequential(state, tasks, caps, relocate=False)
        moved = turnaround_sequential(state, tasks, caps, relocate=True)
        _emit(
            {
                "t1": encode_fraction(static.total),
                "t2": encode_fraction(moved.total),
                "difference": encode_fraction(static.total - moved.total),
            }
        )
        return 0
    report = turnaround_sequential(state, tasks, caps, relocate=args.relocate)
    _emit(
        {
            "relocate": args.relocate,
            "total": encode_fraction(report.total),
            "per_task": [
                {
                    "task": run.task,
                    "cell": encode_cell(run.cell),
                    "duration": encode_fraction(run.duration),
                }
                for run in report.per_task
            ],
        }
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    state = decode_hmt_state(_load_json(args.state))
    kind, form = classify_state(state)
    shape, _ = maximally_embedded(state)
    _emit(
        {
            "classification": kind.value,
            "form": form.value,
            "embedded": encode_skew_shape(shape),
            "descent_pairs": [
                [encode_cell(a), encode_cell(b)] for a, b in descent_pairs(state)
            ],
        }
    )
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    if args.update:
        golden_dir = figures.update_goldens()
        print(f"wrote {len(figures.FIGURES)} golden files to {golden_dir}")
        return 0
    failures = 0
    for result in figures.run_all():
        if result.matched:
            print(f"ok {result.name}")
        else:
            print(f"MISMATCH {result.name}")
            failures += 1
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="taquin",
        description="Tableau combinatorics and hierarchical-mesh task reassignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="hook lengths and the standard-filling count")
    count.add_argument("--shape", required=True, help="comma-separated row lengths, e.g. 3,2,1")
    count.set_defaults(func=_cmd_count)

    verify = sub.add_parser("verify-identity", help="sum of squared counts vs n!")
    verify.add_argument("--n", type=int, required=True)
    verify.set_defaults(func=_cmd_verify_identity)

    rsk_cmd = sub.add_parser("rsk", help="insertion/recording tableaux of a permutation")
    source = rsk_cmd.add_mutually_exclusive_group()
    source.add_argument("--perm", help="comma-separated one-line notation")
    source.add_argument(
        "--inverse",
        nargs=2,
        metavar=("P.json", "Q.json"),
        help="recover the permutation from a tableau pair",
    )
    rsk_cmd.set_defaults(func=_cmd_rsk)

    rectify_cmd = sub.add_parser("rectify", help="greedy rectification of a skew state")
    rectify_cmd.add_argument("--state", required=True)
    rectify_cmd.add_argument("--trace", help="also write the trace JSON to this file")
    rectify_cmd.set_defaults(func=_cmd_rectify)

    simulate = sub.add_parser("simulate", help="completion-driven reassignment sequence")
    simulate.add_argument("--state", required=True)
    simulate.add_argument("--completions", required=True)
    simulate.add_argument("--trace", help="also write the trace JSON to this file")
    simulate.set_defaults(func=_cmd_simulate)

    turnaround = sub.add_parser("turnaround", help="sequential turnaround with/without relocation")
    turnaround.add_argument("--state")
    turnaround.add_argument("--requirements")
    turnaround.add_argument("--capacities")
    group = turnaround.add_mutually_exclusive_group()
    group.add_argument("--compare", dest="relocate", action="store_const", const=None,
                       help="print both totals and their difference (default)")
    group.add_argument("--relocate", dest="relocate", action="store_true")
    group.add_argument("--no-relocate", dest="relocate", action="store_false")
    turnaround.add_argument("--random", type=int, metavar="N",
                            help="run N seeded random instances and check improvement")
    turnaround.set_defaults(func=_cmd_turnaround, relocate=None)

    check = sub.add_parser("check", help="classification, embedded shape, descent pairs")
    check.add_argument("--state", required=True)
    check.set_defaults(func=_cmd_check)

    figures_cmd = sub.add_parser("figures", help="run bundled scenarios against golden files")
    figures_cmd.add_argument("--update", action="store_true", help="rewrite the golden files")
    figures_cmd.set_defaults(func=_cmd_figures)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(line_buffering=True)
    # Accept the meta-command spelling `taquin --figures [...]`.
    if argv and argv[0] == "--figures":
        argv = ["figures", *argv[1:]]
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except TaquinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left early: point stdout at devnull so the flush at exit cannot fail again.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("error: stdout was closed before all output was written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: counting, identities, bumping, slides, and simulations.

Exit codes: 0 on success, 1 when a checked property or golden comparison is
violated, 2 on any input or usage error or failed write.  All JSON output is canonical
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
# Times: a child process's wall time at the bound, best of 5 (Python 3.11.7, 2 shared vCPUs).
MAX_COUNT_CELLS = 2000  # f <= sqrt(n!) then prints within the 4300-digit int-to-str limit
MAX_IDENTITY_N = 40  # the check walks all p(n) shapes: ~1.2 s at n=40; n=50 ~7 s in process
MAX_RANDOM_TRIALS = 10000  # about 0.14 ms a trial, so about 1.4 s
MAX_RSK_N = 5000  # a decreasing word bumps n^2/2 times: ~1.4 s at n=5000, ~0.8 s to invert
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


def _load_state(path: str) -> HmtState:
    """Decode a mesh state whose trace fits the trace bound."""
    state = decode_hmt_state(_load_json(path))
    cells, rows, cols = state.shape.n, state.shape.num_rows, state.shape.row_len(1)
    if cells * (rows + cols) > MAX_TRACE_SIZE:
        raise ResourceLimitError(
            f"a {rows}x{cols} mesh has cells x (rows + cols) = {cells * (rows + cols)};"
            f" traces are bounded to {MAX_TRACE_SIZE}"
        )
    return state


def _check_rsk_n(n: int) -> None:
    if n > MAX_RSK_N:
        raise ResourceLimitError(f"rsk is bounded to n <= {MAX_RSK_N}, got n = {n}")


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


def _cmd_count(args: argparse.Namespace) -> tuple[Any, bool]:
    shape = Partition(_parse_int_list(args.shape, "--shape"))
    if shape.n > MAX_COUNT_CELLS:
        raise ResourceLimitError(f"shape has {shape.n} cells; the bound is {MAX_COUNT_CELLS}")
    return {
        "shape": list(shape.parts),
        "hook_lengths": [list(row) for row in hook_lengths(shape)],
        "count": count_syt(shape),
    }, True


def _cmd_verify_identity(args: argparse.Namespace) -> tuple[Any, bool]:
    if args.n > MAX_IDENTITY_N:
        raise ResourceLimitError(f"verify-identity is bounded to n <= {MAX_IDENTITY_N}")
    result = verify_sum_squares(args.n)
    return {
        "n": args.n,
        "sum_of_squares": result.sum_of_squares,
        "factorial": result.factorial,
        "equal": result.equal,
    }, result.equal


def _cmd_rsk(args: argparse.Namespace) -> tuple[Any, bool]:
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
    return {"P": encode_tableau(p), "Q": encode_tableau(q), "perm": encode_permutation(pi)}, True


def _cmd_rectify(args: argparse.Namespace) -> tuple[Any, bool]:
    return rectify_assignment(_load_state(args.state)), True


def _cmd_simulate(args: argparse.Namespace) -> tuple[Any, bool]:
    state = _load_state(args.state)
    return reassignment_sequence(state, _parse_int_list(args.completions, "--completions")), True


def _totals(state: HmtState, tasks: Any, caps: Any) -> tuple[Any, Any]:
    """The turnaround totals t1 without relocation and t2 with it."""
    return (turnaround_sequential(state, tasks, caps, relocate=False).total,
            turnaround_sequential(state, tasks, caps, relocate=True).total)


def _turnaround_random(args: argparse.Namespace) -> tuple[Any, bool]:
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
        t1, t2 = _totals(state, random_requirements(rng, state.task_count), caps)
        differences.append(t1 - t2)
        if not t2 < t1:
            violations.append(trial)
    return {
        "trials": args.random,
        "seed": seed,
        "all_improved": not violations,
        "min_difference": encode_fraction(min(differences)) if differences else None,
        "violations": violations,
    }, not violations


def _cmd_turnaround(args: argparse.Namespace) -> tuple[Any, bool]:
    if args.random is not None:
        if (args.state, args.requirements, args.capacities) != (None,) * 3:
            raise TaquinError("--random takes no --state, --requirements or --capacities")
        return _turnaround_random(args)
    if args.state is None or args.requirements is None:
        raise TaquinError("turnaround needs --state and --requirements (or --random N)")
    state = decode_hmt_state(_load_json(args.state))
    if state.shape.n > MAX_TURNAROUND_CELLS:
        raise ResourceLimitError(
            f"mesh has {state.shape.n} cells; turnarounds are bounded to {MAX_TURNAROUND_CELLS}"
        )
    tasks = decode_task_set(_load_json(args.requirements))
    if args.capacities is not None:
        caps = decode_capacity_grid(_load_json(args.capacities))
    elif state.capacities is not None:
        caps = state.capacities
    else:
        caps = default_capacity_grid(state.shape)

    if args.relocate is None:
        t1, t2 = _totals(state, tasks, caps)
        return {
            "t1": encode_fraction(t1),
            "t2": encode_fraction(t2),
            "difference": encode_fraction(t1 - t2),
        }, True
    report = turnaround_sequential(state, tasks, caps, relocate=args.relocate)
    return {
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
    }, True


def _cmd_check(args: argparse.Namespace) -> tuple[Any, bool]:
    state = decode_hmt_state(_load_json(args.state))
    kind, form = classify_state(state)
    shape, _ = maximally_embedded(state)
    return {
        "classification": kind.value,
        "form": form.value,
        "embedded": encode_skew_shape(shape),
        "descent_pairs": [[encode_cell(a), encode_cell(b)] for a, b in descent_pairs(state)],
    }, True


def _cmd_figures(args: argparse.Namespace) -> tuple[Any, bool]:
    if args.update:
        return f"wrote {len(figures.FIGURES)} golden files to {figures.update_goldens()}\n", True
    results = figures.run_all()
    text = "".join(f"{'ok' if r.matched else 'MISMATCH'} {r.name}\n" for r in results)
    return text, all(r.matched for r in results)


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
    group.add_argument("--random", type=int, metavar="N",
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
    """Run one command, which returns (result, ok); write the result, and exit 0 if ok else 1."""
    if argv is None:
        argv = sys.argv[1:]
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(line_buffering=True)
    # Accept the meta-command spelling `taquin --figures [...]`.
    if argv and argv[0] == "--figures":
        argv = ["figures", *argv[1:]]
    try:
        args = build_parser().parse_args(argv)
        result, ok = args.func(args)
        if isinstance(result, ReassignmentTrace):
            _emit_trace(result, args.trace)
        else:
            sys.stdout.write(result if isinstance(result, str) else canonical_dumps(result))
        return 0 if ok else 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except TaquinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # stdout, the --trace file or the golden directory
        try:
            sys.stdout.flush()
        except OSError:  # point stdout at devnull so the flush at exit cannot fail again
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            print("error: stdout was closed before all output was written", file=sys.stderr)
        else:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

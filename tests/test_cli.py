import json
import os
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import oracles
import pytest

from taquin import cli, figures
from taquin.cli import MAX_RSK_N, MAX_TURNAROUND_CELLS, main
from taquin.hms import HmtState
from taquin.jsonio import canonical_dumps, encode_hmt_state
from taquin.partitions import Partition, SkewShape, SumSquaresIdentity
from taquin.randgen import random_standard_filling, random_subpartition

STATES = Path(figures.__file__).parent / "fixtures" / "states"
CHILD = [sys.executable, "-c", "import sys; from taquin.cli import main; sys.exit(main())"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    if code == 0 and argv[0] in ("simulate", "rectify"):
        oracles.verify_trace(json.loads(captured.out))  # every printed trace obeys the rule
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_count_command(capsys):
    code, out, _ = run(capsys, "count", "--shape", "3,2,1")
    assert code == 0
    data = json.loads(out)
    assert data == {"count": 16, "hook_lengths": [[5, 3, 1], [3, 1], [1]], "shape": [3, 2, 1]}

    code, out, _ = run(capsys, "count", "--shape", "4,4,4,4")
    assert code == 0 and json.loads(out)["count"] == 24024

    code, out, _ = run(capsys, "count", "--shape", "1")
    assert code == 0 and json.loads(out)["count"] == 1


def test_count_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "count", "--shape", "5,3,2")
    _, second, _ = run(capsys, "count", "--shape", "5,3,2")
    assert first == second


def test_count_rejects_bad_shape(capsys):
    code, _, err = run(capsys, "count", "--shape", "1,2")
    assert code == 2
    assert "weakly decreasing" in err


def test_verify_identity(capsys):
    for n, expected in ((1, 1), (3, 6), (7, 5040)):
        code, out, _ = run(capsys, "verify-identity", "--n", str(n))
        assert code == 0
        data = json.loads(out)
        assert data["equal"] and data["factorial"] == expected == data["sum_of_squares"]


def test_verify_identity_reports_an_unequal_sum(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_sum_squares", lambda n: SumSquaresIdentity(5, 6, False))
    code, out, _ = run(capsys, "verify-identity", "--n", "3")
    assert code == 1
    assert json.loads(out) == {"n": 3, "sum_of_squares": 5, "factorial": 6, "equal": False}


def test_rsk_command_and_inverse(capsys, tmp_path):
    code, out, _ = run(capsys, "rsk", "--perm", "7,8,2,3,5,4,1,6")
    assert code == 0
    data = json.loads(out)
    assert data["P"]["rows"] == [[1, 3, 4, 6], [2, 8], [5], [7]]

    p_file = write(tmp_path, "p.json", data["P"])
    q_file = write(tmp_path, "q.json", data["Q"])
    code, out, _ = run(capsys, "rsk", "--inverse", p_file, q_file)
    assert code == 0
    assert json.loads(out)["perm"] == [7, 8, 2, 3, 5, 4, 1, 6]

    code, out, _ = run(capsys, "rsk", "--perm", "1,2,3,4")
    data = json.loads(out)
    assert data["P"] == data["Q"]
    assert data["P"]["rows"] == [[1, 2, 3, 4]]

    code, _, err = run(capsys, "rsk")
    assert code == 2 and "rsk needs" in err


def test_rectify_command(capsys, tmp_path):
    trace_file = tmp_path / "trace.json"
    code, out, _ = run(
        capsys, "rectify", "--state", str(STATES / "fig6c.json"), "--trace", str(trace_file)
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["events"]) == 4
    assert data["events"][-1]["state"]["cells"][0] == [1, 3, 5, None]
    assert trace_file.read_text(encoding="utf-8") == out

    code, out, _ = run(capsys, "rectify", "--state", str(STATES / "fig3_initial.json"))
    assert code == 0 and json.loads(out)["events"] == []


def test_simulate_command(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "--state",
        str(STATES / "fig3_initial.json"),
        "--completions",
        "1,3,2,5,8,4,6,7,9",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["events"]) == 9
    assert data["events"][-1]["noop"] is True
    assert data["events"][7]["state"]["cells"][0] == [9, None, None]


def test_trace_file_holds_stdout_with_capacities(capsys, tmp_path):
    caps = [["1/1", "1/2", "1/3"], ["1/2", "1/3", "1/4"], ["1/3", "1/4", "1/5"]]
    cells = [[1, 2, 4], [3, 5, 7], [6, 8, 9]]
    state = write(tmp_path, "s.json", {"shape": [3, 3, 3], "cells": cells, "capacities": caps})
    trace_file = tmp_path / "trace.json"
    code, out, err = run(
        capsys, "simulate", "--state", state, "--completions", "2,1,9", "--trace", str(trace_file)
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["initial"]["capacities"] == caps
    assert trace_file.read_text(encoding="utf-8") == out


def child_env():
    """The environment for a child ``taquin`` process that imports this checkout."""
    src = str(Path(figures.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_reader_closing_stdout_early_is_one_error_line(tmp_path):
    """A reader that stops after one byte of a 1.6 MB trace gets exit 2 and no traceback."""
    k = 16
    cells = [[i * k + j + 1 for j in range(k)] for i in range(k)]
    state = write(tmp_path, "full.json", {"shape": [k] * k, "cells": cells})
    with subprocess.Popen(
        [*CHILD, "simulate", "--state", state,
         "--completions", ",".join(map(str, range(1, k * k + 1)))],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    ) as child:
        assert child.stdout.read(1) == b"{"
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["count", "--shape", "3,2,1"], "/dev/full"),
        (["rectify", "--state", str(STATES / "fig6c.json"), "--trace", "/dev/full"], os.devnull),
    ],
    ids=["stdout", "trace-file"],
)
def test_failed_write_is_one_error_line(argv, stdout):
    """A write to stdout or to the --trace file that fails (the device is full) exits 2."""
    with open(stdout, "w", encoding="utf-8") as out:
        child = subprocess.run([*CHILD, *argv], stdout=out, stderr=subprocess.PIPE,
                               env=child_env(), timeout=60)
    err = child.stderr.decode()
    assert child.returncode == 2
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_unwritable_golden_directory_is_input_error(capsys, monkeypatch, tmp_path):
    (tmp_path / "golden").write_text("not a directory", encoding="utf-8")
    monkeypatch.setattr(figures, "FIXTURES", str(tmp_path))
    assert_bounded_input_error(capsys, "figures", "--update")


def test_unwritable_trace_path_is_input_error(capsys, tmp_path):
    """The trace file is opened before stdout sees a byte; failing to open it is an input error."""
    state = str(STATES / "fig3_initial.json")
    for path in (tmp_path / "no" / "such" / "dir" / "x.json", tmp_path):
        for argv in (
            ("rectify", "--state", state),
            ("simulate", "--state", state, "--completions", "1,2"),
        ):
            code, out, err = run(capsys, *argv, "--trace", str(path))
            assert (code, out) == (2, "")
            assert err.startswith(f"error: cannot write {path}") and err.count("\n") == 1


def test_simulate_rejects_absent_task(capsys):
    code, _, err = run(
        capsys,
        "simulate",
        "--state",
        str(STATES / "fig3_initial.json"),
        "--completions",
        "1,99",
    )
    assert code == 2
    assert "unassigned task 99" in err


def test_check_command(capsys, tmp_path):
    code, out, _ = run(capsys, "check", "--state", str(STATES / "fig6b.json"))
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "generalized"
    assert data["form"] == "normal"
    assert data["descent_pairs"] == [[[1, 1], [1, 2]]]

    code, out, _ = run(capsys, "check", "--state", str(STATES / "fig6d.json"))
    data = json.loads(out)
    assert data["classification"] == "generalized"
    assert len(data["descent_pairs"]) == 2

    standard = write(tmp_path, "std.json", {"shape": [2, 2], "cells": [[1, 2], [3, 4]]})
    code, out, _ = run(capsys, "check", "--state", standard)
    data = json.loads(out)
    assert data["classification"] == "standard" and data["descent_pairs"] == []


def test_turnaround_compare(capsys, tmp_path):
    state = write(tmp_path, "s.json", {"shape": [2, 2], "cells": [[1, 2], [3, 4]]})
    reqs = write(tmp_path, "r.json", {"1": "4", "2": "3", "3": "2", "4": "1"})
    caps = write(tmp_path, "c.json", {"shape": [2, 2], "c": [["4", "2"], ["2", "1"]]})

    code, out, _ = run(
        capsys, "turnaround", "--state", state, "--requirements", reqs, "--capacities", caps
    )
    assert code == 0
    assert json.loads(out) == {"t1": "9/2", "t2": "5/2", "difference": "2/1"}

    code, out, _ = run(
        capsys,
        "turnaround", "--state", state, "--requirements", reqs, "--capacities", caps,
        "--relocate",
    )
    data = json.loads(out)
    assert data["total"] == "5/2"
    assert [entry["cell"] for entry in data["per_task"]] == [[1, 1]] * 4

    code, out, _ = run(
        capsys,
        "turnaround", "--state", state, "--requirements", reqs, "--capacities", caps,
        "--no-relocate",
    )
    assert json.loads(out)["total"] == "9/2"


def test_turnaround_single_task_zero_difference(capsys, tmp_path):
    state = write(tmp_path, "s.json", {"shape": [2, 2], "cells": [[1, None], [None, None]]})
    reqs = write(tmp_path, "r.json", {"1": "7"})
    code, out, _ = run(capsys, "turnaround", "--state", state, "--requirements", reqs)
    assert code == 0
    assert json.loads(out)["difference"] == "0/1"


def test_turnaround_uses_state_capacities_when_present(capsys, tmp_path):
    state = write(
        tmp_path,
        "s.json",
        {
            "shape": [2, 2],
            "cells": [[1, 2], [3, 4]],
            "capacities": [["4", "2"], ["2", "1"]],
        },
    )
    reqs = write(tmp_path, "r.json", {"1": "4", "2": "3", "3": "2", "4": "1"})
    code, out, _ = run(capsys, "turnaround", "--state", state, "--requirements", reqs)
    assert code == 0
    assert json.loads(out)["t1"] == "9/2"


def test_turnaround_random_is_seeded_and_deterministic(capsys, monkeypatch):
    monkeypatch.setenv("TAQUIN_SEED", "7")
    code, first, _ = run(capsys, "turnaround", "--random", "5")
    assert code == 0
    data = json.loads(first)
    assert data["seed"] == 7 and data["all_improved"] and data["trials"] == 5
    _, second, _ = run(capsys, "turnaround", "--random", "5")
    assert first == second

    monkeypatch.delenv("TAQUIN_SEED")
    code, out, _ = run(capsys, "turnaround", "--random", "3")
    assert code == 0 and json.loads(out)["seed"] == 1729


def test_turnaround_random_output_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("TAQUIN_SEED", "1729")
    code, out, err = run(capsys, "turnaround", "--random", "20")
    assert (code, err) == (0, "")
    assert out == (
        "{\n"
        '  "all_improved": true,\n'
        '  "min_difference": "80/4653",\n'
        '  "seed": 1729,\n'
        '  "trials": 20,\n'
        '  "violations": []\n'
        "}\n"
    )


def test_turnaround_random_reports_a_trial_that_does_not_improve(capsys, monkeypatch):
    totals, seen = cli._totals, []

    def second_trial_stalls(state, tasks, caps):
        t1, t2 = totals(state, tasks, caps)
        seen.append(t1)
        return (t1, t1) if len(seen) == 2 else (t1, t2)

    monkeypatch.setattr(cli, "_totals", second_trial_stalls)
    code, out, _ = run(capsys, "turnaround", "--random", "3")
    data = json.loads(out)
    assert code == 1 and len(seen) == 3
    assert data["violations"] == [1] and not data["all_improved"]
    assert data["min_difference"] == "0/1"


def test_turnaround_requires_inputs(capsys):
    code, _, err = run(capsys, "turnaround")
    assert code == 2 and "turnaround needs" in err


def test_figures_command(capsys):
    code, out, _ = run(capsys, "figures")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(figures.FIGURES)
    assert all(line.startswith("ok ") for line in lines)


def test_figures_alias_spelling(capsys):
    code, out, _ = run(capsys, "--figures")
    assert code == 0
    assert all(line.startswith("ok ") for line in out.strip().splitlines())


def test_figures_reports_mismatch(capsys, monkeypatch):
    monkeypatch.setitem(figures.FIGURES, "bogus-scenario", lambda: {"x": 1})
    code, out, _ = run(capsys, "figures")
    assert code == 1
    assert "MISMATCH bogus-scenario" in out


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "check", "--state", "/nonexistent.json")
    assert code == 2 and "cannot read" in err


def test_bad_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "check", "--state", str(path))
    assert code == 2 and "not valid JSON" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "count")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2


def assert_bounded_input_error(capsys, *argv):
    """Exit 2 with one ``error:`` line, within 5 s."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_count_rejects_shapes_over_the_cell_bound(capsys):
    assert_bounded_input_error(capsys, "count", "--shape", "8000,8000")


def test_verify_identity_rejects_n_over_the_bound(capsys):
    assert_bounded_input_error(capsys, "verify-identity", "--n", "60")


def test_json_integer_over_the_digit_limit_is_input_error(capsys, tmp_path):
    requirements = tmp_path / "r.json"
    requirements.write_text('{"1": ' + "7" * 5000 + "}", encoding="utf-8")
    state = str(STATES / "fig3_initial.json")
    argv = ("turnaround", "--state", state, "--requirements", str(requirements))
    assert_bounded_input_error(capsys, *argv)


def test_json_nested_too_deep_is_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert_bounded_input_error(capsys, "check", "--state", str(path))


def test_rational_with_exponent_is_input_error(capsys, tmp_path):
    requirements = write(tmp_path, "r.json", {"1": "1e9999999"})
    state = str(STATES / "fig3_initial.json")
    argv = ("turnaround", "--state", state, "--requirements", requirements)
    assert_bounded_input_error(capsys, *argv)


def test_repeated_or_non_canonical_task_keys_are_input_errors(capsys, tmp_path):
    state = write(tmp_path, "s.json", {"shape": [2, 2], "cells": [[1, 2], [None, None]]})
    for name, text in [
        ("repeated.json", '{"1": "5", "1": "7", "2": "3"}'),
        ("padded.json", '{"1": "5", "01": "7", "2": "3"}'),
    ]:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert_bounded_input_error(capsys, "turnaround", "--state", state, "--requirements", str(path))


def test_repeated_key_in_a_state_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"shape": [4], "cells": [[1, 2], [3, 4]], "shape": [2, 2]}', encoding="utf-8")
    assert_bounded_input_error(capsys, "check", "--state", str(path))


def test_argparse_usage_errors_are_one_line(capsys):
    assert_bounded_input_error(capsys, "count")
    assert_bounded_input_error(capsys, "verify-identity", "--n", "9" * 5000)
    assert_bounded_input_error(capsys, "no-such-command")
    assert_bounded_input_error(capsys, "turnaround", "--compare", "--relocate")


def test_help_still_prints_usage_to_stdout(capsys):
    code, out, err = run(capsys, "count", "--help")
    assert code == 0 and out.startswith("usage: taquin count") and err == ""


def test_rsk_rejects_perm_and_inverse_together(capsys, tmp_path):
    p = write(tmp_path, "p.json", {"outer": [1], "inner": [], "rows": [[1]]})
    assert_bounded_input_error(capsys, "rsk", "--perm", "2,1", "--inverse", p, p)
    assert_bounded_input_error(capsys, "rsk", "--inverse", p, p, "--perm", "1")


@pytest.mark.parametrize(
    "flags",
    [
        ["--state", "missing.json"],
        ["--requirements", "missing.json"],
        ["--capacities", "missing.json"],
        ["--relocate"],
        ["--no-relocate"],
        ["--compare"],
    ],
)
def test_turnaround_random_rejects_instance_flags(capsys, flags):
    assert_bounded_input_error(capsys, "turnaround", "--random", "2", *flags)
    assert_bounded_input_error(capsys, "turnaround", *flags, "--random", "0")


def test_turnaround_random_rejects_negative_trials(capsys):
    assert_bounded_input_error(capsys, "turnaround", "--random", "-5")


def test_turnaround_random_rejects_trials_over_the_bound(capsys):
    assert_bounded_input_error(capsys, "turnaround", "--random", "10001")


def test_turnaround_rejects_meshes_over_the_cell_bound(capsys, tmp_path):
    width = MAX_TURNAROUND_CELLS + 1
    state = write(tmp_path, "s.json", {"shape": [width], "cells": [[1] + [None] * (width - 1)]})
    reqs = write(tmp_path, "r.json", {"1": "1"})
    assert_bounded_input_error(capsys, "turnaround", "--state", state, "--requirements", reqs)


def test_rsk_rejects_n_over_the_bound(capsys, tmp_path):
    word = list(range(1, MAX_RSK_N + 2))
    assert_bounded_input_error(capsys, "rsk", "--perm", ",".join(map(str, word)))
    row = write(tmp_path, "row.json", {"outer": [len(word)], "inner": [], "rows": [word]})
    assert_bounded_input_error(capsys, "rsk", "--inverse", row, row)


def test_simulate_and_rectify_reject_meshes_over_the_cell_bound(capsys, tmp_path):
    k = 33
    full = write(tmp_path, "full.json", {"shape": [k] * k, "cells": [
        [i * k + j + 1 for j in range(k)] for i in range(k)
    ]})
    assert_bounded_input_error(capsys, "simulate", "--state", full, "--completions", "1")
    skew = write(tmp_path, "skew.json", {"shape": [k] * k, "cells": [
        [None] + [i * k + j for j in range(1, k)] for i in range(k)
    ]})
    assert_bounded_input_error(capsys, "rectify", "--state", skew)


def test_simulate_and_rectify_reject_one_row_meshes_over_the_trace_bound(capsys, tmp_path):
    # 300 cells are under 32x32's, but a full completion sequence relocates ~300^2/2 times.
    k = 300
    full = write(tmp_path, "full.json", {"shape": [k], "cells": [list(range(1, k + 1))]})
    completions = ",".join(map(str, range(1, k + 1)))
    assert_bounded_input_error(capsys, "simulate", "--state", full, "--completions", completions)
    skew = write(tmp_path, "skew.json", {"shape": [k], "cells": [[None] + list(range(1, k))]})
    assert_bounded_input_error(capsys, "rectify", "--state", skew)


def digit_requirements(tmp_path, rng, tasks: int, digits: int):
    """A full 1 x ``tasks`` mesh and requirements 1/d, each d a random ``digits``-digit integer."""
    if getattr(sys, "get_int_max_str_digits", int)() != 4300:
        pytest.skip("sized for Python's default limit of 4300 printable digits")
    state = write(tmp_path, "s.json", {"shape": [tasks], "cells": [list(range(1, tasks + 1))]})
    reqs = {
        str(task): f"1/{rng.randrange(10 ** (digits - 1), 10**digits)}"
        for task in range(1, tasks + 1)
    }
    return state, write(tmp_path, "r.json", reqs)


def test_turnaround_past_the_printable_digits_is_input_error(capsys, tmp_path):
    # Each input prints, but the sums' denominators have about 4400 digits.
    state, reqs = digit_requirements(tmp_path, Random(2), 2, 2200)
    for mode in ("--compare", "--relocate", "--no-relocate"):
        assert_bounded_input_error(capsys, "turnaround", mode, "--state", state, "--requirements", reqs)


def test_turnaround_sums_stop_at_the_printable_digits(capsys, tmp_path):
    # Summed to the end, 512 terms of 4000 digits each take minutes.
    state, reqs = digit_requirements(tmp_path, Random(3), 512, 4000)
    assert_bounded_input_error(capsys, "turnaround", "--state", state, "--requirements", reqs)


def test_trace_bytes_at_the_trace_bound_match_the_oracle(capsys, tmp_path):
    """The largest traces the bound admits print as the snapshot oracle's encoded trace.

    Full 32 x 32 meshes completed in priority order (the largest trace, ~25 MB)
    and in a random order, and a 32 x 32 skew state rectified.
    """
    mesh = Partition((32,) * 32)
    rng = Random(32)
    full = HmtState(mesh, random_standard_filling(rng, SkewShape(mesh)).rows)
    skew = SkewShape(mesh, random_subpartition(rng, mesh))
    skew = HmtState(mesh, random_standard_filling(rng, skew).rows)
    cases = [(skew, ["rectify"], oracles.rectify_assignment(skew))]
    for order in (list(range(1, mesh.n + 1)), rng.sample(range(1, mesh.n + 1), mesh.n)):
        oracle = oracles.reassignment_sequence(full, order)
        cases.append((full, ["simulate", "--completions", ",".join(map(str, order))], oracle))
    for state, argv, oracle in cases:
        trace_file = tmp_path / "trace.json"
        path = write(tmp_path, "s.json", encode_hmt_state(state))
        code, out, err = run(capsys, *argv, "--state", path, "--trace", str(trace_file))
        expected = canonical_dumps(oracles.encode_trace(oracle))
        assert (code, err) == (0, "")
        assert out == expected
        assert trace_file.read_text(encoding="utf-8") == expected

"""Tests of the benchmark itself: exact work counts and stable metric names.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.SRC))


def traced_counts(name: str, seed: int) -> dict[str, int]:
    workload, _ = run.set_up(name, seed)
    try:
        traced, *_ = run.traced_pass(workload)
    finally:
        workload.close()
    assert traced.failed == 0, traced.errors
    return traced.counts


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_counts_repeat_for_a_seed_and_change_with_it(name):
    first = traced_counts(name, 5)
    assert first == traced_counts(name, 5)
    other = traced_counts(name, 6)
    touched = [key for key, value in first.items() if value]
    assert touched, "the workload counts no work at all"
    assert all(first[key] != other[key] for key in touched if key != "hms.longest_cascade")


def test_benchmark_json_names_what_the_runs_print():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.per_layer_units())
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


def test_held_out_seed_yields_the_same_metric_names(monkeypatch, capsys):
    command = BENCHMARK["command"]
    held_out = command[command.index("--held-out-seed") + 1]
    monkeypatch.setattr(run, "MIN_OPS", 1)
    names = []
    for seed in ("1", held_out):
        assert run.main(["--workload", "rsk-roundtrip", "--seed", seed, "--seconds", "0",
                         "--held-out-seed", held_out]) == 0
        *_, record, result = capsys.readouterr().out.splitlines()
        assert json.loads(record)["record"]["held_out_seed"] == int(held_out)
        result = json.loads(result)
        assert result["correct"] and result["failed"] == 0
        names.append(sorted(result["metrics"]))
    assert names[0] == names[1] == sorted(run.END_TO_END)


def test_refuses_to_run_without_the_sources(monkeypatch, tmp_path: Path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cli-mix", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""

"""Bundled worked-example scenarios and their golden-file comparison.

Each scenario rebuilds one of the documented worked examples (row insertion,
reverse bumping, slides, the reassignment sequences, the insertion-tableau
pair, the descent-pair comparisons) and renders it as canonical JSON.  The
committed golden files pin the output byte for byte.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, NamedTuple

from .hms import (
    classify_state,
    descent_pairs,
    naive_slide_up,
    reassignment_sequence,
    rectify_assignment,
)
from .jdt import backward_slide_trace, forward_slide_trace
from .jsonio import (
    canonical_dumps,
    decode_hmt_state,
    encode_cell,
    encode_hmt_state,
    encode_permutation,
    encode_slide_steps,
    encode_tableau,
    encode_trace,
)
from .partitions import Cell
from .rsk import Permutation, rsk
from .tableaux import Tableau

FIG3_COMPLETIONS = (1, 3, 2, 5, 8, 4, 6, 7, 9)
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def fixture_text(relative: str) -> str:
    """Contents of a bundled fixture file, e.g. ``states/fig6c.json``."""
    with open(os.path.join(FIXTURES, relative), encoding="utf-8") as handle:
        return handle.read()


def load_state_fixture(name: str):
    """Decode a bundled mesh-state fixture by file name."""
    return decode_hmt_state(json.loads(fixture_text(f"states/{name}")))


def _row_insertion() -> dict[str, Any]:
    from .tableaux import row_insert

    before = Tableau.normal([[1, 3, 8, 10], [2, 4, 9], [6, 7], [11, 12]])
    after, added = row_insert(before, 5)
    return {
        "before": encode_tableau(before),
        "insert": 5,
        "after": encode_tableau(after),
        "added": encode_cell(added),
    }


def _reverse_bumping() -> dict[str, Any]:
    from .tableaux import reverse_bump

    before = Tableau.normal([[1, 3, 5, 10], [2, 4, 8], [6, 7, 9], [11, 12]])
    after, extracted = reverse_bump(before, Cell(3, 3))
    return {
        "before": encode_tableau(before),
        "cell": encode_cell(Cell(3, 3)),
        "after": encode_tableau(after),
        "extracted": extracted,
    }


def _slide_roundtrip() -> dict[str, Any]:
    start = Tableau.skew((4, 3, 3), (1,), [[None, 3, 5, 9], [2, 4, 8], [6, 7, 10]])
    forward, fwd_vacated, fwd_steps = forward_slide_trace(start, Cell(1, 1))
    backward, bwd_vacated, bwd_steps = backward_slide_trace(start, Cell(2, 4))
    restored, _, _ = backward_slide_trace(forward, fwd_vacated)
    return {
        "tableau": encode_tableau(start),
        "forward": {
            "start": encode_cell(Cell(1, 1)),
            "result": encode_tableau(forward),
            "vacated": encode_cell(fwd_vacated),
            "steps": encode_slide_steps(fwd_steps),
        },
        "backward": {
            "start": encode_cell(Cell(2, 4)),
            "result": encode_tableau(backward),
            "vacated": encode_cell(bwd_vacated),
            "steps": encode_slide_steps(bwd_steps),
        },
        "roundtrip_restores_original": restored == start,
    }


def _reassignment_sequence() -> dict[str, Any]:
    initial = load_state_fixture("fig3_initial.json")
    trace = reassignment_sequence(initial, FIG3_COMPLETIONS)
    return {
        "completions": list(FIG3_COMPLETIONS),
        "trace": encode_trace(trace),
    }


def _rectify(fixture: str) -> dict[str, Any]:
    initial = load_state_fixture(fixture)
    trace = rectify_assignment(initial)
    return {"trace": encode_trace(trace)}


def _insertion_tableaux() -> dict[str, Any]:
    pi = Permutation((7, 8, 2, 3, 5, 4, 1, 6))
    tau = Permutation((7, 8, 2, 5, 3, 4, 1, 6))
    p_pi, q_pi = rsk(pi)
    p_tau, q_tau = rsk(tau)
    return {
        "pi": {
            "word": encode_permutation(pi),
            "P": encode_tableau(p_pi),
            "Q": encode_tableau(q_pi),
        },
        "tau": {
            "word": encode_permutation(tau),
            "P": encode_tableau(p_tau),
            "Q": encode_tableau(q_tau),
        },
        "insertion_tableaux_equal": p_pi == p_tau,
    }


def _descent_pair() -> dict[str, Any]:
    state = load_state_fixture("fig6b.json")
    kind, form = classify_state(state)
    return {
        "state": encode_hmt_state(state),
        "classification": kind.value,
        "form": form.value,
        "descent_pairs": [[encode_cell(a), encode_cell(b)] for a, b in descent_pairs(state)],
    }


def _naive_slide() -> dict[str, Any]:
    before = load_state_fixture("fig6c.json")
    after = naive_slide_up(before)
    return {
        "before": encode_hmt_state(before),
        "after": encode_hmt_state(after),
        "descent_pairs": [[encode_cell(a), encode_cell(b)] for a, b in descent_pairs(after)],
    }


def _greedy_rectification() -> dict[str, Any]:
    initial = load_state_fixture("fig6c.json")
    trace = rectify_assignment(initial)
    return {
        "trace": encode_trace(trace),
        "final_descent_pairs": [
            [encode_cell(a), encode_cell(b)] for a, b in descent_pairs(trace.final)
        ],
    }


FIGURES: dict[str, Callable[[], dict[str, Any]]] = {
    "fig1-row-insertion": _row_insertion,
    "fig2-reverse-bumping": _reverse_bumping,
    "fig3-reassignment-sequence": _reassignment_sequence,
    "fig4-rectify-t1": lambda: _rectify("fig4_t1.json"),
    "fig4-rectify-t2": lambda: _rectify("fig4_t2.json"),
    "fig5-insertion-tableaux": _insertion_tableaux,
    "fig6-descent-pair": _descent_pair,
    "fig6-naive-slide-up": _naive_slide,
    "fig6-greedy-rectification": _greedy_rectification,
    "jdt-slide-roundtrip": _slide_roundtrip,
}


def render(name: str) -> str:
    """Canonical JSON text for one scenario."""
    return canonical_dumps(FIGURES[name]())


class FigureResult(NamedTuple):
    name: str
    matched: bool


def golden_text(name: str) -> str:
    return fixture_text(f"golden/{name}.json")


def run_all() -> list[FigureResult]:
    """Render every scenario and diff it against its committed golden file."""
    results = []
    for name in FIGURES:
        try:
            expected = golden_text(name)
        except FileNotFoundError:
            results.append(FigureResult(name, False))
            continue
        results.append(FigureResult(name, render(name) == expected))
    return results


def update_goldens() -> str:
    """Rewrite the golden files from the current implementation (maintainer tool)."""
    golden_dir = os.path.join(FIXTURES, "golden")
    os.makedirs(golden_dir, exist_ok=True)
    for name in FIGURES:
        with open(os.path.join(golden_dir, f"{name}.json"), "w", encoding="utf-8") as handle:
            handle.write(render(name))
    return golden_dir

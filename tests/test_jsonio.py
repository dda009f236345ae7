import json
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taquin import figures
from taquin.errors import DomainError, ResourceLimitError, ShapeError, TaquinError
from taquin.hms import (
    Completion,
    HmtState,
    RectifyCorner,
    TraceEvent,
    default_capacity_grid,
    reassignment_sequence,
    rectify_assignment,
)
from taquin.jdt import Relocation, forward_slide_trace
from taquin.jsonio import (
    _expect_list,
    _expect_object,
    canonical_dumps,
    decode_capacity_grid,
    decode_fraction,
    decode_hmt_state,
    decode_partition,
    decode_tableau,
    decode_task_set,
    encode_fraction,
    encode_hmt_state,
    encode_partition,
    encode_permutation,
    encode_skew_shape,
    encode_slide_steps,
    encode_tableau,
    encode_task_set,
    encode_trace,
    write_trace,
)
from taquin.partitions import Cell, Partition, SkewShape
from taquin.randgen import (
    random_hierarchical_capacities,
    random_partition_in_box,
    random_standard_filling,
    random_subpartition,
)
from taquin.rsk import Permutation
from taquin.tableaux import Tableau


def test_fraction_roundtrip():
    assert encode_fraction(Fraction(9, 2)) == "9/2"
    assert encode_fraction(Fraction(0)) == "0/1"
    assert encode_fraction(Fraction(4)) == "4/1"
    assert decode_fraction("3/4") == Fraction(3, 4)
    assert decode_fraction(7) == Fraction(7)
    assert decode_fraction("5") == Fraction(5)
    for bad in ("x", "1/0", 2.5, None):
        with pytest.raises(DomainError):
            decode_fraction(bad)


def test_partition_and_skew_shape_roundtrip():
    shape = Partition((3, 2, 1))
    assert encode_partition(shape) == [3, 2, 1]
    assert decode_partition([3, 2, 1]) == shape
    skew = SkewShape.of((4, 3), (2,))
    assert encode_skew_shape(skew) == {"outer": [4, 3], "inner": [2]}
    with pytest.raises(DomainError):
        decode_partition("3,2")
    with pytest.raises(ShapeError):  # entries are Partition's to check
        decode_partition([3, 2.5])


def test_tableau_roundtrip_normal_and_skew():
    normal = Tableau.normal([[1, 3], [2]])
    encoded = encode_tableau(normal)
    assert encoded == {"outer": [2, 1], "inner": [], "rows": [[1, 3], [2]]}
    assert decode_tableau(encoded) == normal

    skew = Tableau.skew((3, 2), (1,), [[None, 1, 4], [2, 3]])
    assert decode_tableau(encode_tableau(skew)) == skew
    assert encode_tableau(skew)["rows"][0][0] is None


def test_permutation_roundtrip():
    pi = Permutation((7, 8, 2, 3, 5, 4, 1, 6))
    assert Permutation(tuple(encode_permutation(pi))) == pi
    with pytest.raises(DomainError):
        Permutation((1, "2"))


# Where each constructor meets one JSON value ``v``: (build, a value that makes it valid, the
# entry already there that a duplicate repeats).  The decoders check JSON structure only, so
# every entry check below is the constructor's.
ENTRY_SITES = {
    "partition": (lambda v: decode_partition([3, v]), 2, 3),
    "tableau-inner-cell": (
        lambda v: decode_tableau({"outer": [3, 1], "inner": [1], "rows": [[v, 7, 9], [8]]}), None, 7
    ),
    "tableau-outer-cell": (
        lambda v: decode_tableau({"outer": [3, 1], "inner": [1], "rows": [[None, 7, v], [8]]}), 9, 7
    ),
    "mesh-state": (
        lambda v: decode_hmt_state({"shape": [2, 2], "cells": [[7, v], [8, None]]}), 9, 7
    ),
    "permutation": (lambda v: Permutation((3, 1, v)), 2, 3),
}
BAD_ENTRIES = {"float": 1.5, "bool": True, "string": "3", "null": None, "array": [1],
               "object": {}, "zero": 0, "negative": -1, "huge": 2**70}
# Values that are entries where they stand: a row as long as the one above, an idle cell, and
# large tableau entries and task IDs (neither need be 1..n).
VALID_AT = {("partition", "duplicate"), ("tableau-inner-cell", "null"), ("mesh-state", "null"),
            ("tableau-outer-cell", "huge"), ("mesh-state", "huge")}


@pytest.mark.parametrize("kind", [*BAD_ENTRIES, "duplicate"])
@pytest.mark.parametrize("site", ENTRY_SITES)
def test_each_constructor_rejects_each_bad_entry_naming_it(site, kind):
    build, good, dup = ENTRY_SITES[site]
    build(good)  # the site itself is valid
    value = dup if kind == "duplicate" else BAD_ENTRIES[kind]
    if (site, kind) in VALID_AT:
        build(value)
        return
    with pytest.raises(TaquinError) as caught:
        build(value)
    assert repr(value) in str(caught.value)


def test_state_roundtrip_with_and_without_capacities():
    bare = HmtState.of((2, 2), [[1, None], [2, None]])
    encoded = encode_hmt_state(bare)
    assert "capacities" not in encoded
    assert decode_hmt_state(encoded) == bare

    caps = default_capacity_grid(Partition((2, 2)))
    rich = HmtState.of((2, 2), [[1, None], [2, None]], caps)
    encoded = encode_hmt_state(rich)
    assert encoded["capacities"] == [["1/1", "1/2"], ["1/2", "1/4"]]
    assert decode_hmt_state(encoded) == rich


def test_capacity_grid_decode():
    caps = decode_capacity_grid({"shape": [2, 2], "c": [["4", "2"], ["2", "1"]]})
    assert caps.rates[0][0] == Fraction(4)
    with pytest.raises(DomainError):
        decode_capacity_grid({"shape": [2, 2], "c": [["1", "2"], ["2", "1"]]})


def test_task_set_roundtrip():
    tasks = decode_task_set({"1": "4", "2": "3/2"})
    assert tasks.requirements == (Fraction(4), Fraction(3, 2))
    assert encode_task_set(tasks) == {"1": "4/1", "2": "3/2"}
    with pytest.raises(DomainError):
        decode_task_set({"1": "1", "3": "2"})
    with pytest.raises(DomainError):
        decode_task_set({"one": "1"})


@pytest.mark.parametrize(
    "data",
    [
        {"1": "5", "01": "7", "2": "3"},
        {**{str(task): "1" for task in range(1, 10)}, "1_0": "1"},
        {"1": "1", "2": "1", " 3 ": "1"},
        {"+1": "1"},
        {"\uff11": "1"},
    ],
    ids=["leading-zero", "underscore", "spaces", "sign", "full-width-digit"],
)
def test_task_set_rejects_non_canonical_keys(data):
    with pytest.raises(DomainError):
        decode_task_set(data)


def test_encode_fraction_refuses_exactly_what_cannot_print():
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("this Python prints integers of any length")
    widest = 10**limit - 1
    assert encode_fraction(Fraction(widest, 7)) == f"{widest}/7"
    assert encode_fraction(Fraction(7, widest)) == f"7/{widest}"
    for value in (Fraction(10**limit, 7), Fraction(7, 10**limit)):
        with pytest.raises(ResourceLimitError, match=f"over {limit} digits"):
            encode_fraction(value)


def expect_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return value


def decode_cell(obj) -> Cell:
    pair = _expect_list(obj, "cell")
    if len(pair) != 2:
        raise DomainError(f"cell must be [row, col], got {obj!r}")
    return Cell(expect_int(pair[0], "row"), expect_int(pair[1], "col"))


def decode_trace(obj) -> oracles.Trace:
    """A trace from its canonical JSON, every event's state decoded and checked on its own."""
    data = _expect_object(obj, "trace")
    initial = decode_hmt_state(data.get("initial"))
    events = []
    for raw in _expect_list(data.get("events", []), "events"):
        entry = _expect_object(raw, "event")
        trigger_obj = _expect_object(entry.get("trigger"), "trigger")
        if "completed" in trigger_obj:
            trigger = Completion(expect_int(trigger_obj["completed"], "completed task"))
        elif "rectify_corner" in trigger_obj:
            trigger = RectifyCorner(decode_cell(trigger_obj["rectify_corner"]))
        else:
            raise DomainError(f"unknown trigger {trigger_obj!r}")
        moves = []
        for item in _expect_list(entry.get("relocations", []), "relocations"):
            move = _expect_object(item, "relocation")
            task, source = expect_int(move.get("task"), "task"), decode_cell(move.get("from"))
            moves.append(Relocation(task, source, decode_cell(move.get("to"))))
        noop = entry.get("noop", False)
        if not isinstance(noop, bool):
            raise DomainError(f"noop must be true or false, got {noop!r}")
        events.append(TraceEvent(trigger, tuple(moves), decode_hmt_state(entry.get("state")), noop))
    return oracles.Trace(initial, tuple(events))


def test_trace_roundtrip():
    a0 = HmtState.of((3, 3, 3), [[1, 2, 4], [3, 5, 7], [6, 8, 9]])
    trace = reassignment_sequence(a0, (1, 3, 2, 5, 8, 4, 6, 7, 9))
    encoded = encode_trace(trace)
    assert decode_trace(encoded) == (trace.initial, trace.events)
    assert encoded["events"][0]["trigger"] == {"completed": 1}
    assert encoded["events"][0]["relocations"][0] == {"task": 2, "from": [1, 2], "to": [1, 1]}
    assert encoded["events"][-1]["noop"] is True
    assert "noop" not in encoded["events"][0]


@pytest.mark.parametrize("noop", ["false", "true", 0, 1, None, [], {}])
def test_decode_trace_requires_a_boolean_noop(noop):
    encoded = encode_trace(reassignment_sequence(HmtState.of((1,), [[1]]), [1]))
    encoded["events"][0]["noop"] = noop
    with pytest.raises(DomainError, match="noop"):
        decode_trace(encoded)
    for flag in (True, False):
        encoded["events"][0]["noop"] = flag
        assert decode_trace(encoded).events[0].noop is flag


def written(trace) -> tuple[str, int]:
    """The writer's text for ``trace`` and how many times it called ``write``."""
    chunks: list[str] = []
    write_trace(trace, chunks.append)
    return "".join(chunks), len(chunks)


@st.composite
def traces(draw):
    """Completion traces (full, prefix or empty orders) and rectifications, capacities or not."""
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    mesh = Partition((cols,) * rows)
    kind = draw(st.sampled_from(["full", "prefix", "empty", "rectify"]))
    outer = mesh if draw(st.booleans()) else random_partition_in_box(rng, rows, cols)
    inner = random_subpartition(rng, outer) if kind == "rectify" else Partition()
    filling = random_standard_filling(rng, SkewShape(outer, inner))
    grid = [[None] * cols for _ in range(rows)]
    for cell, task in filling.to_cell_map().items():
        grid[cell.row - 1][cell.col - 1] = task
    capacities = random_hierarchical_capacities(rng, mesh) if draw(st.booleans()) else None
    a0 = HmtState(mesh, grid, capacities)
    if kind == "rectify":
        return rectify_assignment(a0)
    order = list(range(1, a0.task_count + 1))
    rng.shuffle(order)
    length = {"full": len(order), "prefix": rng.randrange(len(order)), "empty": 0}[kind]
    return reassignment_sequence(a0, order[:length])


@settings(max_examples=150, deadline=None)
@given(traces())
def test_write_trace_matches_canonical_dumps(trace):
    text, writes = written(trace)
    assert text == canonical_dumps(encode_trace(trace))
    assert writes == len(trace.events) + 1
    assert encode_trace(trace) == oracles.encode_trace(oracles.Trace(trace.initial, trace.events))


# The state fixture and completions (None: a rectification) behind each golden "trace".
GOLDEN_TRACES = {
    "fig3-reassignment-sequence": ("fig3_initial.json", figures.FIG3_COMPLETIONS),
    "fig4-rectify-t1": ("fig4_t1.json", None),
    "fig4-rectify-t2": ("fig4_t2.json", None),
    "fig6-greedy-rectification": ("fig6c.json", None),
}


def fixture_traces():
    """The library's traces of the golden scenarios, then of every bundled state that has one."""
    for name, (fixture, completions) in GOLDEN_TRACES.items():
        state = figures.load_state_fixture(fixture)
        if completions is None:
            yield name, rectify_assignment(state)
        else:
            yield name, reassignment_sequence(state, completions)
    for path in sorted((Path(figures.__file__).parent / "fixtures" / "states").glob("*.json")):
        state = decode_hmt_state(json.loads(path.read_text(encoding="utf-8")))
        for label, build in (
            ("completions", lambda: reassignment_sequence(state, range(1, state.task_count + 1))),
            ("rectify", lambda: rectify_assignment(state)),
        ):
            try:
                yield f"{path.name}-{label}", build()
            except DomainError:  # a generalized or skew state has no such trace
                pass


def test_write_trace_matches_canonical_dumps_on_goldens_and_fixtures():
    goldens = {name: json.loads(figures.golden_text(name)) for name in figures.FIGURES}
    assert {name for name, golden in goldens.items() if "trace" in golden} == set(GOLDEN_TRACES)
    names = []
    for name, trace in fixture_traces():
        names.append(name)
        text = written(trace)[0]
        assert text == canonical_dumps(encode_trace(trace)), name
        if name in GOLDEN_TRACES:
            assert text == canonical_dumps(goldens[name]["trace"]), name
    assert {"fig3-reassignment-sequence", "fig6-greedy-rectification"} <= set(names)
    assert "fig6c.json-rectify" in names and "fig3_initial.json-completions" in names


def test_slide_steps_schema():
    t = Tableau.skew((2, 2), (1,), [[None, 2], [1, 3]])
    _, _, steps = forward_slide_trace(t, Cell(1, 1))
    assert encode_slide_steps(steps) == [
        {"hole": [1, 1], "moved_entry": 1, "from": [2, 1]},
        {"hole": [2, 1], "moved_entry": 3, "from": [2, 2]},
    ]


def test_randomized_roundtrips():
    from conftest import random_skew_syt
    from taquin.randgen import random_skew_assignment

    rng = Random(53)
    for _ in range(25):
        t = random_skew_syt(rng, max_cells=8)
        assert decode_tableau(json.loads(canonical_dumps(encode_tableau(t)))) == t
        state = random_skew_assignment(rng)
        assert decode_hmt_state(json.loads(canonical_dumps(encode_hmt_state(state)))) == state


def test_canonical_dumps_is_stable():
    text = canonical_dumps({"b": 1, "a": [1, 2]})
    assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    assert text == canonical_dumps(json.loads(text))

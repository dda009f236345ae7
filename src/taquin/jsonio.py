"""JSON encoding/decoding for every value the CLI reads or writes.

Encoders return plain JSON-compatible objects; ``canonical_dumps`` renders
them with sorted keys and fixed spacing so output is byte-stable.  Rationals
travel as "p/q" strings.  Traces, the one large output, also have a direct
writer, ``write_trace``, whose bytes are ``canonical_dumps(encode_trace(...))``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Callable, Sequence

from .errors import DomainError
from .hms import (
    CapacityGrid,
    Completion,
    HmtState,
    ReassignmentTrace,
    RectifyCorner,
    TaskSet,
    TraceEvent,
)
from .jdt import Relocation
from .partitions import Cell, Partition, SkewShape
from .rsk import Permutation
from .tableaux import Tableau


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _expect_int(value: Any, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return value


def _expect_list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise DomainError(f"{what} must be a JSON array, got {value!r}")
    return value


def _expect_object(value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise DomainError(f"{what} must be a JSON object, got {value!r}")
    return value


def encode_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def decode_fraction(value: Any) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    # Only "p/q" or an integer: Fraction alone takes "1e9999999", at a cost growing with it.
    if isinstance(value, str) and re.fullmatch(r"[-+]?[0-9]+(/[0-9]+)?", value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad rational {value!r}") from exc
    raise DomainError(f"rationals must be 'p/q' strings or integers, got {value!r}")


def encode_partition(shape: Partition) -> list[int]:
    return list(shape.parts)


def decode_partition(obj: Any) -> Partition:
    parts = _expect_list(obj, "partition")
    return Partition(tuple(_expect_int(p, "row length") for p in parts))


def encode_skew_shape(shape: SkewShape) -> dict:
    return {"outer": encode_partition(shape.outer), "inner": encode_partition(shape.inner)}


def encode_cell(cell: Cell) -> list[int]:
    return [cell.row, cell.col]


def decode_cell(obj: Any) -> Cell:
    pair = _expect_list(obj, "cell")
    if len(pair) != 2:
        raise DomainError(f"cell must be [row, col], got {obj!r}")
    return Cell(_expect_int(pair[0], "row"), _expect_int(pair[1], "col"))


def _decode_grid(
    obj: Any, rows_what: str, row_what: str, entry_what: str
) -> tuple[tuple[int | None, ...], ...]:
    return tuple(
        tuple(
            None if entry is None else _expect_int(entry, entry_what)
            for entry in _expect_list(row, row_what)
        )
        for row in _expect_list(obj, rows_what)
    )


def encode_tableau(t: Tableau) -> dict:
    return {**encode_skew_shape(t.shape), "rows": [list(row) for row in t.rows]}


def decode_tableau(obj: Any) -> Tableau:
    data = _expect_object(obj, "tableau")
    grid = _decode_grid(data.get("rows", []), "tableau rows", "tableau row", "tableau entry")
    return Tableau(
        SkewShape(
            decode_partition(data.get("outer", [])),
            decode_partition(data.get("inner", [])),
        ),
        grid,
    )


def encode_permutation(pi: Permutation) -> list[int]:
    return list(pi.word)


def decode_permutation(obj: Any) -> Permutation:
    word = _expect_list(obj, "permutation")
    return Permutation(tuple(_expect_int(x, "letter") for x in word))


def encode_capacity_rates(caps: CapacityGrid) -> list[list[str]]:
    return [[encode_fraction(rate) for rate in row] for row in caps.rates]


def _decode_rates(obj: Any, what: str) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(
        tuple(decode_fraction(rate) for rate in _expect_list(row, "capacity row"))
        for row in _expect_list(obj, what)
    )


def decode_capacity_grid(obj: Any) -> CapacityGrid:
    data = _expect_object(obj, "capacity grid")
    shape = decode_partition(data.get("shape", []))
    return CapacityGrid(shape, _decode_rates(data.get("c", []), "capacity rows"))


def encode_hmt_state(state: HmtState) -> dict:
    obj: dict[str, Any] = {
        "shape": encode_partition(state.shape),
        "cells": [list(row) for row in state.occupancy],
    }
    if state.capacities is not None:
        obj["capacities"] = encode_capacity_rates(state.capacities)
    return obj


def decode_hmt_state(obj: Any) -> HmtState:
    data = _expect_object(obj, "mesh state")
    shape = decode_partition(data.get("shape", []))
    grid = _decode_grid(data.get("cells", []), "occupancy rows", "occupancy row", "task ID")
    capacities = None
    if "capacities" in data and data["capacities"] is not None:
        capacities = CapacityGrid(shape, _decode_rates(data["capacities"], "capacities"))
    return HmtState(shape, grid, capacities)


def encode_task_set(tasks: TaskSet) -> dict[str, str]:
    return {
        str(task): encode_fraction(requirement)
        for task, requirement in enumerate(tasks.requirements, start=1)
    }


def decode_task_set(obj: Any) -> TaskSet:
    """Requirements keyed by task ID; the keys are exactly "1".."m", in any order."""
    data = _expect_object(obj, "task requirements")
    by_id: dict[int, Fraction] = {}
    for key, value in data.items():
        try:
            task = int(key)
        except ValueError as exc:
            raise DomainError(f"task IDs must be integers, got {key!r}") from exc
        # int() also reads "01", "+1", " 1 " and "1_0": two keys could name one task.
        if str(task) != key:
            raise DomainError(f"task ID {key!r} must be written {str(task)!r}")
        by_id[task] = decode_fraction(value)
    ids = sorted(by_id)
    if ids != list(range(1, len(ids) + 1)):
        raise DomainError(f"task IDs must be exactly 1..m, got {ids}")
    return TaskSet(tuple(by_id[task] for task in ids))


def encode_relocation(move: Relocation) -> dict:
    return {
        "task": move.task,
        "from": encode_cell(move.source),
        "to": encode_cell(move.dest),
    }


def encode_trigger(trigger: Completion | RectifyCorner) -> dict:
    if isinstance(trigger, Completion):
        return {"completed": trigger.task}
    return {"rectify_corner": encode_cell(trigger.corner)}


def encode_trace_event(event: TraceEvent) -> dict:
    obj: dict[str, Any] = {
        "trigger": encode_trigger(event.trigger),
        "relocations": [encode_relocation(move) for move in event.relocations],
        "state": encode_hmt_state(event.state),
    }
    if event.noop:
        obj["noop"] = True
    return obj


def encode_trace(trace: ReassignmentTrace) -> dict:
    return {
        "initial": encode_hmt_state(trace.initial),
        "events": [encode_trace_event(event) for event in trace.events],
    }


def decode_trace(obj: Any) -> ReassignmentTrace:
    data = _expect_object(obj, "trace")
    initial = decode_hmt_state(data.get("initial"))
    events = []
    for raw in _expect_list(data.get("events", []), "events"):
        entry = _expect_object(raw, "event")
        trigger_obj = _expect_object(entry.get("trigger"), "trigger")
        trigger: Completion | RectifyCorner
        if "completed" in trigger_obj:
            trigger = Completion(_expect_int(trigger_obj["completed"], "completed task"))
        elif "rectify_corner" in trigger_obj:
            trigger = RectifyCorner(decode_cell(trigger_obj["rectify_corner"]))
        else:
            raise DomainError(f"unknown trigger {trigger_obj!r}")
        relocations = tuple(
            Relocation(
                _expect_int(_expect_object(move, "relocation").get("task"), "task"),
                decode_cell(_expect_object(move, "relocation").get("from")),
                decode_cell(_expect_object(move, "relocation").get("to")),
            )
            for move in _expect_list(entry.get("relocations", []), "relocations")
        )
        noop = entry.get("noop", False)
        if not isinstance(noop, bool):
            raise DomainError(f"noop must be true or false, got {noop!r}")
        events.append(TraceEvent(trigger, relocations, decode_hmt_state(entry.get("state")), noop))
    return ReassignmentTrace(initial, tuple(events))


# --- the trace writer ------------------------------------------------------
#
# ``json.dumps(..., indent=2)`` always runs the pure-Python encoder.  The
# writer below renders a trace's text straight from its objects, as that
# encoder would render ``encode_trace``'s dict tree: every array and object
# element on its own line, two spaces deeper than its bracket, keys sorted.
# Each helper takes the indent of the line its value starts on.


def _array(items: Sequence[str], indent: int) -> str:
    """The JSON array of ``items``, each already JSON text rendered at ``indent + 2``."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def _object(fields: Sequence[tuple[str, str]], indent: int) -> str:
    """The JSON object of ``fields``, (key, JSON text) pairs already in sorted key order."""
    pad = "\n" + " " * (indent + 2)
    body = ",".join(f'{pad}"{key}": {text}' for key, text in fields)
    return "{" + body + "\n" + " " * indent + "}"


# Events sit at indent 4 in the top-level "events" array; relocations at 8.
_RELOCATION = _object(
    (("from", _array(("%d", "%d"), 10)), ("task", "%d"), ("to", _array(("%d", "%d"), 10))), 8
)


def _state_writer(indent: int) -> Callable[[HmtState], str]:
    """Render states at ``indent`` as ``encode_hmt_state`` would be; one writer per trace depth.

    A row that ``is`` the row at the same index of the state rendered just
    before reuses that row's text, and a state whose shape and capacities are
    the previous state's objects reuses their text.  The writer holds the
    previous state, so no object it compares against can have been freed.
    """
    row_pad = indent + 4
    previous: HmtState | None = None
    row_texts: list[str] = []
    head = tail = ""

    def render(state: HmtState) -> str:
        nonlocal previous, row_texts, head, tail
        if previous is None or previous.shape is not state.shape or (
            previous.capacities is not state.capacities
        ):
            fields = [("cells", "\0")]  # JSON text never holds a raw NUL: it marks the cells
            if state.capacities is not None:
                rates = [
                    _array([json.dumps(encode_fraction(rate)) for rate in row], row_pad)
                    for row in state.capacities.rates
                ]
                fields.insert(0, ("capacities", _array(rates, indent + 2)))
            fields.append(("shape", _array([str(part) for part in state.shape.parts], indent + 2)))
            head, _, tail = _object(fields, indent).partition("\0")
        old_rows = previous.occupancy if previous is not None else ()
        old_texts = row_texts
        row_texts = [
            old_texts[k]
            if k < len(old_rows) and row is old_rows[k]
            else _array(["null" if task is None else str(task) for task in row], row_pad)
            for k, row in enumerate(state.occupancy)
        ]
        previous = state
        return head + _array(row_texts, indent + 2) + tail

    return render


def _trigger_text(trigger: Completion | RectifyCorner) -> str:
    if isinstance(trigger, Completion):
        return _object((("completed", str(trigger.task)),), 6)
    corner = _array((str(trigger.corner.row), str(trigger.corner.col)), 8)
    return _object((("rectify_corner", corner),), 6)


def write_trace(trace: ReassignmentTrace, write: Callable[[str], object]) -> None:
    """Write ``canonical_dumps(encode_trace(trace))`` through ``write``, one call per event.

    The text is rendered directly from the trace, with no dict tree.  Rows
    that successive snapshots share (see ``hms.HmtState._after_slide``) are
    rendered once; beyond the trace, memory holds one event's text and one
    state's row texts.
    """
    render_state = _state_writer(6)
    separator = '{\n  "events": [\n    '
    for event in trace.events:
        moves = [_RELOCATION % (*move.source, move.task, *move.dest) for move in event.relocations]
        fields = [
            ("relocations", _array(moves, 6)),
            ("state", render_state(event.state)),
            ("trigger", _trigger_text(event.trigger)),
        ]
        if event.noop:
            fields.insert(0, ("noop", "true"))
        write(separator + _object(fields, 4))
        separator = ",\n    "
    events_end = '{\n  "events": []' if not trace.events else "\n  ]"
    write(events_end + ',\n  "initial": ' + _state_writer(2)(trace.initial) + "\n}\n")


def encode_slide_steps(moves: Sequence[Relocation]) -> list[dict]:
    return [
        {"hole": encode_cell(move.dest), "moved_entry": move.task, "from": encode_cell(move.source)}
        for move in moves
    ]

"""JSON encoding/decoding for every value the CLI reads or writes.

Encoders return plain JSON-compatible objects; ``canonical_dumps`` renders
them with sorted keys and fixed spacing so output is byte-stable.  Rationals
travel as "p/q" strings.  Traces, the one large output, also have a direct
writer, ``write_trace``, whose bytes are ``canonical_dumps(encode_trace(...))``.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Any, Callable, Sequence

from .errors import DomainError, ResourceLimitError
from .hms import (
    CapacityGrid,
    Completion,
    HmtState,
    ReassignmentTrace,
    RectifyCorner,
    TaskSet,
)
from .jdt import Relocation, _cell_table, _moves
from .partitions import Cell, Partition, SkewShape
from .rsk import Permutation
from .tableaux import Tableau


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _expect_list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise DomainError(f"{what} must be a JSON array, got {value!r}")
    return value


def _expect_object(value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise DomainError(f"{what} must be a JSON object, got {value!r}")
    return value


def encode_fraction(value: Fraction) -> str:
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:  # past ``sys.get_int_max_str_digits()`` digits
        limit = sys.get_int_max_str_digits()
        raise ResourceLimitError(f"an exact result has over {limit} digits to print") from exc


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
    return Partition(tuple(_expect_list(obj, "partition")))


def encode_skew_shape(shape: SkewShape) -> dict:
    return {"outer": encode_partition(shape.outer), "inner": encode_partition(shape.inner)}


def encode_cell(cell: Cell) -> list[int]:
    return [cell.row, cell.col]


def _decode_grid(obj: Any, rows_what: str, row_what: str) -> list[list]:
    """The rows of a grid, each a JSON array; its entries are left to the value's constructor."""
    return [_expect_list(row, row_what) for row in _expect_list(obj, rows_what)]


def encode_tableau(t: Tableau) -> dict:
    return {**encode_skew_shape(t.shape), "rows": [list(row) for row in t.rows]}


def decode_tableau(obj: Any) -> Tableau:
    data = _expect_object(obj, "tableau")
    grid = _decode_grid(data.get("rows", []), "tableau rows", "tableau row")
    return Tableau(
        SkewShape(
            decode_partition(data.get("outer", [])),
            decode_partition(data.get("inner", [])),
        ),
        grid,
    )


def encode_permutation(pi: Permutation) -> list[int]:
    return list(pi.word)


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
    grid = _decode_grid(data.get("cells", []), "occupancy rows", "occupancy row")
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


def encode_trace(trace: ReassignmentTrace) -> dict:
    """The trace as a JSON tree, from its replay (``ReassignmentTrace.replay``) and move log."""
    a0, events = trace.initial, []
    cells = _cell_table(a0.occupancy)
    for kind, arg, log, rows in trace.replay():
        events.append({
            "trigger": {"completed": arg} if kind is Completion
            else {"rectify_corner": encode_cell(arg)},
            "relocations": [
                {"task": task, "from": encode_cell(cells[src]), "to": encode_cell(cells[dst])}
                for task, src, dst in _moves(log)
            ],
            "state": encode_hmt_state(a0._snapshot(rows)),
            **({} if log else {"noop": True}),
        })
    return {"initial": encode_hmt_state(a0), "events": events}


# --- the trace writer ------------------------------------------------------
#
# ``json.dumps(..., indent=2)`` always runs the pure-Python encoder.  The
# writer below renders a trace's text straight from its move log, as that
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
_TRIGGER = {
    Completion: _object((("completed", "%d"),), 6),
    RectifyCorner: _object((("rectify_corner", _array(("%d", "%d"), 8)),), 6),
}


def _state_frame(state: HmtState, indent: int) -> list[str]:
    """The text of ``state`` at ``indent`` before and after its rows; the rows' text joins them."""
    fields = [("cells", "\0")]  # JSON text never holds a raw NUL: it marks the cells
    if state.capacities is not None:
        rates = [
            _array([json.dumps(encode_fraction(rate)) for rate in row], indent + 4)
            for row in state.capacities.rates
        ]
        fields.insert(0, ("capacities", _array(rates, indent + 2)))
    fields.append(("shape", _array([str(part) for part in state.shape.parts], indent + 2)))
    return _object(fields, indent).split("\0")


def _row_text(row: Sequence[int | None], indent: int) -> str:
    return _array(["null" if task is None else str(task) for task in row], indent)


def write_trace(trace: ReassignmentTrace, write: Callable[[str], object]) -> None:
    """Write ``canonical_dumps(encode_trace(trace))`` through ``write``, one call per event.

    The text is rendered from the trace's move log (``ReassignmentTrace.replay``,
    its moves read by ``jdt._moves``), with new text only for the rows an event rewrote
    and no snapshot or relocation built.
    """
    a0 = trace.initial
    cells, rows, frame = _cell_table(a0.occupancy), a0.occupancy, _state_frame(a0, 6)
    texts = [_row_text(row, 10) for row in rows]
    separator = '{\n  "events": [\n    '
    for kind, arg, log, after in trace.replay():
        texts = [t if row is old else _row_text(row, 10) for t, old, row in zip(texts, rows, after)]
        rows = after
        moves = [_RELOCATION % (*cells[src], task, *cells[dst]) for task, src, dst in _moves(log)]
        fields = [
            ("relocations", _array(moves, 6)),
            ("state", _array(texts, 8).join(frame)),
            ("trigger", _TRIGGER[kind] % arg),
        ]
        if not log:
            fields.insert(0, ("noop", "true"))
        write(separator + _object(fields, 4))
        separator = ",\n    "
    initial = _array([_row_text(row, 6) for row in a0.occupancy], 4).join(_state_frame(a0, 2))
    # No event written: ``separator`` still opens the document.
    events_end = '{\n  "events": []' if separator[0] == "{" else "\n  ]"
    write(events_end + ',\n  "initial": ' + initial + "\n}\n")


def encode_slide_steps(moves: Sequence[Relocation]) -> list[dict]:
    return [
        {"hole": encode_cell(move.dest), "moved_entry": move.task, "from": encode_cell(move.source)}
        for move in moves
    ]

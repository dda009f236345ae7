"""Spans around calls into taquin's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function in every ``taquin`` module
namespace that binds it (``from .x import f`` copies the binding, so patching
only the defining module would miss callers in other modules), and replaces
the traced constructors and methods on their classes.  Spans are kept in flat
arrays in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# (module, attribute path) of every traced callable.  The span name is the
# module name plus the attribute path, with ``__init__`` shortened to ``init``.
TARGETS = (
    ("partitions", "skew_shape_of_cells"),
    ("partitions", "inner_corners"),
    ("partitions", "count_syt"),
    ("tableaux", "Tableau.__init__"),
    ("tableaux", "Tableau.from_cells"),
    ("tableaux", "is_partial"),
    ("tableaux", "row_insert"),
    ("tableaux", "reverse_bump"),
    ("rsk", "rsk"),
    ("rsk", "rsk_inverse"),
    ("jdt", "forward_slide_trace"),
    ("jdt", "backward_slide_trace"),
    ("hms", "HmtState.__init__"),
    ("hms", "HmtState.cell_of"),
    ("hms", "classify_state"),
    ("hms", "maximally_embedded"),
    ("hms", "reassign_on_completion"),
    ("hms", "reassignment_sequence"),
    ("hms", "rectify_assignment"),
    ("hms", "turnaround_sequential"),
    ("jsonio", "canonical_dumps"),
    ("jsonio", "encode_trace"),
    ("jsonio", "decode_hmt_state"),
    ("jsonio", "decode_tableau"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{mod}.{path.replace('__init__', 'init')}" for mod, path in TARGETS)


class Tracer:
    """Records one span (name, start, end, parent, op id) per traced call."""

    def __init__(self) -> None:
        self.op = -1
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.names = array("h")
        self.ops = array("l")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        starts, ends, parents, names, ops, stack = (
            self.starts, self.ends, self.parents, self.names, self.ops, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(name_id)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in every loaded ``taquin`` module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "taquin"]
        for name_id, (mod, path) in enumerate(TARGETS):
            home = sys.modules[f"taquin.{mod}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._wrap(name_id, raw.__func__)))
                else:
                    self._set(cls, attr, self._wrap(name_id, raw))
                continue
            original = getattr(home, path)
            traced = self._wrap(name_id, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def columns(self) -> dict[str, list]:
        """The spans as parallel columns; ``name`` indexes ``SPAN_NAMES``."""
        return {
            "name": self.names.tolist(),
            "start": self.starts.tolist(),
            "end": self.ends.tolist(),
            "parent": self.parents.tolist(),
            "op": self.ops.tolist(),
        }

    def dump(self, path: str, **extra) -> None:
        """Write the spans, and any extra fields, as one JSON object."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"span_names": SPAN_NAMES, **extra, "spans": self.columns()}, handle)


class SpanStats:
    """Per-name totals over one or more span trees.

    ``self_s`` is a span's duration minus the time its child spans cover;
    ``busy_s`` sums the durations of spans with no same-name ancestor, so a
    nested call is not counted twice.  ``outer_s`` sums, per group of names,
    the spans with no ancestor in the group.
    """

    def __init__(self, groups: dict[str, frozenset[str]]) -> None:
        self.groups = groups
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.busy_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.outer_s = dict.fromkeys(groups, 0.0)

    def add(self, spans: dict[str, list]) -> None:
        """Fold in the columns of one process's spans (parents precede children)."""
        names, starts, ends, parents = (
            spans["name"], spans["start"], spans["end"], spans["parent"]
        )
        bits = [1 << k for k in range(len(SPAN_NAMES))]
        group_masks = [
            (g, sum(bits[SPAN_NAMES.index(n)] for n in members))
            for g, members in self.groups.items()
        ]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        busy_s = [0.0] * len(SPAN_NAMES)
        ancestors = [0] * len(names)
        child_s = [0.0] * len(names)
        for i, name in enumerate(names):
            duration = ends[i] - starts[i]
            parent = parents[i]
            if parent >= 0:
                ancestors[i] = ancestors[parent] | bits[names[parent]]
                child_s[parent] += duration
            calls[name] += 1
            if not ancestors[i] & bits[name]:
                busy_s[name] += duration
            for g, mask in group_masks:
                if bits[name] & mask and not ancestors[i] & mask:
                    self.outer_s[g] += duration
        for i, name in enumerate(names):
            self_s[name] += ends[i] - starts[i] - child_s[i]
        for k, name in enumerate(SPAN_NAMES):
            self.calls[name] += calls[k]
            self.self_s[name] += self_s[k]
            self.busy_s[name] += busy_s[k]

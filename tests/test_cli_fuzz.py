"""Structural fuzz of the CLI commands that read files, run in process.

Each case takes a bundled state, golden tableaux, or a requirement or capacity
file made to fit its state, and mutates one of them up to three times.  Half
the cases mutate its structure: they drop, repeat (a key, too) or wrap a
field, or swap in ``None``, a bool, a float, a huge or negative integer, a
5000-digit string or nested lists.  The other half keep every grid's shape, so
they reach the constructors' entry checks: each mutation puts such a value, or
a copy of another entry of the same grid, in place of one grid entry.  Every
run must return 0, 1 or 2 within 2 s; a 2 comes with exactly one ``error:``
line on stderr, and no exception escapes ``main``.
"""

from __future__ import annotations

import copy
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import oracles
from hypothesis import given, settings
from hypothesis import strategies as st

from taquin import figures
from taquin.cli import main

STATE_DIR = Path(figures.__file__).parent / "fixtures" / "states"
STATES = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(STATE_DIR.glob("*"))]
GOLDENS = {name: json.loads(figures.golden_text(name)) for name in figures.FIGURES}


def tableaux(obj: object):
    """Every tableau object (``outer``, ``inner``, ``rows``) inside a golden file."""
    if isinstance(obj, dict):
        if {"outer", "inner", "rows"} <= set(obj):
            yield obj
        obj = list(obj.values())
    for child in obj if isinstance(obj, list) else ():
        yield from tableaux(child)


TABLEAUX = [t for golden in GOLDENS.values() for t in tableaux(golden)]
PAIRS = [(GOLDENS["fig5-insertion-tableaux"][w]["P"], GOLDENS["fig5-insertion-tableaux"][w]["Q"])
         for w in ("pi", "tau")]


def requirements(state: dict) -> dict:
    m = sum(task is not None for row in state["cells"] for task in row)
    return {str(task): f"1/{task}" for task in range(1, m + 1)}


def capacities(state: dict) -> dict:
    rows, cols = len(state["shape"]), state["shape"][0]
    return {"shape": state["shape"],
            "c": [[str(2 ** (rows + cols - i - j)) for j in range(cols)] for i in range(rows)]}


class Twice(NamedTuple):
    """An object field written twice under its key."""

    value: object


def text(value: object) -> str:
    """The JSON text of ``value``, each ``Twice`` field's key written twice."""
    if isinstance(value, Twice):
        return text(value.value)
    if isinstance(value, dict):
        fields = [*value.items(), *((k, v) for k, v in value.items() if isinstance(v, Twice))]
        return "{" + ", ".join(f"{json.dumps(k)}: {text(v)}" for k, v in fields) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(text, value)) + "]"
    return json.dumps(value)


def paths(value: object, path: tuple = ()):
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from paths(child, path + (key,))


JUNK = st.one_of(
    st.sampled_from([None, True, False, 0, -1, -(2**70), 2**70, 10**4000, "9" * 5000, "1/2", "x"]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.recursive(st.integers(-3, 12), lambda inner: st.lists(inner, max_size=3), max_leaves=6),
)


@st.composite
def mutated(draw, value: object) -> object:
    """``value`` after up to three structural mutations."""
    for _ in range(draw(st.integers(0, 3))):
        value = copy.deepcopy(value)
        path = draw(st.sampled_from(list(paths(value))))
        op = draw(st.sampled_from(["swap", "wrap", "drop", "repeat"]))
        if not path:
            value = [value] if op == "wrap" else draw(JUNK)
            continue
        *head, key = path
        parent = value
        for step in head:
            parent = parent[step]
        if op == "swap":
            parent[key] = draw(JUNK)
        elif op == "wrap":
            parent[key] = [parent[key]]
        elif op == "drop":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = Twice(parent[key])
    return value


# The grids of the files: occupancy, tableau rows, capacities and partitions.
GRIDS = {"cells", "rows", "c", "capacities", "shape", "outer", "inner"}


def grid_entries(value: object) -> dict[tuple, object]:
    """Each value inside a grid of ``value`` that is neither an array nor an object, by path."""
    found = {}
    for path in paths(value):
        entry = value
        for step in path:
            entry = entry[step]
        if path and path[0] in GRIDS and not isinstance(entry, (dict, list)):
            found[path] = entry
    return found


@st.composite
def shape_kept(draw, value: object) -> object:
    """``value`` after one to three grid entries are overwritten: nothing dropped or inserted."""
    for _ in range(draw(st.integers(1, 3))):
        value = copy.deepcopy(value)
        found = grid_entries(value)
        if not found:  # a requirements file has no grid
            return value
        *head, key = path = draw(st.sampled_from(list(found)))
        others = [entry for other, entry in found.items() if other[0] == path[0] and other != path]
        parent = value
        for step in head:
            parent = parent[step]
        copies = [st.sampled_from(others)] if others else []
        parent[key] = draw(st.one_of(JUNK, *copies))
    return value


@st.composite
def cases(draw) -> tuple[list[str], dict]:
    """A command line, its file arguments written ``{name}``, and those files' values."""
    command = draw(st.sampled_from(["check", "rectify", "simulate", "turnaround", "rsk"]))
    if command == "rsk":
        p, q = draw(st.one_of(st.sampled_from(PAIRS), st.tuples(*[st.sampled_from(TABLEAUX)] * 2)))
        argv, files = ["rsk", "--inverse", "{p}", "{q}"], {"p": p, "q": q}
    else:
        state = draw(st.sampled_from(STATES))
        argv, files = [command, "--state", "{state}"], {"state": state}
    if command == "simulate":
        orders = ["1", "1,2,3", "3,1,2", "2,1,4,3,6,5,8,7", ""]
        argv += ["--completions", draw(st.sampled_from(orders))]
    if command == "turnaround":
        files["requirements"] = requirements(state)
        argv += ["--requirements", "{requirements}"]
        if draw(st.booleans()):
            files["capacities"] = capacities(state)
            argv += ["--capacities", "{capacities}"]
        argv += draw(st.sampled_from([[], ["--relocate"], ["--no-relocate"]]))
    name = draw(st.sampled_from(sorted(files)))
    files[name] = draw(draw(st.sampled_from([mutated, shape_kept]))(files[name]))
    return argv, files


@settings(max_examples=800, deadline=None)
@given(cases())
def test_mutated_inputs_exit_0_1_or_2_with_one_error_line(tmp_path_factory, case):
    argv, files = case
    folder = tmp_path_factory.mktemp("fuzz")
    for name, value in files.items():
        (folder / f"{name}.json").write_text(text(value), encoding="utf-8")
    argv = [arg.format(**{name: str(folder / f"{name}.json") for name in files}) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 2.0, argv  # huge ints must not make a sum run long
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    elif code == 0 and argv[0] in ("simulate", "rectify"):
        oracles.verify_trace(json.loads(out.getvalue()))

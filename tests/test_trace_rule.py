"""``oracles.verify_trace`` on every golden, fixture and library trace, and on their mutations.

The verifier replays a printed trace with the paper's greedy relocation rule
and no library code, so it gates the slide kernel without sharing it.  Every
trace the CLI tests print is verified as well (``test_cli.run``).
"""

from __future__ import annotations

import copy
import json

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_jsonio import fixture_traces, written
from test_kernels import logged_traces

from taquin.jsonio import encode_trace


def leaves(obj, path=()):
    """(path, value) of every scalar in a JSON tree."""
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from leaves(value, path + (key,))
    else:
        yield path, obj


def mutation_sites(trace: dict) -> list[tuple[tuple, object]]:
    """(path, new value) of each single-field change: every scalar, and every event's noop flag.

    Scalars of the initial state count only when some event replays them.
    Integers go up and down by one and become floats, ``null`` becomes a
    task ID no trace holds, a rate's text grows a digit, a boolean flips.
    Adding or dropping a noop flag has the new value ``DROP`` or ``True``.
    """
    sites = []
    for path, value in leaves(trace):
        if path[0] == "initial" and not trace["events"]:
            continue
        if isinstance(value, bool):
            news = [not value]
        elif isinstance(value, int):
            news = [value + 1, value - 1, float(value)]
        else:
            news = [10**6] if value is None else [value + "1"]
        sites += [(path, new) for new in news]
    for e, event in enumerate(trace["events"]):
        sites.append((("events", e, "noop"), DROP if "noop" in event else True))
    return sites


DROP = object()


def mutated(trace: dict, site: tuple[tuple, object]) -> dict:
    path, value = site
    copied = copy.deepcopy(trace)
    node = copied
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return copied


def printed(trace) -> dict:
    """The JSON the trace writer prints for ``trace``."""
    return json.loads(written(trace)[0])


FIXTURES = list(fixture_traces())


@pytest.mark.parametrize("name,trace", FIXTURES, ids=[name for name, _ in FIXTURES])
def test_golden_and_fixture_traces_follow_the_rule(name, trace):
    oracles.verify_trace(printed(trace))
    assert printed(trace) == encode_trace(trace)


@pytest.mark.parametrize("name,trace", FIXTURES, ids=[name for name, _ in FIXTURES])
def test_every_single_field_mutation_of_a_fixture_trace_fails(name, trace):
    original = printed(trace)
    sites = mutation_sites(original)
    for site in sites:
        with pytest.raises(oracles.TraceViolation):
            oracles.verify_trace(mutated(original, site))
            pytest.fail(f"{name}: mutation {site} passed")
    assert len(sites) >= 4 * len(original["events"])


def test_fixture_traces_cover_both_triggers_and_a_noop():
    events = [event for _, trace in FIXTURES for event in printed(trace)["events"]]
    assert {next(iter(event["trigger"])) for event in events} == {"completed", "rectify_corner"}
    assert any(event.get("noop") for event in events)


@settings(max_examples=150, deadline=None)
@given(logged_traces(), st.randoms(use_true_random=False))
def test_library_traces_follow_the_rule_and_their_mutations_do_not(case, rng):
    trace = printed(case[0])
    oracles.verify_trace(trace)
    sites = mutation_sites(trace)
    for site in rng.sample(sites, min(10, len(sites))):
        with pytest.raises(oracles.TraceViolation):
            oracles.verify_trace(mutated(trace, site))
            pytest.fail(f"mutation {site} passed")

"""A verdict on a bounded space is never stronger than the evidence: it is
either the verdict on the whole space or `unknown(bound)`."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from phasecoord.explorer import (  # noqa: E402
    Bounds,
    check_migration_termination,
    check_progress,
    explore,
)
from phasecoord.mcpal import McPalSkeleton  # noqa: E402
from phasecoord.properties import EventuallyAll, InState, Invariant, Not, Reachable  # noqa: E402

from tests.genmodels import random_initial, random_model  # noqa: E402


def verdicts(model, config, component, state, k, bounds):
    """Every verdict phasecoord gives about `component` sitting in `state`
    (invariant, reachable, eventuallyAll), its progress within k steps and,
    when it has a partition, the termination of a "migration" that completes
    whenever it is back in its initial state and initial phase."""
    at = InState(component, state)
    props = [Invariant(Not(at)), Reachable(at), EventuallyAll(at, k)]
    report = explore(model, config, props, bounds)
    out = dict(report.verdicts)
    out["progress"] = check_progress(report.space, component, k).verdict
    std = model.components[component]
    if std.partitions:
        part = std.partitions[0]
        out["termination"] = check_migration_termination(
            report.space, model.version,
            sk=McPalSkeleton(component=component, hibernation_state=std.initial,
                             evolution_role=part.name, hibernating_phase=part.initial),
        ).verdict
    return out


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    pick=st.integers(0, 1_000),
    k=st.integers(1, 6),
    max_states=st.integers(1, 60),
    max_depth=st.integers(0, 12),
)
def test_bounded_verdict_is_the_full_verdict_or_unknown(seed, pick, k, max_states, max_depth):
    model = random_model(seed)
    config = random_initial(model)
    component = sorted(model.components)[pick % len(model.components)]
    states = sorted(model.components[component].states)
    state = states[pick % len(states)]
    full = verdicts(model, config, component, state, k, Bounds())
    bounded = verdicts(model, config, component, state, k, Bounds(max_states, max_depth))
    assert "unknown(bound)" not in full.values()
    assert full.keys() == bounded.keys()
    for prop, verdict in bounded.items():
        assert verdict in (full[prop], "unknown(bound)"), (prop, verdict, full[prop])

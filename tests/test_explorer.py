"""Reachability, invariants, termination, progress, shortest traces."""

import json
import os
import subprocess
import sys
from bisect import bisect_left
from functools import partial
from pathlib import Path

import pytest

from phasecoord.bundled import get_bundled
from phasecoord.changeset import ChangeSet, canonical_model
from phasecoord.dsl import parse_model
from phasecoord.engine import (
    DetailedStep,
    UnknownElement,
    config_digest,
    export_trace_jsonl,
    label_text,
    replay,
    successors,
)
from phasecoord.explorer import (
    Bounds,
    check_migration_termination,
    check_progress,
    explore,
    explore_space,
    minimal_progress_bound,
)
from phasecoord.mcpal import McPalSkeleton, completion_test, load_migration, weave_mcpal
from phasecoord.model import (
    Configuration,
    ConsistencyRule,
    Partition,
    Phase,
    RoleTransfer,
    Std,
    StdModel,
    Transition,
    Trap,
    initial_configuration,
    replace,
)
from phasecoord.properties import (
    CountInState,
    InState,
    Invariant,
    ModelVersionIs,
    Not,
    compile_predicate,
)

from tests.genmodels import (
    parse_one_property,
    random_initial,
    random_model,
    with_random_changesets,
    with_twin_rules,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import scaler  # noqa: E402  (perfbench/scaler.py: cs-nondet scaled to N workers)

CYCLE3 = """
component Spinner {
  states: A, B, C;
  initial: A;
  transitions:
    A - x -> B;
    B - y -> C;
    C - z -> A;
}
"""

TWO_INDEPENDENT = """
component P {
  states: A, B;
  initial: A;
  transitions:
    A - t -> B;
    B - t -> A;
}
component Q {
  states: C, D;
  initial: C;
  transitions:
    C - u -> D;
    D - u -> C;
}
"""

# Rule r1's changeset re-adds phase Q unchanged, which sorts X's partitions
# by name; r2's leaves them in declaration order.  Both drop both rules, so
# the two firings give one model form through two partition orders.
TWO_PARTITION_ORDERS = """
component X {
  states: A, B;
  initial: A;
  transitions:
    A - a -> B;
    A - b -> B;
    B - back -> A;
  partition q {
    initial: Q;
    phase Q { states: A, B; transitions: A - a -> B, A - b -> B, B - back -> A; }
  }
  partition p {
    initial: P;
    phase P { states: A, B; transitions: A - a -> B, A - b -> B, B - back -> A; }
  }
}
rule r1: X: A - a -> B with {
  add phase X.q.Q { states: A, B; transitions: A - a -> B, A - b -> B, B - back -> A; }
  remove rule r1;
  remove rule r2;
};
rule r2: X: A - b -> B with { remove rule r1; remove rule r2; };
"""


# A coordinator that may wander off to Lost before its one migration (rule
# bump, to version 1) and never return, beside CYCLE3's three-step spinner:
# from Lost, completion is unreachable, and the spinner loops forever.
LOST_COORDINATOR = CYCLE3 + """
component McPal {
  states: Observing, Busy, Lost;
  initial: Observing;
  transitions:
    Observing - go -> Busy;
    Busy - back -> Observing;
    Observing - wander -> Lost;
  partition Evol {
    initial: Hibernating;
    phase Hibernating {
      states: Observing, Busy, Lost;
      transitions: Observing - go -> Busy, Busy - back -> Observing, Observing - wander -> Lost;
    }
  }
}
rule bump: McPal: Observing - go -> Busy with { remove rule bump; };
"""


def _model(text):
    result = parse_model(text)
    assert result.ok, result.diagnostics
    return result.model


class TestExplore:
    def test_three_state_cycle(self):
        model = _model(CYCLE3)
        report = explore(model, initial_configuration(model))
        assert report.states_visited == 3
        assert report.transitions_visited == 3
        assert report.space.deadlocks == []
        assert report.doc()["modelVersionsSeen"] == [0]

    def test_product_of_independents(self):
        model = _model(TWO_INDEPENDENT)
        report = explore(model, initial_configuration(model))
        assert report.states_visited == 4
        assert report.transitions_visited == 8

    def test_bound_exceeded_recorded(self):
        model = _model(TWO_INDEPENDENT)
        report = explore(model, initial_configuration(model), bounds=Bounds(max_states=2))
        assert report.space.max_states_hit
        assert report.doc()["bounds"]["maxStatesHit"]
        assert report.states_visited <= 2

    def test_bound_equal_to_state_count_is_not_hit(self, bundles):
        # cs-nondet has exactly 16 states; only new states count against the bound
        model = bundles["cs-nondet"].model()
        space = explore_space(model, initial_configuration(model), Bounds(max_states=16))
        assert (space.state_count(), len(space.edges)) == (16, 26)
        assert not space.max_states_hit
        space = explore_space(model, initial_configuration(model), Bounds(max_states=15))
        # exploration stops at the first refused state: no edge after it
        assert (space.state_count(), len(space.edges)) == (15, 19)
        assert space.max_states_hit

    def test_census_stability(self, shop_loaded):
        model, config = shop_loaded
        a = explore(model, config, [])
        b = explore(model, config, [])
        assert a.doc() == b.doc()

    def test_exploration_is_serial_only(self, shop_loaded):
        model, config = shop_loaded
        assert explore(model, config, [], workers=1).states_visited == 116
        with pytest.raises(ValueError, match="workers must be 1"):
            explore(model, config, [], workers=2)

    def test_versions_distinguish_states(self):
        # one-shot version bump: the rule removes itself, after which the
        # claim on the x step lapses and the spinner runs free at v1
        model = _model(CYCLE3)
        bump = ConsistencyRule(
            "bump", "Spinner", Transition("A", "x", "B"), (),
            change=ChangeSet(remove_rules=("bump",)),
        )
        model2 = StdModel(model.components, {"bump": bump}, {}, 0)
        report = explore(model2, initial_configuration(model2))
        assert report.doc()["modelVersionsSeen"] == [0, 1]
        assert report.states_visited == 4  # A@v0, then B, C, A at v1

    def test_deadlock_trace_replays(self):
        text = """
component OneWay {
  states: S, T;
  initial: S;
  transitions:
    S - go -> T;
}
"""
        model = _model(text)
        report = explore(model, initial_configuration(model))
        [deadlock] = report.doc()["deadlocks"]
        assert deadlock[-1]["componentStates"] == {"OneWay": "T"}

    def test_deadlock_records_are_the_exported_trace(self):
        # one record format: a report's deadlock traces read exactly like the
        # JSON-lines export of the same trace, rule labels and version bumps
        # included
        text = """
component X {
  states: S, T;
  initial: S;
  transitions:
    S - go -> T;
}
component Y {
  states: S, T;
  initial: S;
  transitions:
    S - go -> T;
}
"""
        base = _model(text)
        bump = ConsistencyRule(
            "bump", "X", Transition("S", "go", "T"), (),
            change=ChangeSet(remove_rules=("bump",)),
        )
        model = StdModel(base.components, {"bump": bump}, {}, 0)
        report = explore(model, initial_configuration(model))
        space, deadlocks = report.space, report.doc()["deadlocks"]
        assert len(deadlocks) == len(space.deadlocks) == 1
        assert deadlocks[0][-1]["modelVersion"] == 1
        assert any(r["label"] and r["label"]["type"] == "rule" for r in deadlocks[0])
        for records, idx in zip(deadlocks, sorted(space.deadlocks)):
            exported = export_trace_jsonl(model, space.trace_to(idx)).splitlines()
            assert records == [json.loads(line) for line in exported]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_scaled_cs_nondet_matches_closed_forms(self, n):
        model = _model(scaler.scale_cs_nondet(get_bundled("cs-nondet").model_text(), n))
        report = explore(model, initial_configuration(model))
        assert report.states_visited == scaler.expected_states(n)
        assert report.transitions_visited == scaler.expected_edges(n)
        assert not report.violations and report.space.deadlocks == []

    def test_inconsistent_root_reports_configuration_valid(self):
        # the root breaks Worker1's phase; the rules that fire from it write
        # other slots, so exploration goes on and the report names the root,
        # with and without `python -O`
        script = (
            "import json\n"
            "from phasecoord.bundled import get_bundled\n"
            "from phasecoord.explorer import explore\n"
            "from phasecoord.model import Configuration\n"
            "model = get_bundled('cs-nondet').model()\n"
            "root = Configuration({'Scheduler': 'Idle', 'Worker1': 'InCS', 'Worker2': 'OutCS'},\n"
            "                     {('Worker1', 'CSRole'): 'Free', ('Worker2', 'CSRole'): 'Free'}, 0)\n"
            "print(json.dumps(explore(model, root).doc(), sort_keys=True, indent=2))\n"
        )
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        reports = [
            subprocess.run([sys.executable, *flags, "-c", script], env=env, cwd=root,
                           capture_output=True, text=True, check=True).stdout
            for flags in ([], ["-O"])
        ]
        assert reports[0] == reports[1]
        doc = json.loads(reports[0])
        assert [v["property"] for v in doc["violations"]] == ["configuration-valid"]
        assert len(doc["violations"][0]["trace"]) == 1  # the root itself
        assert doc["statesVisited"] > 1

    def test_configuration_that_does_not_fit_raises(self, bundles):
        model = bundles["cs-nondet"].model()
        good = initial_configuration(model)
        bogus = Configuration({**good.detailed, "Worker1": "Bogus"}, good.phases, 0)
        with pytest.raises(UnknownElement, match="Worker1: unknown state Bogus"):
            explore(model, bogus)

    def test_models_with_equal_forms_have_equal_layouts(self, bundles, shop_loaded):
        """`explore_space` keeps a successor's slots as the engine gives them,
        in the layout of the model object the step made, though the space
        stores the first model with its canonical form.  So at every state of
        each space, every model a step reaches has the layout tables of the
        space's model with its form."""
        models = [bundle.model() for bundle in bundles.values()] + [_model(TWO_PARTITION_ORDERS)]
        for seed in range(100):
            # with at most 3 components, seed 1 reaches one model form through
            # two model objects; no seed with the default 4 does, but twin
            # rules often do
            for model in (random_model(seed), random_model(seed, max_components=3)):
                models.append(with_random_changesets(seed, model) if seed % 2 else model)
            models.append(with_twin_rules(seed, random_model(seed)))
        compared, twins = 0, set()
        for model, config in [(m, initial_configuration(m)) for m in models] + [shop_loaded]:
            # a changeset that bumps the version on every firing has no end
            space = explore_space(model, config, Bounds(max_states=2000))
            kept = {canonical_model(m): m for m in space.models}
            for i, (model_idx, _) in enumerate(space.states):
                for _, reached, _ in successors(space.models[model_idx], space.state(i)):
                    first = kept.get(canonical_model(reached))
                    if first is None or first is reached:
                        continue  # a model past the bound, or the space's own
                    a, b = first.layout, reached.layout
                    assert (a.owners, a.names, a.index, a.checks) == (
                        b.owners, b.names, b.index, b.checks)
                    compared += 1
                    twins.add(id(model))
        assert compared > 100 and len(twins) >= 20


def first_where(space, pred, holds=True):
    """The first state, in BFS order, where `pred` holds (with `holds`
    false: fails); None when the space has none."""
    return next(space.where(partial(compile_predicate, pred), holds=holds), None)


class TestInvariant:
    def test_mutual_exclusion_holds(self, bundles):
        model = bundles["cs-roundrobin"].model()
        prop = Invariant(CountInState((("Worker1", "InCS"), ("Worker2", "InCS")), "<=", 1))
        report = explore(model, initial_configuration(model), [prop])
        assert report.verdicts == [(prop.text(), "holds")] and report.violations == []

    def test_broken_model_minimal_counterexample(self, bundles):
        # grant both workers at once: mutual exclusion falls over
        model = bundles["cs-nondet"].model()
        bad = ConsistencyRule(
            "bad", "Scheduler", Transition("Idle", "grant1", "Busy1"),
            (RoleTransfer("Worker1", "CSRole", "Free", "asking", "Crit"),
             RoleTransfer("Worker2", "CSRole", "Free", "asking", "Crit")),
        )
        rules = dict(model.rules)
        rules["bad"] = bad
        broken = StdModel(model.components, rules, model.variables, model.version)
        pred = CountInState((("Worker1", "InCS"), ("Worker2", "InCS")), "<=", 1)
        report = explore(broken, initial_configuration(broken), [Invariant(pred)])
        assert report.verdicts == [(Invariant(pred).text(), "violated")]
        [violation] = report.doc()["violations"]
        records = violation["trace"]
        # shortest: request, request, bad, enter, enter = 5 steps
        assert len(records) == 6
        space = report.space
        counterexample = space.trace_to(first_where(space, pred, holds=False))
        assert [f"{d:016x}" for _, d in counterexample.steps] == [
            r["digest"] for r in records[1:]]
        again = replay(broken, initial_configuration(broken), counterexample.labels())
        assert again.steps == counterexample.steps

    def test_violation_at_depth_one(self):
        model = _model(CYCLE3)
        prop = Invariant(InState("Spinner", "A"))
        report = explore(model, initial_configuration(model), [prop])
        assert report.verdicts == [(prop.text(), "violated")]
        [violation] = report.doc()["violations"]
        assert len(violation["trace"]) == 2

    def test_unknown_under_bound(self):
        model = _model(TWO_INDEPENDENT)
        prop = Invariant(Not(InState("P", "nowhere")))
        report = explore(model, initial_configuration(model), [prop], Bounds(max_states=2))
        assert report.verdicts == [(prop.text(), "unknown(bound)")]


class TestShortestTrace:
    def test_initial_state_gives_empty_trace(self):
        model = _model(CYCLE3)
        space = explore_space(model, initial_configuration(model))
        assert len(space.trace_to(first_where(space, InState("Spinner", "A")))) == 0

    def test_unreachable_gives_none(self):
        model = _model(CYCLE3)
        assert first_where(explore_space(model, initial_configuration(model)),
                           ModelVersionIs(9)) is None

    def test_shop_completion_script_replays(self, shop_loaded):
        model, config = shop_loaded
        from phasecoord.properties import And, InPhase

        done = And(ModelVersionIs(3),
                   And(InState("McPal", "Observing"),
                       InPhase("McPal", "Evol", "Hibernating")))
        space = explore_space(model, config)
        trace = space.trace_to(first_where(space, done))
        assert len(trace.steps) == 6
        again = replay(model, config, trace.labels())
        assert again.steps == trace.steps
        assert again.final_model_version == 3


class TestWalk:
    def test_a_walk_is_a_path_of_successor_steps(self, shop_loaded):
        model, config = shop_loaded
        space = explore_space(model, config)
        for idx in range(0, space.state_count(), 7):
            walk = space.walk(idx)
            assert walk[0] == (None, model, config)
            assert walk[-1][2] == space.state(idx)
            for (_, here, at), (label, there, after) in zip(walk, walk[1:]):
                step = next(s for s in successors(here, at) if s[0] == label)
                assert step[2] == after and canonical_model(step[1]) == canonical_model(there)
            trace = space.trace_to(idx)
            assert len(walk) == len(trace) + 1 == len(space.trace_records(idx))
            assert replay(model, config, trace.labels()) == trace


def broken_bridge_shop(bundles):
    """The shop with its migration loaded, but with a broken bridge: the
    orient step is missing, so the shrink rule's oriented trap is never
    entered; a spinner keeps the system live."""
    bundle = bundles["shop-migration"]
    model = bundle.model()
    fragment = model.variables["ShopMigr"]
    dead_bridge = Phase("Bridge", frozenset({"Idle", "At1"}), frozenset(),
                        (Trap("oriented", frozenset({"At1"})),))
    tick = Transition("s", "tick", "s")
    spinner = Std("Spinner", frozenset({"s"}), frozenset({"tick"}),
                  frozenset({tick}), "s")
    broken = replace(
        fragment,
        add_phases=tuple(
            ("Server", "Evol", dead_bridge) if ph.name == "Bridge" else (c, p, ph)
            for c, p, ph in fragment.add_phases
        ),
        add_components=fragment.add_components + (spinner,),
    )
    return load_migration(model, initial_configuration(model), broken)


# Per target version, the `cycle` lasso of the broken-bridge shop (see
# `lasso`) as (label text, digest) per step, from a lasso that sorted each
# state's edges by `successor_order` before it took the least.
BROKEN_BRIDGE_LASSOS = {
    1: [("rule McPal_kickoff", 8373985381742807460),
        ("detailed Client1: Out-browse->Out", 8373985381742807460)],
    2: [("detailed Client1: Out-browse->Out", 15551536399367846695)],
    3: [("detailed Client1: Out-browse->Out", 15551536399367846695)],
    4: [("detailed Client1: Out-browse->Out", 15551536399367846695)],
    5: [("detailed Client1: Out-browse->Out", 15551536399367846695)],
}


def lasso(space, state):
    """The steps, as (label, digest), of a lasso through `state`: the stem
    is `space.trace_to(state)`, and the loop extends it, taking each state's
    first edge (edges are grouped by source, in increasing source order),
    until a state repeats.  From a `cycle` result's state, no step leaves
    the states from which completion is unreachable, so the loop avoids
    completion."""
    steps, on_loop, at = list(space.trace_to(state).steps), {state}, state
    while True:
        _, label, at = space.edges[bisect_left(space.edge_src, at)]
        steps.append((label, config_digest(space.state(at))))
        if at in on_loop:
            return steps
        on_loop.add(at)


def successor_order(label):
    """The order of a state's steps in `successors`: detailed steps by
    (component, transition), then rule firings by rule name."""
    if isinstance(label, DetailedStep):
        return (0, label.component, label.transition)
    return (1, label.rule)


class TestTermination:
    def test_identity_migration_terminates_quickly(self, bundles):
        model = bundles["shop-migration"].model()
        config = initial_configuration(model)
        loaded, started = load_migration(model, config, ChangeSet())
        result = check_migration_termination(explore_space(loaded, started), target_version=2)
        assert result.verdict == "terminates"
        assert result.max_depth <= 5

    def test_shop_migration_terminates(self, shop_loaded):
        model, config = shop_loaded
        result = check_migration_termination(explore_space(model, config), target_version=3)
        assert result.verdict == "terminates"
        assert result.max_depth == 9

    def test_never_entered_trap_yields_cycle(self, bundles):
        loaded, started = broken_bridge_shop(bundles)
        space = explore_space(loaded, started)
        result = check_migration_termination(space, target_version=3)
        assert (result.verdict, result.target_version, result.max_depth) == ("cycle", 3, None)
        steps = lasso(space, result.state)
        assert len(steps) > 0
        again = replay(loaded, started, [label for label, _ in steps])
        assert again.steps == tuple(steps)  # the lasso replays exactly

    def test_a_lasso_extends_its_stem_over_a_longer_loop(self):
        model = _model(LOST_COORDINATOR)
        config = initial_configuration(model)
        space = explore_space(model, config)
        result = check_migration_termination(space, target_version=1)
        assert result.verdict == "cycle"
        steps = lasso(space, result.state)
        assert [label_text(label) for label, _ in steps] == [
            "detailed McPal: Observing-wander->Lost",  # the stem
            "detailed Spinner: A-x->B", "detailed Spinner: B-y->C", "detailed Spinner: C-z->A"]
        again = replay(model, config, [label for label, _ in steps])
        assert again.steps == tuple(steps)  # digest-equal, step by step
        loop = [digest for _, digest in again.steps]
        assert loop[-1] == loop[0] and len(set(loop)) == 3  # the loop closes after 3 steps
        complete = {config_digest(space.state(idx))
                    for idx in space.where(partial(completion_test, target_version=1))}
        assert complete and complete.isdisjoint(loop)

    def test_lasso_witnesses_are_pinned(self, bundles):
        space = explore_space(*broken_bridge_shop(bundles))
        for target, steps in BROKEN_BRIDGE_LASSOS.items():
            result = check_migration_termination(space, target_version=target)
            assert result.verdict == "cycle"
            assert [(label_text(label), digest)
                    for label, digest in lasso(space, result.state)] == steps

    def test_edges_are_grouped_by_source_in_successor_order(self, bundles, shop_loaded):
        # `lasso` takes a state's first edge as its least step in this order
        multi_model = edges = 0
        spaces = [explore_space(m, initial_configuration(m))
                  for m in (bundle.model() for bundle in bundles.values())]
        spaces += [explore_space(*shop_loaded), explore_space(*broken_bridge_shop(bundles))]
        for seed in range(300):
            model = random_model(seed, max_components=3)
            if seed % 2:
                model = with_random_changesets(seed, model)
            spaces.append(explore_space(model, random_initial(model), Bounds(max_states=300)))
        for space in spaces:
            multi_model += len(space.models) > 1
            edges += len(space.edges)
            sources, labels = space.edge_src, space.edge_label
            assert [src for src, _, _ in space.edges] == sources == sorted(sources)
            for src, label, nxt_src, nxt_label in zip(sources, labels, sources[1:], labels[1:]):
                assert src != nxt_src or successor_order(label) < successor_order(nxt_label)
        assert multi_model >= 10 and edges > 2500

    def test_edges_are_a_view_of_the_edge_lists_and_parents_name_first_edges(self, shop_loaded):
        space = explore_space(*shop_loaded)
        edges, triples = space.edges, list(zip(space.edge_src, space.edge_label, space.edge_dst))
        assert len(edges) == len(triples) > space.state_count() and list(edges) == triples
        assert [edges[e] for e in range(-len(edges), len(edges))] == triples * 2
        first: dict[int, int] = {}
        for edge, dst in enumerate(space.edge_dst):
            first.setdefault(dst, edge)
        assert space.parent == [None] + [first[idx] for idx in range(1, space.state_count())]

    def test_space_without_the_coordinator_raises_unknown_element(self, bundles, shop_loaded):
        # no migration to terminate: a diagnostic, not a `cycle`
        model = bundles["cs-nondet"].model()
        with pytest.raises(UnknownElement) as err:
            check_migration_termination(explore_space(model, initial_configuration(model)), 0)
        assert str(err.value) == "McPal"
        watcher = McPalSkeleton(component="Watcher")
        with pytest.raises(UnknownElement) as err:
            check_migration_termination(explore_space(*shop_loaded), 3, sk=watcher)
        assert str(err.value) == "Watcher"
        # woven under that name, the same skeleton finds its coordinator, and
        # the default one does not
        woven = weave_mcpal(model, watcher)
        loaded, started = load_migration(woven, initial_configuration(woven), ChangeSet(), watcher)
        space = explore_space(loaded, started)
        assert check_migration_termination(space, 2, sk=watcher).verdict == "terminates"
        with pytest.raises(UnknownElement):
            check_migration_termination(space, 2)

    def test_stuck_when_deadlock_precedes_completion(self):
        text = """
component Loner {
  states: S, T;
  initial: S;
  transitions:
    S - go -> T;
}
component McPal {
  states: Observing;
  initial: Observing;
  transitions:
    ;
}
"""
        # hand-built: no way to bump the version, deadlock at T
        result = parse_model(text.replace("transitions:\n    ;", "transitions:"))
        assert result.ok
        model = result.model
        space = explore_space(model, initial_configuration(model))
        out = check_migration_termination(
            space, target_version=1,
            sk=McPalSkeleton(evolution_role="none", hibernating_phase="none"),
        )
        assert out.verdict == "stuck"
        assert out.state in space.deadlocks


class TestProgress:
    def test_free_running_component_k1(self):
        model = _model(CYCLE3)
        result = check_progress(explore_space(model, initial_configuration(model)), "Spinner", k=1)
        assert result.verdict == "satisfied"

    def test_claimed_by_never_enabled_rule_starves_at_initial(self):
        go = Transition("A", "go", "B")
        ph = Phase("P", frozenset({"A", "B"}), frozenset({go}),
                   (Trap("done", frozenset({"B"})),))
        comp = Std("X", frozenset({"A", "B"}), frozenset({"go"}), frozenset({go}), "A",
                   (Partition("r", (ph,), "P"),))
        never = ConsistencyRule("never", "X", go,
                                (RoleTransfer("X", "r", "P", "done", "P"),))
        model = StdModel({"X": comp}, {"never": never}, {}, 0)
        config = initial_configuration(model)
        space = explore_space(model, config)
        for k in (1, 4, 32):
            result = check_progress(space, "X", k=k)
            assert (result.verdict, result.component, result.k) == ("starved", "X", k)
            assert space.state(result.state) == config  # starved already at the initial state
        assert minimal_progress_bound(space, "X") is None

    def test_minimal_bound_refuses_a_truncated_space(self, shop_loaded, bundles):
        # no bound is provable on a cut space, and None would claim starvation
        model, config = shop_loaded
        cut = explore_space(model, config, Bounds(max_states=60))
        for comp in sorted(model.components):
            with pytest.raises(ValueError, match="max_states"):
                minimal_progress_bound(cut, comp)
        cs = bundles["cs-nondet"].model()
        shallow = explore_space(cs, initial_configuration(cs), Bounds(max_depth=5))
        for comp in sorted(cs.components):
            with pytest.raises(ValueError, match="max_depth"):
                minimal_progress_bound(shallow, comp)

    def test_unknown_component_raises(self, bundles):
        # an absent component has no move, so a verdict would be starvation
        # without evidence; a cut space says so too, before its bound does
        model = bundles["cs-nondet"].model()
        for bounds in (Bounds(), Bounds(max_states=5)):
            space = explore_space(model, initial_configuration(model), bounds)
            for query in (lambda: check_progress(space, "Nobody", 5),
                          lambda: minimal_progress_bound(space, "Nobody")):
                with pytest.raises(UnknownElement, match="Nobody"):
                    query()

    def test_shop_components_all_progress(self, shop_loaded):
        model, config = shop_loaded
        space = explore_space(model, config)
        ks = {comp: minimal_progress_bound(space, comp)
              for comp in sorted(model.components)}
        assert ks == {"Client1": 8, "Client2": 13, "McPal": 4, "Server": 3}
        for comp, k in ks.items():
            assert check_progress(space, comp, k).verdict == "satisfied"
            if k > 1:
                assert check_progress(space, comp, k - 1).verdict == "starved"

    def test_client2_is_starved_within_five_steps(self, shop_loaded):
        model, config = shop_loaded
        space = explore_space(model, config)
        assert check_progress(space, "Client2", 5).verdict == "starved"


class TestReportJson:
    def test_schema_and_determinism(self, bundles):
        model = bundles["prodcons"].model()
        report = explore(model, initial_configuration(model),
                         bundles["prodcons"].properties())
        doc = report.doc()
        assert set(doc) == {"statesVisited", "transitionsVisited", "modelVersionsSeen",
                            "violations", "deadlocks", "properties", "bounds"}
        assert doc["statesVisited"] == 8
        assert doc["bounds"]["maxStatesHit"] is False
        assert all(v["verdict"] in ("holds", "satisfied") for v in doc["properties"])

    def test_violation_trace_in_report(self):
        model = _model(CYCLE3)
        prop = parse_one_property("invariant inState(Spinner, A)")
        report = explore(model, initial_configuration(model), [prop])
        [violation] = report.doc()["violations"]
        assert "inState(Spinner, A)" in violation["property"]
        assert violation["trace"][-1]["componentStates"] == {"Spinner": "B"}

    def test_eventually_all_violated_without_witness_path(self):
        text = """
component Fork {
  states: S, L, R;
  initial: S;
  transitions:
    S - a -> L;
    S - b -> R;
    L - c -> L;
    R - d -> R;
}
"""
        model = _model(text)
        prop = parse_one_property("eventuallyAll inState(Fork, L) bound 5")
        report = explore(model, initial_configuration(model), [prop])
        assert dict(report.verdicts)[prop.text()] == "violated"
        prop2 = parse_one_property("eventuallyAll inState(Fork, S) bound 3")
        report2 = explore(model, initial_configuration(model), [prop2])
        assert dict(report2.verdicts)[prop2.text()] == "violated"  # S unreachable from L/R


GOLDEN_CONSUMER_PHASES = '''digraph "Consumer_phases" {
  rankdir=LR;
  compound=true;
  subgraph cluster_0 {
    label="Supply.Ask";
    "Supply.Ask.Empty" [label="Empty\\n[ready]"];
  }
  subgraph cluster_1 {
    label="Supply.Digest";
    "Supply.Digest.Empty" [label="Empty\\n[rested]"];
    "Supply.Digest.Holding" [label="Holding"];
  }
  subgraph cluster_2 {
    label="Supply.Take";
    "Supply.Take.Empty" [label="Empty"];
    "Supply.Take.Holding" [label="Holding"];
    "Supply.Take.Empty" -> "Supply.Take.Holding" [label="grab"];
    "Supply.Take.Holding" -> "Supply.Take.Empty" [label="consume"];
  }
}
'''


def test_dot_exports(bundles):
    from phasecoord.dot import TooManyNodes, phases_dot, statespace_dot, std_dot

    model = bundles["prodcons"].model()
    dot = std_dot(model.components["Producer"])
    assert dot.count("->") == 2 and "doublecircle" in dot
    phases = phases_dot(model.components["Consumer"])
    assert phases == GOLDEN_CONSUMER_PHASES
    space = explore_space(model, initial_configuration(model))
    assert "digraph statespace" in statespace_dot(space)
    try:
        statespace_dot(space, threshold=3)
        raise AssertionError("threshold not enforced")
    except TooManyNodes as exc:
        assert exc.count == 8

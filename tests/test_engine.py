"""Step semantics: enabledness, trap entry, rule firing, runs, traces."""

import copy
import gc
import json
import pickle
import random
import re
import weakref
from pathlib import Path

import pytest

from phasecoord import engine
from phasecoord.changeset import ChangeSet
from phasecoord.engine import (
    DetailedStep,
    EngineError,
    ModelRejected,
    NotEnabled,
    RandomPolicy,
    ReplayDivergence,
    RuleStep,
    Trace,
    UnknownElement,
    config_digest,
    drive,
    enabled_detailed,
    enabled_rules,
    export_trace_jsonl,
    fire_rule,
    label_from_json,
    parse_trace,
    parse_trace_labels,
    replay,
    rule_blocker,
    run,
    successors,
    write_trace_jsonl,
)
from phasecoord.explorer import Bounds, explore, explore_space
from phasecoord.model import (
    TRIV,
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
    validate_configuration,
    validate_model,
)

from tests.genmodels import random_initial, random_model, with_random_changesets
from tests.oracle import naive_digest, naive_entered_traps

GOLDEN = Path(__file__).resolve().parent / "golden"


def T(s, a, t):
    return Transition(s, a, t)


def one_role_model(claimed=False):
    """Single component, one partition, one outgoing transition."""
    go = T("A", "go", "B")
    ph = Phase("P", frozenset({"A", "B"}), frozenset({go}), (Trap("done", frozenset({"B"})),))
    comp = Std("X", frozenset({"A", "B"}), frozenset({"go"}), frozenset({go}), "A",
               (Partition("r", (ph,), "P"),))
    rules = {}
    if claimed:
        rules["claimer"] = ConsistencyRule(
            "claimer", "X", go,
            (RoleTransfer("X", "r", "P", "done", "P"),),
        )
    return StdModel({"X": comp}, rules, {}, 0)


class TestEnabledDetailed:
    def test_sole_transition_enabled(self):
        model = one_role_model()
        config = initial_configuration(model)
        assert enabled_detailed(model, config, "X") == {T("A", "go", "B")}

    def test_intersection_semantics(self):
        # second partition whose current phase lacks the transition
        go = T("A", "go", "B")
        ph_full = Phase("P", frozenset({"A", "B"}), frozenset({go}))
        ph_empty = Phase("Q", frozenset({"A", "B"}), frozenset())
        comp = Std("X", frozenset({"A", "B"}), frozenset({"go"}), frozenset({go}), "A",
                   (Partition("r1", (ph_full,), "P"), Partition("r2", (ph_empty,), "Q")))
        model = StdModel({"X": comp}, {}, {}, 0)
        config = initial_configuration(model)
        assert enabled_detailed(model, config, "X") == set()

    def test_claimed_step_excluded(self):
        # the claiming rule guards on a trap its own step can never reach
        # while enabled, so the component is fully silenced in strict mode
        model = one_role_model(claimed=True)
        config = initial_configuration(model)
        assert enabled_detailed(model, config, "X") == set()
        assert [r.name for r in enabled_rules(model, config)] == []  # trap not entered at A
        at_b = Configuration({"X": "B"}, {("X", "r"): "P"}, 0)
        assert [r.name for r in enabled_rules(model, at_b)] == []  # manager no longer at A

    def test_unknown_component(self):
        model = one_role_model()
        with pytest.raises(Exception):
            enabled_detailed(model, initial_configuration(model), "nope")


class TestEnteredTraps:
    """The oracle's trap membership, which the walk suites below read."""

    def test_state_in_named_trap(self):
        model = one_role_model()
        config = Configuration({"X": "B"}, {("X", "r"): "P"}, 0)
        assert naive_entered_traps(model, config, "X", "r") == {TRIV, "done"}

    def test_state_outside_named_trap(self):
        model = one_role_model()
        config = initial_configuration(model)
        assert naive_entered_traps(model, config, "X", "r") == {TRIV}

    def test_nested_traps_both_entered(self):
        go = T("A", "go", "B")
        stay = T("B", "stay", "C")
        ph = Phase(
            "P", frozenset({"A", "B", "C"}), frozenset({go, stay}),
            (Trap("t2", frozenset({"B", "C"})), Trap("t1", frozenset({"C"}))),
        )
        comp = Std("X", frozenset({"A", "B", "C"}), frozenset({"go", "stay"}),
                   frozenset({go, stay}), "A", (Partition("r", (ph,), "P"),))
        model = StdModel({"X": comp}, {}, {}, 0)
        assert validate_model(model) == []
        config = Configuration({"X": "C"}, {("X", "r"): "P"}, 0)
        assert naive_entered_traps(model, config, "X", "r") == {TRIV, "t1", "t2"}


def scheduler_worker_model():
    """Tiny manager/employee pair for rule-firing tests."""
    ask = T("OutCS", "request", "Waiting")
    enter = T("Waiting", "enter", "InCS")
    leave = T("InCS", "exit", "OutCS")
    free = Phase("Free", frozenset({"OutCS", "Waiting"}), frozenset({ask}),
                 (Trap("asking", frozenset({"Waiting"})),))
    crit = Phase("Crit", frozenset({"OutCS", "Waiting", "InCS"}), frozenset({enter, leave}),
                 (Trap("done", frozenset({"OutCS"})),))
    worker = Std("W", frozenset({"OutCS", "Waiting", "InCS"}),
                 frozenset({"request", "enter", "exit"}), frozenset({ask, enter, leave}),
                 "OutCS", (Partition("cs", (free, crit), "Free"),))
    grant = T("Idle", "grant", "Busy")
    reclaim = T("Busy", "reclaim", "Idle")
    sched = Std("S", frozenset({"Idle", "Busy"}), frozenset({"grant", "reclaim"}),
                frozenset({grant, reclaim}), "Idle")
    rules = {
        "admit": ConsistencyRule("admit", "S", grant,
                                 (RoleTransfer("W", "cs", "Free", "asking", "Crit"),)),
        "release": ConsistencyRule("release", "S", reclaim,
                                   (RoleTransfer("W", "cs", "Crit", "done", "Free"),)),
    }
    model = StdModel({"W": worker, "S": sched}, rules, {}, 0)
    assert validate_model(model) == []
    return model


class TestRules:
    def test_rule_enabled_when_trap_entered(self):
        model = scheduler_worker_model()
        config = Configuration({"W": "Waiting", "S": "Idle"},
                               {("W", "cs"): "Free"}, 0)
        assert [r.name for r in enabled_rules(model, config)] == ["admit"]

    def test_rule_disabled_after_transfer(self):
        model = scheduler_worker_model()
        config = Configuration({"W": "Waiting", "S": "Busy"},
                               {("W", "cs"): "Crit"}, 0)
        assert [r.name for r in enabled_rules(model, config)] == []

    def test_fire_rule_updates_phase_and_manager(self):
        model = scheduler_worker_model()
        config = Configuration({"W": "Waiting", "S": "Idle"}, {("W", "cs"): "Free"}, 0)
        new_model, out = fire_rule(model, config, model.rules["admit"])
        assert new_model is model  # no changeset, same model value
        assert out.detailed["S"] == "Busy"
        assert out.phases[("W", "cs")] == "Crit"
        assert out.detailed["W"] == "Waiting"  # employee's detailed state untouched
        assert validate_configuration(new_model, out) == []

    def test_blocker_reasons_come_in_guard_order(self):
        # each rule, the one rule of its model, fails where named first,
        # though most fail later tests too
        model = scheduler_worker_model()
        admit = model.rules["admit"]
        outside = ConsistencyRule("r", "W", T("Waiting", "enter", "InCS"))
        removes_crit = replace(admit, change=ChangeSet(remove_phases=(("W", "cs", "Crit"),)))
        cases = [
            ({"W": "InCS", "S": "Busy"}, "Crit", admit, "manager not at the step's source"),
            ({"W": "Waiting", "S": "Idle"}, "Free", outside,
             "manager step outside a current phase"),
            ({"W": "InCS", "S": "Idle"}, "Crit", admit, "W(cs) not in phase Free"),
            ({"W": "OutCS", "S": "Idle"}, "Free", admit, "trap asking of W(cs) not entered"),
            ({"W": "Waiting", "S": "Idle"}, "Free", removes_crit,
             "changeset rejected: live-phase-removal: W cs.Crit"),
            ({"W": "Waiting", "S": "Idle"}, "Free", admit, None),
        ]
        for detailed, phase, rule, reason in cases:
            held = StdModel(model.components, {rule.name: rule}, {}, 0)
            assert validate_model(held) == []
            config = Configuration(detailed, {("W", "cs"): phase}, 0)
            assert rule_blocker(held, config, rule) == reason, rule

    def test_a_rule_the_model_does_not_hold_is_refused(self):
        model = scheduler_worker_model()
        config = Configuration({"W": "Waiting", "S": "Idle"}, {("W", "cs"): "Free"}, 0)
        admit = model.rules["admit"]
        for rule in (ConsistencyRule("r", "W", T("Waiting", "enter", "InCS")),
                     replace(admit, transfers=()), replace(admit, name="admit2")):
            for entry in (rule_blocker, fire_rule):
                with pytest.raises(UnknownElement, match=f"rule {rule.name} is not the model's"):
                    entry(model, config, rule)
        # an equal rule object is the model's own
        assert rule_blocker(model, config, replace(admit)) is None

    def test_fire_not_enabled(self):
        model = scheduler_worker_model()
        config = initial_configuration(model)
        with pytest.raises(NotEnabled):
            fire_rule(model, config, model.rules["admit"])

    def test_rule_with_changeset_bumps_version(self):
        model = scheduler_worker_model()
        grow = ChangeSet(set_variables=(("note", 1),))
        rules = dict(model.rules)
        rules["admit"] = ConsistencyRule(
            "admit", "S", T("Idle", "grant", "Busy"),
            (RoleTransfer("W", "cs", "Free", "asking", "Crit"),),
            change=grow,
        )
        model2 = StdModel(model.components, rules, {}, 0)
        config = Configuration({"W": "Waiting", "S": "Idle"}, {("W", "cs"): "Free"}, 0)
        new_model, out = fire_rule(model2, config, rules["admit"])
        assert new_model.version == 1 and out.model_version == 1
        assert new_model.variables["note"] == 1
        # new rule set visible immediately
        assert "admit" in new_model.rules

    def test_self_transfer_updates_both_atomically(self):
        # manager transfers its own role while stepping
        go = T("A", "go", "B")
        back = T("B", "back", "A")
        p1 = Phase("P1", frozenset({"A", "B"}), frozenset({go}))
        p2 = Phase("P2", frozenset({"A", "B"}), frozenset({back}))
        comp = Std("M", frozenset({"A", "B"}), frozenset({"go", "back"}),
                   frozenset({go, back}), "A", (Partition("evol", (p1, p2), "P1"),))
        rule = ConsistencyRule("swap", "M", go,
                               (RoleTransfer("M", "evol", "P1", TRIV, "P2"),))
        model = StdModel({"M": comp}, {"swap": rule}, {}, 0)
        assert validate_model(model) == []
        config = initial_configuration(model)
        _, out = fire_rule(model, config, rule)
        assert out.detailed["M"] == "B"
        assert out.phases[("M", "evol")] == "P2"
        assert validate_configuration(model, out) == []

    def test_rule_that_breaks_consistency_is_refused(self):
        # a transfer whose trap does not connect into its target phase would
        # strand the worker outside it, and a manager step whose target
        # leaves the manager's own phase would strand the manager: the
        # engine refuses both models, which `validate_model` rejects
        broken, config, bad = trap_not_connecting(None)
        assert issubclass(ModelRejected, EngineError)
        message = r"model rejected: trap-not-connecting: bad triv \(Crit->Free\)"
        with pytest.raises(ModelRejected, match=message):
            fire_rule(broken, config, bad)
        with pytest.raises(ModelRejected, match=message):
            successors(broken, config)
        model = scheduler_worker_model()
        grant = T("Idle", "grant", "Busy")
        sched = model.components["S"]
        role = Partition("mode", (Phase("Up", frozenset({"Idle"}), frozenset({grant})),
                                  Phase("Down", frozenset({"Busy"}), frozenset())), "Up")
        loose = StdModel({**model.components, "S": replace(sched, partitions=(role,))},
                         {"admit": model.rules["admit"]}, {}, 0)
        config = Configuration({"W": "Waiting", "S": "Idle"},
                               {("W", "cs"): "Free", ("S", "mode"): "Up"}, 0)
        with pytest.raises(ModelRejected, match=r"model rejected: phase-transition-outside-phase: "
                                                r"S\.mode\.Up \(Idle,grant,Busy\)"):
            fire_rule(loose, config, loose.rules["admit"])

    def test_rule_is_not_blamed_for_a_role_it_does_not_write(self, bundles):
        # Worker1 already breaks its phase; admit2 writes only the
        # scheduler's and Worker2's slots, so it fires
        model = bundles["cs-nondet"].model()
        config = Configuration(
            {"Scheduler": "Idle", "Worker1": "InCS", "Worker2": "Waiting"},
            {("Worker1", "CSRole"): "Free", ("Worker2", "CSRole"): "Free"}, 0)
        assert validate_configuration(model, config) != []
        _, out = fire_rule(model, config, model.rules["admit2"])
        assert out.phases[("Worker2", "CSRole")] == "Crit"
        assert [label.rule for label, _, _ in successors(model, config)
                if isinstance(label, RuleStep)] == ["admit2"]

    def test_rejected_changeset_disables_rule(self):
        # clause that would remove the phase the worker is being moved into
        model = scheduler_worker_model()
        bad = ChangeSet(remove_phases=(("W", "cs", "Crit"),))
        rules = dict(model.rules)
        rules["admit"] = ConsistencyRule(
            "admit", "S", T("Idle", "grant", "Busy"),
            (RoleTransfer("W", "cs", "Free", "asking", "Crit"),),
            change=bad,
        )
        model2 = StdModel(model.components, rules, {}, 0)
        config = Configuration({"W": "Waiting", "S": "Idle"}, {("W", "cs"): "Free"}, 0)
        assert [r.name for r in enabled_rules(model2, config)] == []
        reason = rule_blocker(model2, config, rules["admit"])
        assert reason is not None and "changeset rejected" in reason


def trap_not_connecting(bundles):
    """`scheduler_worker_model` whose one rule takes the worker from Crit
    to Free by a trap that does not connect into Free: (model, a
    configuration that fits its layout, the rule)."""
    model = scheduler_worker_model()
    bad = ConsistencyRule("bad", "S", T("Idle", "grant", "Busy"),
                          (RoleTransfer("W", "cs", "Crit", TRIV, "Free"),))
    config = Configuration({"W": "InCS", "S": "Idle"}, {("W", "cs"): "Crit"}, 0)
    return StdModel(model.components, {"bad": bad}, {}, 0), config, bad


def duplicate_partition(bundles):
    """cs-nondet with a second Worker1 partition named CSRole, which holds
    no phase: (model, its initial configuration, rule admit1)."""
    model = bundles["cs-nondet"].model()
    worker = model.components["Worker1"]
    doubled = replace(worker, partitions=(*worker.partitions, Partition("CSRole", (), "Free")))
    doubled = StdModel({**model.components, "Worker1": doubled}, model.rules, model.variables, 0)
    return doubled, initial_configuration(model), model.rules["admit1"]


def bad_version(bundles):
    """`scheduler_worker_model` whose version is True: (model, its
    configuration at version 0, rule admit)."""
    model = scheduler_worker_model()
    config = Configuration({"W": "Waiting", "S": "Idle"}, {("W", "cs"): "Free"}, 0)
    return replace(model, version=True), config, model.rules["admit"]


REFUSING_ENTRIES = {
    "successors": lambda m, c, r: successors(m, c),
    "enabled_detailed": lambda m, c, r: enabled_detailed(m, c, r.manager),
    "enabled_rules": lambda m, c, r: enabled_rules(m, c),
    "rule_blocker": lambda m, c, r: rule_blocker(m, c, r),
    "fire_rule": lambda m, c, r: fire_rule(m, c, r),
    "run": lambda m, c, r: run(m, c, RandomPolicy(0), 5),
    "replay": lambda m, c, r: replay(m, c, [DetailedStep(r.manager, r.manager_step)]),
    "export_trace_jsonl": lambda m, c, r: export_trace_jsonl(m, Trace(c, (), 0)),
    "explore": lambda m, c, r: explore(m, c),
    "explore_space": lambda m, c, r: explore_space(m, c),
    "explore_space-depth-0": lambda m, c, r: explore_space(m, c, Bounds(max_depth=0)),
}


@pytest.mark.parametrize("entry", list(REFUSING_ENTRIES))
@pytest.mark.parametrize("build", [trap_not_connecting, duplicate_partition, bad_version],
                         ids=["trap-not-connecting", "duplicate-partition", "bad-version"])
def test_every_entry_refuses_a_rejected_model(bundles, build, entry):
    model, config, rule = build(bundles)
    diagnostics = validate_model(model)
    assert diagnostics[0].code == build.__name__.replace("_", "-")
    with pytest.raises(ModelRejected, match=re.escape(f"model rejected: {diagnostics[0]}")) as exc:
        REFUSING_ENTRIES[entry](model, config, rule)
    assert list(exc.value.diagnostics) == diagnostics


def free_step(model, config, component, transition):
    """The configuration after the component's free step along `transition`,
    picked out of `successors` by its `DetailedStep` label; None when that
    step is not enabled."""
    label = DetailedStep(component, transition)
    return next((after for step, _, after in successors(model, config) if step == label), None)


class TestFreeStep:
    def test_step(self):
        model = one_role_model()
        config = initial_configuration(model)
        out = free_step(model, config, "X", T("A", "go", "B"))
        assert out.detailed["X"] == "B"
        assert out.phases == config.phases

    def test_self_loop_preserves_configuration(self):
        tick = T("A", "tick", "A")
        ph = Phase("P", frozenset({"A"}), frozenset({tick}))
        comp = Std("X", frozenset({"A"}), frozenset({"tick"}), frozenset({tick}), "A",
                   (Partition("r", (ph,), "P"),))
        model = StdModel({"X": comp}, {}, {}, 0)
        config = initial_configuration(model)
        out = free_step(model, config, "X", tick)
        assert out.key() == config.key()

    def test_step_that_breaks_consistency_is_refused(self):
        # a phase transition leaving the phase would take the component out
        # of its phase: `validate_model` rejects the model, so neither the
        # step nor the exploration runs
        go = T("A", "go", "B")
        comp = Std("X", frozenset({"A", "B"}), frozenset({"go"}), frozenset({go}), "A",
                   (Partition("r", (Phase("P", frozenset({"A"}), frozenset({go})),
                                    Phase("Q", frozenset({"B"}), frozenset())), "P"),))
        model = StdModel({"X": comp}, {}, {}, 0)
        message = r"model rejected: phase-transition-outside-phase: X\.r\.P \(A,go,B\)"
        for entry in (successors, explore):
            with pytest.raises(ModelRejected, match=message):
                entry(model, initial_configuration(model))

    def test_step_is_not_blamed_for_another_component(self, bundles):
        model = bundles["cs-nondet"].model()
        config = Configuration(
            {"Scheduler": "Idle", "Worker1": "InCS", "Worker2": "OutCS"},
            {("Worker1", "CSRole"): "Free", ("Worker2", "CSRole"): "Free"}, 0)
        out = free_step(model, config, "Worker2", T("OutCS", "request", "Waiting"))
        assert out.detailed["Worker2"] == "Waiting"

    def test_disabled_transition_is_not_a_successor(self):
        model = one_role_model()
        config = Configuration({"X": "B"}, {("X", "r"): "P"}, 0)
        assert free_step(model, config, "X", T("A", "go", "B")) is None
        with pytest.raises(ReplayDivergence):
            replay(model, config, [DetailedStep("X", T("A", "go", "B"))])


class TestSuccessors:
    def test_counts_and_order(self):
        model = scheduler_worker_model()
        config = Configuration({"W": "Waiting", "S": "Idle"}, {("W", "cs"): "Free"}, 0)
        succ = successors(model, config)
        # no detailed steps (W waits, S's steps are claimed), one rule
        assert [s[0] for s in succ] == [
            RuleStep("admit", "S", T("Idle", "grant", "Busy"),
                     (RoleTransfer("W", "cs", "Free", "asking", "Crit"),), False)
        ]

    def test_deadlock_empty(self):
        comp = Std("X", frozenset({"A"}), frozenset(), frozenset(), "A")
        model = StdModel({"X": comp}, {}, {}, 0)
        assert successors(model, initial_configuration(model)) == []

    def test_deterministic_order(self):
        for seed in range(50):
            model = random_model(seed)
            config = random_initial(model)
            a = [s[0] for s in successors(model, config)]
            b = [s[0] for s in successors(model, config)]
            assert a == b


class TestRun:
    def test_zero_steps_empty_trace(self):
        model = scheduler_worker_model()
        trace = run(model, initial_configuration(model), RandomPolicy(42), max_steps=0)
        assert len(trace) == 0
        assert trace.final_model_version == 0

    def test_same_seed_same_trace(self):
        model = scheduler_worker_model()
        config = initial_configuration(model)
        t1 = run(model, config, RandomPolicy(7), max_steps=60)
        t2 = run(model, config, RandomPolicy(7), max_steps=60)
        assert t1 == t2

    def test_scripted_replay_and_divergence(self):
        model = scheduler_worker_model()
        config = initial_configuration(model)
        trace = run(model, config, RandomPolicy(3), max_steps=40)
        again = replay(model, config, trace.labels())
        assert again.steps == trace.steps
        bogus = [DetailedStep("W", T("InCS", "exit", "OutCS"))] + list(trace.labels())
        with pytest.raises(ReplayDivergence) as err:
            replay(model, config, bogus)
        assert err.value.index == 0

    def test_replay_past_deadlock_diverges(self):
        model = one_role_model()
        config = initial_configuration(model)
        go = DetailedStep("X", T("A", "go", "B"))
        deadlocked = Configuration({"X": "B"}, {("X", "r"): "P"}, 0)
        assert successors(model, deadlocked) == []
        assert replay(model, config, [go]).steps == ((go, config_digest(deadlocked)),)
        with pytest.raises(ReplayDivergence) as err:
            replay(model, config, [go, go])
        assert err.value.index == 1

    def test_replay_and_export_after_run_expand_no_state_again(self, count_calls, shop_loaded):
        """`run` filled its models' step tables at every state its walk met;
        the export and the replay of its labels look each label up there, so
        neither calls `successors`."""
        model, config = shop_loaded
        trace = run(model, config, RandomPolicy(5), max_steps=80)
        assert any(isinstance(label, RuleStep) and label.changed for label in trace.labels())
        calls = count_calls(engine, "successors")
        text = export_trace_jsonl(model, trace)
        assert replay(model, config, trace.labels()) == trace
        assert len(text.splitlines()) == len(trace) + 1  # the initial record, then one per step
        assert calls == []
        assert parse_trace_labels(text) == trace.labels()

    def test_trace_jsonl_round_trip(self):
        model = scheduler_worker_model()
        config = initial_configuration(model)
        trace = run(model, config, RandomPolicy(9), max_steps=30)
        text = export_trace_jsonl(model, trace)
        lines = text.strip().splitlines()
        assert len(lines) == len(trace.steps) + 1  # header line for the initial state
        labels = parse_trace_labels(text)
        assert labels == list(trace.labels())
        assert replay(model, config, labels).steps == trace.steps

    def test_export_checks_every_digest(self):
        model = scheduler_worker_model()
        trace = run(model, initial_configuration(model), RandomPolicy(9), max_steps=30)
        steps = list(trace.steps)
        label, digest = steps[5]
        steps[5] = (label, digest ^ 1)
        with pytest.raises(ReplayDivergence) as err:
            export_trace_jsonl(model, Trace(trace.initial, tuple(steps), trace.final_model_version))
        assert err.value.index == 5


_HEADER = '{"index": 0, "label": null}'
_RECORD = ('{"index": 1, "label": {"type": "detailed", "component": "X", '
           '"transition": ["A", "go", "B"]}, "digest": "0000000000000001"}')


def stepped_from(model, config, taken):
    """The (model object id, slots) of each state a walk from `config` took
    its steps `taken` from."""
    states = [(model, config), *[(m, c) for _, m, c in taken[:-1]]]
    return {(id(m), c.slots_in(m.layout)) for m, c in states}


def expanded(calls):
    """The (model object id, slots) of each `successors` call, checked to be
    distinct."""
    states = [(id(m), c.slots_in(m.layout)) for m, c in calls]
    assert len(set(states)) == len(states)
    return set(states)


class TestStepTable:
    """Each model object's step core keeps a table from slots to that
    state's steps (`_StepCore.steps`), filled by one `successors` call the
    first time a walk, a replay or an export meets the state: `drive`
    chooses among them, and a replay or an export looks each recorded label
    up there."""

    def test_a_walk_its_export_and_its_replay_expand_each_state_once(
            self, load_shop, count_calls):
        model, config = load_shop()
        calls = count_calls(engine, "successors")
        trace = run(model, config, RandomPolicy(5), max_steps=300)
        text = export_trace_jsonl(model, trace)
        assert replay(model, config, trace.labels()) == trace
        taken = list(drive(model, config, RandomPolicy(5), 300))  # the walk `run` took
        assert len(trace) == len(taken) == 300
        states = stepped_from(model, config, taken)
        assert expanded(calls) == states and len(states) < 150  # states are met again
        # no entry holds the model whose table holds it
        for m in {id(m): m for m in [model, *(m for _, m, _ in taken)]}.values():
            entries = engine._core(m).table.values()
            assert entries and all(after is not m for *_, afters in entries for after, _ in afters)

        # a replay of the parsed labels on new model objects expands each
        # state it steps from once; an export of the parsed steps right
        # afterwards, and the walk they record, find every state in its table
        calls.clear()
        model, config = load_shop()
        assert replay(model, config, parse_trace_labels(text)).steps == trace.steps
        replayed = expanded(calls)
        calls.clear()
        lines = []
        write_trace_jsonl(model, config, parse_trace(text)[1], lines.append)
        assert "".join(lines) == text
        taken = list(drive(model, config, RandomPolicy(5), 300))
        assert calls == []
        assert replayed and replayed == stepped_from(model, config, taken)

    def test_a_walked_model_is_freed_without_the_collector(self, load_shop):
        """A table keeps the model after a step only when a changeset made
        it, never the model that holds the table, so no walk makes a
        reference cycle through a model."""

        def walk():
            model, config = load_shop()
            taken = list(drive(model, config, RandomPolicy(5), 300))
            trace = run(model, config, RandomPolicy(5), 300)
            text = export_trace_jsonl(model, trace)
            assert replay(model, config, parse_trace_labels(text)) == trace
            models = {id(m): m for m in [model, *(m for _, m, _ in taken)]}
            return [weakref.ref(m) for m in models.values()]

        gc.collect()
        gc.disable()
        try:
            refs = walk()
            assert len(refs) == 3  # versions 1-3 of the loaded migration
            assert [ref() for ref in refs] == [None] * 3
        finally:
            gc.enable()

    def test_no_table_holds_more_than_the_cap(self, load_shop, bundles, monkeypatch):
        monkeypatch.setattr(engine, "STEP_TABLE_CAP", 3)
        cs_nondet = bundles["cs-nondet"].model()
        for model, config in (load_shop(), (cs_nondet, initial_configuration(cs_nondet))):
            models = {id(model): model}

            def largest():
                return max(len(engine._core(m).table) for m in models.values())

            sizes = []
            steps = []
            for label, m, c in drive(model, config, RandomPolicy(5), 300):
                models[id(m)] = m
                steps.append((label, config_digest(c)))
                sizes.append(largest())
            write_trace_jsonl(model, config, steps, lambda line: sizes.append(largest()))
            replay(model, config, [label for label, _ in steps])
            sizes.append(largest())
            assert max(sizes) == 3


def _altered(value):
    """Another value of a label field: a name with a letter added, a
    transition with one name altered, the transfers with one altered or
    dropped, the other boolean."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, str):
        return [value + "x"]
    if isinstance(value, Transition):
        return [value._replace(**{name: getattr(value, name) + "x"}) for name in value._fields]
    first, *rest = value  # the transfers
    return [(replace(first, trap=first.trap + "x"), *rest), tuple(rest)]


class TestLabelKeys:
    """Labels compare, and a replay finds them, by their keys: every field
    of each label class takes part."""

    @pytest.fixture(scope="class")
    def at_steps(self, shop_loaded):
        """(model, configuration, label) of the first detailed step and the
        first rule firing with a transfer on a walk of the loaded shop."""
        model, config = shop_loaded
        found = {}
        for label, after_model, after in drive(model, config, RandomPolicy(5), 300):
            if isinstance(label, DetailedStep) or label.transfers:
                found.setdefault(type(label), (model, config, label))
            model, config = after_model, after
        return found

    @pytest.mark.parametrize("kind", [DetailedStep, RuleStep])
    def test_labels_that_differ_in_one_field_differ_and_do_not_replay(self, at_steps, kind):
        model, config, label = at_steps[kind]
        assert replay(model, config, [label]).steps[0][0] is label
        altered = 0
        for field in label._fields:
            for value in _altered(getattr(label, field)):
                other = replace(label, **{field: value})
                assert other != label and not other == label, field
                assert other.key != label.key, field
                with pytest.raises(ReplayDivergence):
                    replay(model, config, [other])
                altered += 1
        assert altered == {DetailedStep: 4, RuleStep: 8}[kind]

    def test_a_detailed_step_never_equals_a_rule_step(self, at_steps):
        detailed, rule = at_steps[DetailedStep][2], at_steps[RuleStep][2]
        for a, b in ((detailed, rule), (DetailedStep(rule.rule, rule.manager_step),
                                        replace(rule, transfers=()))):
            assert a != b and b != a and not a == b
            assert {a: 0}.get(b) is None

    @pytest.mark.parametrize("kind", [DetailedStep, RuleStep])
    def test_copies_are_equal_labels_with_equal_hashes(self, at_steps, kind):
        label = at_steps[kind][2]
        for copied in (pickle.loads(pickle.dumps(label)), copy.copy(label), replace(label)):
            assert copied is not label and copied.key is not label.key
            assert copied == label and copied.key == label.key
            assert hash(copied) == hash(label) and repr(copied) == repr(label)


def _rule_record(changed: str) -> str:
    return ('{"label": {"type": "rule", "rule": "x", "manager": "X", "managerStep": ["A", "go", "B"], '
            f'"transfers": [], "changeSet": {changed}}}, "digest": "0000000000000001"}}')


class TestParseTrace:
    @pytest.mark.parametrize("line, error", [
        (_RECORD + " x", "JSONDecodeError('Extra data: line 1 column 125 (char 124)')"),
        (_RECORD + _RECORD, "JSONDecodeError('Extra data: line 1 column 124 (char 123)')"),
        ("\ufeff" + _RECORD,
         "JSONDecodeError('Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)')"),
        (_RECORD[:-1], "JSONDecodeError(\"Expecting ',' delimiter: line 1 column 123 (char 122)\")"),
    ], ids=["trailing-data", "two-records", "utf8-bom", "unterminated-object"])
    def test_a_line_that_is_not_one_json_value_gives_the_json_loads_error(self, line, error):
        with pytest.raises(ValueError) as err:
            parse_trace(f"{_HEADER}\n{_RECORD}\n{line}\n")[1]
        assert str(err.value) == f"line 3: not a trace record ({error})"

    @pytest.mark.parametrize("first, second, bad_line", [
        ("true", "1", 3), ("false", "0", 3), ("true", "1.0", 3), ("1", "true", 2), ("0", "false", 2),
    ])
    def test_a_label_is_not_shared_with_an_equal_but_different_value(self, first, second, bad_line):
        text = "\n".join([_HEADER, _rule_record(first), _rule_record(second)])
        with pytest.raises(ValueError) as err:
            parse_trace(text)[1]
        assert str(err.value).startswith(f"line {bad_line}: not a trace record (ValueError('changeSet ")

    def test_an_equal_label_in_another_key_order_reads_as_equal(self):
        reordered = ('{"label": {"transition": ["A", "go", "B"], "component": "X", '
                     '"type": "detailed"}, "digest": "0000000000000002"}')
        first, second = parse_trace(f"{_HEADER}\n{_RECORD}\n{reordered}\n{_RECORD}\n")[1][:2]
        assert first[0] == second[0] and (first[1], second[1]) == (1, 2)

    @pytest.mark.parametrize("record, error", [
        (_RECORD.replace('"label"', '"lable"'), "KeyError('label')"),
        ('{"x": 1}', "KeyError('label')"),
        (_HEADER, "ValueError('a null label after the first record')"),
    ], ids=["misspelt-label-key", "no-label-key", "null-label-after-the-first"])
    def test_a_record_without_a_label_or_with_a_null_one_after_the_first_is_refused(
            self, record, error):
        with pytest.raises(ValueError) as err:
            parse_trace(f"{_HEADER}\n{_RECORD}\n{record}\n")[1]
        assert str(err.value) == f"line 3: not a trace record ({error})"

    def test_the_first_record_is_the_first_line_that_is_not_blank(self):
        # it may be the initial record (null label); a trace of steps alone has none
        assert parse_trace(f"\n\n{_HEADER}\n{_RECORD}\n")[1] == parse_trace(_RECORD)[1]
        assert len(parse_trace(_RECORD)[1]) == 1
        with pytest.raises(ValueError) as err:
            parse_trace('\n{"x": 1}\n')[1]
        assert str(err.value) == "line 2: not a trace record (KeyError('label'))"

    def test_repeated_labels_decode_as_each_one_alone(self):
        lines = (GOLDEN / "trace-shop-migration-loaded.jsonl").read_text("utf-8").splitlines()
        records = [json.loads(line) for line in lines[1:]]
        assert len({json.dumps(r["label"], sort_keys=True) for r in records}) < len(records) // 4
        assert parse_trace("\n".join(lines))[1] == [
            (label_from_json(r["label"]), int(r["digest"], 16)) for r in records]


class TestWalkInvariants:
    """Random-walk suite: validity after every step, phase constraint, trap
    monotonicity between transfers of a role."""

    def test_random_walks(self):
        walks = 0
        for seed in range(250):
            model = random_model(seed)
            config = random_initial(model)
            rng = random.Random(seed * 31 + 1)
            tracked = [
                (c, p.name) for c, s in model.components.items() for p in s.partitions
            ]
            entered = {
                role: naive_entered_traps(model, config, role[0], role[1]) for role in tracked
            }
            for _ in range(40):
                succ = successors(model, config)
                if not succ:
                    break
                label, model2, config2 = succ[rng.randrange(len(succ))]
                assert validate_configuration(model2, config2) == []
                if isinstance(label, DetailedStep):
                    comp = model.components[label.component]
                    for part in comp.partitions:
                        phase = part.phase_named(config.phases[(label.component, part.name)])
                        assert label.transition in phase.transitions
                moved = set()
                if isinstance(label, RuleStep):
                    moved = {(t.component, t.partition) for t in label.transfers}
                model, config = model2, config2
                for role in tracked:
                    if role not in config.phases:
                        continue
                    now = naive_entered_traps(model, config, role[0], role[1])
                    if role in moved or isinstance(label, RuleStep) and label.changed:
                        entered[role] = now
                    else:
                        assert entered[role] <= now, (role, entered[role], now)
                        entered[role] = now
                walks += 1
        assert walks > 200


def test_digest_is_stable_and_version_sensitive():
    config = Configuration({"X": "A"}, {("X", "r"): "P"}, 0)
    assert config_digest(config) == config_digest(Configuration({"X": "A"}, {("X", "r"): "P"}, 0))
    bumped = Configuration({"X": "A"}, {("X", "r"): "P"}, 1)
    assert config_digest(config) != config_digest(bumped)


def _assert_digest_is_repr_hash(layout, config):
    key = config.key()
    assert layout.key_text(config.slots_in(layout)) == repr(key)
    assert config_digest(config) == naive_digest(key) == config_digest(Configuration.from_key(key))
    assert config_digest(config) == naive_digest(key)  # a slot-backed one's from its layout's table


class TestDigest:
    def test_every_explored_state_digests_its_key_repr(self, bundles, shop_loaded):
        models = [bundle.model() for bundle in bundles.values()]
        for seed in range(100):
            model = random_model(seed)
            models.append(with_random_changesets(seed, model) if seed % 2 else model)
        states = 0
        for model, config in [(m, initial_configuration(m)) for m in models] + [shop_loaded]:
            # a changeset that bumps the version on every firing has no end
            space = explore_space(model, config, Bounds(max_states=2000))
            for i, (model_idx, _) in enumerate(space.states):
                _assert_digest_is_repr_hash(space.models[model_idx].layout, space.state(i))
            states += space.state_count()
        assert states > 2000

    @pytest.mark.parametrize("components", [
        {},  # no components, no roles: two empty tuples
        {"X": Std("X", frozenset({"A", "B"}), frozenset(), frozenset(), "A")},  # one component, no roles
        one_role_model().components,  # one component, one role
    ], ids=["empty", "one-component-no-partitions", "one-role"])
    def test_tuple_edge_cases(self, components):
        model = StdModel(components, {}, {}, 0)
        layout = model.layout
        config = initial_configuration(model)
        slots = config.slots_in(layout)
        for version in (0, 7, 12345):
            _assert_digest_is_repr_hash(layout, Configuration.from_slots(layout, (version,) + slots[1:]))
        _assert_digest_is_repr_hash(layout, config)  # backed by its pair key

    def test_text_tables_are_built_on_a_layouts_first_digest(self, bundles):
        model = bundles["cs-nondet"].model()
        space = explore_space(model, initial_configuration(model))
        assert "_texts" not in vars(model.layout)
        config_digest(space.state(1))
        assert "_texts" in vars(model.layout)

    def test_digest_table_is_built_on_a_layouts_first_digest(self, bundles):
        model = bundles["cs-nondet"].model()
        space = explore_space(model, initial_configuration(model))
        assert "digests" not in vars(model.layout)
        config = space.state(1)
        digest = config_digest(config)
        assert model.layout.digests == {config.slots_in(model.layout): digest}

    def test_key_backed_configurations_are_not_kept(self, bundles):
        model = bundles["cs-nondet"].model()
        root = initial_configuration(model)  # backed by its pair key
        config_digest(root)
        assert "digests" not in vars(model.layout)
        (_, _, after), *_ = successors(model, root)
        config_digest(after)
        table = dict(model.layout.digests)
        config_digest(Configuration.from_key(successors(model, after)[0][2].key()))
        assert model.layout.digests == table

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_a_version_that_is_not_an_int_is_refused(self, version):
        """Slots that hold 1, True or 1.0 compare equal, but their reprs
        differ, so a digest table could keep only int versions; no walk
        meets another: the engine refuses a model that holds one before its
        first step, as `Configuration` refuses such a version."""
        model = one_role_model()
        config = initial_configuration(model)
        odd = replace(model, version=version)
        assert [d.code for d in validate_model(odd)] == ["bad-version"]
        for entry in (successors, explore_space):
            with pytest.raises(ModelRejected, match="model rejected: bad-version: version"):
                entry(odd, config)

    def test_digest_table_holds_at_most_its_cap(self, bundles, monkeypatch):
        cap = 4
        monkeypatch.setattr(engine, "DIGEST_TABLE_CAP", cap)
        model = bundles["cs-nondet"].model()
        seen = set()
        for _ in range(2):  # the second walk digests states the table held, or dropped
            for _, _, config in drive(model, initial_configuration(model), RandomPolicy(5), 300):
                assert config_digest(config) == naive_digest(config.key())
                assert len(model.layout.digests) <= cap
                seen.add(config.key())
        assert len(seen) > 2 * cap


def test_loaded_migration_trace_matches_golden_bytes(shop_loaded):
    model, config = shop_loaded
    trace = run(model, config, RandomPolicy(3), 300)
    assert trace.final_model_version == 3
    expected = (GOLDEN / "trace-shop-migration-loaded.jsonl").read_text("utf-8")
    assert export_trace_jsonl(model, trace) == expected


def test_empty_transfer_rule_is_a_managed_step():
    go = T("A", "go", "B")
    comp = Std("X", frozenset({"A", "B"}), frozenset({"go"}), frozenset({go}), "A")
    rule = ConsistencyRule("solo", "X", go, ())
    model = StdModel({"X": comp}, {"solo": rule}, {}, 0)
    assert validate_model(model) == []
    config = initial_configuration(model)
    assert enabled_detailed(model, config, "X") == set()  # claimed
    assert [r.name for r in enabled_rules(model, config)] == ["solo"]

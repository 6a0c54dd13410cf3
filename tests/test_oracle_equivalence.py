"""The engine's successor relation against the brute-force enumerator, and
the compiled predicates (`compile_predicate`, `eval_predicate`) against the
oracle's interpreter."""

import json
import random
import re
from collections import Counter
from functools import partial

import pytest

from phasecoord import engine
from phasecoord.changeset import canonical_model
from phasecoord.engine import (
    DetailedStep,
    ModelRejected,
    NotEnabled,
    UnknownElement,
    RandomPolicy,
    RuleStep,
    Trace,
    config_digest,
    drive,
    enabled_detailed,
    enabled_rules,
    export_trace_jsonl,
    fire_rule,
    replay,
    rule_blocker,
    run,
    successors,
    write_trace_jsonl,
)
from phasecoord.explorer import Bounds, explore, explore_space
from phasecoord.mcpal import (
    McPalSkeleton,
    completion_predicate,
    completion_test,
    load_migration,
)
from phasecoord.changeset import ChangeSet
from phasecoord.model import (
    Configuration,
    ConsistencyRule,
    Partition,
    Phase,
    RoleTransfer,
    Std,
    StdModel,
    Transition,
    _configuration_diagnostics,
    initial_configuration,
    replace,
    validate_configuration,
    validate_model,
)
from phasecoord.properties import (
    COMPARATORS,
    CountInState,
    InPhase,
    InState,
    Invariant,
    ModelVersionIs,
    Not,
    PropertyError,
    compile_predicate,
    eval_predicate,
)

from tests.genmodels import (
    predicate_vocabulary,
    random_initial,
    random_model,
    random_predicate,
    with_random_changesets,
    with_twin_rules,
)
from tests.oracle import (
    engine_successor_set,
    label_identity,
    naive_digest,
    naive_eval_predicate,
    naive_first_invalid_state,
    naive_label,
    naive_state_record,
    naive_steps,
    naive_successors,
    walk_all_states,
)


def assert_agreement_everywhere(model, config, limit=50_000):
    states = walk_all_states(model, config, limit=limit)
    for m, c in states:
        assert naive_successors(m, c) == engine_successor_set(m, c)
    return len(states)


class TestBundledModels:
    def test_cs_nondet(self, bundles):
        model = bundles["cs-nondet"].model()
        assert assert_agreement_everywhere(model, initial_configuration(model)) == 16

    def test_cs_roundrobin(self, bundles):
        model = bundles["cs-roundrobin"].model()
        assert assert_agreement_everywhere(model, initial_configuration(model)) == 20

    def test_prodcons(self, bundles):
        model = bundles["prodcons"].model()
        assert assert_agreement_everywhere(model, initial_configuration(model)) == 8

    def test_shop_pre_migration(self, bundles):
        model = bundles["shop-migration"].model()
        assert assert_agreement_everywhere(model, initial_configuration(model)) == 48

    def test_shop_with_loaded_migration(self, bundles):
        # beyond the small-model obligation: the full evolving system,
        # changesets included
        bundle = bundles["shop-migration"]
        model = bundle.model()
        config = initial_configuration(model)
        loaded, started = load_migration(model, config, model.variables["ShopMigr"])
        assert assert_agreement_everywhere(loaded, started) == 116


class TestBfsMinimality:
    def test_counterexample_depth_matches_oracle_bfs(self, bundles):
        # independent shortest-violation depth, computed purely over the
        # oracle's successor relation, against the explorer's counterexample
        from phasecoord.model import (
            Configuration,
            ConsistencyRule,
            RoleTransfer,
            StdModel,
            Transition,
        )
        from phasecoord.properties import CountInState

        model = bundles["cs-nondet"].model()
        bad = ConsistencyRule(
            "bad", "Scheduler", Transition("Idle", "grant1", "Busy1"),
            (RoleTransfer("Worker1", "CSRole", "Free", "asking", "Crit"),
             RoleTransfer("Worker2", "CSRole", "Free", "asking", "Crit")),
        )
        rules = dict(model.rules)
        rules["bad"] = bad
        broken = StdModel(model.components, rules, model.variables, model.version)
        config = initial_configuration(broken)
        pred = CountInState((("Worker1", "InCS"), ("Worker2", "InCS")), "<=", 1)

        def from_key(key):
            version, detailed, phases = key
            return Configuration(dict(detailed), dict(phases), version)

        # BFS over oracle successors only (the model never changes here)
        depth = {config.key(): 0}
        frontier = [config]
        oracle_min = None
        while frontier and oracle_min is None:
            nxt = []
            for c in frontier:
                for _, _, key in sorted(naive_successors(broken, c),
                                        key=lambda s: repr(s)):
                    if key in depth:
                        continue
                    depth[key] = depth[c.key()] + 1
                    succ_config = from_key(key)
                    if not naive_eval_predicate(pred, broken, succ_config):
                        oracle_min = depth[key]
                        break
                    nxt.append(succ_config)
                if oracle_min is not None:
                    break
            frontier = nxt
        report = explore(broken, config, [Invariant(pred)])
        assert report.verdicts == [(Invariant(pred).text(), "violated")]
        [violation] = report.doc()["violations"]
        assert len(violation["trace"]) - 1 == oracle_min == 5


class TestRandomModels:
    def test_random_states_agree(self):
        checked = 0
        for seed in range(150):
            model = random_model(seed, max_components=3, max_states=5)
            config = random_initial(model)
            import random as _r

            rng = _r.Random(seed + 1000)
            from phasecoord.engine import successors

            for _ in range(15):
                assert naive_successors(model, config) == engine_successor_set(model, config)
                checked += 1
                succ = successors(model, config)
                if not succ:
                    break
                _, model, config = succ[rng.randrange(len(succ))]
        assert checked > 1000


def assert_successors_change_only_their_slots(model, config):
    """At every reachable state (at most 300), `successors` leaves the
    parent's slots as they were, a detailed step's successor differs from
    its parent only in its component's slot, which holds the step's target,
    and a rule firing without a changeset only in its manager's slot and its
    transfers' role slots, which hold the manager step's target and the
    target phases; returns the successors checked."""
    checked = 0
    for m, c in walk_all_states(model, config, limit=300, truncate=True):
        layout = m.layout
        slots, key = c.slots_in(layout), c.key()
        succ = successors(m, c)
        assert c.slots_in(layout) == slots and c.key() == key
        for label, m2, c2 in succ:
            if isinstance(label, DetailedStep):
                slot = layout.slot[label.component]
                want = {slot: layout.index[slot][label.transition.target]}
            elif not label.changed:
                slot = layout.slot[label.manager]
                want = {slot: layout.index[slot][label.manager_step.target]}
                for tr in label.transfers:
                    role = layout.slot[(tr.component, tr.partition)]
                    want[role] = layout.index[role][tr.target]
            else:
                continue
            assert m2 is m
            after = c2.slots_in(layout)
            assert len(after) == len(slots)
            assert after == tuple(want.get(i, value) for i, value in enumerate(slots)), label
            checked += 1
    return checked


class TestSuccessorKernel:
    def test_bundled_models_and_the_loaded_shop(self, bundles, shop_loaded):
        systems = [(b.model(), initial_configuration(b.model())) for b in bundles.values()]
        assert sum(assert_successors_change_only_their_slots(*system)
                   for system in systems + [shop_loaded]) > 300

    def test_random_models(self):
        checked = 0
        for seed in range(100):
            model = random_model(seed)
            if seed % 2:
                model = with_random_changesets(seed, model)
            checked += assert_successors_change_only_their_slots(model, random_initial(model))
        assert checked > 500


class TestRuleChangesets:
    def test_random_changesets_agree(self):
        # rules whose changesets apply at some configurations and are
        # rejected at others: the engine reuses one resulting model per
        # (model object, rule), the oracle applies each one afresh, and the
        # blockers equal those of a fresh model object that holds no result
        outcomes = Counter()
        for seed in range(300):
            model = with_random_changesets(seed, random_model(seed, max_components=3))
            frontier, seen = [(model, random_initial(model))], set()
            for _ in range(8):
                following = []
                for m, c in frontier:
                    assert naive_successors(m, c) == engine_successor_set(m, c)
                    for name, rule in sorted(m.rules.items()):
                        blocker = rule_blocker(m, c, rule)
                        assert blocker == rule_blocker(replace(m), c, rule)
                        if rule.change is not None and blocker is None:
                            outcomes["applied"] += 1
                            outcomes["applied-add-trap"] += bool(rule.change.add_traps)
                            outcomes["applied-add-role"] += any(
                                std.partitions for std in rule.change.add_components)
                        elif rule.change is not None and blocker.startswith("changeset rejected: "):
                            outcomes[blocker.split(": ")[1]] += 1
                    for _, m2, c2 in successors(m, c):
                        key = (canonical_model(m2), c2.key())
                        if key not in seen and len(seen) < 200:
                            seen.add(key)
                            following.append((m2, c2))
                frontier = following
        for outcome in ("applied", "live-phase-removal", "phase-violation", "duplicate-partition",
                        "applied-add-trap", "applied-add-role"):
            assert outcomes[outcome] >= 5, outcomes


def assert_rule_core_agrees(model, config):
    """rule_blocker, enabled_rules, fire_rule and successors give one answer
    for every rule at every reachable state; returns the number of states and
    of rule firings compared."""
    states = walk_all_states(model, config, limit=50_000)
    firings = 0
    for m, c in states:
        enabled = enabled_rules(m, c)
        fired = {label.rule: (label, m2, c2) for label, m2, c2 in successors(m, c)
                 if isinstance(label, RuleStep)}
        assert [r.name for r in enabled] == sorted(fired)
        for name, rule in m.rules.items():
            blocker = rule_blocker(m, c, rule)
            assert (blocker is None) == (rule in enabled) == (name in fired), (name, blocker)
            if blocker is None:
                label, m2, c2 = fired[name]
                assert label == RuleStep(name, rule.manager, rule.manager_step, rule.transfers,
                                         rule.change is not None)
                after_model, after = fire_rule(m, c, rule)
                assert canonical_model(after_model) == canonical_model(m2)
                assert after.key() == c2.key()
                firings += 1
            else:
                with pytest.raises(NotEnabled):
                    fire_rule(m, c, rule)
    return len(states), firings


def assert_replay_reproduces_runs(model, config, seeds):
    for seed in seeds:
        trace = run(model, config, RandomPolicy(seed), max_steps=40)
        assert replay(model, config, trace.labels()) == trace


class TestRuleCore:
    def test_bundled_models(self, bundles, shop_loaded):
        systems = [(b.model(), initial_configuration(b.model())) for b in bundles.values()]
        for model, config in systems + [shop_loaded]:
            states, firings = assert_rule_core_agrees(model, config)
            assert firings > 0
            assert_replay_reproduces_runs(model, config, range(5))

    def test_random_models(self):
        states = firings = 0
        for seed in range(300):
            model = random_model(seed)
            config = random_initial(model)
            counts = assert_rule_core_agrees(model, config)
            states, firings = states + counts[0], firings + counts[1]
            assert_replay_reproduces_runs(model, config, range(3))
        assert states > 500 and firings > 100


def assert_fast_paths_agree(model, config):
    """At every reachable state, each engine successor (whose slots are
    derived from its parent's) equals the configuration rebuilt from its
    mappings: its slots decode to the rebuilt pair key and encode back to
    themselves, and `validate_configuration` equals the full walk; returns
    the successors seen."""
    checked = 0
    for m, c in walk_all_states(model, config, limit=50_000):
        for _, m2, c2 in successors(m, c):
            rebuilt = Configuration(dict(c2.detailed), dict(c2.phases), c2.model_version)
            layout = m2.layout
            # a successor is in its model's layout, also when a rule's
            # changeset made that model
            assert c2._layout is layout
            slots = c2.slots_in(layout)
            assert layout.decode(slots) == rebuilt.key()
            assert layout.encode(layout.decode(slots)) == slots
            again = Configuration.from_slots(layout, slots)
            for other in (rebuilt, again):
                assert c2.key() == other.key() and c2 == other and hash(c2) == hash(other)
                assert config_digest(c2) == config_digest(other)
            assert validate_configuration(m2, c2) == _configuration_diagnostics(m2, c2) == []
            checked += 1
    return checked


def assert_configuration_valid_names_the_swept_state(model, config):
    """`explore`'s root-only `configuration-valid` verdict names the state
    that the oracle's per-state sweep finds first, within 2000 states;
    returns that state, or None."""
    report = explore(model, config, bounds=Bounds(max_states=2000))
    first = naive_first_invalid_state(report.space)
    named = [state for prop, state in report.violations if prop == "configuration-valid"]
    assert named == ([] if first is None else [first])
    return first


class TestConfigurationValidVerdict:
    def test_accepted_models_from_their_start(self, bundles, shop_loaded):
        starts = [(b.model(), initial_configuration(b.model())) for b in bundles.values()]
        starts.append(shop_loaded)
        for seed in range(300):
            model = random_model(seed)
            model = with_random_changesets(seed, model) if seed % 2 else model
            starts.append((model, initial_configuration(model)))
        for model, config in starts:
            assert assert_configuration_valid_names_the_swept_state(model, config) is None

    def test_inconsistent_roots_that_fit_the_layout(self, bundles):
        model = bundles["cs-nondet"].model()
        good = initial_configuration(model)
        detailed, phases = dict(good.detailed), dict(good.phases)
        for config in (Configuration({**detailed, "Worker1": "InCS"}, phases, 0),
                       Configuration(detailed, phases, 1)):
            assert assert_configuration_valid_names_the_swept_state(model, config) == 0


class TestConfigurationFastPaths:
    def test_bundled_models(self, bundles, shop_loaded):
        systems = [(b.model(), initial_configuration(b.model())) for b in bundles.values()]
        for model, config in systems + [shop_loaded]:
            assert assert_fast_paths_agree(model, config) > 0

    def test_random_models(self):
        checked = 0
        for seed in range(300):
            model = random_model(seed)
            checked += assert_fast_paths_agree(model, random_initial(model))
        assert checked > 1000

    def test_invalid_configurations(self, bundles):
        model = bundles["cs-nondet"].model()
        good = initial_configuration(model)
        detailed, phases = dict(good.detailed), dict(good.phases)
        role = ("Worker1", "CSRole")
        ghost_role = ("Ghost", "CSRole")
        without = {k: v for k, v in detailed.items() if k != "Worker1"}
        without_scheduler = {k: v for k, v in detailed.items() if k != "Scheduler"}
        without_role = {k: v for k, v in phases.items() if k != role}
        worker1 = model.components["Worker1"]
        (cs_role,) = worker1.partitions

        def with_worker1_partitions(*partitions):
            worker = replace(worker1, partitions=partitions)
            return StdModel({**model.components, "Worker1": worker}, model.rules,
                            model.variables, model.version)

        # a second partition of the same name whose phase does not resolve, and
        # a second phase named Free (listed first, so it is the one that counts)
        # that does not hold Worker1's state
        doubled = with_worker1_partitions(cs_role, Partition("CSRole", (), "Free"))
        in_cs_only = Phase("Free", frozenset({"InCS"}), frozenset())
        shadowed = with_worker1_partitions(replace(cs_role, phases=(in_cs_only,) + cs_role.phases))
        cases = {
            "missing-component": (model, without, phases, 0),
            "missing-component-without-roles": (model, without_scheduler, phases, 0),
            "missing-role": (model, detailed, without_role, 0),
            "unknown-component": (model, {**detailed, "Ghost": "OutCS"}, phases, 0),
            "unknown-role": (model, detailed, {**phases, ghost_role: "Free"}, 0),
            "component-swapped-for-unknown": (model, {**without, "Ghost": "OutCS"}, phases, 0),
            "role-swapped-for-unknown": (model, detailed, {**without_role, ghost_role: "Free"}, 0),
            "unknown-state": (model, {**detailed, "Worker1": "Nowhere"}, phases, 0),
            "unknown-state-without-roles": (model, {**detailed, "Scheduler": "Nowhere"}, phases, 0),
            "unknown-phase": (model, detailed, {**phases, role: "Nowhere"}, 0),
            "phase-violation": (model, {**detailed, "Worker1": "InCS"}, phases, 0),
            "version-mismatch": (model, detailed, phases, 1),
            "duplicate-partition": (doubled, detailed, phases, 0),
            "duplicate-phase": (shadowed, detailed, phases, 0),
        }
        for name, (m, d, p, version) in cases.items():
            config = Configuration(d, p, version)
            diags = validate_configuration(m, config)
            assert diags and diags == _configuration_diagnostics(m, config), name
            if name in ("phase-violation", "version-mismatch"):
                # the root fits its layout, so `explore` reports it, with a
                # one-record trace: the root itself
                violations = [(v["property"], len(v["trace"]))
                              for v in explore(m, config).doc()["violations"]]
                assert violations == [("configuration-valid", 1)], name
            elif name in ("duplicate-partition", "duplicate-phase"):
                # `validate_model` rejects the model, and the engine refuses it
                first = validate_model(m)[0]
                assert first.code == name
                with pytest.raises(ModelRejected, match=re.escape(f"model rejected: {first}")):
                    explore(m, config)
        # one partition declared twice, both times in force: the full walk
        # finds nothing wrong with the configuration, but the engine refuses
        # the model
        twice = with_worker1_partitions(cs_role, cs_role)
        config = Configuration(detailed, phases, 0)
        assert validate_configuration(twice, config) == []
        with pytest.raises(ModelRejected, match="model rejected: duplicate-partition: Worker1 CSRole"):
            explore(twice, config)

    def test_configurations_that_do_not_fit_raise_unknown_element(self, bundles):
        model = bundles["cs-nondet"].model()
        good = initial_configuration(model)
        detailed, phases = dict(good.detailed), dict(good.phases)
        role = ("Worker1", "CSRole")
        cases = {
            "Worker1: unknown state Bogus": ({**detailed, "Worker1": "Bogus"}, phases),
            "Ghost: unknown component": ({**detailed, "Ghost": "OutCS"}, phases),
            "Worker1: no current state": (
                {k: v for k, v in detailed.items() if k != "Worker1"}, phases),
            "Worker1.CSRole: no current phase": (
                detailed, {k: v for k, v in phases.items() if k != role}),
            "Worker1.CSRole: unknown phase Nowhere": (detailed, {**phases, role: "Nowhere"}),
            "Ghost.CSRole: unknown role": (detailed, {**phases, ("Ghost", "CSRole"): "Free"}),
        }
        for message, (d, p) in cases.items():
            config = Configuration(d, p, 0)
            assert model.layout.misfit(config.key()) == message
            assert validate_configuration(model, config), message
            for call in (successors, explore, enabled_rules):
                with pytest.raises(UnknownElement) as err:
                    call(model, config)
                assert str(err.value) == message


INTERNING_LIMIT = 400


def assert_space_is_the_oracle_walk(model, config):
    """`explore_space`, bounded at INTERNING_LIMIT states, holds the states of
    `walk_all_states` in its order, each once, and at every state whose
    successors were all interned, one edge per oracle successor, to the
    state of that successor's (canonical model, key); returns the space."""
    space = explore_space(model, config, Bounds(max_states=INTERNING_LIMIT))
    walked = walk_all_states(model, config, limit=INTERNING_LIMIT, truncate=True)
    pairs = [(canonical_model(space.models[m]), space.state(idx).key())
             for idx, (m, _) in enumerate(space.states)]
    assert pairs == [(canonical_model(m), c.key()) for m, c in walked]
    assert len(set(pairs)) == len(pairs)
    assert len({canonical_model(m) for m in space.models}) == len(space.models)
    # the last source of a truncated space may have successors not interned
    complete = len(pairs) if not space.truncated else space.edges[-1][0]
    out = [set() for _ in pairs]
    for src, label, dst in space.edges:
        out[src].add((label_identity(label), *pairs[dst]))
    assert sum(len(out[idx]) for idx in range(complete)) == sum(
        1 for src, _, _ in space.edges if src < complete)
    for idx, (m, c) in enumerate(walked[:complete]):
        assert out[idx] == naive_successors(m, c), idx
    if not space.truncated:
        assert len(space.edges) == sum(len(naive_successors(m, c)) for m, c in walked)
    return space


def reaches_a_form_through_another_object(space):
    """True when a step from a state of `space` gives a model object other
    than the one the space keeps with that model's form."""
    kept = {canonical_model(m): m for m in space.models}
    for idx, (m, _) in enumerate(space.states):
        for _, reached, _ in successors(space.models[m], space.state(idx)):
            first = kept.get(canonical_model(reached))
            if first is not None and first is not reached:
                return True
    return False


class TestInterning:
    def test_bundled_models(self, bundles, shop_loaded):
        systems = [(b.model(), initial_configuration(b.model())) for b in bundles.values()]
        sizes = [len(assert_space_is_the_oracle_walk(*system).states)
                 for system in systems + [shop_loaded]]
        assert sizes[-1] == 116

    def test_random_models(self):
        multi_model = truncated = 0
        for seed in range(200):
            model = random_model(seed)
            if seed % 2:
                model = with_random_changesets(seed, model)
            space = assert_space_is_the_oracle_walk(model, random_initial(model))
            multi_model += len(space.models) > 1
            truncated += space.truncated
        assert multi_model >= 10 and truncated > 0

    def test_twin_rules_reach_one_model_form_through_two_model_objects(self):
        # a rule and its twin give one model form through two model objects,
        # which the space interns under one model index
        twinned = 0
        for seed in range(200):
            model = with_twin_rules(seed, random_model(seed))
            space = assert_space_is_the_oracle_walk(model, random_initial(model))
            twinned += reaches_a_form_through_another_object(space)
        assert twinned >= 20

    def test_equal_changesets_on_two_rules_share_one_model_index(self):
        # M's two steps A -> B are claimed by rules whose changesets are equal
        # but distinct objects; either firing drops both rules, so both give
        # equal model contents through two model objects
        a, b = Transition("A", "a", "B"), Transition("A", "b", "B")
        back = Transition("B", "back", "A")
        m = Std("M", frozenset({"A", "B"}), frozenset({"a", "b", "back"}),
                frozenset({a, b, back}), "A")
        rules = {name: ConsistencyRule(name, "M", step, (), ChangeSet(remove_rules=("r1", "r2")))
                 for name, step in (("r1", a), ("r2", b))}
        assert rules["r1"].change == rules["r2"].change
        assert rules["r1"].change is not rules["r2"].change
        model = StdModel({"M": m}, rules)
        config = initial_configuration(model)
        (_, first, at_b), (_, second, again) = successors(model, config)
        assert first is not second and canonical_model(first) == canonical_model(second)
        assert at_b == again
        space = assert_space_is_the_oracle_walk(model, config)
        # root; B after either rule; A in the rule-less model, whose free
        # steps a and b both lead back to the one state at B
        assert len(space.models) == 2
        assert [m for m, _ in space.states] == [0, 1, 1]
        assert [(src, dst) for src, _, dst in space.edges] == [(0, 1), (0, 1), (1, 2), (2, 1), (2, 1)]
        assert space.deadlocks == []


def outcome(run):
    """What `run()` returns, or the message of the PropertyError it raises."""
    try:
        return run()
    except PropertyError as exc:
        return ("PropertyError", str(exc))


def decoded_states(space):
    """(model, configuration) of every state, in BFS order."""
    return [(space.models[m], space.state(idx)) for idx, (m, _) in enumerate(space.states)]


def first_state(states, test):
    """The first of `states` whose (model, configuration) passes `test`."""
    return next((idx for idx, (m, c) in enumerate(states) if test(m, c)), None)


def assert_compiled_predicates_agree(space, seed, count=40):
    """Seeded random predicates, compiled per model of the space and through
    `eval_predicate`, give what the oracle's `naive_eval_predicate` gives at
    every state, raise the same PropertyError at the same states, and so stop
    the same sweeps at the same state."""
    rng = random.Random(seed)
    vocabulary = predicate_vocabulary(space.models)
    versions = space.versions_seen()
    states = decoded_states(space)
    raised = 0
    for _ in range(count):
        pred = random_predicate(rng, vocabulary, versions)
        tests = [compile_predicate(pred, m) for m in space.models]
        for idx, (model, config) in enumerate(states):
            slots = config.slots_in(model.layout)
            want = outcome(lambda: naive_eval_predicate(pred, model, config))
            assert outcome(lambda: tests[space.states[idx][0]](slots)) == want, (pred, idx)
            assert outcome(lambda: eval_predicate(pred, model, config)) == want, (pred, idx)
            raised += isinstance(want, tuple)
        compiled = partial(compile_predicate, pred)
        assert outcome(lambda: next(space.where(compiled), None)) == outcome(
            lambda: first_state(states, lambda m, c: naive_eval_predicate(pred, m, c)))
        assert outcome(lambda: next(space.where(compiled, holds=False), None)) == outcome(
            lambda: first_state(states, lambda m, c: not naive_eval_predicate(pred, m, c)))
    return raised


class TestCompiledPredicates:
    def test_bundled_models(self, bundles):
        for seed, bundle in enumerate(bundles.values()):
            model = bundle.model()
            space = explore_space(model, initial_configuration(model))
            assert assert_compiled_predicates_agree(space, seed) > 0

    def test_loaded_shop_space_over_three_models(self, shop_loaded):
        space = explore_space(*shop_loaded)
        assert len(space.models) == 3
        assert assert_compiled_predicates_agree(space, 7, count=150) > 0

    def test_random_models(self):
        multi_model = raised = 0
        for seed in range(200):
            model = random_model(seed, max_components=3)
            if seed % 2:
                model = with_random_changesets(seed, model)
            space = explore_space(model, random_initial(model), Bounds(max_states=300))
            multi_model += len(space.models) > 1
            raised += assert_compiled_predicates_agree(space, seed, count=15)
        assert multi_model >= 10 and raised > 0

    def test_configuration_that_does_not_fit_raises_property_error(self, bundles):
        model = bundles["prodcons"].model()
        config = initial_configuration(model)
        detailed, phases = dict(config.detailed), dict(config.phases)
        misfits = {
            "Producer: unknown state Nowhere": ({**detailed, "Producer": "Nowhere"}, phases),
            "Ghost: unknown component": ({**detailed, "Ghost": "Idle"}, phases),
            "Producer: no current state": ({"Consumer": "Empty"}, phases),
            "Consumer.Supply: unknown phase Gone": (detailed, {("Consumer", "Supply"): "Gone"}),
            "Producer.Supply: unknown role": (detailed, {**phases, ("Producer", "Supply"): "Ask"}),
        }
        for message, (d, p) in misfits.items():
            misfit = Configuration(d, p, config.model_version)
            assert model.layout.misfit(misfit.key()) == message
            for pred in (ModelVersionIs(0), Not(InState("Producer", "Making"))):
                assert outcome(lambda: eval_predicate(pred, model, misfit)) == (
                    "PropertyError", message)
        assert eval_predicate(InState("Producer", "Making"), model, config)

    def test_completion_test_matches_the_naive_completion(self, bundles, shop_loaded):
        sk = McPalSkeleton()
        for model, config in (shop_loaded, (bundles["cs-nondet"].model(),
                                            initial_configuration(bundles["cs-nondet"].model()))):
            space = explore_space(model, config)
            states = decoded_states(space)
            for target in range(5):
                complete = completion_predicate(target, sk)
                want = [idx for idx, (m, c) in enumerate(states)
                        if sk.component in m.components and naive_eval_predicate(complete, m, c)]
                assert list(space.where(partial(completion_test, target_version=target))) == want


class TestCountInStateShapes:
    """`countInState` over no known pair, one pair and repeated pairs, each
    with every comparator and bounds around its counts, against the oracle
    at every state of cs-nondet."""

    SHAPES = {
        "no known pair": (("Worker1", "Nowhere"), ("Worker2", "Gone")),
        "one pair": (("Worker1", "InCS"),),
        "repeated pairs": (("Worker1", "InCS"), ("Worker1", "InCS"), ("Worker2", "Nowhere"),
                           ("Worker2", "Waiting")),
    }

    def test_compiled_count_matches_the_oracle(self, bundles):
        model = bundles["cs-nondet"].model()
        states = decoded_states(explore_space(model, initial_configuration(model)))
        for pairs in self.SHAPES.values():
            for op in COMPARATORS:
                for bound in range(-1, 5):
                    pred = CountInState(pairs, op, bound)
                    test = compile_predicate(pred, model)
                    for m, c in states:
                        assert test(c.slots_in(m.layout)) == naive_eval_predicate(pred, m, c), (
                            pred, c)

    def test_each_repeated_pair_counts(self, bundles):
        model = bundles["cs-nondet"].model()
        space = explore_space(model, initial_configuration(model))
        counts = Counter()
        for name, pairs in self.SHAPES.items():
            for bound in range(4):
                exact = partial(compile_predicate, CountInState(pairs, "==", bound))
                counts[name, bound] = len(list(space.where(exact)))
        assert counts["no known pair", 0] == len(space.states)
        assert counts["one pair", 0] + counts["one pair", 1] == len(space.states)
        # Worker1 at InCS counts twice: with Worker2 Waiting, three times
        assert counts["repeated pairs", 2] > 0 and counts["repeated pairs", 3] > 0


def random_walk(model, config, seed, max_steps):
    """The (label, model, configuration) steps of a seeded random run from
    `config`, and its (label, digest) steps."""
    taken = list(drive(model, config, RandomPolicy(seed), max_steps))
    return taken, [(label, config_digest(c)) for label, _, c in taken]


def state_record_lines(config, taken):
    """Each line of the trace of the steps `taken` from `config`, as
    `naive_state_record` defines the format."""
    return [json.dumps(naive_state_record(index, label, c), sort_keys=True) + "\n"
            for index, (label, _, c) in enumerate([(None, None, config), *taken])]


def assert_records_agree(model, config, seeds, max_steps=60):
    """On a random walk from `config` per seed, every line `write_trace_jsonl`
    writes equals the `naive_state_record` line; returns the steps compared
    and the number of walks that changed the model version."""
    steps = changed = 0
    for seed in seeds:
        taken, trace = random_walk(model, config, seed, max_steps)
        version = (taken[-1][2] if taken else config).model_version
        lines = []
        assert write_trace_jsonl(model, config, trace, lines.append) == (len(trace), version)
        assert lines == state_record_lines(config, taken)
        steps += len(trace)
        changed += version != config.model_version
    return steps, changed


def state_invariants(model):
    """One invariant per state of each component and per phase of each role
    of `model`, each violated where its component or role is in it, and one
    per model version 0-3."""
    props = [Invariant(Not(ModelVersionIs(v))) for v in range(4)]
    for name, std in sorted(model.components.items()):
        props += [Invariant(Not(InState(name, state))) for state in sorted(std.states)]
        props += [Invariant(Not(InPhase(name, part.name, phase.name)))
                  for part in std.partitions for phase in part.phases]
    return props


def assert_report_records_agree(model, config, properties, bounds=Bounds(max_states=500)):
    """Every violation and deadlock trace of `explore`'s document is a walk
    along the space's edges from its root, and each record equals
    `naive_state_record` of the state the walk is at; returns the document."""
    report = explore(model, config, properties, bounds)
    space = report.space
    out: dict = {}
    for src, label, dst in space.edges:
        out.setdefault(src, []).append((label, dst))
    doc = report.doc()
    for records in [v["trace"] for v in doc["violations"]] + doc["deadlocks"]:
        assert records[0] == naive_state_record(0, None, space.state(0))
        state = 0
        for index, record in enumerate(records[1:], start=1):
            state = next(dst for label, dst in out[state]
                         if record == naive_state_record(index, label, space.state(dst)))
    return doc


def named_model(roles):
    """A valid model whose components and partitions have the given names:
    `roles` maps each component to its partition names.  Each component
    toggles between two states, one with a non-ASCII name; each role has two
    phases holding both, and two rules claiming the step back move every role
    of the component from one to the other."""
    states = frozenset({"Idle", "Büsy"})
    go, back = Transition("Idle", "go", "Büsy"), Transition("Büsy", "back", "Idle")
    moves = frozenset({go, back})
    phases = (Phase("ph-1", states, moves), Phase("ph.2", states, moves))
    components, rules = {}, {}
    for comp, parts in roles.items():
        components[comp] = Std(comp, states, frozenset({"go", "back"}), moves, "Idle",
                               tuple(Partition(p, phases, "ph-1") for p in parts))
        for name, source, target in ((f"{comp}>", "ph-1", "ph.2"), (f"{comp}<", "ph.2", "ph-1")):
            transfers = tuple(RoleTransfer(comp, p, source, "triv", target) for p in parts)
            rules[name] = ConsistencyRule(name, comp, back, transfers)
    model = StdModel(components, rules, {}, 0)
    assert validate_model(model) == []
    return model


class TestTraceRecords:
    """Exports and reports join each record from its layout's JSON tables;
    `naive_state_record` defines the format."""

    def test_bundled_models(self, bundles, shop_loaded):
        systems = [(b.model(), initial_configuration(b.model())) for b in bundles.values()]
        changed = 0
        for model, config in systems + [shop_loaded]:
            steps, walks = assert_records_agree(model, config, range(5), max_steps=200)
            assert steps > 0
            changed += walks
        assert changed > 0  # the loaded migration's changesets ran

    def test_random_models(self):
        steps = changed = 0
        for seed in range(200):
            model = random_model(seed)
            if seed % 2:
                model = with_random_changesets(seed, model)
            counts = assert_records_agree(model, random_initial(model), (seed, seed + 1))
            steps, changed = steps + counts[0], changed + counts[1]
        assert steps > 1000 and changed >= 10

    def test_report_records_of_bundled_models(self, bundles, shop_loaded):
        systems = [(b.model(), initial_configuration(b.model()), b.properties())
                   for b in bundles.values()]
        traces = []
        for model, config, props in systems + [(*shop_loaded, [])]:
            doc = assert_report_records_agree(model, config, props + state_invariants(model))
            traces += [v["trace"] for v in doc["violations"]] + doc["deadlocks"]
        assert len(traces) > 40 and sum(map(len, traces)) > 2 * len(traces)
        # a trace of the loaded migration crosses its versions 1-3
        assert max(len({r["modelVersion"] for r in records}) for records in traces) == 3

    def test_report_records_of_random_models(self):
        violations = deadlocks = records = 0
        for seed in range(200):
            model = random_model(seed)
            if seed % 2:
                model = with_random_changesets(seed, model)
            doc = assert_report_records_agree(model, random_initial(model), state_invariants(model))
            violations += len(doc["violations"])
            deadlocks += len(doc["deadlocks"])
            records += sum(len(v["trace"]) for v in doc["violations"]) + sum(map(len, doc["deadlocks"]))
        assert violations > 1000 and deadlocks > 200 and records > 10 * (violations + deadlocks)

    def test_names_json_escapes_and_roles_out_of_slot_order(self):
        # "A-B.y" sorts before "A.x" ('-' before '.'), though role (A, x)
        # has the lower slot
        model = named_model({"Café": ["rôle"], 'Say "hi"': ["p"], "back\\slash": ["p", "q"],
                             "A": ["x"], "A-B": ["y"]})
        config = initial_configuration(model)
        _, roles = model.layout._json
        assert [slot for slot, _ in roles] != sorted(slot for slot, _ in roles)
        assert assert_records_agree(model, config, range(5))[0] > 0
        lines = []
        write_trace_jsonl(model, config, run(model, config, RandomPolicy(0), 5).steps, lines.append)
        assert r'"Caf\u00e9": "Idle"' in lines[0] and r'"Say \"hi\".p": "ph-1"' in lines[0]

    def test_component_names_json_writes_as_keys(self):
        # JSON writes an int key as a string; `sort_keys` orders the ints
        model = named_model({7: ["p"], 12: ["q"]})
        assert assert_records_agree(model, initial_configuration(model), range(3))[0] > 0

    def test_a_name_json_cannot_write_raises_before_its_line(self):
        model = named_model({("t",): ["p"]})  # a tuple cannot be a JSON key
        lines = []
        with pytest.raises(TypeError):
            write_trace_jsonl(model, initial_configuration(model), (), lines.append)
        assert lines == []

    def test_roles_whose_keys_collide_take_the_state_record(self):
        # role (A.b, c) and role (A, b.c) both write the key "A.b.c"; the
        # record keeps one entry, that of (A.b, c), the later role in slot order
        model = named_model({"A.b": ["c"], "A": ["b.c"]})
        layout = model.layout
        assert layout.owners[layout.role_base:] == (("A", "b.c"), ("A.b", "c"))
        _, roles = layout._json
        assert [slot for slot, _ in roles] == [layout.slot["A.b", "c"]]
        # (A, b.c) in ph-1 and (A.b, c) in ph.2: the entry holds ph.2
        slots = (0, 1, 1, 0, 1)  # both components Idle (state index 1 of Büsy, Idle)
        assert layout.record_entries(slots) == ('"A": "Idle", "A.b": "Idle"', '"A.b.c": "ph.2"')
        config = Configuration.from_slots(layout, slots)
        assert naive_state_record(0, None, config)["rolePhases"] == {"A.b.c": "ph.2"}
        assert assert_records_agree(model, initial_configuration(model), range(5))[0] > 0

    def test_key_backed_and_misfit_initial_configurations(self, bundles):
        model = bundles["cs-nondet"].model()
        good = initial_configuration(model)
        assert good._layout is None  # key-backed: its record encodes it
        taken, trace = random_walk(model, good, 1, 10)
        lines = []
        write_trace_jsonl(model, good, trace, lines.append)
        assert lines == state_record_lines(good, taken)
        # a misfit initial configuration raises before its line is written
        bad = Configuration({**good.detailed, "Worker1": "Bogus"}, dict(good.phases), 0)
        for steps in (trace, ()):
            lines = []
            with pytest.raises(UnknownElement, match="Worker1: unknown state Bogus"):
                write_trace_jsonl(model, bad, steps, lines.append)
            assert lines == []


def oracle_walk(model, config, seed, max_steps):
    """The (label, model, configuration) steps of a seeded random run stepped
    through `naive_steps`, which keeps no step table."""
    policy, taken = RandomPolicy(seed), []
    for _ in range(max_steps):
        steps = naive_steps(model, config)
        if not steps:
            break
        identity, after_model, config = steps[policy.choose(steps)]
        taken.append((naive_label(model, identity), after_model, config))
        model = after_model
    return taken


def assert_walk_matches_oracle(model, config, seed, max_steps=300):
    """A `run` under `RandomPolicy(seed)`, its export and its replay equal
    those of the oracle's walk; returns the number of steps and whether the
    walk changed the model version."""
    taken = oracle_walk(model, config, seed, max_steps)
    version = (taken[-1][2] if taken else config).model_version
    want = Trace(config, tuple((label, naive_digest(c.key())) for label, _, c in taken), version)
    trace = run(model, config, RandomPolicy(seed), max_steps)
    assert trace == want
    assert export_trace_jsonl(model, trace) == "".join(state_record_lines(config, taken))
    assert replay(model, config, trace.labels()) == want
    return len(taken), version != config.model_version


class TestWalksMatchTheOracle:
    """A walk reads each state's steps from its model's step table: `run`
    chooses among them, and its export and its replay look each label up
    there.  Each walk, on model objects no other walk stepped, equals the
    walk stepped through the oracle; also with a cap of 2 states, where a
    table is cleared in mid-walk and a state met again is expanded again."""

    @pytest.fixture(params=[engine.STEP_TABLE_CAP, 2], ids=["cap", "cap-2"])
    def expansions(self, request, monkeypatch, count_calls):
        """Under the cap, the (model, configuration) of every `successors`
        call; on leaving, whether a state was expanded twice is checked to
        be whether the cap is 2."""
        monkeypatch.setattr(engine, "STEP_TABLE_CAP", request.param)
        calls = count_calls(engine, "successors")
        yield calls
        states = [(id(m), c.slots_in(m.layout)) for m, c in calls]
        assert (len(set(states)) < len(states)) == (request.param == 2)

    def test_bundled_models(self, bundles, load_shop, expansions):
        def start(bundle):
            model = bundle.model()
            return model, initial_configuration(model)

        changed = 0
        for system in [partial(start, b) for b in bundles.values()] + [load_shop]:
            for seed in range(3):
                steps, walked = assert_walk_matches_oracle(*system(), seed)
                assert steps == 300  # none of these walks meets a deadlock
                changed += walked
        assert changed == 3  # every walk of the loaded migration

    def test_random_models(self, expansions):
        steps = changed = 0
        for seed in range(100):
            model = random_model(seed)
            if seed % 2:
                model = with_random_changesets(seed, model)
            counts = assert_walk_matches_oracle(model, random_initial(model), seed)
            steps, changed = steps + counts[0], changed + counts[1]
        assert steps > 10_000 and changed >= 5


def assert_step_queries_match_the_oracle(model, config):
    """At every state of the space bounded at 2000 states, `enabled_detailed`
    of each component gives the transitions of that component's detailed
    steps in `naive_steps`, and `enabled_rules` the rules it fires, in
    order; returns the number of states and of enabled rules met."""
    states = decoded_states(explore_space(model, config, Bounds(max_states=2000)))
    rules = 0
    for m, c in states:
        steps = [identity for identity, _, _ in naive_steps(m, c)]
        for name in m.components:
            assert enabled_detailed(m, c, name) == {
                step[2] for step in steps if step[:2] == ("detailed", name)}
        enabled = enabled_rules(m, c)
        assert enabled == [m.rules[step[1]] for step in steps if step[0] == "rule"]
        rules += len(enabled)
    return len(states), rules


class TestStepQueriesMatchTheOracle:
    """`enabled_detailed` and `enabled_rules` read the labels of a state's
    step table entry, the one source of a state's steps outside the
    explorer."""

    def test_bundled_models(self, bundles, load_shop):
        systems = [(m, initial_configuration(m)) for m in (b.model() for b in bundles.values())]
        for model, config in systems + [load_shop()]:
            states, rules = assert_step_queries_match_the_oracle(model, config)
            assert states > 1 and rules > 0

    def test_random_models(self):
        states = rules = 0
        for seed in range(100):
            model = random_model(seed)
            if seed % 2:
                model = with_random_changesets(seed, model)
            counts = assert_step_queries_match_the_oracle(model, random_initial(model))
            states, rules = states + counts[0], rules + counts[1]
        assert states > 2000 and rules > 1000


class TestVersionsAreInts:
    """The premise that lets digest and step tables key a state by its
    slots, where 1, True and 1.0 compare equal: every state `explore_space`
    interns, and every configuration that `drive`, `replay` and
    `write_trace_jsonl` reach, has an int version."""

    def test_every_version_met_is_an_int(self, bundles, load_shop, count_calls):
        digested = count_calls(engine, "config_digest")
        systems = [(m, initial_configuration(m)) for m in (b.model() for b in bundles.values())]
        systems.append(load_shop())
        for seed in range(100):
            model = random_model(seed)
            if seed % 2:
                model = with_random_changesets(seed, model)
            systems.append((model, random_initial(model)))
        changed = 0
        for model, config in systems:
            space = explore_space(model, config, Bounds(max_states=500))
            assert all(type(slots[0]) is int for _, slots in space.states)
            walked = list(drive(model, config, RandomPolicy(0), 100))
            assert all(type(after.model_version) is int for _, _, after in walked)
            # on a new model object, whose step table `drive` did not fill
            trace = replay(replace(model), config, [label for label, _, _ in walked])
            assert type(trace.final_model_version) is int
            write_trace_jsonl(model, config, trace.steps, lambda line: None)
            changed += trace.final_model_version != config.model_version
        assert changed >= 5
        assert len(digested) > 5000
        assert all(type(config.model_version) is int for (config,) in digested)

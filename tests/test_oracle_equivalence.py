"""The engine's successor relation against the brute-force enumerator, and
the explorer's compiled predicates against `eval_predicate`."""

import random
from collections import Counter
from dataclasses import replace
from functools import partial

import pytest

from phasecoord.changeset import canonical_model
from phasecoord.engine import (
    NotEnabled,
    UnknownElement,
    RandomPolicy,
    RuleStep,
    config_digest,
    enabled_rules,
    fire_rule,
    replay,
    rule_blocker,
    run,
    successors,
)
from phasecoord.explorer import Bounds, explore, explore_space
from phasecoord.mcpal import McPalSkeleton, completion_test, load_migration, migration_complete
from phasecoord.changeset import ChangeSet
from phasecoord.model import (
    Configuration,
    ConsistencyRule,
    Partition,
    Phase,
    Std,
    StdModel,
    Transition,
    _configuration_diagnostics,
    initial_configuration,
    validate_configuration,
)
from phasecoord.properties import PropertyError, compile_predicate, eval_predicate

from tests.genmodels import (
    predicate_vocabulary,
    random_initial,
    random_model,
    random_predicate,
    with_random_changesets,
)
from tests.oracle import engine_successor_set, label_identity, naive_successors, walk_all_states


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
        loaded, started = load_migration(model, config, bundle.fragment())
        assert assert_agreement_everywhere(loaded, started) == 116


class TestBfsMinimality:
    def test_counterexample_depth_matches_oracle_bfs(self, bundles):
        # independent shortest-violation depth, computed purely over the
        # oracle's successor relation, against the explorer's counterexample
        from phasecoord.explorer import check_invariant, explore_space
        from phasecoord.model import (
            Configuration,
            ConsistencyRule,
            RoleTransfer,
            StdModel,
            Transition,
        )
        from phasecoord.properties import CountInState, eval_predicate

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
                    if not eval_predicate(pred, broken, succ_config):
                        oracle_min = depth[key]
                        break
                    nxt.append(succ_config)
                if oracle_min is not None:
                    break
            frontier = nxt
        result = check_invariant(explore_space(broken, config), pred)
        assert result.verdict == "violated"
        assert len(result.counterexample.steps) == oracle_min == 5


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
                        elif rule.change is not None and blocker.startswith("changeset rejected: "):
                            outcomes[blocker.split(": ")[1]] += 1
                    for _, m2, c2 in successors(m, c):
                        key = (canonical_model(m2), c2.key())
                        if key not in seen and len(seen) < 200:
                            seen.add(key)
                            following.append((m2, c2))
                frontier = following
        for outcome in ("applied", "live-phase-removal", "phase-violation", "duplicate-partition"):
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
            if name in ("phase-violation", "version-mismatch", "duplicate-partition",
                        "duplicate-phase"):
                # the root fits its layout, so `explore` reports it, with a
                # one-record trace: the root itself
                violations = [(prop, len(trace)) for prop, trace in explore(m, config).violations]
                assert violations == [("configuration-valid", 1)], name
        # a partition declared twice counts as its first declaration, in the
        # engine as in the oracle, so the second one's missing phase does not
        # hide Worker1's steps
        assert assert_agreement_everywhere(doubled, Configuration(detailed, phases, 0)) > 1
        # one partition declared twice, both times in force: one role slot,
        # and nothing for the full walk to report, at the root or after it
        twice = with_worker1_partitions(cs_role, cs_role)
        config = Configuration(detailed, phases, 0)
        assert validate_configuration(twice, config) == []
        assert explore(twice, config).violations == []

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
    """Seeded random predicates, compiled per model of the space, give what
    `eval_predicate` gives at every state, raise the same PropertyError at
    the same states, and so stop the same sweeps at the same state."""
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
            want = outcome(lambda: eval_predicate(pred, model, config))
            assert outcome(lambda: tests[space.states[idx][0]](slots)) == want, (pred, idx)
            raised += isinstance(want, tuple)
        compiled = partial(compile_predicate, pred)
        assert outcome(lambda: next(space.where(compiled), None)) == outcome(
            lambda: first_state(states, lambda m, c: eval_predicate(pred, m, c)))
        assert outcome(lambda: next(space.where(compiled, holds=False), None)) == outcome(
            lambda: first_state(states, lambda m, c: not eval_predicate(pred, m, c)))
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

    def test_completion_test_matches_migration_complete(self, bundles, shop_loaded):
        sk = McPalSkeleton()
        for model, config in (shop_loaded, (bundles["cs-nondet"].model(),
                                            initial_configuration(bundles["cs-nondet"].model()))):
            space = explore_space(model, config)
            states = decoded_states(space)
            for target in range(5):
                want = [idx for idx, (m, c) in enumerate(states)
                        if migration_complete(m, c, target, sk)]
                assert list(space.where(partial(completion_test, target_version=target))) == want

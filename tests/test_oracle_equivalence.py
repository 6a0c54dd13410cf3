"""The engine's successor relation against the brute-force enumerator."""

import pytest

from phasecoord.changeset import canonical_model
from phasecoord.engine import (
    NotEnabled,
    RandomPolicy,
    RuleStep,
    enabled_rules,
    fire_rule,
    replay,
    rule_blocker,
    run,
    successors,
)
from phasecoord.mcpal import load_migration
from phasecoord.model import initial_configuration

from tests.genmodels import random_initial, random_model
from tests.oracle import engine_successor_set, naive_successors, walk_all_states


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

"""Changesets, coordinator weaving, migration loading, scenario checks."""

import gc
import itertools
import random
import weakref

import pytest

from phasecoord import changeset as changeset_module
from phasecoord import model as model_module
from phasecoord.changeset import (
    ChangeSet,
    RejectedChange,
    apply_changeset,
    canonical_model,
    models_equal,
    validate_changeset,
)
from phasecoord.engine import (
    DetailedStep,
    RandomPolicy,
    RuleStep,
    UnknownElement,
    _core,
    _fire,
    fire_rule,
    rule_blocker,
    run,
    successors,
)
from phasecoord.dsl import parse_model, serialize_model
from phasecoord.explorer import Bounds, explore_space, reachable_projection
from phasecoord.mcpal import (
    FragmentInvalid,
    McPalNotHibernating,
    McPalSkeleton,
    NameCollision,
    is_hibernating,
    load_migration,
    weave_mcpal,
)
from phasecoord.model import (
    Configuration,
    ConsistencyRule,
    Diagnostic,
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

from tests.genmodels import break_model, random_initial, random_model, with_random_changesets
from tests.oracle import _naive_rule_result


class TestChangesets:
    def test_empty_changeset_is_identity_plus_version(self):
        model = random_model(1)
        config = random_initial(model)
        out_model, out_config = apply_changeset(model, config, ChangeSet())
        assert out_model.version == model.version + 1
        assert out_config.model_version == out_model.version
        assert canonical_model(replace(out_model, version=model.version)) == canonical_model(model)

    def test_a_version_bump_past_600_digits_is_rejected(self, bundles):
        # the .pdm reader takes at most 600 digits, so the bumped model
        # could not be written back
        model = replace(bundles["prodcons"].model(), version=10 ** 600 - 1)
        assert validate_model(model) == []
        with pytest.raises(RejectedChange) as err:
            apply_changeset(model, initial_configuration(model), ChangeSet())
        assert err.value.diagnostics == [Diagnostic("bad-version", "version", "longer than 600 digits")]

    def test_disjoint_rule_addition_validates(self, bundles):
        model = bundles["cs-nondet"].model()
        config = initial_configuration(model)
        extra = ConsistencyRule(
            "extra", "Scheduler", Transition("Idle", "grant1", "Busy1"),
            (RoleTransfer("Worker1", "CSRole", "Free", "asking", "Crit"),),
        )
        cs = ChangeSet(add_rules=(extra,))
        assert validate_changeset(model, config, cs) == []

    @pytest.mark.parametrize("change, expected", [
        (ChangeSet(add_partitions=(("Nobody", Partition("g", (Phase("g", frozenset({"A"}), frozenset()),),
                                                         "g")),)),
         ("unresolved-component", "changeset", "Nobody")),
        (ChangeSet(add_phases=(("Consumer", "Nowhere", Phase("g", frozenset({"Empty"}), frozenset())),)),
         ("unresolved-partition", "changeset", "Consumer.Nowhere")),
        (ChangeSet(add_traps=(("Consumer", "Supply", "Ask", Trap("triv", frozenset({"Empty"}))),)),
         ("reserved-trap-name", "changeset", "triv")),
    ], ids=["partition-of-no-component", "phase-of-no-partition", "trap-named-triv"])
    def test_a_clause_that_resolves_nothing_is_rejected(self, bundles, change, expected):
        model = bundles["prodcons"].model()
        with pytest.raises(RejectedChange) as err:
            apply_changeset(model, initial_configuration(model), change)
        assert [(d.code, d.owner, d.element) for d in err.value.diagnostics] == [expected]

    def test_live_phase_removal_rejected(self, bundles):
        model = bundles["cs-nondet"].model()
        config = initial_configuration(model)
        cs = ChangeSet(remove_phases=(("Worker1", "CSRole", "Free"),))
        diags = validate_changeset(model, config, cs)
        assert "live-phase-removal" in {d.code for d in diags}
        with pytest.raises(RejectedChange):
            apply_changeset(model, config, cs)

    def test_removal_fine_after_transfer(self, bundles):
        # rules of the superseded discipline may go once no role sits in
        # their phases; a scaffolding phase may go once it is unoccupied,
        # unreferenced, and not needed for the state cover
        model = bundles["cs-nondet"].model()
        config = initial_configuration(model)
        assert validate_changeset(
            model, config, ChangeSet(remove_rules=("admit1", "release1"))
        ) == []
        crit = model.components["Worker1"].partition_named("CSRole").phase_named("Crit")
        spare = Phase("Spare", crit.states, crit.transitions, crit.traps)
        m1, c1 = apply_changeset(
            model, config, ChangeSet(add_phases=(("Worker1", "CSRole", spare),))
        )
        assert validate_changeset(
            m1, c1, ChangeSet(remove_phases=(("Worker1", "CSRole", "Spare"),))
        ) == []

    def test_removal_blocked_by_remaining_reference(self, bundles):
        model = bundles["cs-nondet"].model()
        config = initial_configuration(model)
        cs = ChangeSet(remove_phases=(("Worker1", "CSRole", "Crit"),))
        diags = validate_changeset(model, config, cs)
        assert any(d.code in ("unresolved-phase", "trap-not-connecting") for d in diags)

    def test_apply_then_inverse_restores_structure(self, bundles):
        model = bundles["cs-nondet"].model()
        config = initial_configuration(model)
        rule = model.rules["admit1"]
        forward = ChangeSet(remove_rules=("admit1",))
        backward = ChangeSet(add_rules=(rule,))
        m1, c1 = apply_changeset(model, config, forward)
        m2, c2 = apply_changeset(m1, c1, backward)
        assert m2.version == model.version + 2
        assert canonical_model(replace(m2, version=model.version)) == canonical_model(model)

    def test_add_component_extends_configuration(self):
        model = random_model(4)
        config = random_initial(model)
        tick = Transition("z0", "tick", "z0")
        newcomp = Std("Z", frozenset({"z0"}), frozenset({"tick"}), frozenset({tick}), "z0")
        out_model, out_config = apply_changeset(model, config, ChangeSet(add_components=(newcomp,)))
        assert out_config.detailed["Z"] == "z0"
        assert validate_configuration(out_model, out_config) == []

    def test_add_partition_must_fit_live_state(self):
        # a partition whose initial phase excludes the current detailed state
        # cannot be added mid-run
        go = Transition("A", "go", "B")
        comp = Std("X", frozenset({"A", "B"}), frozenset({"go"}), frozenset({go}), "A")
        model = StdModel({"X": comp}, {}, {}, 0)
        config = initial_configuration(model)
        only_b = Partition("p", (Phase("pb", frozenset({"A", "B"}), frozenset({go})),), "pb")
        ok = validate_changeset(model, config, ChangeSet(add_partitions=(("X", only_b),)))
        assert ok == []
        bad_phase = Phase("pb", frozenset({"B"}), frozenset())
        cover = Phase("rest", frozenset({"A"}), frozenset())
        bad = Partition("p", (bad_phase, cover), "pb")
        diags = validate_changeset(model, config, ChangeSet(add_partitions=(("X", bad),)))
        assert any(d.code in ("phase-violation", "initial-state-outside-initial-phase")
                   for d in diags)

    def test_upsert_replaces_phase_and_rule(self, bundles):
        model = bundles["cs-nondet"].model()
        config = initial_configuration(model)
        crit = model.components["Worker1"].partition_named("CSRole").phase_named("Crit")
        widened = Phase("Free", frozenset({"OutCS", "Waiting"}),
                        frozenset({Transition("OutCS", "request", "Waiting")}),
                        (Trap("asking", frozenset({"Waiting"})),
                         Trap("parked", frozenset({"Waiting"})),))
        cs = ChangeSet(add_phases=(("Worker1", "CSRole", widened),))
        out_model, _ = apply_changeset(model, config, cs)
        part = out_model.components["Worker1"].partition_named("CSRole")
        assert {t.name for t in part.phase_named("Free").traps} == {"asking", "parked"}
        assert part.phase_named("Crit") == crit  # untouched sibling

    def test_validation_depends_only_on_phases_not_positions(self):
        # no-quiescence shape: moving detailed state within the same phases
        # never changes a changeset verdict
        model = random_model(8)
        config = random_initial(model)
        cs = ChangeSet(set_variables=(("x", 3),))
        base = [d.code for d in validate_changeset(model, config, cs)]
        for comp_name, std in model.components.items():
            phases = [
                std.partition_named(p).phase_named(config.phases[(comp_name, p)]).states
                for p in (part.name for part in std.partitions)
            ]
            allowed = set(std.states)
            for ph in phases:
                allowed &= ph
            for state in sorted(allowed):
                detailed = dict(config.detailed)
                detailed[comp_name] = state
                moved = Configuration(detailed, config.phases, config.model_version)
                assert [d.code for d in validate_changeset(model, moved, cs)] == base


def _uncached(model: StdModel) -> StdModel:
    """An equal model whose own object and components hold no cached facts."""
    return replace(model, components={n: replace(s) for n, s in model.components.items()})


class TestCachedModelFacts:
    """Facts kept per model object (see `phasecoord.model`) never go stale."""

    def assert_matches_fresh(self, model):
        fresh = _uncached(model)
        assert "canonical_model" not in fresh.__dict__
        assert canonical_model(model) is canonical_model(model)
        assert canonical_model(model) == canonical_model(fresh)
        assert model.claimed_steps == fresh.claimed_steps
        assert hash(canonical_model(model)) == hash(tuple(canonical_model(fresh)))
        assert model.component_order == fresh.component_order
        layout, fresh_layout = model.layout, fresh.layout
        assert (layout.owners, layout.names, layout.checks) == (
            fresh_layout.owners, fresh_layout.names, fresh_layout.checks)
        core, fresh_core = _core(model), _core(fresh)
        filled = [(slot, at, steps) for slot, _, table in core.free for at, steps in table.items()]
        assert filled
        for slot, at, steps in filled:
            assert fresh_core._fill(slot, at) == steps
        assert [(g.rule, g.label) for g in core.guards.values()] == [
            (g.rule, g.label) for g in fresh_core.guards.values()]
        for name, std in model.components.items():
            assert std.transitions_from == fresh.components[name].transitions_from
        assert model == fresh

    def test_bundled_models(self, bundles):
        for name, bundle in bundles.items():
            model = bundle.model()
            successors(model, initial_configuration(model))
            self.assert_matches_fresh(model)

    def test_models_of_the_flagship_exploration(self, shop_loaded):
        model, config = shop_loaded
        space = explore_space(model, config)
        assert len(space.models) > 1
        for m in space.models:
            self.assert_matches_fresh(m)

    def test_replaced_version_gets_its_own_canonical_form(self, shop_loaded):
        model, _ = shop_loaded
        before = canonical_model(model)
        bumped = replace(model, version=model.version + 1)
        assert canonical_model(bumped) == (model.version + 1,) + before[1:]
        assert canonical_model(model) == before
        assert bumped != model and not models_equal(bumped, model)

    def test_facts_of_reached_models_match_a_fresh_parse(self, bundles, shop_loaded):
        """Canonical forms and diagnostics are kept per component, rule and
        changeset object, which a changeset's result shares with its source.
        Every model reached, and one broken copy of each (which shares all
        but one component with it), agrees with a parse of its own text,
        whose objects are all new."""
        space = explore_space(*shop_loaded)
        components = [id(std) for m in space.models for std in m.components.values()]
        assert len(set(components)) < len(components)  # versions share components
        starts = [(bundle.model(), None) for bundle in bundles.values()] + [shop_loaded]
        for seed in range(100):
            starts.append((with_random_changesets(seed, random_model(seed)), None))
        rng = random.Random(5)
        broken = 0
        for model, config in starts:
            config = config or initial_configuration(model)
            for reached in explore_space(model, config, Bounds(max_states=300)).models:
                variant = break_model(rng, reached)
                for m in [reached] + ([variant[0]] if variant else []):
                    fresh = parse_model(serialize_model(m)).model
                    assert canonical_model(m) == canonical_model(fresh)
                    assert validate_model(m) == validate_model(fresh)
                if variant:
                    # a fact kept under a name rather than an object fails here
                    assert canonical_model(variant[0]) != canonical_model(reached)
                    assert validate_model(variant[0]) != validate_model(reached)
                    broken += 1
        assert broken > 100

    def test_owner_keyed_diagnostics_are_never_kept(self):
        """A component registered under a key other than its name: its own
        checks name the component, while name-mismatch and
        duplicate-partition name the key, whichever model saw it first."""
        phase = Phase("All", frozenset({"A"}), frozenset())
        std = Std("X", frozenset({"A"}), frozenset({"go"}),
                  frozenset({Transition("A", "go", "B")}), "A",
                  (Partition("P", (phase,), "All"), Partition("P", (phase,), "Gone")))
        for keys in (["X", "Y"], ["Y", "X"]):
            kept = replace(std)
            for key in keys:
                got = validate_model(StdModel({key: kept}, {}))
                assert got == validate_model(StdModel({key: replace(std)}, {}))
                assert {(d.code, d.owner) for d in got} == {
                    ("unknown-target", "X"), ("unknown-initial-phase", "X.P"),
                    ("duplicate-partition", key),
                } | ({("name-mismatch", "Y")} if key == "Y" else set())


def memo_model():
    """W's role r may sit in phase P or Q; M's rule `grow` removes Q and adds
    a partition s to W whose initial phase Sa holds only A.  So `grow`
    applies with W at A in P, hits a live phase removal with W in Q, and
    leaves W outside Sa with W at B.  The rule `drop` removes Q and then the
    whole role r: it applies unless W is in Q."""
    a, b = Transition("A", "a", "B"), Transition("B", "b", "A")
    go, back = Transition("I", "go", "J"), Transition("J", "back", "I")
    worker = Std("W", frozenset({"A", "B"}), frozenset({"a", "b"}), frozenset({a, b}), "A",
                 (Partition("r", (Phase("P", frozenset({"A", "B"}), frozenset({a, b})),
                                  Phase("Q", frozenset({"A", "B"}), frozenset())), "P"),))
    manager = Std("M", frozenset({"I", "J"}), frozenset({"go", "back"}),
                  frozenset({go, back}), "I")
    added = Partition("s", (Phase("Sa", frozenset({"A"}), frozenset()),
                            Phase("Sb", frozenset({"B"}), frozenset())), "Sa")
    grow = ConsistencyRule("grow", "M", go, change=ChangeSet(
        add_partitions=(("W", added),), remove_phases=(("W", "r", "Q"),)))
    drop = ConsistencyRule("drop", "M", go, change=ChangeSet(
        remove_phases=(("W", "r", "Q"),), remove_partitions=(("W", "r"),)))
    model = StdModel({"W": worker, "M": manager}, {"grow": grow, "drop": drop}, {}, 0)
    assert validate_model(model) == []
    return model


def memo_config(state, phase):
    return Configuration({"W": state, "M": "I"}, {("W", "r"): phase}, 0)


class TestRuleChangeMemo:
    """A rule's changeset is applied once per model object that owns the
    rule; later firings reuse the resulting model object and agree with a
    fresh model object that holds no result."""

    APPLIES = ("A", "P")
    LIVE_REMOVAL = ("A", "Q")
    MISFIT = ("B", "P")

    @staticmethod
    def outcome(model, config, name):
        """`rule_blocker`, then (canonical model, key) or the diagnostics
        of the changeset after the rule's transfers, through the engine."""
        rule = model.rules[name]
        blocker = rule_blocker(model, config, rule)
        guard = _core(model).guards[name]
        try:
            after_model, after = guard.changed(model, guard.apply(config.slots_in(model.layout)))
        except RejectedChange as exc:
            return blocker, exc.diagnostics
        return blocker, (canonical_model(after_model), after.key())

    @staticmethod
    def fresh_outcome(model, config, name):
        """The same through a new model object for each call, with the
        oracle's transfers and `apply_changeset`, which keeps nothing."""
        rule = model.rules[name]
        blocker = rule_blocker(replace(model), config, rule)
        moved = _naive_rule_result(model, config, rule)
        try:
            after_model, after = apply_changeset(replace(model), moved, rule.change)
        except RejectedChange as exc:
            return blocker, exc.diagnostics
        return blocker, (canonical_model(after_model), after.key())

    @pytest.mark.parametrize("order", list(itertools.permutations([APPLIES, LIVE_REMOVAL, MISFIT])))
    @pytest.mark.parametrize("name, outcomes", [
        ("grow", {None, "live-phase-removal", "phase-violation"}),
        ("drop", {None, "live-phase-removal"}),
    ])
    def test_outcomes_equal_a_fresh_model_in_every_order(self, name, outcomes, order):
        model = memo_model()
        seen = set()
        for state, phase in order + order:
            config = memo_config(state, phase)
            got = self.outcome(model, config, name)
            assert got == self.fresh_outcome(model, config, name)
            seen.add(got[0].split(":")[1].strip() if got[0] else None)
        assert seen == outcomes

    def test_one_resulting_model_object_validated_once(self, count_calls):
        model = memo_model()
        validations = count_calls(model_module, "validate_model")
        first, rejected, again, live = (
            _fire(model, memo_config(state, phase), model.rules["grow"])[1]
            for state, phase in (self.APPLIES, self.MISFIT, self.APPLIES, self.LIVE_REMOVAL))
        assert rejected is None and live is None
        assert first[0] is again[0]
        assert first[1] == again[1] and first[1]._layout is first[0].layout
        # the first firing validates the resulting model; the live removal
        # walks the whole changeset again, so it validates its own model
        assert [args[0].version for args in validations] == [1, 1]
        assert validations[0][0] is first[0] and validations[1][0] is not first[0]

    def test_a_rejection_leaves_no_reference_cycle(self):
        # `_StepCore.fire` returns the rejection; with its traceback, the
        # frames it holds would hold the caller's locals, and so the
        # rejection itself, in a cycle only the garbage collector frees
        model = memo_model()
        gc.collect()
        gc.disable()
        try:
            for state, phase in (self.LIVE_REMOVAL, self.MISFIT) * 2:
                config = memo_config(state, phase)
                assert rule_blocker(model, config, model.rules["grow"]).startswith(
                    "changeset rejected: ")
                successors(model, config)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_an_equal_rule_is_the_models_own_and_another_is_refused(self):
        model = memo_model()
        rule = replace(model.rules["grow"])  # equal, but not the model's own object
        config = memo_config(*self.APPLIES)
        first, again = fire_rule(model, config, rule), fire_rule(model, config, rule)
        assert first[0] is again[0] is _core(model).guards["grow"].memo.model
        # a rule the model does not hold, under its own name or another's,
        # is refused and keeps nothing
        model = memo_model()
        for other in (replace(rule, change=None), replace(rule, name="other")):
            for entry in (fire_rule, rule_blocker):
                with pytest.raises(UnknownElement, match=f"rule {other.name} is not the model's"):
                    entry(model, config, other)
        assert _core(model).guards["grow"].memo is None

    def test_loading_and_running_keep_no_model_alive(self, bundles):
        # a migration loaded and run 50 times on one base model leaves the
        # base model's facts and rule memos as the first round left them,
        # and every loaded model is freed
        bundle = bundles["shop-migration"]
        base = bundle.model()
        fragment = base.variables["ShopMigr"]
        config = initial_configuration(base)
        successors(base, config)  # the base model's step core, with its guards
        loaded = []
        for i in range(50):
            model, start = load_migration(base, config, fragment)
            run(model, start, RandomPolicy(i), 200)
            loaded.append(weakref.ref(model))
            if i == 0:
                facts = dict(base.__dict__)
                memos = {name: guard.memo for name, guard in _core(base).guards.items()}
            del model, start
        assert base.__dict__.keys() == facts.keys()
        assert all(base.__dict__[name] is fact for name, fact in facts.items())
        assert {name: guard.memo for name, guard in _core(base).guards.items()} == memos
        gc.collect()
        assert [ref for ref in loaded if ref() is not None] == []


class TestWeave:
    def test_weave_into_empty_model(self):
        woven = weave_mcpal(StdModel({}, {}, {}, 0))
        assert validate_model(woven) == []
        assert woven.component_names() == ["McPal"]
        assert set(woven.rules) == {"McPal_kickoff", "McPal_done", "McPal_hibernate"}
        assert isinstance(woven.variables["Crs"], ChangeSet)
        config = initial_configuration(woven)
        assert is_hibernating(woven, config)

    def test_weave_twice_collides(self):
        woven = weave_mcpal(StdModel({}, {}, {}, 0))
        with pytest.raises(NameCollision):
            weave_mcpal(woven)

    @pytest.mark.parametrize("rules, variables, message", [
        ((), {"Crs": 1}, "variable Crs"),
        (("McPal_done", "McPal_hibernate"), {}, "rules ['McPal_done', 'McPal_hibernate']"),
    ], ids=["variable", "rules"])
    def test_weave_into_taken_names_collides(self, bundles, rules, variables, message):
        host = bundles["prodcons"].model()
        rule = next(iter(host.rules.values()))
        host = replace(host, rules={**host.rules, **{name: replace(rule, name=name) for name in rules}},
                       variables={**host.variables, **variables})
        with pytest.raises(NameCollision) as err:
            weave_mcpal(host)
        assert str(err.value) == message

    def test_weave_claims_no_host_transition(self, bundles):
        host = bundles["prodcons"].model()
        woven = weave_mcpal(host)
        host_claims = {
            (r.manager, r.manager_step) for r in woven.rules.values()
            if r.manager != "McPal"
        }
        assert host_claims == {(r.manager, r.manager_step) for r in host.rules.values()}

    def test_weave_neutrality_on_host_projection(self, bundles):
        for name in ("prodcons", "cs-nondet"):
            host = bundles[name].model()
            sk = McPalSkeleton()
            woven = weave_mcpal(host, sk)
            assert validate_model(woven) == []
            hosts = sorted(host.components)
            plain = reachable_projection(explore_space(host, initial_configuration(host)), hosts)
            assert plain == reachable_projection(
                explore_space(woven, initial_configuration(woven)), hosts)

    def test_bundled_shop_equals_weave_of_its_host(self, bundles):
        shop = bundles["shop-migration"].model()
        host = StdModel(
            components={k: v for k, v in shop.components.items() if k != "McPal"},
            rules={k: v for k, v in shop.rules.items() if not k.startswith("McPal_")},
            variables={},
            version=0,
        )
        woven = weave_mcpal(host)
        expected = StdModel(
            components=shop.components,
            rules=shop.rules,
            variables={"Crs": ChangeSet()},
            version=0,
        )
        assert models_equal(woven, expected)


class TestLoadMigration:
    def test_load_binds_slot_and_variable(self, bundles):
        bundle = bundles["shop-migration"]
        model = bundle.model()
        config = initial_configuration(model)
        fragment = model.variables["ShopMigr"]
        loaded, new_config = load_migration(model, config, fragment)
        assert loaded.version == model.version + 1
        kick = loaded.rules["McPal_kickoff"]
        assert kick.change is not None
        assert canonical_model(loaded)  # still coherent
        assert loaded.variables["Crs"] == fragment
        # the bound clause also restores the pristine kick-off on firing
        restored = [r for r in kick.change.add_rules if r.name == "McPal_kickoff"]
        assert len(restored) == 1 and restored[0].change is None

    def test_load_requires_hibernation(self, bundles):
        bundle = bundles["shop-migration"]
        model = bundle.model()
        config = initial_configuration(model)
        model2, config2 = load_migration(model, config, ChangeSet())
        # fire the kick-off, then try to load mid-migration
        succ = successors(model2, config2)
        kicked = next(s for s in succ if isinstance(s[0], RuleStep) and s[0].rule == "McPal_kickoff")
        _, model3, config3 = kicked
        with pytest.raises(McPalNotHibernating):
            load_migration(model3, config3, ChangeSet())

    def test_load_invalid_fragment(self, bundles):
        bundle = bundles["shop-migration"]
        model = bundle.model()
        config = initial_configuration(model)
        broken = ChangeSet(remove_rules=("no-such-rule",))
        with pytest.raises(FragmentInvalid) as err:
            load_migration(model, config, broken)
        assert err.value.diagnostics == [Diagnostic("unknown-rule", "changeset", "no-such-rule")]

    def test_load_into_a_model_the_load_changeset_breaks(self, bundles):
        # the load changeset is applied to the whole model, which here holds
        # a variable no model may hold
        model = bundles["shop-migration"].model()
        broken = replace(model, variables={**model.variables, "v": "text"})
        with pytest.raises(FragmentInvalid) as err:
            load_migration(broken, initial_configuration(broken), ChangeSet())
        assert err.value.diagnostics == [Diagnostic("bad-variable-value", "v", "str")]

    def test_fragment_only_the_configuration_rejects(self, bundles):
        # the added partition is a valid model (Server's initial state Idle
        # lies in the initial phase Calm), but once Client1 enters and
        # `serve1` fires, Server sits at Busy1 while McPal still hibernates
        model = bundles["shop-migration"].model()
        config = initial_configuration(model)
        enter = DetailedStep("Client1", Transition("Out", "enter", "Waiting"))
        config = next(after for label, _, after in successors(model, config) if label == enter)
        busy = fire_rule(model, config, model.rules["serve1"])[1]
        extra = Partition("Extra", (Phase("Calm", frozenset({"Idle", "At1", "At2", "Busy2"}),
                                          frozenset()),
                                    Phase("Rush", frozenset({"Busy1"}), frozenset())), "Calm")
        with pytest.raises(FragmentInvalid) as err:
            load_migration(model, busy, ChangeSet(add_partitions=(("Server", extra),)))
        assert err.value.diagnostics == [
            Diagnostic("phase-violation", "Server", "Extra", "Busy1 not in Calm")]

    @pytest.mark.parametrize("fragment", [
        ChangeSet(remove_rules=("no-such-rule",)),
        ChangeSet(remove_phases=(("Server", "Evol", "NDet"),)),
    ], ids=["model-half", "live-phase-removal"])
    def test_failing_load_walks_its_fragment_once(self, bundles, count_calls, fragment):
        model = bundles["shop-migration"].model()
        walks = count_calls(changeset_module, "_apply")
        with pytest.raises(FragmentInvalid):
            load_migration(model, initial_configuration(model), fragment)
        # the load binds the fragment, then its trial firing walks it once
        assert len(walks) == 2

    def test_identity_migration_cycles_home(self, bundles):
        bundle = bundles["shop-migration"]
        model = bundle.model()
        config = initial_configuration(model)
        model1, config1 = load_migration(model, config, ChangeSet())
        # walk the coordinator-only path: kickoff, done, hibernate
        for rule_name in ("McPal_kickoff", "McPal_done", "McPal_hibernate"):
            succ = successors(model1, config1)
            step = next(
                s for s in succ if isinstance(s[0], RuleStep) and s[0].rule == rule_name
            )
            _, model1, config1 = step
        assert is_hibernating(model1, config1)
        assert model1.version == model.version + 2  # load bump + kick-off bump
        assert model1.rules["McPal_kickoff"].change is None  # slot consumed

    def test_kickoff_exposes_new_rules_immediately(self, shop_loaded):
        model, config = shop_loaded
        kicked = next(
            s for s in successors(model, config)
            if isinstance(s[0], RuleStep) and s[0].rule == "McPal_kickoff"
        )
        label, m2, c2 = kicked
        assert label.changed
        assert m2.version == model.version + 1
        assert "ShopMigr_begin" in m2.rules
        from phasecoord.engine import enabled_rules

        assert "ShopMigr_begin" in [r.name for r in enabled_rules(m2, c2)]

    def test_shop_migration_shrinks_model(self, shop_loaded):
        model, config = shop_loaded
        space = explore_space(model, config)
        versions = [space.state(i).model_version for i in range(space.state_count())]
        final = max(versions)
        assert final == 3
        final_models = {
            id(space.models[m]): space.models[m]
            for (m, _), version in zip(space.states, versions)
            if version == final
        }
        assert len({canonical_model(m) for m in final_models.values()}) == 1
        final_model = next(iter(final_models.values()))
        # scaffolding gone, round-robin installed, default path restored
        assert set(final_model.rules) == {
            "serveRR1", "serveRR2", "releaseRR1", "releaseRR2",
            "McPal_kickoff", "McPal_done", "McPal_hibernate",
        }
        evol = final_model.components["Server"].partition_named("Evol")
        assert {p.name for p in evol.phases} == {"NDet", "RoRo"}
        assert final_model.variables["Crs"] == ChangeSet()
        assert validate_model(final_model) == []

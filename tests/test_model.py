"""Domain-type validators: examples, closure properties, conjunction law."""

import pickle
import random
from functools import partial

import pytest

from phasecoord.explorer import Bounds, explore_space
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
    consistent,
    initial_configuration,
    is_connecting,
    replace,
    validate_configuration,
    validate_model,
    validate_std,
    validate_trap,
)

from tests.genmodels import (
    break_model,
    close_forward,
    random_initial,
    random_model,
    with_random_changesets,
)


def std(states, transitions, initial, partitions=()):
    ts = frozenset(Transition(*t) for t in transitions)
    return Std(
        name="X",
        states=frozenset(states),
        actions=frozenset(t.action for t in ts),
        transitions=ts,
        initial=initial,
        partitions=tuple(partitions),
    )


def phase(name, states, transitions, traps=()):
    return Phase(
        name,
        frozenset(states),
        frozenset(Transition(*t) for t in transitions),
        tuple(Trap(n, frozenset(s)) for n, s in traps),
    )


class TestValidateStd:
    def test_minimal_well_formed(self):
        assert validate_std(std({"A", "B"}, [("A", "go", "B")], "A")) == []

    def test_dangling_target(self):
        diags = validate_std(std({"A"}, [("A", "go", "B")], "A"))
        assert [d.code for d in diags] == ["unknown-target"]
        assert diags[0].element == "B"

    def test_initial_not_a_state(self):
        diags = validate_std(std({"A", "B"}, [], "C"))
        assert [d.code for d in diags] == ["initial-not-a-state"]
        assert diags[0].element == "C"


class TestValidateTrap:
    def test_closed_trap(self):
        ph = phase("S", {"A", "B"}, [("A", "go", "B")])
        assert validate_trap(ph, Trap("done", frozenset({"B"}))) == []

    def test_exit_detected(self):
        ph = phase("S", {"A", "B"}, [("A", "go", "B")])
        diags = validate_trap(ph, Trap("t", frozenset({"A"})))
        assert [d.code for d in diags] == ["trap-not-closed"]
        assert "(A,go,B)" in diags[0].detail

    def test_trivial_trap_always_valid(self):
        ph = phase("S", {"A", "B"}, [("A", "go", "B")])
        assert validate_trap(ph, Trap(TRIV, frozenset({"A", "B"}))) == []


class TestConnecting:
    def test_trap_inside_target(self):
        trap = Trap("t", frozenset({"B"}))
        assert is_connecting(trap, phase("S", {"A", "B"}, []), phase("T", {"B", "C"}, []))

    def test_trap_not_inside_target(self):
        trap = Trap("t", frozenset({"A", "B"}))
        assert not is_connecting(trap, phase("S", {"A", "B"}, []), phase("T", {"B", "C"}, []))

    def test_self_loop_transfer(self):
        source = phase("S", {"A", "B"}, [])
        assert is_connecting(Trap("t", frozenset({"B"})), source, source)

    def test_triv_connecting_iff_state_subset(self):
        rng = random.Random(5)
        for _ in range(200):
            a = frozenset(f"s{i}" for i in range(rng.randint(1, 5)) if rng.random() < 0.8) or frozenset({"s0"})
            b = frozenset(f"s{i}" for i in range(rng.randint(1, 5)) if rng.random() < 0.8) or frozenset({"s0"})
            src, tgt = phase("S", a, []), phase("T", b, [])
            assert is_connecting(Trap(TRIV, a), src, tgt) == (a <= b)


class TestClosureMonotonicity:
    def test_closure_survives_transition_removal(self):
        # any valid trap stays valid in the phase with any transition subset
        rng = random.Random(11)
        for seed in range(150):
            model = random_model(seed)
            for comp in model.components.values():
                for part in comp.partitions:
                    for ph in part.phases:
                        for trap in (ph.trap_named(TRIV), *ph.traps):
                            assert validate_trap(ph, trap) == []
                            kept = frozenset(
                                t for t in ph.transitions if rng.random() < 0.5
                            )
                            thinner = Phase(ph.name, ph.states, kept, ph.traps)
                            assert validate_trap(thinner, trap) == []


def elementwise_accepts(model):
    """Independent recomposition: the conjunction of every element-level
    invariant, used to pin down validate_model as exactly that conjunction."""
    for name, comp in model.components.items():
        if comp.name != name or validate_std(comp):
            return False
        part_names = [p.name for p in comp.partitions]
        if len(part_names) != len(set(part_names)):
            return False
        for part in comp.partitions:
            phase_names = [p.name for p in part.phases]
            if len(phase_names) != len(set(phase_names)):
                return False
            covered = set()
            for ph in part.phases:
                covered |= ph.states
                if not ph.states or not ph.states <= comp.states:
                    return False
                if not ph.transitions <= comp.transitions:
                    return False
                if any(t.source not in ph.states or t.target not in ph.states
                       for t in ph.transitions):
                    return False
                trap_names = [t.name for t in ph.traps]
                if len(trap_names) != len(set(trap_names)) or TRIV in trap_names:
                    return False
                for trap in ph.traps:
                    if not trap.states or not trap.states <= ph.states:
                        return False
                    if validate_trap(ph, trap):
                        return False
            if covered != comp.states:
                return False
            init = part.phase_named(part.initial)
            if init is None or comp.initial not in init.states:
                return False
    for name, rule in model.rules.items():
        if rule.name != name:
            return False
        mgr = model.components.get(rule.manager)
        if mgr is None or rule.manager_step not in mgr.transitions:
            return False
        roles = set()
        for tr in rule.transfers:
            if (tr.component, tr.partition) in roles:
                return False
            roles.add((tr.component, tr.partition))
            comp = model.components.get(tr.component)
            part = comp.partition_named(tr.partition) if comp else None
            src = part.phase_named(tr.source) if part else None
            tgt = part.phase_named(tr.target) if part else None
            if src is None or tgt is None:
                return False
            trap = src.trap_named(tr.trap)
            if trap is None or not is_connecting(trap, src, tgt):
                return False
    for value in model.variables.values():
        if not isinstance(value, (int, object)):
            return False
    return True


class TestValidateModelConjunction:
    def test_generated_models_are_valid(self):
        for seed in range(300):
            model = random_model(seed)
            diags = validate_model(model)
            assert diags == [], f"seed {seed}: {diags}"
            assert elementwise_accepts(model)

    def test_broken_models_rejected_both_ways(self):
        rng = random.Random(23)
        broken = 0
        for seed in range(300):
            model = random_model(seed)
            result = break_model(rng, model)
            if result is None:
                continue
            mutated, kind = result
            assert validate_model(mutated) != [], kind
            assert not elementwise_accepts(mutated), kind
            broken += 1
        assert broken > 150

    def test_rule_with_unknown_phase(self):
        base = random_model(3)
        comp = sorted(base.components)[0]
        t = sorted(base.components[comp].transitions)
        rule = ConsistencyRule(
            "bad", comp,
            t[0] if t else Transition("s0", "a0", "s0"),
            (RoleTransfer(comp, "p0", "ghost", TRIV, "ghost"),),
        )
        rules = dict(base.rules)
        rules["bad"] = rule
        mutated = StdModel(base.components, rules, base.variables, base.version)
        codes = {d.code for d in validate_model(mutated)}
        assert codes & {"unresolved-phase", "unresolved-partition", "unresolved-transition"}

    def test_uncovered_state_reported(self):
        ph = phase("only", {"A"}, [])
        part = Partition("p", (ph,), "only")
        comp = Std("X", frozenset({"A", "B"}), frozenset(), frozenset(), "A", (part,))
        model = StdModel({"X": comp}, {}, {}, 0)
        assert "uncovered-state" in {d.code for d in validate_model(model)}

    def test_diagnostics_deterministically_ordered(self):
        rng = random.Random(7)
        for seed in range(40):
            result = break_model(rng, random_model(seed))
            if result is None:
                continue
            mutated, _ = result
            a = validate_model(mutated)
            b = validate_model(mutated)
            assert [str(d) for d in a] == [str(d) for d in b]
            assert a == sorted(a, key=lambda d: d.sort_key())


def one_part(*phases):
    return Partition("p", tuple(phases), phases[0].name)


def alone(component, name="X", rules=None, variables=None):
    """A model of one component, under `name`."""
    return StdModel({name: component}, rules or {}, variables or {}, 0)


# X with one role p, phase pa holding both states and the one step
X_GO = std({"A", "B"}, [("A", "go", "B")], "A",
           [one_part(phase("pa", {"A", "B"}, [("A", "go", "B")]))])
GO = Transition("A", "go", "B")
TRANSFER = RoleTransfer("X", "p", "pa", TRIV, "pa")


@pytest.mark.parametrize("model, expected", [
    (alone(replace(X_GO, actions=frozenset())), ("unknown-action", "X", "go")),
    (alone(std({"A"}, [], "A", [one_part(phase("pa", {"A"}, []), phase("pe", set(), []))])),
     ("empty-phase", "X.p.pe", "")),
    (alone(std({"A"}, [], "A", [one_part(phase("pa", {"A"}, [], [("t", {"A"})] * 2))])),
     ("duplicate-trap", "X.p.pa", "t")),
    (alone(std({"A"}, [], "A", [one_part(phase("pa", {"A"}, [], [("t", set())]))])),
     ("empty-trap", "X.p.pa", "t")),
    (alone(std({"A"}, [], "A", [one_part(*[phase("pa", {"A"}, [])] * 2)])),
     ("duplicate-phase", "X.p", "pa")),
    (alone(X_GO, rules={"r": ConsistencyRule("r", "X", GO, (TRANSFER, TRANSFER))}),
     ("duplicate-transfer-target", "r", "X(p)")),
    (alone(X_GO, rules={"r": ConsistencyRule("r", "X", GO, (replace(TRANSFER, trap="nope"),))}),
     ("unresolved-trap", "r", "pa.nope")),
    (alone(X_GO, rules={"r": ConsistencyRule("s", "X", GO)}), ("name-mismatch", "r", "s")),
    (alone(X_GO, name="Y"), ("name-mismatch", "Y", "X")),
    (alone(X_GO, variables={"v": "text"}), ("bad-variable-value", "v", "str")),
    # an int variable or a version that the .pdm form cannot write back
    (alone(X_GO, variables={"v": True}), ("bad-variable-value", "v", "bool")),
    (alone(X_GO, variables={"v": -3}), ("bad-variable-value", "v", "negative")),
    (replace(alone(X_GO), version=-1), ("bad-version", "version", "negative")),
    (replace(alone(X_GO), version=True), ("bad-version", "version", "bool")),
    (replace(alone(X_GO), version=1.0), ("bad-version", "version", "float")),
    (replace(alone(X_GO), version="1"), ("bad-version", "version", "str")),
    (alone(X_GO, variables={"v": 10 ** 600}), ("bad-variable-value", "v", "longer than 600 digits")),
    (replace(alone(X_GO), version=10 ** 600), ("bad-version", "version", "longer than 600 digits")),
], ids=["unknown-action", "empty-phase", "duplicate-trap", "empty-trap", "duplicate-phase",
        "duplicate-transfer-target", "unresolved-trap", "rule-name-mismatch",
        "component-name-mismatch", "bad-variable-value", "bool-variable", "negative-variable",
        "negative-version", "bool-version", "float-version", "str-version", "long-variable",
        "long-version"])
def test_validate_model_names_the_fault(model, expected):
    assert [(d.code, d.owner, d.element) for d in validate_model(model)] == [expected]


class TestValidateConfiguration:
    def test_initial_configuration_valid(self):
        for seed in range(100):
            model = random_model(seed)
            assert validate_configuration(model, random_initial(model)) == []

    def test_every_accepted_model_starts_consistent(self, bundles, shop_loaded):
        """`validate_model` checks every initial state and phase, so a model
        it accepts starts consistent, and a run's start (`cli._start`) is
        not validated again."""
        models = [bundle.model() for bundle in bundles.values()] + [shop_loaded[0]]
        for seed in range(300):
            model = random_model(seed)
            models.append(with_random_changesets(seed, model) if seed % 2 else model)
        for model in models:
            assert validate_model(model) == []
            assert validate_configuration(model, initial_configuration(model)) == []

    def test_every_reached_state_is_consistent(self, bundles, shop_loaded):
        """No step of a model that `validate_model` accepts breaks consistency,
        so the engine tests no free step: every reached state of the bounded
        spaces of the bundled models, the loaded shop and generated models
        (half with changesets) passes `model.consistent`."""
        starts = [(m, initial_configuration(m)) for m in
                  [bundle.model() for bundle in bundles.values()]] + [shop_loaded]
        for seed in range(300):
            model = random_model(seed)
            model = with_random_changesets(seed, model) if seed % 2 else model
            starts.append((model, initial_configuration(model)))
        reached = 0
        for model, config in starts:
            assert validate_model(model) == []
            space = explore_space(model, config, Bounds(max_states=2000))
            assert list(space.where(lambda m: partial(consistent, m), holds=False)) == []
            reached += space.state_count()
        assert reached > 5000

    def test_detailed_state_outside_phase(self):
        ph_a = phase("pa", {"A"}, [])
        ph_b = phase("pb", {"A", "B"}, [("A", "go", "B")])
        part = Partition("p", (ph_a, ph_b), "pa")
        comp = std({"A", "B"}, [("A", "go", "B")], "A", [part])
        model = StdModel({"X": comp}, {}, {}, 0)
        assert validate_model(model) == []
        config = Configuration({"X": "B"}, {("X", "p"): "pa"}, 0)
        diags = validate_configuration(model, config)
        assert [d.code for d in diags] == ["phase-violation"]
        assert diags[0].owner == "X" and diags[0].element == "p"

    def test_unresolved_phase_reference(self):
        model = StdModel(
            {"X": std({"A"}, [], "A", [Partition("p", (phase("pa", {"A"}, []),), "pa")])},
            {}, {}, 0,
        )
        config = Configuration({"X": "A"}, {("X", "p"): "removed"}, 0)
        assert "unresolved-phase" in {d.code for d in validate_configuration(model, config)}

    def test_version_mismatch(self):
        model = StdModel({"X": std({"A"}, [], "A")}, {}, {}, 3)
        config = Configuration({"X": "A"}, {}, 2)
        assert [d.code for d in validate_configuration(model, config)] == ["version-mismatch"]


class TestConfiguration:
    """A configuration is its canonical key."""

    def test_key_is_sorted_whatever_the_insertion_order(self):
        a = Configuration({"Y": "B", "X": "A"}, {("Y", "p"): "q", ("X", "p"): "r"}, 2)
        b = Configuration({"X": "A", "Y": "B"}, {("X", "p"): "r", ("Y", "p"): "q"}, 2)
        assert a.key() == (2, (("X", "A"), ("Y", "B")), ((("X", "p"), "r"), (("Y", "p"), "q")))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Configuration({"X": "A", "Y": "B"}, {("X", "p"): "r", ("Y", "p"): "q"}, 3)
        assert a.model_version == 2 and a.phases[("Y", "p")] == "q"
        assert Configuration.from_key(a.key()) == a

    def test_mappings_are_read_only_views_of_the_key(self):
        detailed = {"X": "A"}
        config = Configuration(detailed, {}, 0)
        detailed["X"] = "B"
        assert config.detailed == {"X": "A"}
        with pytest.raises(TypeError):
            config.detailed["X"] = "B"
        with pytest.raises(TypeError):
            config.phases[("X", "p")] = "q"

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_a_version_that_is_not_an_int_is_refused(self, version):
        with pytest.raises(TypeError, match="is not an int"):
            Configuration({"X": "A"}, {("X", "p"): "q"}, version)
        with pytest.raises(TypeError, match="is not an int"):  # the unpickle path
            Configuration.from_key((version, (("X", "A"),), ((("X", "p"), "q"),)))

    def test_repr_and_pickle(self):
        config = Configuration({"X": "A"}, {("X", "p"): "q"}, 1)
        assert repr(config) == "Configuration(detailed={'X': 'A'}, phases={('X', 'p'): 'q'}, model_version=1)"
        assert pickle.loads(pickle.dumps(config)) == config

    def test_slot_layout_encodes_and_decodes_the_pair_key(self):
        def two_phase_std(name):
            part = Partition("p", (phase("q", {"A", "B"}, []), phase("r", {"B"}, [])), "q")
            return Std(name, frozenset({"B", "A"}), frozenset(), frozenset(), "A", (part,))

        model = StdModel({"Y": two_phase_std("Y"), "X": two_phase_std("X")}, {}, {}, 2)
        layout = model.layout
        assert layout is model.layout
        assert layout.owners == (None, "X", "Y", ("X", "p"), ("Y", "p")) and layout.role_base == 3
        assert layout.names == (None, ("A", "B"), ("A", "B"), ("q", "r"), ("q", "r"))
        config = Configuration({"Y": "B", "X": "A"}, {("Y", "p"): "r", ("X", "p"): "q"}, 2)
        slots = layout.encode(config.key())
        assert slots == (2, 0, 1, 0, 1) and layout.decode(slots) == config.key()
        # a successor replaces one slot; its pair key follows
        moved = Configuration.from_slots(layout, slots[:1] + (1,) + slots[2:])
        assert moved == Configuration({"X": "B", "Y": "B"}, {("X", "p"): "q", ("Y", "p"): "r"}, 2)
        assert moved._layout is layout and moved.slots_in(layout) == (2, 1, 1, 0, 1)
        for key in [(2, (("X", "A"),), config.key()[2]),
                    (2, config.key()[1] + (("Z", "A"),), config.key()[2]),
                    (2, (("X", "C"), ("Y", "B")), config.key()[2]),
                    (2, config.key()[1], ((("X", "p"), "q"), (("Y", "p"), "s")))]:
            assert layout.encode(key) is None and layout.misfit(key)
        assert layout.misfit(config.key()) == ""


class TestTrivReserved:
    def test_declared_triv_rejected(self):
        ph = Phase("p", frozenset({"A"}), frozenset(), (Trap(TRIV, frozenset({"A"})),))
        part = Partition("p", (ph,), "p")
        comp = Std("X", frozenset({"A"}), frozenset(), frozenset(), "A", (part,))
        model = StdModel({"X": comp}, {}, {}, 0)
        assert "reserved-trap-name" in {d.code for d in validate_model(model)}

    def test_triv_always_available(self):
        ph = phase("p", {"A", "B"}, [("A", "go", "B")])
        assert ph.trap_named(TRIV).states == ph.states


def test_bundled_models_validate(bundles):
    for name, bundle in bundles.items():
        result = bundle.parse()
        assert result.ok, f"{name}: {result.diagnostics}"
        config = initial_configuration(result.model)
        assert validate_configuration(result.model, config) == []


def test_close_forward_produces_closed_traps():
    rng = random.Random(2)
    for seed in range(100):
        model = random_model(seed)
        for comp in model.components.values():
            for part in comp.partitions:
                for ph in part.phases:
                    seed_states = {rng.choice(sorted(ph.states))}
                    trap = Trap("x", close_forward(seed_states, ph.transitions))
                    assert validate_trap(ph, trap) == []

"""Seeded random generation of small valid models, plus targeted breakage.

Valid by construction: phase states are patched to cover the component,
traps are forward-closed before naming, transfer traps are chosen so they
connect into the target phase (the source phase itself always qualifies).
"""

import random
from dataclasses import replace

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
    Trap,
)
from phasecoord.properties import (
    COMPARATORS,
    And,
    CountInState,
    InPhase,
    InState,
    ModelVersionIs,
    Not,
    Or,
)


def close_forward(states, transitions):
    """Smallest trap containing `states`: chase transitions to a fixpoint."""
    out = set(states)
    changed = True
    while changed:
        changed = False
        for t in transitions:
            if t.source in out and t.target not in out:
                out.add(t.target)
                changed = True
    return frozenset(out)


def random_phase(rng, name, states, transitions, must_include=None):
    pool = sorted(states)
    chosen = {s for s in pool if rng.random() < 0.6}
    if must_include:
        chosen |= set(must_include)
    if not chosen:
        chosen = {rng.choice(pool)}
    # sorted, so the draws below follow one order under every PYTHONHASHSEED
    induced = [t for t in sorted(transitions) if t.source in chosen and t.target in chosen]
    kept = frozenset(t for t in induced if rng.random() < 0.8)
    traps = []
    for k in range(rng.randint(0, 2)):
        seed = {rng.choice(sorted(chosen))}
        closed = close_forward(seed, kept)
        trap = Trap(f"t{k}", closed)
        if all(existing.states != closed for existing in traps):
            traps.append(trap)
    return Phase(name=name, states=frozenset(chosen), transitions=kept, traps=tuple(traps))


def random_std(rng, name, max_states=6, max_phases=3):
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    initial = states[0]
    actions = [f"a{i}" for i in range(rng.randint(1, 3))]
    transitions = set()
    for _ in range(rng.randint(0, 2 * n)):
        transitions.add(
            Transition(rng.choice(states), rng.choice(actions), rng.choice(states))
        )
    transitions = frozenset(transitions)
    # the textual format derives the action alphabet from the transitions, so
    # generated models carry no unused labels
    actions = sorted({t.action for t in transitions})
    partitions = []
    for p in range(rng.randint(0, 2)):
        count = rng.randint(1, max_phases)
        phases = [
            random_phase(rng, f"ph{i}", states, transitions,
                         must_include=[initial] if i == 0 else None)
            for i in range(count)
        ]
        covered = set()
        for ph in phases:
            covered |= ph.states
        missing = set(states) - covered
        if missing:
            ph = phases[rng.randrange(len(phases))]
            merged = ph.states | missing
            induced = frozenset(
                t for t in ph.transitions if t.source in merged and t.target in merged
            )
            phases[phases.index(ph)] = Phase(ph.name, frozenset(merged), induced, ph.traps)
        partitions.append(Partition(name=f"p{p}", phases=tuple(phases), initial="ph0"))
    return Std(
        name=name,
        states=frozenset(states),
        actions=frozenset(actions),
        transitions=transitions,
        initial=initial,
        partitions=tuple(partitions),
    )


def random_rule(rng, name, model):
    manager = rng.choice(sorted(model.components))
    mgr = model.components[manager]
    if not mgr.transitions:
        return None
    step = rng.choice(sorted(mgr.transitions))
    transfers = []
    used = set()
    for _ in range(rng.randint(0, 2)):
        comp_name = rng.choice(sorted(model.components))
        std = model.components[comp_name]
        if not std.partitions:
            continue
        part = rng.choice(std.partitions)
        if (comp_name, part.name) in used:
            continue
        used.add((comp_name, part.name))
        source = rng.choice(part.phases)
        candidates = []
        for trap in source.all_traps():
            for target in part.phases:
                if trap.states <= target.states:
                    candidates.append((trap.name, target.name))
        trap_name, target_name = rng.choice(candidates)  # source itself always connects
        transfers.append(
            RoleTransfer(comp_name, part.name, source.name, trap_name, target_name)
        )
    return ConsistencyRule(
        name=name, manager=manager, manager_step=step, transfers=tuple(transfers)
    )


def random_model(seed, max_components=4, max_states=6, max_phases=3, max_rules=4):
    rng = random.Random(seed)
    n = rng.randint(1, max_components)
    components = {}
    for i in range(n):
        std = random_std(rng, f"C{i}", max_states, max_phases)
        components[std.name] = std
    model = StdModel(components=components, rules={}, variables={}, version=0)
    rules = {}
    for i in range(rng.randint(0, max_rules)):
        rule = random_rule(rng, f"r{i}", model)
        if rule is not None:
            rules[rule.name] = rule
    if rng.random() < 0.3:
        variables = {"limit": rng.randint(0, 9)}
    else:
        variables = {}
    return StdModel(components=components, rules=rules, variables=variables, version=0)


def random_initial(model):
    """The canonical startup configuration; always valid for generated models
    because phase ph0 of every partition contains the initial state."""
    detailed = {name: std.initial for name, std in model.components.items()}
    phases = {
        (name, part.name): part.initial
        for name, std in model.components.items()
        for part in std.partitions
    }
    return Configuration(detailed=detailed, phases=phases, model_version=model.version)


# -- targeted breakage ---------------------------------------------------------

def _replace_component(model, std):
    comps = dict(model.components)
    comps[std.name] = std
    return StdModel(components=comps, rules=model.rules,
                    variables=model.variables, version=model.version)


def break_model(rng, model):
    """One random invalidating mutation; returns (mutated, kind) or None when
    the chosen mutation does not apply to this model."""
    kind = rng.choice(
        ["dangling-target", "bad-initial", "foreign-phase-state",
         "open-trap", "ghost-phase-rule", "uncovered-state"]
    )
    comps = sorted(model.components)
    name = rng.choice(comps)
    std = model.components[name]

    if kind == "dangling-target":
        if not std.actions:
            return None
        t = Transition(std.initial, sorted(std.actions)[0], "nowhere")
        return _replace_component(model, replace(std, transitions=std.transitions | {t})), kind
    if kind == "bad-initial":
        return _replace_component(model, replace(std, initial="nowhere")), kind
    if kind == "foreign-phase-state":
        for part in std.partitions:
            for phase in part.phases:
                bad = Phase(phase.name, phase.states | {"alien"}, phase.transitions, phase.traps)
                phases = tuple(bad if p.name == phase.name else p for p in part.phases)
                part2 = Partition(part.name, phases, part.initial)
                parts = tuple(part2 if p.name == part.name else p for p in std.partitions)
                return _replace_component(model, replace(std, partitions=parts)), kind
        return None
    if kind == "open-trap":
        for part in std.partitions:
            for phase in part.phases:
                for t in sorted(phase.transitions):
                    if t.source != t.target:
                        bad = Trap("open", frozenset({t.source}))
                        if t.target in close_forward({t.source}, phase.transitions) - {t.source}:
                            new_phase = Phase(phase.name, phase.states,
                                              phase.transitions, phase.traps + (bad,))
                            phases = tuple(new_phase if p.name == phase.name else p
                                           for p in part.phases)
                            part2 = Partition(part.name, phases, part.initial)
                            parts = tuple(part2 if p.name == part.name else p
                                          for p in std.partitions)
                            return _replace_component(model, replace(std, partitions=parts)), kind
        return None
    if kind == "ghost-phase-rule":
        rule = ConsistencyRule(
            name="ghost",
            manager=name,
            manager_step=sorted(std.transitions)[0] if std.transitions else
            Transition(std.initial, "x", std.initial),
            transfers=(RoleTransfer(name, "p0", "missing", "triv", "missing"),),
        )
        rules = dict(model.rules)
        rules["ghost"] = rule
        return StdModel(components=model.components, rules=rules,
                        variables=model.variables, version=model.version), kind
    if kind == "uncovered-state":
        if not std.partitions:
            return None
        return _replace_component(model, replace(std, states=std.states | {"orphan"})), kind
    return None


def random_changeset(rng, model):
    """A changeset over `model`'s own elements that, fired at different
    configurations, sometimes applies and sometimes is rejected: it may remove
    a phase (live in some configurations, still referenced by a rule in some
    models), add a partition whose initial phase holds the component's initial
    state but not every state, add a component, or remove a partition, maybe
    with one of its phases; each also sets a variable."""
    comps = sorted(model.components)
    roles = [(c, part) for c in comps for part in model.components[c].partitions]
    kind = rng.randrange(5)
    change = {"set_variables": (("n", rng.randrange(3)),)}
    if roles and kind in (0, 4):
        comp, part = rng.choice(roles)
        change["remove_phases"] = ((comp, part.name, rng.choice(part.phases).name),)
    if kind in (1, 4):
        std = model.components[rng.choice(comps)]
        rest = sorted(std.states - {std.initial})
        cut = rng.randint(0, len(rest) // 2)
        phases = (Phase("gA", frozenset([std.initial, *rest[:cut]]), frozenset()),
                  Phase("gB", frozenset(rest[cut:] or [std.initial]), frozenset()))
        change["add_partitions"] = ((std.name, Partition("g", phases, "gA")),)
    if kind == 2:
        tick = Transition("z0", "tick", "z1")
        change["add_components"] = (
            Std("Z", frozenset({"z0", "z1"}), frozenset({"tick"}), frozenset({tick}), "z0"),)
    if roles and kind == 3:
        comp, part = rng.choice(roles)
        change["remove_partitions"] = ((comp, part.name),)
        if rng.random() < 0.5:
            change["remove_phases"] = ((comp, part.name, rng.choice(part.phases).name),)
    return ChangeSet(**change)


def with_random_changesets(seed, model):
    """`model` with about half of its rules carrying a `random_changeset`."""
    rng = random.Random(seed)
    rules = {
        name: replace(rule, change=random_changeset(rng, model)) if rng.random() < 0.5 else rule
        for name, rule in sorted(model.rules.items())
    }
    return replace(model, rules=rules)


# -- predicates ----------------------------------------------------------------

def predicate_vocabulary(models):
    """Components, their states, roles and phases across `models`, each list
    with names no model knows added: (components, states, roles, phases)."""
    states, phases = {"Nobody": ["nowhere"]}, {("Nobody", "NoRole"): ["NoPhase"]}
    for model in models:
        for name, std in model.components.items():
            states.setdefault(name, ["nowhere"]).extend(sorted(std.states))
            phases.setdefault((name, "NoRole"), ["NoPhase"])
            for part in std.partitions:
                phases.setdefault((name, part.name), ["NoPhase"]).extend(
                    p.name for p in part.phases)
    return sorted(states), states, sorted(phases), phases


def random_predicate(rng, vocabulary, versions, depth=3):
    """A predicate over `vocabulary` (see `predicate_vocabulary`) that may
    name unknown components, states, roles and phases, and versions near
    `versions`."""
    components, states, roles, phases = vocabulary
    kind = rng.randrange(7 if depth > 0 else 4)
    if kind == 0:
        comp = rng.choice(components)
        return InState(comp, rng.choice(states[comp]))
    if kind == 1:
        role = rng.choice(roles)
        return InPhase(role[0], role[1], rng.choice(phases[role]))
    if kind == 2:
        comps = [rng.choice(components) for _ in range(rng.randint(1, 4))]
        pairs = tuple((c, rng.choice(states[c])) for c in comps)
        return CountInState(pairs, rng.choice(COMPARATORS), rng.randint(0, len(pairs) + 1))
    if kind == 3:
        return ModelVersionIs(rng.choice(versions) + rng.randint(-1, 1))
    if kind == 4:
        return Not(random_predicate(rng, vocabulary, versions, depth - 1))
    node = And if kind == 5 else Or
    return node(random_predicate(rng, vocabulary, versions, depth - 1),
                random_predicate(rng, vocabulary, versions, depth - 1))

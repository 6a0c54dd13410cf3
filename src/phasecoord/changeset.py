"""Atomic model deltas applied mid-run.

A ChangeSet is the unit of just-in-time model extension and of the
post-migration shrink.  Application is atomic: all additions (components,
partitions, phases, traps, variables, rules) happen before all removals
(rules, phases, partitions), and the result must leave both the model and
the live configuration valid, otherwise the whole delta is rejected.

Added phases, traps and rules replace same-named existing ones; this is
what lets a running coordinator swap out its own phases and rules
mid-flight.  Components and partitions never silently replace.

`apply_changeset` and `validate_changeset` walk the whole delta on every
call and keep nothing.  This module is the only one that knows how a
changeset maps a model and a configuration.  The walk, `_apply`, gives the
resulting model and configuration with the diagnostics of the walk and of
`validate_model`; each caller validates the configuration itself.  When
those diagnostics are empty, the resulting model depends on the model and
the changeset alone, and a `Carry` places any later configuration of the
same model into that model's layout without a walk, unless a phase the
changeset removes is live there.  The engine keeps a rule's `Carry` on the
rule's guard for as long as the model object that owns the rule lives
(see `engine`).  Canonical forms are kept per object (`model._per_object`),
so a changeset's result computes only those of its new elements.
"""

from __future__ import annotations

from typing import Optional

from .model import (
    TRIV,
    Configuration,
    ConsistencyRule,
    Diagnostic,
    Partition,
    Phase,
    Record,
    SlotLayout,
    Std,
    StdModel,
    Trap,
    _per_object,
    initial_configuration,
    replace,
    validate_configuration,
    validate_model,
)


class ChangeSet(Record):
    _defaults = dict.fromkeys(("add_components", "add_partitions", "add_phases", "add_traps",
                               "add_rules", "remove_rules", "set_variables", "remove_phases",
                               "remove_partitions"), ())
    __slots__ = (*_defaults, "__dict__", "__weakref__")
    add_components: tuple[Std, ...]
    add_partitions: tuple[tuple[str, Partition], ...]
    add_phases: tuple[tuple[str, str, Phase], ...]
    add_traps: tuple[tuple[str, str, str, Trap], ...]
    add_rules: tuple[ConsistencyRule, ...]
    remove_rules: tuple[str, ...]
    set_variables: tuple[tuple[str, object], ...]
    remove_phases: tuple[tuple[str, str, str], ...]
    remove_partitions: tuple[tuple[str, str], ...]


class RejectedChange(Exception):
    """A changeset whose application would break the model or configuration."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


def _with_partition(std: Std, part: Partition) -> Std:
    parts = tuple(p for p in std.partitions if p.name != part.name) + (part,)
    return replace(std, partitions=tuple(sorted(parts, key=lambda p: p.name)))


def _apply(
    model: StdModel, config: Configuration, cs: ChangeSet
) -> tuple[StdModel, Configuration, list[Diagnostic]]:
    """The model and configuration after `cs`, and the diagnostics of the
    walk and of `validate_model`; the change is accepted iff these are empty
    and `validate_configuration` finds nothing in the pair.  The walk's only
    test of the configuration is `live-phase-removal`, which also keeps the
    phase, so when the diagnostics are empty the model is a function of
    `model` and `cs` alone."""
    diags: list[Diagnostic] = []
    comps = dict(model.components)
    rules = dict(model.rules)
    variables = dict(model.variables)
    detailed = dict(config.detailed)
    phases = dict(config.phases)

    for std in cs.add_components:
        if std.name in comps:
            diags.append(Diagnostic("duplicate-component", "changeset", std.name))
            continue
        comps[std.name] = std
        detailed[std.name] = std.initial
        for part in std.partitions:
            phases[(std.name, part.name)] = part.initial

    for comp_name, part in cs.add_partitions:
        std = comps.get(comp_name)
        if std is None:
            diags.append(Diagnostic("unresolved-component", "changeset", comp_name))
            continue
        if std.partition_named(part.name) is not None:
            diags.append(Diagnostic("duplicate-partition", "changeset", f"{comp_name}.{part.name}"))
            continue
        comps[comp_name] = _with_partition(std, part)
        phases[(comp_name, part.name)] = part.initial

    for comp_name, part_name, phase in cs.add_phases:
        std = comps.get(comp_name)
        part = std.partition_named(part_name) if std else None
        if part is None:
            diags.append(Diagnostic("unresolved-partition", "changeset", f"{comp_name}.{part_name}"))
            continue
        new_phases = tuple(p for p in part.phases if p.name != phase.name) + (phase,)
        comps[comp_name] = _with_partition(std, replace(part, phases=new_phases))

    for comp_name, part_name, phase_name, trap in cs.add_traps:
        std = comps.get(comp_name)
        part = std.partition_named(part_name) if std else None
        phase = part.phase_named(phase_name) if part else None
        if phase is None:
            diags.append(
                Diagnostic("unresolved-phase", "changeset", f"{comp_name}.{part_name}.{phase_name}")
            )
            continue
        if trap.name == TRIV:
            diags.append(Diagnostic("reserved-trap-name", "changeset", TRIV))
            continue
        traps = tuple(t for t in phase.traps if t.name != trap.name) + (trap,)
        new_phase = replace(phase, traps=traps)
        new_phases = tuple(new_phase if p.name == phase_name else p for p in part.phases)
        comps[comp_name] = _with_partition(std, replace(part, phases=new_phases))

    for name, value in cs.set_variables:
        variables[name] = value

    for rule in cs.add_rules:
        rules[rule.name] = rule

    for name in cs.remove_rules:
        if name not in rules:
            diags.append(Diagnostic("unknown-rule", "changeset", name))
            continue
        del rules[name]

    for comp_name, part_name, phase_name in cs.remove_phases:
        std = comps.get(comp_name)
        part = std.partition_named(part_name) if std else None
        if part is None or part.phase_named(phase_name) is None:
            diags.append(
                Diagnostic("unresolved-phase", "changeset", f"{comp_name}.{part_name}.{phase_name}")
            )
            continue
        if phases.get((comp_name, part_name)) == phase_name:
            diags.append(
                Diagnostic("live-phase-removal", comp_name, f"{part_name}.{phase_name}")
            )
            continue
        new_phases = tuple(p for p in part.phases if p.name != phase_name)
        comps[comp_name] = _with_partition(std, replace(part, phases=new_phases))

    for comp_name, part_name in cs.remove_partitions:
        std = comps.get(comp_name)
        if std is None or std.partition_named(part_name) is None:
            diags.append(Diagnostic("unresolved-partition", "changeset", f"{comp_name}.{part_name}"))
            continue
        parts = tuple(p for p in std.partitions if p.name != part_name)
        comps[comp_name] = replace(std, partitions=parts)
        phases.pop((comp_name, part_name), None)

    new_model = StdModel(
        components=comps, rules=rules, variables=variables, version=model.version + 1
    )
    new_config = Configuration(
        detailed=detailed, phases=phases, model_version=new_model.version
    )
    diags.extend(validate_model(new_model))
    return new_model, new_config, diags


class Carry:
    """How a changeset maps the configurations of the model it was walked
    from, as slots, once its model half has passed.  `model` is the
    resulting model: the walk and `validate_model` found nothing, so it is
    the same at every configuration where no phase the changeset removes is
    live.

    `live` holds, per removed phase of a role the old layout has, (role
    slot, phase index).  `remap` builds the slots after the changeset, in
    `model.layout`, from the slots before it: per slot after the version,
    (old slot, table from its old index to the new one) or, for an added
    component or role, (None, its index in `model`'s initial configuration:
    the component's initial state or the partition's initial phase)."""

    __slots__ = ("model", "live", "remap")

    def __init__(self, layout: SlotLayout, cs: ChangeSet, model: StdModel):
        new = model.layout
        self.model = model
        live = []
        for comp, part, phase in cs.remove_phases:
            role = layout.slot.get((comp, part))
            index = layout.index[role].get(phase) if role else None
            if index is not None:
                live.append((role, index))
        self.live = tuple(live)
        initial = new.encode(initial_configuration(model).key())
        remap = []
        for slot in range(1, len(new.owners)):
            old = layout.slot.get(new.owners[slot])
            remap.append((None, initial[slot]) if old is None else
                         (old, tuple(map(new.index[slot].get, layout.names[old]))))
        self.remap = tuple(remap)

    def slots(self, slots: tuple) -> Optional[tuple]:
        """The slots after the changeset, or None when a phase it removes is
        live at `slots`.  Every other entry has a place in the new layout:
        components keep their states, and the only phases that go are the
        removed ones."""
        for role, phase in self.live:
            if slots[role] == phase:
                return None
        out = [self.model.version]
        for old, table in self.remap:
            out.append(table if old is None else table[slots[old]])
        return tuple(out)


def validate_changeset(model: StdModel, config: Configuration, cs: ChangeSet) -> list[Diagnostic]:
    """Empty iff applying `cs` would leave both model and configuration valid.

    Only phase membership of the live configuration is consulted; no
    component is required to sit in any designated idle state.
    """
    new_model, new_config, diags = _apply(model, config, cs)
    return diags + validate_configuration(new_model, new_config)


def apply_changeset(
    model: StdModel, config: Configuration, cs: ChangeSet
) -> tuple[StdModel, Configuration]:
    """Apply atomically, bumping the model version; raises RejectedChange if
    the delta would break validity."""
    new_model, new_config, diags = _apply(model, config, cs)
    diags += validate_configuration(new_model, new_config)
    if diags:
        raise RejectedChange(diags)
    return new_model, new_config


# Canonical nested-tuple forms, used for structural equality and for interning
# models by content during exploration.


def canonical_trap(t: Trap) -> tuple:
    return (t.name, tuple(sorted(t.states)))


def canonical_phase(p: Phase) -> tuple:
    return (
        p.name,
        tuple(sorted(p.states)),
        tuple(sorted(p.transitions)),
        tuple(sorted(canonical_trap(t) for t in p.traps)),
    )


def canonical_partition(p: Partition) -> tuple:
    return (p.name, p.initial, tuple(sorted(canonical_phase(ph) for ph in p.phases)))


@_per_object
def canonical_std(s: Std) -> tuple:
    return (
        s.name,
        tuple(sorted(s.states)),
        tuple(sorted(s.actions)),
        tuple(sorted(s.transitions)),
        s.initial,
        tuple(sorted(canonical_partition(p) for p in s.partitions)),
    )


@_per_object
def canonical_rule(r: ConsistencyRule) -> tuple:
    return (
        r.name,
        r.manager,
        r.manager_step,
        tuple((t.component, t.partition, t.source, t.trap, t.target) for t in r.transfers),
        canonical_changeset(r.change) if r.change is not None else None,
    )


@_per_object
def canonical_changeset(cs: ChangeSet) -> tuple:
    return (
        tuple(sorted(canonical_std(s) for s in cs.add_components)),
        tuple(sorted((c, canonical_partition(p)) for c, p in cs.add_partitions)),
        tuple(sorted((c, pt, canonical_phase(ph)) for c, pt, ph in cs.add_phases)),
        tuple(sorted((c, pt, ph, canonical_trap(t)) for c, pt, ph, t in cs.add_traps)),
        tuple(sorted(canonical_rule(r) for r in cs.add_rules)),
        tuple(sorted(cs.remove_rules)),
        tuple(sorted((n, canonical_variable(v)) for n, v in cs.set_variables)),
        tuple(sorted(cs.remove_phases)),
        tuple(sorted(cs.remove_partitions)),
    )


def canonical_variable(value: object) -> tuple:
    if isinstance(value, ChangeSet):
        return ("changeset", canonical_changeset(value))
    return ("int", value)


class CanonicalForm(tuple):
    """A canonical model form: a plain tuple that computes its hash once, so
    looking a model up by its form costs no walk over the whole model."""

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash


@_per_object
def canonical_model(m: StdModel) -> CanonicalForm:
    """The canonical form of `m`, computed once per model object."""
    return CanonicalForm((
        m.version,
        tuple(sorted(canonical_std(s) for s in m.components.values())),
        tuple(sorted(canonical_rule(r) for r in m.rules.values())),
        tuple(sorted((n, canonical_variable(v)) for n, v in m.variables.items())),
    ))


def models_equal(a: StdModel, b: StdModel) -> bool:
    """Structural equality modulo ordering; version included."""
    return canonical_model(a) == canonical_model(b)

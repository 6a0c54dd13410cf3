"""Interleaving operational semantics.

Two kinds of step exist.  A detailed step moves one component along a
transition that (a) leaves its current state, (b) is present in the current
phase of every one of its roles, and (c) is not claimed as the manager step
of any rule in the current rule set.  A rule firing atomically takes the
manager's claimed transition, transfers every listed employee role to its
target phase, and applies the rule's changeset if it carries one.

The engine is a pure transition-function library: (model, configuration) in,
successors out.  It works on a configuration's slots in its model's
`model.SlotLayout`, and neither digests nor trace records decode them.
`config_digest` hashes `SlotLayout.key_text`, the same bytes as
`repr(config.key())`, and keeps each digest in its layout's table
(`SlotLayout.digests`, made on the layout's first digest, cleared when it
holds `DIGEST_TABLE_CAP`), so `run`, export's digest check and `replay` hash
each state once; a configuration backed by its pair key is hashed each time
and never kept.  `_record_line` writes every trace record, of an export
(`write_trace_jsonl`) and of a report (`explorer.Space.trace_records`)
alike, from its layout's JSON tables (`SlotLayout.record_entries`).  Per
model object the engine compiles one `_StepCore`, kept through
`model._per_object`: a table of free steps, which only gains entries,
each a function of the model and its key, and one `_Guard` per rule.  A
successor copies its parent's slots and replaces the one a detailed step
changes, or the few a rule changes.  A configuration that does not fit the
layout (an unknown component, state, role or phase, or a missing one) raises
`UnknownElement`, naming the first entry that does not fit.

A rule's changeset is applied through `changeset`, the one module that
knows how a changeset maps a model and a configuration.  The rule's first
firing on a model object walks it; when the model half passes, the rule's
`_Guard` keeps the `changeset.Carry` it gives for as long as that model
object lives, and later firings reuse its resulting model object (see
`_Guard.changed`).  `apply_changeset` and a rule object the model does not
hold keep nothing.

One step core serves every caller.  `successors` and `enabled_rules` take
the enabled rules' firings from `_StepCore.fired`, one pass over the rules
whose manager sits at their step's source; `_take`, `rule_blocker` and
`fire_rule` decide one rule through `_StepCore.fire`, which also gives the
reason it cannot fire.  Both test a rule with its `_Guard` and fire it with
`_StepCore._after`; a replay fires only its recorded labels, through
`_take`.  Consistency is checked where a step can break it.  After a rule
with no changeset, `_StepCore._after` tests the slots the rule wrote (the
manager's new state against each of its roles, then each transferred role
against its component's state) and `step_detailed` the stepping component
against its roles, both with `model._broken`, as `model.consistent` does.
Either raises `ConsistencyBroken`, which only a model that `validate_model`
rejects can cause.  A changeset validates the whole configuration after
every application, and `explore` reports `configuration-valid` for every
reached state, so an inconsistent root is reported, not blamed on a step.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .changeset import Carry, RejectedChange, _apply
from .model import (
    Configuration,
    ConsistencyRule,
    RoleTransfer,
    SlotLayout,
    StdModel,
    Transition,
    _broken,
    _per_object,
    validate_configuration,
)


class EngineError(Exception):
    pass


class UnknownElement(EngineError):
    pass


class NotEnabled(EngineError):
    pass


class ConsistencyBroken(EngineError):
    """A step left a role whose phase does not hold its component's state;
    only a model that `validate_model` rejects has such a step."""


class ReplayDivergence(EngineError):
    def __init__(self, index: int, label: "StepLabel"):
        self.index = index
        self.label = label
        super().__init__(f"step {index}: replay diverged at {label_text(label)}")


@dataclass(frozen=True)
class DetailedStep:
    component: str
    transition: Transition


@dataclass(frozen=True)
class RuleStep:
    rule: str
    manager: str
    manager_step: Transition
    transfers: tuple[RoleTransfer, ...]
    changed: bool


# `|`, not `typing.Union`: typing caches a Union of its arguments for the
# life of the process, so a package imported again would keep every earlier
# copy alive through these classes.
StepLabel = DetailedStep | RuleStep


def label_text(label: StepLabel) -> str:
    if isinstance(label, DetailedStep):
        t = label.transition
        return f"detailed {label.component}: {t.source}-{t.action}->{t.target}"
    return f"rule {label.rule}"


def mover(label: StepLabel) -> str:
    """The component whose own move the step is: the component of a detailed
    step, or the manager of a rule firing."""
    return label.component if isinstance(label, DetailedStep) else label.manager


# The most digests one layout's table (`SlotLayout.digests`) holds: a full
# table is cleared, so a walk of any length keeps at most this many.
DIGEST_TABLE_CAP = 1 << 16


def config_digest(config: Configuration) -> int:
    """Stable 64-bit fingerprint of the canonical configuration bytes: the
    first 8 bytes of blake2b over `repr(config.key())`.

    A slot-backed configuration joins that text from its layout's tables
    (`SlotLayout.key_text`) and keeps its digest in its layout's table, so
    a state reached again costs one lookup.  Only an int version is kept:
    slots that hold `True` or `1.0` compare equal to slots that hold `1`,
    but their reprs differ."""
    layout, slots = config._layout, config._slots
    if layout is None or type(slots[0]) is not int:
        return _digest(repr(config.key()))
    table = layout.digests
    digest = table.get(slots)
    if digest is None:
        if len(table) >= DIGEST_TABLE_CAP:
            table.clear()
        digest = table[slots] = _digest(layout.key_text(slots))
    return digest


def _digest(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")


class _Guard:
    """One rule compiled against a model's slot layout.

    `blocker` gives the first reason the rule cannot fire, testing in this
    order: the manager step, the manager's state, its phases, then each
    transfer's phase, trap and target phase.  A transfer's role, phase or
    trap that does not resolve is compiled to a test that never passes, so
    its reason comes in its turn; a manager step that does not resolve is
    the reason `static`, whatever the configuration.  A manager role's
    phase always resolves: the layout takes its names from the same
    partition."""

    __slots__ = ("rule", "label", "static", "manager", "source", "target",
                 "manager_phases", "transfers", "writes", "checks", "memo")

    def __init__(self, model: StdModel, rule: ConsistencyRule):
        layout = model.layout
        self.rule = rule
        self.label = RuleStep(rule.name, rule.manager, rule.manager_step, rule.transfers,
                              rule.change is not None)
        self.memo = None  # see `changed`
        mgr = model.components.get(rule.manager)
        self.static = None
        if mgr is None or rule.manager_step not in mgr.transitions:
            self.static = "manager step unresolved"
            return
        self.manager = layout.slot[rule.manager]
        states = layout.index[self.manager]
        self.source = states.get(rule.manager_step.source)
        self.target = states.get(rule.manager_step.target)
        # per manager role: (role slot, phase indices whose phase holds the
        # manager step)
        manager_phases = []
        for part in mgr.roles:
            slot = layout.slot[(rule.manager, part.name)]
            manager_phases.append((slot, frozenset(
                i for i, name in enumerate(layout.names[slot])
                if rule.manager_step in part.phase_named(name).transitions)))
        self.manager_phases = tuple(manager_phases)
        # per transfer: (role slot or None, source phase index, component
        # slot, state indices of the trap, target phase index, its reasons)
        transfers, writes = [], []
        for tr in rule.transfers:
            role = layout.slot.get((tr.component, tr.partition))
            phases = layout.index[role] if role else {}
            source, target = phases.get(tr.source), phases.get(tr.target)
            comp = layout.slot.get(tr.component)
            trap = frozenset()
            if source is not None:
                phase = model.components[tr.component].partition_named(tr.partition).phase_named(tr.source)
                found = phase.trap_named(tr.trap)
                states = layout.index[comp]
                if found is not None:
                    trap = frozenset(states[s] for s in found.states if s in states)
            transfers.append((
                role if source is not None else None, source, comp, trap, target,
                f"{tr.component}({tr.partition}) not in phase {tr.source}",
                f"trap {tr.trap} of {tr.component}({tr.partition}) not entered",
                f"target phase {tr.target} unresolved",
            ))
            writes.append((role, target))
        self.transfers = tuple(transfers)
        self.writes = tuple(writes)
        # the consistency tests of the roles whose slots a firing writes:
        # the manager's, then each transferred one
        written = [layout.slot[(rule.manager, part.name)] for part in mgr.partitions]
        written += [role for role, _ in writes if role is not None]
        self.checks = tuple(layout.checks[role] for role in dict.fromkeys(written))

    def blocker(self, slots: tuple) -> Optional[str]:
        """Why the rule cannot fire at `slots`, or None; the changeset aside."""
        if self.static is not None:
            return self.static
        if slots[self.manager] != self.source:
            return "manager not at the step's source"
        for role, allowed in self.manager_phases:
            if slots[role] not in allowed:
                return "manager step outside a current phase"
        for role, source, comp, trap, target, not_in, not_entered, unresolved in self.transfers:
            if role is None or slots[role] != source:
                return not_in
            if slots[comp] not in trap:
                return not_entered
            if target is None:
                return unresolved
        return None

    def apply(self, slots: tuple) -> tuple:
        """The slots after the manager step and the transfers of an enabled rule."""
        if self.target is None:
            raise UnknownElement(f"{self.rule.manager}: unknown state {self.rule.manager_step.target}")
        out = list(slots)
        out[self.manager] = self.target
        for role, target in self.writes:
            out[role] = target
        return tuple(out)

    def changed(self, model: StdModel, slots: tuple) -> tuple[StdModel, Configuration]:
        """The (model, configuration) after the rule's changeset, applied to
        the slots after its manager step and transfers; raises RejectedChange
        with the diagnostics `apply_changeset` gives.

        The first walk whose model half passes keeps a `changeset.Carry` in
        `memo`, and every application then carries the slots through it and
        validates the configuration.  Only a live phase removal misses the
        memo; it walks the changeset again for its diagnostics, as does every
        application while no memo is kept.  A rule that is not one of the
        model's own gets a guard for one call (see `_StepCore.guard`), so its
        memo is not kept."""
        carry = self.memo
        if carry is None:
            carry = self.memo = self._walk(model, slots)
        out = carry.slots(slots)
        if out is None:
            self._walk(model, slots)  # a live phase removal, which the walk raises
        config = Configuration.from_slots(carry.model.layout, out)
        bad = validate_configuration(carry.model, config)
        if bad:
            raise RejectedChange(bad)
        return carry.model, config

    def _walk(self, model: StdModel, slots: tuple) -> Carry:
        """The `Carry` of the rule's changeset from `model`; raises
        RejectedChange when the walk or `validate_model` finds anything."""
        change = self.rule.change
        new_model, config, diags = _apply(model, Configuration.from_slots(model.layout, slots), change)
        if diags:
            raise RejectedChange(diags + validate_configuration(new_model, config))
        return Carry(model.layout, change, new_model)


class _StepCore:
    """The engine's integer tables for one model object, built on first use
    and kept per model object (`_core`).

    `free` holds, per component, its slot, a getter of its state and its
    roles' phases, and the table from those to the sorted free steps there,
    each as (`DetailedStep`, new state index); entries are added on first
    use and never changed.  `guards` holds every rule compiled by name,
    and `guards_at` the rules whose manager step resolves, keyed by manager
    slot and then source state index, sorted by rule name."""

    def __init__(self, model: StdModel):
        layout = self.layout = model.layout
        # the parts of the model `_fill` reads; the core keeps no reference
        # to the model itself, which holds the core
        self._components, self._claimed = model.components, model.claimed_steps
        self.free = tuple(
            (slot, itemgetter(slot, *(layout.slot[(name, part.name)]
                                      for part in model.components[name].roles)), {})
            for slot, name in enumerate(model.component_order, 1)
        )
        self.guards = {name: _Guard(model, model.rules[name]) for name in sorted(model.rules)}
        guards_at: dict[int, dict[int, list[_Guard]]] = {}
        for guard in self.guards.values():
            if guard.static is None and guard.source is not None:
                guards_at.setdefault(guard.manager, {}).setdefault(guard.source, []).append(guard)
        self.guards_at = tuple(
            (slot, {state: tuple(guards) for state, guards in by_state.items()})
            for slot, by_state in sorted(guards_at.items())
        )

    def free_steps(self, slots: tuple, slot: int) -> tuple:
        """The free steps of the component at `slot`, with their new state
        indices, in (component, transition) order."""
        _, get, table = self.free[slot - 1]
        at = get(slots)
        steps = table.get(at)
        if steps is None:
            steps = table[at] = self._fill(slot, at)
        return steps

    def _fill(self, slot: int, at) -> tuple:
        layout = self.layout
        name = layout.owners[slot]
        std = self._components[name]
        state, *phase_indices = at if isinstance(at, tuple) else (at,)
        phases = [part.phase_named(layout.names[layout.slot[(name, part.name)]][index])
                  for part, index in zip(std.roles, phase_indices)]
        claimed, states = self._claimed, layout.index[slot]
        steps = []
        for t in std.transitions_from.get(layout.names[slot][state], ()):
            if (name, t) not in claimed and all(t in phase.transitions for phase in phases):
                if t.target not in states:
                    raise UnknownElement(f"{name}: unknown state {t.target}")
                steps.append((DetailedStep(name, t), states[t.target]))
        return tuple(steps)

    def guard(self, model: StdModel, rule: ConsistencyRule) -> _Guard:
        guard = self.guards.get(rule.name)
        return guard if guard is not None and guard.rule is rule else _Guard(model, rule)

    def fired(self, model: StdModel, slots: tuple) -> list[tuple[RuleStep, StdModel, Configuration]]:
        """The (label, model, configuration) of each enabled rule's firing,
        by rule name; a rule whose changeset is rejected is not enabled."""
        candidates = ()
        for slot, by_state in self.guards_at:
            at = by_state.get(slots[slot])
            if at:  # by rule name already; merged only when two slots contribute
                candidates = sorted((*candidates, *at), key=lambda g: g.rule.name) if candidates else at
        out = []
        for guard in candidates:
            if guard.blocker(slots) is None:
                try:
                    out.append((guard.label, *self._after(model, slots, guard)))
                except RejectedChange:
                    pass
        return out

    def fire(
        self, model: StdModel, slots: tuple, guard: _Guard
    ) -> tuple[Union[None, str, RejectedChange], Optional[tuple[StdModel, Configuration]]]:
        """(None, (model, configuration) after firing) when the rule is
        enabled, else (why not, None): the `blocker`, or the rejection of
        the rule's changeset."""
        blocker = guard.blocker(slots)
        if blocker is not None:
            return blocker, None
        try:
            return None, self._after(model, slots, guard)
        except RejectedChange as exc:
            # without its traceback, whose frames would hold the caller's
            # locals, and so the rejection itself, in a cycle
            return exc.with_traceback(None), None

    def _after(self, model: StdModel, slots: tuple, guard: _Guard) -> tuple[StdModel, Configuration]:
        """The (model, configuration) after firing the rule, which `blocker`
        lets fire at `slots`.  Raises RejectedChange when its changeset is
        rejected, and ConsistencyBroken when a rule without one leaves a
        role whose phase does not hold its component's state."""
        out = guard.apply(slots)
        if guard.rule.change is not None:
            return guard.changed(model, out)
        bad = _broken(self.layout, out, guard.checks)
        if bad is not None:
            raise ConsistencyBroken(f"rule {guard.rule.name} broke consistency: {bad}")
        return model, Configuration.from_slots(self.layout, out)

    def step(self, slots: tuple, component: str, transition: Transition) -> Optional[tuple]:
        """The slots after the component's free step along `transition`;
        None when that step is not enabled."""
        slot = self.layout.slot.get(component)
        if slot is None:
            return None
        for step, state in self.free_steps(slots, slot):
            if step.transition == transition:
                return slots[:slot] + (state,) + slots[slot + 1:]
        return None


def _slots(layout: SlotLayout, config: Configuration) -> tuple:
    """The configuration's slots in `layout`; raises UnknownElement when it
    does not fit, naming the first entry that does not."""
    slots = config.slots_in(layout)
    if slots is None:
        raise UnknownElement(layout.misfit(config.key()))
    return slots


@_per_object
def _core(model: StdModel) -> _StepCore:
    return _StepCore(model)


def enabled_detailed(model: StdModel, config: Configuration, component: str) -> set[Transition]:
    """Transitions the component may take on its own from the current state;
    claimed steps fire only via rule firings."""
    if component not in model.components:
        raise UnknownElement(component)
    core = _core(model)
    slots = _slots(core.layout, config)
    return {step.transition for step, _ in core.free_steps(slots, core.layout.slot[component])}


def _fire(
    model: StdModel, config: Configuration, rule: ConsistencyRule
) -> tuple[Union[None, str, RejectedChange], Optional[tuple[StdModel, Configuration]]]:
    """(None, (model, configuration) after firing the rule) when it is enabled,
    else (why not, None), as `_StepCore.fire` gives them; see `fire_rule`."""
    core = _core(model)
    return core.fire(model, _slots(core.layout, config), core.guard(model, rule))


def rule_blocker(model: StdModel, config: Configuration, rule: ConsistencyRule) -> Optional[str]:
    """Why the rule cannot fire right now; None when it is enabled."""
    why = _fire(model, config, rule)[0]
    return f"changeset rejected: {why.diagnostics[0]}" if isinstance(why, RejectedChange) else why


def enabled_rules(model: StdModel, config: Configuration) -> list[ConsistencyRule]:
    """Rules whose manager step, transfer guards and (if present) changeset
    are all enabled now, sorted by rule name."""
    core = _core(model)
    fired = core.fired(model, _slots(core.layout, config))
    return [core.guards[label.rule].rule for label, _, _ in fired]


def step_detailed(
    model: StdModel, config: Configuration, component: str, transition: Transition
) -> Configuration:
    """Take one free detailed step; phases stay untouched."""
    if component not in model.components:
        raise UnknownElement(component)
    core = _core(model)
    slots = core.step(_slots(core.layout, config), component, transition)
    if slots is None:
        raise NotEnabled(f"{component}: {transition.pretty()}")
    slot = core.layout.slot[component]
    bad = _broken(core.layout, slots, [c for c in core.layout.checks.values() if c[0] == slot])
    if bad is not None:
        raise ConsistencyBroken(f"detailed step broke consistency: {bad}")
    return Configuration.from_slots(core.layout, slots)


def fire_rule(
    model: StdModel, config: Configuration, rule: ConsistencyRule
) -> tuple[StdModel, Configuration]:
    """Fire one consistency rule atomically: the manager takes its step, the
    listed roles move to their target phases, then the changeset (if any) is
    applied, bumping the model version.  A rejected changeset disables the
    rule; raises NotEnabled when the rule cannot fire."""
    blocker, after = _fire(model, config, rule)
    if blocker is not None:
        raise NotEnabled(f"rule {rule.name}")
    return after


def successors(
    model: StdModel, config: Configuration
) -> list[tuple[StepLabel, StdModel, Configuration]]:
    """All enabled steps, deterministically ordered: detailed steps by
    (component, transition), then rule firings by rule name."""
    core = _core(model)
    slots = _slots(core.layout, config)
    layout, from_slots = core.layout, Configuration.from_slots
    out: list[tuple[StepLabel, StdModel, Configuration]] = []
    for slot, get, table in core.free:  # `core.free_steps`, inlined: no call per component
        at = get(slots)
        steps = table.get(at)
        if steps is None:
            steps = table[at] = core._fill(slot, at)
        if steps:
            head, tail = slots[:slot], slots[slot + 1:]
            for step, state in steps:
                out.append((step, model, from_slots(layout, (*head, state, *tail))))
    out += core.fired(model, slots)
    return out


def _take(
    model: StdModel, config: Configuration, label: StepLabel
) -> Optional[tuple[StdModel, Configuration]]:
    """Fire exactly the recorded step: the (model, configuration) after it, or
    None when no enabled step carries this label."""
    core = _core(model)
    slots = _slots(core.layout, config)
    if isinstance(label, DetailedStep):
        after = core.step(slots, label.component, label.transition)
        return None if after is None else (model, Configuration.from_slots(core.layout, after))
    guard = core.guards.get(label.rule)
    if guard is None or guard.label != label:
        return None
    return core.fire(model, slots, guard)[1]


@dataclass(frozen=True)
class Trace:
    """One executed trajectory: initial configuration, the labels taken with
    the digest of each resulting configuration, final model version."""

    initial: Configuration
    steps: tuple[tuple[StepLabel, int], ...]
    final_model_version: int

    def labels(self) -> list[StepLabel]:
        return [label for label, _ in self.steps]

    def __len__(self) -> int:
        return len(self.steps)


class RandomPolicy:
    """Uniform choice among the ordered successors, reproducible by seed."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def choose(self, labels: Sequence[StepLabel], index: int) -> Optional[int]:
        return self.rng.randrange(len(labels))


class InteractivePolicy:
    """Driver contract: the chooser is shown the successor labels and returns
    an index, or None to stop."""

    def __init__(self, chooser: Callable[[Sequence[StepLabel]], Optional[int]]):
        self.chooser = chooser

    def choose(self, labels: Sequence[StepLabel], index: int) -> Optional[int]:
        return self.chooser(labels)


def drive(
    model: StdModel, config: Configuration, policy, max_steps: int
) -> Iterator[tuple[StepLabel, StdModel, Configuration]]:
    """The steps a policy takes, one at a time as it takes them, for at most
    `max_steps` steps: (label, model, configuration) after each."""
    for index in range(max_steps):
        succ = successors(model, config)
        if not succ:
            return
        choice = policy.choose([label for label, _, _ in succ], index)
        if choice is None:
            return
        label, model, config = succ[choice]
        yield label, model, config


def run(model: StdModel, config: Configuration, policy, max_steps: int) -> Trace:
    """Drive the system under a policy for at most `max_steps` steps."""
    final = config
    steps: list[tuple[StepLabel, int]] = []
    for label, _, final in drive(model, config, policy, max_steps):
        steps.append((label, config_digest(final)))
    return Trace(initial=config, steps=tuple(steps), final_model_version=final.model_version)


def replay(model: StdModel, config: Configuration, labels: Sequence[StepLabel]) -> Trace:
    """Deterministically re-execute a label sequence from a configuration;
    raises ReplayDivergence at the first label that is not enabled."""
    initial = config
    steps: list[tuple[StepLabel, int]] = []
    for index, label in enumerate(labels):
        after = _take(model, config, label)
        if after is None:
            raise ReplayDivergence(index, label)
        model, config = after
        steps.append((label, config_digest(config)))
    return Trace(initial=initial, steps=tuple(steps), final_model_version=config.model_version)


def label_to_json(label: Optional[StepLabel]) -> Optional[dict]:
    if label is None:
        return None
    if isinstance(label, DetailedStep):
        return {
            "type": "detailed",
            "component": label.component,
            "transition": list(label.transition),
        }
    return {
        "type": "rule",
        "rule": label.rule,
        "manager": label.manager,
        "managerStep": list(label.manager_step),
        "transfers": [[t.component, t.partition, t.source, t.trap, t.target] for t in label.transfers],
        "changeSet": label.changed,
    }


def _name(value: object) -> str:
    if not isinstance(value, str):
        raise ValueError(f"name {value!r} is not a JSON string")
    return value


def _names(value: object, count: int) -> list[str]:
    if not isinstance(value, list) or len(value) != count:
        raise ValueError(f"{value!r} is not a list of {count} names")
    return [_name(item) for item in value]


def label_from_json(data: dict) -> StepLabel:
    """The label of an exported trace record; raises ValueError (or KeyError
    or TypeError) when a field is missing or a name is not a JSON string."""
    if data["type"] == "detailed":
        return DetailedStep(_name(data["component"]), Transition(*_names(data["transition"], 3)))
    changed = data["changeSet"]
    if not isinstance(changed, bool):
        raise ValueError(f"changeSet {changed!r} is not a JSON boolean")
    transfers = data["transfers"]
    if not isinstance(transfers, list):
        raise ValueError(f"transfers {transfers!r} is not a list")
    return RuleStep(
        rule=_name(data["rule"]),
        manager=_name(data["manager"]),
        manager_step=Transition(*_names(data["managerStep"], 3)),
        transfers=tuple(RoleTransfer(*_names(t, 5)) for t in transfers),
        changed=changed,
    )


# a trace record: one JSON object, its keys sorted, on one line
_RECORD = ('{"componentStates": {%s}, "digest": "%s", "index": %d, "label": %s, '
           '"modelVersion": %s, "rolePhases": {%s}}\n')


def _record_line(
    labels: dict, index: int, label: Optional[StepLabel], model: StdModel,
    config: Configuration, digest: int,
) -> str:
    """The trace record of `config` reached by `label` (None for the first):
    its line of the exported JSON-lines form.  `labels` keeps the JSON text
    of each distinct label across the calls it is passed to.  Raises
    UnknownElement when `config` does not fit the model's layout."""
    layout = model.layout
    slots = _slots(layout, config)
    components, roles = layout.record_entries(slots)
    text = labels.get(label)
    if text is None:
        text = labels[label] = json.dumps(label_to_json(label), sort_keys=True)
    version = slots[0]  # an int writes as its str, without a json.dumps per record
    return _RECORD % (components, f"{digest:016x}", index, text,
                      version if type(version) is int else json.dumps(version), roles)


def _replayed(
    model: StdModel, config: Configuration, steps: Iterable[tuple[StepLabel, int]]
) -> Iterator[tuple[int, Optional[StepLabel], StdModel, Configuration, int]]:
    """Re-execute (label, digest) steps, yielding (index, label, model,
    configuration, digest): index 0 with label None for the initial
    configuration, then one tuple per step, taken as it is yielded.  Raises
    ReplayDivergence when a label is not enabled or a step reaches a
    configuration whose digest differs from the recorded one."""
    yield 0, None, model, config, config_digest(config)
    for i, (label, digest) in enumerate(steps, start=1):
        after = _take(model, config, label)
        if after is None or config_digest(after[1]) != digest:
            raise ReplayDivergence(i - 1, label)
        model, config = after
        yield i, label, model, config, digest


def walk_trace(
    model: StdModel, trace: Trace
) -> Iterator[tuple[int, Optional[StepLabel], StdModel, Configuration]]:
    """Re-execute a trace, yielding (index, label, model, configuration): index
    0 with label None for the initial configuration, then one tuple per step.
    Raises ReplayDivergence as `_replayed` does."""
    for i, label, model, config, _ in _replayed(model, trace.initial, trace.steps):
        yield i, label, model, config


def write_trace_jsonl(
    model: StdModel, config: Configuration, steps: Iterable[tuple[StepLabel, int]],
    write: Callable[[str], object],
) -> tuple[int, int]:
    """Pass each line of the exported JSON-lines form of the (label, digest)
    steps from `config` to `write` as soon as its step is replayed and its
    digest checked (see `_replayed`), so nothing accumulates; returns the
    number of steps and the final model version.  Line 0 is the initial
    configuration, each further line one step (see `_record_line`); a
    configuration that does not fit its layout raises UnknownElement before
    its line is written."""
    labels: dict = {}
    index = 0
    for index, label, model, config, digest in _replayed(model, config, steps):
        write(_record_line(labels, index, label, model, config, digest))
    return index, config.model_version


def export_trace_jsonl(model: StdModel, trace: Trace) -> str:
    """The exported JSON-lines form of a trace (see `write_trace_jsonl`).
    Reconstructs intermediate configurations by replaying the labels, which
    is deterministic."""
    lines: list[str] = []
    write_trace_jsonl(model, trace.initial, trace.steps, lines.append)
    return "".join(lines)


_DIGEST = re.compile(r"[0-9a-fA-F]{16}")  # a recorded step digest
_decode = json.JSONDecoder().raw_decode  # the decoder `json.loads` uses


def parse_trace_steps(text: str) -> list[tuple[StepLabel, int]]:
    """(label, digest) of each step of an exported JSON-lines trace, in order.
    Raises ValueError naming the 1-based line of the first record that is not
    a trace record or whose step digest is not 16 hex digits.

    Each line is decoded as one JSON value; a line `raw_decode` does not take
    whole is read again by `json.loads`, for its error.  Each distinct label
    is read by `label_from_json` once, keyed by the `repr` of its JSON value,
    which tells `1` from `true`, as an equal tuple of values would not."""
    steps = []
    labels: dict[str, StepLabel] = {}
    for number, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            try:
                record, end = _decode(line)
            except (ValueError, RecursionError):
                end = None
            if end != len(line):
                record = json.loads(line)  # raises, with the text `json.loads` gives
            label = record.get("label")
            if label is not None:
                digest = record["digest"]
                if not _DIGEST.fullmatch(digest):
                    raise ValueError(f"digest {digest!r} is not 16 hex digits")
                key = repr(label)
                step = labels.get(key)
                if step is None:
                    step = labels[key] = label_from_json(label)
                steps.append((step, int(digest, 16)))
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
            raise ValueError(f"line {number}: not a trace record ({exc!r})") from exc
    return steps


def parse_trace_labels(text: str) -> list[StepLabel]:
    """Labels of an exported JSON-lines trace, in order; see `parse_trace_steps`."""
    return [label for label, _ in parse_trace_steps(text)]

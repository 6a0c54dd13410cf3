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
and never kept.  `_record_line` writes every trace record from its layout's
JSON tables (`SlotLayout.record_entries`) and its label's JSON from a fixed
template (`_label_json`), each name escaped by the C escape `json.dumps`
uses: each line of an export (`write_trace_jsonl`), and a report's record
of a state, once per explored space (`explorer.Space.trace_records`).
Per model object the engine compiles one `_StepCore`, kept through
`model._per_object`: a table of free steps, which only gains entries, each
a function of the model and its key, and one `_Guard` per rule.  The table leaves out a component whose every
transition is some rule's manager step, or that has none: it never takes a
free step.  `successors` keeps one working list of the parent's slots per
state.  Each free step, and each firing of an enabled rule without a
changeset, writes the slots it changes there (a firing its
`_Guard.writes`); its successor takes a `tuple` copy, with the
`Configuration` built inline, and the written slots are put back after it.
A firing whose rule carries a changeset copies the parent's slots and
writes the same ones (`_Guard.apply`) before the changeset is applied.  A
configuration that does not fit the layout (an unknown component, state,
role or phase, or a missing one) raises `UnknownElement`, naming the first
entry that does not fit.

A rule's changeset is applied through `changeset`, the one module that
knows how a changeset maps a model and a configuration.  The rule's first
firing on a model object walks it; when the model half passes, the rule's
`_Guard` keeps the `changeset.Carry` it gives for as long as that model
object lives, and later firings reuse its resulting model object (see
`_Guard.changed`).  `apply_changeset` keeps nothing.

One step core serves every caller.  `successors` fires the enabled rules
in its own loop, one pass over the rules whose manager sits at their step's
source; `rule_blocker` and `fire_rule` decide one rule through
`_StepCore.fire`, which also gives the reason it cannot fire, and fire it
with `_StepCore._after`.  Both test a rule with `_Guard.blocker` and apply
its changeset with `_Guard.changed`.  Walks, replays, exports and the step
queries read a state's steps from its core's step table
(`_StepCore.steps`), filled by one `successors` call the first time any of
them meets the state: `drive` chooses among them, `_take`
(which serves `replay` and `write_trace_jsonl`) finds the recorded label
among them by its key, and `enabled_detailed` and `enabled_rules` read
their labels.  A label's key is the plain tuple of its fields (`_Label`),
kept in the table beside the labels, so finding a label compares tuples
and calls no label's `__eq__`.
The table keeps, per step, the model after it only when that is another
model object (a changeset's), so it never holds the model that holds it,
and is cleared when it holds `STEP_TABLE_CAP` states.  The explorer calls
`successors` itself: a BFS expands each state once, so a table would only
keep what it never reads again.

The engine serves only a model that `validate_model` accepts, and only the
rules that model holds.  `_core` reads the model's kept diagnostics
(`model._model_diagnostics`) where it builds the step core, and raises
`ModelRejected` for a rejected model; `rule_blocker` and `fire_rule` raise
`UnknownElement` for a rule the model does not hold.  No step tests
consistency: a phase transition stays in its phase, and a rule's traps are
closed and connect into their target phases, so from a consistent
configuration every step reaches a consistent one.  A changeset validates
the whole configuration after every application.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from marshal import dumps
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .changeset import Carry, RejectedChange, _apply
from .model import (
    Configuration,
    ConsistencyRule,
    Record,
    RoleTransfer,
    SlotLayout,
    StdModel,
    Transition,
    _json_string,
    _model_diagnostics,
    _per_object,
    validate_configuration,
)


class EngineError(Exception):
    pass


class UnknownElement(EngineError):
    pass


class NotEnabled(EngineError):
    pass


class ModelRejected(EngineError):
    """The model fails `validate_model`, whose diagnostics it carries; the
    engine steps only models that `validate_model` accepts."""

    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        super().__init__(f"model rejected: {diagnostics[0]}")


class ReplayDivergence(EngineError):
    def __init__(self, index: int, label: "StepLabel"):
        self.index = index
        self.label = label
        super().__init__(f"step {index}: replay diverged at {label_text(label)}")


class _Label:
    """Base of the step labels.  A label's `key`, built by its constructor,
    is the plain tuple of its fields: (component, transition) for a
    `DetailedStep` and (rule, manager, manager_step, transfers, changed)
    for a `RuleStep`, so keys of the two classes never compare equal.
    Labels compare and hash by their keys, and `_take` and `_record_line`
    look a label up by its key, which compares tuples and calls no label's
    `__eq__`.  `key` is a slot, not a record field: no constructor takes it
    and `repr` does not show it, and pickling, copying and `replace`
    rebuild it through the constructor."""

    __slots__ = ("key",)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.key == other.key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.key)


_set_key = _Label.key.__set__


class DetailedStep(_Label, Record):
    __slots__ = ("component", "transition")
    component: str
    transition: Transition

    # written out, as in `RuleStep`
    def __init__(self, component: str, transition: Transition):
        set_component, set_transition = self._setters
        set_component(self, component)
        set_transition(self, transition)
        _set_key(self, (component, transition))


class RuleStep(_Label, Record):
    __slots__ = ("rule", "manager", "manager_step", "transfers", "changed")
    rule: str
    manager: str
    manager_step: Transition
    transfers: tuple[RoleTransfer, ...]
    changed: bool

    # `__init__` is written out, not `Record`'s, which loops over the
    # fields: a replay builds every distinct step label it reads
    def __init__(self, rule: str, manager: str, manager_step: Transition,
                 transfers: tuple[RoleTransfer, ...], changed: bool):
        set_rule, set_manager, set_manager_step, set_transfers, set_changed = self._setters
        set_rule(self, rule)
        set_manager(self, manager)
        set_manager_step(self, manager_step)
        set_transfers(self, transfers)
        set_changed(self, changed)
        _set_key(self, (rule, manager, manager_step, transfers, changed))


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
    a state reached again costs one lookup."""
    layout, slots = config._layout, config._slots
    if layout is None:
        return _digest(repr(config.key()))
    table = layout.digests
    digest = table.get(slots)
    if digest is None:
        if len(table) >= DIGEST_TABLE_CAP:
            table.clear()
        digest = table[slots] = _digest(layout.key_text(slots))
    return digest


# The most states one step core's table (`_StepCore.table`) holds: a full
# table is cleared, as a digest table is.  An entry keeps its state's
# successors, about 1.5 KB each on cs-nondet with 12 workers (tracemalloc),
# so a table stays under about 6 MB.
STEP_TABLE_CAP = 1 << 12


def _digest(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")


class _Guard:
    """One rule compiled against a model's slot layout.

    `blocker` gives the first reason the rule cannot fire, testing in this
    order: the manager's state, its phases, then each transfer's phase and
    trap.  Every name the rule holds resolves in a model `validate_model`
    accepts."""

    __slots__ = ("rule", "label", "manager", "source",
                 "manager_phases", "transfers", "writes", "memo")

    def __init__(self, model: StdModel, rule: ConsistencyRule):
        layout = model.layout
        self.rule = rule
        self.label = RuleStep(rule.name, rule.manager, rule.manager_step, rule.transfers,
                              rule.change is not None)
        self.memo = None  # see `changed`
        self.manager = layout.slot[rule.manager]
        states = layout.index[self.manager]
        self.source = states[rule.manager_step.source]
        # per manager role: (role slot, phase indices whose phase holds the
        # manager step)
        manager_phases = []
        for part in model.components[rule.manager].partitions:
            slot = layout.slot[(rule.manager, part.name)]
            manager_phases.append((slot, frozenset(
                i for i, name in enumerate(layout.names[slot])
                if rule.manager_step in part.phase_named(name).transitions)))
        self.manager_phases = tuple(manager_phases)
        # per transfer: (role slot, source phase index, component slot,
        # state indices of the trap, its reasons); per slot a firing writes,
        # the manager's and then each transfer's role: (slot, new index)
        transfers, writes = [], [(self.manager, states[rule.manager_step.target])]
        for tr in rule.transfers:
            role = layout.slot[(tr.component, tr.partition)]
            phases, comp = layout.index[role], layout.slot[tr.component]
            phase = model.components[tr.component].partition_named(tr.partition).phase_named(tr.source)
            states = layout.index[comp]
            trap = frozenset(states[s] for s in phase.trap_named(tr.trap).states)
            transfers.append((
                role, phases[tr.source], comp, trap,
                f"{tr.component}({tr.partition}) not in phase {tr.source}",
                f"trap {tr.trap} of {tr.component}({tr.partition}) not entered",
            ))
            writes.append((role, phases[tr.target]))
        self.transfers = tuple(transfers)
        self.writes = tuple(writes)

    def blocker(self, slots: tuple) -> Optional[str]:
        """Why the rule cannot fire at `slots`, or None; the changeset aside."""
        if slots[self.manager] != self.source:
            return "manager not at the step's source"
        for role, allowed in self.manager_phases:
            if slots[role] not in allowed:
                return "manager step outside a current phase"
        for role, source, comp, trap, not_in, not_entered in self.transfers:
            if slots[role] != source:
                return not_in
            if slots[comp] not in trap:
                return not_entered
        return None

    def apply(self, slots: tuple) -> tuple:
        """The slots after the manager step and the transfers of an enabled rule."""
        out = list(slots)
        for slot, index in self.writes:
            out[slot] = index
        return tuple(out)

    def changed(self, model: StdModel, slots: tuple) -> tuple[StdModel, Configuration]:
        """The (model, configuration) after the rule's changeset, applied to
        the slots after its manager step and transfers; raises RejectedChange
        with the diagnostics `apply_changeset` gives.

        The first walk whose model half passes keeps a `changeset.Carry` in
        `memo`, and every application then carries the slots through it and
        validates the configuration.  Only a live phase removal misses the
        memo; it walks the changeset again for its diagnostics, as does every
        application while no memo is kept."""
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

    `free` holds, per component that has a transition no rule claims (no
    other can take a free step), its slot, a getter of its state and its
    roles' phases, and the table from those to the sorted free steps there,
    each as (`DetailedStep`, new state index); entries are added on first
    use and never changed.  `guards` holds every rule compiled by name,
    and `guards_at` the same rules keyed by manager slot and then source
    state index, sorted by rule name.  `table` holds, per slots, the entry
    `steps` gives: the state's enabled steps, computed once per state while
    the entry is kept, and never the core's own model; `drive`, `_take`,
    `enabled_detailed` and `enabled_rules` read a state's steps there."""

    def __init__(self, model: StdModel):
        layout = self.layout = model.layout
        # the parts of the model `_fill` reads; the core keeps no reference
        # to the model itself, which holds the core
        self._components, self._claimed = model.components, model.claimed_steps
        self.table: dict[tuple, tuple[tuple, tuple, tuple]] = {}
        self.free = tuple(
            (slot, itemgetter(slot, *(layout.slot[(name, part.name)]
                                      for part in model.components[name].partitions)), {})
            for slot, name in enumerate(model.component_order, 1)
            if any((name, t) not in self._claimed for t in model.components[name].transitions)
        )
        self.guards = {name: _Guard(model, model.rules[name]) for name in sorted(model.rules)}
        guards_at: dict[int, dict[int, list[_Guard]]] = {}
        for guard in self.guards.values():
            guards_at.setdefault(guard.manager, {}).setdefault(guard.source, []).append(guard)
        self.guards_at = tuple(
            (slot, {state: tuple(guards) for state, guards in by_state.items()})
            for slot, by_state in sorted(guards_at.items())
        )

    def _fill(self, slot: int, at) -> tuple:
        layout = self.layout
        name = layout.owners[slot]
        std = self._components[name]
        state, *phase_indices = at if isinstance(at, tuple) else (at,)
        phases = [part.phase_named(layout.names[layout.slot[(name, part.name)]][index])
                  for part, index in zip(std.partitions, phase_indices)]
        claimed, states = self._claimed, layout.index[slot]
        return tuple(
            (DetailedStep(name, t), states[t.target])
            for t in std.transitions_from.get(layout.names[slot][state], ())
            if (name, t) not in claimed and all(t in phase.transitions for phase in phases)
        )

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
        rejected."""
        out = guard.apply(slots)
        if guard.rule.change is not None:
            return guard.changed(model, out)
        return model, Configuration.from_slots(self.layout, out)

    def steps(self, model: StdModel, slots: tuple) -> tuple[tuple, tuple, tuple]:
        """The enabled steps at `slots` of `model`, the core's own model:
        their labels, in `successors` order, the labels' keys (`_Label`) in
        the same order, and per label the (model after the step, None when
        it keeps `model`; configuration after it).  The first call at a
        state fills its entry in `table` with one `successors` call; a full
        table is cleared first."""
        entry = self.table.get(slots)
        if entry is None:
            succ = successors(model, Configuration.from_slots(self.layout, slots))
            labels = tuple([label for label, _, _ in succ])
            entry = (
                labels,
                tuple([label.key for label in labels]),
                tuple([(None if after is model else after, config) for _, after, config in succ]),
            )
            if len(self.table) >= STEP_TABLE_CAP:
                self.table.clear()
            self.table[slots] = entry
        return entry


def _slots(layout: SlotLayout, config: Configuration) -> tuple:
    """The configuration's slots in `layout`; raises UnknownElement when it
    does not fit, naming the first entry that does not."""
    slots = config.slots_in(layout)
    if slots is None:
        raise UnknownElement(layout.misfit(config.key()))
    return slots


@_per_object
def _core(model: StdModel) -> _StepCore:
    """The model's step core; raises ModelRejected when `validate_model`
    rejects the model, so every entry that takes a model refuses it."""
    rejected = _model_diagnostics(model)
    if rejected:
        raise ModelRejected(rejected)
    return _StepCore(model)


def enabled_detailed(model: StdModel, config: Configuration, component: str) -> set[Transition]:
    """Transitions the component may take on its own from the current state;
    claimed steps fire only via rule firings."""
    core = _core(model)
    if component not in model.components:
        raise UnknownElement(component)
    labels = core.steps(model, _slots(core.layout, config))[0]
    return {label.transition for label in labels
            if isinstance(label, DetailedStep) and label.component == component}


def _fire(
    model: StdModel, config: Configuration, rule: ConsistencyRule
) -> tuple[Union[None, str, RejectedChange], Optional[tuple[StdModel, Configuration]]]:
    """(None, (model, configuration) after firing the rule) when it is enabled,
    else (why not, None), as `_StepCore.fire` gives them; see `fire_rule`.
    Raises UnknownElement when the model does not hold the rule."""
    core = _core(model)
    guard = core.guards.get(rule.name)
    if guard is None or guard.rule != rule:  # an equal rule object is the model's own
        raise UnknownElement(f"rule {rule.name} is not the model's")
    return core.fire(model, _slots(core.layout, config), guard)


def rule_blocker(model: StdModel, config: Configuration, rule: ConsistencyRule) -> Optional[str]:
    """Why the rule cannot fire right now; None when it is enabled."""
    why = _fire(model, config, rule)[0]
    return f"changeset rejected: {why.diagnostics[0]}" if isinstance(why, RejectedChange) else why


def enabled_rules(model: StdModel, config: Configuration) -> list[ConsistencyRule]:
    """Rules whose manager step, transfer guards and (if present) changeset
    are all enabled now, sorted by rule name."""
    core = _core(model)
    labels = core.steps(model, _slots(core.layout, config))[0]
    return [core.guards[label.rule].rule for label in labels if isinstance(label, RuleStep)]


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
    (component, transition), then rule firings by rule name.

    The parent's slots are copied once, into a working list.  A free step
    writes its component's new state index there, and its successor's
    configuration holds a `tuple` copy of the list, built as
    `Configuration.from_slots` builds one but inline, with no Python call
    per edge; the component's slot is put back after its steps.  The rules
    whose manager sits at their step's source are then tested by name with
    `_Guard.blocker`.  An enabled rule without a changeset writes its
    `_Guard.writes` into the working list in the same way, and puts them
    back after its successor; one with a changeset goes through
    `_Guard.changed`, and is not enabled when that raises RejectedChange."""
    core = _core(model)
    layout = core.layout
    slots = config._slots if config._layout is layout else _slots(layout, config)
    work, new = list(slots), object.__new__
    out: list[tuple[StepLabel, StdModel, Configuration]] = []
    append = out.append
    for slot, get, table in core.free:
        at = get(slots)
        steps = table.get(at)
        if steps is None:
            steps = table[at] = core._fill(slot, at)
        if steps:
            for step, state in steps:
                work[slot] = state
                after = new(Configuration)  # `Configuration.from_slots`, inline
                after._layout = layout
                after._slots = tuple(work)
                after._key = None
                append((step, model, after))
            work[slot] = slots[slot]
    candidates = ()
    for slot, by_state in core.guards_at:
        at = by_state.get(slots[slot])
        if at:  # by rule name already; merged only when two slots contribute
            candidates = sorted((*candidates, *at), key=lambda g: g.rule.name) if candidates else at
    for guard in candidates:
        if guard.blocker(slots) is None:
            if guard.rule.change is None:
                writes = guard.writes
                for slot, index in writes:
                    work[slot] = index
                after = new(Configuration)  # `Configuration.from_slots`, inline
                after._layout = layout
                after._slots = tuple(work)
                after._key = None
                append((guard.label, model, after))
                for slot, _ in writes:
                    work[slot] = slots[slot]
            else:
                try:
                    append((guard.label, *guard.changed(model, guard.apply(slots))))
                except RejectedChange:
                    pass
    return out


def _take(
    model: StdModel, config: Configuration, label: StepLabel
) -> Optional[tuple[StdModel, Configuration]]:
    """The (model, configuration) after the recorded step, or None when no
    enabled step carries this label: the label is found among the state's
    steps (`_StepCore.steps`) by its key, with one `index` call that
    compares plain tuples and calls no label's `__eq__`."""
    core = _core(model)
    layout = core.layout
    slots = config._slots if config._layout is layout else _slots(layout, config)
    _, keys, afters = core.steps(model, slots)
    try:
        after_model, after = afters[keys.index(label.key)]
    except ValueError:
        return None
    return model if after_model is None else after_model, after


class Trace(Record):
    """One executed trajectory: initial configuration, the labels taken with
    the digest of each resulting configuration, final model version."""

    __slots__ = ("initial", "steps", "final_model_version")
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

    def choose(self, labels: Sequence[StepLabel]) -> Optional[int]:
        return self.rng.randrange(len(labels))


class InteractivePolicy:
    """Driver contract: the chooser is shown the successor labels and returns
    an index, or None to stop."""

    def __init__(self, chooser: Callable[[Sequence[StepLabel]], Optional[int]]):
        self.chooser = chooser

    def choose(self, labels: Sequence[StepLabel]) -> Optional[int]:
        return self.chooser(labels)


def drive(
    model: StdModel, config: Configuration, policy, max_steps: int
) -> Iterator[tuple[StepLabel, StdModel, Configuration]]:
    """The steps a policy takes, one at a time as it takes them, for at most
    `max_steps` steps: (label, model, configuration) after each.  The policy
    chooses among the labels of the state's steps in `successors` order,
    read from the model's step table (`_StepCore.steps`), so a state met
    again is not expanded again."""
    for _ in range(max_steps):
        core = _core(model)
        layout = core.layout
        slots = config._slots if config._layout is layout else _slots(layout, config)
        labels, _, afters = core.steps(model, slots)
        if not labels:
            return
        choice = policy.choose(labels)
        if choice is None:
            return
        after_model, config = afters[choice]
        if after_model is not None:
            model = after_model
        yield labels[choice], model, config


def run(model: StdModel, config: Configuration, policy, max_steps: int) -> Trace:
    """Drive the system under a policy for at most `max_steps` steps."""
    final = config
    steps: list[tuple[StepLabel, int]] = []
    for label, _, final in drive(model, config, policy, max_steps):
        steps.append((label, config_digest(final)))
    return Trace(initial=config, steps=tuple(steps), final_model_version=final.model_version)


def replay(model: StdModel, config: Configuration, labels: Sequence[StepLabel]) -> Trace:
    """Deterministically re-execute a label sequence from a configuration;
    raises ReplayDivergence at the first label that is not enabled.  Each
    label is found by its key among the state's steps in the step table
    (`_take`), so a replay of a walk `run` took fires no step again."""
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
    or TypeError) when a field is missing, its `type` is neither "detailed"
    nor "rule", or a name is not a JSON string."""
    kind = data["type"]
    if kind == "detailed":
        return DetailedStep(_name(data["component"]), Transition(*_names(data["transition"], 3)))
    if kind != "rule":
        raise ValueError(f"label type {kind!r} is neither 'detailed' nor 'rule'")
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
           '"modelVersion": %d, "rolePhases": {%s}}\n')
# a label's JSON object, its keys sorted, with each name in place
_DETAILED = '{"component": %s, "transition": [%s, %s, %s], "type": "detailed"}'
_RULE = ('{"changeSet": %s, "manager": %s, "managerStep": [%s, %s, %s], "rule": %s, '
         '"transfers": [%s], "type": "rule"}')
_TRANSFER = "[%s, %s, %s, %s, %s]"


def _label_json(label: Optional[StepLabel]) -> str:
    """`json.dumps(label_to_json(label), sort_keys=True)`, filled into a
    fixed template with each name escaped by the C escape `json.dumps`
    uses (`model._json_string`).  A label with a name that is not a `str`
    is written by that `json.dumps` call, which raises its TypeError for a
    name JSON cannot write; a `changed` that is not a bool is written by
    `json.dumps` alone."""
    if label is None:
        return "null"
    quote = _json_string
    try:
        if isinstance(label, DetailedStep):
            return _DETAILED % (quote(label.component), *map(quote, label.transition))
        changed = label.changed
        changed = (("true" if changed else "false") if changed.__class__ is bool
                   else json.dumps(changed))
        transfers = ", ".join([
            _TRANSFER % (quote(t.component), quote(t.partition), quote(t.source), quote(t.trap),
                         quote(t.target))
            for t in label.transfers
        ])
        return _RULE % (changed, quote(label.manager), *map(quote, label.manager_step),
                        quote(label.rule), transfers)
    except TypeError:  # a name that is not a `str`
        return json.dumps(label_to_json(label), sort_keys=True)


def _record_line(
    labels: dict, index: int, label: Optional[StepLabel], model: StdModel,
    config: Configuration, digest: int,
) -> str:
    """The trace record of `config` reached by `label` (None for the first):
    its line of the exported JSON-lines form, with the bytes
    `json.dumps(record, sort_keys=True)` gives.  `labels` keeps the JSON
    text of each distinct label (`_label_json`) across the calls it is
    passed to, keyed by the label's key, so finding it calls no label's
    `__eq__`.  Raises UnknownElement when `config` does not fit the
    model's layout."""
    layout = model.layout
    slots = config._slots if config._layout is layout else _slots(layout, config)
    components, roles = layout.record_entries(slots)
    key = None if label is None else label.key
    text = labels.get(key)
    if text is None:
        text = labels[key] = _label_json(label)
    return _RECORD % (components, f"{digest:016x}", index, text, slots[0], roles)


def write_trace_jsonl(
    model: StdModel, config: Configuration, steps: Iterable[tuple[StepLabel, int]],
    write: Callable[[str], object],
) -> tuple[int, int]:
    """Pass each line of the exported JSON-lines form of the (label, digest)
    steps from `config` to `write` as soon as its step is taken (`_take`)
    and its digest checked, so nothing accumulates; steps that `drive` or
    a replay took are found in their step tables, not fired again.
    Returns the number of steps and the final model version.  Line 0 is the
    initial configuration, each further line one step (see `_record_line`);
    a configuration that does not fit its layout raises UnknownElement
    before its line is written.  Raises ModelRejected, before the first
    line, when `validate_model` rejects the model, and ReplayDivergence when
    a label is not enabled or a step reaches a configuration whose digest
    differs from the recorded one."""
    _core(model)
    labels: dict = {}
    write(_record_line(labels, 0, None, model, config, config_digest(config)))
    index = 0
    for index, (label, digest) in enumerate(steps, start=1):
        after = _take(model, config, label)
        if after is None or config_digest(after[1]) != digest:
            raise ReplayDivergence(index - 1, label)
        model, config = after
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


def parse_trace(text: str) -> tuple[Optional[int], list[tuple[StepLabel, int]]]:
    """The digest recorded for the start of an exported JSON-lines trace
    (None when its first record is a step, or has no `digest` key) and the
    (label, digest) of each step, in order.  Raises ValueError naming the
    1-based line of the first record that is not a trace record or whose
    digest is not 16 hex digits.  Every record has a `label` key; only the
    first may hold null (the initial record).

    Each line is decoded as one JSON value; a line `raw_decode` does not take
    whole is read again by `json.loads`, for its error.  Each distinct label
    is read by `label_from_json` once, keyed by the `marshal` bytes of its
    JSON value: equal bytes load as equal values of equal types, so `1` and
    `true` keep apart, and an equal label written with another key order
    only costs one more `label_from_json` call."""
    start, steps = None, []
    labels: dict[bytes, StepLabel] = {}
    initial = True  # the next record is the first, which may be the initial one
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
            label = record["label"]
            if label is None:
                if not initial:
                    raise ValueError("a null label after the first record")
                if "digest" in record:
                    start = _recorded(record["digest"])
            else:
                digest = _recorded(record["digest"])
                key = dumps(label)
                step = labels.get(key)
                if step is None:
                    step = labels[key] = label_from_json(label)
                steps.append((step, digest))
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
            raise ValueError(f"line {number}: not a trace record ({exc!r})") from exc
        initial = False
    return start, steps


def _recorded(text: str) -> int:
    """The value of a recorded digest, 16 hex digits."""
    if not _DIGEST.fullmatch(text):
        raise ValueError(f"digest {text!r} is not 16 hex digits")
    return int(text, 16)


def parse_trace_labels(text: str) -> list[StepLabel]:
    """Labels of an exported JSON-lines trace, in order; see `parse_trace`."""
    return [label for label, _ in parse_trace(text)[1]]

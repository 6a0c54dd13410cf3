"""Domain types for coordination models and their well-formedness checks.

A model is a set of components, each a state-transition diagram (STD).
Per component, named partitions (roles) group phases: sub-STDs that act as
temporary behavioral constraints.  A trap is a subset of a phase's states
that, once entered, cannot be left while the phase is in force; traps are
the commitment signals that enable phase transfers.  Consistency rules
synchronize one manager transition with phase transfers of employee roles.

All types are immutable values after construction; validation is pure and
returns ordered diagnostics rather than raising.  Nothing mutates a model,
its components or the mappings it holds once it is built: a changeset makes
a new `StdModel`.  Facts derived from one `Std` or `StdModel` object (its
transitions by source, claimed steps, rules by manager step, roles, phase
states, the engine's table of free steps, and the canonical form in
`changeset.canonical_model`) are therefore computed once per object and kept
in its instance `__dict__`, where `functools.cached_property` keeps them.
They are not dataclass fields, so `==`, `repr` and `dataclasses.replace`
ignore them, and a replaced object starts with none.  Each is a function of
the object alone.

A `Configuration` is its canonical key: the model version, the sorted
(component, state) pairs and the sorted ((component, partition), phase)
pairs.  The engine derives a successor's key from its parent's by replacing
only the pairs a step changes (`with_pair`), so a step sorts nothing and a
successor that was reached before costs one tuple.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

# Reserved trap name: the trap consisting of all states of a phase.  It is
# always available on every phase and may not be declared explicitly.
TRIV = "triv"


class Transition(NamedTuple):
    source: str
    action: str
    target: str

    def pretty(self) -> str:
        return f"({self.source},{self.action},{self.target})"


@dataclass(frozen=True)
class Trap:
    """Nonempty subset of a phase's states, closed under the phase's transitions."""

    name: str
    states: frozenset[str]


@dataclass(frozen=True)
class Phase:
    """A sub-STD: subset of states and of the transitions among them."""

    name: str
    states: frozenset[str]
    transitions: frozenset[Transition]
    traps: tuple[Trap, ...] = ()

    def trap_named(self, name: str) -> Optional[Trap]:
        if name == TRIV:
            return Trap(TRIV, self.states)
        for t in self.traps:
            if t.name == name:
                return t
        return None

    def all_traps(self) -> tuple[Trap, ...]:
        return (Trap(TRIV, self.states),) + self.traps


@dataclass(frozen=True)
class Partition:
    """A role: named set of phases over one component, with an initial phase."""

    name: str
    phases: tuple[Phase, ...]
    initial: str

    def phase_named(self, name: str) -> Optional[Phase]:
        for p in self.phases:
            if p.name == name:
                return p
        return None


@dataclass(frozen=True)
class Std:
    """A component's detailed behavior: states, action labels, transitions."""

    name: str
    states: frozenset[str]
    actions: frozenset[str]
    transitions: frozenset[Transition]
    initial: str
    partitions: tuple[Partition, ...] = ()

    def partition_named(self, name: str) -> Optional[Partition]:
        for p in self.partitions:
            if p.name == name:
                return p
        return None

    @cached_property
    def transitions_from(self) -> dict[str, tuple[Transition, ...]]:
        """Sorted outgoing transitions of each state that has any."""
        out: dict[str, list[Transition]] = {}
        for t in sorted(self.transitions):
            out.setdefault(t.source, []).append(t)
        return {state: tuple(ts) for state, ts in out.items()}


@dataclass(frozen=True)
class RoleTransfer:
    """One phase transfer of a rule: role (component, partition) moves from
    the source phase to the target phase, guarded by a trap of the source."""

    component: str
    partition: str
    source: str
    trap: str
    target: str

    def pretty(self) -> str:
        return f"{self.component}({self.partition}): {self.source}-{self.trap}->{self.target}"


@dataclass(frozen=True)
class ConsistencyRule:
    """Atomic coordination step: a manager transition synchronized with phase
    transfers of employee roles, optionally carrying a model delta."""

    name: str
    manager: str
    manager_step: Transition
    transfers: tuple[RoleTransfer, ...] = ()
    change: Optional["ChangeSet"] = None  # noqa: F821 - defined in changeset.py


@dataclass(frozen=True)
class StdModel:
    """A full coordination model.

    `variables` holds model-level values: changeset fragments (the migration
    rule-set container) or integers.  `version` is stamped up by every
    changeset application.
    """

    components: Mapping[str, Std]
    rules: Mapping[str, ConsistencyRule]
    variables: Mapping[str, object] = field(default_factory=dict)
    version: int = 0

    def component_names(self) -> list[str]:
        return list(self.component_order)

    def rule_names(self) -> list[str]:
        return sorted(self.rules)

    @cached_property
    def claimed_steps(self) -> frozenset[tuple[str, Transition]]:
        """Steps that appear as some rule's manager step; they fire only via rules."""
        return frozenset((r.manager, r.manager_step) for r in self.rules.values())

    @cached_property
    def rules_by_manager_step(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """Sorted rule names by (manager, source state of the manager step):
        a rule can be enabled only while its manager sits at that source."""
        out: dict[tuple[str, str], list[str]] = {}
        for name in sorted(self.rules):
            rule = self.rules[name]
            out.setdefault((rule.manager, rule.manager_step.source), []).append(name)
        return {key: tuple(names) for key, names in out.items()}

    @cached_property
    def component_order(self) -> tuple[str, ...]:
        """The component names, sorted."""
        return tuple(sorted(self.components))

    @cached_property
    def roles(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """The roles (component, partition) of each component, in partition order."""
        return {
            name: tuple((name, part.name) for part in std.partitions)
            for name, std in self.components.items()
        }

    @cached_property
    def partition_count(self) -> int:
        """The number of partitions of all components."""
        return sum(len(std.partitions) for std in self.components.values())

    @cached_property
    def phase_states(self) -> dict[tuple[tuple[str, str], str], frozenset[str]]:
        """(role, phase name) -> the states of that phase; of two phases of
        one name, the first, as `Partition.phase_named` finds it."""
        return {
            ((name, part.name), phase.name): phase.states
            for name, std in self.components.items()
            for part in std.partitions
            for phase in reversed(part.phases)
        }

    @cached_property
    def free_steps(self) -> dict[tuple, tuple]:
        """(component, state, current phase of each of its `roles`) -> the
        sorted free `engine.DetailedStep`s there.  Filled by the engine on
        first use of each key; entries are only added, never changed."""
        return {}


class Configuration:
    """Live global state: detailed state per component, current phase per role.

    A configuration is its canonical key: (model version, (component, state)
    pairs sorted by component, ((component, partition), phase) pairs sorted by
    role).  `detailed` and `phases` are read-only views of the pairs, built on
    first access and then kept.
    """

    __slots__ = ("_key", "_detailed", "_phases")

    def __init__(
        self,
        detailed: Mapping[str, str],
        phases: Mapping[tuple[str, str], str],
        model_version: int = 0,
    ):
        self._key = (model_version, tuple(sorted(detailed.items())), tuple(sorted(phases.items())))
        self._detailed = self._phases = None

    @classmethod
    def from_key(cls, key: tuple) -> "Configuration":
        """The configuration whose `key()` is `key`; the pairs must already be
        sorted, with each component and role at most once."""
        config = object.__new__(cls)
        config._key = key
        config._detailed = config._phases = None
        return config

    def key(self) -> tuple:
        """Canonical comparable identity (version, detailed, role phases)."""
        return self._key

    @property
    def model_version(self) -> int:
        return self._key[0]

    @property
    def detailed(self) -> Mapping[str, str]:
        if self._detailed is None:
            self._detailed = MappingProxyType(dict(self._key[1]))
        return self._detailed

    @property
    def phases(self) -> Mapping[tuple[str, str], str]:
        if self._phases is None:
            self._phases = MappingProxyType(dict(self._key[2]))
        return self._phases

    def phase_of(self, component: str, partition: str) -> str:
        return self.phases[(component, partition)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __reduce__(self):
        return Configuration.from_key, (self._key,)

    def __repr__(self) -> str:
        return (
            f"Configuration(detailed={dict(self._key[1])!r}, "
            f"phases={dict(self._key[2])!r}, model_version={self._key[0]!r})"
        )


def with_pair(pairs: tuple, slot, value) -> tuple:
    """Sorted (slot, value) pairs with `slot` set to `value`, added in order
    when absent; the other pairs are shared, not re-sorted."""
    i = bisect_left(pairs, (slot,))
    rest = i + 1 if i < len(pairs) and pairs[i][0] == slot else i
    return pairs[:i] + ((slot, value),) + pairs[rest:]


@dataclass(frozen=True)
class Diagnostic:
    """One violated invariant, naming the offending element."""

    code: str
    owner: str
    element: str = ""
    detail: str = ""
    line: int = 0
    column: int = 0

    def sort_key(self) -> tuple:
        return (self.owner, self.element, self.code, self.detail)

    def __str__(self) -> str:
        loc = f"{self.line}:{self.column}: " if self.line else ""
        elem = f" {self.element}" if self.element else ""
        det = f" ({self.detail})" if self.detail else ""
        return f"{loc}{self.code}: {self.owner}{elem}{det}"


def _sorted_diags(diags: Iterable[Diagnostic]) -> list[Diagnostic]:
    return sorted(diags, key=Diagnostic.sort_key)


def validate_std(std: Std) -> list[Diagnostic]:
    """Check core STD invariants; empty result means well-formed."""
    out = []
    if std.initial not in std.states:
        out.append(Diagnostic("initial-not-a-state", std.name, std.initial))
    for t in sorted(std.transitions):
        if t.source not in std.states:
            out.append(Diagnostic("unknown-source", std.name, t.source, t.pretty()))
        if t.target not in std.states:
            out.append(Diagnostic("unknown-target", std.name, t.target, t.pretty()))
        if t.action not in std.actions:
            out.append(Diagnostic("unknown-action", std.name, t.action, t.pretty()))
    return _sorted_diags(out)


def validate_trap(phase: Phase, trap: Trap) -> list[Diagnostic]:
    """Closure check: no phase transition may exit the trap.

    Structural containment (trap states inside the phase) is checked
    elsewhere; this only decides closure.
    """
    out = []
    for t in sorted(phase.transitions):
        if t.source in trap.states and t.target not in trap.states:
            out.append(Diagnostic("trap-not-closed", phase.name, trap.name, f"exit {t.pretty()}"))
    return out


def is_connecting(trap: Trap, source: Phase, target: Phase) -> bool:
    """True iff every trap state belongs to the target phase, so a transfer
    guarded by this trap cannot strand the detailed state."""
    del source  # the trap is assumed to be a valid trap of `source`
    return trap.states <= target.states


def _validate_phase(owner: str, std: Std, phase: Phase) -> list[Diagnostic]:
    out = []
    where = f"{owner}.{phase.name}"
    if not phase.states:
        out.append(Diagnostic("empty-phase", where))
    for s in sorted(phase.states - std.states):
        out.append(Diagnostic("phase-state-outside-std", where, s))
    for t in sorted(phase.transitions):
        if t.source not in phase.states or t.target not in phase.states:
            out.append(Diagnostic("phase-transition-outside-phase", where, t.pretty()))
        if t not in std.transitions:
            out.append(Diagnostic("phase-transition-outside-std", where, t.pretty()))
    seen = set()
    for trap in phase.traps:
        if trap.name == TRIV:
            out.append(Diagnostic("reserved-trap-name", where, TRIV))
            continue
        if trap.name in seen:
            out.append(Diagnostic("duplicate-trap", where, trap.name))
        seen.add(trap.name)
        if not trap.states:
            out.append(Diagnostic("empty-trap", where, trap.name))
        for s in sorted(trap.states - phase.states):
            out.append(Diagnostic("trap-state-outside-phase", where, f"{trap.name}.{s}"))
        out.extend(
            Diagnostic(d.code, where, d.element, d.detail) for d in validate_trap(phase, trap)
        )
    return out


def _validate_partition(std: Std, part: Partition) -> list[Diagnostic]:
    out = []
    where = f"{std.name}.{part.name}"
    names = [p.name for p in part.phases]
    for n in sorted(set(n for n in names if names.count(n) > 1)):
        out.append(Diagnostic("duplicate-phase", where, n))
    covered: set[str] = set()
    for phase in part.phases:
        covered |= phase.states
        out.extend(_validate_phase(where, std, phase))
    for s in sorted(std.states - covered):
        out.append(Diagnostic("uncovered-state", where, s))
    init = part.phase_named(part.initial)
    if init is None:
        out.append(Diagnostic("unknown-initial-phase", where, part.initial))
    elif std.initial in std.states and std.initial not in init.states:
        out.append(Diagnostic("initial-state-outside-initial-phase", where, std.initial))
    return out


def _validate_rule(model: StdModel, rule: ConsistencyRule) -> list[Diagnostic]:
    out = []
    mgr = model.components.get(rule.manager)
    if mgr is None:
        out.append(Diagnostic("unresolved-component", rule.name, rule.manager))
        return out
    if rule.manager_step not in mgr.transitions:
        out.append(Diagnostic("unresolved-transition", rule.name, rule.manager_step.pretty()))
    seen_roles = set()
    for tr in rule.transfers:
        role = (tr.component, tr.partition)
        if role in seen_roles:
            out.append(Diagnostic("duplicate-transfer-target", rule.name, f"{tr.component}({tr.partition})"))
        seen_roles.add(role)
        comp = model.components.get(tr.component)
        if comp is None:
            out.append(Diagnostic("unresolved-component", rule.name, tr.component))
            continue
        part = comp.partition_named(tr.partition)
        if part is None:
            out.append(Diagnostic("unresolved-partition", rule.name, f"{tr.component}.{tr.partition}"))
            continue
        src = part.phase_named(tr.source)
        tgt = part.phase_named(tr.target)
        if src is None:
            out.append(Diagnostic("unresolved-phase", rule.name, tr.source))
        if tgt is None:
            out.append(Diagnostic("unresolved-phase", rule.name, tr.target))
        if src is None or tgt is None:
            continue
        trap = src.trap_named(tr.trap)
        if trap is None:
            out.append(Diagnostic("unresolved-trap", rule.name, f"{tr.source}.{tr.trap}"))
            continue
        if not is_connecting(trap, src, tgt):
            out.append(
                Diagnostic("trap-not-connecting", rule.name, tr.trap, f"{tr.source}->{tr.target}")
            )
    return out


def validate_model(model: StdModel) -> list[Diagnostic]:
    """Full static check: the conjunction of all element-level validators plus
    cross-reference resolution of every rule."""
    out: list[Diagnostic] = []
    for name in sorted(model.components):
        std = model.components[name]
        if std.name != name:
            out.append(Diagnostic("name-mismatch", name, std.name))
        out.extend(validate_std(std))
        part_names = [p.name for p in std.partitions]
        for n in sorted(set(n for n in part_names if part_names.count(n) > 1)):
            out.append(Diagnostic("duplicate-partition", name, n))
        for part in std.partitions:
            out.extend(_validate_partition(std, part))
    for name in sorted(model.rules):
        rule = model.rules[name]
        if rule.name != name:
            out.append(Diagnostic("name-mismatch", name, rule.name))
        out.extend(_validate_rule(model, rule))
    for name in sorted(model.variables):
        value = model.variables[name]
        if not isinstance(value, int) and type(value).__name__ != "ChangeSet":
            out.append(Diagnostic("bad-variable-value", name, type(value).__name__))
    return _sorted_diags(out)


def validate_configuration(model: StdModel, config: Configuration) -> list[Diagnostic]:
    """Consistency of a live configuration against its model: every detailed
    state sits inside the current phase of every role of its component."""
    if _all_clear(model, config):
        return []
    return _configuration_diagnostics(model, config)


def _all_clear(model: StdModel, config: Configuration) -> bool:
    """True only when `_configuration_diagnostics` finds nothing, read off the
    key: as many entries as the model has components and partitions, each a
    known state or a known phase holding its component's state.  A partition
    name declared twice in one component (which `validate_model` rejects)
    leaves fewer roles than partitions, so such a model is never clear here."""
    version, detailed, phases = config.key()
    if (
        version != model.version
        or len(detailed) != len(model.components)
        or len(phases) != model.partition_count
    ):
        return False
    components, phase_states = model.components, model.phase_states
    for comp, state in detailed:
        std = components.get(comp)
        if std is None or state not in std.states:
            return False
    state_of = dict(detailed)
    for entry in phases:
        if state_of.get(entry[0][0]) not in phase_states.get(entry, ()):
            return False
    return True


def _configuration_diagnostics(model: StdModel, config: Configuration) -> list[Diagnostic]:
    if config.model_version != model.version:
        return [
            Diagnostic(
                "version-mismatch", "configuration", str(config.model_version), f"model {model.version}"
            )
        ]
    out: list[Diagnostic] = []
    for comp in sorted(model.components):
        if comp not in config.detailed:
            out.append(Diagnostic("missing-config-entry", comp))
    for comp in sorted(config.detailed):
        std = model.components.get(comp)
        if std is None:
            out.append(Diagnostic("unknown-config-entry", comp))
            continue
        state = config.detailed[comp]
        if state not in std.states:
            out.append(Diagnostic("unknown-state", comp, state))
            continue
        for part in std.partitions:
            role = (comp, part.name)
            phase_name = config.phases.get(role)
            if phase_name is None:
                out.append(Diagnostic("missing-config-entry", comp, part.name))
                continue
            phase = part.phase_named(phase_name)
            if phase is None:
                out.append(Diagnostic("unresolved-phase", comp, f"{part.name}.{phase_name}"))
                continue
            if state not in phase.states:
                out.append(
                    Diagnostic("phase-violation", comp, part.name, f"{state} not in {phase_name}")
                )
    for comp, part_name in sorted(config.phases):
        std = model.components.get(comp)
        if std is None or std.partition_named(part_name) is None:
            out.append(Diagnostic("unknown-config-entry", comp, part_name))
    return _sorted_diags(out)


def initial_configuration(model: StdModel) -> Configuration:
    """The configuration a validated model starts in: initial states inside
    the initial phase of every partition."""
    detailed = {name: std.initial for name, std in model.components.items()}
    phases = {
        (name, part.name): part.initial
        for name, std in model.components.items()
        for part in std.partitions
    }
    return Configuration(detailed=detailed, phases=phases, model_version=model.version)

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
a new `StdModel`, which shares every component, rule and changeset object
it leaves alone.  Facts derived from one such object (transitions by
source, claimed steps, slot layout, the engine's step tables, the
diagnostics of a model and of a component, a changeset's depth in `dsl`
and the canonical forms in `changeset`) are therefore computed once per
object and kept in its instance `__dict__` by `cached_property` or
`_per_object`, and by no other code.
They are not record fields (`Record`), so `==`, `repr` and `replace`
ignore them, and a replaced object starts with none.  Each is a function of
the object alone.

Each `StdModel` object also has a `SlotLayout`, built once: slot 0 holds
the model version, then one slot per component (sorted by name) holds the
index of its state among its sorted states, then one slot per role (sorted
(component, partition)) holds the index of its phase among the role's sorted
phase names.  The layout's tables (`owners`, `names`, `index`) are
indexed by slot, so a caller reads them at the slot itself.  For a model
`validate_model` accepts they depend only on its canonical form.  Its
version is a non-negative int (else `bad-version`), and a `Configuration`
refuses a version that is not an int, so slot 0 holds an int.  A
configuration is backed either by its canonical pair key (the model
version, the sorted (component, state) pairs and the sorted ((component,
partition), phase) pairs) or by a layout and a flat tuple of slots.
`key()`, `detailed`, `phases`, `==`, `hash`, `repr` and pickling act on the
pair form, which a slot-backed configuration decodes once, on first use.
The `repr` of the key, which digests hash, is joined from per-slot texts
that a layout builds on its first use, without decoding
(`SlotLayout.key_text`); so are the entries of every trace record
(`SlotLayout.record_entries`).  A layout also keeps the digest of each
of its configurations that is digested (`SlotLayout.digests`), so a state
is hashed once, and the text of each written state's trace record around
its digest, index and label (`SlotLayout.records`, cleared at
`engine.RECORD_TABLE_CAP` = 4096 states; an entry is about 0.6 KB on
cs-nondet with 7 workers and 1.7 KB with 30), so a state's entries are
joined once.
The engine and the explorer work on slots: a successor's flat tuple of
small ints is its parent's with the slots its step changes rewritten.
"""

from __future__ import annotations

import json
from functools import cached_property, wraps
from itertools import repeat
from operator import attrgetter, getitem
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

# Reserved trap name: the trap consisting of all states of a phase.  It is
# always available on every phase and may not be declared explicitly.
TRIV = "triv"

# Longest integer literal the .pdm and .pprop readers accept.  It stays
# below 640, the lowest limit Python's int/str conversion can be set to
# (4300 by default), so every version and bound read can be printed.
# `validate_model` refuses a longer version or int variable, so a changeset
# that bumps a version past it is rejected.
MAX_INT_DIGITS = 600


def _per_object(fact):
    """`fact`, computed once per element object and kept in the element's
    `__dict__` under `fact`'s name (see the module docstring)."""
    name = fact.__name__
    def kept(element):
        facts = element.__dict__
        try:
            return facts[name]
        except KeyError:
            pass  # computed outside the handler, so its errors chain no KeyError
        value = facts[name] = fact(element)
        return value
    return wraps(fact)(kept)


class Record:
    """Base of the package's records.  A record class lists its fields, in
    order, as its `__slots__` (then "__dict__" and "__weakref__" where
    per-object facts are kept), which give its `_fields`, and their defaults
    in `_defaults`, where a list or dict is copied for each record.  It takes
    its fields in order or by name, compares equal only to a record of its
    own class with equal fields, hashes the tuple of its fields, has a `repr`
    naming them and pickles and copies by them; fields named in `_hidden`
    are left out of `==`, the hash and `repr`.  A record is frozen unless its
    class is declared with `frozen=False`; a mutable record is unhashable.
    Unlike a dataclass, this builds a class without generating code: about
    12 µs a class against about 660 µs for a frozen dataclass (five fields,
    Python 3.11)."""

    __slots__ = ()
    _defaults: Mapping[str, object] = {}
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("__"))
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls._fields)
        cls._shown = shown = tuple(name for name in cls._fields if name not in cls._hidden)
        get = attrgetter(*shown)
        cls._values = get if len(shown) > 1 else staticmethod(lambda record: (get(record),))
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def __init__(self, *values, **named):
        setters = self._setters
        if named or len(values) != len(setters):
            values = self._bind(values, named)
        for set_field, value in zip(setters, values):
            set_field(self, value)

    @classmethod
    def _bind(cls, values: tuple, named: dict) -> list:
        """The value of every field, from the arguments of a constructor call."""
        fields = cls._fields
        if len(values) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, not {len(values)}")
        for name in named:
            if name not in fields[len(values):]:
                problem = "multiple values for" if name in fields else "an unexpected keyword"
                raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        values = list(values)
        for name in fields[len(values):]:
            if name in named:
                values.append(named[name])
            elif name in cls._defaults:
                value = cls._defaults[name]
                values.append(value.copy() if isinstance(value, (list, dict)) else value)
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        return values

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


def replace(record: Record, /, **changes) -> Record:
    """A new record of `record`'s class with the fields in `changes` replaced."""
    for name in changes:
        if name not in record._fields:
            raise TypeError(f"{record.__class__.__name__} has no field {name!r}")
    return record.__class__(*[changes[name] if name in changes else getattr(record, name)
                              for name in record._fields])


class Transition(NamedTuple):
    source: str
    action: str
    target: str

    def pretty(self) -> str:
        return f"({self.source},{self.action},{self.target})"


class Trap(Record):
    """Nonempty subset of a phase's states, closed under the phase's transitions."""

    __slots__ = ("name", "states")
    name: str
    states: frozenset[str]


class Phase(Record):
    """A sub-STD: subset of states and of the transitions among them."""

    __slots__ = ("name", "states", "transitions", "traps")
    _defaults = {"traps": ()}
    name: str
    states: frozenset[str]
    transitions: frozenset[Transition]
    traps: tuple[Trap, ...]

    def trap_named(self, name: str) -> Optional[Trap]:
        if name == TRIV:
            return Trap(TRIV, self.states)
        for t in self.traps:
            if t.name == name:
                return t
        return None


class Partition(Record):
    """A role: named set of phases over one component, with an initial phase."""

    __slots__ = ("name", "phases", "initial")
    name: str
    phases: tuple[Phase, ...]
    initial: str

    def phase_named(self, name: str) -> Optional[Phase]:
        for p in self.phases:
            if p.name == name:
                return p
        return None


class Std(Record):
    """A component's detailed behavior: states, action labels, transitions."""

    __slots__ = ("name", "states", "actions", "transitions", "initial", "partitions",
                 "__dict__", "__weakref__")
    _defaults = {"partitions": ()}
    name: str
    states: frozenset[str]
    actions: frozenset[str]
    transitions: frozenset[Transition]
    initial: str
    partitions: tuple[Partition, ...]

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


class RoleTransfer(Record):
    """One phase transfer of a rule: role (component, partition) moves from
    the source phase to the target phase, guarded by a trap of the source."""

    __slots__ = ("component", "partition", "source", "trap", "target")
    component: str
    partition: str
    source: str
    trap: str
    target: str

    # `__init__`, `==` and the hash are written out, not `Record`'s, which
    # loop over the fields or read them through an `attrgetter`: a replay
    # builds the transfers of every distinct rule step it reads, and a rule
    # step's key (`engine._Label`) holds its transfers, so finding a label
    # by its key and writing a trace compare and hash them
    def __init__(self, component: str, partition: str, source: str, trap: str, target: str):
        set_component, set_partition, set_source, set_trap, set_target = self._setters
        set_component(self, component)
        set_partition(self, partition)
        set_source(self, source)
        set_trap(self, trap)
        set_target(self, target)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return ((self.component, self.partition, self.source, self.trap, self.target)
                    == (other.component, other.partition, other.source, other.trap, other.target))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.component, self.partition, self.source, self.trap, self.target))


class ConsistencyRule(Record):
    """Atomic coordination step: a manager transition synchronized with phase
    transfers of employee roles, optionally carrying a model delta."""

    __slots__ = ("name", "manager", "manager_step", "transfers", "change", "__dict__", "__weakref__")
    _defaults = {"transfers": (), "change": None}
    name: str
    manager: str
    manager_step: Transition
    transfers: tuple[RoleTransfer, ...]
    change: Optional["ChangeSet"]  # noqa: F821 - defined in changeset.py


class StdModel(Record):
    """A full coordination model.

    `variables` holds model-level values: changeset fragments (the migration
    rule-set container) or non-negative integers of at most `MAX_INT_DIGITS`
    digits.  `version`, such an int too, is stamped up by every changeset
    application.
    """

    __slots__ = ("components", "rules", "variables", "version", "__dict__", "__weakref__")
    _defaults = {"variables": {}, "version": 0}
    components: Mapping[str, Std]
    rules: Mapping[str, ConsistencyRule]
    variables: Mapping[str, object]
    version: int

    def component_names(self) -> list[str]:
        return list(self.component_order)

    def rule_names(self) -> list[str]:
        return sorted(self.rules)

    @cached_property
    def claimed_steps(self) -> frozenset[tuple[str, Transition]]:
        """Steps that appear as some rule's manager step; they fire only via rules."""
        return frozenset((r.manager, r.manager_step) for r in self.rules.values())

    @cached_property
    def component_order(self) -> tuple[str, ...]:
        """The component names, sorted."""
        return tuple(sorted(self.components))

    @cached_property
    def layout(self) -> "SlotLayout":
        """The slot layout of this model's configurations."""
        return SlotLayout(self)


# The C escape `json.dumps` writes a `str` with: the JSON string of a name,
# quotes included, with every character outside ASCII escaped.  It raises
# TypeError for anything that is not a `str`.
_json_string = json.encoder.encode_basestring_ascii


def _json_entry(key: object, name: object) -> str:
    """The text of the entry `json.dumps({key: name})` writes, its braces
    left out."""
    try:
        return f"{_json_string(key)}: {_json_string(name)}"
    except TypeError:  # a key or name that is not a `str`
        return json.dumps({key: name})[1:-1]


class SlotLayout:
    """Where each part of a configuration sits in a flat tuple of ints.

    Every table is indexed by slot.  `owners[s]` is what slot `s` holds:
    None for slot 0, which holds the model version, then each component in
    sorted name order, then from slot `role_base` on each role (component,
    partition) in sorted order.  `names[s]` holds the names a slot's int
    indexes, sorted: a component's states, or the phase names of a role's
    partition.  `index[s]` maps each of those names to its int, and `slot`
    maps each owner to its slot.  `checks` holds each role's consistency
    test, which `consistent` walks: (component slot, role slot, per phase
    index the state indices of that phase), in slot order.  `key_text`
    gives the `repr` of the pair key that `decode` gives, from text tables
    built on its first call; `record_entries` gives a trace record's entries
    the same way, from JSON tables.  `digests` keeps the digest of each
    configuration digested in it, and `records` the record text of each
    configuration written in it."""

    def __init__(self, model: StdModel):
        components = model.component_order
        partitions = {(name, part.name): part
                      for name in components for part in model.components[name].partitions}
        self.role_base = len(components) + 1  # the first role slot
        self.owners = (None, *components, *sorted(partitions))
        self.slot = {owner: slot for slot, owner in enumerate(self.owners) if slot}
        names, index, pairs, checks = [None], [None], [None], []
        for slot, owner in enumerate(self.owners[1:], 1):
            if owner in partitions:
                phases = {phase.name: phase for phase in reversed(partitions[owner].phases)}
                values = tuple(sorted(phases))
                comp = self.slot[owner[0]]
                # a phase state outside the component maps to None, which no slot holds
                checks.append((comp, slot, tuple(
                    frozenset(map(index[comp].get, phases[n].states)) for n in values)))
            else:
                values = tuple(sorted(model.components[owner].states))
            names.append(values)
            index.append(dict(zip(values, range(len(values)))))
            # the pairs of the decoded key, built once and shared by every key
            pairs.append(tuple(zip(repeat(owner), values)))
        self.names, self.index, self._pairs = tuple(names), tuple(index), tuple(pairs)
        self.checks = tuple(checks)

    def decode(self, slots: tuple) -> tuple:
        """The canonical pair key of the configuration held in `slots`."""
        pairs = [table[i] for table, i in zip(self._pairs[1:], slots[1:])]
        base = self.role_base - 1
        return slots[0], tuple(pairs[:base]), tuple(pairs[base:])

    @cached_property
    def _texts(self) -> tuple[str, tuple[tuple[str, ...], ...]]:
        """The text that follows the version in `key_text`, up to the first
        pair, and per slot after 0 the `repr` of each of its pairs followed by
        the text up to the next pair (the last one: to the end).  Built on a
        layout's first `key_text`, since most layouts never need it."""
        # the repr, after its version 0, of a key whose every pair is `...`,
        # split at each pair
        base, count = self.role_base, len(self.owners)
        head, *runs = repr((0, (...,) * (base - 1), (...,) * (count - base)))[2:].split("Ellipsis")
        return head, tuple(
            tuple(repr(pair) + run for pair in pairs) for pairs, run in zip(self._pairs[1:], runs)
        )

    def key_text(self, slots: tuple) -> str:
        """`repr(self.decode(slots))`, joined from the per-slot texts without
        decoding."""
        head, texts = self._texts
        return "".join([f"({slots[0]!r}{head}", *map(getitem, texts, slots[1:])])

    @cached_property
    def digests(self) -> dict:
        """Per slots, the digest of the configuration they hold, kept by
        `engine.config_digest`, which fills it and clears it when full.
        Built on a layout's first digest, since most layouts never need it."""
        return {}

    @cached_property
    def records(self) -> dict:
        """Per slots, the text of the trace record of the configuration they
        hold around its digest, index and label, as a (head, tail) pair,
        kept by `engine._record_line`, which fills it and clears it when
        full.  Built on a layout's first record, since most layouts never
        need it."""
        return {}

    @cached_property
    def _json(self) -> tuple[tuple, tuple]:
        """The JSON texts of a trace record's "componentStates" and
        "rolePhases" entries (see `engine._record_line`): per component slot
        after 0, per state index, the `"component": "state"` text of that
        one entry; and per role key `"C.P"`, in the order `sort_keys` gives,
        which can differ from slot order, its slot and per phase index its
        `"C.P": "phase"` text.  Two roles can give the same key, as (A.b, c)
        and (A, b.c) do; the later in slot order keeps it, as in a dict of
        the record.  Each entry is written as `json.dumps` writes a
        one-entry dict: two strings escaped by `_json_string`, and a name
        that is not a `str` by that `json.dumps` call, so a name JSON
        cannot write raises its `json.dumps` error.  Built on a layout's
        first record, since most layouts never need it."""
        base = self.role_base
        keys = (*self.owners[1:base], *(f"{c}.{p}" for c, p in self.owners[base:]))
        texts = [tuple(_json_entry(key, name) for name in names)
                 for key, names in zip(keys, self.names[1:])]
        roles = dict(zip(keys[base - 1:], zip(range(base, len(self.owners)), texts[base - 1:])))
        return tuple(texts[:base - 1]), tuple(roles[key] for key in sorted(roles))

    def record_entries(self, slots: tuple) -> tuple[str, str]:
        """The text inside the braces of a trace record's "componentStates"
        and of its "rolePhases" for the configuration in `slots`, joined from
        per-slot JSON texts (see `_json`)."""
        components, roles = self._json
        return (", ".join(map(getitem, components, slots[1:self.role_base])),
                ", ".join([texts[slots[slot]] for slot, texts in roles]))

    def encode(self, key: tuple) -> Optional[tuple]:
        """The slots holding the configuration whose pair key is `key`; None
        when it does not fit: a component, state, role or phase unknown to
        this layout, or a component or role missing."""
        version, detailed, phases = key
        pairs = (*detailed, *phases)
        if len(detailed) != self.role_base - 1 or len(pairs) != len(self.owners) - 1:
            return None
        slots = [version]
        for (owner, name), known, index in zip(pairs, self.owners[1:], self.index[1:]):
            if owner != known or name not in index:
                return None
            slots.append(index[name])
        return tuple(slots)

    def misfit(self, key: tuple) -> str:
        """The first entry of `key` that does not fit this layout, components
        before roles, each in sorted order; "" when it fits."""
        _, detailed, phases = key
        base = self.role_base
        for pairs, owners, kind, value in ((detailed, self.owners[1:base], "component", "state"),
                                           (phases, self.owners[base:], "role", "phase")):
            pairs = dict(pairs)
            for owner in sorted(set(pairs) | set(owners)):
                where = owner if kind == "component" else ".".join(owner)
                if owner not in self.slot:
                    return f"{where}: unknown {kind}"
                if owner not in pairs:
                    return f"{where}: no current {value}"
                if pairs[owner] not in self.index[self.slot[owner]]:
                    return f"{where}: unknown {value} {pairs[owner]}"
        return ""


class Configuration:
    """Live global state: detailed state per component, current phase per role.

    The canonical key is (model version, (component, state) pairs sorted by
    component, ((component, partition), phase) pairs sorted by role).  The
    model version is an `int`: `__init__` and `from_key` raise TypeError for
    any other, `bool` included.  A configuration holds that key, or a
    `SlotLayout` and the slots that encode it (`from_slots`), and then
    decodes the key on first use.  `detailed` and `phases` build a new
    read-only view of the pairs on each access.  Equality, hashing, `repr`
    and pickling are those of the key.
    """

    __slots__ = ("_key", "_layout", "_slots")

    def __init__(
        self,
        detailed: Mapping[str, str],
        phases: Mapping[tuple[str, str], str],
        model_version: int = 0,
    ):
        if type(model_version) is not int:
            raise TypeError(f"model version {model_version!r} is not an int")
        self._key = (model_version, tuple(sorted(detailed.items())), tuple(sorted(phases.items())))
        self._layout = self._slots = None

    @classmethod
    def from_key(cls, key: tuple) -> "Configuration":
        """The configuration whose `key()` is `key`; the pairs must already be
        sorted, with each component and role at most once."""
        if type(key[0]) is not int:
            raise TypeError(f"model version {key[0]!r} is not an int")
        config = object.__new__(cls)
        config._key = key
        config._layout = config._slots = None
        return config

    @classmethod
    def from_slots(cls, layout: SlotLayout, slots: tuple) -> "Configuration":
        """The configuration that `slots` encode in `layout`.  Unchecked: the
        slots come from `SlotLayout.encode` or from a step, so their version
        is an int.  `engine.successors` builds each successor of a free
        step or of a rule firing without a changeset by this recipe inline
        (a new object with `_layout`, `_slots` and `_key` None), which
        saves a Python call per edge, and `explorer.explore_space` builds
        each state it expands so; the three change together."""
        config = object.__new__(cls)
        config._layout = layout
        config._slots = slots
        config._key = None
        return config

    def key(self) -> tuple:
        """Canonical comparable identity (version, detailed, role phases)."""
        key = self._key
        if key is None:
            key = self._key = self._layout.decode(self._slots)
        return key

    def slots_in(self, layout: SlotLayout) -> Optional[tuple]:
        """This configuration's slots in `layout`; None when it does not fit."""
        if self._layout is layout:
            return self._slots
        return layout.encode(self.key())

    @property
    def model_version(self) -> int:
        return self._slots[0] if self._key is None else self._key[0]

    @property
    def detailed(self) -> Mapping[str, str]:
        return MappingProxyType(dict(self.key()[1]))

    @property
    def phases(self) -> Mapping[tuple[str, str], str]:
        return MappingProxyType(dict(self.key()[2]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        if self._layout is not None and self._layout is other._layout:
            return self._slots == other._slots
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __reduce__(self):
        return Configuration.from_key, (self.key(),)

    def __repr__(self) -> str:
        version, detailed, phases = self.key()
        return (
            f"Configuration(detailed={dict(detailed)!r}, "
            f"phases={dict(phases)!r}, model_version={version!r})"
        )


class Diagnostic(Record):
    """One violated invariant, naming the offending element."""

    __slots__ = ("code", "owner", "element", "detail", "line", "column")
    _defaults = {"element": "", "detail": "", "line": 0, "column": 0}
    code: str
    owner: str
    element: str
    detail: str
    line: int
    column: int

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


@_per_object
def _std_diagnostics(std: Std) -> list[Diagnostic]:
    """The checks of `std` alone, named by `std.name`."""
    return validate_std(std) + [d for part in std.partitions for d in _validate_partition(std, part)]


def validate_model(model: StdModel) -> list[Diagnostic]:
    """Full static check: the conjunction of all element-level validators plus
    cross-reference resolution of every rule.  Computed once per model
    object (`_model_diagnostics`), which the engine reads to refuse a
    model this rejects."""
    return list(_model_diagnostics(model))


@_per_object
def _model_diagnostics(model: StdModel) -> tuple[Diagnostic, ...]:
    """`validate_model`'s diagnostics of `model`, kept per model object."""
    out: list[Diagnostic] = []
    for name in sorted(model.components):
        std = model.components[name]
        if std.name != name:
            out.append(Diagnostic("name-mismatch", name, std.name))
        part_names = [p.name for p in std.partitions]
        for n in sorted(set(n for n in part_names if part_names.count(n) > 1)):
            out.append(Diagnostic("duplicate-partition", name, n))
        out.extend(_std_diagnostics(std))
    for name in sorted(model.rules):
        rule = model.rules[name]
        if rule.name != name:
            out.append(Diagnostic("name-mismatch", name, rule.name))
        out.extend(_validate_rule(model, rule))
    version = model.version
    if type(version) is not int:
        out.append(Diagnostic("bad-version", "version", type(version).__name__))
    elif version < 0:
        out.append(Diagnostic("bad-version", "version", "negative"))
    elif version >= 10 ** MAX_INT_DIGITS:
        out.append(Diagnostic("bad-version", "version", f"longer than {MAX_INT_DIGITS} digits"))
    for name in sorted(model.variables):
        value = model.variables[name]
        if type(value) is int:
            if value < 0:
                out.append(Diagnostic("bad-variable-value", name, "negative"))
            elif value >= 10 ** MAX_INT_DIGITS:
                out.append(Diagnostic("bad-variable-value", name,
                                      f"longer than {MAX_INT_DIGITS} digits"))
        elif type(value).__name__ != "ChangeSet":
            out.append(Diagnostic("bad-variable-value", name, type(value).__name__))
    return tuple(_sorted_diags(out))


def validate_configuration(model: StdModel, config: Configuration) -> list[Diagnostic]:
    """Consistency of a live configuration against its model: every detailed
    state sits inside the current phase of every role of its component.  On
    a model `validate_model` accepts a configuration that fits the layout is
    tested on its slots (`consistent`); the full walk names what is wrong."""
    if not _model_diagnostics(model):
        slots = config.slots_in(model.layout)
        if slots is not None and consistent(model, slots):
            return []
    return _configuration_diagnostics(model, config)


def consistent(model: StdModel, slots: tuple) -> bool:
    """True when `validate_configuration` finds nothing wrong with the
    configuration that `slots` hold in the layout of `model`, which
    `validate_model` accepts: it has the model's version, and each role's
    phase holds its component's state."""
    if slots[0] != model.version:
        return False
    for comp, role, allowed in model.layout.checks:
        if slots[comp] not in allowed[slots[role]]:
            return False
    return True


def _configuration_diagnostics(model: StdModel, config: Configuration) -> list[Diagnostic]:
    if config.model_version != model.version:
        return [
            Diagnostic(
                "version-mismatch", "configuration", str(config.model_version), f"model {model.version}"
            )
        ]
    detailed, phases = config.detailed, config.phases
    out: list[Diagnostic] = []
    for comp in sorted(model.components):
        if comp not in detailed:
            out.append(Diagnostic("missing-config-entry", comp))
    for comp in sorted(detailed):
        std = model.components.get(comp)
        if std is None:
            out.append(Diagnostic("unknown-config-entry", comp))
            continue
        state = detailed[comp]
        if state not in std.states:
            out.append(Diagnostic("unknown-state", comp, state))
            continue
        for part in std.partitions:
            role = (comp, part.name)
            phase_name = phases.get(role)
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
    for comp, part_name in sorted(phases):
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

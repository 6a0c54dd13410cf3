"""Interleaving operational semantics.

Two kinds of step exist.  A detailed step moves one component along a
transition that (a) leaves its current state, (b) is present in the current
phase of every one of its roles, and (c) is not claimed as the manager step
of any rule in the current rule set.  A rule firing atomically takes the
manager's claimed transition, transfers every listed employee role to its
target phase, and applies the rule's changeset if it carries one.

The engine is a pure transition-function library: (model, configuration) in,
successors out.  All it writes are per-model caches (see `model`), such as
the `free_steps` table, which only gain entries, each a function of the
model and its key.  A successor's configuration key is its parent's with
only the changed pairs replaced (`_moved`, `_transferred`).

`_fire` decides and takes every rule firing; a replay fires only its
recorded labels, through `_take`.  Consistency is checked where a step can
break it: `_fire` asserts it after a rule with no changeset, `apply_changeset`
validates it after a changeset, `step_detailed` asserts it after its own
step, and `explore` reports `configuration-valid` for every reached state.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .changeset import RejectedChange, apply_changeset
from .model import (
    Configuration,
    ConsistencyRule,
    Phase,
    RoleTransfer,
    Std,
    StdModel,
    Transition,
    validate_configuration,
    with_pair,
)


class EngineError(Exception):
    pass


class UnknownElement(EngineError):
    pass


class NotEnabled(EngineError):
    pass


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


StepLabel = Union[DetailedStep, RuleStep]


def label_text(label: StepLabel) -> str:
    if isinstance(label, DetailedStep):
        t = label.transition
        return f"detailed {label.component}: {t.source}-{t.action}->{t.target}"
    return f"rule {label.rule}"


def label_sort_key(label: StepLabel) -> tuple:
    if isinstance(label, DetailedStep):
        return (0, label.component, label.transition)
    return (1, label.rule)


def acts_on(label: StepLabel, component: str) -> bool:
    """True when the step is the component's own move: its detailed step, or a
    rule firing in which it is the manager."""
    if isinstance(label, DetailedStep):
        return label.component == component
    return label.manager == component


def config_digest(config: Configuration) -> int:
    """Stable 64-bit fingerprint of the canonical configuration bytes."""
    payload = repr(config.key()).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


def _phases_named(std: Std, names: Iterable[Optional[str]]) -> list[Phase]:
    """The phase of each partition of `std`, in order, by its name in `names`."""
    phases = []
    for part, name in zip(std.partitions, names):
        phase = part.phase_named(name) if name is not None else None
        if phase is None:
            raise UnknownElement(f"{std.name}.{part.name}: no current phase")
        phases.append(phase)
    return phases


def _free_steps(
    model: StdModel, component: str, state: str, phase_names: tuple
) -> tuple[DetailedStep, ...]:
    """The sorted free detailed steps of the component at `state` while its
    roles (`model.roles` order) are in `phase_names`: read from the model's
    `free_steps` table, computed and kept there on first use."""
    at = (component, state, phase_names)
    steps = model.free_steps.get(at)
    if steps is None:
        std = model.components[component]
        phases = _phases_named(std, phase_names)
        claimed = model.claimed_steps
        steps = model.free_steps[at] = tuple(
            DetailedStep(component, t)
            for t in std.transitions_from.get(state, ())
            if (component, t) not in claimed and all(t in phase.transitions for phase in phases)
        )
    return steps


def enabled_detailed(model: StdModel, config: Configuration, component: str) -> set[Transition]:
    """Transitions the component may take on its own from the current state;
    claimed steps fire only via rule firings."""
    roles = model.roles.get(component)
    if roles is None:
        raise UnknownElement(component)
    state = config.detailed[component]
    steps = _free_steps(model, component, state, tuple(map(config.phases.get, roles)))
    return {step.transition for step in steps}


def entered_traps(model: StdModel, config: Configuration, component: str, partition: str) -> set[str]:
    """Names of the current phase's traps containing the detailed state.

    Because traps are closed and phases change only via rule firings,
    membership now is equivalent to "was entered and never left".  The
    whole-phase trap `triv` is always present.
    """
    std = model.components.get(component)
    part = std.partition_named(partition) if std else None
    if part is None:
        raise UnknownElement(f"{component}.{partition}")
    phase = part.phase_named(config.phases[(component, partition)])
    if phase is None:
        raise UnknownElement(f"{component}.{partition}: current phase missing")
    state = config.detailed[component]
    return {t.name for t in phase.all_traps() if state in t.states}


def _transferred(config: Configuration, rule: ConsistencyRule) -> Configuration:
    version, detailed, phases = config.key()
    detailed = with_pair(detailed, rule.manager, rule.manager_step.target)
    for tr in rule.transfers:
        phases = with_pair(phases, (tr.component, tr.partition), tr.target)
    return Configuration.from_key((version, detailed, phases))


def _moved(config: Configuration, component: str, transition: Transition) -> Configuration:
    version, detailed, phases = config.key()
    return Configuration.from_key((version, with_pair(detailed, component, transition.target), phases))


def _fire(
    model: StdModel, config: Configuration, rule: ConsistencyRule
) -> tuple[Optional[str], Optional[tuple[StdModel, Configuration]]]:
    """(None, (model, configuration) after firing the rule) when it is enabled,
    else (why not, None); see `fire_rule`."""
    mgr = model.components.get(rule.manager)
    if mgr is None or rule.manager_step not in mgr.transitions:
        return "manager step unresolved", None
    if config.detailed.get(rule.manager) != rule.manager_step.source:
        return "manager not at the step's source", None
    try:
        mgr_phases = _phases_named(mgr, map(config.phases.get, model.roles[rule.manager]))
    except UnknownElement:
        return "manager phase unresolved", None
    if any(rule.manager_step not in phase.transitions for phase in mgr_phases):
        return "manager step outside a current phase", None
    for tr in rule.transfers:
        if config.phases.get((tr.component, tr.partition)) != tr.source:
            return f"{tr.component}({tr.partition}) not in phase {tr.source}", None
        std = model.components.get(tr.component)
        part = std.partition_named(tr.partition) if std else None
        phase = part.phase_named(tr.source) if part else None
        trap = phase.trap_named(tr.trap) if phase else None
        if trap is None or config.detailed.get(tr.component) not in trap.states:
            return f"trap {tr.trap} of {tr.component}({tr.partition}) not entered", None
        if part.phase_named(tr.target) is None:
            return f"target phase {tr.target} unresolved", None
    out = _transferred(config, rule)
    if rule.change is not None:
        try:
            return None, apply_changeset(model, out, rule.change)
        except RejectedChange as exc:
            return f"changeset rejected: {exc.diagnostics[0]}", None
    bad = validate_configuration(model, out)
    assert not bad, f"rule {rule.name} broke consistency: {bad}"
    return None, (model, out)


def _rule_label(rule: ConsistencyRule) -> RuleStep:
    changed = rule.change is not None
    return RuleStep(rule.name, rule.manager, rule.manager_step, rule.transfers, changed)


def _rule_firings(
    model: StdModel, config: Configuration
) -> Iterator[tuple[ConsistencyRule, tuple[StdModel, Configuration]]]:
    """Each enabled rule with the (model, configuration) its firing reaches,
    by rule name."""
    by_step = model.rules_by_manager_step
    for name in sorted(name for at in config.key()[1] for name in by_step.get(at, ())):
        rule = model.rules[name]
        blocker, after = _fire(model, config, rule)
        if blocker is None:
            yield rule, after


def rule_blocker(model: StdModel, config: Configuration, rule: ConsistencyRule) -> Optional[str]:
    """Why the rule cannot fire right now; None when it is enabled."""
    return _fire(model, config, rule)[0]


def enabled_rules(model: StdModel, config: Configuration) -> list[ConsistencyRule]:
    """Rules whose manager step, transfer guards and (if present) changeset
    are all enabled now, sorted by rule name."""
    return [rule for rule, _ in _rule_firings(model, config)]


def step_detailed(
    model: StdModel, config: Configuration, component: str, transition: Transition
) -> Configuration:
    """Take one free detailed step; phases stay untouched."""
    if transition not in enabled_detailed(model, config, component):
        raise NotEnabled(f"{component}: {transition.pretty()}")
    out = _moved(config, component, transition)
    bad = validate_configuration(model, out)
    assert not bad, f"detailed step broke consistency: {bad}"
    return out


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
    detailed, phases, roles = config.detailed, config.phases, model.roles
    out: list[tuple[StepLabel, StdModel, Configuration]] = [
        (step, model, _moved(config, comp, step.transition))
        for comp in model.component_order
        for step in _free_steps(model, comp, detailed[comp], tuple(map(phases.get, roles[comp])))
    ]
    out.extend((_rule_label(rule), *after) for rule, after in _rule_firings(model, config))
    return out


def _take(
    model: StdModel, config: Configuration, label: StepLabel
) -> Optional[tuple[StdModel, Configuration]]:
    """Fire exactly the recorded step: the (model, configuration) after it, or
    None when no enabled step carries this label."""
    if isinstance(label, DetailedStep):
        comp, t = label.component, label.transition
        if comp not in model.components or t not in enabled_detailed(model, config, comp):
            return None
        return model, _moved(config, comp, t)
    rule = model.rules.get(label.rule)
    if rule is None or _rule_label(rule) != label:
        return None
    return _fire(model, config, rule)[1]


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


def run(model: StdModel, config: Configuration, policy, max_steps: int) -> Trace:
    """Drive the system under a policy for at most `max_steps` steps."""
    initial = config
    steps: list[tuple[StepLabel, int]] = []
    for index in range(max_steps):
        succ = successors(model, config)
        if not succ:
            break
        choice = policy.choose([label for label, _, _ in succ], index)
        if choice is None:
            break
        label, model, config = succ[choice]
        steps.append((label, config_digest(config)))
    return Trace(initial=initial, steps=tuple(steps), final_model_version=config.model_version)


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


def label_from_json(data: dict) -> StepLabel:
    if data["type"] == "detailed":
        return DetailedStep(data["component"], Transition(*data["transition"]))
    return RuleStep(
        rule=data["rule"],
        manager=data["manager"],
        manager_step=Transition(*data["managerStep"]),
        transfers=tuple(RoleTransfer(*t) for t in data["transfers"]),
        changed=data["changeSet"],
    )


def _state_record(index: int, label: Optional[StepLabel], config: Configuration, digest: int) -> dict:
    return {
        "index": index,
        "label": label_to_json(label),
        "componentStates": dict(sorted(config.detailed.items())),
        "rolePhases": {f"{c}.{p}": ph for (c, p), ph in sorted(config.phases.items())},
        "modelVersion": config.model_version,
        "digest": f"{digest:016x}",
    }


def walk_trace(
    model: StdModel, trace: Trace
) -> Iterator[tuple[int, Optional[StepLabel], StdModel, Configuration]]:
    """Re-execute a trace, yielding (index, label, model, configuration): index
    0 with label None for the initial configuration, then one tuple per step.
    Raises ReplayDivergence when a label is not enabled or a step reaches a
    configuration whose digest differs from the recorded one."""
    config = trace.initial
    yield 0, None, model, config
    for i, (label, digest) in enumerate(trace.steps, start=1):
        after = _take(model, config, label)
        if after is None or config_digest(after[1]) != digest:
            raise ReplayDivergence(i - 1, label)
        model, config = after
        yield i, label, model, config


def export_trace_jsonl(model: StdModel, trace: Trace) -> str:
    """One JSON object per line; line 0 is the initial configuration, each
    further line one step.  Reconstructs intermediate configurations by
    replaying the labels, which is deterministic."""
    digests = [config_digest(trace.initial), *(digest for _, digest in trace.steps)]
    return "".join(
        json.dumps(_state_record(i, label, config, digests[i]), sort_keys=True) + "\n"
        for i, label, _, config in walk_trace(model, trace)
    )


def parse_trace_steps(text: str) -> list[tuple[StepLabel, int]]:
    """(label, digest) of each step of an exported JSON-lines trace, in order.
    Raises ValueError naming the 1-based line of the first record that is not
    a trace record or whose step digest is not 16 hex digits."""
    steps = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            label = record.get("label")
            if label is not None:
                digest = record["digest"]
                if not re.fullmatch(r"[0-9a-fA-F]{16}", digest):
                    raise ValueError(f"digest {digest!r} is not 16 hex digits")
                steps.append((label_from_json(label), int(digest, 16)))
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
            raise ValueError(f"line {number}: not a trace record ({exc!r})") from exc
    return steps


def parse_trace_labels(text: str) -> list[StepLabel]:
    """Labels of an exported JSON-lines trace, in order; see `parse_trace_steps`."""
    return [label for label, _ in parse_trace_steps(text)]

"""Interleaving operational semantics.

Two kinds of step exist.  A detailed step moves one component along a
transition that (a) leaves its current state, (b) is present in the current
phase of every one of its roles, and (c) is not claimed as the manager step
of any rule in the current rule set.  A rule firing atomically takes the
manager's claimed transition, transfers every listed employee role to its
target phase, and applies the rule's changeset if it carries one.

The engine is a pure transition-function library: (model, configuration) in,
successors out.  Nothing here mutates shared state, so concurrent
explorations may share model values freely.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from .changeset import apply_changeset, validate_changeset
from .model import (
    Configuration,
    ConsistencyRule,
    RoleTransfer,
    Std,
    StdModel,
    Transition,
    validate_configuration,
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


def _current_phases(std: Std, config: Configuration) -> list:
    phases = []
    for part in std.partitions:
        name = config.phases.get((std.name, part.name))
        phase = part.phase_named(name) if name is not None else None
        if phase is None:
            raise UnknownElement(f"{std.name}.{part.name}: no current phase")
        phases.append(phase)
    return phases


def enabled_detailed(
    model: StdModel, config: Configuration, component: str, *, permissive: bool = False
) -> set[Transition]:
    """Transitions the component may take on its own from the current state.

    With `permissive` a claimed transition also fires freely whenever no rule
    claiming it is currently enabled; the default is strict: claimed steps
    fire only via rule firings.
    """
    std = model.components.get(component)
    if std is None:
        raise UnknownElement(component)
    state = config.detailed[component]
    phases = _current_phases(std, config)
    claimed = model.claimed_steps
    out = set()
    for t in std.transitions_from.get(state, ()):
        if any(t not in phase.transitions for phase in phases):
            continue
        if (component, t) in claimed:
            if not permissive:
                continue
            if any(
                r.manager == component and r.manager_step == t
                for r in enabled_rules(model, config)
            ):
                continue
        out.add(t)
    return out


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
    detailed = dict(config.detailed)
    detailed[rule.manager] = rule.manager_step.target
    phases = dict(config.phases)
    for tr in rule.transfers:
        phases[(tr.component, tr.partition)] = tr.target
    return Configuration(detailed=detailed, phases=phases, model_version=config.model_version)


def rule_blocker(model: StdModel, config: Configuration, rule: ConsistencyRule) -> Optional[str]:
    """Why the rule cannot fire right now; None when it is enabled."""
    mgr = model.components.get(rule.manager)
    if mgr is None or rule.manager_step not in mgr.transitions:
        return "manager step unresolved"
    if config.detailed.get(rule.manager) != rule.manager_step.source:
        return "manager not at the step's source"
    try:
        mgr_phases = _current_phases(mgr, config)
    except UnknownElement:
        return "manager phase unresolved"
    if any(rule.manager_step not in phase.transitions for phase in mgr_phases):
        return "manager step outside a current phase"
    for tr in rule.transfers:
        if config.phases.get((tr.component, tr.partition)) != tr.source:
            return f"{tr.component}({tr.partition}) not in phase {tr.source}"
        std = model.components.get(tr.component)
        part = std.partition_named(tr.partition) if std else None
        phase = part.phase_named(tr.source) if part else None
        trap = phase.trap_named(tr.trap) if phase else None
        if trap is None or config.detailed.get(tr.component) not in trap.states:
            return f"trap {tr.trap} of {tr.component}({tr.partition}) not entered"
        if part.phase_named(tr.target) is None:
            return f"target phase {tr.target} unresolved"
    if rule.change is not None:
        after = _transferred(config, rule)
        bad = validate_changeset(model, after, rule.change)
        if bad:
            return f"changeset rejected: {bad[0]}"
    return None


def _rule_enabled(model: StdModel, config: Configuration, rule: ConsistencyRule) -> bool:
    return rule_blocker(model, config, rule) is None


def enabled_rules(model: StdModel, config: Configuration) -> list[ConsistencyRule]:
    """Rules whose manager step, transfer guards and (if present) changeset
    are all enabled now, sorted by rule name."""
    by_step = model.rules_by_manager_step
    names = sorted(name for at in config.detailed.items() for name in by_step.get(at, ()))
    return [
        model.rules[name] for name in names if _rule_enabled(model, config, model.rules[name])
    ]


def step_detailed(
    model: StdModel, config: Configuration, component: str, transition: Transition
) -> Configuration:
    """Take one free detailed step; phases stay untouched."""
    if transition not in enabled_detailed(model, config, component):
        raise NotEnabled(f"{component}: {transition.pretty()}")
    detailed = dict(config.detailed)
    detailed[component] = transition.target
    out = Configuration(detailed=detailed, phases=config.phases, model_version=config.model_version)
    bad = validate_configuration(model, out)
    assert not bad, f"detailed step broke consistency: {bad}"
    return out


def fire_rule(
    model: StdModel, config: Configuration, rule: ConsistencyRule
) -> tuple[StdModel, Configuration]:
    """Fire one consistency rule atomically.

    The manager takes its step, every listed role moves to its target phase,
    and the rule's changeset (if any) is applied last, bumping the model
    version.  Enabledness already validated the changeset against the
    post-transfer state, so application cannot be rejected here.
    """
    if not _rule_enabled(model, config, rule):
        raise NotEnabled(f"rule {rule.name}")
    out = _transferred(config, rule)
    out_model = model
    if rule.change is not None:
        out_model, out = apply_changeset(model, out, rule.change)
    bad = validate_configuration(out_model, out)
    assert not bad, f"rule {rule.name} broke consistency: {bad}"
    return out_model, out


def successors(
    model: StdModel, config: Configuration, *, permissive: bool = False
) -> list[tuple[StepLabel, StdModel, Configuration]]:
    """All enabled steps, deterministically ordered: detailed steps by
    (component, transition), then rule firings by rule name."""
    out: list[tuple[StepLabel, StdModel, Configuration]] = []
    for comp in sorted(model.components):
        for t in sorted(enabled_detailed(model, config, comp, permissive=permissive)):
            detailed = dict(config.detailed)
            detailed[comp] = t.target
            nxt = Configuration(
                detailed=detailed, phases=config.phases, model_version=config.model_version
            )
            out.append((DetailedStep(comp, t), model, nxt))
    for rule in enabled_rules(model, config):
        nxt_model, nxt = fire_rule(model, config, rule)
        label = RuleStep(
            rule=rule.name,
            manager=rule.manager,
            manager_step=rule.manager_step,
            transfers=rule.transfers,
            changed=rule.change is not None,
        )
        out.append((label, nxt_model, nxt))
    return out


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


class ScriptedPolicy:
    """Replay a fixed label sequence; diverging from the enabled set fails fast."""

    def __init__(self, script: Sequence[StepLabel]):
        self.script = list(script)

    def choose(self, labels: Sequence[StepLabel], index: int) -> Optional[int]:
        if index >= len(self.script):
            return None
        wanted = self.script[index]
        for i, label in enumerate(labels):
            if label == wanted:
                return i
        raise ReplayDivergence(index, wanted)


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
    """Deterministically re-execute a label sequence from a configuration."""
    return run(model, config, ScriptedPolicy(labels), max_steps=len(labels))


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
        step = next((s for s in successors(model, config) if s[0] == label), None)
        if step is None or config_digest(step[2]) != digest:
            raise ReplayDivergence(i - 1, label)
        _, model, config = step
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


def parse_trace_labels(text: str) -> list[StepLabel]:
    """Labels of an exported JSON-lines trace, in order.  Raises ValueError
    naming the 1-based line of the first record that is not a trace record."""
    labels = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            label = json.loads(line).get("label")
            if label is not None:
                labels.append(label_from_json(label))
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
            raise ValueError(f"line {number}: not a trace record ({exc!r})") from exc
    return labels

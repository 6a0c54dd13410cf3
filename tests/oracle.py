"""Brute-force successor enumerator, written straight from the step
definitions and kept deliberately independent of the engine's code paths.

A detailed step (component c, transition t) is possible iff:
  * t.source is c's current state,
  * for every partition of c, t is among the transitions of the current phase,
  * no rule of the current rule set has (c, t) as its manager step.

A rule is possible iff:
  * the manager sits at the manager step's source and the manager step is a
    transition of the current phase of every one of the manager's partitions,
  * every transfer (Z, r, S, theta, S') finds role (Z, r) currently in phase
    S with the detailed state of Z inside theta (where 'triv' means all of
    S's states), and S' exists,
  * its changeset, if any, applies cleanly after the manager step and the
    transfers (checked with the changeset validator).

Only changeset application is shared with the implementation; enabledness
and the transfer mechanics are re-derived here.
"""

from phasecoord.changeset import apply_changeset, canonical_model, validate_changeset
from phasecoord.model import Configuration


def _phase_of(model, config, component, partition_name):
    std = model.components[component]
    for part in std.partitions:
        if part.name == partition_name:
            current = config.phases[(component, partition_name)]
            for phase in part.phases:
                if phase.name == current:
                    return phase
    return None


def naive_detailed_steps(model, config):
    steps = []
    for comp in model.components:
        std = model.components[comp]
        here = config.detailed[comp]
        for t in std.transitions:
            if t.source != here:
                continue
            allowed = True
            for part in std.partitions:
                phase = _phase_of(model, config, comp, part.name)
                if phase is None or t not in phase.transitions:
                    allowed = False
            for rule in model.rules.values():
                if rule.manager == comp and rule.manager_step == t:
                    allowed = False
            if allowed:
                steps.append((comp, t))
    return steps


def _trap_states(phase, trap_name):
    if trap_name == "triv":
        return set(phase.states)
    for trap in phase.traps:
        if trap.name == trap_name:
            return set(trap.states)
    return None


def naive_enabled_rule(model, config, rule):
    if rule.manager not in model.components:
        return False
    mgr = model.components[rule.manager]
    if rule.manager_step not in mgr.transitions:
        return False
    if config.detailed[rule.manager] != rule.manager_step.source:
        return False
    for part in mgr.partitions:
        phase = _phase_of(model, config, rule.manager, part.name)
        if phase is None or rule.manager_step not in phase.transitions:
            return False
    for tr in rule.transfers:
        if (tr.component, tr.partition) not in config.phases:
            return False
        if config.phases[(tr.component, tr.partition)] != tr.source:
            return False
        src = _phase_of(model, config, tr.component, tr.partition)
        if src is None:
            return False
        trap = _trap_states(src, tr.trap)
        if trap is None or config.detailed[tr.component] not in trap:
            return False
        std = model.components[tr.component]
        part = next(p for p in std.partitions if p.name == tr.partition)
        if not any(p.name == tr.target for p in part.phases):
            return False
    if rule.change is not None:
        after = _naive_rule_result(model, config, rule)
        if validate_changeset(model, after, rule.change):
            return False
    return True


def _naive_rule_result(model, config, rule):
    detailed = dict(config.detailed)
    detailed[rule.manager] = rule.manager_step.target
    phases = dict(config.phases)
    for tr in rule.transfers:
        phases[(tr.component, tr.partition)] = tr.target
    return Configuration(detailed=detailed, phases=phases, model_version=config.model_version)


def naive_successors(model, config):
    """Set of (kind, identity, canonical model, configuration key) outcomes."""
    out = set()
    for comp, t in naive_detailed_steps(model, config):
        detailed = dict(config.detailed)
        detailed[comp] = t.target
        nxt = Configuration(detailed=detailed, phases=config.phases,
                            model_version=config.model_version)
        out.add((("detailed", comp, t), canonical_model(model), nxt.key()))
    for name in model.rules:
        rule = model.rules[name]
        if not naive_enabled_rule(model, config, rule):
            continue
        nxt = _naive_rule_result(model, config, rule)
        nxt_model = model
        if rule.change is not None:
            nxt_model, nxt = apply_changeset(model, nxt, rule.change)
        out.add((("rule", name), canonical_model(nxt_model), nxt.key()))
    return out


def label_identity(label):
    """An engine step label in the oracle's (kind, identity) form."""
    from phasecoord.engine import DetailedStep

    if isinstance(label, DetailedStep):
        return ("detailed", label.component, label.transition)
    return ("rule", label.rule)


def engine_successor_set(model, config):
    """The engine's successors, shaped for comparison with the oracle."""
    from phasecoord.engine import successors

    return {(label_identity(label), canonical_model(nxt_model), nxt.key())
            for label, nxt_model, nxt in successors(model, config)}


def walk_all_states(model, config, limit=100_000, truncate=False):
    """Every reachable (model, configuration) pair, enumerated breadth-first.

    States are generated with the engine; the equivalence test asserts the
    oracle agrees at every one of them, which by induction pins down the
    whole reachable relation.  More than `limit` states raise RuntimeError,
    or with `truncate` give the first `limit` of them.
    """
    from phasecoord.engine import successors

    seen = set()
    frontier = [(model, config)]
    seen.add((canonical_model(model), config.key()))
    states = [(model, config)]
    while frontier:
        nxt_frontier = []
        for m, c in frontier:
            for _, m2, c2 in successors(m, c):
                key = (canonical_model(m2), c2.key())
                if key not in seen:
                    seen.add(key)
                    nxt_frontier.append((m2, c2))
                    states.append((m2, c2))
                    if len(states) > limit:
                        if truncate:
                            return states[:limit]
                        raise RuntimeError("state limit exceeded")
        frontier = nxt_frontier
    return states

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

The module also holds the independent second evaluators the tests check
`src/` against: trap membership (`naive_entered_traps`), predicates read
from a configuration's pair form (`naive_eval_predicate`), the `.pdm`
tokens (`naive_tokens`), the digest and trace record of a configuration
(`naive_digest`, `naive_state_record`), and the per-state sweep of the
`configuration-valid` check (`naive_first_invalid_state`).
"""

import hashlib

from phasecoord.changeset import apply_changeset, canonical_model, validate_changeset
from phasecoord.model import Configuration, validate_configuration
from phasecoord.properties import (
    And,
    CountInState,
    InPhase,
    InState,
    ModelVersionIs,
    Not,
    Or,
    PropertyError,
)


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


def naive_steps(model, config):
    """(kind and identity, model, configuration) of each enabled step, in the
    order the engine gives its successors: detailed steps by (component,
    transition), then rule firings by rule name."""
    out = []
    for comp, t in naive_detailed_steps(model, config):
        detailed = dict(config.detailed)
        detailed[comp] = t.target
        nxt = Configuration(detailed=detailed, phases=config.phases,
                            model_version=config.model_version)
        out.append((("detailed", comp, t), model, nxt))
    for name in model.rules:
        rule = model.rules[name]
        if not naive_enabled_rule(model, config, rule):
            continue
        nxt = _naive_rule_result(model, config, rule)
        nxt_model = model
        if rule.change is not None:
            nxt_model, nxt = apply_changeset(model, nxt, rule.change)
        out.append((("rule", name), nxt_model, nxt))
    return sorted(out, key=lambda step: step[0])


def naive_successors(model, config):
    """Set of (kind, identity, canonical model, configuration key) outcomes."""
    return {(identity, canonical_model(nxt_model), nxt.key())
            for identity, nxt_model, nxt in naive_steps(model, config)}


def naive_label(model, identity):
    """The engine's label of the step of `model` with this (kind, identity):
    a detailed step's component and transition, or the rule's fields and
    whether it carries a changeset."""
    from phasecoord.engine import DetailedStep, RuleStep

    if identity[0] == "detailed":
        return DetailedStep(*identity[1:])
    rule = model.rules[identity[1]]
    return RuleStep(rule.name, rule.manager, rule.manager_step, rule.transfers,
                    rule.change is not None)


def label_identity(label):
    """An engine step label in the oracle's (kind, identity) form."""
    from phasecoord.engine import DetailedStep

    if isinstance(label, DetailedStep):
        return ("detailed", label.component, label.transition)
    return ("rule", label.rule)


def naive_digest(key):
    """The digest's definition: the first 8 bytes of blake2b over repr(key)."""
    return int.from_bytes(hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest(), "big")


def naive_state_record(index, label, config):
    """The trace record of `config` reached by `label` (None for the first),
    built from its pair form: the definition of the record that the engine
    writes as a line of JSON with its keys sorted.  Role keys join component
    and partition with "."; when two roles give one key, the later role in
    sorted order keeps it."""
    from phasecoord.engine import label_to_json

    key = config.key()
    version, detailed, phases = key
    return {
        "index": index,
        "label": label_to_json(label),
        "componentStates": dict(sorted(detailed)),
        "rolePhases": {f"{c}.{p}": ph for (c, p), ph in sorted(phases)},
        "modelVersion": version,
        "digest": f"{naive_digest(key):016x}",
    }


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


def naive_first_invalid_state(space):
    """The first state, in BFS order, of an explored `explorer.Space` that
    `validate_configuration` finds fault with; None when every state passes.
    `explore` tests only the root for `configuration-valid`, and must name
    this state."""
    return next((idx for idx, (m, _) in enumerate(space.states)
                 if validate_configuration(space.models[m], space.state(idx))), None)


def naive_entered_traps(model, config, component, partition):
    """Names of the traps of the role's current phase that hold the
    component's detailed state, the whole-phase trap 'triv' included.
    Traps are closed and phases change only through rule firings, so between
    two firings that move the role this set can only grow."""
    phase = _phase_of(model, config, component, partition)
    state = config.detailed[component]
    names = {"triv"} if state in phase.states else set()
    return names | {trap.name for trap in phase.traps if state in trap.states}


# -- predicates ------------------------------------------------------------------

def _naive_component(model, name, atom):
    if name not in model.components:
        raise PropertyError(f"{atom.text()}: unknown component {name}")


def naive_eval_predicate(pred, model, config):
    """A predicate at one configuration, read from its pair form: an atom
    naming a component the model lacks raises PropertyError when it is
    reached (and/or short-circuit left to right), and an unknown state, role
    or phase never matches."""
    if isinstance(pred, InState):
        _naive_component(model, pred.component, pred)
        return config.detailed.get(pred.component) == pred.state
    if isinstance(pred, InPhase):
        _naive_component(model, pred.component, pred)
        return config.phases.get((pred.component, pred.partition)) == pred.phase
    if isinstance(pred, CountInState):
        count = 0
        for comp, state in pred.pairs:
            _naive_component(model, comp, pred)
            if config.detailed.get(comp) == state:
                count += 1
        return {
            "<=": count <= pred.bound,
            "<": count < pred.bound,
            "==": count == pred.bound,
            ">=": count >= pred.bound,
            ">": count > pred.bound,
            "!=": count != pred.bound,
        }[pred.op]
    if isinstance(pred, ModelVersionIs):
        return config.model_version == pred.version
    if isinstance(pred, Not):
        return not naive_eval_predicate(pred.operand, model, config)
    if isinstance(pred, And):
        return (naive_eval_predicate(pred.left, model, config)
                and naive_eval_predicate(pred.right, model, config))
    if isinstance(pred, Or):
        return (naive_eval_predicate(pred.left, model, config)
                or naive_eval_predicate(pred.right, model, config))
    raise PropertyError(f"unknown predicate node {pred!r}")


# -- tokens ----------------------------------------------------------------------

PUNCTUATION = "-{}()[]:;,.=*+"


def naive_tokens(text):
    """The tokens of a `.pdm` text as (kind, value, line, column), read one
    character at a time from the grammar's lexical rules:
      * " ", tab and carriage return separate tokens; a newline also starts
        the next line at column 1; "#" starts a comment up to the newline,
        which moves no column, so end of input after a last-line comment
        sits where the comment starts;
      * a run of ASCII digits is an int; any other run of word characters
        (letters, digits of any script and "_") is a name, and must start
        with a letter or "_";
      * "->" and each character of PUNCTUATION is a token of its own kind.
    Ends with ("eof", "", line, column).  On a character that starts no
    token, returns (None, character, line, column) in its place instead.
    """
    out = []
    line, column, i = 1, 1, 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line, column, i = line + 1, 1, i + 1
        elif c in " \t\r":
            column, i = column + 1, i + 1
        elif c == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c in "0123456789":
            j = i
            while j < len(text) and text[j] in "0123456789":
                j += 1
            out.append(("int", text[i:j], line, column))
            column, i = column + j - i, j
        elif c.isalnum() or c == "_":
            if not (c.isalpha() or c == "_"):
                return out + [(None, c, line, column)]
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], line, column))
            column, i = column + j - i, j
        elif text.startswith("->", i):
            out.append(("->", "->", line, column))
            column, i = column + 2, i + 2
        elif c in PUNCTUATION:
            out.append((c, c, line, column))
            column, i = column + 1, i + 1
        else:
            return out + [(None, c, line, column)]
    return out + [("eof", "", line, column)]

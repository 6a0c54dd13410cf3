"""Explicit-state exploration and verification.

Breadth-first enumeration of (model, configuration) pairs.  Models may change
mid-run through rule-carried changesets, so states are interned by model
content, not only by the version stamp; two configurations that differ only
in model version are distinct states.

Each distinct model content gets an index in the space, found through its
canonical form (computed and hashed once per model object, see
`changeset.canonical_model`).  A state is kept once, as (model index,
slots): the configuration's flat tuple of ints in the layout of the model
stored at that index (see `model.SlotLayout`).  Each model index has its
own seen dict from slots to state index, so interning a successor builds
no key.  A successor's slots are interned as they come: each model a
changeset makes passed `validate_model` and is newer than the root, so
models with equal canonical forms have equal layouts (see `model`).
`Space.state` decodes a configuration only for traces and exports.
Exploration is one serial BFS: each frontier state's successors are
computed and interned in order, so state indices, edges and reports are
deterministic.  `Space.edges` is grouped by source, in increasing source
order, and each source's edges are in `successors` order; so the
termination lasso's next step from a state is its first edge, found by
bisection.

`explore_space` builds a `Space`; every check below is a pure query over
one, so a caller that asks several questions explores once, and every
answer obeys the same bounds.  A check that tests every state sweeps the
slots through `Space.where`, with its predicate compiled once per model of
the space (`properties.compile_predicate`); `configuration-valid` is
`model.consistent` swept the same way.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterator, Optional, Sequence

from .changeset import canonical_model
from .engine import (
    StepLabel,
    Trace,
    UnknownElement,
    _record_line,
    _slots,
    config_digest,
    label_text,
    mover,
    successors,
)
from .mcpal import McPalSkeleton, completion_test
from .model import Configuration, StdModel, consistent
from .properties import (
    EventuallyAll,
    Invariant,
    PropertyExpr,
    Reachable,
    SlotTest,
    compile_predicate,
)


@dataclass(frozen=True)
class Bounds:
    max_states: int = 1_000_000
    max_depth: int = 10_000


@dataclass
class Space:
    """The explored fragment of the state space.  `explore_space` fills it;
    the cached queries (`reverse_adjacency`, `move_sources`) read a
    finished one."""

    models: list[StdModel] = field(default_factory=list)
    # per state index: (model index, slots in the layout of models[model index])
    states: list[tuple[int, tuple]] = field(default_factory=list)
    parent: list[Optional[tuple[int, StepLabel]]] = field(default_factory=list)
    edges: list[tuple[int, StepLabel, int]] = field(default_factory=list)
    deadlocks: list[int] = field(default_factory=list)
    max_states_hit: bool = False
    max_depth_hit: bool = False

    @property
    def truncated(self) -> bool:
        """True when a bound cut the exploration short: absent states and
        edges may exist, so only witnesses found in the space are evidence."""
        return self.max_states_hit or self.max_depth_hit

    def state_count(self) -> int:
        return len(self.states)

    def state(self, idx: int) -> Configuration:
        """The configuration of state `idx`, decoded from its slots."""
        model_idx, slots = self.states[idx]
        return Configuration.from_slots(self.models[model_idx].layout, slots)

    def where(self, test_for: Callable[[StdModel], SlotTest], holds: bool = True) -> Iterator[int]:
        """The states, in BFS order, whose slots pass the test `test_for`
        builds for their model (with `holds` false: fail it).  The test is
        built once per model of the space, and run lazily, one state after
        another, so a test that raises does so at the first state it is
        reached on."""
        tests = [test_for(model) for model in self.models]
        states = enumerate(self.states)
        if holds:
            return (idx for idx, (m, slots) in states if tests[m](slots))
        return (idx for idx, (m, slots) in states if not tests[m](slots))

    def versions_seen(self) -> list[int]:
        return sorted({slots[0] for _, slots in self.states})

    @cached_property
    def reverse_adjacency(self) -> list[list[int]]:
        """Per state, the sources of its incoming edges; built once."""
        out: list[list[int]] = [[] for _ in range(len(self.states))]
        for src, _, dst in self.edges:
            out[dst].append(src)
        return out

    @cached_property
    def move_sources(self) -> dict[str, list[int]]:
        """Per component, the sorted states with an outgoing edge that is the
        component's own move (`engine.mover`); built in one pass."""
        out: dict[str, set[int]] = {}
        for src, label, _ in self.edges:
            out.setdefault(mover(label), set()).add(src)
        return {component: sorted(sources) for component, sources in out.items()}

    def _path(self, state: int) -> list[int]:
        """State indices from the exploration root to `state`."""
        path = [state]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]][0])
        path.reverse()
        return path

    def trace_to(self, state: int) -> Trace:
        """Shortest trace from the exploration root, by BFS construction."""
        path = self._path(state)
        return Trace(
            initial=self.state(path[0]),
            steps=tuple((self.parent[idx][1], config_digest(self.state(idx))) for idx in path[1:]),
            final_model_version=self.states[state][1][0],
        )

    def trace_records(self, state: int) -> list[dict]:
        """The trace to a state as records of the exported JSON-lines format,
        each line written by `engine._record_line` and read back as a JSON
        value."""
        labels: dict = {}
        records = []
        for i, idx in enumerate(self._path(state)):
            config = self.state(idx)
            records.append(json.loads(_record_line(
                labels, i, self.parent[idx][1] if i else None,
                self.models[self.states[idx][0]], config, config_digest(config))))
        return records


def explore_space(
    model: StdModel,
    initial: Configuration,
    bounds: Bounds = Bounds(),
) -> Space:
    """Breadth-first reachability; the one exploration every check queries.

    Raises UnknownElement when a configuration does not fit its model's
    slot layout."""
    space = Space()
    models, states, parent, edges = space.models, space.states, space.parent, space.edges
    max_states = bounds.max_states

    # the root, always kept, is the first state of the first model
    root = _slots(model.layout, initial)
    models.append(model)
    model_keys = {canonical_model(model): 0}  # canonical model -> model index
    seen = [{root: 0}]  # per model index: slots -> state index
    states.append((0, root))
    parent.append(None)

    frontier = [0]
    depth = 0
    while frontier:
        if depth >= bounds.max_depth:
            space.max_depth_hit = True
            break
        next_frontier: list[int] = []
        for idx in frontier:
            here, here_slots = states[idx]
            here_model, here_seen = models[here], seen[here]
            succ = successors(here_model, Configuration.from_slots(here_model.layout, here_slots))
            if not succ:
                space.deadlocks.append(idx)
            # intern each successor: model index, then its slots in that
            # model's seen dict.  `canonical_model` is a cached lookup, run
            # once per edge (the benchmark's traced count pins it)
            for label, nxt_model, nxt_config in succ:
                model_key = canonical_model(nxt_model)
                if nxt_model is here_model:
                    model_idx, model_seen = here, here_seen
                else:
                    model_idx = model_keys.get(model_key)
                    model_seen = {} if model_idx is None else seen[model_idx]
                slots = nxt_config._slots  # equal models have equal layouts
                dst = model_seen.get(slots)
                if dst is None:
                    dst = len(states)
                    if dst >= max_states:
                        space.max_states_hit = True
                        return space
                    if model_idx is None:
                        model_idx = model_keys[model_key] = len(models)
                        models.append(nxt_model)
                        seen.append(model_seen)
                    model_seen[slots] = dst
                    states.append((model_idx, slots))
                    parent.append((idx, label))
                    next_frontier.append(dst)
                edges.append((idx, label, dst))
        frontier = next_frontier
        depth += 1
    return space


@dataclass
class ExplorationReport:
    states_visited: int
    transitions_visited: int
    model_versions_seen: list[int]
    violations: list[tuple[str, list[dict]]]  # (property text, trace records)
    deadlocks: list[list[dict]]
    verdicts: list[tuple[str, str]]  # (property text, verdict)
    bounds: Bounds
    max_states_hit: bool
    max_depth_hit: bool
    space: Space = field(repr=False, compare=False)  # for further queries

    def unknown(self) -> bool:
        return any(v.startswith("unknown") for _, v in self.verdicts)

    def doc(self) -> dict:
        """The report as a new JSON document, which a caller may extend."""
        return {
            "statesVisited": self.states_visited,
            "transitionsVisited": self.transitions_visited,
            "modelVersionsSeen": self.model_versions_seen,
            "violations": [
                {"property": prop, "trace": records} for prop, records in self.violations
            ],
            "deadlocks": self.deadlocks,
            "properties": [
                {"property": prop, "verdict": verdict} for prop, verdict in self.verdicts
            ],
            "bounds": {
                "maxStates": self.bounds.max_states,
                "maxDepth": self.bounds.max_depth,
                "maxStatesHit": self.max_states_hit,
                "maxDepthHit": self.max_depth_hit,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.doc(), sort_keys=True, indent=2) + "\n"


def _within_bound_to_targets(space: Space, targets: Sequence[int]) -> list[int]:
    """Forward distance from every state to the nearest target, computed as a
    backward BFS over the explored edges; -1 when unreachable."""
    dist = [-1] * space.state_count()
    frontier = []
    for t in targets:
        if dist[t] == -1:
            dist[t] = 0
            frontier.append(t)
    rev = space.reverse_adjacency
    d = 0
    while frontier:
        d += 1
        nxt = []
        for state in frontier:
            for prev in rev[state]:
                if dist[prev] == -1:
                    dist[prev] = d
                    nxt.append(prev)
        frontier = nxt
    return dist


def _sorted_violations(space: Space, items: list[tuple[str, int]]) -> list[tuple[str, list[dict]]]:
    """Shortest trace first, then by its labels' text, then by property."""
    def sort_key(item):
        prop, state = item
        path = space._path(state)
        return (len(path), [label_text(space.parent[idx][1]) for idx in path[1:]], prop)

    return [(prop, space.trace_records(state)) for prop, state in sorted(items, key=sort_key)]


def explore(
    model: StdModel,
    initial: Configuration,
    properties: Sequence[PropertyExpr] = (),
    bounds: Bounds = Bounds(),
    *,
    workers: int = 1,  # kept only for perfbench/run.py, which passes workers=1
) -> ExplorationReport:
    """Enumerate reachable states, validating every one, and check properties.

    Invariants are checked at each state (counterexamples are BFS-shortest);
    reachable properties are satisfied on the first witness; eventuallyAll
    properties require that from every reachable state some satisfying state
    remains reachable within the stated step bound.  The report keeps the
    explored space for further queries.
    """
    if workers != 1:
        raise ValueError(f"exploration is serial; workers must be 1, got {workers}")
    space = explore_space(model, initial, bounds)
    pending_violations: list[tuple[str, int]] = []
    verdicts: list[tuple[str, str]] = []

    bad = next(space.where(lambda model: partial(consistent, model), holds=False), None)
    if bad is not None:  # steps keep consistency; a bad root shows here
        pending_violations.append(("configuration-valid", bad))

    for prop in properties:
        compiled = partial(compile_predicate, prop.predicate)
        if isinstance(prop, Invariant):
            witness = next(space.where(compiled, holds=False), None)
            if witness is not None:
                pending_violations.append((prop.text(), witness))
                verdicts.append((prop.text(), "violated"))
            else:
                verdicts.append((prop.text(), "unknown(bound)" if space.truncated else "holds"))
        elif isinstance(prop, Reachable):
            if next(space.where(compiled), None) is not None:
                verdicts.append((prop.text(), "satisfied"))
            elif space.truncated:
                verdicts.append((prop.text(), "unknown(bound)"))
            else:
                verdicts.append((prop.text(), "not-reachable"))
                pending_violations.append((prop.text(), 0))
        elif isinstance(prop, EventuallyAll):
            if space.truncated:
                # missing edges can only over-estimate distances, so nothing
                # is provable on a truncated graph
                verdicts.append((prop.text(), "unknown(bound)"))
                continue
            dist = _within_bound_to_targets(space, list(space.where(compiled)))
            worst = next((idx for idx, d in enumerate(dist) if d == -1 or d > prop.bound), None)
            if worst is not None:
                verdicts.append((prop.text(), "violated"))
                pending_violations.append((prop.text(), worst))
            else:
                verdicts.append((prop.text(), "holds"))

    return ExplorationReport(
        states_visited=space.state_count(),
        transitions_visited=len(space.edges),
        model_versions_seen=space.versions_seen(),
        violations=_sorted_violations(space, pending_violations),
        deadlocks=[space.trace_records(idx) for idx in sorted(space.deadlocks)],
        verdicts=verdicts,
        bounds=bounds,
        max_states_hit=space.max_states_hit,
        max_depth_hit=space.max_depth_hit,
        space=space,
    )


@dataclass
class InvariantResult:
    verdict: str  # satisfied | violated | unknown(bound)
    counterexample: Optional[Trace] = None


def check_invariant(space: Space, predicate) -> InvariantResult:
    """BFS-shortest counterexample to `invariant predicate`, if any."""
    bad = next(space.where(partial(compile_predicate, predicate), holds=False), None)
    if bad is not None:
        return InvariantResult("violated", space.trace_to(bad))
    return InvariantResult("unknown(bound)" if space.truncated else "satisfied")


@dataclass
class TerminationResult:
    verdict: str  # terminates | stuck | cycle | unknown(bound)
    max_depth: Optional[int] = None
    witness: Optional[Trace] = None


def check_migration_termination(
    space: Space, target_version: int, sk: McPalSkeleton = McPalSkeleton()
) -> TerminationResult:
    """Verify that the migration always remains completable.

    Completion (`mcpal.completion_predicate`) means: model version equals the
    target and the coordinator named by `sk` is back in hibernation, that is
    in `sk.hibernation_state` with its `sk.evolution_role` role in
    `sk.hibernating_phase`.  Free-running components make "all interleavings
    finish in N steps" unsatisfiable for any N (a scheduler may simply never
    pick the coordinator), so the mechanized reading is: no deadlock occurs
    before completion, and from every reachable state a completion state is
    still reachable.  The reported depth is the largest distance any
    reachable state has to its nearest completion state.

    A deadlocked incomplete state yields a `stuck` witness; a region from
    which completion is unreachable yields a `cycle` witness (a lasso that
    avoids completion forever).  On a truncated space only `stuck` is
    provable; otherwise the verdict is `unknown(bound)`.  Raises
    UnknownElement when no model of the space has the coordinator.
    """
    _require_component(space, sk.component)
    targets = list(space.where(partial(completion_test, target_version=target_version, sk=sk)))
    complete = set(targets)
    for idx in sorted(space.deadlocks):
        if idx not in complete:
            return TerminationResult("stuck", witness=space.trace_to(idx))
    if space.truncated:
        return TerminationResult("unknown(bound)")
    dist = _within_bound_to_targets(space, targets)
    doomed = next((idx for idx in range(space.state_count()) if dist[idx] == -1), None)
    if doomed is not None:
        # Every successor of a completion-unreachable state is itself
        # completion-unreachable, and none deadlocks (handled above), so a
        # lasso exists inside the doomed region; extend the stem into it
        # until a state repeats, taking each state's first edge (`(at,)`
        # sorts before every edge of `at`, and no label is compared).
        stem = space.trace_to(doomed)
        steps = list(stem.steps)
        seen_on_loop = {doomed}
        at = doomed
        while True:
            _, label, nxt = space.edges[bisect_left(space.edges, (at,))]
            steps.append((label, config_digest(space.state(nxt))))
            if nxt in seen_on_loop:
                break
            seen_on_loop.add(nxt)
            at = nxt
        witness = Trace(
            initial=stem.initial,
            steps=tuple(steps),
            final_model_version=space.states[nxt][1][0],
        )
        return TerminationResult("cycle", witness=witness)
    max_depth = max(dist) if dist else 0
    return TerminationResult("terminates", max_depth=max_depth)


@dataclass
class ProgressResult:
    verdict: str  # satisfied | starved | unknown(bound)
    starved: Optional[Configuration] = None
    witness: Optional[Trace] = None


def _require_component(space: Space, component: str) -> None:
    """Raises UnknownElement when no model of the space has the component."""
    if not any(component in model.components for model in space.models):
        raise UnknownElement(component)


def _distance_to_move(space: Space, component: str) -> list[int]:
    """Per state, the fewest steps before a step that is the component's own
    move can be taken (0: one is enabled now); -1 when none ever can."""
    return _within_bound_to_targets(space, space.move_sources.get(component, []))


def check_progress(space: Space, component: str, k: int, within=None) -> ProgressResult:
    """Bounded non-starvation: from every reachable state some continuation of
    at most k steps contains the component's own move (a detailed step, or a
    rule firing it manages).  Returns the first reachable state, in BFS
    order, from which no such continuation exists.

    `within`, when given, is a predicate restricting which reachable states
    are held to the obligation (e.g. only states inside a migration window);
    continuations may still run through any state.  Raises UnknownElement
    when no model of the space has the component."""
    _require_component(space, component)
    if space.truncated:
        # missing edges can only over-estimate distances, so no state is
        # provably starved on a truncated graph
        return ProgressResult("unknown(bound)")
    dist = _distance_to_move(space, component)
    held = (range(space.state_count()) if within is None
            else space.where(partial(compile_predicate, within)))
    for idx in held:
        if dist[idx] == -1 or dist[idx] + 1 > k:
            return ProgressResult(
                "starved", starved=space.state(idx), witness=space.trace_to(idx)
            )
    return ProgressResult("satisfied")


def minimal_progress_bound(space: Space, component: str) -> Optional[int]:
    """Smallest k for which check_progress is satisfied; None if starved at
    every bound (some state never leads to a move of the component).

    Raises UnknownElement when no model of the space has the component, and
    ValueError on a truncated space, where no bound is provable."""
    _require_component(space, component)
    if space.truncated:
        hit = "max_states" if space.max_states_hit else "max_depth"
        raise ValueError(f"progress bound of {component} unknown: the space was cut at {hit}")
    dist = _distance_to_move(space, component)
    if any(d == -1 for d in dist):
        return None
    return max(d + 1 for d in dist)


def shortest_trace_to(space: Space, predicate) -> Optional[Trace]:
    """BFS-shortest trace to a state satisfying the predicate; None if none
    is in the space."""
    idx = next(space.where(partial(compile_predicate, predicate)), None)
    return None if idx is None else space.trace_to(idx)


def reachable_projection(space: Space, components: Sequence[str]) -> frozenset:
    """Reachable configurations projected onto the given components: the
    census used to show a woven coordinator leaves host behavior untouched."""
    keep = set(components)
    out = set()
    for config in map(space.state, range(space.state_count())):
        detailed = tuple(sorted((c, s) for c, s in config.detailed.items() if c in keep))
        phases = tuple(sorted((f"{c}.{p}", ph) for (c, p), ph in config.phases.items() if c in keep))
        out.add((detailed, phases))
    return frozenset(out)

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
deterministic.  Edges are kept in three flat lists, one entry per edge
(`Space.edge_src`, `edge_label`, `edge_dst`), grouped by source, in
increasing source order, and each source's edges in `successors` order;
each state's parent link is one int, the index of the edge that first
reached it.  No tuple is built per edge or per parent link, so the space
holds about no collector-tracked object per edge: a label is the step
object its model's step core built once (see `engine`).  `Space.edges` is a
read-only view of the same edges as (src, label, dst) triples.

`explore_space` builds a `Space`; every check below is a pure query over
one, so a caller that asks several questions explores once, and every
answer obeys the same bounds.  A check that fails keeps the index of the
state it failed at, not a trace: `Space.trace_to` gives the shortest trace
to it.  An `ExplorationReport` keeps its verdicts, the state of each
counterexample and the termination and progress results a caller stores
on it; `ExplorationReport.doc` is the one writer of the report document,
and the only code that renders traces, from records built once per state
(`Space.trace_records`).  A check that tests every state sweeps the slots
through `Space.where`, with its predicate compiled once per model of the
space (`properties.compile_predicate`).  `configuration-valid` tests the root
alone (`model.consistent`): the engine steps only models that
`validate_model` accepts, and from a consistent root of one every step
reaches a consistent state.
"""

from __future__ import annotations

import json
from functools import cached_property, partial
from typing import Callable, Iterator, Optional, Sequence

from .changeset import canonical_model
from .engine import (
    StepLabel,
    Trace,
    UnknownElement,
    _core,
    _record_line,
    _slots,
    config_digest,
    label_text,
    mover,
    successors,
)
from .mcpal import McPalSkeleton, completion_test
from .model import Configuration, Record, StdModel, consistent
from .properties import (
    EventuallyAll,
    Invariant,
    PropertyExpr,
    Reachable,
    SlotTest,
    compile_predicate,
)


class Bounds(Record):
    __slots__ = ("max_states", "max_depth")
    _defaults = {"max_states": 1_000_000, "max_depth": 10_000}
    max_states: int
    max_depth: int


class Edges:
    """The edges of a space as (src, label, dst) triples, read from its three
    edge lists: a read-only sequence with `len`, indexing and iteration,
    which copies nothing."""

    __slots__ = ("src", "label", "dst")

    def __init__(self, src: list[int], label: list[StepLabel], dst: list[int]):
        self.src, self.label, self.dst = src, label, dst

    def __len__(self) -> int:
        return len(self.dst)

    def __getitem__(self, edge: int) -> tuple[int, StepLabel, int]:
        return self.src[edge], self.label[edge], self.dst[edge]

    def __iter__(self) -> Iterator[tuple[int, StepLabel, int]]:
        return zip(self.src, self.label, self.dst)


class Space(Record, frozen=False):
    """The explored fragment of the state space.  `explore_space` fills it;
    the cached queries (`reverse_adjacency`, `move_sources`) read a
    finished one.  Edge `e` runs from state `edge_src[e]` to `edge_dst[e]`
    by the step `edge_label[e]`; `edges` shows them as triples."""

    __slots__ = ("models", "states", "parent", "edge_src", "edge_label", "edge_dst",
                 "deadlocks", "max_states_hit", "max_depth_hit", "records", "labels",
                 "__dict__", "__weakref__")
    _defaults = {"models": [], "states": [], "parent": [], "edge_src": [], "edge_label": [],
                 "edge_dst": [], "deadlocks": [], "max_states_hit": False,
                 "max_depth_hit": False, "records": {}, "labels": {}}
    _hidden = ("records", "labels")
    models: list[StdModel]
    # per state index: (model index, slots in the layout of models[model index])
    states: list[tuple[int, tuple]]
    # per state index: the index of the edge that first reached it; None for the root
    parent: list[Optional[int]]
    edge_src: list[int]
    edge_label: list[StepLabel]
    edge_dst: list[int]
    deadlocks: list[int]
    max_states_hit: bool
    max_depth_hit: bool
    # filled by `trace_records`: per state its record, per label key its JSON text
    records: dict[int, dict]
    labels: dict

    @property
    def truncated(self) -> bool:
        """True when a bound cut the exploration short: absent states and
        edges may exist, so only witnesses found in the space are evidence."""
        return self.max_states_hit or self.max_depth_hit

    def state_count(self) -> int:
        return len(self.states)

    @property
    def edges(self) -> Edges:
        return Edges(self.edge_src, self.edge_label, self.edge_dst)

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
        for src, dst in zip(self.edge_src, self.edge_dst):
            out[dst].append(src)
        return out

    @cached_property
    def move_sources(self) -> dict[str, list[int]]:
        """Per component, the sorted states with an outgoing edge that is the
        component's own move (`engine.mover`); built in one pass."""
        out: dict[str, set[int]] = {}
        for src, label in zip(self.edge_src, self.edge_label):
            out.setdefault(mover(label), set()).add(src)
        return {component: sorted(sources) for component, sources in out.items()}

    def path(self, state: int) -> list[tuple[int, Optional[StepLabel]]]:
        """The BFS path from the exploration root to `state`, a shortest one,
        as (state, the label of the step that reached it) per state on it,
        read from the parent links; the root's label is None."""
        path = []
        while (edge := self.parent[state]) is not None:
            path.append((state, self.edge_label[edge]))
            state = self.edge_src[edge]
        path.append((state, None))
        return path[::-1]

    def walk(self, state: int) -> list[tuple[Optional[StepLabel], StdModel, Configuration]]:
        """The path to `state` (see `path`) as (label, model, configuration)
        per state on it, the shape of a step of `engine.successors`."""
        return [(label, self.models[self.states[idx][0]], self.state(idx))
                for idx, label in self.path(state)]

    def trace_to(self, state: int) -> Trace:
        """Shortest trace from the exploration root, by BFS construction."""
        path = self.path(state)
        steps = tuple((label, config_digest(self.state(idx))) for idx, label in path[1:])
        return Trace(self.state(0), steps, final_model_version=self.states[state][1][0])

    def trace_records(self, state: int) -> list[dict]:
        """The trace to a state as records of the exported JSON-lines format,
        each line written by `engine._record_line` and read back as a JSON
        value, once per state: a record's index is its state's BFS depth, the
        same on every trace, so every trace through the state shares it."""
        path, records = self.path(state), self.records
        for depth, (idx, label) in enumerate(path):
            if idx not in records:
                config = self.state(idx)
                records[idx] = json.loads(_record_line(
                    self.labels, depth, label, self.models[self.states[idx][0]],
                    config, config_digest(config)))
        return [records[idx] for idx, _ in path]


def explore_space(
    model: StdModel,
    initial: Configuration,
    bounds: Bounds = Bounds(),
) -> Space:
    """Breadth-first reachability; the one exploration every check queries.

    Raises ModelRejected, before the first step, when `validate_model`
    rejects the model, and UnknownElement when a configuration does not fit
    its model's slot layout."""
    space = Space()
    models, states, parent = space.models, space.states, space.parent
    edge_dst = space.edge_dst
    add_src, add_label, add_dst = space.edge_src.append, space.edge_label.append, edge_dst.append
    max_states, new = bounds.max_states, object.__new__

    # the root, always kept, is the first state of the first model
    root = _slots(_core(model).layout, initial)  # `_core` refuses a rejected model
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
            here_config = new(Configuration)  # `Configuration.from_slots`, inline
            here_config._layout = here_model.layout
            here_config._slots = here_slots
            here_config._key = None
            succ = successors(here_model, here_config)
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
                    parent.append(len(edge_dst))  # the edge appended below
                    next_frontier.append(dst)
                add_src(idx)
                add_label(label)
                add_dst(dst)
        frontier = next_frontier
        depth += 1
    return space


class ExplorationReport(Record, frozen=False):
    """The verdicts of one exploration and the space they were read from.
    `explore` leaves `termination` and `progress` None, for "not checked";
    a caller that runs those checks on `space` stores their results here."""

    __slots__ = ("space", "bounds", "verdicts", "violations", "termination", "progress")
    _defaults = {"termination": None, "progress": None}
    _hidden = ("space",)
    space: Space  # for further queries
    bounds: Bounds
    verdicts: list[tuple[str, str]]  # (property text, verdict)
    violations: list[tuple[str, int]]  # (property text, state index), in report order
    termination: Optional[TerminationResult]
    progress: Optional[list[ProgressResult]]  # one per component, in name order

    @property
    def states_visited(self) -> int:
        return self.space.state_count()

    @property
    def transitions_visited(self) -> int:
        return len(self.space.edge_dst)

    def checked(self) -> list[str]:
        """Every verdict of the report: each property's, then termination's
        and each component's progress, where checked."""
        out = [verdict for _, verdict in self.verdicts]
        if self.termination is not None:
            out.append(self.termination.verdict)
        out.extend(result.verdict for result in self.progress or ())
        return out

    def doc(self) -> dict:
        """The report as a new JSON document, every section of it written
        here: the deadlock and violation traces (`Space.trace_records`), and
        `termination` and `progress` when they were checked.  The document
        is read-only below its top level: its traces share their records
        with every other trace and document of the space."""
        space, termination = self.space, self.termination
        doc = {
            "statesVisited": self.states_visited,
            "transitionsVisited": self.transitions_visited,
            "modelVersionsSeen": space.versions_seen(),
            "violations": [
                {"property": prop, "trace": space.trace_records(state)}
                for prop, state in self.violations
            ],
            "deadlocks": [space.trace_records(idx) for idx in sorted(space.deadlocks)],
            "properties": [
                {"property": prop, "verdict": verdict} for prop, verdict in self.verdicts
            ],
            "bounds": {
                "maxStates": self.bounds.max_states,
                "maxDepth": self.bounds.max_depth,
                "maxStatesHit": space.max_states_hit,
                "maxDepthHit": space.max_depth_hit,
            },
        }
        if termination is not None:
            doc["termination"] = {"targetVersion": termination.target_version,
                                  "verdict": termination.verdict,
                                  "maxDepth": termination.max_depth}
        if self.progress is not None:
            doc["progress"] = {result.component: {"k": result.k, "verdict": result.verdict}
                               for result in self.progress}
        return doc


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


def _sorted_violations(space: Space, items: list[tuple[str, int]]) -> list[tuple[str, int]]:
    """Shortest trace first, then by its labels' text, then by property."""
    def sort_key(item):
        path = space.path(item[1])
        return (len(path), [label_text(label) for _, label in path[1:]], item[0])

    return sorted(items, key=sort_key)


def explore(
    model: StdModel,
    initial: Configuration,
    properties: Sequence[PropertyExpr] = (),
    bounds: Bounds = Bounds(),
    *,
    workers: int = 1,  # kept only for perfbench/run.py, which passes workers=1
) -> ExplorationReport:
    """Enumerate reachable states, validate the root, and check properties.

    Invariants are checked at each state (counterexamples are BFS-shortest);
    reachable properties are satisfied on the first witness; eventuallyAll
    properties require that from every reachable state some satisfying state
    remains reachable within the stated step bound.  The report keeps the
    explored space, for further queries and to render its traces.
    """
    if workers != 1:
        raise ValueError(f"exploration is serial; workers must be 1, got {workers}")
    space = explore_space(model, initial, bounds)
    pending_violations: list[tuple[str, int]] = []
    verdicts: list[tuple[str, str]] = []

    if not consistent(model, space.states[0][1]):  # steps keep consistency
        pending_violations.append(("configuration-valid", 0))

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
        space=space,
        bounds=bounds,
        verdicts=verdicts,
        violations=_sorted_violations(space, pending_violations),
    )


class TerminationResult(Record, frozen=False):
    __slots__ = ("verdict", "target_version", "max_depth", "state")
    _defaults = {"max_depth": None, "state": None}
    verdict: str  # terminates | stuck | cycle | unknown(bound)
    target_version: int
    max_depth: Optional[int]
    state: Optional[int]  # stuck: the stuck state; cycle: the first doomed one


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

    The first deadlocked incomplete state, in BFS order, is `stuck`; else
    the first state from which completion is unreachable gives `cycle`:
    every successor of such a state is one too, and none deadlocks, so a
    lasso from it avoids completion forever.  The result keeps that state
    (`Space.trace_to` gives its shortest trace).  On a truncated space only
    `stuck` is provable; otherwise the verdict is `unknown(bound)`.  Raises
    UnknownElement when no model of the space has the coordinator.
    """
    _require_component(space, sk.component)
    targets = list(space.where(partial(completion_test, target_version=target_version, sk=sk)))
    complete = set(targets)
    for idx in sorted(space.deadlocks):
        if idx not in complete:
            return TerminationResult("stuck", target_version, state=idx)
    if space.truncated:
        return TerminationResult("unknown(bound)", target_version)
    dist = _within_bound_to_targets(space, targets)
    if -1 in dist:
        return TerminationResult("cycle", target_version, state=dist.index(-1))
    return TerminationResult("terminates", target_version, max_depth=max(dist, default=0))


class ProgressResult(Record, frozen=False):
    __slots__ = ("verdict", "component", "k", "state")
    _defaults = {"state": None}
    verdict: str  # satisfied | starved | unknown(bound)
    component: str
    k: int
    state: Optional[int]  # starved: the first starved state


def _require_component(space: Space, component: str) -> None:
    """Raises UnknownElement when no model of the space has the component."""
    if not any(component in model.components for model in space.models):
        raise UnknownElement(component)


def _distance_to_move(space: Space, component: str) -> list[int]:
    """Per state, the fewest steps before a step that is the component's own
    move can be taken (0: one is enabled now); -1 when none ever can."""
    return _within_bound_to_targets(space, space.move_sources.get(component, []))


def check_progress(space: Space, component: str, k: int) -> ProgressResult:
    """Bounded non-starvation: from every reachable state some continuation of
    at most k steps contains the component's own move (a detailed step, or a
    rule firing it manages).  A `starved` result keeps the first reachable
    state, in BFS order, from which no such continuation exists
    (`Space.trace_to` gives its shortest trace).  Raises UnknownElement
    when no model of the space has the component."""
    _require_component(space, component)
    if space.truncated:
        # missing edges can only over-estimate distances, so no state is
        # provably starved on a truncated graph
        return ProgressResult("unknown(bound)", component, k)
    dist = _distance_to_move(space, component)
    idx = next((idx for idx, d in enumerate(dist) if d == -1 or d + 1 > k), None)
    if idx is None:
        return ProgressResult("satisfied", component, k)
    return ProgressResult("starved", component, k, state=idx)


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

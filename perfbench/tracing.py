"""Spans around calls into the layers of `phasecoord`, recorded from outside.

`install` rebinds each listed public function under every name a
`phasecoord` module holds it by, e.g. `explorer.successors` and
`engine.successors` for `engine.successors`.  Module globals resolve at call
time, so calls made inside the package are caught as well as calls made by
the benchmark.  Nothing in the package is edited on disk.

A span is `(name, start, end, parent, op)`: `parent` is the index of the
enclosing span (-1 at top level) and `op` the id of the benchmark operation
it ran in (-1 outside one).  Spans stay in memory until `dump`.  The benchmark is one thread,
so spans nest and a span's self time is its duration minus the sum of its
children's durations.
"""

from __future__ import annotations

import functools
import gzip
from array import array
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function) pairs, named as the defining module names them.
TRACED = (
    ("changeset", "canonical_model"),
    ("explorer", "explore_space"),
    ("explorer", "explore"),
    ("explorer", "check_progress"),
    ("explorer", "check_migration_termination"),
    ("engine", "successors"),
    ("engine", "enabled_detailed"),
    ("engine", "enabled_rules"),
    ("engine", "fire_rule"),
    ("engine", "config_digest"),
    ("model", "validate_model"),
    ("model", "validate_configuration"),
    ("changeset", "validate_changeset"),
    ("changeset", "apply_changeset"),
    ("properties", "eval_predicate"),
    ("dsl", "parse_model"),
    ("mcpal", "load_migration"),
    ("cli", "main"),
)


def _count_space(counters, space):
    counters["explorer.states"] += space.state_count()
    counters["explorer.edges"] += len(space.edges)


def _count_successors(counters, succ):
    counters["engine.successors.edges"] += len(succ)


def _count_rejections(counters, diags):
    counters["changeset.validate_changeset.rejected"] += bool(diags)


# Counters read from a function's return value, keyed by span name.
_RESULT_COUNTERS = {
    "explorer.explore_space": _count_space,
    "engine.successors": _count_successors,
    "changeset.validate_changeset": _count_rejections,
}


# Every per-layer metric `Tracer.metrics` reports, with its unit.
PER_LAYER = [
    *((f"{module}.{fn}.{kind}", unit) for module, fn in TRACED
      for kind, unit in (("calls", "calls/op"), ("self_s", "s/op"))),
    ("explorer.states", "count/op"),
    ("explorer.edges", "count/op"),
    ("explorer.dedup_hit_ratio", "ratio"),
    ("engine.successors.edges", "count/op"),
    ("changeset.validate_changeset.rejected", "count/op"),
    ("changeset.validate_changeset.accept_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


class Tracer:
    """Spans in parallel arrays, one entry per call: the index of the
    function in TRACED, start, end, parent span (-1 for none) and op id."""

    def __init__(self):
        self.fn = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_of = array("q")
        self.stack: list[int] = []
        self.op = -1  # id of the op running now; spans outside ops are not reported
        self.op_factor: dict[int, float] = {}  # op id -> speed factor for its times
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, index: int, fn):
        name = "{}.{}".format(*TRACED[index])
        on_result = _RESULT_COUNTERS.get(name)
        counters, stack, clock = self.counters, self.stack, time.perf_counter
        fns, starts, ends, parents, ops = self.fn, self.start, self.end, self.parent, self.op_of

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            fns.append(index)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[sid] = start
                ends[sid] = end
            if on_result is not None:
                on_result(counters, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every TRACED function; returns the rebound `module.name` sites."""
        for module, _ in TRACED:
            importlib.import_module(f"phasecoord.{module}")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "phasecoord" or name.startswith("phasecoord."))
        }
        sites = []
        for index, (module, fn) in enumerate(TRACED):
            original = getattr(modules[f"phasecoord.{module}"], fn)
            traced = self.wrap(index, original)
            for mod_name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._restore.append((mod, attr, original))
                        sites.append(f"{mod_name.removeprefix('phasecoord.')}.{attr}")
        return sites

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def metrics(self, ops: int, overhead_ratio: float) -> dict[str, float]:
        """Per-op calls and self time for every TRACED function, plus counters.
        Self times are multiplied by their op's entry in `op_factor`."""
        child = [0.0] * len(self)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        calls = [0] * len(TRACED)
        self_s = [0.0] * len(TRACED)
        for sid, (fn, op) in enumerate(zip(self.fn, self.op_of)):
            if op < 0:
                continue
            calls[fn] += 1
            self_s[fn] += (self.end[sid] - self.start[sid] - child[sid]) * self.op_factor.get(op, 1.0)
        out = {}
        for index, (module, fn) in enumerate(TRACED):
            out[f"{module}.{fn}.calls"] = calls[index] / ops
            out[f"{module}.{fn}.self_s"] = self_s[index] / ops
        c = self.counters
        out["explorer.states"] = c["explorer.states"] / ops
        out["explorer.edges"] = c["explorer.edges"] / ops
        out["explorer.dedup_hit_ratio"] = (
            1 - c["explorer.states"] / c["explorer.edges"] if c["explorer.edges"] else 0.0
        )
        out["engine.successors.edges"] = c["engine.successors.edges"] / ops
        validations = calls[TRACED.index(("changeset", "validate_changeset"))]
        rejected = c["changeset.validate_changeset.rejected"]
        out["changeset.validate_changeset.rejected"] = rejected / ops
        out["changeset.validate_changeset.accept_ratio"] = (
            1 - rejected / validations if validations else 0.0
        )
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def dump(self, path: Path) -> None:
        """Write every span as a tab-separated line: name start end parent op."""
        names = ["{}.{}".format(*t) for t in TRACED]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart\tend\tparent\top\n")
            for fn, start, end, parent, op in zip(self.fn, self.start, self.end, self.parent, self.op_of):
                f.write(f"{names[fn]}\t{start!r}\t{end!r}\t{parent}\t{op}\n")

"""phasecoord benchmark: closed-loop workloads, end-to-end or per layer.

    python3 perfbench/run.py --workload csn7 --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/`.  Each
workload is one caller in one thread that starts an operation ("op") only
after the previous one returned.  `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics (see perfbench/README.md).  The last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import scaler  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

SRC = Path.cwd() / "src"
SETUP_ROUNDS = 15
CSN_WORKERS = 7
SIM_STEPS = 200
# op_tail_s is the sample with TAIL_BEYOND samples above it, so an untraced
# run keeps going past its deadline until it has one more sample than that.
TAIL_BEYOND = 10
FLAGSHIP_ARGV = [
    "--format", "json", "explore", "shop-migration", "--load-migration", "ShopMigr",
    "--check-termination", "3", "--check-progress", "16",
]
# Times are rescaled to a machine on which `reference_work` takes
# REF_SECONDS; see SpeedScale.
REF_SECONDS = 0.01
REF_ITEMS = 20000
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("states_per_s", "1/s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
]


def import_phasecoord():
    """Fresh import of the package under `src/`, dropping any earlier copy so
    that every set-up round pays the import."""
    for name in [n for n in sys.modules if n == "phasecoord" or n.startswith("phasecoord.")]:
        del sys.modules[name]
    pkg = importlib.import_module("phasecoord")
    for sub in ("bundled", "cli"):
        importlib.import_module(f"phasecoord.{sub}")
    if Path(pkg.__file__).resolve().parent != (SRC / "phasecoord").resolve():
        raise RuntimeError(f"imported phasecoord from {pkg.__file__}, not from {SRC}")
    return pkg


def parse_or_raise(pkg, text):
    result = pkg.dsl.parse_model(text)
    if not result.ok:
        raise ValueError(f"model invalid: {result.diagnostics}")
    return result.model


def load_shop(pkg):
    """The parsed shop-migration model, its initial configuration and its
    ShopMigr fragment, after checking that the fragment loads."""
    model = parse_or_raise(pkg, pkg.bundled.get_bundled("shop-migration").model_text())
    config = pkg.model.initial_configuration(model)
    fragment = model.variables["ShopMigr"]
    pkg.mcpal.load_migration(model, config, fragment)
    return model, config, fragment


# Each workload is a set-up function returning an `op(i) -> (ok, states,
# steps)` closure.  Ops call the package through module attributes at call
# time, so the traced run sees them.


def setup_flagship(pkg, seed, golden):
    load_shop(pkg)  # the same set-up as sim-shop, though the CLI parses again
    report = json.loads(golden)
    states, steps = report["statesVisited"], report["transitionsVisited"]

    def op(i):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(list(FLAGSHIP_ARGV))
        return code == 0 and out.getvalue().encode("utf-8") == golden, states, steps

    return op


def setup_csn7(pkg, seed, golden):
    bundled = pkg.bundled.get_bundled("cs-nondet").model_text()
    model = parse_or_raise(pkg, scaler.scale_cs_nondet(bundled, CSN_WORKERS))
    props, diags = pkg.properties.parse_properties(scaler.cs_nondet_properties(CSN_WORKERS))
    if diags:
        raise ValueError(f"properties invalid: {diags}")
    config = pkg.model.initial_configuration(model)
    want = [(props[0].text(), "holds"), (props[1].text(), "satisfied")]
    states = scaler.expected_states(CSN_WORKERS)
    edges = scaler.expected_edges(CSN_WORKERS)

    def op(i):
        report = pkg.explorer.explore(model, config, props, pkg.explorer.Bounds(), workers=1)
        ok = (
            report.states_visited == states
            and report.transitions_visited == edges
            and report.verdicts == want
            and not report.violations
        )
        return ok, report.states_visited, report.transitions_visited

    return op


def setup_sim_shop(pkg, seed, golden):
    model, config, fragment = load_shop(pkg)
    rng = random.Random(seed)
    op_seeds: list[int] = []

    def op(i):
        while len(op_seeds) <= i:
            op_seeds.append(rng.randrange(2**32))
        engine = pkg.engine
        m, c = pkg.mcpal.load_migration(model, config, fragment)
        trace = engine.run(m, c, engine.RandomPolicy(op_seeds[i]), SIM_STEPS)
        labels = engine.parse_trace_labels(engine.export_trace_jsonl(m, trace))
        again = engine.replay(m, c, labels)
        states = len({digest for _, digest in trace.steps})
        return again == trace and len(trace.steps) > 0, states, len(trace.steps)

    return op


WORKLOADS = {
    "flagship-shop": setup_flagship,
    "csn7": setup_csn7,
    "sim-shop": setup_sim_shop,
}


def reference_work():
    """Fixed pure-Python work that touches no phasecoord code: small tuples
    built, counted in a dict, kept in a list and sorted."""
    counts = {}
    keys = []
    for i in range(REF_ITEMS):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        keys.append(key)
    keys.sort()
    return len(counts)


class SpeedScale:
    """Rescales measured seconds to a machine of fixed speed.

    On a shared host the same work can take up to twice as long from one
    minute to the next, because other tenants contend for the cores and
    caches.  So `reference_work` runs with the collector off between every
    two measured intervals, and each interval is multiplied by REF_SECONDS
    over the mean of the reference times on either side of it.  The program
    under test never runs inside the reference, so a slower program still
    reads slower."""

    def __init__(self):
        self.before = self.reference()

    @staticmethod
    def reference() -> float:
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            return time.perf_counter() - start
        finally:
            gc.enable()

    def factor(self) -> float:
        """The factor for the interval that ended just now."""
        after = self.reference()
        factor = REF_SECONDS / ((self.before + after) / 2)
        self.before = after
        return factor


class Loop:
    """Closed-loop runner: per-op latency, work counts and failures."""

    def __init__(self, op, speed):
        self.op = op
        self.speed = speed
        self.attempted = 0
        self.failed = 0

    def one(self, tracer=None):
        """Run one op, with `tracer` installed if given; returns
        (rescaled seconds, states, steps)."""
        i = self.attempted
        self.attempted += 1
        if tracer is not None:
            tracer.install()
            tracer.op = i
        start = time.perf_counter()
        try:
            ok, states, steps = self.op(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, states, steps = False, 0, 0
        elapsed = time.perf_counter() - start
        factor = self.speed.factor()
        if tracer is not None:
            tracer.op = -1
            tracer.uninstall()
            tracer.op_factor[i] = factor
        if not ok:
            self.failed += 1
            print(f"op {i} failed", file=sys.stderr)
        return elapsed * factor, states, steps

    def measure(self, seconds, min_ops):
        """Run ops until `seconds` have passed and at least `min_ops` ran."""
        samples = []
        deadline = time.perf_counter() + seconds
        while len(samples) < min_ops or time.perf_counter() < deadline:
            samples.append(self.one())
        return samples

    def measure_traced(self, seconds, tracer):
        """Alternate untraced and traced ops until `seconds` have passed, so
        both kinds see the same machine conditions; returns the two lists
        of op times."""
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            untraced.append(self.one()[0])
            traced.append(self.one(tracer)[0])
        return untraced, traced


def end_to_end(samples, setup_s, attempted, failed):
    times = sorted(t for t, _, _ in samples)
    tail = times[-1 - TAIL_BEYOND]
    print(f"# op_tail_s has {TAIL_BEYOND} of {len(times)} samples beyond it "
          f"(percentile {100 * (len(times) - TAIL_BEYOND) / len(times):.1f})")
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail,
        "states_per_s": sum(s for _, s, _ in samples) / sum(times),
        "steps_per_s": sum(n for _, _, n in samples) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": (attempted - failed) / attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "phasecoord" / "__init__.py").is_file():
        print(f"error: no phasecoord package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    golden = (HERE / "golden" / "flagship-shop.json").read_bytes()

    speed = SpeedScale()
    setup_times = []
    for _ in range(SETUP_ROUNDS):
        pkg = op = None
        gc.collect()  # drop the previous round's package copy
        start = time.perf_counter()
        pkg = import_phasecoord()
        op = WORKLOADS[args.workload](pkg, args.seed, golden)
        elapsed = time.perf_counter() - start
        setup_times.append(elapsed * speed.factor())
    setup_s = statistics.median(setup_times)

    loop = Loop(op, speed)
    loop.one()  # warm-up: checked, not timed
    if args.trace == 0:
        samples = loop.measure(args.seconds, TAIL_BEYOND + 1)
        metrics = end_to_end(samples, setup_s, loop.attempted, loop.failed)
        units = dict(END_TO_END)
    else:
        tracer = Tracer()
        untraced, traced = loop.measure_traced(args.seconds, tracer)
        metrics = tracer.metrics(len(traced), statistics.median(traced) / statistics.median(untraced))
        units = dict(PER_LAYER)
        dump = Path.cwd() / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.dump(dump)
        print(f"# {len(tracer)} spans written to {dump.relative_to(Path.cwd())}")

    for name, value in metrics.items():
        print(f"{name:48} {value!r} {units[name]}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

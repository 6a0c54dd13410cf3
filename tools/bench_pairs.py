"""Alternating runs of the benchmark on a parent revision and the working tree.

    python3 tools/bench_pairs.py --parent 1640973 --pr 27

Run from anywhere inside the repository.  The parent revision is exported
with `git archive` into a temporary directory.  For each workload that
BENCHMARK.json declares, `perfbench/run.py --workload W --seed 1 --seconds S
--trace 0`, with S the benchmark's `run_seconds`, then runs in the parent's
tree and in the working tree alternately, one process at a time, for PAIRS
pairs; the side that runs first alternates from pair to pair.  Every run
reads and writes bytecode under one fresh PYTHONPYCACHEPREFIX, so that
neither side imports `.pyc` files that its tree already held and the
other's lacks (which moves `setup_s`).  BENCH_<pr>.json at the repository
root receives, per workload and end-to-end metric, both sides' medians,
their ratio (change over parent), every raw value, and the two inputs of
the gain test: `wins`, the number of pairs whose change run is strictly
better than its parent run (by the metric's `better` in BENCHMARK.json),
and `parent_iqr`, Q3 - Q1 of the parent's runs; `correct` of every run;
and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10  # the fewest alternating pairs that can show a metric did not regress


def parse_result(stdout: str) -> dict:
    """`correct` and {metric: (value, unit)} of one run.py run, read from the
    JSON object on the last line of its standard output."""
    last = json.loads(stdout.strip().splitlines()[-1])
    return {"correct": last["correct"],
            "metrics": {name: (m["value"], m["unit"]) for name, m in last["metrics"].items()}}


def summarize(runs: dict, better: dict) -> dict:
    """The entry of one workload from its parsed runs, {side: [result, ...]},
    the i-th run of each side from pair i; `better` maps a metric's name to
    "higher" or "lower".  A metric `better` lacks has no `wins`, and one
    with fewer than two parent runs no `parent_iqr`."""
    entry = {"correct": {side: [r["correct"] for r in runs[side]] for side in SIDES},
             "metrics": {}}
    for name, (_, unit) in runs["parent"][0]["metrics"].items():
        values = {side: [r["metrics"][name][0] for r in runs[side]] for side in SIDES}
        parent, change = (statistics.median(values[side]) for side in SIDES)
        entry["metrics"][name] = {
            "unit": unit, "parent_median": parent, "change_median": change,
            "ratio": change / parent if parent else None,
            "wins": wins(values["parent"], values["change"], better.get(name)),
            "parent_iqr": iqr(values["parent"]),
            "parent": values["parent"], "change": values["change"]}
    return entry


def wins(parent: list, change: list, better: Optional[str]) -> Optional[int]:
    """The number of pairs whose change value is strictly better than its
    parent value; None when `better` is neither "higher" nor "lower"."""
    sign = {"higher": 1, "lower": -1}.get(better)
    if sign is None:
        return None
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def iqr(values: list) -> Optional[float]:
    """Q3 - Q1 of `values` (`statistics.quantiles`, n=4); None for fewer
    than two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def pair_order(pair: int) -> tuple:
    """The sides of pair `pair` in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def run_once(tree: Path, workload: str, seconds: float, pycache: Path) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache)))
    return parse_result(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    doc = {"parent": args.parent, "pairs": PAIRS, "seconds": seconds, "seed": 1,
           "machine": machine(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", args.parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        parent = Path(tmp) / "parent"
        parent.mkdir()
        subprocess.run(["tar", "-x", "-C", parent], input=archive, check=True)
        trees = {"parent": parent, "change": ROOT}
        for workload in (w["name"] for w in bench["workloads"]):
            runs = {side: [] for side in SIDES}
            for pair in range(PAIRS):
                for side in pair_order(pair):
                    runs[side].append(run_once(trees[side], workload, seconds,
                                               Path(tmp) / "pycache"))
                print(f"{workload}: pair {pair + 1} of {PAIRS} done", file=sys.stderr)
            doc["workloads"][workload] = summarize(runs, better)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Checks of the benchmark's own parts: the cs-nondet scaler against the
closed forms, the tracer's call counts, and BENCHMARK.json against the
metrics the benchmark prints.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from phasecoord import cli, explorer  # noqa: E402
from phasecoord.bundled import get_bundled  # noqa: E402
from phasecoord.changeset import models_equal  # noqa: E402
from phasecoord.dsl import parse_model  # noqa: E402
from phasecoord.model import initial_configuration  # noqa: E402
from phasecoord.properties import parse_properties  # noqa: E402

import scaler  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402


def scaled(n):
    result = parse_model(scaler.scale_cs_nondet(get_bundled("cs-nondet").model_text(), n))
    assert result.ok, result.diagnostics
    return result.model


@pytest.mark.parametrize("n", [2, 4, 7])
def test_scaled_cs_nondet_matches_closed_forms(n):
    model = scaled(n)
    props, diags = parse_properties(scaler.cs_nondet_properties(n))
    assert not diags
    report = explorer.explore(model, initial_configuration(model), props)
    assert report.states_visited == scaler.expected_states(n)
    assert report.transitions_visited == scaler.expected_edges(n)
    assert [v for _, v in report.verdicts] == ["holds", "satisfied"]


def test_two_workers_is_the_bundled_model():
    assert models_equal(scaled(2), get_bundled("cs-nondet").model())


def test_scaler_refuses_unexpected_text():
    with pytest.raises(ValueError):
        scaler.scale_cs_nondet(get_bundled("prodcons").model_text(), 3)


def test_tracer_sees_calls_inside_the_package_and_restores_it():
    model = scaled(2)
    config = initial_configuration(model)
    original = cli.check_progress
    tracer = Tracer()
    sites = tracer.install()
    assert "explorer.successors" in sites and "cli.check_progress" in sites
    tracer.op = 0
    try:
        explorer.explore(model, config)
    finally:
        tracer.uninstall()
    assert cli.check_progress is original
    metrics = tracer.metrics(ops=1, overhead_ratio=1.0)
    assert metrics["explorer.explore.calls"] == 1
    assert metrics["explorer.explore_space.calls"] == 1
    assert metrics["engine.successors.calls"] == scaler.expected_states(2)
    assert metrics["changeset.canonical_model.calls"] == scaler.expected_edges(2) + 1
    assert metrics["explorer.states"] == scaler.expected_states(2)
    assert metrics["explorer.edges"] == scaler.expected_edges(2)
    assert all(metrics[f"{name}.self_s"] >= 0 for name in ("explorer.explore", "engine.successors"))
    assert set(metrics) == {name for name, _ in PER_LAYER}


def test_benchmark_json_names_the_printed_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)

"""Counted work and memory of the explorer, pinned as bounds in states and
edges rather than as times.

Each count is taken on cs-nondet scaled to N workers (`perfbench/scaler.py`),
whose states and edges have closed forms.  A warm-up exploration of the same
model object first fills the caches the model keeps for every later walk
(its step core and canonical form), so the measured exploration counts only
what the space itself holds.
"""

import gc
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from phasecoord import engine
from phasecoord.bundled import get_bundled
from phasecoord.dsl import parse_model
from phasecoord.explorer import explore_space
from phasecoord.model import Configuration, SlotLayout, initial_configuration

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import scaler  # noqa: E402  (perfbench/scaler.py: cs-nondet scaled to N workers)

SIZES = (6, 7, 8, 9)
# The space keeps per edge three list entries (source, label, destination:
# ints and a label its model built once) and per state one int parent link,
# so about no collector-tracked object per edge (1.19-1.27 when each edge
# and parent link was a tuple).
MAX_TRACKED_PER_EDGE = 0.05
# Bytes the space keeps per state at N=9 (about 500; 796 with tuples).
MAX_BYTES_PER_STATE = 600


def _warm_model(n):
    """The scaled model and its start, after one exploration of them."""
    result = parse_model(scaler.scale_cs_nondet(get_bundled("cs-nondet").model_text(), n))
    assert result.ok, result.diagnostics
    model = result.model
    start = initial_configuration(model)
    explore_space(model, start)
    return model, start


@pytest.mark.parametrize("n", SIZES)
def test_the_space_keeps_about_no_tracked_object_per_edge(n):
    model, start = _warm_model(n)
    gc.collect()
    before = len(gc.get_objects())
    space = explore_space(model, start)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    assert (space.state_count(), len(space.edges)) == (scaler.expected_states(n),
                                                       scaler.expected_edges(n))
    assert tracked / len(space.edges) < MAX_TRACKED_PER_EDGE


def test_the_space_keeps_few_bytes_per_state():
    n = SIZES[-1]
    model, start = _warm_model(n)
    gc.collect()
    tracemalloc.start()
    try:
        space = explore_space(model, start)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert space.state_count() == scaler.expected_states(n)
    assert kept / space.state_count() < MAX_BYTES_PER_STATE


def test_rule_firings_and_expanded_states_are_built_inline(monkeypatch):
    # cs-nondet's rules carry no changeset: each firing writes the working
    # slot list in `engine.successors`, as a free step does, and each
    # expanded state's configuration is built inline in `explore_space`
    n = 6
    model, start = _warm_model(n)
    calls = {"from_slots": 0, "apply": 0}
    from_slots, apply = Configuration.from_slots.__func__, engine._Guard.apply

    def counted_from_slots(cls, layout, slots):
        calls["from_slots"] += 1
        return from_slots(cls, layout, slots)

    def counted_apply(guard, slots):
        calls["apply"] += 1
        return apply(guard, slots)

    monkeypatch.setattr(Configuration, "from_slots", classmethod(counted_from_slots))
    monkeypatch.setattr(engine._Guard, "apply", counted_apply)
    space = explore_space(model, start)
    assert (space.state_count(), len(space.edges)) == (scaler.expected_states(n),
                                                       scaler.expected_edges(n))
    assert calls == {"from_slots": 0, "apply": 0}


def _count_label_compares(monkeypatch):
    """The list that collects, per call of `DetailedStep.__eq__` or
    `RuleStep.__eq__`, the name of the label's class."""
    calls = []
    for cls in (engine.DetailedStep, engine.RuleStep):
        def counted(label, other, eq=cls.__eq__, name=cls.__name__):
            calls.append(name)
            return eq(label, other)

        monkeypatch.setattr(cls, "__eq__", counted)
    return calls


def test_an_export_and_a_replay_compare_no_labels(monkeypatch, load_shop):
    # a recorded label is found among its state's steps by its key, a plain
    # tuple, and so is its JSON text while a trace is written
    model, config = load_shop()
    trace = engine.run(model, config, engine.RandomPolicy(5), 300)
    assert len(trace) == 300 and trace.final_model_version > model.version
    calls = _count_label_compares(monkeypatch)
    text = engine.export_trace_jsonl(model, trace)
    assert calls == []
    # the parsed script on the same model objects, whose tables hold every
    # state, and on new ones, whose tables it fills
    steps = engine.parse_trace(text)[1]
    for model, config in ((model, config), load_shop()):
        assert engine.replay(model, config, [label for label, _ in steps]).steps == tuple(steps)
        lines = []
        engine.write_trace_jsonl(model, config, steps, lines.append)
        assert "".join(lines) == text
        assert calls == []


def test_a_replay_of_many_steps_per_state_compares_no_labels(monkeypatch):
    # cs-nondet with 30 workers: up to 30 steps at a state (about 8 along
    # this walk), so a lookup that compared labels would compare several
    # per step
    text = scaler.scale_cs_nondet(get_bundled("cs-nondet").model_text(), 30)
    model = parse_model(text).model
    start = initial_configuration(model)
    trace = engine.run(model, start, engine.RandomPolicy(1), 300)
    script = engine.export_trace_jsonl(model, trace)
    model = parse_model(text).model  # new model objects, whose tables are empty
    calls = _count_label_compares(monkeypatch)
    steps = engine.parse_trace(script)[1]
    assert engine.replay(model, start, [label for label, _ in steps]).steps == tuple(steps)
    lines = []
    engine.write_trace_jsonl(model, start, steps, lines.append)
    assert "".join(lines) == script and calls == []
    entries = engine._core(model).table.values()
    assert max(len(labels) for labels, *_ in entries) == 30


def test_a_written_trace_decodes_each_distinct_part_once(count_calls, load_shop):
    # a line in the form the writer writes is read at its fixed keys: the
    # decoder takes each distinct object and label text of the trace once,
    # and never a whole line, and no label is keyed by its `marshal` bytes
    model, config = load_shop()
    trace = engine.run(model, config, engine.RandomPolicy(5), 300)
    text = engine.export_trace_jsonl(model, trace)
    decodes, marshalled = count_calls(engine, "_decode"), count_calls(engine, "dumps")
    assert engine.parse_trace(text)[1] == list(trace.steps)
    decoded = [text for text, *_ in decodes]
    lines = text.splitlines()
    records = [json.loads(line) for line in lines]
    parts = {json.dumps(record[key], sort_keys=True)
             for record in records for key in ("componentStates", "label", "rolePhases")
             if record[key] is not None}
    assert set(decoded) <= parts and len(decoded) == len(set(decoded))
    assert not set(decoded) & set(lines) and marshalled == []
    assert len(parts) < len(lines)


def test_a_state_record_is_joined_once_per_layout(monkeypatch, load_shop):
    # a state's record text around its digest, index and label is kept in
    # its layout's table: an export joins each (layout, slots) of the trace
    # once, though the walk meets most of them again, and a report joins
    # each state's once
    joined = []
    record_entries = SlotLayout.record_entries

    def counted(layout, slots):
        joined.append((id(layout), slots))
        return record_entries(layout, slots)

    monkeypatch.setattr(SlotLayout, "record_entries", counted)
    model, config = load_shop()
    taken = list(engine.drive(model, config, engine.RandomPolicy(3), 300))
    trace = engine.run(model, config, engine.RandomPolicy(3), 300)
    text = engine.export_trace_jsonl(model, trace)
    assert text == (ROOT / "tests/golden/trace-shop-migration-loaded.jsonl").read_text("utf-8")
    states = [(id(model.layout), config.slots_in(model.layout))]
    states += [(id(m.layout), c.slots_in(m.layout)) for _, m, c in taken]
    assert len(joined) == len(set(joined)) and set(joined) <= set(states)
    assert len(set(states)) < len(states) == 301
    model, config = load_shop()  # new model objects, whose tables are empty
    space = explore_space(model, config)
    del joined[:]
    for state in range(space.state_count()):
        space.trace_records(state)
    assert len(joined) == len(set(joined)) == space.state_count()


def test_a_trace_round_trip_reads_each_step_and_digest_from_its_table(
        monkeypatch, count_calls, load_shop):
    # the 300-step walk of the loaded shop on new model objects, its export,
    # parse and replay: a state's steps are computed once per step core and
    # its digest once per layout, and every other step and digest is one
    # table lookup; the writer's labels and states are read by their
    # templates' patterns, with no decode
    expanded = []
    steps = engine._StepCore.steps

    def counted(core, model, slots):
        expanded.append((id(core), slots))
        return steps(core, model, slots)

    monkeypatch.setattr(engine._StepCore, "steps", counted)
    digested = count_calls(engine, "config_digest")
    decoded, read = count_calls(engine, "_decode"), count_calls(engine, "label_from_json")
    model, config = load_shop()
    trace = engine.run(model, config, engine.RandomPolicy(3), 300)
    text = engine.export_trace_jsonl(model, trace)
    assert text == (ROOT / "tests/golden/trace-shop-migration-loaded.jsonl").read_text("utf-8")
    assert engine.replay(model, config, engine.parse_trace_labels(text)) == trace
    assert len(expanded) == len(set(expanded)) < 300
    states = [(id(config._layout), config._slots) for (config,) in digested]
    assert len(states) == len(set(states)) < 300
    assert decoded == read == []

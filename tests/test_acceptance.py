"""Acceptance suite: one test per criterion, one PASS line each.

Frozen regression values (recorded from the first verified runs):
  shop-migration, fragment loaded:  116 states over versions [1, 2, 3]
  migration termination depth:      9
  minimal progress bounds:          Client1=8 Client2=13 McPal=4 Server=3
  shortest completing trajectory:   6 steps
"""

import json
import random
import time
from pathlib import Path

from phasecoord.changeset import ChangeSet, canonical_model
from phasecoord.cli import main as cli_main
from phasecoord.dsl import parse_model, serialize_model
from phasecoord.engine import RuleStep, successors
from phasecoord.explorer import (
    check_migration_termination,
    check_progress,
    explore,
    explore_space,
    minimal_progress_bound,
    reachable_projection,
)
from phasecoord.mcpal import McPalSkeleton, load_migration, weave_mcpal
from phasecoord.model import (
    initial_configuration,
    replace,
    validate_configuration,
)
from phasecoord.properties import CountInState

from tests.genmodels import random_initial, random_model
from tests.oracle import engine_successor_set, naive_entered_traps, naive_successors, walk_all_states
from tests.test_model import elementwise_accepts

SHOP_STATES = 116
SHOP_VERSIONS = [1, 2, 3]
SHOP_TERMINATION_DEPTH = 9
SHOP_MIN_PROGRESS = {"Client1": 8, "Client2": 13, "McPal": 4, "Server": 3}
GOLDEN_FLAGSHIP = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "flagship-shop.json"


def report(criterion, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_well_formedness_suite():
    # validate_model is exactly the conjunction of the element validators,
    # over 1,000 generated models, in under 5 seconds
    from phasecoord.model import validate_model

    from tests.genmodels import break_model

    start = time.time()
    rng = random.Random(99)
    broken_seen = 0
    for seed in range(1000):
        model = random_model(seed, max_components=4, max_states=6, max_phases=3)
        assert (validate_model(model) == []) == elementwise_accepts(model)
        assert validate_model(model) == []
        if seed % 3 == 0:
            mutated = break_model(rng, model)
            if mutated is not None:
                bad, _ = mutated
                assert (validate_model(bad) == []) == elementwise_accepts(bad)
                assert validate_model(bad) != []
                broken_seen += 1
    elapsed = time.time() - start
    report(1, elapsed < 5.0 and broken_seen > 150,
           f"1000 models + {broken_seen} mutants in {elapsed:.2f}s")


def test_criterion_2_semantics_invariant_suite():
    # over 1,000 random walks of up to 200 steps: every post-step
    # configuration validates, trap sets grow monotonically between
    # transfers, and no detailed step leaves a current phase; under 30 s
    from phasecoord.engine import DetailedStep

    start = time.time()
    total_steps = 0
    for seed in range(1000):
        model = random_model(seed)
        config = random_initial(model)
        rng = random.Random(seed * 7 + 3)
        tracked = [(c, p.name) for c, s in model.components.items() for p in s.partitions]
        entered = {r: naive_entered_traps(model, config, *r) for r in tracked}
        for _ in range(200):
            succ = successors(model, config)
            if not succ:
                break
            label, model2, config2 = succ[rng.randrange(len(succ))]
            assert validate_configuration(model2, config2) == []
            if isinstance(label, DetailedStep):
                std = model.components[label.component]
                for part in std.partitions:
                    phase = part.phase_named(config.phases[(label.component, part.name)])
                    assert label.transition in phase.transitions
            moved = (
                {(t.component, t.partition) for t in label.transfers}
                if isinstance(label, RuleStep)
                else set()
            )
            model, config = model2, config2
            for role in tracked:
                now = naive_entered_traps(model, config, *role)
                if role not in moved:
                    assert entered[role] <= now
                entered[role] = now
            total_steps += 1
    elapsed = time.time() - start
    report(2, elapsed < 30.0, f"1000 walks, {total_steps} steps in {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence(bundles):
    # brute-force enumerator vs engine.successors at every reachable state of
    # every bundled model with at most 3 components; zero discrepancies
    checked = 0
    for name, bundle in bundles.items():
        model = bundle.model()
        if len(model.components) > 3:
            continue
        config = initial_configuration(model)
        for m, c in walk_all_states(model, config):
            assert naive_successors(m, c) == engine_successor_set(m, c), name
            checked += 1
    assert checked > 0
    # stronger than required: the 4-component shop, through its migration
    bundle = bundles["shop-migration"]
    model = bundle.model()
    loaded, started = load_migration(model, initial_configuration(model), model.variables["ShopMigr"])
    for m, c in walk_all_states(loaded, started):
        assert naive_successors(m, c) == engine_successor_set(m, c)
        checked += 1
    report(3, True, f"{checked} states, zero discrepancies")


def test_criterion_4_consistency_through_migration(shop_loaded, bundles):
    # exhaustive exploration of the loaded shop: no configuration ever fails
    # validation and mutual exclusion holds across all model versions
    start = time.time()
    model, config = shop_loaded
    props = bundles["shop-migration"].properties()
    result = explore(model, config, props)
    elapsed = time.time() - start
    mutex = CountInState((("Client1", "UnderService"), ("Client2", "UnderService")), "<=", 1)
    ok = (
        result.violations == []
        and not result.space.truncated
        and result.states_visited == SHOP_STATES
        and 100 <= result.states_visited <= 10_000
        and result.space.versions_seen() == SHOP_VERSIONS
        and dict(result.verdicts)[f"invariant {mutex.text()}"] == "holds"
        and elapsed < 10.0
    )
    report(4, ok, f"{result.states_visited} states, versions {result.space.versions_seen()}, "
                  f"{elapsed:.2f}s")


def test_criterion_5_migration_termination(shop_loaded, bundles):
    model, config = shop_loaded
    shop = check_migration_termination(explore_space(model, config), target_version=3)
    base = bundles["shop-migration"].model()
    ident_model, ident_config = load_migration(
        base, initial_configuration(base), ChangeSet()
    )
    identity = check_migration_termination(explore_space(ident_model, ident_config),
                                           target_version=2)
    ok = (
        shop.verdict == "terminates"
        and shop.max_depth == SHOP_TERMINATION_DEPTH
        and identity.verdict == "terminates"
        and identity.max_depth <= 5
    )
    report(5, ok, f"shop maxDepth {shop.max_depth}, identity maxDepth {identity.max_depth}")


def test_criterion_6_quiescence_freedom(shop_loaded, bundles):
    # bounded non-starvation for every component with k <= 32, and the
    # broken fragment (never-entered trap) starves the server
    model, config = shop_loaded
    space = explore_space(model, config)
    ks = {}
    for comp in sorted(model.components):
        k = minimal_progress_bound(space, comp)
        assert k is not None and k <= 32, comp
        assert check_progress(space, comp, k).verdict == "satisfied"
        ks[comp] = k
    assert ks == SHOP_MIN_PROGRESS

    bundle = bundles["shop-migration"]
    base = bundle.model()
    fragment = base.variables["ShopMigr"]
    from phasecoord.model import Phase, Std, Transition, Trap

    dead_bridge = Phase("Bridge", frozenset({"Idle", "At1"}), frozenset(),
                        (Trap("oriented", frozenset({"At1"})),))
    tick = Transition("s", "tick", "s")
    spinner = Std("Spinner", frozenset({"s"}), frozenset({"tick"}), frozenset({tick}), "s")
    broken = replace(
        fragment,
        add_phases=tuple(
            ("Server", "Evol", dead_bridge) if ph.name == "Bridge" else (c, p, ph)
            for c, p, ph in fragment.add_phases
        ),
        add_components=fragment.add_components + (spinner,),
    )
    b_model, b_config = load_migration(base, initial_configuration(base), broken)
    b_space = explore_space(b_model, b_config)
    starved = check_progress(b_space, "Server", 32)
    ok = starved.verdict == "starved" and starved.state is not None
    report(6, ok, f"minimal k {ks}; broken variant starves Server at "
                  f"{dict(b_space.state(starved.state).detailed) if ok else None}")


def test_criterion_7_weave_neutrality(bundles):
    # host-projection of the reachable set is identical with and without a
    # woven coordinator, on all bundled models: the empty kick-off fires too
    for name, bundle in bundles.items():
        host = bundle.model()
        sk = McPalSkeleton()
        if sk.component in host.components:
            sk = McPalSkeleton(component="Watcher", crs_variable="WatcherCrs")
        woven = weave_mcpal(host, sk)
        hosts = sorted(host.components)
        plain = reachable_projection(explore_space(host, initial_configuration(host)), hosts)
        assert plain == reachable_projection(
            explore_space(woven, initial_configuration(woven)), hosts), name
    report(7, True, "all bundled models")


def test_criterion_8_determinism(tmp_path, capsys):
    # the flagship report is byte-identical to the committed golden file,
    # and scripted replay reproduces every digest of an exported trace
    report_file = tmp_path / "report.json"
    assert cli_main(["explore", "shop-migration", "--load-migration", "ShopMigr",
                     "--check-termination", "3", "--check-progress", "16",
                     "--report-out", str(report_file)]) == 0
    capsys.readouterr()
    identical = report_file.read_bytes() == GOLDEN_FLAGSHIP.read_bytes()

    trace_file = tmp_path / "t.jsonl"
    assert cli_main(["simulate", "shop-migration", "--seed", "11", "--steps", "120",
                     "--trace-out", str(trace_file)]) == 0
    capsys.readouterr()
    assert cli_main(["simulate", "shop-migration", "--script", str(trace_file)]) == 0
    replay_out = capsys.readouterr().out
    original = [json.loads(l)["digest"] for l in trace_file.read_text().splitlines()]
    replayed = [json.loads(l)["digest"] for l in replay_out.strip().splitlines()]
    ok = identical and replayed == original
    report(8, ok, f"report equals the golden file: {identical}; {len(original)} digests reproduced")


def test_criterion_9_dsl_round_trip(bundles):
    # parse . serialize is the structural identity on all bundled models and
    # 500 generated models
    for name, bundle in bundles.items():
        model = bundle.model()
        again = parse_model(serialize_model(model))
        assert again.ok and canonical_model(again.model) == canonical_model(model), name
    for seed in range(500):
        model = random_model(seed)
        again = parse_model(serialize_model(model))
        assert again.ok, f"seed {seed}"
        assert canonical_model(again.model) == canonical_model(model), f"seed {seed}"
    report(9, True, "4 bundled + 500 generated models")

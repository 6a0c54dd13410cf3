"""The record contract: every `model.Record` class of the package builds,
compares, hashes, prints, copies and pickles as the dataclass it replaced
did, and importing the command line loads neither `dataclasses` nor
`inspect`."""

import copy
import importlib
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import phasecoord
from phasecoord import bundled, changeset, dsl, engine, explorer, mcpal, model, properties
from phasecoord.model import Configuration, Record, Transition, replace

T = Transition("a", "go", "b")
TRAP = model.Trap("t", frozenset({"b"}))
TRANSFER = model.RoleTransfer("X", "R", "P", "triv", "Q")
CONFIG = Configuration({"X": "a"}, {}, 2)
DSTEP = engine.DetailedStep("X", T)
TRACE = engine.Trace(CONFIG, ((DSTEP, 7),), 2)
IN_STATE = properties.InState("X", "a")
IN_PHASE = properties.InPhase("X", "R", "P")
BOUNDS = explorer.Bounds(10, 5)
DIAGNOSTIC = model.Diagnostic("unknown-state", "X", "z", "why", 3, 4)
# the hidden fields hold something, so that `repr` and `==` are seen to skip it
SPACE = explorer.Space([], [(0, (2, 0))], [None], [0], [DSTEP], [0], [0], True, False,
                       {0: {}}, {"k": "v"})

# One record of every class, with the `repr` its dataclass gave.
SAMPLES = {
    "Trap": (TRAP, "Trap(name='t', states=frozenset({'b'}))"),
    "Phase": (model.Phase("P", frozenset({"a"}), frozenset({T}), (TRAP,)),
              "Phase(name='P', states=frozenset({'a'}), transitions=frozenset("
              "{Transition(source='a', action='go', target='b')}), "
              "traps=(Trap(name='t', states=frozenset({'b'})),))"),
    "Partition": (model.Partition("R", (), "P"), "Partition(name='R', phases=(), initial='P')"),
    "Std": (model.Std("X", frozenset({"a"}), frozenset({"go"}), frozenset(), "a"),
            "Std(name='X', states=frozenset({'a'}), actions=frozenset({'go'}), "
            "transitions=frozenset(), initial='a', partitions=())"),
    "RoleTransfer": (TRANSFER, "RoleTransfer(component='X', partition='R', source='P', "
                               "trap='triv', target='Q')"),
    "ConsistencyRule": (model.ConsistencyRule("r", "X", T),
                        "ConsistencyRule(name='r', manager='X', manager_step=Transition("
                        "source='a', action='go', target='b'), transfers=(), change=None)"),
    "StdModel": (model.StdModel({}, {}, {"n": 1}, 2),
                 "StdModel(components={}, rules={}, variables={'n': 1}, version=2)"),
    "Diagnostic": (DIAGNOSTIC, "Diagnostic(code='unknown-state', owner='X', element='z', "
                               "detail='why', line=3, column=4)"),
    "DetailedStep": (DSTEP, "DetailedStep(component='X', transition=Transition("
                            "source='a', action='go', target='b'))"),
    "RuleStep": (engine.RuleStep("r", "X", T, (TRANSFER,), True),
                 "RuleStep(rule='r', manager='X', manager_step=Transition(source='a', "
                 "action='go', target='b'), transfers=(RoleTransfer(component='X', "
                 "partition='R', source='P', trap='triv', target='Q'),), changed=True)"),
    "Trace": (TRACE, "Trace(initial=Configuration(detailed={'X': 'a'}, phases={}, "
                     "model_version=2), steps=((DetailedStep(component='X', transition="
                     "Transition(source='a', action='go', target='b')), 7),), "
                     "final_model_version=2)"),
    "InState": (IN_STATE, "InState(component='X', state='a')"),
    "InPhase": (IN_PHASE, "InPhase(component='X', partition='R', phase='P')"),
    "CountInState": (properties.CountInState((("X", "a"),), "<=", 1),
                     "CountInState(pairs=(('X', 'a'),), op='<=', bound=1)"),
    "ModelVersionIs": (properties.ModelVersionIs(2), "ModelVersionIs(version=2)"),
    "Not": (properties.Not(IN_STATE), "Not(operand=InState(component='X', state='a'))"),
    "And": (properties.And(IN_STATE, IN_PHASE),
            "And(left=InState(component='X', state='a'), "
            "right=InPhase(component='X', partition='R', phase='P'))"),
    "Or": (properties.Or(IN_STATE, IN_PHASE),
           "Or(left=InState(component='X', state='a'), "
           "right=InPhase(component='X', partition='R', phase='P'))"),
    "Invariant": (properties.Invariant(IN_STATE),
                  "Invariant(predicate=InState(component='X', state='a'))"),
    "Reachable": (properties.Reachable(IN_PHASE),
                  "Reachable(predicate=InPhase(component='X', partition='R', phase='P'))"),
    "EventuallyAll": (properties.EventuallyAll(IN_STATE, 4),
                      "EventuallyAll(predicate=InState(component='X', state='a'), bound=4)"),
    "ChangeSet": (changeset.ChangeSet(remove_rules=("r",)),
                  "ChangeSet(add_components=(), add_partitions=(), add_phases=(), "
                  "add_traps=(), add_rules=(), remove_rules=('r',), set_variables=(), "
                  "remove_phases=(), remove_partitions=())"),
    "McPalSkeleton": (mcpal.McPalSkeleton(),
                      "McPalSkeleton(component='McPal', hibernation_state='Observing', "
                      "working_state='Started', resting_state='Done', evolution_role='Evol', "
                      "hibernating_phase='Hibernating', start_phase='StartMigr', "
                      "migr_phase='MigrPhase', content_phase='Content', crs_variable='Crs', "
                      "kick_action='wantChange', work_action='contMigr', "
                      "done_action='migrDone', sleep_action='hibernate')"),
    "BundledModel": (bundled.get_bundled("shop-migration"),
                     "BundledModel(name='shop-migration', model_file='shop_migration.pdm', "
                     "props_file='shop_migration.pprop', fragment_var='ShopMigr')"),
    "Bounds": (BOUNDS, "Bounds(max_states=10, max_depth=5)"),
    "Space": (SPACE, "Space(models=[], states=[(0, (2, 0))], parent=[None], edge_src=[0], "
                     "edge_label=[DetailedStep(component='X', transition=Transition("
                     "source='a', action='go', target='b'))], edge_dst=[0], deadlocks=[0], "
                     "max_states_hit=True, max_depth_hit=False)"),
    "ExplorationReport": (explorer.ExplorationReport(SPACE, BOUNDS, [("p", "holds")], [("q", 0)]),
                          "ExplorationReport(bounds=Bounds(max_states=10, max_depth=5), "
                          "verdicts=[('p', 'holds')], violations=[('q', 0)], "
                          "termination=None, progress=None)"),
    "TerminationResult": (explorer.TerminationResult("cycle", 2, state=3),
                          "TerminationResult(verdict='cycle', target_version=2, max_depth=None, "
                          "state=3)"),
    "ProgressResult": (explorer.ProgressResult("starved", "X", 4, 0),
                       "ProgressResult(verdict='starved', component='X', k=4, state=0)"),
    "PRule": (dsl.PRule(("r", None), ("X", None), T, [], None, None),
              "PRule(name=('r', None), manager=('X', None), step=Transition(source='a', "
              "action='go', target='b'), transfers=[], change=None, token=None)"),
    "PChangeSet": (dsl.PChangeSet(),
                   "PChangeSet(add_components=[], add_partitions=[], add_phases=[], "
                   "add_traps=[], add_rules=[], remove_rules=[], set_variables=[], "
                   "remove_phases=[], remove_partitions=[])"),
    "ParseResult": (dsl.ParseResult(None, [DIAGNOSTIC]),
                    "ParseResult(model=None, diagnostics=[Diagnostic(code='unknown-state', "
                    "owner='X', element='z', detail='why', line=3, column=4)], spans={})"),
}
MUTABLE = {"Space", "ExplorationReport", "TerminationResult", "ProgressResult", "ParseResult",
           "PRule", "PChangeSet"}
NAMES = sorted(SAMPLES)


def record_classes() -> dict:
    """Every `Record` subclass defined in a module of the package, by name."""
    for info in pkgutil.iter_modules(phasecoord.__path__):
        importlib.import_module(f"phasecoord.{info.name}")
    found, todo = {}, [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.split(".")[0] == "phasecoord":
                found[cls.__name__] = cls
                todo.append(cls)
    return found


def values(record) -> list:
    return [getattr(record, name) for name in record._fields]


def test_every_record_class_has_a_sample():
    classes = record_classes()
    assert sorted(classes) == NAMES
    for name, cls in classes.items():
        assert type(SAMPLES[name][0]) is cls


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_repr(name):
    record, text = SAMPLES[name]
    assert repr(record) == text


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_make_equal_records_with_equal_hashes(name):
    record = SAMPLES[name][0]
    for again in (type(record)(*values(record)), replace(record)):
        assert again is not record
        assert again == record and not again != record
        if name in MUTABLE:
            continue
        try:
            expected = hash(tuple(values(record)))  # the dataclass hash
        except TypeError:  # a field is unhashable, as a model's mappings are
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(again) == hash(record) == expected


@pytest.mark.parametrize("name", NAMES)
def test_each_field_but_a_hidden_one_takes_part_in_equality(name):
    record = SAMPLES[name][0]
    for field in record._fields:
        other = replace(record, **{field: object()})
        assert (other == record) == (field in record._hidden), field


@pytest.mark.parametrize("name", NAMES)
def test_a_record_never_equals_one_of_another_class(name):
    record = SAMPLES[name][0]
    for other_name, (other, _) in SAMPLES.items():
        if other_name != name and len(other._fields) == len(record._fields):
            twin = type(other)(*values(record))
            assert twin != record and not twin == record, other_name


def test_records_of_different_classes_with_equal_fields_differ():
    a, b = IN_STATE, IN_PHASE
    assert properties.And(a, b) != properties.Or(a, b)
    assert properties.Invariant(a) != properties.Reachable(a)
    assert engine.DetailedStep("X", T) != ("X", T)


@pytest.mark.parametrize("name", NAMES)
def test_frozen_records_refuse_assignment_and_mutable_ones_are_unhashable(name):
    record = replace(SAMPLES[name][0])
    field = record._fields[0]
    if name in MUTABLE:
        setattr(record, field, None)
        assert getattr(record, field) is None
        with pytest.raises(TypeError):
            hash(record)
        return
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == getattr(SAMPLES[name][0], field)


@pytest.mark.parametrize("name", NAMES)
def test_annotations_name_the_fields_in_order(name):
    annotations = vars(type(SAMPLES[name][0])).get("__annotations__")
    if annotations:
        assert tuple(annotations) == SAMPLES[name][0]._fields


def test_replace_changes_one_field_and_refuses_an_unknown_one():
    changed = replace(TRANSFER, trap="t")
    assert changed == model.RoleTransfer("X", "R", "P", "t", "Q")
    assert TRANSFER.trap == "triv"
    with pytest.raises(TypeError):
        replace(TRANSFER, nope=1)


def test_constructor_takes_fields_by_position_or_name_with_fresh_mutable_defaults():
    assert model.Diagnostic("c", "o", detail="d") == model.Diagnostic("c", "o", "", "d", 0, 0)
    assert model.Phase(name="P", states=frozenset(), transitions=frozenset()).traps == ()
    first, second = explorer.Space(), explorer.Space()
    assert first.models == [] and first.models is not second.models
    assert first.records is not second.records
    assert model.StdModel({}, {}).variables is not model.StdModel({}, {}).variables
    assert dsl.PChangeSet().add_rules is not dsl.PChangeSet().add_rules
    for args, kwargs in (((), {}), (("c",), {}), (("c", "o"), {"code": "c"}),
                         (("c", "o"), {"nope": 1}), (("c",) * 7, {})):
        with pytest.raises(TypeError):
            model.Diagnostic(*args, **kwargs)


@pytest.fixture(scope="module")
def shop_objects(shop_loaded):
    """The records the CLI and library hand out for the flagship model."""
    bundle = bundled.get_bundled("shop-migration")
    parsed = bundle.parse()
    loaded, start = shop_loaded
    props = bundle.properties()
    report = explorer.explore(loaded, start, props)
    space = report.space
    trace = engine.run(loaded, start, engine.RandomPolicy(1), 30)
    return {
        "parsed model": parsed.model,
        "loaded model": loaded,
        "step labels": sorted({label for _, label, _ in space.edges}, key=repr),
        "properties": props,
        "trace": trace,
        "diagnostic": DIAGNOSTIC,
        "bounds": explorer.Bounds(),
        "report": report,
        "termination": explorer.check_migration_termination(space, loaded.version + 1),
        "progress": explorer.check_progress(space, "Client1", 3),
        "parse result": parsed,
        "bundled model": bundle,
    }


def test_records_pickle_and_deepcopy_to_equal_ones(shop_objects):
    for name, value in [*shop_objects.items(), *((n, s) for n, (s, _) in SAMPLES.items())]:
        assert pickle.loads(pickle.dumps(value)) == value, name
        assert copy.deepcopy(value) == value, name


def test_importing_the_command_line_loads_neither_dataclasses_nor_inspect():
    """Without `site`, which may import either, and without writing bytecode."""
    src = Path(phasecoord.__file__).resolve().parent.parent
    script = (f"import sys; sys.path.insert(0, {str(src)!r}); import phasecoord.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-B", "-c", script],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"

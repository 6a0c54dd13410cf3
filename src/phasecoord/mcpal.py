"""The evolution coordinator pattern.

`weave_mcpal` drops a hibernating coordinator component into any model.  It
owns a single self-managed role that cycles Hibernating -> StartMigr ->
(MigrPhase) -> Content -> Hibernating, and a kick-off rule whose changeset
slot starts empty.  Until that slot is loaded and fired, no host transition
is claimed and host behavior is untouched.

`load_migration` binds a migration fragment into the kick-off slot.  The
bound clause is wrapped so that firing the kick-off also restores the
pristine (slot-empty) kick-off rule: the trigger consumes its own fragment,
which keeps the version space finite once a migration has run.  During the
migration the fragment value is also held in the coordinator's rule-set
variable; a well-formed fragment's final shrink resets that variable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .changeset import ChangeSet, RejectedChange, apply_changeset, validate_changeset
from .engine import _fire, _transfer
from .model import (
    TRIV,
    Configuration,
    ConsistencyRule,
    Partition,
    Phase,
    RoleTransfer,
    Std,
    StdModel,
    Transition,
)
from .properties import (
    And,
    InPhase,
    InState,
    ModelVersionIs,
    Predicate,
    SlotTest,
    compile_predicate,
    eval_predicate,
    never,
)


class NameCollision(Exception):
    pass


class McPalNotHibernating(Exception):
    pass


class FragmentInvalid(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


@dataclass(frozen=True)
class McPalSkeleton:
    """Names used when weaving the coordinator; all fresh w.r.t. the host."""

    component: str = "McPal"
    hibernation_state: str = "Observing"
    working_state: str = "Started"
    resting_state: str = "Done"
    evolution_role: str = "Evol"
    hibernating_phase: str = "Hibernating"
    start_phase: str = "StartMigr"
    migr_phase: str = "MigrPhase"
    content_phase: str = "Content"
    crs_variable: str = "Crs"
    kick_action: str = "wantChange"
    work_action: str = "contMigr"
    done_action: str = "migrDone"
    sleep_action: str = "hibernate"

    def kickoff_rule_name(self) -> str:
        return f"{self.component}_kickoff"

    def done_rule_name(self) -> str:
        return f"{self.component}_done"

    def hibernate_rule_name(self) -> str:
        return f"{self.component}_hibernate"


def build_mcpal_std(sk: McPalSkeleton) -> Std:
    """The coordinator component itself.

    The working-state self-loop exists so that just-in-time migration rules
    have a manager step to ride on, however many coordination stages the
    loaded fragment needs.
    """
    states = frozenset({sk.hibernation_state, sk.working_state, sk.resting_state})
    kick = Transition(sk.hibernation_state, sk.kick_action, sk.working_state)
    work = Transition(sk.working_state, sk.work_action, sk.working_state)
    done = Transition(sk.working_state, sk.done_action, sk.resting_state)
    sleep = Transition(sk.resting_state, sk.sleep_action, sk.hibernation_state)
    working_trans = frozenset({work, done})
    partition = Partition(
        name=sk.evolution_role,
        initial=sk.hibernating_phase,
        phases=(
            Phase(sk.hibernating_phase, states, frozenset({kick})),
            Phase(sk.start_phase, states, working_trans),
            Phase(sk.migr_phase, states, working_trans),
            Phase(sk.content_phase, states, frozenset({sleep})),
        ),
    )
    return Std(
        name=sk.component,
        states=states,
        actions=frozenset({sk.kick_action, sk.work_action, sk.done_action, sk.sleep_action}),
        transitions=frozenset({kick, work, done, sleep}),
        initial=sk.hibernation_state,
        partitions=(partition,),
    )


def pristine_kickoff_rule(sk: McPalSkeleton) -> ConsistencyRule:
    return ConsistencyRule(
        name=sk.kickoff_rule_name(),
        manager=sk.component,
        manager_step=Transition(sk.hibernation_state, sk.kick_action, sk.working_state),
        transfers=(
            RoleTransfer(sk.component, sk.evolution_role, sk.hibernating_phase, TRIV, sk.start_phase),
        ),
        change=None,
    )


def skeleton_rules(sk: McPalSkeleton) -> tuple[ConsistencyRule, ...]:
    return (
        pristine_kickoff_rule(sk),
        ConsistencyRule(
            name=sk.done_rule_name(),
            manager=sk.component,
            manager_step=Transition(sk.working_state, sk.done_action, sk.resting_state),
            transfers=(
                RoleTransfer(sk.component, sk.evolution_role, sk.start_phase, TRIV, sk.content_phase),
            ),
        ),
        ConsistencyRule(
            name=sk.hibernate_rule_name(),
            manager=sk.component,
            manager_step=Transition(sk.resting_state, sk.sleep_action, sk.hibernation_state),
            transfers=(
                RoleTransfer(sk.component, sk.evolution_role, sk.content_phase, TRIV, sk.hibernating_phase),
            ),
        ),
    )


def weave_mcpal(model: StdModel, sk: McPalSkeleton = McPalSkeleton()) -> StdModel:
    """Add a hibernating coordinator to a model; the host is otherwise untouched."""
    if sk.component in model.components:
        raise NameCollision(f"component {sk.component}")
    if sk.crs_variable in model.variables:
        raise NameCollision(f"variable {sk.crs_variable}")
    collisions = {r.name for r in skeleton_rules(sk)} & set(model.rules)
    if collisions:
        raise NameCollision(f"rules {sorted(collisions)}")
    components = dict(model.components)
    components[sk.component] = build_mcpal_std(sk)
    rules = dict(model.rules)
    for rule in skeleton_rules(sk):
        rules[rule.name] = rule
    variables = dict(model.variables)
    variables[sk.crs_variable] = ChangeSet()
    return StdModel(
        components=components, rules=rules, variables=variables, version=model.version
    )


def is_hibernating(model: StdModel, config: Configuration, sk: McPalSkeleton = McPalSkeleton()) -> bool:
    return (
        sk.component in model.components
        and config.detailed.get(sk.component) == sk.hibernation_state
        and config.phases.get((sk.component, sk.evolution_role)) == sk.hibernating_phase
    )


def completion_predicate(target_version: int, sk: McPalSkeleton = McPalSkeleton()) -> Predicate:
    """The migration to `target_version` is over: the model has that version
    and the coordinator is back in hibernation.  `migration_complete` and
    `completion_test` read it as false in a model that lacks the
    coordinator, where its atoms would raise."""
    return And(
        And(ModelVersionIs(target_version), InState(sk.component, sk.hibernation_state)),
        InPhase(sk.component, sk.evolution_role, sk.hibernating_phase),
    )


def migration_complete(model: StdModel, config: Configuration, target_version: int,
                       sk: McPalSkeleton = McPalSkeleton()) -> bool:
    """`completion_predicate` at one configuration."""
    return sk.component in model.components and eval_predicate(
        completion_predicate(target_version, sk), model, config)


def completion_test(model: StdModel, target_version: int,
                    sk: McPalSkeleton = McPalSkeleton()) -> SlotTest:
    """`migration_complete` as a test over the slots of `model.layout`."""
    if sk.component not in model.components:
        return never
    return compile_predicate(completion_predicate(target_version, sk), model)


def load_migration(
    model: StdModel,
    config: Configuration,
    fragment: ChangeSet,
    sk: McPalSkeleton = McPalSkeleton(),
) -> tuple[StdModel, Configuration]:
    """Bind `fragment` into the kick-off slot and the rule-set variable.

    After loading, firing the kick-off applies the fragment and restores the
    pristine slot-empty kick-off in the same atomic step.
    """
    if sk.component not in model.components:
        raise McPalNotHibernating(f"{sk.component} not woven")
    if not is_hibernating(model, config, sk):
        raise McPalNotHibernating(
            f"{sk.component} at {config.detailed.get(sk.component)} in "
            f"{config.phases.get((sk.component, sk.evolution_role))}"
        )
    pristine = pristine_kickoff_rule(sk)
    wrapped = replace(fragment, add_rules=fragment.add_rules + (pristine,))
    loaded = replace(pristine, change=wrapped)
    load_cs = ChangeSet(add_rules=(loaded,), set_variables=((sk.crs_variable, fragment),))
    try:
        new_model, new_config = apply_changeset(model, config, load_cs)
    except RejectedChange as exc:
        raise FragmentInvalid(exc.diagnostics) from exc
    if _fire(new_model, new_config, loaded)[0] is not None:
        _, moved = _transfer(new_model, new_config, loaded)
        raise FragmentInvalid(validate_changeset(new_model, moved, wrapped) if moved is not None else [])
    return new_model, new_config

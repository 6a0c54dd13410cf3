"""Executable kernel for phase-constrained coordination models: components as
state-transition diagrams, roles as partitions into phases with traps,
consistency rules for coordination, just-in-time model evolution driven by a
woven coordinator, and an explicit-state verifier."""

from .changeset import (
    ChangeSet,
    RejectedChange,
    apply_changeset,
    canonical_model,
    models_equal,
    validate_changeset,
)
from .engine import (
    DetailedStep,
    InteractivePolicy,
    ModelRejected,
    NotEnabled,
    RandomPolicy,
    ReplayDivergence,
    RuleStep,
    Trace,
    UnknownElement,
    config_digest,
    enabled_detailed,
    enabled_rules,
    export_trace_jsonl,
    fire_rule,
    parse_trace_labels,
    replay,
    rule_blocker,
    run,
    successors,
)
from .explorer import (
    Bounds,
    ExplorationReport,
    check_migration_termination,
    check_progress,
    explore,
    explore_space,
    minimal_progress_bound,
    reachable_projection,
)
from .dsl import ParseResult, parse_model, serialize_model
from .mcpal import (
    FragmentInvalid,
    McPalNotHibernating,
    McPalSkeleton,
    NameCollision,
    is_hibernating,
    load_migration,
    weave_mcpal,
)
from .model import (
    TRIV,
    Configuration,
    ConsistencyRule,
    Diagnostic,
    Partition,
    Phase,
    RoleTransfer,
    Std,
    StdModel,
    Transition,
    Trap,
    initial_configuration,
    is_connecting,
    validate_configuration,
    validate_model,
    validate_std,
    validate_trap,
)
from .properties import (
    EventuallyAll,
    Invariant,
    PropertyExpr,
    Reachable,
    eval_predicate,
    parse_properties,
)

__version__ = "0.1.0"

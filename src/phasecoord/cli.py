"""Command-line front door.

Exit codes are a stable contract: 0 success, 1 parse or I/O error,
2 validation error, 3 replay divergence, 4 property violation,
5 verdict unknown because a bound was hit, 6 DOT node threshold exceeded.
Standard output carries data; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Optional

from .bundled import BUNDLED, bundled_names, get_bundled
from .changeset import ChangeSet
from .dot import TooManyNodes, phases_dot, statespace_dot, std_dot
from .dsl import parse_model, serialize_model
from .engine import (
    InteractivePolicy,
    RandomPolicy,
    ReplayDivergence,
    UnknownElement,
    config_digest,
    drive,
    label_text,
    parse_trace_steps,
    run,
    walk_trace,
    write_trace_jsonl,
)
from .explorer import Bounds, check_migration_termination, check_progress, explore, explore_space
from .mcpal import (
    FragmentInvalid,
    McPalNotHibernating,
    McPalSkeleton,
    completion_test,
    load_migration,
)
from .model import initial_configuration, validate_configuration
from .properties import PropertyError, parse_properties

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_REPLAY = 3
EXIT_VIOLATION = 4
EXIT_UNKNOWN = 5
EXIT_DOT_THRESHOLD = 6


def _read(path: str) -> Optional[str]:
    """The text of the UTF-8 file at `path`; None once why not is reported."""
    try:
        return Path(path).read_bytes().decode("utf-8")  # a line ends at "\n" only
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
    return None


def _write(path: str, text: str) -> bool:
    """Write `text` to `path` as UTF-8; False once why not is reported."""
    try:
        Path(path).write_text(text, "utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _below_least(checks) -> bool:
    """Report the first (flag, value, least) with a value below least, if any."""
    for flag, value, least in checks:
        if value is not None and value < least:
            print(f"error: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return True
    return False


def _load_model(args):
    """The model at `args.path`, a file or a bundled name, with EXIT_OK; or
    None with the exit code once the reason is reported."""
    text = get_bundled(args.path).model_text() if args.path in BUNDLED else _read(args.path)
    if text is None:
        return None, EXIT_PARSE
    result = parse_model(text)
    if result.model is None:
        _emit_diags(result.diagnostics, args.format)
        return None, EXIT_PARSE
    if result.diagnostics:
        _emit_diags(result.diagnostics, args.format)
        return None, EXIT_VALIDATION
    return result.model, EXIT_OK


def _emit_diags(diags, fmt: str):
    if fmt == "json":
        doc = [
            {
                "code": d.code,
                "owner": d.owner,
                "element": d.element,
                "detail": d.detail,
                "line": d.line,
                "column": d.column,
            }
            for d in diags
        ]
        print(json.dumps(doc, sort_keys=True, indent=2), file=sys.stderr)
    else:
        for d in diags:
            print(str(d), file=sys.stderr)


def cmd_validate(args) -> int:
    model, code = _load_model(args)
    if model is None:
        return code
    if args.format == "json":
        print(json.dumps({"ok": True, "components": model.component_names(),
                          "rules": model.rule_names(), "version": model.version},
                         sort_keys=True))
    else:
        print(f"ok: {len(model.components)} component(s), {len(model.rules)} rule(s), "
              f"version {model.version}")
    return EXIT_OK


def _interactive_chooser(labels) -> Optional[int]:
    while True:
        print("choose a step:", file=sys.stderr)
        for i, label in enumerate(labels):
            print(f"  [{i}] {label_text(label)}", file=sys.stderr)
        line = sys.stdin.readline()
        if not line:
            return None
        line = line.strip()
        if not line or line in {"q", "quit"}:
            return None
        try:
            idx = int(line)
        except ValueError:
            print(f"not a number: {line!r}", file=sys.stderr)
            continue
        if 0 <= idx < len(labels):
            return idx
        print(f"out of range: {idx}", file=sys.stderr)


def _start(args):
    """The (model, initial configuration) a run starts from, with EXIT_OK:
    the model at `args.path`, with the changeset that the variable
    `args.load_migration` names, if any, loaded into the coordinator
    (`mcpal.load_migration`); or None with the exit code once the reason is
    reported."""
    model, code = _load_model(args)
    if model is None:
        return None, code
    config = initial_configuration(model)
    bad = validate_configuration(model, config)
    if bad:
        _emit_diags(bad, args.format)
        return None, EXIT_VALIDATION
    if not args.load_migration:
        return (model, config), EXIT_OK
    fragment = model.variables.get(args.load_migration)
    if not isinstance(fragment, ChangeSet):
        print(f"error: variable {args.load_migration!r} holds no changeset", file=sys.stderr)
        return None, EXIT_VALIDATION
    try:
        return load_migration(model, config, fragment), EXIT_OK
    except (McPalNotHibernating, FragmentInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_VALIDATION


def cmd_simulate(args) -> int:
    if _below_least((("--steps", args.steps, 0),)):
        return EXIT_PARSE
    started, code = _start(args)
    if started is None:
        return code
    model, config = started

    if args.script:
        try:
            steps = parse_trace_steps(Path(args.script).read_bytes().decode("utf-8"))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        steps = steps if args.steps is None else steps[:args.steps]
    else:
        if args.interactive:
            policy, limit = InteractivePolicy(_interactive_chooser), 1_000_000
        else:
            policy, limit = RandomPolicy(args.seed), 100
        taken = drive(model, config, policy, limit if args.steps is None else args.steps)
        steps = ((label, config_digest(after)) for label, _, after in taken)

    # each record is written as its step is taken, after it is re-fired from
    # the previous configuration and its digest checked; `main` reports a
    # failed write (an OSError), once the trace file is closed
    try:
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as out:
                count, version = write_trace_jsonl(model, config, steps, out.write)
        else:
            count, version = write_trace_jsonl(model, config, steps, sys.stdout.write)
    except ReplayDivergence as exc:
        print(f"replay divergence at step {exc.index}: {label_text(exc.label)}", file=sys.stderr)
        return EXIT_REPLAY
    if args.trace_out:
        print(f"{count} step(s), final version {version}, trace written to {args.trace_out}",
              file=sys.stderr)
    return EXIT_OK


def cmd_explore(args) -> int:
    started, code = _start(args)
    if started is None:
        return code
    model, config = started

    if _below_least((("--max-states", args.max_states, 1),
                     ("--max-depth", args.max_depth, 0),
                     ("--check-progress", args.check_progress, 1),
                     ("--check-termination", args.check_termination, model.version))):
        return EXIT_PARSE

    props = []
    if args.props:
        props_text = _read(args.props)
        if props_text is None:
            return EXIT_PARSE
        props, diags = parse_properties(props_text)
        if diags:
            _emit_diags(diags, args.format)
            return EXIT_PARSE
    elif args.path in BUNDLED:
        props = get_bundled(args.path).properties()

    bounds = Bounds(max_states=args.max_states, max_depth=args.max_depth)
    try:
        report = explore(model, config, props, bounds)
    except PropertyError as exc:  # an atom names a component some explored model lacks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    space = report.space
    doc = report.doc()

    violated = bool(report.violations)
    unknown = report.unknown() or space.truncated

    if args.check_termination is not None:
        try:
            result = check_migration_termination(space, args.check_termination)
        except UnknownElement as exc:  # no explored model has the coordinator
            print(f"error: no explored model has the coordinator component {exc}",
                  file=sys.stderr)
            return EXIT_VALIDATION
        doc["termination"] = {
            "targetVersion": args.check_termination,
            "verdict": result.verdict,
            "maxDepth": result.max_depth,
        }
        if result.verdict in ("stuck", "cycle"):
            violated = True
        elif result.verdict.startswith("unknown"):
            unknown = True

    if args.check_progress is not None:
        doc["progress"] = {}
        for comp in sorted(model.components):
            result = check_progress(space, comp, args.check_progress)
            doc["progress"][comp] = {"k": args.check_progress, "verdict": result.verdict}
            if result.verdict == "starved":
                violated = True
            elif result.verdict.startswith("unknown"):
                unknown = True

    payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.report_out and not _write(args.report_out, payload):
        return EXIT_PARSE
    if args.format == "json":
        sys.stdout.write(payload)
    else:
        print(f"states: {report.states_visited}  transitions: {report.transitions_visited}  "
              f"versions: {report.model_versions_seen}")
        for prop, verdict in report.verdicts:
            print(f"  {verdict:14} {prop}")
        if "termination" in doc:
            t = doc["termination"]
            print(f"  termination to version {t['targetVersion']}: {t['verdict']}"
                  + (f" (maxDepth {t['maxDepth']})" if t["maxDepth"] is not None else ""))
        if "progress" in doc:
            for comp, entry in sorted(doc["progress"].items()):
                print(f"  progress {comp} (k={entry['k']}): {entry['verdict']}")
        if report.deadlocks:
            print(f"  deadlocks: {len(report.deadlocks)}")
        for prop, records in report.violations:
            print(f"  violated: {prop} (counterexample of {len(records) - 1} step(s))",
                  file=sys.stderr)

    if violated:
        return EXIT_VIOLATION
    if unknown:
        return EXIT_UNKNOWN
    return EXIT_OK


def _narrate(trace, model, header: str, steps: Optional[int] = None) -> int:
    """Narrate `trace`, or its first `steps` steps; the model version after them."""
    print(header)
    for i, label, _, config in walk_trace(model, replace(trace, steps=trace.steps[:steps])):
        if label is None:
            print(f"  start: {_compact(config)}")
        else:
            print(f"  step {i}: {label_text(label)}")
            print(f"    -> {_compact(config)}")
    return config.model_version


def _compact(config) -> str:
    states = " ".join(f"{c}={s}" for c, s in sorted(config.detailed.items()))
    phases = " ".join(f"{c}.{p}={ph}" for (c, p), ph in sorted(config.phases.items()))
    return f"v{config.model_version} | {states} | {phases}"


def cmd_demo(args) -> int:
    if args.name not in BUNDLED:
        print(f"unknown demo {args.name!r}; valid names: {', '.join(bundled_names())}",
              file=sys.stderr)
        return EXIT_PARSE
    if _below_least((("--steps", args.steps, 0),)):
        return EXIT_PARSE
    bundle = get_bundled(args.name)
    model = bundle.model()
    config = initial_configuration(model)

    if args.name == "shop-migration":
        sk = McPalSkeleton()
        fragment = bundle.fragment()
        model, config = load_migration(model, config, fragment)
        target = model.version + 2  # kick-off and shrink each bump the version
        space = explore_space(model, config)
        done = next(space.where(partial(completion_test, target_version=target, sk=sk)), None)
        if done is None:
            print("no completing trajectory found", file=sys.stderr)
            return EXIT_VIOLATION
        trace = space.trace_to(done)
        version = _narrate(trace, model, "shop migration, shortest completing run:", args.steps)
        if args.steps < len(trace.steps):
            print(f"stopped after {args.steps} of {len(trace.steps)} step(s), model version {version}")
        else:
            print(f"migration complete, model version {version}, {sk.component} hibernating")
        return EXIT_OK

    trace = run(model, config, RandomPolicy(args.seed), max_steps=args.steps)
    _narrate(trace, model, f"{args.name}: {len(trace.steps)}-step random run (seed {args.seed}):")
    print(f"done, model version {trace.final_model_version}")
    return EXIT_OK


def cmd_export_dot(args) -> int:
    model, code = _load_model(args)
    if model is None:
        return code

    if args.what in ("std", "phases"):
        component = args.component
        if component is None:
            if len(model.components) == 1:
                component = next(iter(model.components))
            else:
                print(f"--component required; model has {model.component_names()}",
                      file=sys.stderr)
                return EXIT_PARSE
        std = model.components.get(component)
        if std is None:
            print(f"unknown component {component!r}", file=sys.stderr)
            return EXIT_PARSE
        out = std_dot(std) if args.what == "std" else phases_dot(std)
    else:
        if _below_least((("--max-states", args.max_states, 1), ("--threshold", args.threshold, 0))):
            return EXIT_PARSE
        config = initial_configuration(model)
        space = explore_space(model, config, Bounds(max_states=args.max_states))
        try:
            out = statespace_dot(space, threshold=args.threshold)
        except TooManyNodes as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DOT_THRESHOLD

    if not args.out:
        sys.stdout.write(out)
    elif not _write(args.out, out):
        return EXIT_PARSE
    return EXIT_OK


def cmd_serialize(args) -> int:
    model, code = _load_model(args)
    if model is None:
        return code
    sys.stdout.write(serialize_model(model))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasecoord",
        description="Run, evolve and verify phase-constrained coordination models.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and statically check a model")
    p.add_argument("path", help="model file or bundled name")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="run a model and export the trace")
    p.add_argument("path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--script", help="JSON-lines trace to replay")
    p.add_argument("--interactive", action="store_true")
    p.add_argument("--trace-out")
    p.add_argument("--load-migration", metavar="VAR",
                   help="load this changeset variable into the coordinator before the run")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("explore", help="exhaustively verify a model")
    p.add_argument("path")
    p.add_argument("--props", help=".pprop file (bundled default when omitted)")
    p.add_argument("--max-states", type=int, default=1_000_000)
    p.add_argument("--max-depth", type=int, default=10_000)
    p.add_argument("--report-out")
    p.add_argument("--check-progress", type=int, metavar="K")
    p.add_argument("--check-termination", type=int, metavar="VERSION")
    p.add_argument("--load-migration", metavar="VAR",
                   help="load this changeset variable into the coordinator before exploring")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("demo", help="narrated run of a bundled model")
    p.add_argument("name")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--steps", type=int, default=12)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("export-dot", help="DOT diagrams of components, phases, state spaces")
    p.add_argument("path")
    p.add_argument("--what", choices=("std", "phases", "statespace"), default="std")
    p.add_argument("--component")
    p.add_argument("--out")
    p.add_argument("--threshold", type=int, default=500)
    p.add_argument("--max-states", type=int, default=100_000)
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("serialize", help="canonical text form of a model")
    p.add_argument("path")
    p.set_defaults(func=cmd_serialize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a failed write to standard output shows here
    except OSError as exc:  # writing a trace, a report or standard output failed
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # standard output is full or its reader is gone
            _drop_stdout()
        return EXIT_PARSE
    return code


def _drop_stdout() -> None:
    """Point standard output at the null device, so that what it still holds
    is dropped at exit rather than failing to be written again."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # not backed by a file descriptor
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door.

Exit codes are a stable contract: 0 success, 1 parse, usage or I/O error
or out of memory, 2 validation error, 3 replay divergence, 4 property violation,
5 verdict unknown because a bound was hit, 6 DOT node threshold exceeded.
Standard output carries data; diagnostics go to standard error.  A command
that fails raises `_Failure` where it finds the failure, and `main` writes
it once, in the chosen format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from itertools import chain
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
    parse_trace,
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
from .model import Diagnostic, initial_configuration
from .properties import PropertyError, parse_properties

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_REPLAY = 3
EXIT_VIOLATION = 4
EXIT_UNKNOWN = 5
EXIT_DOT_THRESHOLD = 6


class _Failure(Exception):
    """A failed command: its exit code, its diagnostics (written as a JSON
    list under `--format json`) and its text-mode lines, by default each
    diagnostic's own text."""

    def __init__(self, exit_code: int, diags, lines=None):
        self.exit_code = exit_code
        self.diags = list(diags)
        self.lines = [str(d) for d in self.diags] if lines is None else lines


def _fail(exit_code: int, code: str, owner: str, line: str) -> _Failure:
    """The failure of kind `code` that blames `owner`, whose text is `line`;
    its diagnostic's detail is `line` without a leading "error: "."""
    return _Failure(exit_code, [Diagnostic(code, owner, detail=line.removeprefix("error: "))],
                    [line])


def _report(failure: _Failure, fmt: str) -> int:
    """Write `failure` in format `fmt` and return its exit code.  What
    standard output holds is flushed first, and dropped if that fails; the
    flush's io-error then follows a failure that is not an io-error itself,
    and the exit code is 1."""
    try:
        sys.stdout.flush()
    except OSError as exc:  # standard output is full or its reader is gone
        _drop_stdout()
        if all(d.code != "io-error" for d in failure.diags):
            flush = _io_failure(exc)
            failure = _Failure(EXIT_PARSE, failure.diags + flush.diags,
                               failure.lines + flush.lines)
    if fmt == "json":
        doc = [{"code": d.code, "owner": d.owner, "element": d.element, "detail": d.detail,
                "line": d.line, "column": d.column} for d in failure.diags]
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        text = "".join(line + "\n" for line in failure.lines)
    sys.stderr.write(text)
    return failure.exit_code


def _io_failure(exc: OSError) -> _Failure:
    return _fail(EXIT_PARSE, "io-error", exc.filename or "", f"error: {exc}")


def _read(path: str) -> str:
    """The text of the UTF-8 file at `path`; an OSError reading it is left
    to `main`."""
    try:
        return Path(path).read_bytes().decode("utf-8")  # a line ends at "\n" only
    except UnicodeDecodeError as exc:
        raise _fail(EXIT_PARSE, "io-error", path, f"error: {path}: {exc}")


def _below_least(checks) -> None:
    """Refuse the first (flag, value, least) with a value below least, if any."""
    for flag, value, least in checks:
        if value is not None and value < least:
            raise _fail(EXIT_PARSE, "below-least", flag,
                        f"error: {flag} must be at least {least}, got {value}")


def _load_model(path: str):
    """The model at `path`, a file or a bundled name."""
    result = parse_model(get_bundled(path).model_text() if path in BUNDLED else _read(path))
    if result.model is None:
        raise _Failure(EXIT_PARSE, result.diagnostics)
    if result.diagnostics:
        raise _Failure(EXIT_VALIDATION, result.diagnostics)
    return result.model


def cmd_validate(args) -> int:
    model = _load_model(args.path)
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


def _start(path: str, var: Optional[str]):
    """The (model, initial configuration) a run starts from: the model at
    `path`, with the changeset that the variable `var` names, if any, loaded
    into the coordinator (`mcpal.load_migration`).  A model that parses
    starts consistent (`validate_model`), so its start is not validated."""
    model = _load_model(path)
    config = initial_configuration(model)
    if not var:
        return model, config
    fragment = model.variables.get(var)
    if not isinstance(fragment, ChangeSet):
        raise _fail(EXIT_VALIDATION, "no-changeset", var,
                    f"error: variable {var!r} holds no changeset")
    try:
        return load_migration(model, config, fragment)
    except FragmentInvalid as exc:
        raise _Failure(EXIT_VALIDATION, exc.diagnostics, [f"error: {exc}"])
    except McPalNotHibernating as exc:
        raise _fail(EXIT_VALIDATION, "not-hibernating", McPalSkeleton().component,
                    f"error: {exc}")


def cmd_simulate(args) -> int:
    _below_least((("--steps", args.steps, 0),))
    model, config = _start(args.path, args.load_migration)

    if args.script:
        try:
            start, steps = parse_trace(Path(args.script).read_bytes().decode("utf-8"))
        except ValueError as exc:  # not UTF-8, or a line that is not a trace record
            raise _fail(EXIT_PARSE, "bad-script", args.script, f"error: {exc}")
        steps = steps if args.steps is None else steps[:args.steps]
        if start is not None and start != config_digest(config):
            # the recorded steps leave from another start, so the first diverges
            first = label_text(steps[0][0]) if steps else "the start"
            raise _fail(EXIT_REPLAY, "replay-divergence", args.script,
                        f"replay divergence at step 0: {first}")
    else:
        if args.interactive:
            policy, limit = InteractivePolicy(_interactive_chooser), 1_000_000
        else:
            policy, limit = RandomPolicy(args.seed), 100
        taken = drive(model, config, policy, limit if args.steps is None else args.steps)
        steps = ((label, config_digest(after)) for label, _, after in taken)

    # each record is written as its step is taken, after it is looked up among
    # the previous configuration's steps and its digest checked; `main`
    # reports a failed write (an OSError) or a divergence, once the trace file
    # is closed
    try:
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as out:
                count, version = write_trace_jsonl(model, config, steps, out.write)
        else:
            count, version = write_trace_jsonl(model, config, steps, sys.stdout.write)
    except ReplayDivergence as exc:
        raise _fail(EXIT_REPLAY, "replay-divergence", args.script or args.path,
                    f"replay divergence at step {exc.index}: {label_text(exc.label)}")
    if args.trace_out:
        print(f"{count} step(s), final version {version}, trace written to {args.trace_out}",
              file=sys.stderr)
    return EXIT_OK


def cmd_explore(args) -> int:
    model, config = _start(args.path, args.load_migration)
    _below_least((("--max-states", args.max_states, 1),
                  ("--max-depth", args.max_depth, 0),
                  ("--check-progress", args.check_progress, 1),
                  ("--check-termination", args.check_termination, model.version)))

    props = []
    if args.props:
        props, diags = parse_properties(_read(args.props))
        if diags:
            raise _Failure(EXIT_PARSE, diags)
    elif args.path in BUNDLED:
        props = get_bundled(args.path).properties()

    bounds = Bounds(max_states=args.max_states, max_depth=args.max_depth)
    try:
        report = explore(model, config, props, bounds)
    except PropertyError as exc:  # an atom names a component some explored model lacks
        raise _fail(EXIT_VALIDATION, "property-error", exc.component or args.props or args.path,
                    f"error: {exc}")
    space = report.space
    if args.check_termination is not None:
        try:
            report.termination = check_migration_termination(space, args.check_termination)
        except UnknownElement as exc:  # no explored model has the coordinator
            raise _fail(EXIT_VALIDATION, "no-coordinator", str(exc),
                        f"error: no explored model has the coordinator component {exc}")
    if args.check_progress is not None:
        report.progress = [check_progress(space, comp, args.check_progress)
                           for comp in sorted(model.components)]

    # the document, with its traces, is rendered only for a reader of it
    if args.format == "json" or args.report_out:
        payload = json.dumps(report.doc(), sort_keys=True, indent=2) + "\n"
        if args.report_out:
            Path(args.report_out).write_text(payload, "utf-8")
    if args.format == "json":
        sys.stdout.write(payload)
    else:
        print(f"states: {report.states_visited}  transitions: {report.transitions_visited}  "
              f"versions: {space.versions_seen()}")
        for prop, verdict in report.verdicts:
            print(f"  {verdict:14} {prop}")
        if (termination := report.termination) is not None:
            depth = "" if termination.max_depth is None else f" (maxDepth {termination.max_depth})"
            print(f"  termination to version {termination.target_version}: "
                  f"{termination.verdict}{depth}")
        for result in report.progress or ():
            print(f"  progress {result.component} (k={result.k}): {result.verdict}")
        if space.deadlocks:
            print(f"  deadlocks: {len(space.deadlocks)}")
        for prop, state in report.violations:
            print(f"  violated: {prop} (counterexample of {len(space.path(state)) - 1} step(s))",
                  file=sys.stderr)

    checked = report.checked()
    if report.violations or any(v in ("stuck", "cycle", "starved") for v in checked):
        return EXIT_VIOLATION
    if space.truncated or any(v.startswith("unknown") for v in checked):
        return EXIT_UNKNOWN
    return EXIT_OK


def _narrate(header: str, steps) -> int:
    """Narrate (label, model, configuration) steps, the first of them the
    start (label None); the model version after the last."""
    print(header)
    for i, (label, _, config) in enumerate(steps):
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
        raise _fail(EXIT_PARSE, "unknown-demo", args.name,
                    f"unknown demo {args.name!r}; valid names: {', '.join(bundled_names())}")
    _below_least((("--steps", args.steps, 0),))
    model, config = _start(args.name, get_bundled(args.name).fragment_var)

    if args.name == "shop-migration":
        sk = McPalSkeleton()
        target = model.version + 2  # kick-off and shrink each bump the version
        space = explore_space(model, config)
        done = next(space.where(partial(completion_test, target_version=target, sk=sk)), None)
        if done is None:
            raise _fail(EXIT_VIOLATION, "no-completion", args.name,
                        "no completing trajectory found")
        walk = space.walk(done)
        version = _narrate("shop migration, shortest completing run:", walk[:args.steps + 1])
        if args.steps < len(walk) - 1:
            print(f"stopped after {args.steps} of {len(walk) - 1} step(s), model version {version}")
        else:
            print(f"migration complete, model version {version}, {sk.component} hibernating")
        return EXIT_OK

    # each step is narrated as it is taken; a random run never stops early
    # (none of these models deadlocks), so it has `args.steps` steps
    taken = drive(model, config, RandomPolicy(args.seed), args.steps)
    version = _narrate(f"{args.name}: {args.steps}-step random run (seed {args.seed}):",
                       chain([(None, model, config)], taken))
    print(f"done, model version {version}")
    return EXIT_OK


def cmd_export_dot(args) -> int:
    model = _load_model(args.path)
    if args.what in ("std", "phases"):
        component = args.component
        if component is None:
            if len(model.components) == 1:
                component = next(iter(model.components))
            else:
                raise _fail(EXIT_PARSE, "component-required", "--component",
                            f"--component required; model has {model.component_names()}")
        std = model.components.get(component)
        if std is None:
            raise _fail(EXIT_PARSE, "unknown-component", component,
                        f"unknown component {component!r}")
        out = std_dot(std) if args.what == "std" else phases_dot(std)
    else:
        _below_least((("--max-states", args.max_states, 1), ("--threshold", args.threshold, 0)))
        config = initial_configuration(model)
        space = explore_space(model, config, Bounds(max_states=args.max_states))
        try:
            out = statespace_dot(space, threshold=args.threshold)
        except TooManyNodes as exc:
            raise _fail(EXIT_DOT_THRESHOLD, "dot-threshold", "--threshold", f"error: {exc}")

    if args.out:
        Path(args.out).write_text(out, "utf-8")
    else:
        sys.stdout.write(out)
    return EXIT_OK


def cmd_serialize(args) -> int:
    sys.stdout.write(serialize_model(_load_model(args.path)))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_PARSE, not argparse's 2 (EXIT_VALIDATION here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    except _Failure as failure:
        return _report(failure, args.format)
    except OSError as exc:  # reading or writing a file, or standard output, failed
        return _report(_io_failure(exc), args.format)
    except MemoryError:  # written below, since leaving the handler frees the
        pass  # traceback and so the frames that hold what filled memory
    else:
        return code
    return _report(_fail(EXIT_PARSE, "out-of-memory", args.command,
                         f"error: {args.command} ran out of memory; a lower --max-states "
                         "bounds an exploration"), args.format)


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

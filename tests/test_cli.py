"""Command-line contract: exit codes, outputs, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from phasecoord import changeset, cli, dsl, engine, explorer, model
from phasecoord.bundled import get_bundled
from phasecoord.cli import main
from tests.genmodels import chain_text

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import scaler  # noqa: E402  (perfbench/scaler.py: cs-nondet scaled to N workers)

FLAGSHIP = ("explore", "shop-migration", "--load-migration", "ShopMigr",
            "--check-termination", "3", "--check-progress", "16")
ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden" / "flagship-shop.json"
GOLDEN_DIR = ROOT / "tests" / "golden"
SHOP_CHECKS = ("shop-migration", "--check-termination", "1", "--check-progress", "3")
# The exit code of `--format json explore NAME` for each bundled model whose
# report bytes are kept in tests/golden/explore-NAME.json.
BUNDLED_EXPLORE_EXITS = {"cs-nondet": 0, "cs-roundrobin": 0, "prodcons": 0, "shop-migration": 4}
# `--format json explore` reports whose traces hold several records, kept in
# tests/golden/explore-NAME.json: NAME -> (explore arguments, exit code).
REPORT_GOLDENS = {
    # a 6-record violation across versions 1-3 and a 1-record one
    "shop-migration-loaded": (("shop-migration", "--load-migration", "ShopMigr", "--props",
                               str(GOLDEN_DIR / "shop-migration-loaded.pprop")), 4),
    "deadlock": ((str(GOLDEN_DIR / "deadlock.pdm"),), 0),  # one 4-record deadlock
    # a 12-step chain with a dead end off each step: 13 deadlock traces,
    # each sharing its prefix with the longer ones
    "chain": ((str(GOLDEN_DIR / "chain.pdm"),), 0),
    # a failed termination check (`cycle`), two `starved` components and a
    # violated eventuallyAll
    "shop-migration-checks": (SHOP_CHECKS, 4),
    # the flagship cut at 20 states: termination, progress, the invariant
    # and eventuallyAll read `unknown(bound)`
    "flagship-bounded": ((*FLAGSHIP[1:], "--max-states", "20"), 5),
    # cs-nondet with 5 workers (272 states, 880 edges), where every worker
    # has steps in most states: a violated invariant's 3-record trace and
    # an eventuallyAll that holds at its bound
    "cs-nondet-5": ((str(GOLDEN_DIR / "cs-nondet-5.pdm"), "--props",
                     str(GOLDEN_DIR / "cs-nondet-5.pprop")), 4),
}
# REPORT_GOLDENS entries whose text-mode output is kept too, in
# tests/golden/explore-NAME.stdout.txt and explore-NAME.stderr.txt
TEXT_REPORT_GOLDENS = ("flagship-bounded", "shop-migration-checks")
HUGE = "9" * 5000
ONE_STATE_BODY = "{ states: A; initial: A; transitions: }"
# one well-formed `--script` step record of prodcons
SCRIPT_RECORD = ('{"label": {"type": "detailed", "component": "Producer", '
                 '"transition": ["a", "b", "c"]}, "digest": "0000000000000001"}')
# tests/golden/failure-cases.txt: per line, "CASE EXIT ARGUMENTS", a failure
# that a command reaches from files in tests/golden (run from the repository
# root); tests/golden/fail-CASE.txt holds its standard error and fail-CASE.json
# that under `--format json`.  The text bytes were captured before failures
# had one writer.
FAILURE_CASES = [line.split(" ", 2) for line in
                 (GOLDEN_DIR / "failure-cases.txt").read_text("utf-8").splitlines()]
ONE_STEP_MODEL = """
component X {
  states: A, B;
  initial: A;
  transitions:
    A - go -> B;
}
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def explore_space_calls(count_calls):
    """Arguments of every explore_space call, under each name it is bound to."""
    return count_calls(explorer, "explore_space")


@pytest.mark.parametrize("argv", [
    ("simulate", "prodcons", "--steps", "x"),
    ("bogus", "prodcons"),
    (),
    ("--format", "xml", "validate", "prodcons"),
], ids=["bad-int", "unknown-command", "no-command", "bad-choice"])
def test_usage_error_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exited.value.code, out) == (1, "")
    assert err.startswith("usage: phasecoord") and "error: " in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case, exit_code, args", FAILURE_CASES,
                         ids=[case for case, _, _ in FAILURE_CASES])
def test_failures_match_golden_bytes(capsys, monkeypatch, fmt, case, exit_code, args):
    monkeypatch.chdir(ROOT)
    code, out, err = run_cli(capsys, "--format", fmt, *args.split())
    assert code == int(exit_code)
    assert err == (GOLDEN_DIR / f"fail-{case}.{'txt' if fmt == 'text' else 'json'}").read_text()
    if fmt == "json":  # one diagnostic, whose detail is the text without "error: "
        [diag] = json.loads(err)
        text = (GOLDEN_DIR / f"fail-{case}.txt").read_text()
        assert text.removeprefix("error: ") == diag["detail"] + "\n"


def test_every_failure_golden_has_its_case():
    # no argument list runs out of memory in-process: that case is made below
    names = {path.name for path in GOLDEN_DIR.glob("fail-*")}
    assert names == {f"fail-{case}.{ext}" for case in [c for c, _, _ in FAILURE_CASES]
                     + ["out-of-memory"] for ext in ("txt", "json")}


@pytest.fixture
def exhausted(monkeypatch):
    """`explore_space` runs out of memory while its frame holds a space;
    the list gets a weak reference to that space."""
    spaces = []

    def explore_space(*args, **kwargs):
        space = explorer.Space()
        spaces.append(weakref.ref(space))
        raise MemoryError

    monkeypatch.setattr(explorer, "explore_space", explore_space)
    return spaces


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_out_of_memory_matches_golden_bytes(capsys, exhausted, fmt):
    code, out, err = run_cli(capsys, "--format", fmt, "explore", "prodcons")
    assert (code, out) == (1, "")
    assert err == (GOLDEN_DIR / f"fail-out-of-memory.{'txt' if fmt == 'text' else 'json'}").read_text()


def test_out_of_memory_frees_the_failed_frames_before_writing(capsys, monkeypatch, exhausted):
    alive = []
    report = cli._report
    monkeypatch.setattr(cli, "_report", lambda failure, fmt: (
        alive.append([ref() is not None for ref in exhausted]), report(failure, fmt))[1])
    assert run_cli(capsys, "explore", "prodcons")[0] == 1
    assert alive == [[False]]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_running_out_of_memory_in_a_process_is_a_diagnostic(tmp_path):
    # cs-nondet with 13 workers keeps 167,936 states in about 120 MB; under a
    # 64 MB address space (about 25 MB once the command line is imported)
    # the exploration runs out of memory within about a second
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))

    path = tmp_path / "cs-nondet-13.pdm"
    path.write_text(scaler.scale_cs_nondet(get_bundled("cs-nondet").model_text(), 13))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "phasecoord.cli", "explore", str(path)],
                          env=env, capture_output=True, text=True, preexec_fn=limit)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (GOLDEN_DIR / "fail-out-of-memory.txt").read_text()


@pytest.mark.parametrize("argv", [("--help",), ("demo", "--help")])
def test_help_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exited.value.code, err) == (0, "")
    assert out.startswith("usage: phasecoord")


class TestValidate:
    def test_bundled_ok(self, capsys):
        code, out, err = run_cli(capsys, "validate", "cs-roundrobin")
        assert code == 0
        assert "3 component(s)" in out

    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "validate", "/no/such/file.pdm")
        assert code == 1
        assert "error" in err

    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.pdm"
        bad.write_text("component { nope }")
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert code == 1
        assert "syntax-error" in err

    def test_validation_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "dangling.pdm"
        bad.write_text("""
component X {
  states: A;
  initial: A;
  transitions:
    A - go -> B;
}
rule r: X: A - go -> B * X(missing): a - triv -> b;
""")
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert "unknown-target" in err

    def test_json_diagnostics(self, tmp_path, capsys):
        """`--format json` prints the diagnostics as one sorted JSON list on
        stderr: a syntax error exits 1, a validation error 2."""
        bad = tmp_path / "bad.pdm"
        bad.write_text("component { nope }")
        code, out, err = run_cli(capsys, "--format", "json", "validate", str(bad))
        assert (code, out) == (1, "")
        assert json.loads(err) == [{"code": "syntax-error", "owner": "parse", "element": "{",
                                    "detail": "expected 'name', found '{'",
                                    "line": 1, "column": 11}]
        bad.write_text("component X { states: A; initial: A; transitions: A - go -> B; }")
        code, out, err = run_cli(capsys, "--format", "json", "validate", str(bad))
        assert (code, out) == (2, "")
        assert err == json.dumps([{"code": "unknown-target", "owner": "X", "element": "B",
                                   "detail": "(A,go,B)", "line": 1, "column": 11}],
                                 sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("case", [
        "unexpected-char", "trailing-comment", "long-integer", "deep-changeset", "unknown-kind",
    ])
    def test_syntax_error_diagnostics_match_golden_bytes(self, capsys, case):
        """tests/golden/syntax-CASE.json holds the `--format json validate`
        stderr of tests/golden/syntax-CASE.pdm."""
        path = GOLDEN_DIR / f"syntax-{case}.pdm"
        code, out, err = run_cli(capsys, "--format", "json", "validate", str(path))
        assert (code, out) == (1, "")
        assert err == (GOLDEN_DIR / f"syntax-{case}.json").read_text("utf-8")

    def test_property_syntax_errors_match_golden_bytes(self, capsys):
        """tests/golden/syntax-indented.json holds the `--format json explore
        prodcons --props` stderr of tests/golden/syntax-indented.pprop, whose
        columns count on the raw line: an indent moves them, a comment does not."""
        path = GOLDEN_DIR / "syntax-indented.pprop"
        code, out, err = run_cli(capsys, "--format", "json", "explore", "prodcons",
                                 "--props", str(path))
        assert (code, out) == (1, "")
        assert err == (GOLDEN_DIR / "syntax-indented.json").read_text("utf-8")
        assert [(d["line"], d["column"]) for d in json.loads(err)] == [
            (2, 41), (3, 15), (4, 24), (5, 26)]

    @pytest.mark.parametrize("header,column", [
        ("version ²;", 9), ("version 1²;", 10), ("version ٣;", 9),
    ], ids=["superscript", "after-ascii", "arabic-indic"])
    def test_non_ascii_digit_is_a_syntax_error(self, tmp_path, capsys, header, column):
        path = tmp_path / "digits.pdm"
        path.write_text(header + ONE_STEP_MODEL, "utf-8")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"1:{column}:") and "syntax-error" in err

    @pytest.mark.parametrize("text,column", [
        (f"version {HUGE};" + ONE_STEP_MODEL, 9),
        (f"component W[{HUGE}] {ONE_STATE_BODY}", 13),
    ], ids=["version", "family-bound"])
    def test_huge_integer_is_a_syntax_error(self, tmp_path, capsys, text, column):
        path = tmp_path / "huge.pdm"
        path.write_text(text, "utf-8")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"1:{column}:") and "syntax-error" in err
        assert f"integer longer than {model.MAX_INT_DIGITS} digits" in err
        assert "Traceback" not in err

    def test_huge_family_bound_builds_no_members(self, tmp_path, capsys, count_calls):
        path = tmp_path / "family.pdm"
        path.write_text(f"component Worker[99999999999999999999] {ONE_STATE_BODY}")
        members = count_calls(dsl, "replace")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert err.startswith("1:18:") and "syntax-error" in err
        assert f"above {dsl.MAX_FAMILY_SIZE}" in err
        assert members == []

    def test_largest_family_bound_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "family.pdm"
        path.write_text(f"component W[{dsl.MAX_FAMILY_SIZE}] {ONE_STATE_BODY}")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 0
        assert f"{dsl.MAX_FAMILY_SIZE} component(s)" in out

    def test_json_format(self, capsys):
        code, out, err = run_cli(capsys, "--format", "json", "validate", "prodcons")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["components"] == ["Consumer", "Producer"]


class TestSimulate:
    def test_seeded_run_deterministic(self, tmp_path, capsys):
        t1 = tmp_path / "a.jsonl"
        t2 = tmp_path / "b.jsonl"
        assert run_cli(capsys, "simulate", "prodcons", "--seed", "7", "--steps", "100",
                       "--trace-out", str(t1))[0] == 0
        assert run_cli(capsys, "simulate", "prodcons", "--seed", "7", "--steps", "100",
                       "--trace-out", str(t2))[0] == 0
        assert t1.read_bytes() == t2.read_bytes()
        lines = t1.read_text().strip().splitlines()
        assert len(lines) == 101  # header plus one line per step
        # golden fingerprints, frozen from the first verified run
        assert json.loads(lines[0])["digest"] == "c47362db594eb4b6"
        assert json.loads(lines[-1])["digest"] == "cd5ea11df3021f38"

    def test_shop_run_matches_golden_bytes(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "shop-migration", "--seed", "3",
                                 "--steps", "300")
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN_DIR / "simulate-shop-migration.jsonl").read_bytes()

    def test_loaded_shop_run_matches_golden_bytes(self, capsys):
        # the library's `load_migration` and seeded run, exported: the
        # migration completes, so the changesets fire
        code, out, err = run_cli(capsys, "simulate", "shop-migration", "--load-migration",
                                 "ShopMigr", "--seed", "3", "--steps", "300")
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN_DIR / "trace-shop-migration-loaded.jsonl").read_bytes()
        assert json.loads(out.splitlines()[-1])["modelVersion"] == 3

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("digest, steps, exit_code, text", [
        ("12345", 3, 1, "error: line 1: not a trace record "
                        "(ValueError(\"digest '12345' is not 16 hex digits\"))"),
        ("0" * 16, 3, 3, "replay divergence at step 0: detailed Producer: Making-produce->Full"),
        ("0" * 16, 0, 3, "replay divergence at step 0: the start"),
    ], ids=["not-16-hex-digits", "another-start", "another-start-alone"])
    def test_a_replay_checks_the_recorded_start(self, tmp_path, capsys, fmt, digest, steps,
                                                exit_code, text):
        lines = (GOLDEN_DIR / "simulate-prodcons.jsonl").read_text("utf-8").splitlines()
        script = tmp_path / "start.jsonl"
        script.write_text("\n".join([json.dumps(dict(json.loads(lines[0]), digest=digest)),
                                     *lines[1:steps + 1]]) + "\n")
        code, out, err = run_cli(capsys, "--format", fmt, "simulate", "prodcons",
                                 "--script", str(script))
        assert (code, out) == (exit_code, "")
        if fmt == "text":
            assert err == text + "\n"
        else:
            code_name = "bad-script" if exit_code == 1 else "replay-divergence"
            assert [(d["code"], d["owner"], d["detail"]) for d in json.loads(err)] == [
                (code_name, str(script), text.removeprefix("error: "))]

    def test_a_start_record_without_a_digest_is_not_checked(self, tmp_path, capsys):
        lines = (GOLDEN_DIR / "simulate-prodcons.jsonl").read_text("utf-8").splitlines()
        start = json.loads(lines[0])
        del start["digest"]
        script = tmp_path / "start.jsonl"
        script.write_text("\n".join([json.dumps(start), *lines[1:4]]) + "\n")
        code, out, err = run_cli(capsys, "simulate", "prodcons", "--script", str(script))
        assert (code, err) == (0, "")
        assert out.splitlines() == lines[:4]

    @pytest.mark.parametrize("argv, sha256, versions", [
        (("shop-migration", "--load-migration", "ShopMigr", "--seed", "11"),
         "d8fb13880a711b122d683a710643b9a018869eac9fa1be7adbaa159526f4e6fa", {1, 2, 3}),
        (("cs-nondet", "--seed", "5"),
         "cae1aba41aa9b51ab36a4dc694b6333979e26aff189feaf6f110c1570de6e627", {0}),
    ], ids=["loaded-shop", "cs-nondet"])
    def test_long_walk_matches_its_pinned_hash(self, capsys, argv, sha256, versions):
        # 5000 steps meet each state many times, so nearly every step is
        # read from a step table; the hashes pin what the engine wrote before
        # it kept step tables
        code, out, err = run_cli(capsys, "simulate", *argv, "--steps", "5000")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256
        lines = out.splitlines()
        assert len(lines) == 5001
        assert {json.loads(line)["modelVersion"] for line in lines} == versions

    def test_loaded_script_replay_reproduces_the_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        loaded = ("simulate", "shop-migration", "--load-migration", "ShopMigr")
        assert run_cli(capsys, *loaded, "--seed", "5", "--steps", "200",
                       "--trace-out", str(trace))[0] == 0
        code, out, err = run_cli(capsys, *loaded, "--script", str(trace))
        assert code == 0
        assert out == trace.read_text()
        # without the load, the kick-off carries no changeset, so its
        # recorded label is not enabled
        code, out, err = run_cli(capsys, "simulate", "shop-migration", "--script", str(trace))
        assert code == 3
        assert err.startswith("replay divergence at step 0: rule McPal_kickoff")

    @pytest.mark.parametrize("edit, error", [
        (lambda record: record.replace('"label"', '"lable"'), "KeyError('label')"),
        (lambda record: record.replace('"label": {', '"label": null, "was": {'),
         "ValueError('a null label after the first record')"),
    ], ids=["misspelt-label-key", "null-label"])
    def test_a_step_record_without_a_label_is_refused_by_its_line(self, tmp_path, capsys,
                                                                  edit, error):
        # before, the fifth record was read as a second initial record and
        # dropped: 3 steps replayed, exit 0
        lines = (GOLDEN_DIR / "simulate-prodcons.jsonl").read_text("utf-8").splitlines()[:5]
        script = tmp_path / "cut.jsonl"
        script.write_text("\n".join(lines[:4] + [edit(lines[4])]) + "\n")
        code, out, err = run_cli(capsys, "simulate", "prodcons", "--script", str(script))
        assert code == 1
        assert err == f"error: line 5: not a trace record ({error})\n"

    def test_zero_steps_header_only(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "prodcons", "--steps", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        header = json.loads(lines[0])
        assert header["index"] == 0 and header["label"] is None

    @pytest.mark.parametrize("argv", [
        ("simulate", "prodcons", "--steps", "-4"),
        ("simulate", "prodcons", "--steps", "-1", "--script", str(GOLDEN_DIR / "simulate-prodcons.jsonl")),
        ("demo", "cs-nondet", "--steps", "-1"),
    ], ids=["simulate", "simulate-script", "demo"])
    def test_negative_steps_is_a_diagnostic(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: --steps must be at least 0, got {argv[3]}\n"

    def test_zero_demo_steps_narrates_no_step(self, capsys):
        code, out, err = run_cli(capsys, "demo", "cs-nondet", "--steps", "0")
        assert code == 0
        assert "0-step random run" in out and "  step " not in out

    def test_script_replay_reproduces_digests(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        run_cli(capsys, "simulate", "cs-nondet", "--seed", "3", "--steps", "80",
                "--trace-out", str(trace))
        code, out, err = run_cli(capsys, "simulate", "cs-nondet",
                                 "--script", str(trace))
        assert code == 0
        original = [json.loads(l)["digest"] for l in trace.read_text().splitlines()]
        replayed = [json.loads(l)["digest"] for l in out.strip().splitlines()]
        assert replayed == original

    def test_a_script_with_crlf_line_ends_replays(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        run_cli(capsys, "simulate", "prodcons", "--seed", "3", "--steps", "20",
                "--trace-out", str(trace))
        script = tmp_path / "crlf.jsonl"
        script.write_bytes(trace.read_bytes().replace(b"\n", b"\r\n"))
        code, out, err = run_cli(capsys, "simulate", "prodcons", "--script", str(script))
        assert (code, err) == (0, "")
        assert out == trace.read_text()

    def test_a_carriage_return_ends_no_script_record(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        run_cli(capsys, "simulate", "prodcons", "--seed", "3", "--steps", "20",
                "--trace-out", str(trace))
        lines = trace.read_text().split("\n")
        script = tmp_path / "cr.jsonl"
        script.write_bytes("\n".join([lines[0], lines[1] + "\r" + lines[2], *lines[3:]]).encode())
        code, out, err = run_cli(capsys, "simulate", "prodcons", "--script", str(script))
        assert (code, out) == (1, "")
        assert err.startswith("error: line 2: not a trace record (JSONDecodeError('Extra data")

    def test_divergent_script_exit_3(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        run_cli(capsys, "simulate", "prodcons", "--seed", "1", "--steps", "40",
                "--trace-out", str(trace))
        # a cs-nondet script cannot replay on prodcons
        code, out, err = run_cli(capsys, "simulate", "cs-nondet", "--script", str(trace))
        assert code == 3
        assert "divergence" in err

    def test_changed_digest_exit_3(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        run_cli(capsys, "simulate", "cs-nondet", "--seed", "3", "--steps", "80",
                "--trace-out", str(trace))
        records = [json.loads(l) for l in trace.read_text().splitlines()]
        records[10]["digest"] = f"{int(records[10]['digest'], 16) ^ 1:016x}"
        trace.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, out, err = run_cli(capsys, "simulate", "cs-nondet", "--script", str(trace))
        assert code == 3
        assert err.startswith("replay divergence at step 9:")

    def test_step_past_deadlock_exit_3(self, tmp_path, capsys):
        pdm, trace = tmp_path / "one.pdm", tmp_path / "t.jsonl"
        pdm.write_text(ONE_STEP_MODEL)
        assert run_cli(capsys, "simulate", str(pdm), "--trace-out", str(trace))[0] == 0
        header, step = trace.read_text().splitlines()  # deadlocked after one step
        trace.write_text("\n".join([header, step, step]) + "\n")
        code, out, err = run_cli(capsys, "simulate", str(pdm), "--script", str(trace))
        assert code == 3
        assert err.startswith("replay divergence at step 1: detailed X: A-go->B")

    @pytest.mark.parametrize("line, bad_line", [
        ("not json at all", 2),
        ('{"label": {"type": "rule", "rule": "x"}}', 2),
        ("[" * 100_000 + "]" * 100_000, 2),
        ('{"label": {"type": "detailed", "component": "Producer", '
         '"transition": ["a", "b", "c"]}}', 2),
        ('{"label": {"type": "detailed", "component": "Producer", '
         '"transition": ["a", "b", "c"]}, "digest": "0x00000000000001"}', 2),
        ('{"label": {"type": "detailed", "component": [1], '
         '"transition": ["a", "b", "c"]}, "digest": "0000000000000001"}', 2),
        ('{"label": {"type": "rule", "rule": ["x"], "manager": "Producer", '
         '"managerStep": ["a", "b", "c"], "transfers": [], "changeSet": false}, '
         '"digest": "0000000000000001"}', 2),
        ('{"label": {"type": "detailed", "component": "Producer", '
         '"transition": [{"a": 1}, "b", "c"]}, "digest": "0000000000000001"}', 2),
        ('{"label": {"type": "detailed", "component": "Producer", '
         '"transition": "abc"}, "digest": "0000000000000001"}', 2),
        ('{"label": {"type": "rule", "rule": "x", "manager": "Producer", '
         '"managerStep": ["a", "b", "c"], "transfers": [["W", "r", "P", 0, "P"]], '
         '"changeSet": false}, "digest": "0000000000000001"}', 2),
        ('{"label": {"type": "rule", "rule": "x", "manager": "Producer", '
         '"managerStep": ["a", "b", "c"], "transfers": {}, "changeSet": false}, '
         '"digest": "0000000000000001"}', 2),
        ('{"label": {"type": "rule", "rule": "x", "manager": "Producer", '
         '"managerStep": ["a", "b", "c"], "transfers": [], "changeSet": 0}, '
         '"digest": "0000000000000001"}', 2),
    ], ids=["not-json", "rule-without-manager", "deep-nesting", "digest-missing",
            "digest-not-16-hex-digits", "component-not-a-string", "rule-not-a-string",
            "state-not-a-string", "transition-not-a-list", "transfer-field-not-a-string",
            "transfers-not-a-list", "changeset-not-a-boolean"])
    def test_malformed_script_exit_1(self, tmp_path, capsys, line, bad_line):
        script = tmp_path / "bad.jsonl"
        script.write_text('{"index": 0, "label": null}\n' + line + "\n")
        code, out, err = run_cli(capsys, "simulate", "prodcons", "--script", str(script))
        assert code == 1
        assert err.startswith(f"error: line {bad_line}:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("line, error", [
        (SCRIPT_RECORD + " x", "Extra data: line 1 column 119 (char 118)"),
        (SCRIPT_RECORD + "{}", "Extra data: line 1 column 118 (char 117)"),
        ("\ufeff" + SCRIPT_RECORD, "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (SCRIPT_RECORD[:-1], "Expecting ',' delimiter: line 1 column 117 (char 116)"),
    ], ids=["trailing-data", "two-records", "utf8-bom", "unterminated-object"])
    def test_a_line_that_is_not_one_json_value_names_its_json_error(self, tmp_path, capsys, line, error):
        script = tmp_path / "bad.jsonl"
        script.write_text(f'{{"index": 0, "label": null}}\n{SCRIPT_RECORD}\n{line}\n', encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "prodcons", "--script", str(script))
        assert (code, out) == (1, "")
        assert err == f"error: line 3: not a trace record (JSONDecodeError({error!r}))\n"

    def test_unwritable_trace_out_exit_1(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "simulate", "prodcons",
                                 "--trace-out", str(tmp_path / "missing" / "t.jsonl"))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_steps_run_in_bounded_memory(self, monkeypatch):
        import tracemalloc

        class Discard:
            def write(self, text):
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr("sys.stdout", Discard())
        assert main(["simulate", "prodcons", "--seed", "7", "--steps", "50"]) == 0  # warm caches

        def peak(steps):
            tracemalloc.start()
            try:
                code = main(["simulate", "prodcons", "--seed", "7", "--steps", str(steps)])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (code_small, small), (code_large, large) = peak(2_000), peak(20_000)
        assert code_small == code_large == 0
        assert large < 1.5 * small, (small, large)

    def test_interactive_scriptable(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0\n0\nq\n"))
        code, out, err = run_cli(capsys, "simulate", "prodcons", "--interactive")
        assert code == 0
        assert "choose a step" in err
        assert len(out.strip().splitlines()) == 3  # header + two chosen steps

    def test_interactive_rejects_many_lines_without_recursion(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("x\n" * 3000 + "q\n"))
        code, out, err = run_cli(capsys, "simulate", "prodcons", "--interactive")
        assert code == 0
        assert err.count("not a number: 'x'") == 3000
        assert "Traceback" not in err


NO_COORDINATOR_MODEL = ONE_STEP_MODEL + "var Empty = {};\n"
# a hibernating coordinator that never migrates, beside a component that
# deadlocks: the migration is `stuck`
STUCK_MODEL = ONE_STEP_MODEL + """
component McPal {
  states: Observing;
  initial: Observing;
  transitions:
  partition Evol {
    initial: Hibernating;
    phase Hibernating { states: Observing; transitions: ; }
  }
}
"""


@pytest.mark.parametrize("command", ["simulate", "explore"])
@pytest.mark.parametrize("text, variable, message", [
    (None, "NoSuchVar", "error: variable 'NoSuchVar' holds no changeset"),
    (NO_COORDINATOR_MODEL, "Empty", "error: McPal not woven"),
    ("SHOP\nvar Bad = {\n  remove rule noSuchRule;\n};\n", "Bad",
     "error: unknown-rule: changeset noSuchRule"),
], ids=["no-changeset", "not-hibernating", "fragment-invalid"])
def test_load_migration_failure_exit_2(tmp_path, capsys, command, text, variable, message):
    path = "shop-migration"
    if text is not None:
        path = str(tmp_path / "m.pdm")
        Path(path).write_text(text.replace("SHOP", get_bundled("shop-migration").model_text()))
    code, out, err = run_cli(capsys, command, path, "--load-migration", variable)
    assert code == 2
    assert out == ""
    assert err.startswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "explore"])
def test_a_blocked_kickoff_names_the_rule_and_its_guard(capsys, command):
    """tests/golden/kickoff-blocked.txt holds the stderr of loading ShopMigr
    into tests/golden/kickoff-blocked.pdm, whose kick-off rule its guard
    blocks: the diagnostic names the rule and `rule_blocker`'s reason."""
    path = GOLDEN_DIR / "kickoff-blocked.pdm"
    code, out, err = run_cli(capsys, command, str(path), "--load-migration", "ShopMigr")
    assert (code, out) == (2, "")
    assert err == (GOLDEN_DIR / "kickoff-blocked.txt").read_text("utf-8")
    # the unloaded kick-off is blocked by the same guard
    parsed = dsl.parse_model(path.read_text("utf-8")).model
    why = engine.rule_blocker(parsed, model.initial_configuration(parsed),
                              parsed.rules["McPal_kickoff"])
    assert err == f"error: kickoff-blocked: McPal_kickoff ({why})\n"


@pytest.mark.parametrize("command", ["simulate", "explore"])
def test_a_blocked_kickoff_is_a_json_diagnostic_under_format_json(capsys, command):
    """tests/golden/kickoff-blocked.json holds the `--format json` stderr of
    loading ShopMigr into tests/golden/kickoff-blocked.pdm: the
    `kickoff-blocked` diagnostic in the list that every failure writes."""
    path = GOLDEN_DIR / "kickoff-blocked.pdm"
    code, out, err = run_cli(capsys, "--format", "json", command, str(path),
                             "--load-migration", "ShopMigr")
    assert (code, out) == (2, "")
    assert err == (GOLDEN_DIR / "kickoff-blocked.json").read_text("utf-8")
    [diagnostic] = json.loads(err)
    assert (diagnostic["code"], diagnostic["owner"]) == ("kickoff-blocked", "McPal_kickoff")


class TestExplore:
    def test_flagship_run_exit_0(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "explore", "shop-migration", "--load-migration", "ShopMigr",
            "--check-termination", "3", "--check-progress", "16",
            "--report-out", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["statesVisited"] == 116
        assert doc["modelVersionsSeen"] == [1, 2, 3]
        assert doc["termination"]["verdict"] == "terminates"
        assert all(v["verdict"] == "satisfied" for v in doc["progress"].values())

    def test_flagship_explores_once(self, explore_space_calls, capsys):
        assert run_cli(capsys, *FLAGSHIP)[0] == 0
        assert len(explore_space_calls) == 1

    def test_flagship_report_matches_golden_bytes(self, capsys):
        code, out, err = run_cli(capsys, "--format", "json", *FLAGSHIP)
        assert code == 0
        assert out.encode("utf-8") == GOLDEN.read_bytes()

    def test_flagship_applies_each_changeset_once(self, count_calls, capsys):
        validations = count_calls(model, "validate_model")
        applications = count_calls(changeset, "apply_changeset")
        walks = count_calls(changeset, "_apply")
        checks = count_calls(changeset, "validate_changeset")
        assert run_cli(capsys, *FLAGSHIP)[0] == 0
        # one validation parses the model, and each changeset walk validates
        # its result: the load (`apply_changeset`), then each rule's
        # changeset once per model object that owns the rule (the kick-off
        # and the final shrink), however often the exploration fires it
        assert len(applications) == 1
        assert len({(id(m), id(cs)) for m, _, cs in walks}) == len(walks) == 3
        assert len(validations) == 1 + len(walks) == 4
        assert checks == []

    def test_flagship_validates_no_start_configuration(self, count_calls, capsys):
        validations = count_calls(model, "validate_configuration")
        assert run_cli(capsys, *FLAGSHIP)[0] == 0
        # the load's `apply_changeset`, then each changeset firing: the load's
        # trial firing and 20 in the exploration.  A model that parses starts
        # consistent, so its initial configuration is not validated
        assert len(validations) == 22

    @pytest.mark.parametrize("predicate", [
        "(" * 5000 + "inState(Worker1, Idle)" + ")" * 5000,
        " and ".join(["inState(Worker1, Idle)"] * 1500),
        "not " * 1500 + "inState(Worker1, Idle)",
    ], ids=["parentheses", "and-chain", "nots"])
    def test_deep_predicate_is_a_diagnostic(self, tmp_path, capsys, predicate):
        props = tmp_path / "f.pprop"
        props.write_text(f"# deep\ninvariant {predicate}\n")
        code, out, err = run_cli(capsys, "explore", "cs-nondet", "--props", str(props))
        assert code == 1
        assert err.startswith("2:") and "syntax-error" in err
        assert "nested deeper than 200" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("digit", ["²", "٣"], ids=["superscript", "arabic-indic"])
    def test_non_ascii_digit_in_props_is_a_syntax_error(self, tmp_path, capsys, digit):
        props = tmp_path / "f.pprop"
        props.write_text(f"reachable modelVersionIs({digit})\n", "utf-8")
        code, out, err = run_cli(capsys, "explore", "cs-nondet", "--props", str(props))
        assert code == 1
        assert out == ""
        assert err.startswith("1:") and "syntax-error" in err
        assert "expected an integer" in err

    @pytest.mark.parametrize("prop,column", [
        (f"reachable modelVersionIs({HUGE})", 26),
        (f"eventuallyAll inState(Worker1, InCS) bound {HUGE}", 44),
    ], ids=["version", "bound"])
    def test_huge_integer_in_props_is_a_syntax_error(self, tmp_path, capsys, prop, column):
        props = tmp_path / "f.pprop"
        props.write_text(f"# huge\n{prop}\n", "utf-8")
        code, out, err = run_cli(capsys, "explore", "cs-nondet", "--props", str(props))
        assert code == 1
        assert out == ""
        assert err.startswith(f"2:{column}:") and "syntax-error" in err
        assert f"integer longer than {model.MAX_INT_DIGITS} digits" in err

    @pytest.mark.parametrize("prop,column", [
        ("invariant not inState(Worker1,)", 31),
        ("reachable inState(Worker1, 9InCS)", 28),
        ("invariant countInState({.}, <=, 0)", 25),
        ("invariant inPhase(Worker1, , Free)", 28),
    ], ids=["empty-state", "digit-first-state", "empty-count-pair", "empty-partition"])
    def test_malformed_name_in_props_is_a_syntax_error(self, tmp_path, capsys, prop, column):
        props = tmp_path / "f.pprop"
        props.write_text(f"{prop}\n")
        code, out, err = run_cli(capsys, "explore", "cs-nondet", "--props", str(props))
        assert code == 1
        assert out == ""
        assert err.startswith(f"1:{column}:") and "syntax-error" in err
        assert "expected a name" in err

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_a_line_of_props_ends_at_a_newline_only(self, tmp_path, capsys, char):
        # `str.splitlines` would end the line here too, and report line 2 as well
        props = tmp_path / "f.pprop"
        props.write_bytes(f"invariant inState(Producer,{char}Making)\n".encode("utf-8"))
        code, out, err = run_cli(capsys, "explore", "prodcons", "--props", str(props))
        assert (code, out) == (1, "")
        assert err == f"1:28: syntax-error: property {char}Making) (expected a name)\n"

    def test_a_carriage_return_in_props_is_a_blank(self, tmp_path, capsys):
        props = tmp_path / "f.pprop"
        props.write_bytes(b"reachable inState(Producer,\rMaking)\r\n")
        code, out, err = run_cli(capsys, "--format", "json", "explore", "prodcons", "--props", str(props))
        assert (code, err) == (0, "")
        assert json.loads(out)["properties"] == [
            {"property": "reachable inState(Producer, Making)", "verdict": "satisfied"}]

    def test_a_carriage_return_ends_no_property(self, tmp_path, capsys):
        props = tmp_path / "f.pprop"
        props.write_bytes(b"reachable inState(Producer, Making)\rreachable inState(Consumer, Ask)\r")
        code, out, err = run_cli(capsys, "explore", "prodcons", "--props", str(props))
        assert (code, out) == (1, "")
        assert err == "1:37: syntax-error: property reachabl (trailing input after property)\n"

    def test_property_naming_unknown_component_exit_2(self, tmp_path, capsys):
        props = tmp_path / "f.pprop"
        props.write_text("invariant inState(Nobody, x)\n")
        code, out, err = run_cli(capsys, "explore", "cs-nondet", "--props", str(props))
        assert code == 2
        assert out == ""
        assert err == "error: inState(Nobody, x): unknown component Nobody\n"

    @pytest.mark.parametrize("name", sorted(BUNDLED_EXPLORE_EXITS))
    def test_bundled_report_matches_golden_bytes(self, capsys, name):
        code, out, err = run_cli(capsys, "--format", "json", "explore", name)
        assert code == BUNDLED_EXPLORE_EXITS[name]
        assert out.encode("utf-8") == (GOLDEN_DIR / f"explore-{name}.json").read_bytes()

    @pytest.mark.parametrize("to", ["stdout", "report-out"])
    @pytest.mark.parametrize("name", sorted(REPORT_GOLDENS))
    def test_report_traces_match_golden_bytes(self, tmp_path, capsys, name, to):
        # the document on standard output under `--format json`, or in the
        # `--report-out` file in text mode
        argv, exit_code = REPORT_GOLDENS[name]
        golden = (GOLDEN_DIR / f"explore-{name}.json").read_bytes()
        if to == "stdout":
            code, out, err = run_cli(capsys, "--format", "json", "explore", *argv)
            assert (code, out.encode("utf-8")) == (exit_code, golden)
        else:
            path = tmp_path / "report.json"
            code, out, err = run_cli(capsys, "explore", *argv, "--report-out", str(path))
            assert (code, path.read_bytes()) == (exit_code, golden)

    def test_scaled_golden_model_is_the_scaler_output(self):
        assert (GOLDEN_DIR / "cs-nondet-5.pdm").read_text("utf-8") == scaler.scale_cs_nondet(
            get_bundled("cs-nondet").model_text(), 5)

    @pytest.mark.parametrize("name", TEXT_REPORT_GOLDENS)
    def test_text_report_matches_golden_bytes(self, capsys, name):
        argv, exit_code = REPORT_GOLDENS[name]
        code, out, err = run_cli(capsys, "explore", *argv)
        assert code == exit_code
        assert out.encode("utf-8") == (GOLDEN_DIR / f"explore-{name}.stdout.txt").read_bytes()
        assert err.encode("utf-8") == (GOLDEN_DIR / f"explore-{name}.stderr.txt").read_bytes()

    def test_failed_checks_decode_no_state_in_text_mode(self, capsys, count_calls, monkeypatch):
        # text mode prints verdicts only: a failed check keeps its state's
        # index, and no trace or configuration is built for it
        digests = count_calls(engine, "config_digest")
        decoded = []
        state = explorer.Space.state
        monkeypatch.setattr(explorer.Space, "state",
                            lambda space, idx: decoded.append(idx) or state(space, idx))
        code, out, err = run_cli(capsys, "explore", *SHOP_CHECKS)
        assert "cycle" in out and "starved" in out
        assert (code, len(digests), len(decoded)) == (4, 0, 0)

    def test_report_records_are_written_once_per_state_and_only_for_json(
            self, tmp_path, capsys, count_calls):
        # a 40-step chain with a dead end off each step: 41 deadlock traces
        # through 81 distinct states, 901 records in all
        path = tmp_path / "chain.pdm"
        path.write_text(chain_text(40), "utf-8")
        lines = count_calls(explorer, "_record_line")
        code, out, _ = run_cli(capsys, "explore", str(path))
        assert (code, out.splitlines()[-1], lines) == (0, "  deadlocks: 41", [])
        code, out, _ = run_cli(capsys, "--format", "json", "explore", str(path))
        traces = json.loads(out)["deadlocks"]
        states = {record["digest"] for trace in traces for record in trace}
        assert (code, len(states), sum(map(len, traces))) == (0, 81, 901)
        assert len(lines) <= len(states)

    def test_termination_obeys_the_shared_bounds(self, capsys):
        code, out, err = run_cli(capsys, "--format", "json", *FLAGSHIP[:6],
                                 "--max-states", "20")
        assert code == 5
        doc = json.loads(out)
        assert doc["bounds"]["maxStatesHit"] is True
        assert doc["termination"]["verdict"] == "unknown(bound)"

    @pytest.mark.parametrize("argv", [
        ("cs-nondet", "--check-progress", "-3"),
        ("cs-nondet", "--check-progress", "0"),
        ("cs-nondet", "--check-termination", "-1"),
        ("cs-nondet", "--max-states", "-1"),
        ("cs-nondet", "--max-depth", "-5"),
        ("shop-migration", "--load-migration", "ShopMigr", "--check-termination", "0"),
    ], ids=["progress-negative", "progress-zero", "termination-negative",
            "max-states-negative", "max-depth-negative", "termination-below-loaded-version"])
    def test_nonsense_bound_is_a_diagnostic(self, explore_space_calls, capsys, argv):
        code, out, err = run_cli(capsys, "explore", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {argv[-2]} must be at least ")
        assert "Traceback" not in err
        assert explore_space_calls == []

    def test_termination_without_the_coordinator_exit_2(self, capsys):
        # cs-nondet has no McPal, so no migration: not a `cycle` (exit 4)
        code, out, err = run_cli(capsys, "--format", "json", "explore", "cs-nondet",
                                 "--check-termination", "0")
        assert code == 2
        assert out == ""
        assert json.loads(err) == [{
            "code": "no-coordinator", "owner": "McPal", "element": "",
            "detail": "no explored model has the coordinator component McPal",
            "line": 0, "column": 0}]

    def test_violation_exit_4(self, tmp_path, capsys):
        props = tmp_path / "p.pprop"
        props.write_text("invariant inState(Producer, Making)\n")
        code, out, err = run_cli(capsys, "explore", "prodcons", "--props", str(props))
        assert code == 4
        assert "violated" in err

    def test_bound_forces_exit_5(self, capsys):
        code, out, err = run_cli(capsys, "explore", "shop-migration",
                                 "--load-migration", "ShopMigr", "--max-states", "10")
        assert code == 5

    def test_truncated_progress_is_unknown_exit_5(self, capsys):
        code, out, err = run_cli(capsys, "--format", "json", "explore", "cs-nondet",
                                 "--max-states", "5", "--check-progress", "16")
        assert code == 5
        progress = json.loads(out)["progress"]
        assert sorted(progress) == ["Scheduler", "Worker1", "Worker2"]
        assert all(v["verdict"] == "unknown(bound)" for v in progress.values())

    def test_starved_component_exit_4(self, tmp_path, capsys):
        path = tmp_path / "one.pdm"
        path.write_text(ONE_STEP_MODEL)
        code, out, err = run_cli(capsys, "explore", str(path), "--check-progress", "1")
        assert code == 4
        assert out == ("states: 2  transitions: 1  versions: [0]\n"
                       "  progress X (k=1): starved\n"
                       "  deadlocks: 1\n")

    @pytest.mark.parametrize("text, argv, verdict", [
        (None, ("shop-migration", "--check-termination", "1"), "cycle"),
        (STUCK_MODEL, ("--check-termination", "1"), "stuck"),
    ], ids=["cycle", "stuck"])
    def test_termination_witness_exit_4(self, tmp_path, capsys, text, argv, verdict):
        empty = tmp_path / "none.pprop"
        empty.write_text("")
        if text is not None:
            path = tmp_path / "m.pdm"
            path.write_text(text)
            argv = (str(path), *argv)
        code, out, err = run_cli(capsys, "--format", "json", "explore", *argv,
                                 "--props", str(empty))
        assert (code, err) == (4, "")
        doc = json.loads(out)
        assert doc["violations"] == [] and doc["termination"]["verdict"] == verdict

    def test_all_bundled_models_pass_their_properties(self, capsys):
        for name in ("cs-nondet", "cs-roundrobin", "prodcons"):
            code, out, err = run_cli(capsys, "explore", name)
            assert code == 0, (name, err)


class TestDemo:
    def test_shop_demo_narrates_completion(self, capsys):
        code, out, err = run_cli(capsys, "demo", "shop-migration")
        assert code == 0
        assert "migration complete, model version 3, McPal hibernating" in out
        assert "rule McPal_kickoff" in out

    def test_shop_demo_without_a_completing_run_is_a_failure_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "completion_test", lambda *args, **kwargs: lambda slots: False)
        assert run_cli(capsys, "demo", "shop-migration") == (
            4, "", "no completing trajectory found\n")
        code, out, err = run_cli(capsys, "--format", "json", "demo", "shop-migration")
        assert (code, out) == (4, "")
        assert json.loads(err) == [{"code": "no-completion", "owner": "shop-migration",
                                    "element": "", "detail": "no completing trajectory found",
                                    "line": 0, "column": 0}]

    def test_shop_demo_matches_golden_bytes(self, capsys):
        code, out, err = run_cli(capsys, "demo", "shop-migration")
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN_DIR / "demo-shop-migration.txt").read_bytes()

    @pytest.mark.parametrize("steps", ["6", "100"])
    def test_shop_demo_narrates_a_whole_run_within_its_steps(self, capsys, steps):
        code, out, err = run_cli(capsys, "demo", "shop-migration", "--steps", steps)
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN_DIR / "demo-shop-migration.txt").read_bytes()

    @pytest.mark.parametrize("steps, version", [(0, 1), (3, 2)])
    def test_shop_demo_stops_after_its_steps(self, capsys, steps, version):
        code, out, err = run_cli(capsys, "demo", "shop-migration", "--steps", str(steps))
        assert (code, err) == (0, "")
        golden = (GOLDEN_DIR / "demo-shop-migration.txt").read_text().splitlines()
        assert out.splitlines() == [
            *golden[:2 + 2 * steps], f"stopped after {steps} of 6 step(s), model version {version}"]

    def test_shop_demo_explores_once(self, explore_space_calls, capsys):
        assert run_cli(capsys, "demo", "shop-migration")[0] == 0
        assert len(explore_space_calls) == 1

    def test_shop_demo_parses_once_and_fires_no_step_again(self, count_calls, capsys):
        parses = count_calls(dsl, "parse_model")
        takes = count_calls(engine, "_take")
        assert run_cli(capsys, "demo", "shop-migration")[0] == 0
        assert len(parses) == 1
        assert takes == []  # it narrates the steps of the explored path

    @pytest.mark.parametrize("name", ["cs-nondet", "cs-roundrobin", "prodcons"])
    def test_random_demo_matches_golden_bytes(self, capsys, name):
        code, out, err = run_cli(capsys, "demo", name)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (GOLDEN_DIR / f"demo-{name}.txt").read_bytes()

    def test_random_demo_fires_no_step_again(self, count_calls, capsys):
        takes = count_calls(engine, "_take")
        assert run_cli(capsys, "demo", "prodcons")[0] == 0
        assert takes == []  # it narrates the steps it drove

    def test_prodcons_demo(self, capsys):
        code, out, err = run_cli(capsys, "demo", "prodcons")
        assert code == 0
        assert "12-step random run" in out

    @pytest.mark.parametrize("name", ["cs-nondet", "cs-roundrobin", "prodcons"])
    def test_a_random_demo_model_never_deadlocks(self, bundles, name):
        """A random demo's header gives its length as `--steps` before the
        run is taken: `RandomPolicy` never stops a run, and no reachable
        state of these models is a deadlock."""
        start = bundles[name].model()
        space = explorer.explore_space(start, model.initial_configuration(start))
        assert not space.truncated and space.deadlocks == []

    def test_random_demo_writes_each_step_as_it_is_taken(self, monkeypatch, capsys):
        written = []  # the output since the last read, read as the run is asked for a step
        drive = cli.drive

        def watched(*args):
            for step in drive(*args):
                yield step
                written.append(capsys.readouterr().out)

        monkeypatch.setattr(cli, "drive", watched)
        assert main(["demo", "prodcons", "--steps", "3"]) == 0
        written.append(capsys.readouterr().out)
        chunks = [chunk.splitlines() for chunk in written]
        # the header, the start and step 1 are out before step 2 is taken
        assert chunks[0] == [
            "prodcons: 3-step random run (seed 7):",
            "  start: v0 | Consumer=Empty Producer=Making | Consumer.Supply=Ask",
            "  step 1: detailed Producer: Making-produce->Full",
            "    -> v0 | Consumer=Empty Producer=Full | Consumer.Supply=Ask",
        ]
        assert [len(chunk) for chunk in chunks] == [4, 2, 2, 1]

    def test_unknown_demo(self, capsys):
        code, out, err = run_cli(capsys, "demo", "bogus")
        assert code == 1
        assert "cs-nondet" in err and "shop-migration" in err


class TestExportDot:
    def test_std_dot_stable(self, capsys):
        code1, out1, _ = run_cli(capsys, "export-dot", "cs-nondet", "--what", "std",
                                 "--component", "Scheduler")
        code2, out2, _ = run_cli(capsys, "export-dot", "cs-nondet", "--what", "std",
                                 "--component", "Scheduler")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.count("circle") >= 3

    def test_phases_dot(self, capsys):
        code, out, _ = run_cli(capsys, "export-dot", "shop-migration", "--what", "phases",
                               "--component", "Server")
        assert code == 0
        assert "Evol.NDet" in out and "Evol.RoRo" in out

    @pytest.mark.parametrize("what", ["std", "phases"])
    @pytest.mark.parametrize("argv, message", [
        ((), "--component required; model has ['Consumer', 'Producer']\n"),
        (("--component", "Nobody"), "unknown component 'Nobody'\n"),
    ], ids=["no-component", "unknown-component"])
    def test_component_diagram_needs_a_known_component_exit_1(self, capsys, what, argv, message):
        code, out, err = run_cli(capsys, "export-dot", "prodcons", "--what", what, *argv)
        assert (code, out, err) == (1, "", message)

    def test_statespace_threshold_exit_6(self, capsys):
        code, out, err = run_cli(capsys, "export-dot", "shop-migration",
                                 "--what", "statespace", "--threshold", "10")
        assert code == 6
        assert "threshold" in err

    def test_statespace_under_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "export-dot", "prodcons", "--what", "statespace")
        assert code == 0
        assert "digraph statespace" in out

    @pytest.mark.parametrize("name", sorted(BUNDLED_EXPLORE_EXITS))
    def test_statespace_matches_golden_bytes(self, capsys, name):
        code, out, _ = run_cli(capsys, "export-dot", name, "--what", "statespace")
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN_DIR / f"statespace-{name}.dot").read_bytes()

    @pytest.mark.parametrize("flag,value,least", [
        ("--max-states", "0", 1), ("--max-states", "-3", 1), ("--threshold", "-1", 0),
    ])
    def test_nonsense_statespace_bound_is_a_diagnostic(self, explore_space_calls, capsys,
                                                       flag, value, least):
        code, out, err = run_cli(capsys, "export-dot", "prodcons", "--what", "statespace",
                                 flag, value)
        assert code == 1 and out == ""
        assert err == f"error: {flag} must be at least {least}, got {value}\n"
        assert explore_space_calls == []


@pytest.mark.parametrize("site", ["model-not-utf8", "props-not-utf8", "report-out", "dot-out"])
def test_io_failure_is_an_error_exit_1(tmp_path, capsys, site):
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes("invariant inState(Producer, Müde)\n".encode("latin-1"))
    unwritable = str(tmp_path / "missing" / "out")
    argv = {
        "model-not-utf8": ("validate", str(not_utf8)),
        "props-not-utf8": ("explore", "prodcons", "--props", str(not_utf8)),
        "report-out": ("explore", "prodcons", "--report-out", unwritable),
        "dot-out": ("export-dot", "prodcons", "--what", "statespace", "--out", unwritable),
    }[site]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def cli_process(*argv, **kwargs) -> subprocess.Popen:
    """`python -m phasecoord.cli ARGV` in a child process, its standard error piped."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.Popen([sys.executable, "-m", "phasecoord.cli", *argv], env=env,
                            stderr=subprocess.PIPE, text=True, **kwargs)


def assert_one_error_line(code, err):
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [
    ("simulate", "shop-migration", "--steps", "300", "--trace-out", "/dev/full"),
    ("simulate", "shop-migration", "--steps", "300"),
    ("explore", "shop-migration"),
    ("serialize", "prodcons"),
    ("export-dot", "prodcons", "--what", "statespace"),
    ("demo", "shop-migration"),
])
def test_write_to_a_full_device_is_an_error_exit_1(argv):
    # standard output goes to the full device unless the trace does
    with open("/dev/full", "w") as full:
        child = cli_process(*argv, stdout=subprocess.DEVNULL if "--trace-out" in argv else full)
        err = child.communicate()[1]
    assert_one_error_line(child.returncode, err)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full on this system")
def test_write_to_a_full_device_is_an_io_error_under_format_json():
    with open("/dev/full", "w") as full:
        child = cli_process("--format", "json", "serialize", "prodcons", stdout=full)
        err = child.communicate()[1]
    assert child.returncode == 1
    assert json.loads(err) == [{"code": "io-error", "owner": "", "element": "",
                                "detail": "[Errno 28] No space left on device",
                                "line": 0, "column": 0}]


def test_reader_gone_after_one_line_is_an_error_exit_1():
    # the trace is longer than a pipe holds, so writing it outlives the reader
    with cli_process("simulate", "shop-migration", "--seed", "3", "--steps", "300",
                     stdout=subprocess.PIPE) as child:
        assert child.stdout.readline().startswith('{"componentStates": ')
        child.stdout.close()
        err = child.stderr.read()
    assert_one_error_line(child.returncode, err)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_standard_output_failing_after_a_failure_adds_its_io_error_exit_1(tmp_path, fmt):
    # the divergence is found while the start record still waits in standard
    # output's buffer, whose flush then finds the pipe without a reader: the
    # script's start is prodcons's, and its first step's digest is not
    start, first = (GOLDEN_DIR / "simulate-prodcons.jsonl").read_text("utf-8").splitlines()[:2]
    script = tmp_path / "diverging.jsonl"
    script.write_text(start + "\n" + json.dumps(dict(json.loads(first), digest="0" * 16)) + "\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-m", "phasecoord.cli", "--format", fmt, "simulate",
                           "prodcons", "--script", str(script)],
                          cwd=ROOT, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    os.close(write_end)
    divergence = "replay divergence at step 0: detailed Producer: Making-produce->Full\n"
    assert done.returncode == 1
    if fmt == "text":
        assert done.stderr == divergence + "error: [Errno 32] Broken pipe\n"
    else:
        assert [(d["code"], d["detail"]) for d in json.loads(done.stderr)] == [
            ("replay-divergence", divergence.rstrip("\n")),
            ("io-error", "[Errno 32] Broken pipe")]


def test_serialize_round_trips_via_cli(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "serialize", "cs-roundrobin")
    assert code == 0
    path = tmp_path / "again.pdm"
    path.write_text(out)
    code2, out2, _ = run_cli(capsys, "serialize", str(path))
    assert code2 == 0
    assert out2 == out

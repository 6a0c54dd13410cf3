"""Seeded mutation fuzz of the readers of `.pdm` models, `.pprop` property
files and `.jsonl` scripts: every mutant of a bundled or golden text ends in
a diagnostic and a contract exit code, never a traceback.  Each corpus runs
under both formats; under `--format json` a failure writes one JSON list of
diagnostics to standard error."""

import json
import random
import re
from pathlib import Path

import pytest

from phasecoord.bundled import bundled_names, get_bundled
from phasecoord.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# Non-ASCII digits and letters, a NUL, every punctuation character of the
# grammar, and whitespace.  No ASCII digit: inserting them would only grow
# family bounds, and so the run time, without reaching new parser paths.
ALPHABET = "²٣é\x00{}[]();:,.=*+-#\n \tx_"
INTEGER = re.compile(r"(?<![A-Za-z0-9_])[0-9]+")
CASES = 400
# The `.pprop` punctuation and a lone "&", "|" and "=", blanks (a no-break
# space among them), line breaks, a comment sign, ASCII digits and non-ASCII
# word characters.
PROPERTY_ALPHABET = "&|!=<>{}(),.#\n \t\xa0²٣é\x00_x09"
# JSON punctuation and escapes, digits, letters of JSON literals, blanks.
SCRIPT_ALPHABET = '{}[]":,\\ \n0a-9.eE²é\x00'
# the `simulate` arguments that replay each golden trace
SCRIPTS = {
    "simulate-prodcons.jsonl": ("prodcons",),
    "trace-shop-migration-loaded.jsonl": ("shop-migration", "--load-migration", "ShopMigr"),
}
DIAGNOSTIC_KEYS = ["code", "owner", "element", "detail", "line", "column"]
FORMATS = pytest.mark.parametrize("fmt", ["text", "json"])


def run(capsys, fmt, *argv):
    """The exit code of `phasecoord --format FMT ARGV`, a `validate`,
    `simulate` or `explore` command.  Under JSON, a failure (exit 1, 2, 3 or
    6) writes one non-empty JSON list of six-key objects to standard error,
    and a verdict (exit 4 or 5) writes nothing there."""
    code = main(["--format", fmt, *argv])
    err = capsys.readouterr().err
    if fmt == "json" and code in (4, 5):
        assert err == "", argv
    elif fmt == "json" and code != 0:
        diags = json.loads(err)
        assert isinstance(diags, list) and diags, err
        for diag in diags:
            assert isinstance(diag, dict) and sorted(diag) == sorted(DIAGNOSTIC_KEYS), err
    return code


def edit(rng, text, pos, alphabet):
    """`text` with one character inserted, deleted or replaced at `pos`."""
    op = rng.choice("idr")
    if op == "d":
        return text[:pos] + text[pos + 1:]
    return text[:pos] + rng.choice(alphabet) + text[pos + (op == "r"):]


def mutants(seed: int = 4, count: int = CASES):
    """`count` texts, each a bundled model with one to three characters
    inserted, deleted or replaced.  Half of the sites sit next to an integer
    literal, where the tokenizer's digit rule decides what the parser sees."""
    rng = random.Random(seed)
    texts = [get_bundled(name).model_text() for name in bundled_names()]
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            literals = [m.span() for m in INTEGER.finditer(text)]
            if literals and rng.random() < 0.5:
                pos = rng.choice(rng.choice(literals))
            else:
                pos = rng.randrange(len(text) + 1)
            text = edit(rng, text, pos, ALPHABET)
        yield text


def edited(rng, text, alphabet):
    """`text` with one to three characters inserted, deleted or replaced."""
    for _ in range(rng.randint(1, 3)):
        text = edit(rng, text, rng.randrange(len(text) + 1), alphabet)
    return text


@FORMATS
def test_mutated_models_end_in_a_contract_exit_code(tmp_path, capsys, fmt):
    path = tmp_path / "mutant.pdm"
    codes = set()
    for text in mutants():
        path.write_text(text, "utf-8")
        code = run(capsys, fmt, "validate", str(path))
        assert code in (0, 1, 2), text
        codes.add(code)
    # the corpus reaches the grammar, the validator and clean models alike
    assert codes == {0, 1, 2}


@FORMATS
def test_mutated_property_files_end_in_a_contract_exit_code(tmp_path, capsys, fmt):
    path = tmp_path / "mutant.pprop"
    rng = random.Random(21)
    codes = set()
    for _ in range(600):
        name = rng.choice(bundled_names())
        text = edited(rng, get_bundled(name).props_text(), PROPERTY_ALPHABET)
        path.write_text(text, "utf-8")
        code = run(capsys, fmt, "explore", name, "--props", str(path))
        assert code in (0, 1, 2, 4, 5), (name, text)
        codes.add(code)
    # syntax errors, unknown components, and properties that hold or fail
    assert codes == {0, 1, 2, 4}


@FORMATS
def test_mutated_scripts_end_in_a_contract_exit_code(tmp_path, capsys, fmt):
    path = tmp_path / "mutant.jsonl"
    rng = random.Random(22)
    traces = {name: (GOLDEN / name).read_text("utf-8") for name in SCRIPTS}
    codes = set()
    for _ in range(400):
        name = rng.choice(sorted(SCRIPTS))
        text = edited(rng, traces[name], SCRIPT_ALPHABET)
        path.write_text(text, "utf-8")
        code = run(capsys, fmt, "simulate", *SCRIPTS[name], "--script", str(path))
        assert code in (0, 1, 3), (name, text)
        codes.add(code)
    # unreadable records, divergent steps, and edits a replay never reads
    assert codes == {0, 1, 3}


@FORMATS
def test_mutated_start_records_end_in_a_contract_exit_code(tmp_path, capsys, fmt):
    # edits of the first record alone, half of them inside its digest, which
    # a replay checks against the start it replays from; 10 steps follow it
    path = tmp_path / "mutant.jsonl"
    rng = random.Random(23)
    traces = {}
    for name in SCRIPTS:
        lines = (GOLDEN / name).read_text("utf-8").splitlines(keepends=True)
        traces[name] = lines[0].rstrip("\n"), "".join(lines[1:11])
    codes = set()
    for _ in range(200):
        name = rng.choice(sorted(SCRIPTS))
        start, rest = traces[name]
        for _ in range(rng.randint(1, 3)):
            digest = re.search(r'"digest": "([^"]*)"', start)
            if digest and rng.random() < 0.5:
                pos = rng.randrange(*digest.span(1))
            else:
                pos = rng.randrange(len(start) + 1)
            start = edit(rng, start, pos, SCRIPT_ALPHABET)
        path.write_text(start + "\n" + rest, "utf-8")
        code = run(capsys, fmt, "simulate", *SCRIPTS[name], "--script", str(path))
        assert code in (0, 1, 3), (name, start)
        codes.add(code)
    # unreadable start records, other starts, and edits a replay never reads
    assert codes == {0, 1, 3}

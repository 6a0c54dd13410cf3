"""Seeded mutation fuzz of the `.pdm` front end: every mutant of a bundled
model text ends in a diagnostic and a contract exit code, never a traceback."""

import random
import re

from phasecoord.bundled import bundled_names, get_bundled
from phasecoord.cli import main

# Non-ASCII digits and letters, a NUL, every punctuation character of the
# grammar, and whitespace.  No ASCII digit: inserting them would only grow
# family bounds, and so the run time, without reaching new parser paths.
ALPHABET = "²٣é\x00{}[]();:,.=*+-#\n \tx_"
INTEGER = re.compile(r"(?<![A-Za-z0-9_])[0-9]+")
CASES = 400


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
            op = rng.choice("idr")
            if op == "i":
                text = text[:pos] + rng.choice(ALPHABET) + text[pos:]
            elif op == "d":
                text = text[:pos] + text[pos + 1:]
            else:
                text = text[:pos] + rng.choice(ALPHABET) + text[pos + 1:]
        yield text


def test_mutated_models_end_in_a_contract_exit_code(tmp_path, capsys):
    path = tmp_path / "mutant.pdm"
    codes = set()
    for text in mutants():
        path.write_text(text, "utf-8")
        code = main(["validate", str(path)])
        capsys.readouterr()
        assert code in (0, 1, 2), text
        codes.add(code)
    # the corpus reaches the grammar, the validator and clean models alike
    assert codes == {0, 1, 2}

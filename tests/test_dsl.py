"""Parser, serializer, round-trip identity, property expressions."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path


import pytest

from phasecoord.bundled import get_bundled
from phasecoord.changeset import ChangeSet, apply_changeset, canonical_model
from phasecoord.cli import main as cli_main
from phasecoord.dsl import (
    MAX_CHANGESET_DEPTH,
    ParseError,
    parse_model,
    serialize_model,
    tokenize,
)
from phasecoord.model import Configuration, initial_configuration, replace, validate_model
from phasecoord.properties import (
    CountInState,
    EventuallyAll,
    InPhase,
    InState,
    Invariant,
    ModelVersionIs,
    Not,
    Reachable,
    eval_predicate,
    parse_properties,
)

from tests.genmodels import (
    parse_one_property,
    predicate_vocabulary,
    random_model,
    random_predicate,
)
from tests.oracle import naive_tokens
from tests.test_fuzz import mutants

GOLDEN = Path(__file__).resolve().parent / "golden"

MINIMAL = """
component Blinker {
  states: On, Off;
  initial: Off;
  transitions:
    Off - flip -> On;
    On - flip -> Off;
}
"""


class TestParse:
    def test_minimal_component(self):
        result = parse_model(MINIMAL)
        assert result.ok
        model = result.model
        assert model.component_names() == ["Blinker"]
        assert model.rules == {}
        assert model.version == 0
        assert model.components["Blinker"].initial == "Off"
        assert len(model.components["Blinker"].transitions) == 2

    def test_syntax_error_carries_position(self):
        result = parse_model("component Broken {\n  states: A B;\n}")
        assert result.model is None
        (diag,) = result.diagnostics
        assert diag.code == "syntax-error"
        assert diag.line == 2
        assert diag.column > 0

    def test_trap_outside_phase_diagnosed_at_trap_span(self):
        text = """
component X {
  states: A, B;
  initial: A;
  transitions:
    A - go -> B;
  partition p {
    initial: ph;
    phase ph {
      states: A, B;
      transitions: A - go -> B;
      trap bad { C }
    }
  }
}
"""
        result = parse_model(text)
        assert result.model is not None
        codes = {d.code for d in result.diagnostics}
        assert "trap-state-outside-phase" in codes
        diag = next(d for d in result.diagnostics if d.code == "trap-state-outside-phase")
        assert diag.line == 12  # the trap declaration's line

    def test_changeset_body_does_not_move_a_diagnostic(self):
        text = """
component A {
  states: x, y;
  initial: x;
  transitions:
    x - go -> y;
  partition P {
    initial: Ph;
    phase Ph {
      states: x, y, z;
      transitions: x - go -> y;
    }
  }
}
var M = {
  add phase A.P.Ph { states: x, y; transitions: ; }
};
"""
        result = parse_model(text)
        diag = next(d for d in result.diagnostics if d.code == "phase-state-outside-std")
        assert (diag.line, diag.column) == (9, 11)  # the model's own phase, not the changeset's
        assert result.spans["phase:A.P.Ph"] == (9, 11)

    def test_duplicate_component_name(self):
        text = MINIMAL + MINIMAL.replace("component Blinker", "component Blinker")
        result = parse_model(text)
        assert any(d.code == "duplicate-name" for d in result.diagnostics)

    @pytest.mark.parametrize("text, expected", [
        ("version 1;\nversion 2;\n" + MINIMAL,
         ("syntax-error", "parse", "version", "duplicate version directive", 2, 1)),
        (MINIMAL + "var v = 1;\nvar v = 2;\n", ("duplicate-name", "var", "v", "", 10, 5)),
        (MINIMAL + "rule r: Blinker: Off - flip -> On;\nrule r: Blinker: On - flip -> Off;\n",
         ("duplicate-name", "rule", "r", "", 10, 6)),
        (MINIMAL + "var v = { remove x y; };\n",
         ("syntax-error", "parse", "x", "cannot remove 'x'", 9, 18)),
        (MINIMAL + "var v = { add x y; };\n",
         ("syntax-error", "parse", "x", "cannot add 'x'", 9, 15)),
    ], ids=["version", "var", "rule", "remove-kind", "add-kind"])
    def test_a_second_declaration_or_an_unknown_removal_is_diagnosed(self, text, expected):
        result = parse_model(text)
        assert [(d.code, d.owner, d.element, d.detail, d.line, d.column)
                for d in result.diagnostics] == [expected]

    def test_unresolved_rule_reference(self):
        text = MINIMAL + "rule r: Blinker: Off - flip -> On * Ghost(p): A - triv -> A;\n"
        result = parse_model(text)
        assert any(d.code == "unresolved-component" for d in result.diagnostics)

    def test_comments_and_version(self):
        result = parse_model("# a comment\nversion 4;\n" + MINIMAL)
        assert result.ok
        assert result.model.version == 4

    def test_every_declaration_has_a_span(self):
        result = parse_model(MINIMAL)
        assert "component:Blinker" in result.spans

    def test_spans_key_exactly_the_models_own_declarations(self, bundles):
        for name, bundle in bundles.items():
            result = bundle.parse()
            model = result.model
            expected = {f"component:{c}" for c in model.components}
            expected |= {f"rule:{r}" for r in model.rules}
            expected |= {f"var:{v}" for v in model.variables}
            for c, std in model.components.items():
                for part in std.partitions:
                    expected.add(f"partition:{c}.{part.name}")
                    for ph in part.phases:
                        expected.add(f"phase:{c}.{part.name}.{ph.name}")
                        expected |= {f"trap:{c}.{part.name}.{ph.name}.{t.name}" for t in ph.traps}
            assert set(result.spans) == expected, name
        # family members and rule instances share their declaration's span
        spans = bundles["cs-nondet"].parse().spans
        assert spans["phase:Worker1.CSRole.Crit"] == spans["phase:Worker2.CSRole.Crit"] == (19, 11)
        assert spans["rule:admit1"] == spans["rule:admit2"] == (37, 6)


class TestFamilies:
    def test_component_family_expansion(self, bundles):
        model = bundles["cs-nondet"].model()
        assert model.component_names() == ["Scheduler", "Worker1", "Worker2"]
        assert model.rule_names() == ["admit1", "admit2", "release1", "release2"]
        assert model.rules["admit2"].transfers[0].component == "Worker2"

    def test_index_arithmetic_wraps(self, bundles):
        model = bundles["cs-roundrobin"].model()
        assert model.rules["release1"].manager_step.target == "At2"
        assert model.rules["release2"].manager_step.target == "At1"  # i+1 wraps to 1

    def test_literal_index_sugar(self):
        text = """
component Worker[2] {
  states: A, B;
  initial: A;
  transitions:
    A - go -> B;
}
rule only: Worker[2]: A - go -> B;
"""
        result = parse_model(text)
        assert result.ok
        assert result.model.rules["only"].manager == "Worker2"

    def test_unbound_index_rejected(self):
        text = MINIMAL + "rule r[i]: Blinker: Off - flip -> On;\n"
        result = parse_model(text)
        assert any(d.code == "unbound-index" for d in result.diagnostics)

    def test_unbound_index_in_rule_removal_points_at_the_name(self):
        result = parse_model(MINIMAL + "var M = {\n  remove rule r[i];\n};\n")
        (diag,) = result.diagnostics
        assert (diag.code, diag.element, diag.line, diag.column) == ("unbound-index", "r", 10, 15)
        assert str(diag).startswith("10:15: unbound-index: rule r ")


class TestChangesetLiterals:
    def test_variable_holds_changeset(self, bundles):
        model = bundles["shop-migration"].model()
        assert model.variables["Crs"] == ChangeSet()
        migr = model.variables["ShopMigr"]
        assert {r.name for r in migr.add_rules} == {
            "ShopMigr_begin", "ShopMigr_shift", "ShopMigr_done"
        }
        assert migr.remove_rules == ("McPal_done",)

    def test_nested_with_reference_resolved(self, bundles):
        migr = bundles["shop-migration"].model().variables["ShopMigr"]
        done = next(r for r in migr.add_rules if r.name == "ShopMigr_done")
        shrink = done.change
        assert isinstance(shrink, ChangeSet)
        assert "serve1" in shrink.remove_rules
        assert ("Server", "Evol", "NDetFinish") in shrink.remove_phases
        assert any(r.name == "serveRR2" for r in shrink.add_rules)

    def test_declaration_order_is_not_semantic(self):
        forward = MINIMAL + """
rule r: Blinker: Off - flip -> On with Later;
var Later = {};
"""
        backward = MINIMAL + """
var Later = {};
rule r: Blinker: Off - flip -> On with Later;
"""
        a, b = parse_model(forward), parse_model(backward)
        assert a.ok and b.ok
        assert canonical_model(a.model) == canonical_model(b.model)

    def test_missing_reference_rejected(self):
        result = parse_model(MINIMAL + "rule r: Blinker: Off - flip -> On with Ghost;\n")
        assert any(d.code == "unresolved-reference" for d in result.diagnostics)

    @pytest.mark.parametrize("decls, line", [
        ("rule r: Blinker: Off - flip -> On with Ghost;\n", 9),
        ("var N = 3;\nrule r: Blinker: Off - flip -> On with N;\n", 10),
    ], ids=["undeclared", "holds-an-integer"])
    def test_a_with_clause_names_a_changeset_variable(self, decls, line):
        result = parse_model(MINIMAL + decls)
        assert [(str(d), d.detail) for d in result.diagnostics] == [(
            f"{line}:6: unresolved-reference: rule {decls.split()[-1][:-1]} "
            "(with-clause names no changeset variable)",
            "with-clause names no changeset variable")]

    def test_a_with_clause_may_name_a_variable_declared_below(self):
        result = parse_model(MINIMAL + "rule r: Blinker: Off - flip -> On with Later;\nvar Later = {};\n")
        assert result.diagnostics == [] and result.model.rules["r"].change == ChangeSet()

    def test_circular_reference_rejected(self):
        text = MINIMAL + """
var A = { add rule x: Blinker: Off - flip -> On with B; };
var B = { add rule y: Blinker: On - flip -> Off with A; };
"""
        result = parse_model(text)
        assert any(d.code == "circular-reference" for d in result.diagnostics)


class TestRoundTrip:
    def test_bundled_models(self, bundles):
        for name, bundle in bundles.items():
            model = bundle.model()
            text = serialize_model(model)
            reparsed = parse_model(text)
            assert reparsed.ok, f"{name}: {reparsed.diagnostics}"
            assert canonical_model(reparsed.model) == canonical_model(model), name

    @pytest.mark.parametrize("golden", [
        "cs-nondet", "cs-roundrobin", "prodcons", "shop-migration", "shop-migration-loaded",
    ])
    def test_serialization_matches_golden_bytes(self, golden, shop_loaded, capsys):
        """The bundled models through `phasecoord serialize`, and the shop
        with its migration loaded through `serialize_model`."""
        if golden == "shop-migration-loaded":
            text = serialize_model(shop_loaded[0])
        else:
            assert cli_main(["serialize", golden]) == 0
            text = capsys.readouterr().out
        assert text == (GOLDEN / f"{golden}.pdm").read_text("utf-8")

    def test_every_changeset_clause_round_trips_and_applies(self):
        """One `var` uses each changeset clause: the serializer is a fixed
        point on it, and the changeset applies at the initial configuration."""
        text = (GOLDEN / "changeset-clauses.pdm").read_text("utf-8")
        parsed = parse_model(text)
        assert parsed.ok, parsed.diagnostics
        assert serialize_model(parsed.model) == text
        model, change = parsed.model, parsed.model.variables["Change"]
        assert all(getattr(change, name) for name in ChangeSet._fields)
        changed, config = apply_changeset(model, initial_configuration(model), change)
        assert (sorted(changed.rules), changed.variables["Level"]) == (["dim"], 2)
        power = changed.components["Lamp"].partition_named("Power")
        assert sorted(phase.name for phase in power.phases) == ["Dim", "Free", "Stuck"]
        assert power.phase_named("Stuck").trap_named("still").states == {"Off"}
        assert config == Configuration(
            {"Lamp": "Off", "Switch": "Up", "Timer": "Idle"},
            {("Lamp", "Power"): "Free", ("Switch", "Guard"): "Open", ("Timer", "Mode"): "Once"}, 1)

    def test_what_validate_model_accepts_round_trips(self, bundles):
        """A hand-built model round-trips when `validate_model` accepts it: a
        version or an int variable the .pdm form cannot write back (a
        negative int or a bool, a version that is no int, or an int of more
        than 600 digits) is refused."""
        model = bundles["prodcons"].model()
        for edge in (replace(model, version=0, variables={"zero": 0, "big": 10 ** 600 - 1}),
                     replace(model, version=10 ** 600 - 1, variables={"one": 1})):
            assert validate_model(edge) == []
            reparsed = parse_model(serialize_model(edge))
            assert reparsed.ok, reparsed.diagnostics
            assert canonical_model(reparsed.model) == canonical_model(edge)
        for bad, code in ((replace(model, version=-1), "bad-version"),
                          (replace(model, version=True), "bad-version"),
                          (replace(model, version=1.0), "bad-version"),
                          (replace(model, variables={"v": True}), "bad-variable-value"),
                          (replace(model, variables={"v": -3}), "bad-variable-value"),
                          (replace(model, version=10 ** 600), "bad-version"),
                          (replace(model, variables={"v": 10 ** 600}), "bad-variable-value")):
            assert [d.code for d in validate_model(bad)] == [code]
            assert not parse_model(serialize_model(bad)).ok

    def test_empty_model_is_header_only(self):
        from phasecoord.model import StdModel

        text = serialize_model(StdModel({}, {}, {}, 0))
        assert text == "version 0;\n"
        assert parse_model(text).ok

    def test_random_models(self):
        for seed in range(120):
            model = random_model(seed)
            text = serialize_model(model)
            reparsed = parse_model(text)
            assert reparsed.ok, f"seed {seed}: {reparsed.diagnostics[:3]}"
            assert canonical_model(reparsed.model) == canonical_model(model), seed

    def test_random_models_do_not_depend_on_the_hash_seed(self):
        root = Path(__file__).resolve().parent.parent
        script = (
            "import hashlib\n"
            "from phasecoord.dsl import serialize_model\n"
            "from tests.genmodels import random_model\n"
            "text = ''.join(serialize_model(random_model(seed)) for seed in range(200))\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n"
        )
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
            done = subprocess.run([sys.executable, "-c", script], env=env, cwd=root,
                                  capture_output=True, text=True, check=True)
            digests.add(done.stdout)
        assert len(digests) == 1

    def test_serialization_reflects_changeset_application(self, shop_loaded):
        model, config = shop_loaded
        text = serialize_model(model)
        assert "version 1;" in text
        reparsed = parse_model(text)
        assert reparsed.ok
        assert canonical_model(reparsed.model) == canonical_model(model)
        # the loaded kick-off clause survives the round trip
        assert reparsed.model.rules["McPal_kickoff"].change is not None


class TestProperties:
    def test_invariant_count(self):
        prop = parse_one_property("invariant countInState({Worker1.InCS, Worker2.InCS}, <=, 1)")
        assert isinstance(prop, Invariant)
        assert prop.predicate == CountInState(
            (("Worker1", "InCS"), ("Worker2", "InCS")), "<=", 1
        )

    def test_eventually_all(self):
        prop = parse_one_property("eventuallyAll modelVersionIs(2) bound 500")
        assert prop == EventuallyAll(ModelVersionIs(2), 500)

    def test_syntax_error_with_column(self):
        diag = parse_one_property("invariant inPhase(Server, Evol, ")
        assert diag.code == "syntax-error"
        assert diag.column > 0

    def test_misspelt_bound_is_reported_where_it_starts(self):
        diag = parse_one_property("eventuallyAll inState(A, x) bond 3")
        assert (diag.detail, diag.column, diag.element) == ("expected 'bound N'", 29, "bond 3")

    def test_boolean_combinations(self):
        prop = parse_one_property(
            "invariant not (inState(A, x) and inPhase(A, p, q)) or inState(B, y)")
        assert isinstance(prop, Invariant)
        assert isinstance(prop.predicate, Or)

    def test_pprop_document(self, bundles):
        props, diags = parse_properties(bundles["shop-migration"].props_text())
        assert diags == []
        assert len(props) == 4
        assert isinstance(props[0], Invariant)
        assert isinstance(props[3], EventuallyAll)

    @pytest.mark.parametrize("negation", [
        "not(inState(W, a))", "not\tinState(W, a)", "!inState(W, a)", "not inState(W, a)",
    ], ids=["parenthesis", "tab", "bang", "space"])
    def test_not_is_a_word_and_bang_a_symbol(self, negation):
        props, diags = parse_properties(f"invariant {negation}\n")
        assert diags == [] and props == [Invariant(Not(InState("W", "a")))]

    def test_a_word_that_starts_with_not_is_no_negation(self):
        props, diags = parse_properties("invariant notable(W, a)\n")
        assert props == [] and [d.detail for d in diags] == ["expected an atom, found 'notable'"]

    @pytest.mark.parametrize("text,column,element", [
        ("invariant frob(A, x)", 11, "frob(A, "),
        ("frobnicate inState(A, x)", 1, "frobnica"),
        ("reachable 3", 11, "3"),
        ("invariant inState(A, x) and frob", 29, "frob"),
    ], ids=["atom", "keyword", "number-as-atom", "atom-after-and"])
    def test_a_word_error_is_placed_at_the_words_start(self, text, column, element):
        diag = parse_one_property(text)
        assert (diag.code, diag.column, diag.element) == ("syntax-error", column, element)

    @pytest.mark.parametrize("text,column,element", [
        ("    invariant frob(A, x)", 15, "frob(A, "),
        ("\tinvariant inState(A, x", 24, ""),
        ("  invariant inState(A, x) and  # a comment", 30, ""),
    ], ids=["spaces", "tab-at-end", "comment-at-end"])
    def test_columns_count_on_the_raw_line(self, text, column, element):
        """An indent moves the column; the element is the line's content
        from there, without the comment and the trailing blanks."""
        props, diags = parse_properties(f"# first\n\n{text}\n")
        assert props == [] and [(d.line, d.column, d.element) for d in diags] == [
            (3, column, element)]

    def test_a_word_that_starts_with_digits_is_an_integer_then_a_name(self):
        # the `.pdm` rule: `12abc` is the integer 12 and then the name abc
        diag = parse_one_property("reachable 12abc")
        assert (diag.detail, diag.column, diag.element) == (
            "expected an atom, found '12'", 11, "12abc")
        assert parse_one_property("eventuallyAll inState(A, x) bound 12abc").detail == (
            "trailing input after property")

    @pytest.mark.parametrize("text,column,detail", [
        ("\xa0invariant inState(A, x)", 1, "expected a property keyword, found ''"),
        ("invariant inState(A, x)\xa0", 24, "trailing input after property"),
        ("\u2003# a comment", 1, "expected a property keyword, found ''"),
    ], ids=["leading", "trailing", "before-a-comment"])
    def test_a_blank_other_than_space_or_tab_is_refused(self, text, column, detail):
        props, diags = parse_properties(text)
        assert props == [] and [(d.column, d.detail) for d in diags] == [(column, detail)]

    @pytest.mark.parametrize("text,column,element,detail", [
        ("invariant " + "not " * 250 + "x", 814, " not not", "predicate nested deeper than 200"),
        ("invariant " + "(" * 201 + "x", 212, "x", "predicate nested deeper than 200"),
        ("invariant !=inState(A, x)", 12, "=inState", "expected an atom, found ''"),
    ], ids=["after-a-not", "after-a-parenthesis", "bang-of-not-equal"])
    def test_an_error_after_a_negation_or_an_opening_is_placed_right_after_it(
            self, text, column, element, detail):
        diag = parse_one_property(text)
        assert (diag.column, diag.element, diag.detail) == (column, element, detail)

    def test_predicate_text_parses_back(self):
        rng = random.Random(18)
        for seed in range(200):
            vocabulary = predicate_vocabulary([random_model(seed)])
            # a version in the grammar is a non-negative integer
            pred = random_predicate(rng, vocabulary, [1, 4])
            for prop in (Invariant(pred), Reachable(pred), EventuallyAll(pred, seed)):
                assert parse_one_property(prop.text()) == prop

    def test_eval_atoms(self, bundles):
        model = bundles["prodcons"].model()
        config = initial_configuration(model)
        assert eval_predicate(InState("Producer", "Making"), model, config)
        assert eval_predicate(InPhase("Consumer", "Supply", "Ask"), model, config)
        assert not eval_predicate(Not(ModelVersionIs(0)), model, config)


from phasecoord.properties import Or  # noqa: E402  (used in a test above)


def test_tokenizer_positions():
    tokens = tokenize("component X {\n  states: A;\n}")
    assert tokens[0].value == "component" and tokens[0].line == 1 and tokens[0].column == 1
    states_tok = next(t for t in tokens if t.value == "states")
    assert states_tok.line == 2 and states_tok.column == 3


def test_tokenizer_integers_are_ascii_and_names_start_with_a_letter():
    tokens = tokenize("x²_1 12 _y")
    assert [(t.kind, t.value) for t in tokens] == [
        ("name", "x²_1"), ("int", "12"), ("name", "_y"), ("eof", ""),
    ]
    for text, column in [("a ²b", 3), ("a ٣", 3), ("12²", 3)]:
        with pytest.raises(ParseError) as caught:
            tokenize(text)
        assert caught.value.token.column == column


def test_end_of_input_error_ignores_a_trailing_comment():
    (diag,) = parse_model("version 0 # no semicolon").diagnostics
    assert diag.code == "syntax-error"
    assert (diag.line, diag.column) == (1, 11)


def _tokenizer_view(text):
    """`tokenize` shaped like `_naive_view`: every token as a tuple, or
    (None, the first bad character, its line, its column)."""
    try:
        return [tuple(token) for token in tokenize(text)]
    except ParseError as exc:
        return (None, exc.token.value, exc.token.line, exc.token.column)


def _naive_view(text):
    """`naive_tokens`, or its last entry when that marks a bad character."""
    tokens = naive_tokens(text)
    return tokens if tokens[-1][0] is not None else tokens[-1]


TOKENIZER_EDGE_CASES = [
    "", "# only a comment", "# only a comment\n", "\n\n", "a # trailing comment",
    "a\r\nb\r\n  c", "\ta\t->\tb", "a\n\tb # x\n c", "12²", "a ٣", "x²_1 12 _y", "é1 ½",
    "a-->b", "- >", "version 0;\n\n# end", "component X {\n  states: A;\n}", "a\x00b",
    "a\u2028b", "a\x0bb", "\r", "#\n#\r\n#",
]


def test_tokenizer_matches_a_character_scanner(bundles):
    texts = [bundle.model_text() for bundle in bundles.values()]
    texts += [path.read_text("utf-8") for path in sorted(GOLDEN.glob("*.pdm"))]
    texts += list(mutants())
    texts += TOKENIZER_EDGE_CASES
    for text in texts:
        assert _tokenizer_view(text) == _naive_view(text), text


def test_tokenizer_skips_a_megabyte_of_blanks_and_comments_in_linear_time():
    blanks = "  \t# a comment\r\n\n   #\n" * 50_000
    start = time.perf_counter()
    tokens = tokenize(blanks + "x")
    elapsed = time.perf_counter() - start
    assert len(blanks) > 1_000_000
    assert [tuple(token) for token in tokens] == [
        ("name", "x", 150_001, 1), ("eof", "", 150_001, 2)]
    assert elapsed < 0.5


def deep_changeset(depth, link):
    """The shop model with a `var Deep` whose changesets nest `depth` deep,
    each inside an added rule's `with` clause of the one before: as a
    literal (`link` "literal"), or as a reference to the next variable
    ("reference")."""
    rule = "add rule Deep: Server: Idle - orient -> At1 with"
    if link == "literal":
        body = "{}"
        for _ in range(depth - 1):
            body = f"{{ {rule} {body}; }}"
        decls = [f"var Deep = {body};"]
    else:
        names = ["Deep"] + [f"Deep{k}" for k in range(2, depth + 1)]
        decls = [f"var {a} = {{ {rule} {b}; }};" for a, b in zip(names, names[1:])]
        decls.append(f"var {names[-1]} = {{}};")
    return get_bundled("shop-migration").model_text() + "\n".join(decls) + "\n"


@pytest.mark.parametrize("link", ["literal", "reference"])
@pytest.mark.parametrize("argv", [
    ["validate"], ["serialize"], ["export-dot", "--what", "statespace"],
    ["explore", "--load-migration", "Deep"], ["simulate", "--load-migration", "Deep", "--steps", "20"],
], ids=lambda argv: argv[0])
def test_changesets_nested_to_the_limit_pass_every_walk(tmp_path, capsys, argv, link):
    path = tmp_path / "deep.pdm"
    path.write_text(deep_changeset(MAX_CHANGESET_DEPTH, link), "utf-8")
    assert cli_main([argv[0], str(path), *argv[1:]]) == 0
    out, err = capsys.readouterr()
    assert out and "Traceback" not in err
    if argv == ["serialize"]:
        assert canonical_model(parse_model(out).model) == canonical_model(
            parse_model(path.read_text("utf-8")).model)


@pytest.mark.parametrize("link, code, diagnostic", [
    ("literal", 1, ("syntax-error", "parse", "{",
                    f"changeset nested deeper than {MAX_CHANGESET_DEPTH}")),
    ("reference", 2, ("changeset-too-deep", "var", "Deep",
                      f"changesets nested deeper than {MAX_CHANGESET_DEPTH}")),
])
def test_changesets_nested_past_the_limit_are_diagnosed(tmp_path, capsys, link, code, diagnostic):
    text = deep_changeset(MAX_CHANGESET_DEPTH + 1, link)
    (diag,) = parse_model(text).diagnostics
    assert (diag.code, diag.owner, diag.element, diag.detail) == diagnostic
    if link == "literal":
        assert diag.line == text[:text.rindex("{}")].count("\n") + 1
    path = tmp_path / "deep.pdm"
    path.write_text(text, "utf-8")
    for command in ("validate", "serialize"):
        assert cli_main([command, str(path)]) == code
        out, err = capsys.readouterr()
        assert "nested deeper than" in err and "Traceback" not in err


@pytest.mark.parametrize("decl, owner", [
    ("rule Deeper: Server: Idle - orient -> At1 with { add rule R: X: a - b -> c with Deep; };",
     "rule"),
    ("var Deeper = { set Level = { add rule R: X: a - b -> c with Deep; }; };", "var"),
])
def test_literals_may_not_nest_deeper_through_a_reference(decl, owner):
    (diag,) = parse_model(deep_changeset(MAX_CHANGESET_DEPTH, "reference") + decl).diagnostics
    assert (diag.code, diag.owner, diag.element) == ("changeset-too-deep", owner, "Deeper")


def test_parse_validates_and_reports(bundles):
    # bundled texts parse to models that independently re-validate clean
    for bundle in bundles.values():
        model = bundle.model()
        assert validate_model(model) == []

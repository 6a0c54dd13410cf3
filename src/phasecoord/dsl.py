"""Textual model format: parser and canonical serializer.

Surface syntax, one declaration per construct ("#" starts a line comment):

    version 0;
    component Worker[2] {            # [2] declares a family Worker1, Worker2
      states: OutCS, Waiting, InCS;
      initial: OutCS;
      transitions:
        OutCS - request -> Waiting;
        Waiting - enter -> InCS;
      partition CSRole {
        initial: Free;
        phase Free {
          states: OutCS, Waiting;
          transitions: OutCS - request -> Waiting;
          trap asking { Waiting }
        }
      }
    }
    rule admit[i]: Scheduler: Idle - grant[i] -> Busy[i]
        * Worker[i](CSRole): Free - asking -> Crit;
    var Migr = { add rule ...; remove rule old; set Crs = {}; };

Rules may use `[i]` indices; each such rule is expanded once per member of
the referenced family, `[i+1]` wrapping around the family bound, so the
engine itself never sees an index.  Changeset literals appear as variable
values and as `with` clauses on rules; a `with NAME` clause references a
variable declared anywhere in the file (declaration order carries no
meaning; only reference cycles are rejected).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Sequence
from typing import NamedTuple, Optional, Union

from .changeset import ChangeSet
from .model import (
    MAX_INT_DIGITS,
    ConsistencyRule,
    Diagnostic,
    Partition,
    Phase,
    Record,
    RoleTransfer,
    Std,
    StdModel,
    Transition,
    Trap,
    _per_object,
    replace,
    validate_model,
)

# Largest family bound accepted: `component Worker[N]` builds N members
# before anything else is checked.
MAX_FAMILY_SIZE = 1000

# Deepest nesting of changesets accepted, by literals and by `with NAME`
# references alike: every recursive walk of a changeset stays within
# Python's default recursion limit.
MAX_CHANGESET_DEPTH = 100


class Token(NamedTuple):
    kind: str  # "name" | "int" | punctuation literal | "eof"
    value: str
    line: int
    column: int


class ParseError(Exception):
    def __init__(self, message: str, token: Token):
        self.message = message
        self.token = token
        super().__init__(f"{token.line}:{token.column}: {message}")

    def diagnostic(self) -> Diagnostic:
        return Diagnostic(
            "syntax-error", "parse", self.token.value, self.message,
            line=self.token.line, column=self.token.column,
        )


# The lexical rules `.pdm` and `.pprop` share, one match per token: blanks
# and "#" comments first (a prefix that cannot backtrack), then an ASCII
# integer (int() would also read, or choke on, other Unicode digits), a
# `\w+` word, one of the format's `punct` alternatives, or any other
# character as an `other` token.  At the end of input the token group is
# empty.
def _token_rules(punct: str) -> re.Pattern:
    return re.compile(r"""
    [ \t\r\n]* (?:\#[^\n]*[ \t\r\n]*)*
    (?: (?P<int>[0-9]+)
      | (?P<name>\w+)
      | (?P<punct>%s)
      | (?P<other>.)
    )?
""" % punct, re.VERBOSE)


def _scan(rules: re.Pattern, text: str) -> tuple[list[str], list[str], list[int]]:
    """The kinds, values and start offsets of the tokens of `text` under
    `rules`.  A punctuation token's kind is its value.  A word is a `name`
    when it starts with a letter or "_", else (as "²b" does) a `word`."""
    kinds, values, starts = [], [], []
    for m in rules.finditer(text):
        kind = m.lastgroup
        if kind is None:
            break
        value = m[kind]
        starts.append(m.start(kind))
        values.append(value)
        if kind == "punct":
            kind = value
        elif kind == "name" and not (value[0].isalpha() or value[0] == "_"):
            kind = "word"
        kinds.append(kind)
    return kinds, values, starts


_PDM_RULES = _token_rules(r"->|[-{}()\[\]:;,.=*+]")


class tokenize(Sequence):
    """The `.pdm` tokens of `text`: kinds, values and start offsets in flat
    lists.  Indexing builds a `Token`, decoding its line and column from its
    offset, which the parser does only for a diagnostic or a recorded span."""

    def __init__(self, text: str):
        self.text, self.newlines = text, None
        self.kinds, self.values, self.starts = kinds, values, starts = _scan(_PDM_RULES, text)
        # `.pdm` has no `other` token, and a name starts with a letter or "_"
        bad = [kinds.index(kind) for kind in ("other", "word") if kind in kinds]
        if bad:
            char = values[min(bad)][0]
            raise ParseError(f"unexpected character {char!r}",
                             Token("?", char, *self.position(starts[min(bad)])))
        # a comment ends the last line without moving the end-of-input column
        comment = text.find("#", text.rfind("\n") + 1)
        kinds.append("eof")
        values.append("")
        starts.append(len(text) if comment < 0 else comment)

    def position(self, offset: int) -> tuple[int, int]:
        """The line and column of a text offset, both counted from 1."""
        if self.newlines is None:
            self.newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect_left(self.newlines, offset)
        return line + 1, offset - (self.newlines[line - 1] if line else -1)

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: int) -> Token:
        return Token(self.kinds[i], self.values[i], *self.position(self.starts[i]))


# Indexable name: (base, None) plain, (base, int) literal index,
# (base, ("i", offset)) family index variable.
IName = tuple


class PRule(Record, frozen=False):
    __slots__ = ("name", "manager", "step", "transfers", "change", "token")
    name: IName
    manager: IName
    step: Transition  # of indexable names
    transfers: list[tuple[IName, ...]]  # RoleTransfer's five fields, in order
    change: Optional[Union[str, "PChangeSet"]]
    token: Token


class PChangeSet(Record, frozen=False):
    """A changeset literal as parsed.  Components, partitions, phases and
    traps are already domain values; rules, rule removals and nested
    changesets wait for the family index of the rule instance they serve."""

    __slots__ = ChangeSet._fields
    _defaults = dict.fromkeys(__slots__, [])
    add_components: list[Std]
    add_partitions: list
    add_phases: list
    add_traps: list
    add_rules: list[PRule]
    remove_rules: list[tuple[IName, Token]]  # with the name's token
    set_variables: list
    remove_phases: list
    remove_partitions: list


# A top-level component declaration: base name, family bound, the member
# components, the name token, and (kind, path, token) for every partition,
# phase and trap inside, the path relative to the component.
_ComponentDecl = tuple[str, Optional[int], list[Std], Token, list]


class _Parser:
    def __init__(self, tokens: tokenize):
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.values = tokens.values
        self.pos = 0
        self.depth = 0  # changeset literals open at this point

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.tokens[self.pos])

    def expect(self, kind: str) -> str:
        """The value of the current token, which must be of `kind`."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.fail(f"expected {kind!r}, found {self.values[pos]!r}")
        self.pos = pos + 1
        return self.values[pos]

    def at_keyword(self, word: str) -> bool:
        # only a name's value spells a word
        return self.values[self.pos] == word

    def accept(self, value: str) -> bool:
        """Whether the current token is the keyword or punctuation `value`;
        if so, moves past it."""
        if self.values[self.pos] != value:
            return False
        self.pos += 1
        return True

    def expect_keyword(self, word: str) -> None:
        if not self.accept(word):
            raise self.fail(f"expected {word!r}, found {self.values[self.pos]!r}")

    def label(self, word: str) -> None:
        """A body field's `word:` prefix."""
        self.expect_keyword(word)
        self.expect(":")

    def name(self) -> str:
        return self.expect("name")

    def integer(self) -> int:
        pos = self.pos
        value = self.expect("int")
        if len(value) > MAX_INT_DIGITS:
            raise ParseError(f"integer longer than {MAX_INT_DIGITS} digits",
                             self.tokens[pos]._replace(value=value[:8]))
        return int(value)

    def iname(self) -> IName:
        base = self.name()
        if not self.accept("["):
            return (base, None)
        if self.at("int"):
            idx: object = self.integer()
        elif self.accept("i"):
            offset = 0
            if self.accept("+"):
                offset = self.integer()
            idx = ("i", offset)
        else:
            raise self.fail("expected index: an integer, i, or i+K")
        self.expect("]")
        return (base, idx)

    def name_list(self, stop: str) -> list[str]:
        out: list[str] = []
        if self.at(stop):
            return out
        out.append(self.name())
        while self.accept(","):
            out.append(self.name())
        return out

    def transition(self, part) -> Transition:
        """`source - action -> target`, each part read by `part`: `name` in
        bodies, `iname` in rules (whose steps hold indexable names until
        their family index is resolved)."""
        src = part()
        self.expect("-")
        act = part()
        self.expect("->")
        tgt = part()
        return Transition(src, act, tgt)

    def dotted(self, parts: int) -> list[str]:
        out = [self.name()]
        for _ in range(parts - 1):
            self.expect(".")
            out.append(self.name())
        return out

    def declared(self, kind: str, parent: str, marks: list) -> tuple[str, str]:
        """A nested declaration's name and its path below the component,
        noting the name's position in `marks`."""
        tok = self.tokens[self.pos]
        name = self.name()
        path = f"{parent}.{name}" if parent else name
        marks.append((kind, path, tok))
        return name, path

    # -- bodies ----------------------------------------------------------------

    def component_body(self, name: str, marks: list) -> Std:
        self.expect("{")
        self.label("states")
        states = self.name_list(";")
        self.expect(";")
        self.label("initial")
        initial = self.name()
        self.expect(";")
        self.label("transitions")
        transitions = []
        while self.at("name") and not self.at_keyword("partition"):
            transitions.append(self.transition(self.name))
            self.expect(";")
        partitions = []
        while self.accept("partition"):
            partitions.append(self.partition_body(*self.declared("partition", "", marks), marks))
        self.expect("}")
        return Std(
            name=name,
            states=frozenset(states),
            actions=frozenset(t.action for t in transitions),
            transitions=frozenset(transitions),
            initial=initial,
            partitions=tuple(partitions),
        )

    def partition_body(self, name: str, path: str, marks: list) -> Partition:
        self.expect("{")
        self.label("initial")
        initial = self.name()
        self.expect(";")
        phases = []
        while self.accept("phase"):
            phases.append(self.phase_body(*self.declared("phase", path, marks), marks))
        self.expect("}")
        return Partition(name=name, initial=initial, phases=tuple(phases))

    def phase_body(self, name: str, path: str, marks: list) -> Phase:
        self.expect("{")
        self.label("states")
        states = self.name_list(";")
        self.expect(";")
        self.label("transitions")
        transitions = []
        if self.at("name"):
            transitions.append(self.transition(self.name))
            while self.accept(","):
                transitions.append(self.transition(self.name))
        self.expect(";")
        traps = []
        while self.accept("trap"):
            traps.append(self.trap_body(self.declared("trap", path, marks)[0]))
        self.expect("}")
        return Phase(name=name, states=frozenset(states),
                     transitions=frozenset(transitions), traps=tuple(traps))

    def trap_body(self, name: str) -> Trap:
        self.expect("{")
        states = self.name_list("}")
        self.expect("}")
        return Trap(name, frozenset(states))

    # -- declarations ----------------------------------------------------------

    def component_decl(self) -> _ComponentDecl:
        """`NAME [N]? { ... }` after the `component` keyword; a family
        declares the members NAME1 .. NAMEN with one shared body."""
        tok = self.tokens[self.pos]
        name = self.name()
        bound = None
        if self.accept("["):
            pos = self.pos
            bound = self.integer()
            if bound > MAX_FAMILY_SIZE:
                raise ParseError(f"family bound {bound} above {MAX_FAMILY_SIZE}", self.tokens[pos])
            self.expect("]")
        marks: list = []
        std = self.component_body(name, marks)
        members = [std] if bound is None else [
            replace(std, name=f"{name}{k}") for k in range(1, bound + 1)
        ]
        return name, bound, members, tok, marks

    def binding(self) -> tuple[str, object, Token]:
        """`NAME = value;` after `var` or `set`: an integer or a changeset."""
        tok = self.tokens[self.pos]
        name = self.name()
        self.expect("=")
        if self.at("{"):
            value: object = self.changeset_literal()
        else:
            value = self.integer()
        self.expect(";")
        return name, value, tok

    def rule_decl(self) -> PRule:
        """The rest of a rule after its `rule` keyword."""
        tok = self.tokens[self.pos]
        name = self.iname()
        self.expect(":")
        manager = self.iname()
        self.expect(":")
        step = self.transition(self.iname)
        transfers = []
        while self.accept("*"):
            comp = self.iname()
            self.expect("(")
            part = self.iname()
            self.expect(")")
            self.expect(":")
            source = self.iname()
            self.expect("-")
            trap = self.iname()
            self.expect("->")
            target = self.iname()
            transfers.append((comp, part, source, trap, target))
        change: Optional[Union[str, PChangeSet]] = None
        if self.accept("with"):
            if self.at("{"):
                change = self.changeset_literal()
            else:
                change = self.name()
        self.expect(";")
        return PRule(name=name, manager=manager, step=step, transfers=transfers,
                     change=change, token=tok)

    def changeset_literal(self) -> PChangeSet:
        if self.depth == MAX_CHANGESET_DEPTH:
            raise self.fail(f"changeset nested deeper than {MAX_CHANGESET_DEPTH}")
        self.depth += 1
        self.expect("{")
        cs = PChangeSet()
        while not self.at("}"):
            start = self.pos
            if self.accept("add"):
                kind = self.name()
                if kind == "component":
                    cs.add_components.extend(self.component_decl()[2])
                elif kind == "partition":
                    comp, pname = self.dotted(2)
                    cs.add_partitions.append((comp, self.partition_body(pname, pname, [])))
                elif kind == "phase":
                    comp, part, phname = self.dotted(3)
                    cs.add_phases.append((comp, part, self.phase_body(phname, phname, [])))
                elif kind == "trap":
                    comp, part, phname, tname = self.dotted(4)
                    cs.add_traps.append((comp, part, phname, self.trap_body(tname)))
                elif kind == "rule":
                    cs.add_rules.append(self.rule_decl())
                else:
                    raise ParseError(f"cannot add {kind!r}", self.tokens[start + 1])
            elif self.accept("remove"):
                kind = self.name()
                if kind == "rule":
                    name_tok = self.tokens[self.pos]
                    cs.remove_rules.append((self.iname(), name_tok))
                elif kind == "phase":
                    cs.remove_phases.append(tuple(self.dotted(3)))
                elif kind == "partition":
                    cs.remove_partitions.append(tuple(self.dotted(2)))
                else:
                    raise ParseError(f"cannot remove {kind!r}", self.tokens[start + 1])
                self.expect(";")
            elif self.accept("set"):
                cs.set_variables.append(self.binding()[:2])
            else:
                raise self.fail(f"expected add/remove/set, found {self.values[start]!r}")
        self.expect("}")
        self.depth -= 1
        return cs

    def document(self) -> tuple[int, list[_ComponentDecl], list, list[PRule]]:
        """The version and each kind of declaration in document order."""
        version = None
        components: list[_ComponentDecl] = []
        variables: list[tuple[str, object, Token]] = []
        rules: list[PRule] = []
        while not self.at("eof"):
            if self.at_keyword("version"):
                if version is not None:
                    raise self.fail("duplicate version directive")
                self.pos += 1
                version = self.integer()
                self.expect(";")
            elif self.accept("component"):
                components.append(self.component_decl())
            elif self.accept("rule"):
                rules.append(self.rule_decl())
            elif self.accept("var"):
                variables.append(self.binding())
            else:
                raise self.fail(f"expected a declaration, found {self.values[self.pos]!r}")
        return version or 0, components, variables, rules


# -- index expansion -----------------------------------------------------------


class _Builder:
    """Resolves family indices in rules and changesets."""

    def __init__(self):
        self.diags: list[Diagnostic] = []
        self.families: dict[str, int] = {}
        self.variables: dict[str, object] = {}

    def error(self, code: str, owner: str, element: str, token: Token, detail: str = ""):
        self.diags.append(
            Diagnostic(code, owner, element, detail, line=token.line, column=token.column)
        )

    def too_deep(self, cs: Optional[ChangeSet], owner: str, name: str, token: Token) -> bool:
        """Whether changesets nest in `cs` deeper than MAX_CHANGESET_DEPTH,
        which `with NAME` references reach though each literal stays within
        it; if so, noted."""
        if cs is None or _nesting(cs) <= MAX_CHANGESET_DEPTH:
            return False
        self.error("changeset-too-deep", owner, name, token,
                   f"changesets nested deeper than {MAX_CHANGESET_DEPTH}")
        return True

    def resolve_iname(self, iname: IName, index: Optional[int], bound: Optional[int],
                      token: Token) -> str:
        base, idx = iname
        if idx is None:
            return base
        if isinstance(idx, int):
            return f"{base}{idx}"
        _, offset = idx
        if index is None or bound is None:
            self.error("unbound-index", "rule", base, token,
                       "index variable used in a rule that references no family")
            return base
        resolved = ((index - 1 + offset) % bound) + 1
        return f"{base}{resolved}"

    def rule_bound(self, prule: PRule) -> Optional[int]:
        """Family bound for a rule using [i]: taken from the family the rule
        itself references; mixed bounds are rejected."""
        inames = [prule.name, prule.manager, *prule.step]
        for tr in prule.transfers:
            inames += tr
        uses_var = any(isinstance(idx, tuple) for _, idx in inames)
        if not uses_var:
            return None
        bounds = {self.families[base] for base, idx in inames
                  if isinstance(idx, tuple) and base in self.families}
        if len(bounds) != 1:
            self.error("unbound-index", "rule", prule.name[0], prule.token,
                       "cannot determine a unique family bound")
            return None
        return bounds.pop()

    def rule_instances(self, prule: PRule, index: Optional[int] = None,
                       bound: Optional[int] = None) -> list[ConsistencyRule]:
        """The rules a declaration stands for: one per family member when it
        uses [i] itself, unless the rule instance whose changeset holds it
        already fixes the index."""
        own = self.rule_bound(prule)
        if own is not None and index is None:
            return [self.build_rule(prule, k, own) for k in range(1, own + 1)]
        return [self.build_rule(prule, index, bound)]

    def build_rule(self, prule: PRule, index: Optional[int], bound: Optional[int]) -> ConsistencyRule:
        tok = prule.token

        def res(iname: IName) -> str:
            return self.resolve_iname(iname, index, bound, tok)

        name = res(prule.name)
        change = None
        if prule.change is not None:
            if isinstance(prule.change, str):
                value = self.variables.get(prule.change)
                if not isinstance(value, ChangeSet):
                    self.error("unresolved-reference", "rule", prule.change, tok,
                               "with-clause names no changeset variable")
                else:
                    change = value
            else:
                change = self.build_changeset(prule.change, index, bound)
        return ConsistencyRule(
            name=name,
            manager=res(prule.manager),
            manager_step=Transition(*map(res, prule.step)),
            transfers=tuple(RoleTransfer(*map(res, t)) for t in prule.transfers),
            change=change,
        )

    def build_changeset(self, pcs: PChangeSet, index: Optional[int] = None,
                        bound: Optional[int] = None) -> ChangeSet:
        return ChangeSet(
            add_components=tuple(pcs.add_components),
            add_partitions=tuple(pcs.add_partitions),
            add_phases=tuple(pcs.add_phases),
            add_traps=tuple(pcs.add_traps),
            add_rules=tuple(
                rule for prule in pcs.add_rules
                for rule in self.rule_instances(prule, index, bound)
            ),
            remove_rules=tuple(
                self.resolve_iname(name, index, bound, tok) for name, tok in pcs.remove_rules
            ),
            set_variables=tuple(
                (name, self.build_changeset(v, index, bound) if isinstance(v, PChangeSet) else v)
                for name, v in pcs.set_variables
            ),
            remove_phases=tuple(pcs.remove_phases),
            remove_partitions=tuple(pcs.remove_partitions),
        )


@_per_object
def _nesting(cs: ChangeSet) -> int:
    """How deep changesets nest in `cs`, itself included; kept per object,
    so a chain of `with NAME` references is walked once per link."""
    inner = [rule.change for rule in cs.add_rules if rule.change is not None]
    inner += [value for _, value in cs.set_variables if isinstance(value, ChangeSet)]
    return 1 + max(map(_nesting, inner), default=0)


def _var_references(value) -> set[str]:
    """Names of variables a changeset body refers to via rule with-clauses."""
    if not isinstance(value, PChangeSet):
        return set()
    out: set[str] = set()
    for prule in value.add_rules:
        if isinstance(prule.change, str):
            out.add(prule.change)
        elif prule.change is not None:
            out |= _var_references(prule.change)
    for _, nested in value.set_variables:
        out |= _var_references(nested)
    return out


def _dependency_order(var_decls: list, builder: "_Builder") -> list:
    """Variables sorted so every reference is built before its referrer;
    members of reference cycles are dropped with a diagnostic."""
    pending = {name: (value, token) for name, value, token in var_decls}
    deps = {name: _var_references(value) & set(pending) for name, value, _ in var_decls}
    ordered = []
    while pending:
        ready = [n for n in pending if not (deps[n] & set(pending))]
        if not ready:
            for name in sorted(pending):
                builder.error("circular-reference", "var", name, pending[name][1])
            break
        for name, _, token in var_decls:
            if name in ready:
                value, token = pending.pop(name)
                ordered.append((name, value, token))
    return ordered


class ParseResult(Record, frozen=False):
    __slots__ = ("model", "diagnostics", "spans")
    _defaults = {"spans": {}}
    model: Optional[StdModel]
    diagnostics: list[Diagnostic]
    spans: dict[str, tuple[int, int]]

    @property
    def ok(self) -> bool:
        return self.model is not None and not self.diagnostics


def _locate(diag: Diagnostic, spans: dict[str, tuple[int, int]]) -> Diagnostic:
    """Best-effort source span for a validator diagnostic."""
    candidates = [
        f"trap:{diag.owner}.{diag.element.split('.')[0]}",
        f"phase:{diag.owner}",
        f"partition:{diag.owner}",
        f"rule:{diag.owner}",
        f"component:{diag.owner}",
        f"var:{diag.owner}",
        f"component:{diag.owner.split('.')[0]}",
    ]
    for key in candidates:
        if key in spans:
            line, col = spans[key]
            return Diagnostic(diag.code, diag.owner, diag.element, diag.detail, line, col)
    return diag


def parse_model(text: str) -> ParseResult:
    """Parse a document; on grammatical success the model is also validated
    and any validator diagnostics are attached with the source spans of the
    model's own declarations."""
    try:
        version, component_decls, var_decls, rule_decls = _Parser(tokenize(text)).document()
    except ParseError as exc:
        return ParseResult(model=None, diagnostics=[exc.diagnostic()])
    builder = _Builder()
    spans: dict[str, tuple[int, int]] = {}
    components: dict[str, Std] = {}
    rules: dict[str, ConsistencyRule] = {}
    # declaration order is not semantic: components (and family bounds) are
    # registered first, then variables in reference-dependency order, then
    # rules, so any declaration may reference any other
    for name, bound, members, token, marks in component_decls:
        if bound is not None:
            builder.families[name] = bound
        for std in members:
            if std.name in components:
                builder.error("duplicate-name", "component", std.name, token)
                continue
            components[std.name] = std
            spans[f"component:{std.name}"] = (token.line, token.column)
            for kind, path, tok in marks:
                spans[f"{kind}:{std.name}.{path}"] = (tok.line, tok.column)
    unique_vars = []
    for name, value, token in var_decls:
        if f"var:{name}" in spans:
            builder.error("duplicate-name", "var", name, token)
            continue
        spans[f"var:{name}"] = (token.line, token.column)
        unique_vars.append((name, value, token))
    for name, value, token in _dependency_order(unique_vars, builder):
        if isinstance(value, PChangeSet):
            value = builder.build_changeset(value)
            if builder.too_deep(value, "var", name, token):
                continue
        builder.variables[name] = value
    for prule in rule_decls:
        for rule in builder.rule_instances(prule):
            spans[f"rule:{rule.name}"] = (prule.token.line, prule.token.column)
            if rule.name in rules:
                builder.error("duplicate-name", "rule", rule.name, prule.token)
                continue
            if not builder.too_deep(rule.change, "rule", rule.name, prule.token):
                rules[rule.name] = rule
    model = StdModel(
        components=components,
        rules=rules,
        variables=dict(builder.variables),
        version=version,
    )
    diags = list(builder.diags)
    diags.extend(_locate(d, spans) for d in validate_model(model))
    return ParseResult(model=model, diagnostics=diags, spans=spans)


# -- serialization ---------------------------------------------------------


def _fmt_transition(t: Transition) -> str:
    return f"{t.source} - {t.action} -> {t.target}"


def _serialize_trap(header: str, trap: Trap) -> str:
    return f"{header} {{ {', '.join(sorted(trap.states))} }}"


def _serialize_phase(header: str, phase: Phase, indent: str) -> list[str]:
    lines = [f"{indent}{header} {{"]
    lines.append(f"{indent}  states: {', '.join(sorted(phase.states))};")
    trans = ", ".join(_fmt_transition(t) for t in sorted(phase.transitions))
    lines.append(f"{indent}  transitions: {trans};" if trans else f"{indent}  transitions: ;")
    for trap in sorted(phase.traps, key=lambda t: t.name):
        lines.append(f"{indent}  {_serialize_trap(f'trap {trap.name}', trap)}")
    lines.append(f"{indent}}}")
    return lines


def _serialize_partition(header: str, part: Partition, indent: str) -> list[str]:
    lines = [f"{indent}{header} {{", f"{indent}  initial: {part.initial};"]
    for phase in sorted(part.phases, key=lambda p: p.name):
        lines.extend(_serialize_phase(f"phase {phase.name}", phase, indent + "  "))
    lines.append(f"{indent}}}")
    return lines


def _serialize_component(header: str, std: Std, indent: str) -> list[str]:
    inner = indent + "  "
    lines = [f"{indent}{header} {{", f"{inner}states: {', '.join(sorted(std.states))};"]
    lines.append(f"{inner}initial: {std.initial};")
    lines.append(f"{inner}transitions:")
    for t in sorted(std.transitions):
        lines.append(f"{inner}  {_fmt_transition(t)};")
    for part in sorted(std.partitions, key=lambda p: p.name):
        lines.extend(_serialize_partition(f"partition {part.name}", part, inner))
    lines.append(f"{indent}}}")
    return lines


def _serialize_rule(rule: ConsistencyRule) -> str:
    parts = [f"rule {rule.name}: {rule.manager}: {_fmt_transition(rule.manager_step)}"]
    for tr in rule.transfers:
        parts.append(
            f"    * {tr.component}({tr.partition}): {tr.source} - {tr.trap} -> {tr.target}"
        )
    text = "\n".join(parts)
    if rule.change is not None:
        text += f"\n    with {_serialize_changeset(rule.change, '    ')}"
    return text + ";"


def _serialize_value(value: object, indent: str) -> str:
    """The right-hand side of a `var` or `set` binding."""
    if isinstance(value, ChangeSet):
        return _serialize_changeset(value, indent)
    return f"{value}"


def _serialize_changeset(cs: ChangeSet, indent: str) -> str:
    inner = indent + "  "
    lines = ["{"]
    for std in sorted(cs.add_components, key=lambda s: s.name):
        lines.extend(_serialize_component(f"add component {std.name}", std, inner))
    for comp, part in sorted(cs.add_partitions, key=lambda x: (x[0], x[1].name)):
        lines.extend(_serialize_partition(f"add partition {comp}.{part.name}", part, inner))
    for comp, pname, phase in sorted(cs.add_phases, key=lambda x: (x[0], x[1], x[2].name)):
        lines.extend(_serialize_phase(f"add phase {comp}.{pname}.{phase.name}", phase, inner))
    for comp, pname, phname, trap in sorted(cs.add_traps, key=lambda x: (x[0], x[1], x[2], x[3].name)):
        lines.append(f"{inner}{_serialize_trap(f'add trap {comp}.{pname}.{phname}.{trap.name}', trap)}")
    for name, value in sorted(cs.set_variables):
        lines.append(f"{inner}set {name} = {_serialize_value(value, inner)};")
    for rule in sorted(cs.add_rules, key=lambda r: r.name):
        lines.append(f"{inner}add {_serialize_rule(rule)}")
    for name in sorted(cs.remove_rules):
        lines.append(f"{inner}remove rule {name};")
    for comp, pname, phname in sorted(cs.remove_phases):
        lines.append(f"{inner}remove phase {comp}.{pname}.{phname};")
    for comp, pname in sorted(cs.remove_partitions):
        lines.append(f"{inner}remove partition {comp}.{pname};")
    lines.append(f"{indent}}}")
    return "\n".join(lines)


def serialize_model(model: StdModel) -> str:
    """Canonical text: sorted declarations, expanded families, inlined
    clauses.  parse_model(serialize_model(m)) is structurally equal to m."""
    lines = [f"version {model.version};", ""]
    for name in sorted(model.components):
        lines.extend(_serialize_component(f"component {name}", model.components[name], ""))
        lines.append("")
    for name in sorted(model.rules):
        lines.append(_serialize_rule(model.rules[name]))
        lines.append("")
    for name in sorted(model.variables):
        lines.append(f"var {name} = {_serialize_value(model.variables[name], '')};")
        lines.append("")
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"

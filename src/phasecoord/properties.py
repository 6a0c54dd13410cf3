"""Checkable properties over explored state spaces.

Three property forms:

    invariant <pred>                 holds in every reachable state
    reachable <pred>                 some reachable state satisfies it
    eventuallyAll <pred> bound N     from every reachable state a satisfying
                                     state stays reachable within N steps

Predicates are boolean combinations (and/or/not, parentheses) of the atoms
inState(C, s), inPhase(C, P, ph), countInState({C.s, ...}, <=, n) and
modelVersionIs(n).  One property per line in a .pprop file; "#" comments.

`compile_predicate` is the one evaluator: it turns a predicate into a test
over the slots of one model's layout (see `model.SlotLayout`), built once
per model, so a sweep over an explored space builds no state's `detailed`
view.  `eval_predicate` decides one configuration through it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Union

from .model import MAX_INT_DIGITS, Configuration, Diagnostic, StdModel

COMPARATORS = ("<=", ">=", "==", "!=", "<", ">")
# Deepest predicate accepted: open parentheses, `not`s and and/or chain
# links around any point of it.  Parsing and evaluation recurse once per
# level, so this keeps both far from Python's recursion limit.
MAX_PREDICATE_DEPTH = 200


class PropertyError(Exception):
    pass


@dataclass(frozen=True)
class InState:
    component: str
    state: str

    def text(self) -> str:
        return f"inState({self.component}, {self.state})"


@dataclass(frozen=True)
class InPhase:
    component: str
    partition: str
    phase: str

    def text(self) -> str:
        return f"inPhase({self.component}, {self.partition}, {self.phase})"


@dataclass(frozen=True)
class CountInState:
    pairs: tuple[tuple[str, str], ...]
    op: str
    bound: int

    def text(self) -> str:
        items = ", ".join(f"{c}.{s}" for c, s in self.pairs)
        return f"countInState({{{items}}}, {self.op}, {self.bound})"


@dataclass(frozen=True)
class ModelVersionIs:
    version: int

    def text(self) -> str:
        return f"modelVersionIs({self.version})"


@dataclass(frozen=True)
class Not:
    operand: "Predicate"

    def text(self) -> str:
        return f"not {self.operand.text()}"


@dataclass(frozen=True)
class And:
    left: "Predicate"
    right: "Predicate"

    def text(self) -> str:
        return f"({self.left.text()} and {self.right.text()})"


@dataclass(frozen=True)
class Or:
    left: "Predicate"
    right: "Predicate"

    def text(self) -> str:
        return f"({self.left.text()} or {self.right.text()})"


# `|`, not `typing.Union`, which would keep these classes for good; see
# `engine.StepLabel`.
Predicate = InState | InPhase | CountInState | ModelVersionIs | Not | And | Or


@dataclass(frozen=True)
class Invariant:
    predicate: Predicate

    def text(self) -> str:
        return f"invariant {self.predicate.text()}"


@dataclass(frozen=True)
class Reachable:
    predicate: Predicate

    def text(self) -> str:
        return f"reachable {self.predicate.text()}"


@dataclass(frozen=True)
class EventuallyAll:
    predicate: Predicate
    bound: int

    def text(self) -> str:
        return f"eventuallyAll {self.predicate.text()} bound {self.bound}"


PropertyExpr = Invariant | Reachable | EventuallyAll


def _unknown_component(name: str, atom: Predicate) -> str:
    return f"{atom.text()}: unknown component {name}"


# A compiled predicate: a test over the slots of one model's layout.
SlotTest = Callable[[tuple], bool]

_COMPARE = {
    "<=": operator.le, "<": operator.lt, "==": operator.eq,
    ">=": operator.ge, ">": operator.gt, "!=": operator.ne,
}


def never(slots: tuple) -> bool:
    """The test no configuration passes."""
    return False


def _raising(message: str) -> SlotTest:
    def test(slots: tuple) -> bool:
        raise PropertyError(message)
    return test


def _slot_equals(slot: int, value: int) -> SlotTest:
    return lambda slots: slots[slot] == value


def compile_predicate(pred: Predicate, model: StdModel) -> SlotTest:
    """`pred` as a test over the slots of `model.layout`.

    An atom naming a component the model lacks compiles to a test that
    raises `PropertyError` when it is reached, so and/or keep their
    short-circuit order.  An unknown state, role or phase compiles to a test
    that never passes."""
    layout = model.layout
    if isinstance(pred, InState):
        if pred.component not in model.components:
            return _raising(_unknown_component(pred.component, pred))
        slot = layout.slot[pred.component]
        index = layout.index[slot].get(pred.state)
        return never if index is None else _slot_equals(slot, index)
    if isinstance(pred, InPhase):
        if pred.component not in model.components:
            return _raising(_unknown_component(pred.component, pred))
        slot = layout.slot.get((pred.component, pred.partition))
        if slot is None:
            return never
        index = layout.index[slot].get(pred.phase)
        return never if index is None else _slot_equals(slot, index)
    if isinstance(pred, CountInState):
        pairs = []
        for comp, state in pred.pairs:
            if comp not in model.components:
                return _raising(_unknown_component(comp, pred))
            slot = layout.slot[comp]
            index = layout.index[slot].get(state)
            if index is not None:  # an unknown state never counts
                pairs.append((slot, index))
        compare, bound, pairs = _COMPARE[pred.op], pred.bound, tuple(pairs)
        return lambda slots: compare(sum([slots[i] == v for i, v in pairs]), bound)
    if isinstance(pred, ModelVersionIs):
        return _slot_equals(0, pred.version)
    if isinstance(pred, Not):
        operand = compile_predicate(pred.operand, model)
        return lambda slots: not operand(slots)
    if isinstance(pred, And):
        left, right = compile_predicate(pred.left, model), compile_predicate(pred.right, model)
        return lambda slots: left(slots) and right(slots)
    if isinstance(pred, Or):
        left, right = compile_predicate(pred.left, model), compile_predicate(pred.right, model)
        return lambda slots: left(slots) or right(slots)
    return _raising(f"unknown predicate node {pred!r}")


def eval_predicate(pred: Predicate, model: StdModel, config: Configuration) -> bool:
    """`pred` at one configuration: its `compile_predicate` test on the
    configuration's slots.  A configuration that does not fit `model.layout`
    raises `PropertyError` naming its first entry that does not fit."""
    slots = config.slots_in(model.layout)
    if slots is None:
        raise PropertyError(model.layout.misfit(config.key()))
    return compile_predicate(pred, model)(slots)


class _Scanner:
    def __init__(self, text: str, line: int = 1):
        self.text = text
        self.pos = 0
        self.line = line
        self.depth = 0

    def nest(self, levels: int):
        """Enter (or, with a negative count, leave) predicate nesting levels."""
        self.depth += levels
        if self.depth > MAX_PREDICATE_DEPTH:
            raise _PropParseError(self.error(f"predicate nested deeper than {MAX_PREDICATE_DEPTH}"))

    def error(self, message: str, word: str = "") -> Diagnostic:
        """A syntax error where the scanner is, or where `word` starts when
        it is the word just taken."""
        self.pos -= len(word)
        return Diagnostic("syntax-error", "property", self.text[self.pos:self.pos + 8],
                          message, line=self.line, column=self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def take_word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def take_name(self) -> str:
        """A word that starts with a letter or "_", as a `.pdm` name does."""
        name = self.take_word()
        if not (name[:1].isalpha() or name[:1] == "_"):
            raise _PropParseError(self.error("expected a name", name))
        return name

    def take_keyword(self, word: str) -> bool:
        """Take `word` when it is the next whole word, as "not" in "not(" but
        not in "notable"."""
        saved = self.pos
        if self.take_word() == word:
            return True
        self.pos = saved
        return False

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def require(self, literal: str):
        if not self.take(literal):
            raise _PropParseError(self.error(f"expected {literal!r}"))

    def take_int(self) -> int:
        self.skip_ws()
        start = self.pos
        # ASCII digits only: int() would also read (or choke on) other Unicode digits
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if start == self.pos:
            raise _PropParseError(self.error("expected an integer"))
        if self.pos - start > MAX_INT_DIGITS:
            self.pos = start
            raise _PropParseError(self.error(f"integer longer than {MAX_INT_DIGITS} digits"))
        return int(self.text[start:self.pos])


class _PropParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


def _parse_atom(sc: _Scanner) -> Predicate:
    if sc.take("("):
        sc.nest(1)
        inner = _parse_or(sc)
        sc.require(")")
        sc.nest(-1)
        return inner
    if sc.take_keyword("not") or sc.take("!"):
        sc.nest(1)
        operand = _parse_atom(sc)
        sc.nest(-1)
        return Not(operand)
    word = sc.take_word()
    if word == "inState":
        sc.require("(")
        comp = sc.take_name()
        sc.require(",")
        state = sc.take_name()
        sc.require(")")
        return InState(comp, state)
    if word == "inPhase":
        sc.require("(")
        comp = sc.take_name()
        sc.require(",")
        part = sc.take_name()
        sc.require(",")
        phase = sc.take_name()
        sc.require(")")
        return InPhase(comp, part, phase)
    if word == "countInState":
        sc.require("(")
        sc.require("{")
        pairs = []
        while True:
            comp = sc.take_name()
            sc.require(".")
            state = sc.take_name()
            pairs.append((comp, state))
            if not sc.take(","):
                break
        sc.require("}")
        sc.require(",")
        sc.skip_ws()
        op = next((c for c in COMPARATORS if sc.take(c)), None)
        if op is None:
            raise _PropParseError(sc.error("expected a comparator"))
        sc.require(",")
        bound = sc.take_int()
        sc.require(")")
        return CountInState(tuple(pairs), op, bound)
    if word == "modelVersionIs":
        sc.require("(")
        version = sc.take_int()
        sc.require(")")
        return ModelVersionIs(version)
    raise _PropParseError(sc.error(f"expected an atom, found {word!r}", word))


def _parse_and(sc: _Scanner) -> Predicate:
    left = _parse_atom(sc)
    links = 0
    while True:
        if not (sc.take_keyword("and") or sc.take("&&")):
            sc.nest(-links)
            return left
        links += 1
        sc.nest(1)
        left = And(left, _parse_atom(sc))


def _parse_or(sc: _Scanner) -> Predicate:
    left = _parse_and(sc)
    links = 0
    while True:
        if not (sc.take_keyword("or") or sc.take("||")):
            sc.nest(-links)
            return left
        links += 1
        sc.nest(1)
        left = Or(left, _parse_and(sc))


def parse_property(text: str, line: int = 1) -> Union[PropertyExpr, Diagnostic]:
    """One property expression; returns a Diagnostic on syntax errors."""
    sc = _Scanner(text, line)
    try:
        head = sc.take_word()
        if head == "invariant":
            prop: PropertyExpr = Invariant(_parse_or(sc))
        elif head == "reachable":
            prop = Reachable(_parse_or(sc))
        elif head == "eventuallyAll":
            pred = _parse_or(sc)
            sc.skip_ws()  # so a word other than "bound" is reported where it starts
            if not sc.take_keyword("bound"):
                raise _PropParseError(sc.error("expected 'bound N'"))
            prop = EventuallyAll(pred, sc.take_int())
        else:
            raise _PropParseError(sc.error(f"expected a property keyword, found {head!r}", head))
        if not sc.at_end():
            raise _PropParseError(sc.error("trailing input after property"))
        return prop
    except _PropParseError as exc:
        return exc.diagnostic


def parse_properties(text: str) -> tuple[list[PropertyExpr], list[Diagnostic]]:
    """A .pprop document: one property per non-empty, non-comment line."""
    props: list[PropertyExpr] = []
    diags: list[Diagnostic] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        result = parse_property(line, lineno)
        if isinstance(result, Diagnostic):
            diags.append(result)
        else:
            props.append(result)
    return props, diags

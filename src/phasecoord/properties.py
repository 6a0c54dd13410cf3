"""Checkable properties over explored state spaces.

Three property forms:

    invariant <pred>                 holds in every reachable state
    reachable <pred>                 some reachable state satisfies it
    eventuallyAll <pred> bound N     from every reachable state a satisfying
                                     state stays reachable within N steps

Predicates are boolean combinations (and/or/not, parentheses) of the atoms
inState(C, s), inPhase(C, P, ph), countInState({C.s, ...}, <=, n) and
modelVersionIs(n).  One property per line in a .pprop file; "#" comments.

`eval_predicate` decides a predicate on one configuration.  Sweeps over an
explored space use `compile_predicate` instead: it turns a predicate into a
test over the slots of one model's layout (see `model.SlotLayout`), built
once per model, so no state's `detailed` view is built to check it.
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


Predicate = Union[InState, InPhase, CountInState, ModelVersionIs, Not, And, Or]


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


PropertyExpr = Union[Invariant, Reachable, EventuallyAll]


def _unknown_component(name: str, atom: Predicate) -> str:
    return f"{atom.text()}: unknown component {name}"


def _check_component(model: StdModel, name: str, atom: Predicate):
    if name not in model.components:
        raise PropertyError(_unknown_component(name, atom))


def eval_predicate(pred: Predicate, model: StdModel, config: Configuration) -> bool:
    if isinstance(pred, InState):
        _check_component(model, pred.component, pred)
        return config.detailed.get(pred.component) == pred.state
    if isinstance(pred, InPhase):
        _check_component(model, pred.component, pred)
        return config.phases.get((pred.component, pred.partition)) == pred.phase
    if isinstance(pred, CountInState):
        count = 0
        for comp, state in pred.pairs:
            _check_component(model, comp, pred)
            if config.detailed.get(comp) == state:
                count += 1
        return {
            "<=": count <= pred.bound,
            "<": count < pred.bound,
            "==": count == pred.bound,
            ">=": count >= pred.bound,
            ">": count > pred.bound,
            "!=": count != pred.bound,
        }[pred.op]
    if isinstance(pred, ModelVersionIs):
        return config.model_version == pred.version
    if isinstance(pred, Not):
        return not eval_predicate(pred.operand, model, config)
    if isinstance(pred, And):
        return eval_predicate(pred.left, model, config) and eval_predicate(
            pred.right, model, config
        )
    if isinstance(pred, Or):
        return eval_predicate(pred.left, model, config) or eval_predicate(
            pred.right, model, config
        )
    raise PropertyError(f"unknown predicate node {pred!r}")


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

    On every configuration that fits the layout the test returns what
    `eval_predicate(pred, model, config)` returns, and raises the same
    `PropertyError` where that does: an atom naming a component the model
    lacks compiles to a test that raises when it is reached, so and/or keep
    their short-circuit order.  An unknown state, role or phase compiles to a
    test that never passes."""
    layout = model.layout
    if isinstance(pred, InState):
        if pred.component not in model.components:
            return _raising(_unknown_component(pred.component, pred))
        slot = layout.component_slot[pred.component]
        index = layout.state_index[slot - 1].get(pred.state)
        return never if index is None else _slot_equals(slot, index)
    if isinstance(pred, InPhase):
        if pred.component not in model.components:
            return _raising(_unknown_component(pred.component, pred))
        slot = layout.role_slot.get((pred.component, pred.partition))
        if slot is None:
            return never
        index = layout.phase_index[slot - layout.role_base].get(pred.phase)
        return never if index is None else _slot_equals(slot, index)
    if isinstance(pred, CountInState):
        pairs = []
        for comp, state in pred.pairs:
            if comp not in model.components:
                return _raising(_unknown_component(comp, pred))
            slot = layout.component_slot[comp]
            index = layout.state_index[slot - 1].get(state)
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

    def error(self, message: str) -> Diagnostic:
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

    def peek_word(self) -> str:
        saved = self.pos
        word = self.take_word()
        self.pos = saved
        return word

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
    if sc.take("not ") or sc.take("!"):
        sc.nest(1)
        operand = _parse_atom(sc)
        sc.nest(-1)
        return Not(operand)
    word = sc.take_word()
    if word == "inState":
        sc.require("(")
        comp = sc.take_word()
        sc.require(",")
        state = sc.take_word()
        sc.require(")")
        return InState(comp, state)
    if word == "inPhase":
        sc.require("(")
        comp = sc.take_word()
        sc.require(",")
        part = sc.take_word()
        sc.require(",")
        phase = sc.take_word()
        sc.require(")")
        return InPhase(comp, part, phase)
    if word == "countInState":
        sc.require("(")
        sc.require("{")
        pairs = []
        while True:
            comp = sc.take_word()
            sc.require(".")
            state = sc.take_word()
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
    raise _PropParseError(sc.error(f"expected an atom, found {word!r}"))


def _parse_and(sc: _Scanner) -> Predicate:
    left = _parse_atom(sc)
    links = 0
    while True:
        sc.skip_ws()
        if sc.peek_word() == "and":
            sc.take_word()
        elif not sc.take("&&"):
            sc.nest(-links)
            return left
        links += 1
        sc.nest(1)
        left = And(left, _parse_atom(sc))


def _parse_or(sc: _Scanner) -> Predicate:
    left = _parse_and(sc)
    links = 0
    while True:
        sc.skip_ws()
        if sc.peek_word() == "or":
            sc.take_word()
        elif not sc.take("||"):
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
            word = sc.take_word()
            if word != "bound":
                raise _PropParseError(sc.error("expected 'bound N'"))
            prop = EventuallyAll(pred, sc.take_int())
        else:
            raise _PropParseError(sc.error(f"expected a property keyword, found {head!r}"))
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

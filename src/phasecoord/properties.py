"""Checkable properties over explored state spaces.

Three property forms:

    invariant <pred>                 holds in every reachable state
    reachable <pred>                 some reachable state satisfies it
    eventuallyAll <pred> bound N     from every reachable state a satisfying
                                     state stays reachable within N steps

Predicates are boolean combinations (and/or/not, parentheses) of the atoms
inState(C, s), inPhase(C, P, ph), countInState({C.s, ...}, <=, n) and
modelVersionIs(n).  One property per line in a .pprop file, read with the
`.pdm` lexical rules (blanks, "#" comments, names, ASCII integers; see
`dsl._token_rules`) and its own punctuation.  A syntax error's column
counts on the raw line, its indent included.

`compile_predicate` is the one evaluator: it turns a predicate into a test
over the slots of one model's layout (see `model.SlotLayout`), built once
per model, so a sweep over an explored space builds no state's `detailed`
view.  `eval_predicate` decides one configuration through it.
"""

from __future__ import annotations

import operator
from typing import Callable, Union

from .dsl import _scan, _token_rules
from .model import MAX_INT_DIGITS, Configuration, Diagnostic, Record, StdModel

COMPARATORS = ("<=", ">=", "==", "!=", "<", ">")
# Deepest predicate accepted: open parentheses, `not`s and and/or chain
# links around any point of it.  Parsing and evaluation recurse once per
# level, so this keeps both far from Python's recursion limit.
MAX_PREDICATE_DEPTH = 200


class PropertyError(Exception):
    """A predicate that cannot be evaluated; `component` names the component
    that an atom names and the model lacks ("" when the error blames none)."""

    def __init__(self, message: str, component: str = ""):
        super().__init__(message)
        self.component = component


class InState(Record):
    __slots__ = ("component", "state")
    component: str
    state: str

    def text(self) -> str:
        return f"inState({self.component}, {self.state})"


class InPhase(Record):
    __slots__ = ("component", "partition", "phase")
    component: str
    partition: str
    phase: str

    def text(self) -> str:
        return f"inPhase({self.component}, {self.partition}, {self.phase})"


class CountInState(Record):
    __slots__ = ("pairs", "op", "bound")
    pairs: tuple[tuple[str, str], ...]
    op: str
    bound: int

    def text(self) -> str:
        items = ", ".join(f"{c}.{s}" for c, s in self.pairs)
        return f"countInState({{{items}}}, {self.op}, {self.bound})"


class ModelVersionIs(Record):
    __slots__ = ("version",)
    version: int

    def text(self) -> str:
        return f"modelVersionIs({self.version})"


class Not(Record):
    __slots__ = ("operand",)
    operand: "Predicate"

    def text(self) -> str:
        return f"not {self.operand.text()}"


class And(Record):
    __slots__ = ("left", "right")
    left: "Predicate"
    right: "Predicate"

    def text(self) -> str:
        return f"({self.left.text()} and {self.right.text()})"


class Or(Record):
    __slots__ = ("left", "right")
    left: "Predicate"
    right: "Predicate"

    def text(self) -> str:
        return f"({self.left.text()} or {self.right.text()})"


# `|`, not `typing.Union`, which would keep these classes for good; see
# `engine.StepLabel`.
Predicate = InState | InPhase | CountInState | ModelVersionIs | Not | And | Or


class Invariant(Record):
    __slots__ = ("predicate",)
    predicate: Predicate

    def text(self) -> str:
        return f"invariant {self.predicate.text()}"


class Reachable(Record):
    __slots__ = ("predicate",)
    predicate: Predicate

    def text(self) -> str:
        return f"reachable {self.predicate.text()}"


class EventuallyAll(Record):
    __slots__ = ("predicate", "bound")
    predicate: Predicate
    bound: int

    def text(self) -> str:
        return f"eventuallyAll {self.predicate.text()} bound {self.bound}"


PropertyExpr = Invariant | Reachable | EventuallyAll


# A compiled predicate: a test over the slots of one model's layout.
SlotTest = Callable[[tuple], bool]

_COMPARE = {
    "<=": operator.le, "<": operator.lt, "==": operator.eq,
    ">=": operator.ge, ">": operator.gt, "!=": operator.ne,
}


def never(slots: tuple) -> bool:
    """The test no configuration passes."""
    return False


def _raising(message: str, component: str = "") -> SlotTest:
    def test(slots: tuple) -> bool:
        raise PropertyError(message, component)
    return test


def _unknown_component(name: str, atom: Predicate) -> SlotTest:
    """The test of an atom naming the component `name`, which the model
    lacks: it raises a `PropertyError` that blames the component."""
    return _raising(f"{atom.text()}: unknown component {name}", name)


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
            return _unknown_component(pred.component, pred)
        slot = layout.slot[pred.component]
        index = layout.index[slot].get(pred.state)
        return never if index is None else _slot_equals(slot, index)
    if isinstance(pred, InPhase):
        if pred.component not in model.components:
            return _unknown_component(pred.component, pred)
        slot = layout.slot.get((pred.component, pred.partition))
        if slot is None:
            return never
        index = layout.index[slot].get(pred.phase)
        return never if index is None else _slot_equals(slot, index)
    if isinstance(pred, CountInState):
        pairs = []
        for comp, state in pred.pairs:
            if comp not in model.components:
                return _unknown_component(comp, pred)
            slot = layout.slot[comp]
            index = layout.index[slot].get(state)
            if index is not None:  # an unknown state never counts
                pairs.append((slot, index))
        compare, bound = _COMPARE[pred.op], pred.bound
        idxs, values = [i for i, _ in pairs], tuple([v for _, v in pairs])
        if len(idxs) > 1:
            get = operator.itemgetter(*idxs)
        else:  # `itemgetter` of fewer than two slots gives no tuple
            get = lambda slots: [slots[i] for i in idxs]
        return lambda slots: compare(sum(map(operator.eq, get(slots), values)), bound)
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


_PPROP_RULES = _token_rules(r"&&|\|\||!=|<=|>=|==|[<>!{}(),.]")
# The atoms over names: the word, then "(", the names and ")".
_NAME_ATOMS = {"inState": InState, "inPhase": InPhase}


class _SyntaxError(Exception):
    """A `.pprop` syntax error: its message and the line offset it is placed at."""


class _Parser:
    """The `.pprop` tokens of one line, and a position among them."""

    def __init__(self, text: str):
        self.kinds, self.values, self.starts = _scan(_PPROP_RULES, text)
        # the end of the line's content, before its comment and trailing blanks
        end = self.starts[-1] + len(self.values[-1]) if self.starts else 0
        self.content = text[:end]
        self.kinds.append("eof")
        self.values.append("")
        self.starts.append(end)
        self.pos = 0
        self.depth = 0

    def fail(self, message: str, offset: int | None = None) -> _SyntaxError:
        return _SyntaxError(message, self.starts[self.pos] if offset is None else offset)

    def nest(self, levels: int):
        """Enter (or, with a negative count, leave) predicate nesting levels.
        Too deep is an error right after the token just taken."""
        self.depth += levels
        if self.depth > MAX_PREDICATE_DEPTH:
            end = self.starts[self.pos - 1] + len(self.values[self.pos - 1])
            raise self.fail(f"predicate nested deeper than {MAX_PREDICATE_DEPTH}", end)

    def accept(self, *values: str) -> bool:
        """Whether the current token is one of the keywords or punctuation
        `values`; if so, moves past it.  A keyword is a whole word: "not" in
        "not(" but not in "notable"."""
        if self.values[self.pos] not in values:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str, message: str = "") -> str:
        if self.kinds[self.pos] != kind:
            raise self.fail(message or f"expected {kind!r}")
        self.pos += 1
        return self.values[self.pos - 1]

    def name(self) -> str:
        return self.expect("name", "expected a name")

    def integer(self) -> int:
        if self.kinds[self.pos] == "int" and len(self.values[self.pos]) > MAX_INT_DIGITS:
            raise self.fail(f"integer longer than {MAX_INT_DIGITS} digits")
        return int(self.expect("int", "expected an integer"))

    def word(self) -> str:
        """The current token if it is a word (a name or an integer), else ''."""
        return self.values[self.pos] if self.kinds[self.pos] in ("name", "word", "int") else ""

    def split_bang(self):
        """Read a "!=" token as "!" and then "=", where a "!" negates what
        follows it: no atom starts with "="."""
        i, start = self.pos, self.starts[self.pos]
        self.kinds[i:i + 1] = "!", "other"
        self.values[i:i + 1] = "!", "="
        self.starts[i:i + 1] = start, start + 1


def _parse_atom(p: _Parser) -> Predicate:
    if p.accept("("):
        p.nest(1)
        inner = _parse_or(p)
        p.expect(")")
        p.nest(-1)
        return inner
    if p.values[p.pos] == "!=":
        p.split_bang()
    if p.accept("not", "!"):
        p.nest(1)
        operand = _parse_atom(p)
        p.nest(-1)
        return Not(operand)
    atom = _NAME_ATOMS.get(p.values[p.pos])
    if atom is not None:
        p.pos += 1
        p.expect("(")
        names = [p.name()]
        while len(names) < len(atom._fields):
            p.expect(",")
            names.append(p.name())
        p.expect(")")
        return atom(*names)
    if p.accept("countInState"):
        p.expect("(")
        p.expect("{")
        pairs = []
        while True:
            comp = p.name()
            p.expect(".")
            pairs.append((comp, p.name()))
            if not p.accept(","):
                break
        p.expect("}")
        p.expect(",")
        op = p.values[p.pos]
        if not p.accept(*COMPARATORS):
            raise p.fail("expected a comparator")
        p.expect(",")
        bound = p.integer()
        p.expect(")")
        return CountInState(tuple(pairs), op, bound)
    if p.accept("modelVersionIs"):
        p.expect("(")
        version = p.integer()
        p.expect(")")
        return ModelVersionIs(version)
    raise p.fail(f"expected an atom, found {p.word()!r}")


def _parse_and(p: _Parser) -> Predicate:
    left = _parse_atom(p)
    depth = p.depth  # each link nests until the chain ends
    while p.accept("and", "&&"):
        p.nest(1)
        left = And(left, _parse_atom(p))
    p.depth = depth
    return left


def _parse_or(p: _Parser) -> Predicate:
    left = _parse_and(p)
    depth = p.depth  # each link nests until the chain ends
    while p.accept("or", "||"):
        p.nest(1)
        left = Or(left, _parse_and(p))
    p.depth = depth
    return left


def _parse(p: _Parser, line: int) -> Union[PropertyExpr, Diagnostic]:
    """The property that the tokens `p` of line `line` spell, or the
    Diagnostic of its first syntax error, whose element is up to 8
    characters of the line's content from the error's offset."""
    try:
        if p.accept("invariant"):
            prop: PropertyExpr = Invariant(_parse_or(p))
        elif p.accept("reachable"):
            prop = Reachable(_parse_or(p))
        elif p.accept("eventuallyAll"):
            pred = _parse_or(p)
            if not p.accept("bound"):
                raise p.fail("expected 'bound N'")
            prop = EventuallyAll(pred, p.integer())
        else:
            raise p.fail(f"expected a property keyword, found {p.word()!r}")
        if p.kinds[p.pos] != "eof":
            raise p.fail("trailing input after property")
        return prop
    except _SyntaxError as exc:
        message, offset = exc.args
        return Diagnostic("syntax-error", "property", p.content[offset:offset + 8], message,
                          line=line, column=offset + 1)


def parse_properties(text: str) -> tuple[list[PropertyExpr], list[Diagnostic]]:
    """A .pprop document: one property per line (only a line feed ends one) with a token."""
    props: list[PropertyExpr] = []
    diags: list[Diagnostic] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        parser = _Parser(raw)
        if parser.kinds[0] == "eof":
            continue
        result = _parse(parser, lineno)
        if isinstance(result, Diagnostic):
            diags.append(result)
        else:
            props.append(result)
    return props, diags

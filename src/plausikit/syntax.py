"""Formula syntax: AST, parser, canonical printer, fragments, bounded enumeration.

Concrete grammar (EBNF)::

    formula     := impl
    impl        := or ("->" impl)?
    or          := and ("|" and)*
    and         := unary ("&" unary)*
    unary       := "~" unary
                 | "K[" ident "]" unary | "Khat[" ident "]" unary
                 | "B[" ident "|" formula "]" unary
                 | "Bplus[" ident "]" unary
                 | "Gt[" ident "]" unary | "GtDia[" ident "]" unary
                 | "[!" formula "]" unary | "[up" formula "]" unary
                 | atomOrParen
    atomOrParen := "true" | "false" | ident | "(" formula ")"

``&`` and ``|`` associate to the left, ``->`` to the right; the unary
operators bind tightest.  ``Khat[i]`` and ``GtDia[i]`` are parser sugar for
``~K[i]~`` and ``~Gt[i]~``; they are expanded while parsing and are not AST
nodes, but the printer re-sugars those two negation patterns so duals stay
readable.  ``true``/``false`` are keywords.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

from .errors import InputError

__all__ = [
    "Formula", "Atom", "Top", "Bot", "Not", "And", "Or", "Implies",
    "Know", "CondBelief", "SafeBelief", "GtBox", "Announce", "Upgrade",
    "Fragment", "ParseError", "parse", "format_formula", "fragment_of",
    "formula_depth", "formula_size", "has_dynamic", "enumerate_formulas",
    "iff", "khat", "gt_dia", "children", "rebuild", "walk",
]


class Formula:
    """Base class for all formula nodes.

    A node's hash is computed once, when it is built, from its class name and
    its fields; a child's hash is cached in turn, so hashing never recurses
    however deep the formula.  Equality is structural and walks the two
    formulas through a work list, so it does not recurse either.
    """

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        todo = [(self, other)]
        for a, b in todo:
            if a is not b:
                da, db = a.__dict__, b.__dict__
                if da["_hash"] != db["_hash"] or type(a) is not type(b):
                    return False
                for name in a._labels:
                    if da[name] != db[name]:
                        return False
                for name in a._parts:
                    todo.append((da[name], db[name]))
        return True

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Unpickling calls __init__, so the hash is the loading process's own.
        return type(self), tuple(getattr(self, name)
                                 for name in self._labels + self._parts)

    def __str__(self) -> str:
        return format_formula(self)


def _node(cls):
    """A frozen dataclass node with the structural equality and cached hash
    of Formula.  Its generated ``__init__`` writes the fields and ``_hash``
    straight into ``__dict__``.  Its subformula fields are ``_parts``; the
    others, which come first, are ``_labels``."""
    cls = dataclass(frozen=True, eq=False, init=False)(cls)
    names = [(f.name, f.type == "Formula") for f in fields(cls)]
    cls._parts = tuple(name for name, sub in names if sub)
    cls._labels = tuple(name for name, sub in names if not sub)
    args = "".join(f"{name}, " for name, _ in names)
    scope = {}
    exec(f"def __init__(self, {args}):\n    d = self.__dict__\n"
         + "".join(f"    d[{name!r}] = {name}\n" for name, _ in names)
         + f"    d['_hash'] = hash(({cls.__name__!r}, {args}))\n", scope)
    cls.__init__ = scope["__init__"]
    return cls


@_node
class Atom(Formula):
    name: str


@_node
class Top(Formula):
    pass


@_node
class Bot(Formula):
    pass


@_node
class Not(Formula):
    sub: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Know(Formula):
    agent: str
    sub: Formula


@_node
class CondBelief(Formula):
    agent: str
    cond: Formula
    sub: Formula


@_node
class SafeBelief(Formula):
    agent: str
    sub: Formula


@_node
class GtBox(Formula):
    agent: str
    sub: Formula


@_node
class Announce(Formula):
    ann: Formula
    sub: Formula


@_node
class Upgrade(Formula):
    up: Formula
    sub: Formula


_BINARY = (And, Or, Implies)
_DYNAMIC = (Announce, Upgrade)


def khat(agent: str, f: Formula) -> Formula:
    """Dual of the knowledge operator: ``~K[i]~f``."""
    return Not(Know(agent, Not(f)))


def gt_dia(agent: str, f: Formula) -> Formula:
    """Dual of the strict-plausibility box: ``~Gt[i]~f``."""
    return Not(GtBox(agent, Not(f)))


def iff(a: Formula, b: Formula) -> Formula:
    """Biconditional, expanded to a conjunction of implications."""
    return And(Implies(a, b), Implies(b, a))


def children(f: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas, in a fixed left-to-right order."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return tuple([getattr(f, name) for name in f._parts])


def rebuild(f: Formula, parts: tuple[Formula, ...]) -> Formula:
    """Rebuild a node of the same kind around new subformulas."""
    if not children(f):
        return f
    return type(f)(*[getattr(f, name) for name in f._labels], *parts)


def walk(f: Formula) -> Iterator[tuple[Formula, int]]:
    """Every node occurrence of f, in preorder, with its depth (the root's
    is 0).  The walk keeps its own stack, so the depth of f is not bounded
    by Python's recursion."""
    stack = [(f, 0)]
    while stack:
        g, d = stack.pop()
        yield g, d
        parts = g._parts
        if parts:
            stack.extend((getattr(g, name), d + 1) for name in reversed(parts))


def formula_depth(f: Formula) -> int:
    """Nesting depth; atoms and constants sit at depth 0, every other node
    adds one layer, Boolean and modal alike."""
    return max(d for _, d in walk(f))


def formula_size(f: Formula) -> int:
    """Number of AST nodes."""
    return sum(1 for _ in walk(f))


def has_dynamic(f: Formula) -> bool:
    """True when an announcement or upgrade operator occurs anywhere in f."""
    return any(isinstance(g, _DYNAMIC) for g, _ in walk(f))


# ---------------------------------------------------------------------------
# Fragments

OPERATOR_KINDS = ("K", "Bc", "Bplus", "Gt", "Ann", "Up")


@dataclass(frozen=True)
class Fragment:
    """A sublanguage, identified by the set of operator kinds it allows.

    Boolean structure is always allowed; the members of ``operators`` name
    the modal and dynamic constructors that may occur.
    """

    operators: frozenset

    @staticmethod
    def of(*names: str) -> "Fragment":
        for n in names:
            if n not in OPERATOR_KINDS:
                raise InputError(f"unknown operator kind {n!r}")
        return Fragment(frozenset(names))

    @staticmethod
    def parse(text: str) -> "Fragment":
        names = [part.strip() for part in text.split(",") if part.strip()]
        return Fragment.of(*names)

    @property
    def is_static(self) -> bool:
        return "Ann" not in self.operators and "Up" not in self.operators

    def issubset(self, other: "Fragment") -> bool:
        return self.operators <= other.operators

    def __contains__(self, kind: str) -> bool:
        return kind in self.operators

    def __iter__(self):
        return iter(k for k in OPERATOR_KINDS if k in self.operators)

    def __str__(self) -> str:
        return ",".join(self) if self.operators else "(boolean)"


_KIND_OF_NODE = {
    Know: "K",
    CondBelief: "Bc",
    SafeBelief: "Bplus",
    GtBox: "Gt",
    Announce: "Ann",
    Upgrade: "Up",
}


def fragment_of(f: Formula) -> Fragment:
    """Smallest fragment containing every operator kind occurring in f."""
    kinds = {_KIND_OF_NODE.get(type(g)) for g, _ in walk(f)}
    kinds.discard(None)
    return Fragment(frozenset(kinds))


# ---------------------------------------------------------------------------
# Lexer / parser

class ParseError(InputError):
    """Syntax error with a 1-based character position and expected tokens."""

    def __init__(self, message: str, position: int, expected: Iterable[str] = ()):
        self.position = position
        self.expected = tuple(sorted(set(expected)))
        detail = f"{message} at position {position}"
        if self.expected:
            detail += " (expected " + ", ".join(self.expected) + ")"
        super().__init__(detail)


_IDENT_RE = re.compile(r"[A-Za-z0-9_]+")
_MODAL_HEADS = ("K", "Khat", "B", "Bplus", "Gt", "GtDia")


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "sym", "end"
    text: str
    pos: int


def _lex(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(_Token("sym", "->", i + 1))
            i += 2
            continue
        if ch in "~&|()[]!":
            tokens.append(_Token("sym", ch, i + 1))
            i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), i + 1))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i + 1)
    tokens.append(_Token("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "end":
            raise ParseError(
                f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
                tok.pos, [repr(text)])
        return self.take()

    def ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(
                f"expected {what}", tok.pos, ["identifier"])
        self.take()
        return tok.text

    def formula(self) -> Formula:
        left = self.or_level()
        if self.peek().text == "->":
            self.take()
            return Implies(left, self.formula())
        return left

    def or_level(self) -> Formula:
        left = self.and_level()
        while self.peek().text == "|":
            self.take()
            left = Or(left, self.and_level())
        return left

    def and_level(self) -> Formula:
        left = self.unary()
        while self.peek().text == "&":
            self.take()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "~":
            self.take()
            return Not(self.unary())
        if tok.kind == "ident" and tok.text in _MODAL_HEADS and self.peek(1).text == "[":
            return self.modal(tok.text)
        if tok.text == "[":
            return self.dynamic()
        return self.atom_or_paren()

    def modal(self, head: str) -> Formula:
        self.take()  # head
        self.take()  # "["
        agent = self.ident("agent name")
        if head == "B":
            self.expect("|")
            cond = self.formula()
            self.expect("]")
            return CondBelief(agent, cond, self.unary())
        self.expect("]")
        sub = self.unary()
        if head == "K":
            return Know(agent, sub)
        if head == "Khat":
            return khat(agent, sub)
        if head == "Bplus":
            return SafeBelief(agent, sub)
        if head == "Gt":
            return GtBox(agent, sub)
        return gt_dia(agent, sub)  # GtDia

    def dynamic(self) -> Formula:
        self.take()  # "["
        tok = self.peek()
        if tok.text == "!":
            self.take()
            ann = self.formula()
            self.expect("]")
            return Announce(ann, self.unary())
        if tok.kind == "ident" and tok.text == "up":
            self.take()
            up = self.formula()
            self.expect("]")
            return Upgrade(up, self.unary())
        raise ParseError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.pos, ["'!'", "'up'"])

    def atom_or_paren(self) -> Formula:
        tok = self.peek()
        if tok.text == "(":
            self.take()
            inner = self.formula()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            self.take()
            if tok.text == "true":
                return Top()
            if tok.text == "false":
                return Bot()
            return Atom(tok.text)
        raise ParseError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.pos, ["identifier", "'true'", "'false'", "'('", "'~'", "'['"])


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula; raises ParseError on bad input."""
    p = _Parser(_lex(text))
    f = p.formula()
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.text!r}", tok.pos, ["end of input"])
    return f


# ---------------------------------------------------------------------------
# Canonical printer
#
# Levels: -> is 1 (right-assoc), | is 2 (left-assoc), & is 3 (left-assoc),
# unary operators are tightest.  A parenthesized operand follows its modality
# without a space ("K[a](p -> q)"); any other operand gets one space
# ("K[a] p").

def format_formula(f: Formula) -> str:
    """Deterministic canonical rendering; parse(format_formula(f)) == f.

    The printer keeps its own stack of what is still to write, text or
    (node, level), so the depth of f is not bounded by Python's recursion.
    It writes a node's text up to its first subformula, stacks what follows
    that subformula and goes on into it."""
    out: list[str] = []
    todo: list = [(f, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, level = item
        while True:
            if isinstance(g, (Atom, Top, Bot)):
                out.append(g.name if isinstance(g, Atom)
                           else "true" if isinstance(g, Top) else "false")
                break
            if isinstance(g, _BINARY):
                op, own, left, right = _INFIX[type(g)]
                if level > own:
                    out.append("(")
                    todo.append(")")
                todo += ((g.right, right), op)
                g, level = g.left, left
                continue
            if isinstance(g, (CondBelief, Announce, Upgrade)):
                # The bracket holds the first subformula; the box's operand
                # follows it.
                out.append(f"B[{g.agent} | " if isinstance(g, CondBelief)
                           else "[! " if isinstance(g, Announce) else "[up ")
                first, sub = children(g)
                todo += ((")", (sub, 0), "](") if isinstance(sub, _BINARY)
                         else ((sub, 4), "] "))
                g, level = first, 0
                continue
            if isinstance(g, Not):
                inner = g.sub
                if isinstance(inner, (Know, GtBox)) and isinstance(inner.sub, Not):
                    out.append(f"{'Khat' if isinstance(inner, Know) else 'GtDia'}"
                               f"[{inner.agent}]")
                    g, space = inner.sub.sub, " "
                else:
                    out.append("~")
                    g, space = inner, ""
            elif isinstance(g, (Know, SafeBelief, GtBox)):
                out.append(f"{_BOX[type(g)]}[{g.agent}]")
                g, space = g.sub, " "
            else:
                raise TypeError(f"not a formula: {g!r}")
            # The operand: a binary one in parentheses, any other after space.
            if isinstance(g, _BINARY):
                out.append("(")
                todo.append(")")
                level = 0
            else:
                out.append(space)
                level = 4
    return "".join(out)


# Infix operators: text, own level, and the levels of the left and right
# operands.
_INFIX = {And: (" & ", 3, 3, 4), Or: (" | ", 2, 2, 3), Implies: (" -> ", 1, 2, 1)}
_BOX = {Know: "K", SafeBelief: "Bplus", GtBox: "Gt"}


# ---------------------------------------------------------------------------
# Bounded enumeration

def enumerate_formulas(atoms: Iterable[str], agents: Iterable[str],
                       fragment: Fragment, depth: int) -> Iterator[Formula]:
    """Yield every formula of nesting depth <= depth over the signature,
    without duplicates.

    The Boolean basis is negation and conjunction plus the constant ``true``
    (which keeps the count bounded); other connectives are expressible and
    not enumerated.  Order is deterministic: layers of increasing depth, and
    within a layer negations, conjunctions, then modal operators in the fixed
    kind order K, Bc, Bplus, Gt, Ann, Up with agents sorted, operands in the
    order previously yielded.
    """
    if depth < 0:
        raise InputError("depth must be >= 0")
    atoms = sorted(set(atoms))
    agents = sorted(set(agents))
    base: list[Formula] = [Atom(p) for p in atoms] + [Top()]
    seen: set[Formula] = set(base)
    yield from base
    prev = list(base)
    for _ in range(depth):
        fresh: list[Formula] = []

        def emit(g: Formula) -> None:
            if g not in seen:
                seen.add(g)
                fresh.append(g)

        for f in prev:
            emit(Not(f))
        for f in prev:
            for g in prev:
                emit(And(f, g))
        if "K" in fragment:
            for i in agents:
                for f in prev:
                    emit(Know(i, f))
        if "Bc" in fragment:
            for i in agents:
                for c in prev:
                    for f in prev:
                        emit(CondBelief(i, c, f))
        if "Bplus" in fragment:
            for i in agents:
                for f in prev:
                    emit(SafeBelief(i, f))
        if "Gt" in fragment:
            for i in agents:
                for f in prev:
                    emit(GtBox(i, f))
        if "Ann" in fragment:
            for c in prev:
                for f in prev:
                    emit(Announce(c, f))
        if "Up" in fragment:
            for c in prev:
                for f in prev:
                    emit(Upgrade(c, f))
        yield from fresh
        prev.extend(fresh)

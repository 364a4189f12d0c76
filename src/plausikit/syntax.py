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
from functools import partial
from itertools import product
from typing import Iterable, Iterator

from .errors import InputError, ResourceLimitError

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
_NODE_OF_KIND = {kind: cls for cls, kind in _KIND_OF_NODE.items()}


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


def _unexpected(tok: _Token, expected: Iterable[str]) -> ParseError:
    return ParseError("unexpected end of input" if tok.kind == "end"
                      else f"unexpected {tok.text!r}", tok.pos, expected)


_OPERAND = ("identifier", "'true'", "'false'", "'('", "'~'", "'['")
_PREFIX = {"K": Know, "Khat": khat, "Bplus": SafeBelief, "Gt": GtBox,
           "GtDia": gt_dia}
_DYNAMIC_HEADS = {"!": Announce, "up": Upgrade}


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula; raises ParseError on bad input.

    The parser keeps its own stack of frames, one per bracketed formula
    being read: the whole input, ``(...)``, the condition of ``B[i | ...]``
    and the formula of ``[! ...]`` or ``[up ...]``.  A frame holds its
    closing token, the constructor that takes its formula as first argument
    (none for parentheses), the unary operators waiting for the next
    operand, and its operands and infix operators so far.  So the depth of
    the input is not bounded by Python's recursion."""
    tokens = _lex(text)
    frames = [("", None, [], [], [])]
    i = 0
    while True:
        # One operand: prefix operators, then an atom or an opening bracket.
        unary = frames[-1][2]
        tok = tokens[i]
        i += 1
        if tok.text == "~":
            unary.append(Not)
            continue
        if tok.text in _MODAL_HEADS and tokens[i].text == "[":
            agent = tokens[i + 1]
            if agent.kind != "ident":
                raise ParseError("expected agent name", agent.pos, ["identifier"])
            bar = tokens[i + 2]
            i += 3
            if tok.text == "B":
                if bar.text != "|":
                    raise _unexpected(bar, ["'|'"])
                frames.append(("]", partial(CondBelief, agent.text), [], [], []))
            elif bar.text != "]":
                raise _unexpected(bar, ["']'"])
            else:
                unary.append(partial(_PREFIX[tok.text], agent.text))
            continue
        if tok.text == "(":
            frames.append((")", None, [], [], []))
            continue
        if tok.text == "[":
            head = _DYNAMIC_HEADS.get(tokens[i].text)
            if head is None:
                raise _unexpected(tokens[i], ["'!'", "'up'"])
            frames.append(("]", head, [], [], []))
            i += 1
            continue
        if tok.kind != "ident":
            raise _unexpected(tok, _OPERAND)
        f = (Top() if tok.text == "true" else Bot() if tok.text == "false"
             else Atom(tok.text))
        # The operand is read: wrap it in its unary operators, then either
        # an infix operator follows or the frame closes.
        while True:
            closer, head, unary, operands, ops = frames[-1]
            for op in reversed(unary):
                f = op(f)
            unary.clear()
            operands.append(f)
            tok = tokens[i]
            infix = _INFIX_OF.get(tok.text)
            # Stacked operators at or above the level of the new one's left
            # operand end before it (& and | associate left, -> right); the
            # frame's end completes them all.
            left = _INFIX[infix][2] if infix else 0
            while ops and _INFIX[ops[-1]][1] >= left:
                right = operands.pop()
                operands[-1] = ops.pop()(operands[-1], right)
            if infix:
                ops.append(infix)
                i += 1
                break
            if tok.text != closer:
                raise _unexpected(tok, [repr(closer) if closer else "end of input"])
            frames.pop()
            f = operands.pop()
            if not frames:
                return f
            i += 1
            if head:
                frames[-1][2].append(partial(head, f))
                break


# ---------------------------------------------------------------------------
# Canonical printer
#
# Levels: -> is 1 (right-assoc), | is 2 (left-assoc), & is 3 (left-assoc),
# unary operators are tightest.  A parenthesized operand follows its modality
# without a space ("K[a](p -> q)"); any other operand gets one space
# ("K[a] p").

# Pieces of text one rendering may write.  A formula is a shared graph but is
# printed as a tree, which can be exponentially larger: translate_gt of k
# nested conditions B[a | ...] prints about 25 * 2^k characters.  2^20 pieces
# take about half a second; [! p]^14 q, reduced, prints in about 49,000.
MAX_PRINTED = 2**20


def format_formula(f: Formula) -> str:
    """Deterministic canonical rendering; parse(format_formula(f)) == f.

    The printer keeps its own stack of what is still to write, text or
    (node, level), so the depth of f is not bounded by Python's recursion.
    It writes a node's text up to its first subformula, stacks what follows
    that subformula and goes on into it.  A rendering of more than
    ``MAX_PRINTED`` pieces raises ResourceLimitError, without being
    written out in full."""
    out: list[str] = []
    todo: list = [(f, 0)]
    while todo and len(out) <= MAX_PRINTED:
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
                out.append(f"{_KIND_OF_NODE[type(g)]}[{g.agent}]")
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
    if len(out) > MAX_PRINTED:
        raise ResourceLimitError(
            f"the formula prints as more than {MAX_PRINTED} pieces", MAX_PRINTED)
    return "".join(out)


# Infix operators: text, own level, and the levels of the left and right
# operands.
_INFIX = {And: (" & ", 3, 3, 4), Or: (" | ", 2, 2, 3), Implies: (" -> ", 1, 2, 1)}
_INFIX_OF = {text.strip(): cls for cls, (text, *_) in _INFIX.items()}


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
    # A node class takes an agent for each label field (none or one), then
    # one operand per subformula field.
    classes = [Not, And, *map(_NODE_OF_KIND.get, fragment)]
    for _ in range(depth):
        fresh: list[Formula] = []
        for cls in classes:
            for args in product(*[agents] * len(cls._labels),
                                *[prev] * len(cls._parts)):
                g = cls(*args)
                if g not in seen:
                    seen.add(g)
                    fresh.append(g)
        yield from fresh
        prev.extend(fresh)

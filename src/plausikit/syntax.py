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


# Node pairs an equality check compares before it remembers them: small
# formulas, which the evaluator's caches compare all the time, never pay for
# the set.
_EQ_UNSEEN = 64


class Formula:
    """Base class for all formula nodes.

    A node's hash is computed once, when it is built, from its class name and
    its fields; a child's hash is cached in turn, so hashing never recurses
    however deep the formula.  Equality is structural and walks the two
    formulas through a work list, so it does not recurse either.  Past the
    first few pairs the walk remembers the pairs of nodes it has compared,
    so two equal graphs that share subformulas compare in time linear in
    their distinct nodes, not in their tree size.
    """

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        todo = [(self, other)]
        seen = None  # pairs of node ids compared, once todo is long
        for a, b in todo:
            if a is b:
                continue
            da, db = a.__dict__, b.__dict__
            if da["_hash"] != db["_hash"] or type(a) is not type(b):
                return False
            for name in a._labels:
                if da[name] != db[name]:
                    return False
            if seen is not None:
                pair = (id(a), id(b))
                if pair in seen:
                    continue
                seen.add(pair)
            elif len(todo) > _EQ_UNSEEN:
                seen = set()
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


def _nodes(f: Formula) -> Iterator[Formula]:
    """Every distinct node of f, told apart by identity, once each.  A
    formula is a graph that may share subformulas; this visits the graph,
    not the tree it stands for."""
    seen = {id(f)}
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        for name in g._parts:
            kid = getattr(g, name)
            if id(kid) not in seen:
                seen.add(id(kid))
                stack.append(kid)


def _bottom_up(f: Formula, combine):
    """``combine(values of the children)`` at every distinct node of f,
    children first, with its own stack; returns the value at f."""
    value = {}  # id -> value; the nodes stay alive inside f
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in value:
            stack.pop()
            continue
        kids = [getattr(g, name) for name in g._parts]
        todo = [kid for kid in kids if id(kid) not in value]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        value[id(g)] = combine([value[id(kid)] for kid in kids])
    return value[id(f)]


def formula_depth(f: Formula) -> int:
    """Nesting depth; atoms and constants sit at depth 0, every other node
    adds one layer, Boolean and modal alike."""
    return _bottom_up(f, lambda kids: 1 + max(kids) if kids else 0)


def formula_size(f: Formula) -> int:
    """Number of AST nodes of f written out as a tree.  It is counted over
    the distinct nodes, so a shared graph whose tree is exponentially large
    gets its exact size as a big int."""
    return _bottom_up(f, lambda kids: 1 + sum(kids))


def has_dynamic(f: Formula) -> bool:
    """True when an announcement or upgrade operator occurs anywhere in f."""
    return any(isinstance(g, _DYNAMIC) for g in _nodes(f))


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
    kinds = {_KIND_OF_NODE.get(type(g)) for g in _nodes(f)}
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
# nested conditions B[a | ...] prints about 25 * 2^k characters.  The text
# of a recurring subformula is kept and counts as the pieces it holds, so a
# formula over the budget is refused after a few copies of kept texts;
# [! p]^14 q, reduced, prints in about 49,000 pieces.
MAX_PRINTED = 2**20


class Printer:
    """Canonical rendering of formulas that shares its work across calls.

    A node's text does not depend on where it stands: its parent adds the
    parentheses a binary operand needs.  So a printer lays out each
    distinct node (told apart by identity) once, as its pieces of text and
    its subformulas in order.  ``printer(f)`` writes f in one pass, with
    its own stack of what is still to write, so the depth of f is not
    bounded by Python's recursion, and notes where each node's text starts
    and ends in its pieces.  A node met again in the same call is joined
    from there once and its text kept, so a subformula that recurs within
    one formula is written once.  The outermost node met again from an
    earlier call is written once more, and its text kept.  A rendering of
    more than ``MAX_PRINTED`` pieces (a kept text counts as the pieces it
    holds) raises ResourceLimitError, after at most about twice that many
    are written.  The printer holds on to every formula it printed; make
    one per run."""

    def __init__(self):
        # id -> [node, layout, call, first piece, pieces, end]: the call
        # that wrote the node (negative if an earlier one did too), and
        # where its text is in that call's pieces and how many it counts.
        self._known = {}
        self._texts = {}  # id -> (text, pieces), for leaves and nodes met again
        self._calls = 0

    def __call__(self, f: Formula) -> str:
        known, texts = self._known, self._texts
        stored = texts.get(id(f))
        if stored is not None and stored[1] <= MAX_PRINTED:
            return stored[0]
        if not isinstance(f, Formula):
            raise TypeError(f"not a formula: {f!r}")
        call = self._calls = self._calls + 1
        out = []
        extra = 0  # pieces in the kept texts of out, beyond one each
        keeping = False  # inside a node whose text is to be kept
        todo = [f]
        write, pop = out.append, todo.pop
        while todo:
            x = pop()
            if type(x) is str:
                write(x)
                continue
            if type(x) is list:  # the end of the text of node x[0]
                x[4] = len(out) + extra - x[4]
                if x[2] == call:
                    x[5] = len(out)
                else:  # written in an earlier call too: keep its text
                    texts[id(x[0])] = ("".join(out[x[3]:]), x[4])
                    keeping = False
                continue
            stored = texts.get(id(x))
            if stored is None:
                record = known.get(id(x))
                if record is None:
                    record = known[id(x)] = [x, _layout(x), 0, 0, 0, 0]
                    if not x._parts:  # a leaf is one piece
                        stored = texts[id(x)] = (record[1][0], 1)
                elif record[2] == call:  # written before in this call
                    stored = texts[id(x)] = (
                        "".join(out[record[3]:record[5]]), record[4])
            if stored is None:
                if record[2] == 0 or keeping:
                    record[2] = call
                else:  # the outermost node written in an earlier call too
                    record[2] = -call
                    keeping = True
                record[3:5] = len(out), len(out) + extra
                todo.append(record)
                todo.extend(reversed(record[1]))
            else:
                write(stored[0])
                extra += stored[1] - 1
                if len(out) + extra > MAX_PRINTED:
                    break
        if len(out) + extra > MAX_PRINTED:
            raise ResourceLimitError(
                f"the formula prints as more than {MAX_PRINTED} pieces",
                MAX_PRINTED)
        return "".join(out)


def format_formula(f: Formula) -> str:
    """Deterministic canonical rendering; parse(format_formula(f)) == f.

    A rendering of more than ``MAX_PRINTED`` pieces raises
    ResourceLimitError; see ``Printer``."""
    return Printer()(f)


def _layout(g) -> tuple:
    """The text of g in order: its own pieces, and the subformulas whose
    text goes between them."""
    if isinstance(g, Atom):
        return (g.name,)
    if isinstance(g, Top):
        return ("true",)
    if isinstance(g, Bot):
        return ("false",)
    if isinstance(g, _BINARY):
        op, _, left, right = _INFIX[type(g)]
        return (*_at_level(g.left, left), op, *_at_level(g.right, right))
    if isinstance(g, (CondBelief, Announce, Upgrade)):
        # The bracket holds the first subformula; the box's operand follows.
        head = (f"B[{g.agent} | " if isinstance(g, CondBelief)
                else "[! " if isinstance(g, Announce) else "[up ")
        first, sub = children(g)
        return (head, *_at_level(first, 0), *_operand(sub, "](", "] "))
    if isinstance(g, Not):
        inner = g.sub
        if isinstance(inner, (Know, GtBox)) and isinstance(inner.sub, Not):
            return (f"{'Khat' if isinstance(inner, Know) else 'GtDia'}"
                    f"[{inner.agent}]", *_operand(inner.sub.sub, "(", " "))
        return ("~", *_operand(inner, "(", ""))
    if isinstance(g, (Know, SafeBelief, GtBox)):
        return (f"{_KIND_OF_NODE[type(g)]}[{g.agent}]", *_operand(g.sub, "(", " "))
    raise TypeError(f"not a formula: {g!r}")


def _at_level(g, level: int) -> tuple:
    """g where its context binds at ``level``: a binary operator that binds
    less tightly goes in parentheses."""
    if not isinstance(g, Formula):
        raise TypeError(f"not a formula: {g!r}")
    if isinstance(g, _BINARY) and level > _INFIX[type(g)][1]:
        return ("(", g, ")")
    return (g,)


def _operand(g, opening: str, space: str) -> tuple:
    """The operand of a box or a bracket: a binary one in parentheses that
    open with ``opening``, any other after ``space``."""
    if isinstance(g, _BINARY):
        return (opening, g, ")")
    return (space, *_at_level(g, 4))


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

"""Shared test support: an independent reference evaluator, model builders,
and hypothesis strategies.

The reference evaluator is deliberately naive: straight per-state recursion,
no memoization, no truth-set computation, with its own copies of the model
transformations written as comprehensions.  It exists to disagree with the
production evaluator if either is wrong.  ``ref_validate`` plays the same
part for ``validate``, the two ``ref_*_counterexample`` scans for the
property checks that read index rows, ``ref_reduce_dynamic`` for
``reduce_dynamic``, and ``ref_greatest_structural`` and ``ref_check_bc`` for
the bisimulation procedures that now read the partition-refinement engine.
``ref_definable_pairs`` computes the definable-pair family by closure, apart
from the refined blocks that ``definable_pairs`` reads it off.
``RefEvaluator`` is the evaluator loop that ``Evaluator.mask`` once was,
which visited each node twice and listed its operands through
``children``, and ``ref_generate`` the generator that built every order as
a set of name pairs.
``ref_least`` is the per-member scan that ``Index.least`` once was, and
``ref_view_order`` derives the order of an announcement or upgrade view
from its parent's, as views once did before they read their targets and
beliefs off the parent.
``ref_model_to_json`` is the whole-document ``json.dumps`` that
``model_to_json`` once was, ``ref_format_recursive`` the recursive printer
that ``format_formula`` once was, and ``ref_format_formula`` its later
single-call stack printer, with the print budget.  ``ref_enumerate_formulas`` and
``ref_random_formula`` are the per-kind forms of ``enumerate_formulas`` and
``random_formula``, which read the syntax module's operator table.
"""

from __future__ import annotations

import json
import random
import re
import string
from itertools import combinations
from types import SimpleNamespace

from hypothesis import strategies as st

from plausikit import (And, Announce, Atom, Bot, CheckResult, CondBelief,
                       Formula, Fragment, GenSpec, GtBox, Implies, Know, Model,
                       Not, Or, Relation, RewriteStep, RewriteTrace, SafeBelief,
                       Top, Upgrade, Violation, check_structural,
                       definable_pairs, format_formula, model_to_dict)
from plausikit.errors import ResourceLimitError
from plausikit.syntax import (_BINARY, _INFIX, _KIND_OF_NODE, _MODAL_HEADS,
                              MAX_PRINTED, OPERATOR_KINDS, ParseError, _lex,
                              gt_dia, khat)
from plausikit.model import bits, box, identity_pairs
from plausikit.rewrite import _contract
from plausikit.syntax import children, rebuild


_REF_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")


def ref_holds(m: Model, w: str, f) -> bool:
    if isinstance(f, Atom):
        return w in m.valuation.get(f.name, frozenset())
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Not):
        return not ref_holds(m, w, f.sub)
    if isinstance(f, And):
        return ref_holds(m, w, f.left) and ref_holds(m, w, f.right)
    if isinstance(f, Or):
        return ref_holds(m, w, f.left) or ref_holds(m, w, f.right)
    if isinstance(f, Implies):
        return (not ref_holds(m, w, f.left)) or ref_holds(m, w, f.right)
    if isinstance(f, Know):
        return all(ref_holds(m, v, f.sub)
                   for v in m.states if (w, v) in m.epist[f.agent])
    if isinstance(f, SafeBelief):
        rel = m.plaus[(f.agent, w)]
        return all(ref_holds(m, v, f.sub)
                   for v in m.states
                   if (w, v) in m.epist[f.agent] and (v, w) in rel)
    if isinstance(f, GtBox):
        rel = m.plaus[(f.agent, w)]
        return all(ref_holds(m, v, f.sub)
                   for v in m.states
                   if (w, v) in m.epist[f.agent]
                   and (v, w) in rel and (w, v) not in rel)
    if isinstance(f, CondBelief):
        rel = m.plaus[(f.agent, w)]
        xs = [v for v in m.states
              if (w, v) in m.epist[f.agent] and ref_holds(m, v, f.cond)]
        # Minimality via the strict order: nothing in xs strictly better.
        mins = [x for x in xs
                if not any((y, x) in rel and (x, y) not in rel for y in xs)]
        return all(ref_holds(m, v, f.sub) for v in mins)
    if isinstance(f, Announce):
        if not ref_holds(m, w, f.ann):
            return True
        return ref_holds(ref_announce(m, f.ann), w, f.sub)
    if isinstance(f, Upgrade):
        return ref_holds(ref_upgrade(m, f.up), w, f.sub)
    raise TypeError(f"not a formula: {f!r}")


def ref_validate(m: Model) -> list[str]:
    """The pair-scanning form of ``validate``, kept as its oracle: the same
    problems, with the same witnesses, in the same order."""
    problems: list[str] = []
    states = set(m.states)

    if not m.states:
        problems.append("model has no states")
    if not m.agents:
        problems.append("model has no agents")
    for s in m.states:
        if not _REF_IDENT.match(s):
            problems.append(f"bad state identifier {s!r}")
    for a in m.agents:
        if not _REF_IDENT.match(a):
            problems.append(f"bad agent identifier {a!r}")
    for p in m.valuation:
        if not _REF_IDENT.match(p):
            problems.append(f"bad atom identifier {p!r}")

    for a in sorted(m.epist):
        if a not in m.agents:
            problems.append(f"epist mentions undeclared agent {a!r}")
    for a in m.agents:
        if a not in m.epist:
            problems.append(f"no epistemic relation for agent {a!r}")
            continue
        rel = m.epist[a]
        for x, y in sorted(rel):
            for s in (x, y):
                if s not in states:
                    problems.append(f"epist[{a}] mentions unknown state {s!r}")
        pairs = {p for p in rel if p[0] in states and p[1] in states}
        for w in m.states:
            if (w, w) not in pairs:
                problems.append(f"epist[{a}] not reflexive at {w!r}")
        for x, y in sorted(pairs):
            if (y, x) not in pairs:
                problems.append(f"epist[{a}] not symmetric: ({x!r}, {y!r})")
        for x, y in sorted(pairs):
            for y2, z in sorted(pairs):
                if y == y2 and (x, z) not in pairs:
                    problems.append(
                        f"epist[{a}] not transitive: ({x!r}, {y!r}) and ({y!r}, {z!r})")

    for a, w in sorted(m.plaus):
        if a not in m.agents or w not in states:
            problems.append(f"plaus key ({a!r}, {w!r}) uses unknown agent or state")
    for a in m.agents:
        for w in m.states:
            if (a, w) not in m.plaus:
                problems.append(f"no plausibility order for ({a!r}, {w!r})")
                continue
            rel = m.plaus[(a, w)]
            for x, y in sorted(rel):
                for s in (x, y):
                    if s not in states:
                        problems.append(f"plaus[{a},{w}] mentions unknown state {s!r}")
            pairs = {p for p in rel if p[0] in states and p[1] in states}
            for x in m.states:
                if (x, x) not in pairs:
                    problems.append(f"plaus[{a},{w}] not reflexive at {x!r}")
            for x, y in sorted(pairs):
                for y2, z in sorted(pairs):
                    if y == y2 and (x, z) not in pairs:
                        problems.append(
                            f"plaus[{a},{w}] not transitive: ({x!r}, {y!r}) and ({y!r}, {z!r})")

    for p in sorted(m.valuation):
        for s in sorted(m.valuation[p]):
            if s not in states:
                problems.append(f"valuation[{p}] mentions unknown state {s!r}")

    return problems


def ref_model_to_json(m: Model) -> str:
    """The whole-document form of ``model_to_json``, kept as its oracle."""
    return json.dumps(model_to_dict(m), indent=2, sort_keys=True) + "\n"


def ref_format_formula(f: Formula) -> str:
    """The one-call stack printer that ``format_formula`` was before it
    shared work over a graph, kept verbatim as its oracle: the same text,
    and ResourceLimitError past ``MAX_PRINTED`` pieces.  ``MAX_PRINTED`` is
    this module's copy of the syntax module's value; a test that changes
    one changes both.

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


def ref_format_recursive(f) -> str:
    """The recursive form of ``format_formula``, kept as its oracle."""
    return _ref_fmt(f, 0)


def _ref_fmt(f, level: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Not):
        inner = f.sub
        if isinstance(inner, Know) and isinstance(inner.sub, Not):
            return f"Khat[{inner.agent}]" + _ref_operand(inner.sub.sub)
        if isinstance(inner, GtBox) and isinstance(inner.sub, Not):
            return f"GtDia[{inner.agent}]" + _ref_operand(inner.sub.sub)
        if isinstance(f.sub, _BINARY):
            return f"~({_ref_fmt(f.sub, 0)})"
        return "~" + _ref_fmt(f.sub, 4)
    if isinstance(f, Know):
        return f"K[{f.agent}]" + _ref_operand(f.sub)
    if isinstance(f, SafeBelief):
        return f"Bplus[{f.agent}]" + _ref_operand(f.sub)
    if isinstance(f, GtBox):
        return f"Gt[{f.agent}]" + _ref_operand(f.sub)
    if isinstance(f, CondBelief):
        return f"B[{f.agent} | {_ref_fmt(f.cond, 0)}]" + _ref_operand(f.sub)
    if isinstance(f, Announce):
        return f"[! {_ref_fmt(f.ann, 0)}]" + _ref_operand(f.sub)
    if isinstance(f, Upgrade):
        return f"[up {_ref_fmt(f.up, 0)}]" + _ref_operand(f.sub)
    if isinstance(f, And):
        out = f"{_ref_fmt(f.left, 3)} & {_ref_fmt(f.right, 4)}"
        return f"({out})" if level > 3 else out
    if isinstance(f, Or):
        out = f"{_ref_fmt(f.left, 2)} | {_ref_fmt(f.right, 3)}"
        return f"({out})" if level > 2 else out
    if isinstance(f, Implies):
        out = f"{_ref_fmt(f.left, 2)} -> {_ref_fmt(f.right, 1)}"
        return f"({out})" if level > 1 else out
    raise TypeError(f"not a formula: {f!r}")


def _ref_operand(sub) -> str:
    if isinstance(sub, _BINARY):
        return f"({_ref_fmt(sub, 0)})"
    return " " + _ref_fmt(sub, 4)


def ref_parse(text: str):
    """The recursive-descent form of ``parse``, kept as its oracle.  It
    recurses a few frames per nesting level, so deep input raises
    RecursionError."""
    p = _RefParser(_lex(text))
    f = p.formula()
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.text!r}", tok.pos, ["end of input"])
    return f


class _RefParser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead: int = 0):
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

    def take(self):
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect(self, text: str):
        tok = self.peek()
        if tok.text != text or tok.kind == "end":
            raise ParseError(
                f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
                tok.pos, [repr(text)])
        return self.take()

    def ident(self, what: str):
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(
                f"expected {what}", tok.pos, ["identifier"])
        self.take()
        return tok.text

    def formula(self):
        left = self.or_level()
        if self.peek().text == "->":
            self.take()
            return Implies(left, self.formula())
        return left

    def or_level(self):
        left = self.and_level()
        while self.peek().text == "|":
            self.take()
            left = Or(left, self.and_level())
        return left

    def and_level(self):
        left = self.unary()
        while self.peek().text == "&":
            self.take()
            left = And(left, self.unary())
        return left

    def unary(self):
        tok = self.peek()
        if tok.text == "~":
            self.take()
            return Not(self.unary())
        if tok.kind == "ident" and tok.text in _MODAL_HEADS and self.peek(1).text == "[":
            return self.modal(tok.text)
        if tok.text == "[":
            return self.dynamic()
        return self.atom_or_paren()

    def modal(self, head: str):
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

    def dynamic(self):
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

    def atom_or_paren(self):
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


def all_fragments() -> list:
    """The 64 fragments, by number of kinds, the Boolean one first."""
    return [Fragment.of(*kinds) for r in range(len(OPERATOR_KINDS) + 1)
            for kinds in combinations(OPERATOR_KINDS, r)]


def ref_enumerate_formulas(atoms, agents, fragment: Fragment, depth: int):
    """The per-kind form of ``enumerate_formulas``, kept as its oracle."""
    atoms = sorted(set(atoms))
    agents = sorted(set(agents))
    base = [Atom(p) for p in atoms] + [Top()]
    seen = set(base)
    yield from base
    prev = list(base)
    for _ in range(depth):
        fresh = []

        def emit(g) -> None:
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


def ref_random_formula(rng: random.Random, atoms, agents, fragment: Fragment,
                       depth: int) -> Formula:
    """The per-kind form of ``random_formula``, kept as its oracle: the
    same draws from rng in the same order."""
    atoms = sorted(atoms)
    agents = sorted(agents)
    if depth <= 0 or rng.random() < 0.30:
        pick = rng.choice(atoms + ["true", "false"])
        if pick == "true":
            return Top()
        if pick == "false":
            return Bot()
        return Atom(pick)
    kinds = ["not", "and", "or", "implies"]
    for kind in fragment:
        kinds.append(kind)
    kind = rng.choice(kinds)
    sub = lambda: ref_random_formula(rng, atoms, agents, fragment, depth - 1)
    if kind == "not":
        return Not(sub())
    if kind == "and":
        return And(sub(), sub())
    if kind == "or":
        return Or(sub(), sub())
    if kind == "implies":
        return Implies(sub(), sub())
    agent = rng.choice(agents)
    if kind == "K":
        return Know(agent, sub())
    if kind == "Bc":
        return CondBelief(agent, sub(), sub())
    if kind == "Bplus":
        return SafeBelief(agent, sub())
    if kind == "Gt":
        return GtBox(agent, sub())
    if kind == "Ann":
        return Announce(sub(), sub())
    return Upgrade(sub(), sub())


def ref_uniformity_counterexample(m: Model):
    """The pair-scanning form of ``uniformity_counterexample``, kept as its
    oracle."""
    for a in m.agents:
        for w in m.states:
            for v in m.states:
                if w >= v or (w, v) not in m.epist.get(a, frozenset()):
                    continue
                rw = m.plaus.get((a, w), frozenset())
                rv = m.plaus.get((a, v), frozenset())
                if rw != rv:
                    diff = min(rw.symmetric_difference(rv))
                    return (a, w, v, diff)
    return None


def ref_connectedness_counterexample(m: Model):
    """The pair-scanning form of ``connectedness_counterexample``, kept as
    its oracle."""
    for a in m.agents:
        for w in m.states:
            rel = m.plaus.get((a, w), frozenset())
            for v in m.states:
                if v == w or (w, v) not in m.epist.get(a, frozenset()):
                    continue
                if (w, v) not in rel and (v, w) not in rel:
                    return (a, w, v)
    return None


def _dynamic_count(f) -> int:
    own = 1 if isinstance(f, (Announce, Upgrade)) else 0
    return own + sum(_dynamic_count(k) for k in children(f))


def _find_redex(f, path: tuple = ()):
    """First dynamic node in preorder whose subtree contains no other
    dynamic node."""
    if isinstance(f, (Announce, Upgrade)) and _dynamic_count(f) == 1:
        return path
    for i, kid in enumerate(children(f)):
        hit = _find_redex(kid, path + (i,))
        if hit is not None:
            return hit
    return None


def subterm_at(f, path: tuple):
    for i in path:
        f = children(f)[i]
    return f


def replace_at(f, path: tuple, new):
    """f with the subterm at path replaced by new.  The path is walked with
    a loop and the spine rebuilt bottom-up, so depth costs no recursion."""
    spine = []
    for i in path:
        spine.append(f)
        f = children(f)[i]
    for node, i in zip(reversed(spine), reversed(path)):
        kids = list(children(node))
        kids[i] = new
        new = rebuild(node, tuple(kids))
    return new


def ref_reduce_dynamic(f):
    """The stepwise form of ``reduce_dynamic``, kept as its oracle: search
    the whole formula for the innermost-leftmost redex, contract it, and
    start again, until none is left."""
    steps = []
    g = f
    while True:
        path = _find_redex(g)
        if path is None:
            break
        red = subterm_at(g, path)
        rule, out = _contract(red)
        steps.append(RewriteStep(path, rule, red, out))
        g = replace_at(g, path, out)
    return g, RewriteTrace(tuple(steps))


def _ref_images(rel: Relation):
    li, ri = rel.left.index, rel.right.index
    l_img = [0] * len(li.states)
    r_img = [0] * len(ri.states)
    for w, v in rel.pairs:
        l_img[li.pos[w]] |= 1 << ri.pos[v]
        r_img[ri.pos[v]] |= 1 << li.pos[w]
    return l_img, r_img


def _ref_unmatched(lt, rt, l_img, r_img):
    for x in bits(lt):
        if not l_img[x] & rt:
            return "zig", x
    for y in bits(rt):
        if not r_img[y] & lt:
            return "zag", y
    return None


def ref_greatest_structural(left: Model, right: Model, fragment: Fragment) -> Relation:
    """The deletion-fixpoint form of ``greatest_structural``, kept as its
    oracle: start from every atom-respecting pair and delete pairs with an
    unmatched clause until nothing changes."""
    li, ri = left.index, right.index
    atoms = sorted(set(left.valuation) | set(right.valuation))
    by_atoms: dict = {}
    for v in right.states:
        sig = tuple(v in right.atom_extension(p) for p in atoms)
        by_atoms[sig] = by_atoms.get(sig, 0) | 1 << ri.pos[v]
    l_img = [by_atoms.get(tuple(w in left.atom_extension(p) for p in atoms), 0)
             for w in left.states]
    clauses = [(kind, a) for kind in ("K", "Bplus", "Gt") if kind in fragment
               for a in left.agents]
    l_t = {c: li.targets(*c) for c in clauses}
    r_t = {c: ri.targets(*c) for c in clauses}

    changed = True
    while changed:
        changed = False
        r_img = [0] * len(right.states)
        for w, vs in enumerate(l_img):
            for v in bits(vs):
                r_img[v] |= 1 << w
        for w in range(len(left.states)):
            for v in bits(l_img[w]):
                if any(_ref_unmatched(l_t[c][w], r_t[c][v], l_img, r_img)
                       for c in clauses):
                    l_img[w] &= ~(1 << v)
                    changed = True
    return Relation(left, right, frozenset(
        (w, right.states[v]) for k, w in enumerate(left.states)
        for v in bits(l_img[k])))


def ref_check_bc(rel: Relation, fragment: Fragment, cap: int = 4096) -> CheckResult:
    """The family-scanning form of ``check_bc``, kept as its oracle: build
    the whole definable-pair family, then scan pairs, agents and members in
    order for the first unmatched clause."""
    base = check_structural(rel, Fragment(fragment.operators - {"Bc"}))
    if not base.ok:
        return base
    left, right = rel.left, rel.right
    family = definable_pairs(left, right, fragment, cap=cap)
    li, ri = left.index, right.index
    l_img, r_img = _ref_images(rel)
    conds = [(li.mask(ls), ri.mask(rs)) for ls, rs in family.pairs]
    for w, v in rel.sorted_pairs():
        wi, vi = li.pos[w], ri.pos[v]
        for agent in left.agents:
            l_row, r_row = li.rows(agent)[wi], ri.rows(agent)[vi]
            l_ord, r_ord = li.order(agent, wi), ri.order(agent, vi)
            for k, (lc, rc) in enumerate(conds):
                miss = _ref_unmatched(ref_least(l_ord, lc & l_row),
                                      ref_least(r_ord, rc & r_row), l_img, r_img)
                if miss:
                    side, x = miss
                    names = li.states if side == "zig" else ri.states
                    return CheckResult(False, Violation(
                        f"Bc-{side}", (w, v), agent=agent, state=names[x],
                        detail=f"condition {format_formula(family.formula(k))}"))
    return CheckResult(True)


def ref_definable_pairs(left: Model, right: Model, fragment: Fragment) -> frozenset:
    """The definable-pair family by closure: the least set of truth-set
    pairs holding every atom pair and the pair of full state sets, closed
    under componentwise complement, intersection and the fragment's modal
    steps, with Bc conditions drawn from the set itself."""
    li, ri = left.index, right.index
    entries: list = []
    seen: set = set()

    def add(pair):
        if pair not in seen:
            seen.add(pair)
            entries.append(pair)

    for p in sorted(set(left.valuation) | set(right.valuation)):
        add((li.atom(p), ri.atom(p)))
    add((li.live, ri.live))
    unary = [k for k in ("K", "Bplus", "Gt") if k in fragment]
    i = 0
    while i < len(entries):
        ml, mr = entries[i]
        add((li.live & ~ml, ri.live & ~mr))
        for kind in unary:
            for a in left.agents:
                add((box(li.groups(kind, a), ml), box(ri.groups(kind, a), mr)))
        for nl, nr in entries[:i + 1]:
            add((ml & nl, mr & nr))
            for a in left.agents if "Bc" in fragment else ():
                add((box(li.best(a, ml), nl), box(ri.best(a, mr), nr)))
                add((box(li.best(a, nl), ml), box(ri.best(a, nr), mr)))
        i += 1
    return frozenset((li.names(ml), ri.names(mr)) for ml, mr in entries)


def ref_announce(m: Model, ann) -> Model:
    keep = {v for v in m.states if ref_holds(m, v, ann)}
    return Model(
        [s for s in m.states if s in keep],
        m.agents,
        {a: {(x, y) for x, y in rel if x in keep and y in keep}
         for a, rel in m.epist.items()},
        {(a, w): {(x, y) for x, y in rel if x in keep and y in keep}
         for (a, w), rel in m.plaus.items() if w in keep},
        {p: xs & keep for p, xs in m.valuation.items()},
    )


def ref_upgrade(m: Model, up) -> Model:
    good = {v for v in m.states if ref_holds(m, v, up)}
    bad = set(m.states) - good
    return Model(
        m.states, m.agents, m.epist,
        {key: {(x, y) for x, y in rel
               if (x in good and y in good) or (x in bad and y in bad)}
              | {(x, y) for x in good for y in bad}
         for key, rel in m.plaus.items()},
        m.valuation,
    )


def ref_least(o, xs: int) -> int:
    """The members of xs that no member of xs strictly beats under o, by
    the scan of every member that ``Index.least`` once made."""
    worse = 0
    for y in bits(xs):
        worse |= o.above[y] & ~o.below[y]
    return xs & ~worse


def ref_view_order(ix, agent: str, w: int):
    """The order agent holds at position w of the index or view ix, as
    (below, above) rows, derived view by view from the model's order the
    way views once derived their own orders."""
    if ix._parent is None:
        o = ix.order(agent, w)
        return SimpleNamespace(below=list(o.below), above=list(o.above))
    rel = ref_view_order(ix._parent, agent, w)
    live, win = ix.live, ix._zone
    if not ix._upgrade:
        return SimpleNamespace(below=[b & live for b in rel.below],
                               above=[a & live for a in rel.above])
    # Every winner becomes strictly more plausible than every other live
    # state; the order inside each zone stays.
    return SimpleNamespace(
        below=[b & win if win >> y & 1 else b | win for y, b in enumerate(rel.below)],
        above=[a & win | live & ~win if win >> x & 1 else a & ~win
               for x, a in enumerate(rel.above)])


class RefEvaluator:
    """The evaluation loop ``Evaluator`` once ran, as an oracle: each node
    is stepped once to queue its missing operands and once more to combine
    them, which are listed through ``children``."""

    def __init__(self):
        self._truth: dict = {}      # (index, formula) -> truth mask
        self._announced: dict = {}  # (index, kept states) -> view
        self._upgraded: dict = {}   # (index, winners) -> view

    def mask(self, ix, f: Formula) -> int:
        truth = self._truth
        got = truth.get((ix, f))
        if got is not None:
            return got
        todo = [(ix, f)]
        while todo:
            key = todo[-1]
            if key in truth:
                todo.pop()
                continue
            got = self._step(key[0], key[1], todo)
            if got is not None:
                truth[key] = got
                todo.pop()
        return truth[(ix, f)]

    def _step(self, ix, f: Formula, todo: list):
        truth = self._truth
        kind = type(f)
        if kind is Atom:
            return ix.atom(f.name)
        if kind is Top:
            return ix.live
        if kind is Bot:
            return 0
        if kind is Announce or kind is Upgrade:
            pre = f.ann if kind is Announce else f.up
            zone = truth.get((ix, pre))
            if zone is None:
                todo.append((ix, pre))
                return None
            if kind is Announce and not zone:
                return ix.live  # vacuously true where the precondition fails
            cache, make = ((self._announced, ix.announced) if kind is Announce
                           else (self._upgraded, ix.upgraded))
            view = cache.get((ix, zone))
            if view is None:
                view = cache[(ix, zone)] = make(zone)
            after = truth.get((view, f.sub))
            if after is None:
                todo.append((view, f.sub))
                return None
            return (ix.live & ~zone) | after if kind is Announce else after
        kids = children(f)
        parts = [truth.get((ix, k)) for k in kids]
        if None in parts:
            todo.extend((ix, k) for k, got in zip(kids, parts) if got is None)
            return None
        if kind is Not:
            return ix.live & ~parts[0]
        if kind is And:
            return parts[0] & parts[1]
        if kind is Or:
            return parts[0] | parts[1]
        if kind is Implies:
            return (ix.live & ~parts[0]) | parts[1]
        if kind is CondBelief:
            return box(ix.best(f.agent, parts[0]), parts[1])
        return box(ix.groups(_KIND_OF_NODE[kind], f.agent), parts[0])


def _ref_ranking_preorder(rng: random.Random, states) -> frozenset:
    rank = {s: rng.randrange(len(states)) for s in states}
    return frozenset((x, y) for x in states for y in states if rank[x] <= rank[y])


def _ref_random_preorder(rng: random.Random, states, total: bool) -> frozenset:
    first = _ref_ranking_preorder(rng, states)
    if total or rng.random() < 0.5:
        return first
    return first & _ref_ranking_preorder(rng, states)


def ref_generate(spec: GenSpec) -> Model:
    """The model ``generate`` draws for spec, built the way it once was:
    every relation as a frozenset of name pairs, handed to ``Model``."""
    rng = random.Random(spec.seed)
    n = rng.randint(spec.min_states, spec.max_states)
    states = [f"w{i}" for i in range(n)]
    agents = list(string.ascii_lowercase[:spec.agents])
    atom_names = [string.ascii_lowercase[15 + i % 11] + ("" if i < 11 else str(i // 11))
                  for i in range(spec.atoms)]

    singleton_classes = spec.discrete_preorders and spec.locally_connected
    total = spec.total_preorders or spec.locally_connected

    epist = {}
    classes = {}
    for a in agents:
        if singleton_classes:
            blocks = [[s] for s in states]
        else:
            k = rng.randint(1, n)
            label = {s: rng.randrange(k) for s in states}
            blocks = [[s for s in states if label[s] == b] for b in range(k)]
            blocks = [b for b in blocks if b]
        classes[a] = blocks
        epist[a] = frozenset(
            (x, y) for block in blocks for x in block for y in block)

    plaus = {}
    for a in agents:
        if spec.discrete_preorders:
            order = identity_pairs(states)
            for w in states:
                plaus[(a, w)] = order
        elif spec.uniform:
            for block in classes[a]:
                order = _ref_random_preorder(rng, states, total)
                for w in block:
                    plaus[(a, w)] = order
        else:
            for w in states:
                plaus[(a, w)] = _ref_random_preorder(rng, states, total)

    valuation = {
        p: frozenset(s for s in states if rng.random() < 0.5)
        for p in atom_names
    }
    return Model(states, agents, epist, plaus, valuation)


# ---------------------------------------------------------------------------
# Builders

def two_state(plaus_w, plaus_v, atoms=None):
    """Single-agent model on {v, w} with one epistemic class."""
    states = ["v", "w"]
    every = {(x, y) for x in states for y in states}
    return Model(
        states, ["a"], {"a": every},
        {("a", "w"): plaus_w, ("a", "v"): plaus_v},
        atoms or {},
    )


DISCRETE2 = {("v", "v"), ("w", "w")}
TOTAL2 = {("v", "v"), ("w", "w"), ("v", "w"), ("w", "v")}


# ---------------------------------------------------------------------------
# Hypothesis strategies

@st.composite
def models(draw, max_states=4, max_agents=2, max_atoms=2, min_states=1):
    n = draw(st.integers(min_states, max_states))
    states = [f"w{i}" for i in range(n)]
    agents = ["a", "b"][: draw(st.integers(1, max_agents))]
    ranks = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    epist = {}
    plaus = {}
    for a in agents:
        labels = draw(ranks)
        epist[a] = {(x, y) for i, x in enumerate(states)
                    for j, y in enumerate(states) if labels[i] == labels[j]}
        for w in states:
            r1 = draw(ranks)
            r2 = draw(ranks) if draw(st.booleans()) else r1
            plaus[(a, w)] = {
                (x, y) for i, x in enumerate(states) for j, y in enumerate(states)
                if r1[i] <= r1[j] and r2[i] <= r2[j]}
    n_atoms = draw(st.integers(0, max_atoms))
    valuation = {}
    for k in range(n_atoms):
        valuation["pq"[k] if k < 2 else f"p{k}"] = draw(
            st.sets(st.sampled_from(states)))
    return Model(states, agents, epist, plaus, valuation)


@st.composite
def broken_models(draw):
    """A generated model with pairs dropped from and added to its relations,
    some naming a state the model lacks, an order dropped, and stray keys."""
    m = draw(models())
    names = list(m.states) + ["zz"]
    pair = st.tuples(st.sampled_from(names), st.sampled_from(names))
    epist = {a: set(rel) for a, rel in m.epist.items()}
    plaus = {key: set(rel) for key, rel in m.plaus.items()}
    for rel in [*epist.values(), *plaus.values()]:
        rel -= set(draw(st.lists(st.sampled_from(sorted(rel)), max_size=2)))
        rel |= set(draw(st.lists(pair, max_size=2)))
    for key in draw(st.lists(st.sampled_from(sorted(plaus)), max_size=1)):
        del plaus[key]
    if draw(st.booleans()):
        epist["c"] = {("zz", "zz")}
        plaus[("a", "zz")] = {("zz", "zz")}
    valuation = {p: set(xs) | set(draw(st.lists(st.just("zz"), max_size=1)))
                 for p, xs in m.valuation.items()}
    return Model(m.states, m.agents, epist, plaus, valuation)


@st.composite
def broken_docs(draw):
    """The document of a generated model with pairs dropped from and added
    to its lists, some naming a state the model lacks and some repeated, an
    order dropped, and perhaps an undeclared agent and stray plaus keys."""
    doc = model_to_dict(draw(models()))
    pair = st.lists(st.sampled_from(doc["states"] + ["zz"]), min_size=2, max_size=2)
    for ps in [*doc["epist"].values(),
               *(ps for per in doc["plaus"].values() for ps in per.values())]:
        for gone in draw(st.lists(st.sampled_from(ps), max_size=2)) if ps else ():
            if gone in ps:
                ps.remove(gone)
        ps += draw(st.lists(pair, max_size=2))
    for a in draw(st.lists(st.sampled_from(sorted(doc["plaus"])), max_size=1)):
        del doc["plaus"][a][draw(st.sampled_from(sorted(doc["plaus"][a])))]
    if draw(st.booleans()):
        doc["epist"]["c"] = [["zz", "zz"], [doc["states"][0]] * 2]
        doc["plaus"]["a"]["zz"] = [["zz", "zz"]]
        doc["plaus"]["c"] = {doc["states"][0]: [[doc["states"][0], "zz"]]}
    for xs in doc["valuation"].values():
        xs += draw(st.lists(st.just("zz"), max_size=1))
    return doc


@st.composite
def repeated_docs(draw):
    """A model document whose pair lists repeat: every list is an equal
    copy of one of a few, some naming a state the model lacks, and copies
    sit under an undeclared agent and an unknown state's key."""
    doc = model_to_dict(draw(models()))
    states = doc["states"]
    pair = st.lists(st.sampled_from(states + ["zz"]), min_size=2, max_size=2)
    known = [ps for per in doc["plaus"].values() for ps in per.values()]
    pool = [draw(st.sampled_from(known)) + draw(st.lists(pair, max_size=2))
            for _ in range(draw(st.integers(1, 3)))]
    copy = lambda: [list(p) for p in draw(st.sampled_from(pool))]
    for per in doc["plaus"].values():
        for w in per:
            per[w] = copy()
    if draw(st.booleans()):
        doc["epist"]["c"] = copy()
        doc["plaus"]["c"] = {w: copy() for w in states}
        doc["plaus"]["a"]["zz"] = copy()
    return doc


def pairs_read(doc: dict):
    """A model document read as plain frozensets of pairs, apart from the
    model builder: the attributes ``ref_validate`` and the ``ref_*`` scans
    read."""
    return SimpleNamespace(
        states=tuple(sorted(doc["states"])), agents=tuple(sorted(doc["agents"])),
        epist={a: frozenset(map(tuple, ps)) for a, ps in doc["epist"].items()},
        plaus={(a, w): frozenset(map(tuple, ps))
               for a, per in doc["plaus"].items() for w, ps in per.items()},
        valuation={p: frozenset(xs) for p, xs in sorted(doc["valuation"].items())})


@st.composite
def model_with_formula(draw, fragment=Fragment.of("K", "Bc", "Bplus", "Gt",
                                                  "Ann", "Up"),
                       max_states=4, max_depth=3):
    """A model together with a formula over its own agents and atoms."""
    m = draw(models(max_states=max_states))
    atoms = sorted(m.valuation) or ["p"]
    f = draw(formulas(atoms=atoms, agents=m.agents, fragment=fragment,
                      max_depth=max_depth))
    return m, f


def formulas(atoms=("p", "q"), agents=("a", "b"),
             fragment=Fragment.of("K", "Bc", "Bplus", "Gt", "Ann", "Up"),
             max_depth=3):
    leaves = st.sampled_from(
        [Atom(p) for p in atoms] + [Top(), Bot()])

    def extend(kids):
        options = [
            st.builds(Not, kids),
            st.builds(And, kids, kids),
            st.builds(Or, kids, kids),
            st.builds(Implies, kids, kids),
        ]
        agent = st.sampled_from(list(agents))
        if "K" in fragment:
            options.append(st.builds(Know, agent, kids))
        if "Bc" in fragment:
            options.append(st.builds(CondBelief, agent, kids, kids))
        if "Bplus" in fragment:
            options.append(st.builds(SafeBelief, agent, kids))
        if "Gt" in fragment:
            options.append(st.builds(GtBox, agent, kids))
        if "Ann" in fragment:
            options.append(st.builds(Announce, kids, kids))
        if "Up" in fragment:
            options.append(st.builds(Upgrade, kids, kids))
        return st.one_of(options)

    return st.recursive(leaves, extend, max_leaves=max_depth * 3)


@st.composite
def shared_graphs(draw, max_nodes=24):
    """A few formulas built as one graph: each new node takes its
    subformulas from the last few nodes built before it, so subformulas
    recur, within one formula and across the list, and a formula's tree can
    be far larger than its graph."""
    nodes = [Atom("p"), Atom("q"), Top(), Bot()]
    agent = st.sampled_from(["a", "b"])
    unary = (Not, lambda f: khat("a", f), lambda f: gt_dia("b", f))
    boxes = (Know, SafeBelief, GtBox)
    pairs = (And, Or, Implies, Announce, Upgrade)
    for _ in range(draw(st.integers(1, max_nodes))):
        near = st.sampled_from(nodes[-5:])
        kind = draw(st.sampled_from(("unary", "box", "pair", "belief")))
        if kind == "unary":
            g = draw(st.sampled_from(unary))(draw(near))
        elif kind == "box":
            g = draw(st.sampled_from(boxes))(draw(agent), draw(near))
        elif kind == "pair":
            g = draw(st.sampled_from(pairs))(draw(near), draw(near))
        else:
            g = CondBelief(draw(agent), draw(near), draw(near))
        nodes.append(g)
    return nodes[-draw(st.integers(1, 4)):]


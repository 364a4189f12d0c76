"""Reference computations the benchmark checks the toolkit's outputs against.

Written from the definitions in the project README, apart from the program:
nothing here imports ``plausikit``.  Formulas are nested tuples::

    ("atom", p) ("top",) ("bot",) ("not", f) ("and"|"or"|"imp", f, g)
    (K|Khat|Bplus|Gt|GtDia, agent, f) ("B", agent, cond, f)
    ("ann", pre, f) ("up", pre, f)

Models are the JSON documents of the toolkit's file format, wrapped in
:class:`RefModel`.  State sets are frozensets of state names.
"""

from __future__ import annotations

import re

# ---------------------------------------------------------------------------
# Parser for the concrete syntax

_TOKEN = re.compile(r"\s*(->|[~&|()\[\]!]|[A-Za-z0-9_]+)")
_HEADS = ("K", "Khat", "B", "Bplus", "Gt", "GtDia")


def _lex(text: str) -> list[str]:
    out, i = [], 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m:
            if text[i:].strip():
                raise ValueError(f"cannot lex {text[i:i + 20]!r}")
            break
        out.append(m.group(1))
        i = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.i = 0

    def peek(self, k=0):
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want!r} at token {self.i}, got {tok!r}")
        self.i += 1
        return tok

    def formula(self):
        left = self.disj()
        if self.peek() == "->":
            self.take()
            return ("imp", left, self.formula())
        return left

    def disj(self):
        left = self.conj()
        while self.peek() == "|":
            self.take()
            left = ("or", left, self.conj())
        return left

    def conj(self):
        left = self.unary()
        while self.peek() == "&":
            self.take()
            left = ("and", left, self.unary())
        return left

    def unary(self):
        tok = self.peek()
        if tok == "~":
            self.take()
            return ("not", self.unary())
        if tok in _HEADS and self.peek(1) == "[":
            self.take()
            self.take("[")
            agent = self.take()
            if tok == "B":
                self.take("|")
                cond = self.formula()
                self.take("]")
                return ("B", agent, cond, self.unary())
            self.take("]")
            return (tok, agent, self.unary())
        if tok == "[":
            self.take()
            kind = "ann" if self.peek() == "!" else "up"
            self.take("!" if kind == "ann" else "up")
            pre = self.formula()
            self.take("]")
            return (kind, pre, self.unary())
        if tok == "(":
            self.take()
            inner = self.formula()
            self.take(")")
            return inner
        self.take()
        if tok == "true":
            return ("top",)
        if tok == "false":
            return ("bot",)
        return ("atom", tok)


def parse(text: str):
    p = _Parser(text)
    f = p.formula()
    if p.peek() is not None:
        raise ValueError(f"trailing input at token {p.i}: {p.peek()!r}")
    return f


def kinds(f) -> set:
    """Node kinds occurring in f."""
    out, todo = set(), [f]
    while todo:
        g = todo.pop()
        out.add(g[0])
        todo.extend(x for x in g[1:] if isinstance(x, tuple))
    return out


DYNAMIC = {"ann", "up"}

# ---------------------------------------------------------------------------
# Models


class RefModel:
    """A model document with the per-state views the clauses read."""

    def __init__(self, doc: dict):
        self.states = tuple(sorted(doc["states"]))
        self.all = frozenset(self.states)
        self.agents = tuple(sorted(doc["agents"]))
        self.epist = {a: frozenset(map(tuple, ps)) for a, ps in doc["epist"].items()}
        self.plaus = {(a, w): frozenset(map(tuple, ps))
                      for a, per in doc["plaus"].items() for w, ps in per.items()}
        self.val = {p: frozenset(xs) for p, xs in doc["valuation"].items()}
        self._cls = {}
        self._views = {}

    def cls(self, a, w) -> frozenset:
        key = (a, w)
        got = self._cls.get(key)
        if got is None:
            got = frozenset(v for x, v in self.epist[a] if x == w)
            self._cls[key] = got
        return got

    def view(self, a, w):
        """(class, at-least-as-plausible part, strictly-more-plausible part,
        strict order on the class as x -> states strictly better than x)."""
        key = (a, w)
        got = self._views.get(key)
        if got is None:
            cls = self.cls(a, w)
            le = self.plaus[key]
            below = frozenset(v for v in cls if (v, w) in le)
            strictly = frozenset(v for v in below if (w, v) not in le)
            better = {x: frozenset(y for y in cls
                                   if (y, x) in le and (x, y) not in le)
                      for x in cls}
            got = (cls, below, strictly, better)
            self._views[key] = got
        return got


def announce(m: RefModel, keep: frozenset) -> RefModel:
    """Keep only the states in ``keep`` and restrict every relation."""
    def cut(ps):
        return sorted([x, y] for x, y in ps if x in keep and y in keep)

    return RefModel({
        "states": sorted(keep),
        "agents": list(m.agents),
        "epist": {a: cut(r) for a, r in m.epist.items()},
        "plaus": {a: {w: cut(m.plaus[(a, w)]) for w in m.states if w in keep}
                  for a in m.agents},
        "valuation": {p: sorted(xs & keep) for p, xs in m.val.items()},
    })


def upgrade(m: RefModel, winners: frozenset) -> RefModel:
    """Every winner becomes strictly more plausible than every loser; the
    order inside each zone is kept."""
    losers = m.all - winners
    across = [[x, y] for x in winners for y in losers]
    return RefModel({
        "states": list(m.states),
        "agents": list(m.agents),
        "epist": {a: sorted(map(list, r)) for a, r in m.epist.items()},
        "plaus": {a: {w: sorted([x, y] for x, y in m.plaus[(a, w)]
                                if (x in winners) == (y in winners)) + across
                      for w in m.states}
                  for a in m.agents},
        "valuation": {p: sorted(xs) for p, xs in m.val.items()},
    })


class Evaluator:
    """Memoised truth sets on one model and the models its dynamic
    operators lead to."""

    def __init__(self, m: RefModel):
        self.m = m
        self.memo = {}
        self.after = {}

    def truth(self, f) -> frozenset:
        got = self.memo.get(f)
        if got is None:
            got = self._eval(f)
            self.memo[f] = got
        return got

    def _next(self, key, build):
        ev = self.after.get(key)
        if ev is None:
            ev = Evaluator(build())
            self.after[key] = ev
        return ev

    def _eval(self, f) -> frozenset:
        m, kind = self.m, f[0]
        if kind == "atom":
            return m.val.get(f[1], frozenset())
        if kind == "top":
            return m.all
        if kind == "bot":
            return frozenset()
        if kind == "not":
            return m.all - self.truth(f[1])
        if kind == "and":
            return self.truth(f[1]) & self.truth(f[2])
        if kind == "or":
            return self.truth(f[1]) | self.truth(f[2])
        if kind == "imp":
            return (m.all - self.truth(f[1])) | self.truth(f[2])
        if kind in ("K", "Khat", "Bplus", "Gt", "GtDia"):
            a, sub = f[1], self.truth(f[2])
            part = {"K": 0, "Khat": 0, "Bplus": 1, "Gt": 2, "GtDia": 2}[kind]
            if kind in ("Khat", "GtDia"):   # duals: some such state satisfies f
                return frozenset(w for w in m.states
                                 if not m.view(a, w)[part].isdisjoint(sub))
            return frozenset(w for w in m.states if m.view(a, w)[part] <= sub)
        if kind == "B":
            a, cond, sub = f[1], self.truth(f[2]), self.truth(f[3])
            out = []
            for w in m.states:
                cls, _, _, better = m.view(a, w)
                xs = cond & cls
                if all(x in sub for x in xs if better[x].isdisjoint(xs)):
                    out.append(w)
            return frozenset(out)
        if kind == "ann":
            heard = self.truth(f[1])
            if not heard:
                return m.all
            ev = self._next(("ann", f[1]), lambda: announce(m, heard))
            return (m.all - heard) | ev.truth(f[2])
        if kind == "up":
            winners = self.truth(f[1])
            ev = self._next(("up", f[1]), lambda: upgrade(m, winners))
            return ev.truth(f[2])
        raise ValueError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Model properties


def problems(m: RefModel) -> list[str]:
    """Violations of the model axioms: every epistemic relation an
    equivalence, every order a preorder, every (agent, state) ordered."""
    out = []
    for a in m.agents:
        rel = m.epist.get(a, frozenset())
        succ = {w: {y for x, y in rel if x == w} for w in m.states}
        for w in m.states:
            if w not in succ[w]:
                out.append(f"epist[{a}] not reflexive at {w}")
            for v in succ[w]:
                if w not in succ.get(v, ()):
                    out.append(f"epist[{a}] not symmetric at {w}, {v}")
                elif not succ[v] <= succ[w]:
                    out.append(f"epist[{a}] not transitive at {w}, {v}")
        for w in m.states:
            le = m.plaus.get((a, w))
            if le is None:
                out.append(f"no order for {a}, {w}")
                continue
            up = {x: {y for u, y in le if u == x} for x in m.states}
            for x in m.states:
                if x not in up[x]:
                    out.append(f"plaus[{a},{w}] not reflexive at {x}")
                for y in up[x]:
                    if not up.get(y, set()) <= up[x]:
                        out.append(f"plaus[{a},{w}] not transitive at {x}, {y}")
    return out


def is_uniform(m: RefModel) -> bool:
    return all(m.plaus[(a, w)] == m.plaus[(a, v)]
               for a in m.agents for w, v in m.epist[a])


def is_locally_connected(m: RefModel) -> bool:
    return all((w, v) in m.plaus[(a, w)] or (v, w) in m.plaus[(a, w)]
               for a in m.agents for w, v in m.epist[a])


def is_structural_bisimulation(left: RefModel, right: RefModel, pairs,
                               notions) -> bool:
    """Atoms agree on every pair, and for every notion in ``notions``
    (K, Bplus, Gt) and agent every reachable state on one side is matched
    by a related reachable state on the other."""
    pairs = frozenset(pairs)
    atoms = set(left.val) | set(right.val)
    part = {"K": 0, "Bplus": 1, "Gt": 2}
    for w, v in pairs:
        if any((w in left.val.get(p, ())) != (v in right.val.get(p, ()))
               for p in atoms):
            return False
        for kind in notions:
            for a in left.agents:
                xs = left.view(a, w)[part[kind]]
                ys = right.view(a, v)[part[kind]]
                if not all(any((x, y) in pairs for y in ys) for x in xs):
                    return False
                if not all(any((x, y) in pairs for x in xs) for y in ys):
                    return False
    return True

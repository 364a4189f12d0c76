"""Finite multi-agent epistemic plausibility models and their structural checks.

A model consists of a finite state set, a finite agent set, one epistemic
indistinguishability relation per agent (an equivalence relation on the
states), one plausibility preorder per agent and state, and a valuation.
A plausibility pair ``(x, y)`` reads "x is at least as plausible as y";
minimal elements are the most plausible ones.  Valuations are partial over
atoms: an atom without an entry is false everywhere.

Models are immutable after construction and safe to share; every operation
here is a pure function of its inputs.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable

from .errors import InputError

__all__ = [
    "Model", "StrictOrders", "identity_pairs", "total_pairs", "validate",
    "eq_class", "min_set", "strict", "is_uniform", "uniformity_counterexample",
    "is_locally_connected", "connectedness_counterexample", "is_image_finite",
    "model_to_dict", "model_from_dict", "model_to_json", "model_from_json",
    "load_model", "save_model",
]

_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")

Pair = tuple[str, str]


def identity_pairs(xs: Iterable[str]) -> frozenset:
    return frozenset((x, x) for x in xs)


def total_pairs(xs: Iterable[str]) -> frozenset:
    xs = list(xs)
    return frozenset((x, y) for x in xs for y in xs)


class Model:
    """Immutable epistemic plausibility model.

    ``epist[i]`` is agent i's indistinguishability relation as a set of state
    pairs.  ``plaus[(i, w)]`` is the plausibility preorder agent i uses at
    state w.  ``valuation[p]`` is the extension of atom p.  Construction
    normalizes everything into sorted tuples and frozensets behind read-only
    mappings; it does not check the model axioms, which is the job of
    :func:`validate`.
    """

    __slots__ = ("states", "agents", "epist", "plaus", "valuation", "_hash",
                 "_index")

    def __init__(self, states, agents, epist, plaus, valuation):
        put = object.__setattr__
        put(self, "states", tuple(sorted(set(states))))
        put(self, "agents", tuple(sorted(set(agents))))
        put(self, "epist", MappingProxyType({
            a: frozenset((x, y) for x, y in pairs)
            for a, pairs in sorted(dict(epist).items())
        }))
        put(self, "plaus", MappingProxyType({
            (a, w): frozenset((x, y) for x, y in pairs)
            for (a, w), pairs in sorted(dict(plaus).items())
        }))
        put(self, "valuation", MappingProxyType({
            p: frozenset(xs) for p, xs in sorted(dict(valuation).items())
        }))
        put(self, "_hash", None)
        put(self, "_index", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"Model is immutable; cannot set {name!r}")

    def _key(self):
        return (
            self.states,
            self.agents,
            tuple(sorted((a, tuple(sorted(r))) for a, r in self.epist.items())),
            tuple(sorted((k, tuple(sorted(r))) for k, r in self.plaus.items())),
            tuple(sorted((p, tuple(sorted(xs))) for p, xs in self.valuation.items())),
        )

    def __eq__(self, other):
        if not isinstance(other, Model):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._key()))
        return self._hash

    def __repr__(self):
        return (f"Model(states={list(self.states)}, agents={list(self.agents)}, "
                f"atoms={sorted(self.valuation)})")

    @property
    def index(self) -> "Index":
        """The bitmask index every semantic operation reads; built on first
        use and kept for the model's lifetime."""
        if self._index is None:
            object.__setattr__(self, "_index", Index(self))
        return self._index

    def atom_extension(self, atom: str) -> frozenset:
        """Extension of an atom; absent atoms are false everywhere."""
        return self.valuation.get(atom, frozenset())


def bits(mask: int):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Order:
    """A preorder as rows: ``below[y]`` holds the states at least as
    plausible as y, ``above[x]`` those x is at least as plausible as.
    Hashed by identity, so an order met twice is built and grouped once."""

    __slots__ = ("below", "above")

    def __init__(self, below, above):
        self.below, self.above = below, above


class Index:
    """Bitmask form of a model, or a view of one after an announcement or an
    upgrade.

    State i of the sorted state tuple is bit i, so ascending bits list states
    in sorted order; ``live`` is the set of states present.  ``rows(a)[x]``
    is the set of states agent a relates to x, and ``order(a, w)`` the
    preorder a holds at state w.  Both are built on first use: from the
    model's pairs (pairs naming unknown states are ignored), or, in a view,
    from the parent's masks.  :meth:`groups` and :meth:`best`, read through
    :func:`box`, are the truth-set transformers of every modality.
    """

    __slots__ = ("states", "agents", "pos", "live", "_atoms", "_rels",
                 "_parent", "_zone", "_upgrade", "_memo", "_sets", "__weakref__")

    def __init__(self, m: Model | None, parent: "Index | None" = None,
                 zone: int = 0, upgrade: bool = False):
        if parent is None:
            self.states, self.agents = m.states, m.agents
            self.pos = pos = {s: i for i, s in enumerate(m.states)}
            self.live = (1 << len(pos)) - 1
            self._atoms = {p: sum(1 << pos[s] for s in xs if s in pos)
                           for p, xs in m.valuation.items()}
            # The relations, not the model: an index never keeps its model alive.
            self._rels = (m.epist, m.plaus)
        else:
            self.states, self.agents, self.pos = parent.states, parent.agents, parent.pos
            self._atoms, self._rels = parent._atoms, None
            self.live = parent.live if upgrade else zone
        self._parent, self._zone, self._upgrade = parent, zone, upgrade
        # rows, orders (shared), own rows, targets, groups, classes
        self._memo: dict = {}
        self._sets: dict = {}   # mask -> frozenset of names

    def at(self, state: str) -> int:
        """Position of a live state."""
        i = self.pos.get(state)
        if i is None or not self.live >> i & 1:
            raise InputError(f"unknown state {state!r}")
        return i

    def mask(self, xs) -> int:
        return sum(1 << i for i in {self.at(s) for s in xs})

    def names(self, mask: int) -> frozenset:
        """The state names of a mask, one shared frozenset per mask."""
        got = self._sets.get(mask)
        if got is None:
            got = self._sets[mask] = frozenset(self.states[i] for i in bits(mask))
        return got

    def atom(self, p: str) -> int:
        return self._atoms.get(p, 0) & self.live

    def _pair_rows(self, rel) -> _Order:
        pos = self.pos
        below, above = [0] * len(pos), [0] * len(pos)
        for x, y in rel:
            if x in pos and y in pos:
                above[pos[x]] |= 1 << pos[y]
                below[pos[y]] |= 1 << pos[x]
        return _Order(below, above)

    def rows(self, agent: str) -> list:
        got = self._memo.get(agent)
        if got is None:
            parent = self._parent
            if parent is None:
                if agent not in self.agents or agent not in self._rels[0]:
                    raise InputError(f"unknown agent {agent!r}")
                got = self._pair_rows(self._rels[0][agent]).above
            else:
                got = [r & self.live for r in parent.rows(agent)]
            self._memo[agent] = got
        return got

    def order(self, agent: str, w: int) -> _Order:
        got = self._memo.get((agent, w))
        if got is not None:
            return got
        if self._parent is None:
            rel = self._rels[1].get((agent, self.states[w]))
            if rel is None or agent not in self.agents:
                raise InputError(f"no plausibility order for ({agent!r}, "
                                 f"{self.states[w]!r})")
        else:
            rel = self._parent.order(agent, w)
        got = self._memo.get(rel)
        if got is None:
            live, win = self.live, self._zone
            if self._parent is None:
                got = self._pair_rows(rel)
            elif not self._upgrade:
                got = _Order([b & live for b in rel.below],
                             [a & live for a in rel.above])
            else:
                # Every winner becomes strictly more plausible than every
                # other live state; the order inside each zone stays.
                got = _Order([b & win if win >> y & 1 else b | win
                              for y, b in enumerate(rel.below)],
                             [a & win | live & ~win if win >> x & 1 else a & ~win
                              for x, a in enumerate(rel.above)])
            self._memo[rel] = got
        self._memo[(agent, w)] = got
        return got

    def announced(self, keep: int) -> "Index":
        """The view keeping only the live states in keep (nonempty)."""
        keep &= self.live
        return self if keep == self.live else Index(None, self, keep)

    def upgraded(self, winners: int) -> "Index":
        """The view after radically upgrading the live states in winners."""
        winners &= self.live
        return self if winners in (0, self.live) else Index(None, self, winners, True)

    def to_model(self) -> Model:
        names, live = self.states, list(bits(self.live))

        def pairs(rows):
            return [(names[x], names[y]) for x in live for y in bits(rows[x])]

        return Model([names[i] for i in live], self.agents,
                     {a: pairs(self.rows(a)) for a in self.agents},
                     {(a, names[w]): pairs(self.order(a, w).above)
                      for a in self.agents for w in live},
                     {p: self.names(x & self.live) for p, x in self._atoms.items()})

    def targets(self, kind: str, agent: str) -> list:
        """Per state w, the states the K, Bplus or Gt box at w looks at: the
        class of w, its part at least as plausible as w, or its part
        strictly more plausible than w."""
        got = self._memo.get(("targets", kind, agent))
        if got is None:
            got = list(self.rows(agent))
            if kind != "K":
                for w, below, above in self._own_rows(agent):
                    got[w] &= below & (~above if kind == "Gt" else -1)
            self._memo[("targets", kind, agent)] = got
        return got

    def _own_rows(self, agent: str) -> list:
        """(w, below, above) per live state w: the states of w's class at
        least as plausible as w, and those w is at least as plausible as,
        under the order w holds.  Read off the order once it is built;
        before that, a model's index tests the pairs of w with its class,
        which needs only w's row of the order."""
        got = self._memo.get(("own", agent))
        if got is not None:
            return got
        rows, names, got, members = self.rows(agent), self.states, [], {}
        for w in bits(self.live):
            cls, name = rows[w], names[w]
            rel = (self._rels[1].get((agent, name))
                   if self._parent is None and (agent, w) not in self._memo else None)
            if rel is None:
                o = self.order(agent, w)
                got.append((w, o.below[w], o.above[w]))
                continue
            pairs = members.get(cls)
            if pairs is None:
                pairs = members[cls] = [(1 << x, names[x]) for x in bits(cls)]
            below = above = 0
            for b, x in pairs:
                if (x, name) in rel:
                    below |= b
                if (name, x) in rel:
                    above |= b
            got.append((w, below, above))
        self._memo[("own", agent)] = got
        return got

    def _grouped(self, key_of) -> list:
        """(key, states) pairs grouping the live states by key_of(state)."""
        out: dict = {}
        for w in bits(self.live):
            key = key_of(w)
            out[key] = out.get(key, 0) | 1 << w
        return list(out.items())

    def groups(self, kind: str, agent: str) -> list:
        """(target, states) pairs: live states grouped by :meth:`targets`."""
        got = self._memo.get(("groups", kind, agent))
        if got is None:
            got = self._memo[("groups", kind, agent)] = self._grouped(
                self.targets(kind, agent).__getitem__)
        return got

    def classes(self, agent: str) -> list:
        """((class, order), states) pairs: live states grouped by their
        epistemic class and the order they hold."""
        got = self._memo.get(("classes", agent))
        if got is None:
            rows = self.rows(agent)
            got = self._memo[("classes", agent)] = self._grouped(
                lambda w: (rows[w], self.order(agent, w)))
        return got

    def best(self, agent: str, cond: int) -> list:
        """(most plausible cond-states of the class, states) pairs, for
        conditional belief."""
        return [(self.least(o, cond & row), ws)
                for (row, o), ws in self.classes(agent)]

    @staticmethod
    def least(o: _Order, xs: int) -> int:
        """The members of xs that no member of xs strictly beats under o."""
        worse = 0
        for y in bits(xs):
            worse |= o.above[y] & ~o.below[y]
        return xs & ~worse


def box(groups: list, sub: int) -> int:
    """The states whose target set lies inside sub, over (target, states)
    pairs from :meth:`Index.groups` or :meth:`Index.best`."""
    out = 0
    for t, ws in groups:
        if not t & ~sub:
            out |= ws
    return out


@dataclass(frozen=True)
class StrictOrders:
    """Strict part and indifference part of every plausibility preorder.

    ``lt[(i, w)]`` holds (x, y) when x is strictly more plausible than y at
    (i, w); ``eqv[(i, w)]`` holds the mutually comparable pairs.
    """

    lt: dict
    eqv: dict


def validate(m: Model) -> list[str]:
    """Return every violated model invariant, with witnesses; [] means valid.

    Violations are data, not failures: an ill-formed model is describable,
    it just must not be fed to the semantic operations.
    """
    problems: list[str] = []
    states = set(m.states)
    ix = m.index

    if not m.states:
        problems.append("model has no states")
    if not m.agents:
        problems.append("model has no agents")
    for s in m.states:
        if not _IDENT.match(s):
            problems.append(f"bad state identifier {s!r}")
    for a in m.agents:
        if not _IDENT.match(a):
            problems.append(f"bad agent identifier {a!r}")
    for p in m.valuation:
        if not _IDENT.match(p):
            problems.append(f"bad atom identifier {p!r}")

    for a in sorted(m.epist):
        if a not in m.agents:
            problems.append(f"epist mentions undeclared agent {a!r}")
    for a in m.agents:
        if a not in m.epist:
            problems.append(f"no epistemic relation for agent {a!r}")
            continue
        problems += _relation_problems(m.states, states, m.epist[a], ix.rows(a),
                                       f"epist[{a}]", symmetric=True)

    for a, w in sorted(m.plaus):
        if a not in m.agents or w not in states:
            problems.append(f"plaus key ({a!r}, {w!r}) uses unknown agent or state")
    for a in m.agents:
        for i, w in enumerate(m.states):
            if (a, w) not in m.plaus:
                problems.append(f"no plausibility order for ({a!r}, {w!r})")
                continue
            problems += _relation_problems(m.states, states, m.plaus[(a, w)],
                                           ix.order(a, i).above, f"plaus[{a},{w}]",
                                           symmetric=False)

    for p in sorted(m.valuation):
        for s in sorted(m.valuation[p]):
            if s not in states:
                problems.append(f"valuation[{p}] mentions unknown state {s!r}")

    return problems


def _relation_problems(names: tuple, states: set, rel, rows: list, where: str,
                       symmetric: bool) -> list[str]:
    """Unknown states in rel, then the reflexivity, symmetry (if asked) and
    transitivity of its known part, whose successor sets are ``rows``;
    witnesses come in sorted pair order."""
    out = []
    if not states.issuperset(itertools.chain.from_iterable(rel)):
        out += [f"{where} mentions unknown state {s!r}"
                for pair in sorted(rel) for s in pair if s not in states]
    out += [f"{where} not reflexive at {names[x]!r}"
            for x, row in enumerate(rows) if not row >> x & 1]
    if symmetric:
        out += [f"{where} not symmetric: ({names[x]!r}, {names[y]!r})"
                for x, row in enumerate(rows) for y in bits(row)
                if not rows[y] >> x & 1]
    for x, row in enumerate(rows):
        reach = 0
        for y in bits(row):
            reach |= rows[y]
        if reach & ~row:
            out += [f"{where} not transitive: ({names[x]!r}, {names[y]!r}) "
                    f"and ({names[y]!r}, {names[z]!r})"
                    for y in bits(row) for z in bits(rows[y] & ~row)]
    return out


def eq_class(m: Model, agent: str, state: str) -> frozenset:
    """The epistemic equivalence class of ``state`` under agent ``agent``."""
    ix = m.index
    return ix.names(ix.rows(agent)[ix.at(state)])


def min_set(m: Model, agent: str, state: str, xs: Iterable[str]) -> frozenset:
    """Most-plausible elements of ``xs`` under the order held at ``state``.

    An element x of xs is minimal when every y in xs that is at least as
    plausible as x is matched back (x is at least as plausible as y).  On a
    finite model this is nonempty whenever xs is.
    """
    ix = m.index
    order = ix.order(agent, ix.at(state))
    return ix.names(ix.least(order, ix.mask(xs)))


def strict(m: Model) -> StrictOrders:
    """Split every plausibility preorder into strict and indifference parts."""
    lt = {}
    eqv = {}
    for key, rel in m.plaus.items():
        lt[key] = frozenset((x, y) for x, y in rel if (y, x) not in rel)
        eqv[key] = frozenset((x, y) for x, y in rel if (y, x) in rel)
    return StrictOrders(lt=lt, eqv=eqv)


def uniformity_counterexample(m: Model):
    """First (agent, w, v, pair) where indistinguishable states hold
    different plausibility orders; None when the model is uniform."""
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


def is_uniform(m: Model) -> bool:
    return uniformity_counterexample(m) is None


def connectedness_counterexample(m: Model):
    """First (agent, w, v) with w and v indistinguishable but incomparable
    under the order held at w; None when the model is locally connected."""
    for a in m.agents:
        for w in m.states:
            rel = m.plaus.get((a, w), frozenset())
            for v in m.states:
                if v == w or (w, v) not in m.epist.get(a, frozenset()):
                    continue
                if (w, v) not in rel and (v, w) not in rel:
                    return (a, w, v)
    return None


def is_locally_connected(m: Model) -> bool:
    return connectedness_counterexample(m) is None


def is_image_finite(m: Model) -> bool:
    """Every epistemic class is finite.  Vacuously true here: this toolkit
    only represents finite models.  Kept so harness assertions can state the
    hypothesis explicitly."""
    return True


# ---------------------------------------------------------------------------
# File format (JSON)

_TOP_KEYS = {"states", "agents", "epist", "plaus", "valuation"}


def model_to_dict(m: Model) -> dict:
    return {
        "states": list(m.states),
        "agents": list(m.agents),
        "epist": {
            a: [list(p) for p in sorted(m.epist.get(a, frozenset()))]
            for a in m.agents
        },
        "plaus": {
            a: {
                w: [list(p) for p in sorted(m.plaus.get((a, w), frozenset()))]
                for w in m.states
            }
            for a in m.agents
        },
        "valuation": {p: sorted(xs) for p, xs in m.valuation.items()},
    }


def _check_pairs(raw, where: str) -> list[tuple[str, str]]:
    if not isinstance(raw, list):
        raise InputError(f"{where}: expected a list of pairs")
    out = []
    for item in raw:
        x, y = item if isinstance(item, list) and len(item) == 2 else (None, None)
        if not (isinstance(x, str) and isinstance(y, str)):
            raise InputError(f"{where}: malformed pair {item!r}")
        out.append((x, y))
    return out


def model_from_dict(d: dict) -> Model:
    if not isinstance(d, dict):
        raise InputError("model document must be a JSON object")
    missing = _TOP_KEYS - set(d)
    if missing:
        raise InputError(f"model document missing keys: {sorted(missing)}")
    extra = set(d) - _TOP_KEYS
    if extra:
        raise InputError(f"model document has unknown keys: {sorted(extra)}")
    for key in ("states", "agents"):
        names = d[key]
        if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
            raise InputError(f"{key}: expected a list of strings")
        if len(set(names)) != len(names):
            dup = next(s for i, s in enumerate(names) if s in names[:i])
            raise InputError(f"{key}: duplicate name {dup!r}")
    if not isinstance(d["epist"], dict):
        raise InputError("epist: expected an object")
    if not isinstance(d["plaus"], dict):
        raise InputError("plaus: expected an object")
    if not isinstance(d["valuation"], dict):
        raise InputError("valuation: expected an object")
    epist = {a: _check_pairs(pairs, f"epist[{a}]") for a, pairs in d["epist"].items()}
    plaus = {}
    for a, per_state in d["plaus"].items():
        if not isinstance(per_state, dict):
            raise InputError(f"plaus[{a}]: expected an object")
        for w, pairs in per_state.items():
            plaus[(a, w)] = _check_pairs(pairs, f"plaus[{a}][{w}]")
    valuation = {}
    for p, xs in d["valuation"].items():
        if not isinstance(xs, list) or not all(isinstance(s, str) for s in xs):
            raise InputError(f"valuation[{p}]: expected a list of states")
        valuation[p] = xs
    return Model(d["states"], d["agents"], epist, plaus, valuation)


def model_to_json(m: Model) -> str:
    """Serialize with sorted keys and sorted arrays; byte-stable."""
    return json.dumps(model_to_dict(m), indent=2, sort_keys=True) + "\n"


def model_from_json(text: str) -> Model:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"not valid JSON: {e}") from None
    return model_from_dict(doc)


def load_model(path, check: bool = True) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        m = model_from_json(fh.read())
    if check:
        problems = validate(m)
        if problems:
            raise InputError(f"invalid model in {path}: " + "; ".join(problems))
    return m


def save_model(m: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(m))

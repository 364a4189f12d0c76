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

import json
import re
from dataclasses import dataclass
from itertools import compress
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

def identity_pairs(xs: Iterable[str]) -> frozenset:
    return frozenset((x, x) for x in xs)


def total_pairs(xs: Iterable[str]) -> frozenset:
    xs = list(xs)
    return frozenset((x, y) for x in xs for y in xs)


class Model:
    """Immutable epistemic plausibility model.

    ``epist[i]`` is agent i's indistinguishability relation as a set of state
    pairs.  ``plaus[(i, w)]`` is the plausibility preorder agent i uses at
    state w.  ``valuation[p]`` is the extension of atom p.  The storage is
    :attr:`index`, built at construction in one pass over the pairs: every
    relation as bitmask rows, equal orders given as pairs stored once.
    ``epist`` and ``plaus`` read the pairs back as read-only mappings of
    frozensets, built on first access.  Pairs naming unknown states, and the
    relations of undeclared agents or of keys naming unknown agents or
    states, are kept on the side, and only when present.  Construction does
    not check the model axioms, which is the job of :func:`validate`.
    """

    __slots__ = ("states", "agents", "valuation", "index", "_side", "_hash",
                 "_epist", "_plaus")

    def __init__(self, states, agents, epist, plaus, valuation):
        self._fill(*_relations(states, agents, dict(epist).items(),
                               dict(plaus).items()), valuation)

    def _fill(self, states, pos, agents, rows, orders, side, valuation):
        put = object.__setattr__
        valuation = {p: frozenset(xs) for p, xs in sorted(dict(valuation).items())}
        put(self, "states", states)
        put(self, "agents", agents)
        put(self, "valuation", MappingProxyType(valuation))
        put(self, "index", Index(states, agents, pos, rows, orders, {
            p: sum(1 << pos[s] for s in xs if s in pos) for p, xs in valuation.items()}))
        put(self, "_side", side)
        for name in ("_hash", "_epist", "_plaus"):
            put(self, name, None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"Model is immutable; cannot set {name!r}")

    def _read_back(self, slot: str, items, side: dict):
        """The read-only mapping of name-pair frozensets in slot, built on
        first access from (key, rows) items and the side pairs."""
        if getattr(self, slot) is None:
            seen: dict = {}
            got = {k: seen.get(id(r)) or seen.setdefault(id(r), _named(self.states, r))
                   for k, r in items}
            for k, pairs in side.items():
                got[k] = got.get(k, frozenset()) | pairs
            object.__setattr__(self, slot, MappingProxyType(dict(sorted(got.items()))))
        return getattr(self, slot)

    epist = property(lambda self: self._read_back(
        "_epist", self.index._rows.items(), self._side[0]))
    plaus = property(lambda self: self._read_back(
        "_plaus", (((a, self.states[w]), o.above) for (a, w), o in self.index._orders.items()),
        self._side[1]))

    def _key(self):
        ix, side = self.index, self._side
        return (
            self.states,
            self.agents,
            tuple((a, tuple(r)) for a, r in sorted(ix._rows.items())),
            tuple((k, tuple(o.above)) for k, o in sorted(ix._orders.items())),
            tuple(sorted((p, tuple(sorted(xs))) for p, xs in self.valuation.items())),
            tuple(tuple(sorted((k, tuple(sorted(r))) for k, r in d.items())) for d in side),
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

    def atom_extension(self, atom: str) -> frozenset:
        """Extension of an atom; absent atoms are false everywhere."""
        return self.valuation.get(atom, frozenset())


def bits(mask: int):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _named(names, rows) -> frozenset:
    """The pairs of state names that rows relate."""
    return frozenset((names[x], names[y]) for x, row in enumerate(rows)
                     for y in bits(row))


class _Order:
    """A preorder as rows: ``below[y]`` holds the states at least as
    plausible as y, ``above[x]`` those x is at least as plausible as.
    Hashed by identity, so an order met twice is built and grouped once."""

    __slots__ = ("below", "above")

    def __init__(self, below, above):
        self.below, self.above = below, above


def _masks(raw, pos: dict, bit: list, where):
    """The above and below rows of one pair list over the states in pos, and
    the set of its pairs naming other states (None when there are none).
    A list from a model document comes with its place, ``where``, and raises
    InputError naming it when malformed."""
    above, below, other = [0] * len(bit), [0] * len(bit), None
    if where and not (type(raw) is list and set(map(type, raw)) <= {list}
                    and set(map(len, raw)) <= {2}):
        if type(raw) is not list:
            raise InputError(f"{where}: expected a list of pairs")
        bad = next(p for p in raw if type(p) is not list or len(p) != 2
                   or not (type(p[0]) is str and type(p[1]) is str))
        raise InputError(f"{where}: malformed pair {bad!r}")
    for x, y in raw:
        try:
            i = pos[x]
            j = pos[y]
        except (KeyError, TypeError):
            if where and not (type(x) is str and type(y) is str):
                raise InputError(f"{where}: malformed pair {[x, y]!r}") from None
            other = other or set()
            other.add((x, y))
            continue
        above[i] |= bit[j]
        below[j] |= bit[i]
    return above, below, other


def _relations(states, agents, epist, plaus, doc: bool = False) -> tuple:
    """Every relation of a model as index rows, in one pass over its
    (key, pairs) items: (states, pos, agents, rows, orders, side).  Equal
    orders share one _Order.  A document's plausibility list equal to one
    read before from the same document takes that list's order and side
    pairs, so each distinct order is read once."""
    states, agents = tuple(sorted(set(states))), tuple(sorted(set(agents)))
    pos = {s: i for i, s in enumerate(states)}
    bit = [1 << i for i in range(len(states))]
    rows, orders, e_side, p_side, interned, read = {}, {}, {}, {}, {}, {}

    def order(raw, where):
        """The _Order of one pair list and the frozenset of its pairs
        naming other states (None when there are none)."""
        # Lists read before, by length; a list equal to one of them is
        # well formed, since pairs of strings equal only pairs of strings.
        same = read.setdefault(len(raw), []) if doc and type(raw) is list else None
        for old, got in same or ():
            if old == raw:
                return got
        above, below, other = _masks(raw, pos, bit, where)
        got = (interned.setdefault(tuple(above), _Order(below, above)),
               other and frozenset(other))
        if same is not None:
            same.append((raw, got))
        return got

    for a, raw in epist:
        above, _, other = _masks(raw, pos, bit, doc and f"epist[{a}]")
        if a not in agents:
            e_side[a] = _named(states, above).union(other or ())
            continue
        rows[a] = above
        if other:
            e_side[a] = frozenset(other)
    for key, raw in plaus:
        a, w = key
        o, other = order(raw, doc and f"plaus[{a}][{w}]")
        if a not in agents or w not in pos:
            p_side[key] = _named(states, o.above).union(other or ())
            continue
        orders[(a, pos[w])] = o
        if other:
            p_side[key] = other
    return states, pos, agents, rows, orders, (e_side, p_side)


class Index:
    """Bitmask form of a model, which is its storage, or a view of one after
    an announcement or an upgrade.

    State i of the sorted state tuple is bit i, so ascending bits list states
    in sorted order; ``live`` is the set of states present.  ``rows(a)[x]``
    is the set of states agent a relates to x, and ``order(a, w)`` the
    preorder a holds at state w.  A model's index gets them at construction;
    a view derives its targets and beliefs from its parent's, and only
    :meth:`to_model` builds its orders.  :meth:`groups` and :meth:`best`,
    read through :func:`box`, are the truth-set transformers of every modality.
    """

    __slots__ = ("states", "agents", "pos", "live", "_atoms", "_rows", "_orders",
                 "_parent", "_zone", "_upgrade", "_memo", "_sets", "__weakref__")

    def __init__(self, states: tuple, agents: tuple, pos: dict, rows: dict,
                 orders: dict, atoms: dict, parent: "Index | None" = None,
                 zone: int = -1, upgrade: bool = False):
        self.states, self.agents, self.pos, self._atoms = states, agents, pos, atoms
        # By agent, and by (agent, position); a view fills only its rows.
        self._rows, self._orders = rows, orders
        self.live = parent.live if upgrade else zone & (1 << len(states)) - 1
        self._parent, self._zone, self._upgrade = parent, zone, upgrade
        # targets, groups and classes
        self._memo: dict = {}
        self._sets: dict = {}   # mask -> frozenset of names

    def _view(self, zone: int, upgrade: bool = False) -> "Index":
        return Index(self.states, self.agents, self.pos, {}, {}, self._atoms,
                     self, zone, upgrade)

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

    def rows(self, agent: str) -> list:
        got = self._rows.get(agent)
        if got is None:
            if self._parent is None:
                raise InputError(f"unknown agent {agent!r}")
            got = self._rows[agent] = [r & self.live for r in self._parent.rows(agent)]
        return got

    def order(self, agent: str, w: int) -> _Order:
        got = self._orders.get((agent, w))
        if got is None:
            raise InputError(f"no plausibility order for ({agent!r}, "
                             f"{self.states[w]!r})")
        return got

    def announced(self, keep: int) -> "Index":
        """The view keeping only the live states in keep (nonempty)."""
        keep &= self.live
        return self if keep == self.live else self._view(keep)

    def upgraded(self, winners: int) -> "Index":
        """The view after radically upgrading the live states in winners."""
        winners &= self.live
        return self if winners in (0, self.live) else self._view(winners, True)

    def to_model(self) -> Model:
        """The model this index shows, handed its masks: live states are
        renumbered in order, and each order of the index gives one order."""
        live = list(bits(self.live))
        new = {i: 1 << k for k, i in enumerate(live)}
        made: dict = {}     # parent's order -> the view's order derived from it

        def order(ix, a, w):
            if ix._parent is None:
                return ix.order(a, w)
            rel, on, win = order(ix._parent, a, w), ix.live, ix._zone
            got = made.get(rel)
            if got is None and not ix._upgrade:
                got = _Order([b & on for b in rel.below], [x & on for x in rel.above])
            elif got is None:
                # Every winner becomes strictly more plausible than every
                # other live state; the order inside each zone stays.
                got = _Order([b & win if win >> y & 1 else b | win for y, b in enumerate(rel.below)],
                             [x & win | on & ~win if win >> v & 1 else x & ~win
                              for v, x in enumerate(rel.above)])
            made[rel] = got
            return got

        def cut(rows):
            if len(live) == len(rows):
                return list(rows)
            return [sum(new[y] for y in bits(rows[x])) for x in live]

        names, cuts = tuple(self.states[i] for i in live), {}
        rows = {a: cut(self.rows(a)) for a in self.agents}
        orders = {(a, k): cuts.get(o) or cuts.setdefault(o, _Order(cut(o.below), cut(o.above)))
                  for a in self.agents for k, o in enumerate(order(self, a, w) for w in live)}
        return Model.__new__(Model)._fill(
            names, {s: k for k, s in enumerate(names)}, self.agents, rows, orders,
            ({}, {}), {p: self.names(x & self.live) for p, x in self._atoms.items()})

    def targets(self, kind: str, agent: str) -> list:
        """Per state w, the states the K, Bplus or Gt box at w looks at: the
        class of w, its part at least as plausible as w, or its part
        strictly more plausible than w.  A view cuts its parent's to its live
        states; an upgrade's winners cut a winner's and join a loser's."""
        def make():
            up, live, win = self._parent, self.live, self._zone
            if up is None:
                got = list(self.rows(agent))
                for w in bits(live) if kind != "K" else ():
                    o = self.order(agent, w)
                    got[w] &= o.below[w] & (~o.above[w] if kind == "Gt" else -1)
                return got
            got = up.targets(kind, agent)
            if not self._upgrade:
                return [t & live for t in got]
            rows = up.rows(agent)
            return got if kind == "K" else [t & win if win >> w & 1 else t | rows[w] & win
                                            for w, t in enumerate(got)]
        return self._memoised(("targets", kind, agent), make)

    def _memoised(self, key, make):
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = make()
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
        return self._memoised(("groups", kind, agent), lambda: self._grouped(
            self.targets(kind, agent).__getitem__))

    def classes(self, agent: str) -> list:
        """((class, order), states) pairs: the states of a model grouped by
        their epistemic class and the order they hold."""
        return self._memoised(("classes", agent), lambda: self._grouped(
            lambda w: (self.rows(agent)[w], self.order(agent, w))))

    def best(self, agent: str, cond: int) -> list:
        """(most plausible cond-states of the class, states) pairs, for
        conditional belief, over the model's :meth:`classes` cut to the live
        states.  Each upgrade on the way down to the model keeps only the
        winners of a set that holds some."""
        ups, ix, live = [], self, self.live
        while ix._parent is not None:
            if ix._upgrade:
                ups.append(ix._zone)
            ix = ix._parent
        least, got, cond = self.least, [], cond & live
        for (row, o), ws in ix.classes(agent):
            xs = cond & row
            for win in ups:
                xs = xs & win or xs
            got.append((least(o, xs), ws & live))
        return got

    @staticmethod
    def least(o: _Order, xs: int) -> int:
        """The members of xs that no member of xs strictly beats under o, a
        preorder as :func:`validate` checks.  A member that one scanned before
        beats is skipped: by transitivity, its beater beats what it beats."""
        rest, worse = xs, 0
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            worse |= o.above[y] & ~o.below[y]
            rest &= ~(worse | low)
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
    ix, pos, (e_side, p_side) = m.index, m.index.pos, m._side

    if not m.states:
        problems.append("model has no states")
    if not m.agents:
        problems.append("model has no agents")
    for kind, names in (("state", m.states), ("agent", m.agents), ("atom", m.valuation)):
        problems += [f"bad {kind} identifier {s!r}" for s in names if not _IDENT.match(s)]

    problems += [f"epist mentions undeclared agent {a!r}"
                 for a in sorted(e_side) if a not in m.agents]
    for a in m.agents:
        if a not in ix._rows:
            problems.append(f"no epistemic relation for agent {a!r}")
            continue
        problems += _relation_problems(
            f"epist[{a}]", pos, e_side.get(a), _laws(m.states, ix._rows[a], True))

    problems += [f"plaus key ({a!r}, {w!r}) uses unknown agent or state"
                 for a, w in sorted(p_side) if a not in m.agents or w not in pos]
    laws: dict = {}     # _Order -> its broken laws, checked once per order
    for a in m.agents:
        for i, w in enumerate(m.states):
            o = ix._orders.get((a, i))
            if o is None:
                problems.append(f"no plausibility order for ({a!r}, {w!r})")
                continue
            broken = laws.get(o)
            if broken is None:
                broken = laws[o] = _laws(m.states, o.above, False)
            other = p_side.get((a, w))
            if broken or other:
                problems += _relation_problems(f"plaus[{a},{w}]", pos, other, broken)

    problems += [f"valuation[{p}] mentions unknown state {s!r}"
                 for p in sorted(m.valuation) for s in sorted(m.valuation[p]) if s not in pos]
    return problems


def _relation_problems(where: str, pos: dict, other, broken: list) -> list[str]:
    """The pairs of other naming unknown states, then the broken laws, of
    the relation at where."""
    out = [f"{where} mentions unknown state {s!r}"
           for pair in sorted(other or ()) for s in pair if s not in pos]
    return out + [f"{where} {law}" for law in broken]


def _laws(names: tuple, rows: list, symmetric: bool) -> list[str]:
    """The failures of reflexivity, symmetry (if asked) and transitivity of
    the relation whose successor sets are ``rows``; witnesses come in
    sorted pair order."""
    out = [f"not reflexive at {names[x]!r}"
           for x, row in enumerate(rows) if not row >> x & 1]
    # By row: the states every member relates to, and those some member
    # relates to.  States with equal rows, as in a class, share them.
    meet, reach_of = {}, {}
    for x, row in enumerate(rows) if symmetric else ():
        common = meet.get(row)
        if common is None:
            common = -1
            for y in bits(row):
                common &= rows[y]
            meet[row] = common
        if not common >> x & 1:
            out += [f"not symmetric: ({names[x]!r}, {names[y]!r})"
                    for y in bits(row) if not rows[y] >> x & 1]
    for x, row in enumerate(rows):
        reach = reach_of.get(row)
        if reach is None:
            reach = 0
            for y in bits(row):
                reach |= rows[y]
            reach_of[row] = reach
        if reach & ~row:
            out += [f"not transitive: ({names[x]!r}, {names[y]!r}) "
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
    finite model this is nonempty whenever xs is.  The order must be a
    preorder, as :func:`validate` checks: on a relation that is not
    transitive, :meth:`Index.least` may keep a member that another beats.
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
    ix, names, side = m.index, m.states, m._side[1]
    none = _Order(None, [0] * len(names))
    for a in m.agents:
        for w, row in enumerate(ix._rows.get(a, ())):
            for v in bits(row >> w + 1 << w + 1):
                rw, rv = (ix._orders.get((a, x), none).above for x in (w, v))
                sw, sv = (side.get((a, names[x]), frozenset()) for x in (w, v))
                if rw != rv or sw != sv:
                    return (a, names[w], names[v],
                            min((_named(names, rw) | sw) ^ (_named(names, rv) | sv)))
    return None


def is_uniform(m: Model) -> bool:
    return uniformity_counterexample(m) is None


def connectedness_counterexample(m: Model):
    """First (agent, w, v) with w and v indistinguishable but incomparable
    under the order held at w; None when the model is locally connected."""
    ix = m.index
    for a in m.agents:
        for w, row in enumerate(ix._rows.get(a, ())):
            o = ix._orders.get((a, w))
            apart = row & ~(1 << w | (o.below[w] | o.above[w] if o else 0))
            if apart:
                return (a, m.states[w], m.states[(apart & -apart).bit_length() - 1])
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


def _pair_list(names: tuple, rows, other) -> list:
    """The pairs of rows, and those of other, as name lists in sorted order:
    ascending bits are already sorted."""
    got = [[names[x], names[y]] for x, row in enumerate(rows) for y in bits(row)]
    return sorted(got + [list(p) for p in other]) if other else got


def model_to_dict(m: Model) -> dict:
    ix, names = m.index, m.states
    e_side, p_side = m._side
    none = _Order((), ())
    return {
        "states": list(names),
        "agents": list(m.agents),
        "epist": {a: _pair_list(names, ix._rows.get(a, ()), e_side.get(a))
                  for a in m.agents},
        "plaus": {
            a: {w: _pair_list(names, ix._orders.get((a, i), none).above,
                              p_side.get((a, w)))
                for i, w in enumerate(names)}
            for a in m.agents
        },
        "valuation": {p: sorted(xs) for p, xs in m.valuation.items()},
    }


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
    for key in ("epist", "plaus", "valuation"):
        if not isinstance(d[key], dict):
            raise InputError(f"{key}: expected an object")

    def plaus():
        for a, per_state in d["plaus"].items():
            if not isinstance(per_state, dict):
                raise InputError(f"plaus[{a}]: expected an object")
            yield from (((a, w), pairs) for w, pairs in per_state.items())

    relations = _relations(d["states"], d["agents"], d["epist"].items(), plaus(),
                           doc=True)
    for p, xs in d["valuation"].items():
        if not isinstance(xs, list) or not all(isinstance(s, str) for s in xs):
            raise InputError(f"valuation[{p}]: expected a list of states")
    return Model.__new__(Model)._fill(*relations, d["valuation"])


def model_to_json(m: Model) -> str:
    """Serialize with sorted keys and sorted arrays; byte-stable.

    The text is ``json.dumps(model_to_dict(m), indent=2, sort_keys=True)``
    and a newline, written from the masks: each name is encoded once, and
    each distinct order's pair list is rendered once for every key holding
    it.  A list with pairs naming other states is rendered from its sorted
    names."""
    ix, names, (e_side, p_side) = m.index, m.states, m._side
    enc = {s: json.dumps(s) for s in names}
    name = lambda s: enc[s] if s in enc else json.dumps(s)

    def pairs(rows, other, ind: str) -> str:
        """The pair list of rows and other, opened at indentation ind."""
        inner, close = ind + "    ", f"\n{ind}  ]"
        if other:
            return _json_list([f"[\n{inner}{name(x)},\n{inner}{name(y)}{close}"
                               for x, y in _pair_list(names, rows, other)], ind)
        # A pair is the head of its first state and the tail of its second.
        heads = [f"[\n{inner}{enc[s]},\n{inner}" for s in names]
        tails = [enc[s] + close for s in names]
        sep = f",\n{ind}  "
        return _json_list([heads[x] + (sep + heads[x]).join(_members(tails, row))
                           for x, row in enumerate(rows) if row], ind)

    done: dict = {}     # _Order -> its pair list
    none = _Order((), ())

    def order(a: str, i: int, w: str) -> str:
        o, other = ix._orders.get((a, i), none), p_side.get((a, w))
        if other:
            return pairs(o.above, other, "      ")
        got = done.get(o)
        if got is None:
            got = done[o] = pairs(o.above, None, "      ")
        return got

    return _json_object([
        ('"agents"', _json_list([name(a) for a in m.agents], "  ")),
        ('"epist"', _json_object([
            (name(a), pairs(ix._rows.get(a, ()), e_side.get(a), "    "))
            for a in m.agents], "  ")),
        ('"plaus"', _json_object([
            (name(a), _json_object([(enc[w], order(a, i, w)) for i, w in enumerate(names)],
                                   "    "))
            for a in m.agents], "  ")),
        ('"states"', _json_list(list(enc.values()), "  ")),
        ('"valuation"', _json_object([
            (name(p), _json_list([name(s) for s in sorted(xs)], "    "))
            for p, xs in m.valuation.items()], "  ")),
    ], "") + "\n"


def _json_list(items: list, ind: str) -> str:
    """A JSON array of encoded items, closing at indentation ind, as
    ``json.dumps`` with ``indent=2`` lays it out."""
    if not items:
        return "[]"
    sep = f",\n{ind}  "
    return f"[\n{ind}  {sep.join(items)}\n{ind}]"


def _json_object(items: list, ind: str) -> str:
    """A JSON object of (encoded key, encoded value) items, closing at
    indentation ind, as ``json.dumps`` with ``indent=2`` lays it out."""
    if not items:
        return "{}"
    sep = f",\n{ind}  "
    return "{\n" + ind + "  " + sep.join(f"{k}: {v}" for k, v in items) + f"\n{ind}}}"


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _members(items: list, mask: int):
    """The items at the set bits of mask, lowest first."""
    # The binary digits of mask, lowest first, as bytes 0 and 1.
    return compress(items, bin(mask)[:1:-1].encode().translate(_BIT_BYTES))


def _decode(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"not valid JSON: {e}") from None


def model_from_json(text: str) -> Model:
    return model_from_dict(_decode(text))


def read_json(path):
    """The JSON document in a UTF-8 file; bad JSON raises InputError."""
    with open(path, "r", encoding="utf-8") as fh:
        return _decode(fh.read())


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

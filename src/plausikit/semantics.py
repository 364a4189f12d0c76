"""Exact model checking of the full language on finite models.

Truth sets are computed bottom-up as bitmasks over the model's
:class:`~plausikit.model.Index`, which is built once per model and holds the
epistemic classes and plausibility orders as masks.  Dynamic operators do
not build models: an announcement is a view of the index with fewer live
states and an upgrade a view with a winning zone.  A view derives its box
targets and most plausible states from its parent's and builds no orders.
The masks of subformulas and the views are memoized within one session.
Those caches live inside an :class:`Evaluator` instance and are never shared
between calls unless the caller shares the evaluator; what the index itself
memoizes depends on the model alone, so the module is safe under concurrent
use of distinct evaluators.
"""

from __future__ import annotations

from .model import Index, Model, box
from .syntax import (_KIND_OF_NODE, And, Announce, Atom, Bot, CondBelief,
                     Formula, Implies, Not, Or, Top, Upgrade, children)

__all__ = ["Evaluator", "holds", "truth_set", "is_valid_on"]


class Evaluator:
    """Evaluation session with shared caches.

    Reusing one evaluator across many formulas on the same model lets common
    subformulas and transformed models be computed once.  Caches are keyed
    on index objects, which they keep alive, never on object ids.
    """

    def __init__(self):
        self._truth: dict = {}      # (index, formula) -> truth mask
        self._announced: dict = {}  # (index, kept states) -> view
        self._upgraded: dict = {}   # (index, winners) -> view

    def truth_set(self, m: Model, f: Formula) -> frozenset:
        ix = m.index
        return ix.names(self.mask(ix, f))

    def mask(self, ix: Index, f: Formula) -> int:
        """Truth mask of f on ix.  Evaluated with an explicit post-order
        stack, so the depth of f is not bounded by Python's recursion."""
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

    def _step(self, ix: Index, f: Formula, todo: list):
        """The mask of f on ix, or None after queueing the results it needs
        that are not known yet."""
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


def truth_set(m: Model, f: Formula) -> frozenset:
    """States of m where f holds."""
    return Evaluator().truth_set(m, f)


def holds(m: Model, state: str, f: Formula) -> bool:
    """Truth of f at a single state."""
    ix = m.index
    i = ix.at(state)
    return bool(Evaluator().mask(ix, f) >> i & 1)


def is_valid_on(m: Model, f: Formula):
    """(True, None) when f holds at every state of m, else (False, w) with
    the least falsifying state."""
    ix = m.index
    bad = ix.live & ~Evaluator().mask(ix, f)
    if not bad:
        return True, None
    return False, ix.states[(bad & -bad).bit_length() - 1]

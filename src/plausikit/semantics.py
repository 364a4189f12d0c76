"""Exact model checking of the full language on finite models.

Truth sets are computed bottom-up as bitmasks over the model's
:class:`~plausikit.model.Index`, which is built once per model and holds the
epistemic classes and plausibility orders as masks.  Each node is computed
once per index, when the masks of its operands, read straight from its
fields, are known; an explicit stack holds the nodes waiting for theirs.
Dynamic operators do not build models: an announcement is a view of the
index with fewer live states and an upgrade a view with a winning zone.  A
view derives its box targets and most plausible states from its parent's
and builds no orders.
The masks of subformulas and the views are memoized within one session.
Those caches live inside an :class:`Evaluator` instance and are never shared
between calls unless the caller shares the evaluator; what the index itself
memoizes depends on the model alone, so the module is safe under concurrent
use of distinct evaluators.
"""

from __future__ import annotations

from .model import Index, Model, box
from .syntax import (_KIND_OF_NODE, And, Announce, Atom, Bot, CondBelief,
                     Formula, GtBox, Implies, Know, Not, Or, SafeBelief, Top,
                     Upgrade)

__all__ = ["Evaluator", "holds", "truth_set", "is_valid_on"]

# Node classes by the number of their operands: a unary node's is ``sub``.
_UNARY = (Not, Know, SafeBelief, GtBox)
_BINARY = (And, Or, Implies, CondBelief)


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
        """Truth mask of f on ix.  Each node is computed once, when the masks
        of its operands are known; while one is missing, that operand is
        pushed above the node on an explicit stack, so the depth of f is not
        bounded by Python's recursion."""
        truth = self._truth
        got = truth.get((ix, f))
        if got is not None:
            return got
        todo = [(ix, f)]
        while todo:
            key = todo[-1]
            ix, g = key
            kind = type(g)
            if kind is Atom:
                got = ix.atom(g.name)
            elif kind is Top:
                got = ix.live
            elif kind is Bot:
                got = 0
            elif kind in _UNARY:
                sub = truth.get((ix, g.sub))
                if sub is None:
                    todo.append((ix, g.sub))
                    continue
                got = (ix.live & ~sub if kind is Not else
                       box(ix.groups(_KIND_OF_NODE[kind], g.agent), sub))
            elif kind in _BINARY:
                x, y = kind._parts
                x, y = g.__dict__[x], g.__dict__[y]
                left, right = truth.get((ix, x)), truth.get((ix, y))
                if left is None or right is None:
                    todo.append((ix, x if left is None else y))
                    continue
                if kind is And:
                    got = left & right
                elif kind is Or:
                    got = left | right
                elif kind is Implies:
                    got = (ix.live & ~left) | right
                else:
                    got = box(ix.best(g.agent, left), right)
            elif kind is Announce or kind is Upgrade:
                pre = g.ann if kind is Announce else g.up
                zone = truth.get((ix, pre))
                if zone is None:
                    todo.append((ix, pre))
                    continue
                if kind is Announce and not zone:
                    got = ix.live  # vacuously true where the precondition fails
                else:
                    cache, make = ((self._announced, ix.announced) if kind is Announce
                                   else (self._upgraded, ix.upgraded))
                    view = cache.get((ix, zone))
                    if view is None:
                        view = cache[(ix, zone)] = make(zone)
                    after = truth.get((view, g.sub))
                    if after is None:
                        todo.append((view, g.sub))
                        continue
                    got = (ix.live & ~zone) | after if kind is Announce else after
            else:
                raise TypeError(f"not a formula: {g!r}")
            truth[key] = got
            todo.pop()
        return got


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

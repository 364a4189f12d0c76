"""Rewriting dynamic formulas into static ones, and eliminating conditional
belief on suitably constrained models.

``reduce_dynamic`` contracts the innermost-leftmost dynamic operator whose
whole subtree is otherwise dynamic-free, using one valid biconditional per
operand shape, until no announcement or upgrade remains.  One post-order pass
does it: a node's children are normalised left to right, then a dynamic node
is contracted and its result normalised in place.  A subtree that holds a
dynamic node holds a redex, so this is the order in which a search for the
first redex in preorder, repeated after each step, would contract them.
The pass memoises normal forms by value for the length of one call, so
each distinct redex is contracted once and the output is a shared graph;
the trace is kept as memo segments and written out when it is read.
``replay`` audits a recorded run by running the pass again.  A trace may
have at most ``MAX_STEPS`` steps, and the pass stops at the first node it
finishes with its count past that.  ``translate_gt`` and ``translate_safe`` run the same pass
with conditional belief as the redex and its one-node unfolding as the
contraction.

Termination measure (strictly decreased by every contraction): the pair

    (number of dynamic nodes with another dynamic node below them,
     sizes of the dynamic-free dynamic subtrees, as a descending multiset)

compared lexicographically, descending size tuples compared elementwise.  A
contraction either removes the redex and introduces only strictly smaller
dynamic-free dynamic subtrees (second component shrinks in the multiset
order), or, when it introduces none, it may additionally unblock the nearest
enclosing dynamic node (first component shrinks).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .errors import InputError, ResourceLimitError
from .syntax import (_BINARY, _DYNAMIC, And, Announce, Atom, Bot, CondBelief,
                     Formula, GtBox, Implies, Know, Not, Or, SafeBelief, Top,
                     children, format_formula, fragment_of, gt_dia, khat,
                     rebuild, walk)

__all__ = [
    "RewriteStep", "RewriteTrace", "reduce_dynamic", "replay",
    "rewrite_measure", "translate_gt", "translate_safe",
]

# Steps one trace may have.  Reduction can blow up exponentially (Lutz,
# AAMAS 2006): [! p]^k q takes 2^(k+1) - k - 2 steps, so k = 14 fits and
# k = 15 does not, though with the memo either takes a few dozen
# contractions.
MAX_STEPS = 2**15


@dataclass(frozen=True)
class RewriteStep:
    """One contraction: the rule applied at ``path`` turned ``before`` into
    ``after``.  Paths are tuples of 0-based child indices from the root."""

    path: tuple
    rule: str
    before: Formula
    after: Formula

    def __str__(self):
        return self.format(format_formula)

    def format(self, printer) -> str:
        """This step as one line, with formulas rendered by ``printer``."""
        where = ".".join(map(str, self.path)) or "root"
        return f"{self.rule} at {where}: {printer(self.before)}  =>  {printer(self.after)}"


class RewriteTrace:
    """The steps of one run of the pass, in order.

    ``RewriteTrace(steps)`` holds the steps it is given.  A trace that the
    pass returns holds the pass's memo instead: its length is the memo's
    step count, and ``steps`` writes the steps out on first access, with
    their paths from the root, through an explicit stack."""

    __slots__ = ("_steps", "_segment", "_len")

    def __init__(self, steps=()):
        self._steps = tuple(steps)
        self._segment = None
        self._len = len(self._steps)

    @classmethod
    def _of(cls, entry):
        trace = cls.__new__(cls)
        trace._steps = None
        _, trace._segment, trace._len = entry
        return trace

    @property
    def steps(self) -> tuple:
        if self._steps is None:
            self._steps = _expand(self._segment)
            self._segment = None
        return self._steps

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return self._len

    def __eq__(self, other):
        if not isinstance(other, RewriteTrace):
            return NotImplemented
        return len(self) == len(other) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        return f"RewriteTrace(steps={self.steps!r})"


def _expand(segment) -> tuple:
    """The steps a memo segment stands for, in order; see ``_normalise``."""
    steps = []
    stack = [(iter(segment), ())]
    while stack:
        items, path = stack[-1]
        for item in items:
            if len(item) == 3:
                steps.append(RewriteStep(path, *item))
                continue
            at, entry = item
            stack.append((iter(entry[1]), path if at is None else path + (at,)))
            break
        else:
            stack.pop()
    return tuple(steps)


def replay(f: Formula, trace: RewriteTrace) -> Formula:
    """Check that ``trace`` is the run of ``reduce_dynamic`` on ``f`` and
    return its output.  The pass is run again and its steps compared with
    the trace's, in order, so every recorded result must be the rewriter's
    own contraction: a prefix of the run or a hand-made trace is refused
    with ``InputError``, as is a trace of another formula."""
    out, run = reduce_dynamic(f)
    for k, (want, got) in enumerate(zip_longest(trace, run, fillvalue="no step"), 1):
        if want != got:
            raise InputError(
                f"trace does not match: step {k} expected {want}, found {got}")
    return out


def rewrite_measure(f: Formula):
    """The documented termination measure; see the module docstring."""
    blocked = 0
    open_sizes = []
    done = []  # (depth, size, holds a dynamic node) of finished subtrees
    for g, d in reversed(list(walk(f))):
        size, dynamic = 1, False
        while done and done[-1][0] > d:  # g's children
            _, kid_size, kid_dynamic = done.pop()
            size += kid_size
            dynamic = dynamic or kid_dynamic
        if isinstance(g, _DYNAMIC):
            if dynamic:
                blocked += 1
            else:
                open_sizes.append(size)
            dynamic = True
        done.append((d, size, dynamic))
    return (blocked, tuple(sorted(open_sizes, reverse=True)))


_SHAPE = {Atom: "atom", Top: "atom", Bot: "atom", Not: "not", And: "and",
          Or: "or", Implies: "implies", Know: "know",
          CondBelief: "cond-belief", SafeBelief: "safe-belief", GtBox: "gt"}


def _contract(red: Formula):
    """One-step elimination of a dynamic-free redex; returns (rule, result).
    These are the reduction axioms, one per operand shape; the fact5 and
    fact30 suites check their instances."""
    if not isinstance(red, _DYNAMIC):
        raise AssertionError(f"not a dynamic node: {red!r}")
    phi, body = children(red)
    wrap = lambda g: type(red)(phi, g)
    ann = isinstance(red, Announce)
    if type(body) not in _SHAPE:
        raise AssertionError("redex operand contains a dynamic node")
    rule = ("ann-" if ann else "up-") + _SHAPE[type(body)]
    if isinstance(body, _BINARY):
        return rule, type(body)(wrap(body.left), wrap(body.right))
    if isinstance(body, (Atom, Top, Bot)):
        out = body
    elif isinstance(body, Not):
        out = Not(wrap(body.sub))
    elif isinstance(body, CondBelief):
        i, cond, new_body = body.agent, wrap(body.cond), wrap(body.sub)
        heard = And(phi, cond)
        out = CondBelief(i, heard, new_body)
        if not ann:
            return rule, Or(And(khat(i, heard), out),
                            And(Not(khat(i, heard)), CondBelief(i, cond, new_body)))
    elif ann or isinstance(body, Know):  # a box over the wrapped operand
        out = type(body)(body.agent, wrap(body.sub))
    else:  # an upgrade over Bplus or Gt
        i, box, new_body = body.agent, type(body), wrap(body.sub)
        return rule, And(
            Implies(phi, box(i, Implies(phi, new_body))),
            Implies(Not(phi), And(box(i, Implies(Not(phi), new_body)),
                                  Know(i, Implies(phi, new_body)))))
    return rule, Implies(phi, out) if ann else out


def _normalise(f: Formula, kind, contract):
    """Contract every node of the given kind, innermost first, in one
    post-order pass; returns (normal form, trace).  ``contract`` maps a
    node of that kind whose children hold none to (rule, result).

    The pass keeps one memo per call, from formula (by value) to an entry
    (normal form, segment, step count).  So each distinct redex is
    contracted once, equal subterms share one normal form object, and the
    work is in proportion to the distinct formulas, not to the trace.  A
    segment lists a node's part of the trace, with paths relative to the
    node: ``(i, entry)`` for the steps of child i, ``(rule, before,
    after)`` for a contraction at the node, and ``(None, entry)`` for the
    steps that normalise a result in its place.  The pass keeps an
    explicit stack, so the depth of f is not bounded by Python's recursion.
    It counts the steps of the trace as it goes, memo hits included, and
    checks the count each time it finishes a node, the root included: a
    trace of more than ``MAX_STEPS`` steps raises ``ResourceLimitError`` at
    the first node finished with the count past it."""
    memo = {}
    steps = 0  # steps of the trace up to the node in hand
    # A frame: a node, the entries of its children so far and then of its
    # contraction's result, and (redex, rule, result) once it is contracted.
    stack = [[f, [], None]]
    while True:
        frame = stack[-1]
        g, kids, contracted = frame
        parts = g._parts
        k = len(kids)
        if k < len(parts) or contracted and k == len(parts):
            sub = getattr(g, parts[k]) if k < len(parts) else contracted[2]
            if not sub._parts:  # a leaf is its own normal form
                kids.append((sub, (), 0))
                continue
            entry = memo.get(sub)
            if entry is None:
                stack.append([sub, [], None])
                continue
            kids.append(entry)
            steps += entry[2]
        else:
            if contracted:
                red, rule, out = contracted
                done = kids.pop()
                redex = memo[red] = (
                    done[0], ((rule, red, out), (None, done)) if done[2]
                    else ((rule, red, out),), 1 + done[2])
            else:
                red, known = g, None
                for e, name in zip(kids, parts):
                    if e[0] is not getattr(g, name):
                        # Unchanged, g is in no entry; rebuilt, it may be.
                        red = rebuild(g, tuple([e[0] for e in kids]))
                        known = memo.get(red)
                        break
                redex = None
                if isinstance(red, kind):
                    redex = known
                    if redex is None:
                        frame[2] = (red, *contract(red))
                        steps += 1
                    else:
                        steps += redex[2]
                elif known:
                    red = known[0]  # the one object of that normal form
            # Every step is counted by here before its frame is done, the
            # root's included, so no trace past the budget is returned.
            if steps > MAX_STEPS:
                raise ResourceLimitError(
                    f"rewriting takes more than {MAX_STEPS} steps", MAX_STEPS)
            if frame[2] is contracted:  # nothing is left to normalise
                count = 0
                for e in kids:
                    count += e[2]
                segment = (tuple([(i, e) for i, e in enumerate(kids) if e[2]])
                           if count else ())
                if redex is None:
                    entry = (red, segment, count)
                elif segment:
                    entry = (redex[0], segment + ((None, redex),), count + redex[2])
                else:
                    entry = redex
                if entry[0] is not g:
                    # The normal form goes in first, so that it is the key
                    # of its value, and lookups of formulas built from
                    # normal forms compare one node deep.
                    memo.setdefault(entry[0], (entry[0], (), 0))
                memo[g] = entry
                stack.pop()
                if not stack:
                    return entry[0], RewriteTrace._of(entry)
                stack[-1][1].append(entry)


def reduce_dynamic(f: Formula):
    """Rewrite away every announcement and upgrade operator.

    Returns (static formula, trace).  The result is equivalent to the input
    on every model; the property suite checks this rather than assuming it.
    It is a shared graph: equal subterms are one object.
    """
    return _normalise(f, _DYNAMIC, _contract)


# ---------------------------------------------------------------------------
# Conditional-belief elimination

def _unfold_gt(b: CondBelief):
    """``B[i | c] f`` by knowledge and the strict-plausibility box."""
    i, c = b.agent, b.cond
    return "bc-gt", Know(i, Implies(And(c, Not(gt_dia(i, c))), b.sub))


def _unfold_safe(b: CondBelief):
    """``B[i | c] f`` by knowledge and safe belief."""
    i, c = b.agent, b.cond
    return "bc-safe", Implies(
        khat(i, c), khat(i, And(c, SafeBelief(i, Implies(c, b.sub)))))


def translate_gt(f: Formula) -> Formula:
    """Replace every conditional-belief operator using knowledge and the
    strict-plausibility box.  Input must be static and use only K and
    conditional belief; the output uses only K and Gt.  The two formulas
    agree on every uniform model (and only there in general)."""
    frag = fragment_of(f)
    if not frag.operators <= frozenset({"K", "Bc"}):
        raise InputError(
            f"translate_gt expects a static K/Bc formula, got fragment {frag}")
    return _normalise(f, CondBelief, _unfold_gt)[0]


def translate_safe(f: Formula) -> Formula:
    """Replace every conditional-belief operator using knowledge and safe
    belief.  Input must be static over K, Bc, Bplus; output drops Bc.  The
    two formulas agree on every uniform, locally connected model."""
    frag = fragment_of(f)
    if not frag.operators <= frozenset({"K", "Bc", "Bplus"}):
        raise InputError(
            f"translate_safe expects a static K/Bc/Bplus formula, got fragment {frag}")
    return _normalise(f, CondBelief, _unfold_safe)[0]

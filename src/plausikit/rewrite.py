"""Rewriting dynamic formulas into static ones, and eliminating conditional
belief on suitably constrained models.

``reduce_dynamic`` contracts the innermost-leftmost dynamic operator whose
whole subtree is otherwise dynamic-free, using one valid biconditional per
operand shape, until no announcement or upgrade remains.  One post-order pass
does it: a node's children are normalised left to right, then a dynamic node
is contracted and its result normalised in place.  A subtree that holds a
dynamic node holds a redex, so this is the order in which a search for the
first redex in preorder, repeated after each step, would contract them.
Each contraction is recorded, and ``replay`` audits a recorded run by
running the pass again.  The pass takes at most ``MAX_STEPS`` contractions.
``translate_gt`` and ``translate_safe`` run the same pass with conditional
belief as the redex and its one-node unfolding as the contraction.

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

# Contractions one pass may make.  Reduction can blow up exponentially (Lutz,
# AAMAS 2006): [! p]^k q takes 2^(k+1) - k - 2 steps, so k = 14 fits and
# k = 15 does not.
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
        where = ".".join(map(str, self.path)) or "root"
        return (f"{self.rule} at {where}: "
                f"{format_formula(self.before)}  =>  {format_formula(self.after)}")


@dataclass(frozen=True)
class RewriteTrace:
    steps: tuple

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)


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
    post-order pass; returns (normal form, steps).  ``contract`` maps a
    node of that kind whose children hold none to (rule, result).  The pass
    keeps an explicit stack, so the depth of f is not bounded by Python's
    recursion.  More than ``MAX_STEPS`` contractions raise
    ``ResourceLimitError``."""
    steps = []
    normal = {}  # id -> node known to be normal; the values keep ids in use
    stack = [(f, (), [])]  # node, its path, normal forms of its first kids
    while True:
        g, path, kids = stack[-1]
        parts = g._parts
        if len(kids) < len(parts):
            kid = getattr(g, parts[len(kids)])
            if id(kid) in normal:
                kids.append(kid)
            else:
                stack.append((kid, path + (len(kids),), []))
            continue
        stack.pop()
        if any(new is not getattr(g, name) for new, name in zip(kids, parts)):
            g = rebuild(g, tuple(kids))
        if isinstance(g, kind):
            if len(steps) >= MAX_STEPS:
                raise ResourceLimitError(
                    f"rewriting takes more than {MAX_STEPS} steps", MAX_STEPS)
            rule, out = contract(g)
            steps.append(RewriteStep(path, rule, g, out))
            stack.append((out, path, []))
            continue
        normal[id(g)] = g
        if not stack:
            return g, steps
        stack[-1][2].append(g)


def reduce_dynamic(f: Formula):
    """Rewrite away every announcement and upgrade operator.

    Returns (static formula, trace).  The result is equivalent to the input
    on every model; the property suite checks this rather than assuming it.
    """
    g, steps = _normalise(f, _DYNAMIC, _contract)
    return g, RewriteTrace(tuple(steps))


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

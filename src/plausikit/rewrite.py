"""Rewriting dynamic formulas into static ones, and eliminating conditional
belief on suitably constrained models.

``reduce_dynamic`` contracts the innermost-leftmost dynamic operator whose
whole subtree is otherwise dynamic-free, using one valid biconditional per
operand shape, until no announcement or upgrade remains.  One post-order pass
does it: a node's children are normalised left to right, then a dynamic node
is contracted and its result normalised in place.  A subtree that holds a
dynamic node holds a redex, so this is the order in which a search for the
first redex in preorder, repeated after each step, would contract them.
Each contraction is recorded so the whole run can be replayed and audited.

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

from .errors import InputError
from .syntax import (_BINARY, _DYNAMIC, And, Announce, Atom, Bot, CondBelief,
                     Formula, GtBox, Implies, Know, Not, Or, SafeBelief, Top,
                     Upgrade, children, format_formula, formula_size,
                     fragment_of, gt_dia, khat, rebuild)

__all__ = [
    "RewriteStep", "RewriteTrace", "reduce_dynamic", "replay",
    "rewrite_measure", "translate_gt", "translate_safe",
    "subterm_at", "replace_at",
]


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


def subterm_at(f: Formula, path: tuple) -> Formula:
    for i in path:
        f = children(f)[i]
    return f


def replace_at(f: Formula, path: tuple, new: Formula) -> Formula:
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


def replay(f: Formula, trace: RewriteTrace) -> Formula:
    """Re-apply a recorded trace to its input, checking each redex matches."""
    for step in trace:
        found = subterm_at(f, step.path)
        if found != step.before:
            raise InputError(
                f"trace does not match: expected {format_formula(step.before)} "
                f"at {step.path}, found {format_formula(found)}")
        f = replace_at(f, step.path, step.after)
    return f


def rewrite_measure(f: Formula):
    """The documented termination measure; see the module docstring."""
    blocked = 0
    open_sizes = []

    def walk(g: Formula) -> int:
        inner = sum(walk(k) for k in children(g))
        if isinstance(g, _DYNAMIC):
            if inner:
                nonlocal blocked
                blocked += 1
            else:
                open_sizes.append(formula_size(g))
            return inner + 1
        return inner

    walk(f)
    return (blocked, tuple(sorted(open_sizes, reverse=True)))


def _contract(red: Formula):
    """One-step elimination of a dynamic-free redex; returns (rule, result)."""
    if isinstance(red, Announce):
        phi, body = red.ann, red.sub
        wrap = lambda g: Announce(phi, g)
        if isinstance(body, (Atom, Top, Bot)):
            return "ann-atom", Implies(phi, body)
        if isinstance(body, Not):
            return "ann-not", Implies(phi, Not(wrap(body.sub)))
        if isinstance(body, _BINARY):
            return (f"ann-{type(body).__name__.lower()}",
                    type(body)(wrap(body.left), wrap(body.right)))
        if isinstance(body, Know):
            return "ann-know", Implies(phi, Know(body.agent, wrap(body.sub)))
        if isinstance(body, CondBelief):
            cond = And(phi, wrap(body.cond))
            return "ann-cond-belief", Implies(
                phi, CondBelief(body.agent, cond, wrap(body.sub)))
        if isinstance(body, SafeBelief):
            return "ann-safe-belief", Implies(phi, SafeBelief(body.agent, wrap(body.sub)))
        if isinstance(body, GtBox):
            return "ann-gt", Implies(phi, GtBox(body.agent, wrap(body.sub)))
        raise AssertionError("redex operand contains a dynamic node")
    if isinstance(red, Upgrade):
        phi, body = red.up, red.sub
        wrap = lambda g: Upgrade(phi, g)
        if isinstance(body, (Atom, Top, Bot)):
            return "up-atom", body
        if isinstance(body, Not):
            return "up-not", Not(wrap(body.sub))
        if isinstance(body, _BINARY):
            return (f"up-{type(body).__name__.lower()}",
                    type(body)(wrap(body.left), wrap(body.right)))
        if isinstance(body, Know):
            return "up-know", Know(body.agent, wrap(body.sub))
        if isinstance(body, CondBelief):
            i = body.agent
            heard = And(phi, wrap(body.cond))
            new_body = wrap(body.sub)
            return "up-cond-belief", Or(
                And(khat(i, heard), CondBelief(i, heard, new_body)),
                And(Not(khat(i, heard)), CondBelief(i, wrap(body.cond), new_body)))
        if isinstance(body, SafeBelief):
            i = body.agent
            new_body = wrap(body.sub)
            return "up-safe-belief", And(
                Implies(phi, SafeBelief(i, Implies(phi, new_body))),
                Implies(Not(phi), And(
                    SafeBelief(i, Implies(Not(phi), new_body)),
                    Know(i, Implies(phi, new_body)))))
        if isinstance(body, GtBox):
            i = body.agent
            new_body = wrap(body.sub)
            return "up-gt", And(
                Implies(phi, GtBox(i, Implies(phi, new_body))),
                Implies(Not(phi), And(
                    GtBox(i, Implies(Not(phi), new_body)),
                    Know(i, Implies(phi, new_body)))))
        raise AssertionError("redex operand contains a dynamic node")
    raise AssertionError(f"not a dynamic node: {red!r}")


def reduce_dynamic(f: Formula):
    """Rewrite away every announcement and upgrade operator.

    Returns (static formula, trace).  The result is equivalent to the input
    on every model; the property suite checks this rather than assuming it.
    The pass keeps an explicit stack, so the depth of f is not bounded by
    Python's recursion.
    """
    steps = []
    static = {}  # id -> node known to be static; the values keep ids in use
    stack = [(f, (), [])]  # node, its path, normal forms of its first kids
    while True:
        g, path, kids = stack[-1]
        parts = g._parts
        if len(kids) < len(parts):
            kid = getattr(g, parts[len(kids)])
            if id(kid) in static:
                kids.append(kid)
            else:
                stack.append((kid, path + (len(kids),), []))
            continue
        stack.pop()
        if any(new is not getattr(g, name) for new, name in zip(kids, parts)):
            g = rebuild(g, tuple(kids))
        if isinstance(g, _DYNAMIC):
            rule, out = _contract(g)
            steps.append(RewriteStep(path, rule, g, out))
            stack.append((out, path, []))
            continue
        static[id(g)] = g
        if not stack:
            return g, RewriteTrace(tuple(steps))
        stack[-1][2].append(g)


# ---------------------------------------------------------------------------
# Conditional-belief elimination

def translate_gt(f: Formula) -> Formula:
    """Replace every conditional-belief operator using knowledge and the
    strict-plausibility box.  Input must be static and use only K and
    conditional belief; the output uses only K and Gt.  The two formulas
    agree on every uniform model (and only there in general)."""
    frag = fragment_of(f)
    if not frag.operators <= frozenset({"K", "Bc"}):
        raise InputError(
            f"translate_gt expects a static K/Bc formula, got fragment {frag}")
    return _tg(f)


def _tg(f: Formula) -> Formula:
    if isinstance(f, CondBelief):
        cond = _tg(f.cond)
        body = _tg(f.sub)
        return Know(f.agent, Implies(And(cond, Not(gt_dia(f.agent, cond))), body))
    return rebuild(f, tuple(_tg(k) for k in children(f)))


def translate_safe(f: Formula) -> Formula:
    """Replace every conditional-belief operator using knowledge and safe
    belief.  Input must be static over K, Bc, Bplus; output drops Bc.  The
    two formulas agree on every uniform, locally connected model."""
    frag = fragment_of(f)
    if not frag.operators <= frozenset({"K", "Bc", "Bplus"}):
        raise InputError(
            f"translate_safe expects a static K/Bc/Bplus formula, got fragment {frag}")
    return _ts(f)


def _ts(f: Formula) -> Formula:
    if isinstance(f, CondBelief):
        cond = _ts(f.cond)
        body = _ts(f.sub)
        i = f.agent
        return Implies(
            khat(i, cond),
            khat(i, And(cond, SafeBelief(i, Implies(cond, body)))))
    return rebuild(f, tuple(_ts(k) for k in children(f)))

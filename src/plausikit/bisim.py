"""Deciding bisimilarity between finite models.

Three kinds of procedure live here:

* structural checks and greatest-fixpoint computation for the notions whose
  clauses mention only the relations of the two models (knowledge, safe
  belief, strict plausibility);
* the conditional-belief notion, whose clauses quantify over all condition
  formulas of a static sublanguage.  On finite models that quantifier is
  replaced exactly by the family of simultaneously-definable truth-set
  pairs: the least family containing every atom pair and the pair of full
  state sets, closed under componentwise complement, intersection, and the
  fragment's modal truth-set transformers (with conditions drawn from the
  family itself).  Every family member is the truth-set pair of a concrete
  formula, and every formula of the fragment lands in the family, so
  checking the clauses against the family decides the quantified notion
  exactly;
* modal-equivalence and Hennessy-Milner style verification built on that
  family.

State sets are handled as bitmasks internally; the public surface speaks in
frozensets of state names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, ResourceLimitError
from .model import Model, bits, box
from .syntax import (Atom, CondBelief, Formula, Fragment, GtBox, Know,
                     Not, And, SafeBelief, Top, format_formula)

__all__ = [
    "Relation", "Violation", "CheckResult", "PairFamily", "HMReport",
    "DEFAULT_FAMILY_CAP", "BC_FRAGMENTS", "check_structural",
    "greatest_structural", "definable_pairs", "check_bc", "modal_equiv",
    "hennessy_milner", "relation_to_dict", "relation_from_dict",
]

DEFAULT_FAMILY_CAP = 4096

_STRUCTURAL_KINDS = ("K", "Bplus", "Gt")

BC_FRAGMENTS = (
    frozenset({"Bc"}),
    frozenset({"K", "Bc"}),
    frozenset({"K", "Bplus", "Bc"}),
)


@dataclass(frozen=True)
class Relation:
    """A set of state pairs between two models; a candidate bisimulation."""

    left: Model
    right: Model
    pairs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "pairs",
                           frozenset((w, v) for w, v in self.pairs))
        ws = set(self.left.states)
        vs = set(self.right.states)
        for w, v in self.pairs:
            if w not in ws:
                raise InputError(f"relation mentions unknown left state {w!r}")
            if v not in vs:
                raise InputError(f"relation mentions unknown right state {v!r}")

    def __contains__(self, pair):
        return pair in self.pairs

    def sorted_pairs(self):
        return sorted(self.pairs)


@dataclass(frozen=True)
class Violation:
    """Why a relation fails to be a bisimulation: the clause, the pair it
    fails at, and the unmatched ingredients."""

    clause: str
    pair: tuple
    agent: str | None = None
    state: str | None = None
    detail: str = ""

    def __str__(self):
        bits = [f"{self.clause} fails at {self.pair}"]
        if self.agent is not None:
            bits.append(f"agent {self.agent}")
        if self.state is not None:
            bits.append(f"unmatched state {self.state}")
        if self.detail:
            bits.append(self.detail)
        return ", ".join(bits)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    violation: Violation | None = None

    def __bool__(self):
        return self.ok


def _require_same_agents(left: Model, right: Model) -> None:
    if left.agents != right.agents:
        raise InputError(
            f"models have different agent sets: {list(left.agents)} vs {list(right.agents)}")


def _atoms_of(left: Model, right: Model):
    return sorted(set(left.valuation) | set(right.valuation))


def relation_to_dict(rel: Relation, left_ref: str = "", right_ref: str = "") -> dict:
    return {
        "left": left_ref,
        "right": right_ref,
        "pairs": [list(p) for p in rel.sorted_pairs()],
    }


def relation_from_dict(doc: dict, left: Model, right: Model) -> Relation:
    if not isinstance(doc, dict) or "pairs" not in doc:
        raise InputError("relation document must be an object with a 'pairs' key")
    if not isinstance(doc["pairs"], list):
        raise InputError("relation 'pairs' must be a list of [left, right] pairs")
    pairs = []
    for item in doc["pairs"]:
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(s, str) for s in item)):
            raise InputError(f"malformed relation pair {item!r}")
        pairs.append((item[0], item[1]))
    return Relation(left, right, frozenset(pairs))


# ---------------------------------------------------------------------------
# Structural notions

def _images(rel: Relation):
    """Per left state the mask of its right partners, and the converse."""
    li, ri = rel.left.index, rel.right.index
    l_img = [0] * len(li.states)
    r_img = [0] * len(ri.states)
    for w, v in rel.pairs:
        l_img[li.pos[w]] |= 1 << ri.pos[v]
        r_img[ri.pos[v]] |= 1 << li.pos[w]
    return l_img, r_img


def _unmatched(lt: int, rt: int, l_img: list, r_img: list):
    """("zig", x) for the first x in lt with no partner in rt, else
    ("zag", y) for the first y in rt with none in lt; None when both match."""
    for x in bits(lt):
        if not l_img[x] & rt:
            return "zig", x
    for y in bits(rt):
        if not r_img[y] & lt:
            return "zag", y
    return None


def check_structural(rel: Relation, fragment: Fragment) -> CheckResult:
    """Check the atoms clause plus the zig and zag clauses of every requested
    structural notion.  The first violation (pairs, agents, states and
    notions scanned in sorted order) is reported."""
    _require_same_agents(rel.left, rel.right)
    bad = fragment.operators - frozenset(_STRUCTURAL_KINDS)
    if bad:
        raise InputError(f"not structural notions: {sorted(bad)}")
    left, right = rel.left, rel.right
    li, ri = left.index, right.index
    atoms = _atoms_of(left, right)
    l_img, r_img = _images(rel)

    for w, v in rel.sorted_pairs():
        for p in atoms:
            if (w in left.atom_extension(p)) != (v in right.atom_extension(p)):
                return CheckResult(False, Violation(
                    "atoms", (w, v), detail=f"atom {p}"))

    for kind in _STRUCTURAL_KINDS:
        if kind not in fragment:
            continue
        for w, v in rel.sorted_pairs():
            for agent in left.agents:
                miss = _unmatched(li.targets(kind, agent)[li.pos[w]],
                                  ri.targets(kind, agent)[ri.pos[v]],
                                  l_img, r_img)
                if miss:
                    side, x = miss
                    names = li.states if side == "zig" else ri.states
                    return CheckResult(False, Violation(
                        f"{kind}-{side}", (w, v), agent=agent, state=names[x]))
    return CheckResult(True)


def greatest_structural(left: Model, right: Model, fragment: Fragment) -> Relation:
    """Largest relation satisfying the structural clauses: start from every
    atom-respecting pair and delete pairs with an unmatched clause until
    nothing changes.  The result is the union of all such bisimulations."""
    _require_same_agents(left, right)
    bad = fragment.operators - frozenset(_STRUCTURAL_KINDS)
    if bad:
        raise InputError(f"not structural notions: {sorted(bad)}")
    li, ri = left.index, right.index
    atoms = _atoms_of(left, right)
    by_atoms: dict = {}
    for v in right.states:
        sig = tuple(v in right.atom_extension(p) for p in atoms)
        by_atoms[sig] = by_atoms.get(sig, 0) | 1 << ri.pos[v]
    l_img = [by_atoms.get(tuple(w in left.atom_extension(p) for p in atoms), 0)
             for w in left.states]
    clauses = [(kind, a) for kind in _STRUCTURAL_KINDS if kind in fragment
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
        # Pairs removed in this sweep may still show in r_img; that only
        # keeps a doomed pair one more round, never drops a sound one.
        for w in range(len(left.states)):
            for v in bits(l_img[w]):
                if any(_unmatched(l_t[c][w], r_t[c][v], l_img, r_img)
                       for c in clauses):
                    l_img[w] &= ~(1 << v)
                    changed = True
    return Relation(left, right, frozenset(
        (w, right.states[v]) for k, w in enumerate(left.states)
        for v in bits(l_img[k])))


# ---------------------------------------------------------------------------
# Definable-pair closure

_RECIPE_NODES = {"atom": Atom, "top": Top, "not": Not, "and": And, "K": Know,
                 "Bplus": SafeBelief, "Gt": GtBox, "Bc": CondBelief}


@dataclass
class PairFamily:
    """Family of simultaneously-definable truth-set pairs across two models.

    ``pairs[k]`` is the truth-set pair produced by ``recipes[k]``; a recipe
    records the generating atom or operation so each member can be replayed
    into a concrete formula whose truth sets realize the pair.
    """

    left: Model
    right: Model
    fragment: Fragment
    pairs: tuple
    recipes: tuple
    _formulas: dict = field(default_factory=dict, repr=False)

    def __len__(self):
        return len(self.pairs)

    def index(self) -> dict:
        return {pair: k for k, pair in enumerate(self.pairs)}

    def formula(self, k: int) -> Formula:
        """Replay recipe k into a formula realizing pairs[k]."""
        got = self._formulas.get(k)
        if got is not None:
            return got
        op, *args = self.recipes[k]
        # Strings are atom and agent names; ints are earlier members.
        out = _RECIPE_NODES[op](*[self.formula(x) if isinstance(x, int) else x
                                  for x in args])
        self._formulas[k] = out
        return out

    def agree(self, w: str, v: str) -> bool:
        """Do w (left) and v (right) fall on the same side of every pair?"""
        return all((w in ls) == (v in rs) for ls, rs in self.pairs)


def definable_pairs(left: Model, right: Model, fragment: Fragment,
                    cap: int = DEFAULT_FAMILY_CAP) -> PairFamily:
    """Close the atom pairs and the pair of full state sets under the
    fragment's operations, simultaneously in both models.

    The family lives inside the finite lattice of subset pairs, so the
    closure terminates; ``cap`` bounds its size and a crossing raises
    :class:`ResourceLimitError`.
    """
    _require_same_agents(left, right)
    if not fragment.is_static:
        raise InputError("definable pairs are only computed for static fragments")
    bad = fragment.operators - frozenset({"K", "Bc", "Bplus", "Gt"})
    if bad:
        raise InputError(f"unknown static operators: {sorted(bad)}")
    li, ri = left.index, right.index
    agents = left.agents
    entries: list[tuple[int, int]] = []
    recipes: list[tuple] = []
    seen: dict = {}
    memos: dict = {li: {}, ri: {}}

    def step(ix, kind, a, sub, cond=None):
        """One side's truth mask of a modal step, memoized for this call,
        as are the best-state groups of each condition.  The keys hold no
        objects, so the garbage collector soon stops tracking them."""
        memo = memos[ix]
        got = memo.get((kind, a, sub, cond))
        if got is None:
            groups = memo.get((kind, a, cond))
            if groups is None:
                groups = memo[(kind, a, cond)] = (
                    ix.best(a, cond) if kind == "Bc" else ix.groups(kind, a))
            got = memo[(kind, a, sub, cond)] = box(groups, sub)
        return got

    def add(pair, recipe) -> None:
        if pair in seen:
            return
        if len(entries) >= cap:
            raise ResourceLimitError(
                f"definable pair family exceeded cap of {cap} pairs", cap=cap)
        seen[pair] = len(entries)
        entries.append(pair)
        recipes.append(recipe)

    for p in _atoms_of(left, right):
        add((li.atom(p), ri.atom(p)), ("atom", p))
    add((li.live, ri.live), ("top",))

    unary = [k for k in ("K", "Bplus", "Gt") if k in fragment]
    use_bc = "Bc" in fragment
    i = 0
    while i < len(entries):
        ml, mr = entries[i]
        add((li.live & ~ml, ri.live & ~mr), ("not", i))
        for j in range(i + 1):
            nl, nr = entries[j]
            add((ml & nl, mr & nr), ("and", i, j))
        for kind in unary:
            for a in agents:
                add((step(li, kind, a, ml), step(ri, kind, a, mr)), (kind, a, i))
        if use_bc:
            for a in agents:
                for j in range(i + 1):
                    nl, nr = entries[j]
                    add((step(li, "Bc", a, nl, ml), step(ri, "Bc", a, nr, mr)),
                        ("Bc", a, i, j))
                    if j != i:
                        add((step(li, "Bc", a, ml, nl), step(ri, "Bc", a, mr, nr)),
                            ("Bc", a, j, i))
        i += 1

    pairs = tuple((li.names(ml), ri.names(mr)) for ml, mr in entries)
    return PairFamily(left, right, fragment, pairs, tuple(recipes))


# ---------------------------------------------------------------------------
# Conditional-belief notion, equivalence, Hennessy-Milner

def _bc_fragment(fragment: Fragment) -> frozenset:
    if fragment.operators not in BC_FRAGMENTS:
        raise InputError(
            "conditional-belief bisimulation is defined for the fragments "
            "Bc, K+Bc and K+Bplus+Bc; got " + str(fragment))
    return fragment.operators


def check_bc(rel: Relation, fragment: Fragment,
             cap: int = DEFAULT_FAMILY_CAP,
             family: PairFamily | None = None) -> CheckResult:
    """Check the conditional-belief zig and zag clauses with the condition
    quantifier ranging over the definable-pair family of the fragment, plus
    the structural clauses of any other operators in the fragment."""
    ops = _bc_fragment(fragment)
    structural = Fragment(ops - {"Bc"})
    base = check_structural(rel, structural)
    if not base.ok:
        return base
    left, right = rel.left, rel.right
    if family is None:
        family = definable_pairs(left, right, fragment, cap=cap)
    li, ri = left.index, right.index
    l_img, r_img = _images(rel)
    conds = [(li.mask(ls), ri.mask(rs)) for ls, rs in family.pairs]

    for w, v in rel.sorted_pairs():
        wi, vi = li.pos[w], ri.pos[v]
        for agent in left.agents:
            l_row, r_row = li.rows(agent)[wi], ri.rows(agent)[vi]
            l_ord, r_ord = li.order(agent, wi), ri.order(agent, vi)
            for k, (lc, rc) in enumerate(conds):
                miss = _unmatched(li.least(l_ord, lc & l_row),
                                  ri.least(r_ord, rc & r_row), l_img, r_img)
                if miss:
                    side, x = miss
                    names = li.states if side == "zig" else ri.states
                    return CheckResult(False, Violation(
                        f"Bc-{side}", (w, v), agent=agent, state=names[x],
                        detail=f"condition {format_formula(family.formula(k))}"))
    return CheckResult(True)


def modal_equiv(left: Model, w: str, right: Model, v: str,
                fragment: Fragment, cap: int = DEFAULT_FAMILY_CAP,
                family: PairFamily | None = None) -> bool:
    """Do w and v satisfy exactly the same formulas of the fragment?

    Decided exactly on finite models: the two states agree on every formula
    of the static fragment iff they agree on every definable truth-set pair.
    """
    if w not in left.states:
        raise InputError(f"unknown state {w!r}")
    if v not in right.states:
        raise InputError(f"unknown state {v!r}")
    if family is None:
        family = definable_pairs(left, right, fragment, cap=cap)
    return family.agree(w, v)


@dataclass(frozen=True)
class HMReport:
    ok: bool
    relation: Relation
    violation: Violation | None = None


def hennessy_milner(left: Model, right: Model,
                    cap: int = DEFAULT_FAMILY_CAP) -> HMReport:
    """Compute the K+Bc modal-equivalence relation between two models and
    verify it is itself a K+Bc bisimulation.  On finite models this must
    succeed; a failure report means the toolkit itself is broken."""
    fragment = Fragment.of("K", "Bc")
    family = definable_pairs(left, right, fragment, cap=cap)
    pairs = frozenset((w, v) for w in left.states for v in right.states
                      if family.agree(w, v))
    rel = Relation(left, right, pairs)
    res = check_bc(rel, fragment, cap=cap, family=family)
    return HMReport(res.ok, rel, res.violation)

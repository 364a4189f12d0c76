"""Deciding bisimilarity between finite models.

Three kinds of procedure live here:

* structural checks for the notions whose clauses mention only the
  relations of the two models (knowledge, safe belief, strict
  plausibility);
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
* one partition-refinement engine for the disjoint union of the two models.
  The family is a Boolean algebra, so it is exactly the unions of the
  blocks of the modal-equivalence partition; refining from atom agreement
  finds those blocks without building the family.  Modal equivalence,
  Hennessy-Milner, the greatest bisimulation of every notion and the
  conditional-belief check all read it.

State sets are handled as bitmasks internally; the public surface speaks in
frozensets of state names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .errors import InputError, ResourceLimitError
from .model import Model, bits, box
from .syntax import (Atom, CondBelief, Formula, Fragment, GtBox, Know,
                     Not, And, SafeBelief, Top, format_formula)

__all__ = [
    "Relation", "Violation", "CheckResult", "PairFamily", "HMReport",
    "DEFAULT_FAMILY_CAP", "BC_FRAGMENTS", "check_structural",
    "greatest_structural", "definable_pairs", "check_bc", "modal_equiv",
    "hennessy_milner", "block_unions", "relation_to_dict", "relation_from_dict",
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
    """Largest relation satisfying the fragment's clauses: the union of all
    such bisimulations.  It pairs the states that share a block of the
    partition refined from atom agreement by the fragment's clauses.

    The fragment is structural or one of ``BC_FRAGMENTS``.  For the latter
    the blocks are stable under the Bc signature, so the relation passes
    :func:`check_bc`; and every bisimulation preserves the fragment's
    formulas, so it lies inside this modal-equivalence relation."""
    _require_same_agents(left, right)
    ops = fragment.operators
    if not ops <= frozenset(_STRUCTURAL_KINDS) and ops not in BC_FRAGMENTS:
        raise InputError(
            "greatest bisimulations are computed for the structural notions "
            "K, Bplus, Gt and for the fragments Bc, K+Bc and K+Bplus+Bc; "
            "got " + str(fragment))
    return _same_block(left, right, _partition(left, right, ops))


# ---------------------------------------------------------------------------
# Partition refinement

def _positions(mask: int, off: int) -> list:
    return [x + off for x in bits(mask)]


def _bc_signature(members: list, block: list, bit: list) -> frozenset:
    """Per block X meeting a class, the minimal sets among the blocks of
    the strictly more plausible part of the class seen from each e of X;
    ``members`` lists each e with the positions of that part.  X meets the
    most plausible C-states of the class, for a union C of blocks holding
    X, exactly when C misses one of those sets.  (A set holding X itself is
    never minimal: by transitivity, a most plausible member of X in the
    class sees a strict subset of it.)"""
    per: dict = {}
    for e, better in members:
        per.setdefault(block[e], set()).add(
            reduce(or_, map(bit.__getitem__, better), 0))
    return frozenset((x, frozenset(d for d in ds if not any(
        k != d and not k & ~d for k in ds))) for x, ds in per.items())


def _partition(left: Model, right: Model, ops: frozenset) -> list:
    """Block numbers of the modal-equivalence partition of the disjoint
    union of two models for the static operators ops.  Position i is left
    state i; position len(left.states) + j is right state j.

    Blocks start from atom agreement and split by a per-state, per-agent
    signature until none splits: for K, Bplus and Gt, the blocks of the
    states the box looks at; for Bc, :func:`_bc_signature`.  States of one
    block then share every signature, so the unions of blocks are closed
    under every operator, and each split is definable from the blocks
    before it: the unions are exactly the definable-pair family.
    """
    li, ri = left.index, right.index
    nl = len(li.states)
    sides = ((li, 0), (ri, nl))
    atoms = [li.atom(p) | ri.atom(p) << nl for p in _atoms_of(left, right)]
    # Each state sits in one group per clause, so signatures line up.
    boxes = [(_positions(t, off), _positions(ws, off))
             for kind in _STRUCTURAL_KINDS if kind in ops for a in left.agents
             for ix, off in sides for t, ws in ix.groups(kind, a)]
    conds = [([(e + off, _positions(o.below[e] & ~o.above[e] & row, off))
               for e in bits(row)], _positions(ws, off))
             for a in (left.agents if "Bc" in ops else ())
             for ix, off in sides for (row, o), ws in ix.classes(a)]
    ids: dict = {}
    block = [ids.setdefault(tuple(m >> x & 1 for m in atoms), len(ids))
             for x in range(nl + len(ri.states))]
    while True:
        count = len(ids)
        bit = [1 << b for b in block]
        sig = [[b] for b in block]
        for targets, states in boxes:
            key = reduce(or_, map(bit.__getitem__, targets), 0)
            for x in states:
                sig[x].append(key)
        for members, states in conds:
            key = _bc_signature(members, block, bit)
            for x in states:
                sig[x].append(key)
        ids = {}
        block = [ids.setdefault(tuple(s), len(ids)) for s in sig]
        if len(ids) == count:
            return block


def _block_masks(block: list) -> list:
    """Each block as a mask of positions, in block-number order."""
    masks = [0] * (max(block, default=-1) + 1)
    for x, b in enumerate(block):
        masks[b] |= 1 << x
    return masks


def _unions(masks: list, within: int = -1) -> list:
    """Every union of the masks that meet within, each cut to within."""
    got = [0]
    for m in masks:
        if m & within:
            got += [u | m & within for u in got]
    return got


def block_unions(left: Model, right: Model, fragment: Fragment) -> frozenset:
    """Every union of blocks of the fragment's modal-equivalence partition
    of the two models, as a pair of truth sets: the definable-pair family,
    found without its closure."""
    _require_static(left, right, fragment)
    li, ri = left.index, right.index
    off = len(li.states)
    return frozenset(
        (li.names(u & (1 << off) - 1), ri.names(u >> off))
        for u in _unions(_block_masks(_partition(left, right, fragment.operators))))


def _same_block(left: Model, right: Model, block: list) -> Relation:
    off = len(left.states)
    return Relation(left, right, frozenset(
        (w, v) for i, w in enumerate(left.states)
        for j, v in enumerate(right.states) if block[i] == block[off + j]))


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


def _require_static(left: Model, right: Model, fragment: Fragment) -> None:
    _require_same_agents(left, right)
    if not fragment.is_static:
        raise InputError("definable pairs are only computed for static fragments")
    bad = fragment.operators - frozenset({"K", "Bc", "Bplus", "Gt"})
    if bad:
        raise InputError(f"unknown static operators: {sorted(bad)}")


def definable_pairs(left: Model, right: Model, fragment: Fragment,
                    cap: int = DEFAULT_FAMILY_CAP) -> PairFamily:
    """Close the atom pairs and the pair of full state sets under the
    fragment's operations, simultaneously in both models.

    The family lives inside the finite lattice of subset pairs, so the
    closure terminates; ``cap`` bounds its size and a crossing raises
    :class:`ResourceLimitError`.
    """
    _require_static(left, right, fragment)
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

def check_bc(rel: Relation, fragment: Fragment,
             cap: int = DEFAULT_FAMILY_CAP) -> CheckResult:
    """Check the conditional-belief zig and zag clauses with the condition
    quantifier ranging over the definable-pair family of the fragment, plus
    the structural clauses of any other operators in the fragment.

    The family is the 2^k unions of the k blocks of the modal-equivalence
    partition; more than ``cap`` of them raises
    :class:`ResourceLimitError`.  The clauses are decided over those
    unions, and the family itself is built only when one fails, to report
    the violation.
    """
    if fragment.operators not in BC_FRAGMENTS:
        raise InputError(
            "conditional-belief bisimulation is defined for the fragments "
            "Bc, K+Bc and K+Bplus+Bc; got " + str(fragment))
    _require_same_agents(rel.left, rel.right)
    block = _partition(rel.left, rel.right, fragment.operators)
    return _check_bc_blocks(rel, fragment, block, cap)


def _check_bc_blocks(rel: Relation, fragment: Fragment, block: list,
                     cap: int) -> CheckResult:
    """The structural clauses of the fragment's other operators, then the
    Bc clauses at each pair and agent, in order, for every condition that
    is a union of the partition's blocks, of which there may be at most
    cap.  Only the unions of the blocks meeting the two classes matter, and
    each distinct (class, order, class, order) is tried once.  At the first
    pair and agent that fails, the family is built and its members are
    scanned there in order, to name the condition: the family holds the
    same pairs as the unions, so this is the family scan's first violation."""
    base = check_structural(rel, Fragment(fragment.operators - {"Bc"}))
    if not base.ok:
        return base
    if 1 << (max(block, default=-1) + 1) > cap:
        raise ResourceLimitError(
            f"definable pair family exceeded cap of {cap} pairs", cap=cap)
    li, ri = rel.left.index, rel.right.index
    off = len(li.states)
    l_img, r_img = _images(rel)
    masks = _block_masks(block)
    seen = set()
    for w, v in rel.sorted_pairs():
        wi, vi = li.pos[w], ri.pos[v]
        for agent in rel.left.agents:
            l_row, r_row = li.rows(agent)[wi], ri.rows(agent)[vi]
            l_ord, r_ord = li.order(agent, wi), ri.order(agent, vi)
            key = (l_row, l_ord, r_row, r_ord)
            if key in seen:
                continue
            seen.add(key)

            def miss(lc, rc):
                return _unmatched(li.least(l_ord, lc & l_row),
                                  ri.least(r_ord, rc & r_row), l_img, r_img)

            if not any(miss(c, c >> off)
                       for c in _unions(masks, l_row | r_row << off)):
                continue
            family = definable_pairs(rel.left, rel.right, fragment, cap=cap)
            for k, (ls, rs) in enumerate(family.pairs):
                found = miss(li.mask(ls), ri.mask(rs))
                if found:
                    side, x = found
                    names = li.states if side == "zig" else ri.states
                    return CheckResult(False, Violation(
                        f"Bc-{side}", (w, v), agent=agent, state=names[x],
                        detail=f"condition {format_formula(family.formula(k))}"))
    return CheckResult(True)


def modal_equiv(left: Model, w: str, right: Model, v: str,
                fragment: Fragment) -> bool:
    """Do w and v satisfy exactly the same formulas of the fragment?

    Decided exactly on finite models: the two states agree on every formula
    of the static fragment iff they agree on every definable truth-set pair,
    that is, iff they share a block of the modal-equivalence partition.
    The partition is refined directly and the family is never built.
    """
    if w not in left.states:
        raise InputError(f"unknown state {w!r}")
    if v not in right.states:
        raise InputError(f"unknown state {v!r}")
    _require_static(left, right, fragment)
    block = _partition(left, right, fragment.operators)
    off = len(left.states)
    return block[left.index.pos[w]] == block[off + right.index.pos[v]]


@dataclass(frozen=True)
class HMReport:
    ok: bool
    relation: Relation
    violation: Violation | None = None


def hennessy_milner(left: Model, right: Model) -> HMReport:
    """Compute the K+Bc modal-equivalence relation between two models and
    verify it is itself a K+Bc bisimulation.  On finite models this must
    succeed; a failure report means the toolkit itself is broken."""
    fragment = Fragment.of("K", "Bc")
    _require_same_agents(left, right)
    block = _partition(left, right, fragment.operators)
    rel = _same_block(left, right, block)
    res = _check_bc_blocks(rel, fragment, block, DEFAULT_FAMILY_CAP)
    return HMReport(res.ok, rel, res.violation)

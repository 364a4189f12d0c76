"""Deciding bisimilarity between finite models.

Three kinds of procedure live here:

* structural checks for the notions whose clauses mention only the
  relations of the two models (knowledge, safe belief, strict
  plausibility);
* one partition-refinement engine for the disjoint union of the two models.
  It splits the blocks of atom agreement by each state's per-agent
  signatures until none splits; the blocks are then the classes of modal
  equivalence for the fragment.  Modal equivalence, Hennessy-Milner and the
  greatest bisimulation of every notion read them;
* the conditional-belief notion, whose clauses quantify over all condition
  formulas of a static sublanguage.  On finite models that quantifier is
  replaced exactly by the definable-pair family: the truth-set pairs of the
  fragment's formulas across the two models.  The family is a Boolean
  algebra whose atoms are the refined blocks, so it is exactly their 2^k
  unions.  Every split is definable from the blocks of the round before,
  so each block gets a formula true exactly on it, built from the rounds'
  signatures, and each member the disjunction of its blocks' formulas.
  The check decides the clauses for every union at once by propagation,
  and builds the block formulas only to name the condition of a violation.

State sets are handled as bitmasks internally; the public surface speaks in
frozensets of state names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .errors import InputError, ResourceLimitError
from .model import Model, bits
from .syntax import (_NODE_OF_KIND, And, Atom, Bot, CondBelief, Formula,
                     Fragment, Not, Or, Top, format_formula)

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
                lt = li.targets(kind, agent)[li.pos[w]]
                rt = ri.targets(kind, agent)[ri.pos[v]]
                # zig: a state lt holds with no partner in rt; zag: the converse
                for side, ts, img, other, names in (("zig", lt, l_img, rt, li.states),
                                                    ("zag", rt, r_img, lt, ri.states)):
                    x = next((x for x in bits(ts) if not img[x] & other), None)
                    if x is not None:
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
# Partition refinement and the definable-pair family

def _positions(mask: int, off: int) -> list:
    return [x + off for x in bits(mask)]


def _clauses(agents: tuple, ops: frozenset) -> list:
    """The (operator, agent) clauses of a signature, in signature order."""
    return ([(kind, a) for kind in _STRUCTURAL_KINDS if kind in ops for a in agents]
            + [("Bc", a) for a in agents if "Bc" in ops])


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


def _rounds(left: Model, right: Model, ops: frozenset):
    """Refine the modal-equivalence partition of the disjoint union of two
    models for the static operators ops, yielding each round's signatures
    and the block numbers they give.  Position i is left state i; position
    len(left.states) + j is right state j.

    The first round's signature of a state is its atom values.  Each later
    one is its old block, then per clause of :func:`_clauses` the blocks its
    K, Bplus or Gt box looks at, as a mask of block numbers, or the Bc
    signature of :func:`_bc_signature`.  Rounds stop when none splits a
    block; the last blocks yielded are the partition.  States of one block
    then share every signature, so the unions of blocks are closed under
    every operator, and each split is definable from the blocks before it:
    the unions are exactly the definable-pair family.
    """
    li, ri = left.index, right.index
    nl = len(li.states)
    sides = ((li, 0), (ri, nl))
    atoms = [li.atom(p) | ri.atom(p) << nl for p in _atoms_of(left, right)]
    clauses = _clauses(left.agents, ops)
    # Each state sits in one group per clause, so signatures line up.
    boxes = [(_positions(t, off), _positions(ws, off))
             for kind, a in clauses if kind != "Bc"
             for ix, off in sides for t, ws in ix.groups(kind, a)]
    conds = [([(e + off, _positions(o.below[e] & ~o.above[e] & row, off))
               for e in bits(row)], _positions(ws, off))
             for kind, a in clauses if kind == "Bc"
             for ix, off in sides for (row, o), ws in ix.classes(a)]
    sig = [tuple(m >> x & 1 for m in atoms) for x in range(nl + len(ri.states))]
    count = -1
    while True:
        ids: dict = {}
        block = [ids.setdefault(tuple(s), len(ids)) for s in sig]
        if len(ids) == count:
            return
        count = len(ids)
        yield sig, block
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


def _partition(left: Model, right: Model, ops: frozenset) -> list:
    """Block numbers of the modal-equivalence partition of :func:`_rounds`."""
    for _, block in _rounds(left, right, ops):
        pass
    return block


def _conj(fs: list) -> Formula:
    return reduce(And, fs) if fs else Top()


def _disj(fs: list, mask: int) -> Formula:
    """The disjunction of the formulas fs[i] for the bits i of mask."""
    return reduce(Or, [fs[i] for i in bits(mask)]) if mask else Bot()


def _separator(old: list, clauses: list, s: list, t: list) -> Formula:
    """A formula true on the states of signature s and false on those of t,
    two signatures of one round that share their old block; old[b] is true
    exactly on old block b.  It reads the first clause where they differ."""
    j = next(j for j in range(1, len(s)) if s[j] != t[j])
    kind, a = clauses[j - 1]
    if kind != "Bc":
        # One side's box sees block y and the other's does not.
        y = next(bits(s[j] ^ t[j]))
        f = _NODE_OF_KIND[kind](a, Not(old[y]))
        return Not(f) if s[j] >> y & 1 else f
    ms, mt = dict(s[j]), dict(t[j])
    x = min(x for x in ms.keys() | mt.keys() if ms.get(x) != mt.get(x))
    if x not in ms or x not in mt:
        # Block x meets one class only: there its best states are not empty.
        f = CondBelief(a, old[x], Bot())
        return Not(f) if x in ms else f
    # Outside the blocks d, block x has most plausible states on s's side
    # and none on t's, or the mirror image.
    for d in sorted(ms[x]):
        if not any(not e & ~d for e in mt[x]):
            return Not(CondBelief(a, Not(_disj(old, d)), Not(old[x])))
    e = next(e for e in sorted(mt[x]) if not any(not d & ~e for d in ms[x]))
    return CondBelief(a, Not(_disj(old, e)), Not(old[x]))


def _block_masks(block: list) -> list:
    """Each block as a mask of positions, in block-number order."""
    masks = [0] * (max(block, default=-1) + 1)
    for x, b in enumerate(block):
        masks[b] |= 1 << x
    return masks


def _unions(masks: list) -> list:
    """Every union of the masks: union k holds mask i when bit i of k is set."""
    got = [0]
    for m in masks:
        got += [u | m for u in got]
    return got


def _same_block(left: Model, right: Model, block: list) -> Relation:
    off = len(left.states)
    return Relation(left, right, frozenset(
        (w, v) for i, w in enumerate(left.states)
        for j, v in enumerate(right.states) if block[i] == block[off + j]))


def _require_cap(blocks: int, cap: int) -> None:
    if 1 << blocks > cap:
        raise ResourceLimitError(
            f"definable pair family exceeded cap of {cap} pairs", cap=cap)


@dataclass(frozen=True)
class PairFamily:
    """Family of simultaneously-definable truth-set pairs across two models:
    the unions of the blocks of their modal-equivalence partition.

    ``pairs[k]`` is the union of the blocks i for the bits i of k, and
    ``blocks[i]`` a formula true exactly on block i, so :meth:`formula`
    gives each member a formula whose truth sets realize it.
    """

    left: Model
    right: Model
    fragment: Fragment
    pairs: tuple
    blocks: tuple

    def __len__(self):
        return len(self.pairs)

    def formula(self, k: int) -> Formula:
        """The disjunction of the formulas of the blocks in pairs[k]."""
        return _disj(self.blocks, k)

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


def _block_formulas(left: Model, right: Model, ops: frozenset) -> tuple:
    """The block numbers of :func:`_partition`, and per block a formula
    true exactly on it in both models, built round by round.  A first
    block's formula is the conjunction of its atom literals.  A block split
    off an old block takes the old block's formula, and one conjunct from
    :func:`_separator` per sibling split off the same old block."""
    clauses = _clauses(left.agents, ops)
    atoms = [Atom(p) for p in _atoms_of(left, right)]
    for r, (sig, block) in enumerate(_rounds(left, right, ops)):
        first: dict = {}
        for x, b in enumerate(block):
            first.setdefault(b, x)
        if r == 0:
            formulas = [_conj([f if v else Not(f) for f, v in zip(atoms, sig[x])])
                        for x in first.values()]
            continue
        old = formulas
        formulas = [_conj([old[sig[x][0]]] + [
            _separator(old, clauses, sig[x], sig[y]) for y in first.values()
            if y != x and sig[y][0] == sig[x][0]]) for x in first.values()]
    return block, formulas


def definable_pairs(left: Model, right: Model, fragment: Fragment,
                    cap: int = DEFAULT_FAMILY_CAP) -> PairFamily:
    """The definable-pair family of the fragment over the two models: the
    2^k unions of the k blocks of the modal-equivalence partition, each
    block named by its formula from :func:`_block_formulas`.  More than
    ``cap`` unions raise :class:`ResourceLimitError`."""
    _require_static(left, right, fragment)
    block, formulas = _block_formulas(left, right, fragment.operators)
    _require_cap(len(formulas), cap)
    li, ri = left.index, right.index
    off = len(li.states)
    pairs = tuple((li.names(u & (1 << off) - 1), ri.names(u >> off))
                  for u in _unions(_block_masks(block)))
    return PairFamily(left, right, fragment, pairs, tuple(formulas))


# ---------------------------------------------------------------------------
# Conditional-belief notion, equivalence, Hennessy-Milner

def check_bc(rel: Relation, fragment: Fragment) -> CheckResult:
    """Check the conditional-belief zig and zag clauses with the condition
    quantifier ranging over the definable-pair family of the fragment, plus
    the structural clauses of any other operators in the fragment.

    The family is the unions of the blocks of the modal-equivalence
    partition.  :func:`_refutation` decides a clause for all of them at
    once, so the family is never built and no block count is capped.
    """
    if fragment.operators not in BC_FRAGMENTS:
        raise InputError(
            "conditional-belief bisimulation is defined for the fragments "
            "Bc, K+Bc and K+Bplus+Bc; got " + str(fragment))
    _require_same_agents(rel.left, rel.right)
    block = _partition(rel.left, rel.right, fragment.operators)
    return _check_bc_blocks(rel, fragment, block)


def _refutation(x: int, partners: list, strict: dict, blocks: list, on: int) -> int:
    """The zig clause at position x for every union C of blocks at once:
    the states of the two classes (on) in a C whose most plausible states
    hold x and none of its partners, or 0 when no C does.  blocks[z] is the
    block of z, strict[z] the states of z's class strictly more plausible.
    The clauses on C's blocks are dual-Horn, and propagation finds the
    largest C: drop the blocks of strict[x], then the block of each partner
    none of whose strict[y] is left, until none is dropped."""
    for z in bits(strict[x]):
        on &= ~blocks[z]
    while on >> x & 1:
        drop = [blocks[y] for y in partners if on >> y & 1 and not on & strict[y]]
        if not drop:
            return on
        on &= ~reduce(or_, drop)
    return 0


def _check_bc_blocks(rel: Relation, fragment: Fragment, block: list) -> CheckResult:
    """The structural clauses of the fragment's other operators, then the
    Bc clauses at each pair and agent in order, each distinct (class,
    order, class, order) once, by :func:`_refutation` at every state of
    w's class (zig), then of v's (zag).  The first failing state is
    reported, with its condition named by the formulas of the witness
    union's blocks."""
    base = check_structural(rel, Fragment(fragment.operators - {"Bc"}))
    if not base.ok:
        return base
    masks = _block_masks(block)
    blocks = [masks[b] for b in block]
    li, ri = rel.left.index, rel.right.index
    off = len(li.states)
    l_img, r_img = _images(rel)
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
            strict = {x + k: (o.below[x] & ~o.above[x] & row) << k for row, o, k
                      in ((l_row, l_ord, 0), (r_row, r_ord, off)) for x in bits(row)}
            for side, row, img, other, mine, theirs, names in (
                    ("zig", l_row, l_img, r_row, 0, off, li.states),
                    ("zag", r_row, r_img, l_row, off, 0, ri.states)):
                for x in bits(row):
                    on = _refutation(x + mine, _positions(img[x] & other, theirs),
                                     strict, blocks, l_row | r_row << off)
                    if on:
                        fs = _block_formulas(rel.left, rel.right, fragment.operators)[1]
                        c = _disj(fs, reduce(or_, (1 << block[z] for z in bits(on))))
                        return CheckResult(False, Violation(
                            f"Bc-{side}", (w, v), agent=agent, state=names[x],
                            detail=f"condition {format_formula(c)}"))
    return CheckResult(True)


def _bc_equivalence(left: Model, right: Model, fragment: Fragment) -> tuple:
    """The Bc fragment's modal-equivalence relation between the two models,
    and :func:`check_bc`'s verdict on it, from one refinement."""
    _require_same_agents(left, right)
    block = _partition(left, right, fragment.operators)
    rel = _same_block(left, right, block)
    return rel, _check_bc_blocks(rel, fragment, block)


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
    verify it is itself a K+Bc bisimulation, from one refinement and with
    no cap on its blocks.  On finite models this must succeed; a failure
    report means the toolkit itself is broken."""
    rel, res = _bc_equivalence(left, right, Fragment.of("K", "Bc"))
    return HMReport(res.ok, rel, res.violation)

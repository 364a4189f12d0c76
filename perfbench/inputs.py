"""Seeded inputs for the benchmark: models, formulas and their text forms.

Everything here is the benchmark's own code, so a change to
``plausikit.generate`` cannot change the work being measured.  Models are
plain documents in the JSON file format of the toolkit; formulas are nested
tuples (see ``reference.py`` for the node kinds) printed in the toolkit's
concrete syntax.
"""

from __future__ import annotations

import json

AGENTS = ("a", "b")
ATOMS = ("p", "q", "r")


def state_names(n: int, prefix: str = "s") -> list[str]:
    """Zero-padded names, so sorted order is index order."""
    return [f"{prefix}{i:02d}" for i in range(n)]


def _blocks(rng, states, classes):
    """Split states into ``classes`` nonempty blocks, or into blocks of
    two, three and four states in turn when ``classes`` is None (a fine
    partition)."""
    order = list(states)
    rng.shuffle(order)
    if classes is None:
        out, i = [], 0
        while i < len(order):
            size = 2 + len(out) % 3
            out.append(order[i:i + size])
            i += size
        return out
    # Near-equal blocks: evaluation cost grows with the square of a class,
    # so balanced blocks keep the work of one seed close to another's.
    return [order[k::classes] for k in range(classes)]


def _preorder(rng, block, shape):
    """A preorder on ``block`` as (x, y) pairs, x at least as plausible as y.

    ``total``: a ranking with ties.  ``partial``: the product order of two
    rankings, so some pairs are incomparable."""
    n = len(block)
    if shape == "total":
        rank = {x: (rng.randrange(max(1, (2 * n) // 3)),) for x in block}
    else:
        rank = {x: (rng.randrange(n), rng.randrange(n)) for x in block}
    return [(x, y) for x in block for y in block
            if all(i <= j for i, j in zip(rank[x], rank[y]))]


def random_model(rng, n, classes, shape, uniform, rigid=False, prefix="s",
                 agents=AGENTS, atoms=ATOMS) -> dict:
    """A model document with ``n`` states.

    Each agent's epistemic relation is a partition (see ``_blocks``).  The
    order held at w ranks w's class and is the identity elsewhere, so every
    order is a preorder.  ``uniform`` gives all states of a class the same
    order; otherwise each state draws its own.  ``rigid`` gives every state
    its own valuation (at most 2 ** len(atoms) states).
    """
    states = state_names(n, prefix)
    epist, plaus = {}, {}
    for a in agents:
        epist[a] = []
        plaus[a] = {}
        for block in _blocks(rng, states, classes):
            epist[a].extend([x, y] for x in block for y in block)
            shared = _preorder(rng, block, shape) if uniform else None
            inside = set(block)
            outside = [[x, x] for x in states if x not in inside]
            for w in block:
                rel = shared if uniform else _preorder(rng, block, shape)
                plaus[a][w] = sorted([list(p) for p in rel] + outside)
        epist[a].sort()
    if rigid:
        codes = rng.sample(range(2 ** len(atoms)), n)
        valuation = {p: sorted(s for s, c in zip(states, codes) if c >> k & 1)
                     for k, p in enumerate(atoms)}
    else:
        valuation = {p: sorted(s for s in states if rng.random() < 0.5)
                     for p in atoms}
    return {"states": states, "agents": list(agents), "epist": epist,
            "plaus": plaus, "valuation": valuation}


def renamed(doc: dict, prefix: str = "t") -> tuple[dict, dict]:
    """Copy of ``doc`` with every state renamed; returns (copy, renaming)."""
    names = {s: prefix + s[1:] for s in doc["states"]}
    if len(set(names.values())) != len(names):
        raise ValueError("renaming is not injective")

    def pairs(ps):
        return sorted([names[x], names[y]] for x, y in ps)

    return ({
        "states": sorted(names.values()),
        "agents": list(doc["agents"]),
        "epist": {a: pairs(ps) for a, ps in doc["epist"].items()},
        "plaus": {a: {names[w]: pairs(ps) for w, ps in per.items()}
                  for a, per in doc["plaus"].items()},
        "valuation": {p: sorted(names[s] for s in xs)
                      for p, xs in doc["valuation"].items()},
    }, names)


def with_broken_order(doc: dict, agent: str, state: str) -> dict:
    """Copy of ``doc`` whose order at (agent, state) loses one pair needed
    for transitivity, so the model is invalid."""
    out = json.loads(json.dumps(doc))
    rel = [tuple(p) for p in out["plaus"][agent][state]]
    strict = [(x, y) for x, y in rel if x != y]
    for x, y in strict:
        for y2, z in strict:
            if y2 == y and z != x:
                rel.remove((x, z))
                out["plaus"][agent][state] = sorted(list(p) for p in rel)
                return out
    # No chain of length two: add one and leave its composite out.
    xs = [s for s in out["states"]][:3]
    rel = set(rel) | {(xs[0], xs[1]), (xs[1], xs[2])}
    rel.discard((xs[0], xs[2]))
    out["plaus"][agent][state] = sorted(list(p) for p in rel)
    return out


def model_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Formulas

_BOXES = ("K", "Khat", "Bplus", "Gt", "GtDia")


def boolean(rng, size=1):
    """A small modality-free formula over the atoms."""
    if size <= 1:
        f = ("atom", rng.choice(ATOMS))
        return ("not", f) if rng.random() < 0.3 else f
    kind = rng.choice(("and", "or", "imp"))
    left = rng.randint(1, size - 1)
    return (kind, boolean(rng, left), boolean(rng, size - left))


def static(rng, ops, kinds=("K", "Khat", "B", "Bplus", "Gt", "GtDia"),
           agents=AGENTS):
    """A static formula with exactly ``ops`` modal operators drawn from
    ``kinds`` (``B`` is conditional belief, its condition included)."""
    if ops == 0:
        return boolean(rng, rng.randint(1, 2))
    roll = rng.random()
    if ops >= 2 and roll < 0.3:
        kind = rng.choice(("and", "or", "imp"))
        left = rng.randint(1, ops - 1)
        return (kind, static(rng, left, kinds, agents),
                static(rng, ops - left, kinds, agents))
    if roll < 0.4:
        return ("not", static(rng, ops, kinds, agents))
    kind = rng.choice(kinds)
    agent = rng.choice(agents)
    if kind == "B":
        cond_ops = rng.randint(0, min(1, ops - 1))
        return ("B", agent, static(rng, cond_ops, kinds, agents),
                static(rng, ops - 1 - cond_ops, kinds, agents))
    return (kind, agent, static(rng, ops - 1, kinds, agents))


def dynamic(rng, body_ops, kind):
    """A formula with exactly one announcement (``ann``) or upgrade
    (``up``): the operator over a modality-free precondition and a static
    body."""
    pre = boolean(rng, rng.randint(1, 2))
    core = (kind, pre, static(rng, body_ops))
    if rng.random() < 0.3:
        return ("imp", boolean(rng, 1), core)
    return core


def show(f) -> str:
    """Concrete syntax of a formula; binary nodes are always parenthesised."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "top":
        return "true"
    if kind == "bot":
        return "false"
    if kind == "not":
        return "~" + show(f[1])
    if kind in ("and", "or", "imp"):
        op = {"and": "&", "or": "|", "imp": "->"}[kind]
        return f"({show(f[1])} {op} {show(f[2])})"
    if kind in _BOXES:
        return f"{kind}[{f[1]}] {show(f[2])}"
    if kind == "B":
        return f"B[{f[1]} | {show(f[2])}] {show(f[3])}"
    if kind == "ann":
        return f"[! {show(f[1])}] {show(f[2])}"
    if kind == "up":
        return f"[up {show(f[1])}] {show(f[2])}"
    raise ValueError(f"not a formula: {f!r}")

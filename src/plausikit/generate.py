"""Seeded random model generation under structural constraints, plus random
formula sampling for the property suites.

Plausibility orders come from preference rankings with ties: a ranking over
the states induces a total preorder, and intersecting two rankings gives a
general (possibly partial) preorder.  Both constructions are reflexive and
transitive by construction, so no rejection sampling is needed.  A
ranking's rows are unions of its rank buckets, O(n) masks, and the model is
handed its rows and orders as masks, with no pairs of names.  Setting
``uniform`` shares one order across each epistemic class; setting
``locally_connected`` (or ``total_preorders``) uses a single ranking so any
two states are comparable; ``discrete_preorders`` uses the identity order
(and singleton classes when combined with ``locally_connected``).
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from .errors import InputError, ResourceLimitError
from .model import Model, _Order, bits, read_json
from .syntax import (_KIND_OF_NODE, _NODE_OF_KIND, And, Atom, Bot, Formula,
                     Fragment, Implies, Not, Or, Top)

__all__ = [
    "GenSpec", "generate", "rename_states", "random_formula",
    "genspec_to_dict", "genspec_from_dict", "load_genspec",
]


MAX_STATES = 100


@dataclass(frozen=True)
class GenSpec:
    """What :func:`generate` draws.  ``max_states`` is at most
    :data:`MAX_STATES`, else ResourceLimitError: a model file lists every
    pair of every order, and a 100-state, 2-agent model is already a 41 MB
    file."""

    min_states: int = 1
    max_states: int = 4
    agents: int = 1
    atoms: int = 1
    uniform: bool = False
    locally_connected: bool = False
    total_preorders: bool = False
    discrete_preorders: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.min_states < 1 or self.max_states < self.min_states:
            raise InputError("state count range must satisfy 1 <= min <= max")
        if self.max_states > MAX_STATES:
            raise ResourceLimitError(f"generate makes at most {MAX_STATES} states", MAX_STATES)
        if self.agents < 1 or self.agents > 26:
            raise InputError("agent count must be between 1 and 26")
        if self.atoms < 0 or self.atoms > 26:
            raise InputError("atom count must be between 0 and 26")


# The keys of a generator spec other than "states", with their GenSpec
# fields and defaults, in the order genspec_to_dict writes them.
_GENSPEC_FIELDS = (
    ("agents", "agents", 1), ("atoms", "atoms", 1),
    ("uniform", "uniform", False),
    ("locallyConnected", "locally_connected", False),
    ("totalPreorders", "total_preorders", False),
    ("discretePreorders", "discrete_preorders", False),
    ("seed", "seed", 0))
_GENSPEC_KEYS = {"states", *(key for key, _, _ in _GENSPEC_FIELDS)}


def genspec_to_dict(spec: GenSpec) -> dict:
    return {"states": [spec.min_states, spec.max_states],
            **{key: getattr(spec, name) for key, name, _ in _GENSPEC_FIELDS}}


def genspec_from_dict(d: dict) -> GenSpec:
    if not isinstance(d, dict):
        raise InputError("generator spec must be a JSON object")
    extra = set(d) - _GENSPEC_KEYS
    if extra:
        raise InputError(f"generator spec has unknown keys: {sorted(extra)}")
    states = d.get("states", [1, 4])
    bounds = states if isinstance(states, list) else [states, states]
    if (len(bounds) == 2 and all(isinstance(x, int) and not isinstance(x, bool)
                                 for x in bounds)):
        lo, hi = bounds
    else:
        raise InputError("states must be an integer or a [min, max] pair")
    settings = {}
    # The integers are checked before the flags.
    for key, name, default in sorted(_GENSPEC_FIELDS, key=lambda t: type(t[2]) is bool):
        value = d.get(key, default)
        # Exact types: isinstance(True, int) holds.
        if type(value) is not type(default):
            kind = "true or false" if default is False else "an integer"
            raise InputError(f"{key} must be {kind}, got {value!r}")
        settings[name] = value
    return GenSpec(min_states=lo, max_states=hi, **settings)


def load_genspec(path) -> GenSpec:
    return genspec_from_dict(read_json(path))


def _buckets(labels: list, bit: list, k: int) -> list:
    """Per label below k, the mask of the states drawn with it."""
    out = [0] * k
    for label, b in zip(labels, bit):
        out[label] |= b
    return out


def _ranking(rng: random.Random, bit: list) -> tuple:
    """The (above, below) rows of the total preorder of one random ranking
    with ties, by position: a state is at least as plausible as the states
    ranked no better.  ``bit`` gives each state's bit, in draw order."""
    n = len(bit)
    rank = [rng.randrange(n) for _ in bit]
    le = _buckets(rank, bit, n)
    ge = le.copy()
    # Prefix and suffix unions: the states ranked at most, at least r.
    for r in range(1, n):
        le[r] |= le[r - 1]
        ge[n - 1 - r] |= ge[n - r]
    above, below = [0] * n, [0] * n
    for r, b in zip(rank, bit):
        i = b.bit_length() - 1
        above[i], below[i] = ge[r], le[r]
    return above, below


def _random_preorder(rng: random.Random, bit: list, total: bool) -> tuple:
    above, below = _ranking(rng, bit)
    if total or rng.random() < 0.5:
        return above, below
    more, less = _ranking(rng, bit)
    return ([x & y for x, y in zip(above, more)],
            [x & y for x, y in zip(below, less)])


def generate(spec: GenSpec) -> Model:
    """Deterministic in the seed: the same spec yields the same model."""
    rng = random.Random(spec.seed)
    n = rng.randint(spec.min_states, spec.max_states)
    states = [f"w{i}" for i in range(n)]
    names = tuple(sorted(states))
    pos = {s: i for i, s in enumerate(names)}
    bit = [1 << pos[s] for s in states]  # in draw order, not sorted order
    agents = tuple(string.ascii_lowercase[:spec.agents])
    atom_names = [string.ascii_lowercase[15 + i % 11] + ("" if i < 11 else str(i // 11))
                  for i in range(spec.atoms)]

    singleton_classes = spec.discrete_preorders and spec.locally_connected
    total = spec.total_preorders or spec.locally_connected

    rows, classes = {}, {}
    for a in agents:
        if singleton_classes:
            blocks = bit
        else:
            k = rng.randint(1, n)
            blocks = [b for b in _buckets([rng.randrange(k) for _ in bit], bit, k) if b]
        classes[a] = blocks
        rows[a] = row = [0] * n
        for block in blocks:
            for w in bits(block):
                row[w] = block

    # Equal orders share one _Order, as in a model built from pairs.
    interned, orders = {}, {}
    ident = [1 << i for i in range(n)]
    for a in agents:
        # The states that hold one order: all of them, a class, or one state.
        zones = ([(1 << n) - 1] if spec.discrete_preorders
                 else classes[a] if spec.uniform else bit)
        for zone in zones:
            above, below = ((ident, ident) if spec.discrete_preorders
                            else _random_preorder(rng, bit, total))
            order = interned.setdefault(tuple(above), _Order(below, above))
            for w in bits(zone):
                orders[(a, w)] = order

    valuation = {
        p: frozenset(s for s in states if rng.random() < 0.5)
        for p in atom_names
    }
    return Model.__new__(Model)._fill(names, pos, agents, rows, orders,
                                      ({}, {}), valuation)


def rename_states(m: Model, prefix: str = "x") -> Model:
    """Isomorphic copy with every state renamed; useful for building pairs
    of trivially bisimilar models.  Names the relations or the valuation
    hold that are not states of m are kept as they are."""
    names = {s: prefix + s for s in m.states}
    ren = lambda s: names.get(s, s)
    return Model(
        [names[s] for s in m.states],
        m.agents,
        {a: frozenset((ren(x), ren(y)) for x, y in rel) for a, rel in m.epist.items()},
        {(a, ren(w)): frozenset((ren(x), ren(y)) for x, y in rel)
         for (a, w), rel in m.plaus.items()},
        {p: frozenset(map(ren, xs)) for p, xs in m.valuation.items()},
    )


_LEAF_WEIGHT = 0.30


def random_formula(rng: random.Random, atoms, agents, fragment: Fragment,
                   depth: int) -> Formula:
    """Sample a formula of nesting depth at most ``depth`` over the
    signature, deterministic in the RNG state."""
    atoms = sorted(atoms)
    agents = sorted(agents)
    if depth <= 0 or rng.random() < _LEAF_WEIGHT:
        leaves = atoms + ["true", "false"]
        pick = rng.choice(leaves)
        if pick == "true":
            return Top()
        if pick == "false":
            return Bot()
        return Atom(pick)
    cls = rng.choice([Not, And, Or, Implies, *map(_NODE_OF_KIND.get, fragment)])
    # Every modal and dynamic kind draws an agent, used or not, before the
    # operands, which are drawn left to right.
    args = [rng.choice(agents)][:len(cls._labels)] if cls in _KIND_OF_NODE else []
    for _ in cls._parts:
        args.append(random_formula(rng, atoms, agents, fragment, depth - 1))
    return cls(*args)

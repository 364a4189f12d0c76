"""Named property suites run at desk scale by the CLI and the acceptance
tests.

Every suite is deterministic in its seed (overridable through the
``PLAUSIKIT_SEED`` environment variable) and reports each failure with
enough data to reproduce it: trial index, per-trial seed, the serialized
models and the formulas involved.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field

from .bisim import (_bc_equivalence, _block_formulas, check_structural,
                    definable_pairs, greatest_structural, hennessy_milner)
from .dynamics import announce, upgrade
from .errors import InputError
from .generate import GenSpec, generate, random_formula, rename_states
from .model import (Model, identity_pairs, is_locally_connected, is_uniform,
                    validate)
from .rewrite import _contract, _unfold_gt, _unfold_safe, reduce_dynamic
from .semantics import Evaluator, is_valid_on, truth_set
from .syntax import (Announce, Atom, CondBelief, Fragment, GtBox, Implies,
                     Know, Not, SafeBelief, Top, Upgrade, enumerate_formulas,
                     format_formula, has_dynamic, iff)

__all__ = ["SuiteReport", "run_suite", "suite_names", "DEFAULT_SEED"]

DEFAULT_SEED = 1729


@dataclass
class SuiteReport:
    name: str
    trials: int
    failures: list = field(default_factory=list)
    elapsed: float = 0.0
    seed: int | None = None
    notes: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        head = (f"suite {self.name}: trials={self.trials} "
                f"failures={len(self.failures)} elapsed={self.elapsed:.1f}s")
        if self.seed is not None:
            head += f" seed={self.seed}"
        if self.notes:
            head += f" ({self.notes})"
        out = [head]
        out.extend(f"  FAIL {f}" for f in self.failures)
        return out


def _compact(m: Model) -> str:
    from .model import model_to_dict
    return json.dumps(model_to_dict(m), sort_keys=True, separators=(",", ":"))


def _blame(trial: int, trial_seed: int, message: str, models=(), formulas=()):
    parts = [f"trial={trial}", f"seed={trial_seed}", message]
    parts.extend(f"formula={format_formula(f)}" for f in formulas)
    parts.extend(f"model={_compact(m)}" for m in models)
    return " ".join(parts)


def _trials(report: SuiteReport):
    """Yield (trial, trial_seed, trng) for each of ``report.trials`` trials,
    drawing the trial seeds from ``report.seed``; set ``report.elapsed``
    when the loop ends."""
    rng = random.Random(report.seed)
    t0 = time.monotonic()
    for trial in range(report.trials):
        trial_seed = rng.getrandbits(48)
        yield trial, trial_seed, random.Random(trial_seed)
    report.elapsed = time.monotonic() - t0


def _model_pair(rng: random.Random, lo: int, hi: int, agents: int, atoms: int,
                uniform=False, locally_connected=False):
    """Half the time an isomorphic copy (guaranteeing nonempty relations),
    half the time an independent model."""
    left = generate(GenSpec(lo, hi, agents, atoms, uniform=uniform,
                            locally_connected=locally_connected,
                            seed=rng.getrandbits(48)))
    if rng.random() < 0.5:
        right = rename_states(left)
    else:
        right = generate(GenSpec(lo, hi, agents, atoms, uniform=uniform,
                                 locally_connected=locally_connected,
                                 seed=rng.getrandbits(48)))
    return left, right


def _agreement_failures(left, right, pairs, formulas, trial, trial_seed):
    """Check formula agreement at every related pair, via one shared
    evaluation session per model."""
    out = []
    evl, evr = Evaluator(), Evaluator()
    for f in formulas:
        tl = evl.truth_set(left, f)
        tr = evr.truth_set(right, f)
        for w, v in sorted(pairs):
            if (w in tl) != (v in tr):
                out.append(_blame(
                    trial, trial_seed,
                    f"disagreement at ({w}, {v})", (left, right), (f,)))
    return out


# ---------------------------------------------------------------------------
# Bisimilarity implies equivalence

def _equivalence_suite(report, bisim_fragment, formula_fragment,
                       sizes=(2, 5), uniform=False, locally_connected=False):
    """Build the greatest bisimulation for the fragment, check it passes the
    fragment's own clauses (the quantified ones when Bc is in it), then
    check formula agreement along it, on 12 random formulas of depth 3 over
    two agents and two atoms."""
    for trial, trial_seed, trng in _trials(report):
        left, right = _model_pair(trng, sizes[0], sizes[1], 2, 2,
                                  uniform=uniform,
                                  locally_connected=locally_connected)
        if "Bc" in bisim_fragment:
            z, res = _bc_equivalence(left, right, bisim_fragment)
        else:
            z = greatest_structural(left, right, bisim_fragment)
            res = check_structural(z, bisim_fragment)
        if not res.ok:
            report.failures.append(_blame(
                trial, trial_seed,
                f"greatest relation fails its own check: {res.violation}",
                (left, right)))
            continue
        formulas = [random_formula(trng, sorted(left.valuation), left.agents,
                                   formula_fragment, 3)
                    for _ in range(12)]
        report.failures.extend(_agreement_failures(
            left, right, z.pairs, formulas, trial, trial_seed))


def _containment_suite(report, structural_fragment, locally_connected):
    """On uniform (optionally locally connected) pairs, the greatest
    structural relation must sit inside the K+Bc equivalence relation, which
    itself must pass the quantified check."""
    for trial, trial_seed, trng in _trials(report):
        left, right = _model_pair(trng, 2, 3, 2, 2, uniform=True,
                                  locally_connected=locally_connected)
        z = greatest_structural(left, right, structural_fragment)
        hm = hennessy_milner(left, right)
        missing = sorted(z.pairs - hm.relation.pairs)
        if missing:
            report.failures.append(_blame(
                trial, trial_seed,
                f"structural pairs outside the equivalence relation: {missing}",
                (left, right)))
        elif not hm.ok:
            report.failures.append(_blame(
                trial, trial_seed,
                f"equivalence relation fails the check: {hm.violation}",
                (left, right)))


def _hennessy_milner_suite(report):
    for trial, trial_seed, trng in _trials(report):
        left, right = _model_pair(trng, 2, 4, 2, 2)
        hm = hennessy_milner(left, right)
        if not hm.ok:
            report.failures.append(_blame(
                trial, trial_seed,
                f"equivalence relation is not a K+Bc bisimulation: {hm.violation}",
                (left, right)))


# ---------------------------------------------------------------------------
# Reduction of dynamic operators

def _random_dynamic_formula(rng, atoms, agents, depth):
    full = Fragment.of("K", "Bc", "Bplus", "Gt", "Ann", "Up")
    for _ in range(50):
        f = random_formula(rng, atoms, agents, full, depth)
        if has_dynamic(f):
            return f
    static = random_formula(rng, atoms, agents, Fragment.of("K", "Bc"), depth - 1)
    return Announce(Top(), static)


def _reduction_suite(report):
    for trial, trial_seed, trng in _trials(report):
        m = generate(GenSpec(2, 4, 2, 2, seed=trng.getrandbits(48)))
        f = _random_dynamic_formula(trng, sorted(m.valuation), m.agents, 3)
        reduced, _ = reduce_dynamic(f)
        if has_dynamic(reduced):
            report.failures.append(_blame(
                trial, trial_seed, "reduction left a dynamic operator", (m,), (f, reduced)))
            continue
        before = truth_set(m, f)
        after = truth_set(m, reduced)
        if before != after:
            report.failures.append(_blame(
                trial, trial_seed,
                f"truth sets differ: {sorted(before)} vs {sorted(after)}",
                (m,), (f, reduced)))


_FACT5 = [("announce-know", Announce, Know),
          ("announce-cond-belief", Announce, CondBelief),
          ("announce-safe-belief", Announce, SafeBelief),
          ("upgrade-know", Upgrade, Know),
          ("upgrade-cond-belief", Upgrade, CondBelief),
          ("upgrade-safe-belief", Upgrade, SafeBelief)]
_FACT30 = [("announce-gt", Announce, GtBox), ("upgrade-gt", Upgrade, GtBox)]


def _schema_suite(report, schemas):
    """``report.trials`` trials per schema, one schema after the other.
    A schema is a dynamic operator over a modal one; each trial checks
    ``[dyn phi] op_i psi`` (``op_i`` taking ``alpha`` as its condition when
    it is conditional belief) against the rewriter's contraction of it."""
    per_schema = report.trials
    report.trials = per_schema * len(schemas)
    static = Fragment.of("K", "Bc", "Bplus", "Gt")
    for trial, trial_seed, trng in _trials(report):
        label, dyn, op = schemas[trial // per_schema]
        m = generate(GenSpec(2, 4, 2, 2, seed=trng.getrandbits(48)))
        agent = trng.choice(m.agents)
        phi, alpha, psi = [
            random_formula(trng, sorted(m.valuation), m.agents, static, 1)
            for _ in range(3)]
        body = (CondBelief(agent, alpha, psi) if op is CondBelief
                else op(agent, psi))
        redex = dyn(phi, body)
        instance = iff(redex, _contract(redex)[1])
        ok, bad = is_valid_on(m, instance)
        if not ok:
            report.failures.append(_blame(
                trial, trial_seed, f"{label} fails at state {bad}",
                (m,), (instance,)))


# ---------------------------------------------------------------------------
# Dynamic robustness of the structural constraints

def _introspection_suite(report):
    static = Fragment.of("K", "Bc", "Bplus", "Gt")
    for trial, trial_seed, trng in _trials(report):
        m = generate(GenSpec(2, 5, 2, 2, uniform=True, seed=trng.getrandbits(48)))
        agent = trng.choice(m.agents)
        alpha = random_formula(trng, sorted(m.valuation), m.agents, static, 2)
        phi = random_formula(trng, sorted(m.valuation), m.agents, static, 2)
        belief = CondBelief(agent, alpha, phi)
        instance = Implies(belief, Know(agent, belief))
        ok, bad = is_valid_on(m, instance)
        if not ok:
            report.failures.append(_blame(
                trial, trial_seed, f"introspection fails at state {bad}",
                (m,), (instance,)))


def _preservation_suite(report, checker, description, uniform,
                        locally_connected):
    static = Fragment.of("K", "Bc", "Bplus", "Gt")
    for trial, trial_seed, trng in _trials(report):
        m = generate(GenSpec(2, 5, 2, 2, uniform=uniform,
                             locally_connected=locally_connected,
                             seed=trng.getrandbits(48)))
        f = random_formula(trng, sorted(m.valuation), m.agents, static, 2)
        outputs = []
        if truth_set(m, f):
            outputs.append(("announcement", announce(m, f)))
        outputs.append(("upgrade", upgrade(m, f)))
        for kind, out in outputs:
            bad = validate(out)
            if bad:
                report.failures.append(_blame(
                    trial, trial_seed, f"{kind} output invalid: {bad[0]}",
                    (m,), (f,)))
            elif not checker(out):
                report.failures.append(_blame(
                    trial, trial_seed, f"{kind} does not preserve {description}",
                    (m, out), (f,)))


# ---------------------------------------------------------------------------
# Exhaustive translation suites

def _set_partitions(xs):
    xs = list(xs)
    if not xs:
        yield []
        return
    head, rest = xs[0], xs[1:]
    for part in _set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[head] + part[k]] + part[k + 1:]
        yield [[head]] + part


def _preorders(xs, total: bool):
    """All reflexive transitive relations on xs (all total ones when asked),
    enumerated deterministically."""
    xs = list(xs)
    diag = [(x, x) for x in xs]
    off = [(x, y) for x in xs for y in xs if x != y]
    for bits in range(1 << len(off)):
        rel = set(diag)
        rel.update(p for k, p in enumerate(off) if bits >> k & 1)
        if any((x, z) not in rel
               for x, y in rel for y2, z in rel if y == y2):
            continue
        if total and any((x, y) not in rel and (y, x) not in rel for x, y in off):
            continue
        yield frozenset(rel)


def _constrained_models(max_states: int, total_within_class: bool):
    """Every 1-agent 1-atom model up to max_states whose orders are shared
    across each epistemic class (hence uniform) and, when asked, total
    within it.  Order pairs outside a class never influence truth, so they
    are fixed to the identity."""
    for n in range(1, max_states + 1):
        states = [f"w{i}" for i in range(n)]
        ident = identity_pairs(states)
        for blocks in _set_partitions(states):
            epist = frozenset((x, y) for b in blocks for x in b for y in b)
            per_block_choices = [
                list(_preorders(b, total_within_class)) for b in blocks
            ]
            for combo in itertools.product(*per_block_choices):
                plaus = {}
                for block, rel in zip(blocks, combo):
                    order = ident | rel
                    for w in block:
                        plaus[("a", w)] = order
                for val_bits in range(1 << n):
                    valuation = {
                        "p": frozenset(s for k, s in enumerate(states)
                                       if val_bits >> k & 1)}
                    yield Model(states, ["a"], {"a": epist}, plaus, valuation)


def _dedup_by_truth_set(m: Model, formulas, evaluator: Evaluator):
    reps = {}
    for f in formulas:
        t = evaluator.truth_set(m, f)
        if t not in reps:
            reps[t] = f
    return list(reps.values())


@functools.cache
def _static_depth2_formulas():
    return list(enumerate_formulas(
        ["p"], ["a"], Fragment.of("K", "Bc", "Bplus", "Gt"), 2))


def _uniform_counterexample_model() -> Model:
    states = ["v", "w"]
    return Model(
        states, ["a"],
        {"a": frozenset((x, y) for x in states for y in states)},
        {("a", "w"): identity_pairs(states) | {("v", "w")},
         ("a", "v"): identity_pairs(states)},
        {"p": {"w"}},
    )


def _connected_counterexample_model() -> Model:
    states = ["v", "w"]
    return Model(
        states, ["a"],
        {"a": frozenset((x, y) for x in states for y in states)},
        {("a", "v"): identity_pairs(states), ("a", "w"): identity_pairs(states)},
        {"p": {"w"}},
    )


def _translation_suite(report, unfold, total_within_class, counterexample,
                       guard, guard_note):
    """``B[a | alpha] phi`` against the translation's unfolding of it, for
    every pair of depth-2 formulas on every constrained model, and the
    ``guard`` pair (alpha, phi) on the counterexample model."""
    report.seed = None  # exhaustive: nothing is drawn

    def instance(alpha, phi):
        b = CondBelief("a", alpha, phi)
        return iff(b, unfold(b)[1])

    t0 = time.monotonic()
    formulas = _static_depth2_formulas()
    count = 0
    for m in _constrained_models(3, total_within_class):
        count += 1
        ev = Evaluator()
        reps = _dedup_by_truth_set(m, formulas, ev)
        for alpha in reps:
            for phi in reps:
                ok, bad = is_valid_on(m, instance(alpha, phi))
                if not ok:
                    report.failures.append(
                        f"model#{count} biconditional fails at {bad} "
                        f"alpha={format_formula(alpha)} phi={format_formula(phi)} "
                        f"model={_compact(m)}")
    # Guard the precondition: the frozen counterexample must falsify it.
    guard_model = counterexample()
    ok, _ = is_valid_on(guard_model, instance(*guard))
    if ok:
        report.failures.append(
            f"guard failed: biconditional unexpectedly valid on {guard_note} "
            f"model {_compact(guard_model)}")
    report.trials = count
    report.notes = f"exhaustive over {count} models, plus the {guard_note} guard"
    report.elapsed = time.monotonic() - t0


# ---------------------------------------------------------------------------
# Equivalence after dynamics

def _dynamic_future_suite(report):
    """Bisimilar pairs must agree on every K+Bc+Bplus formula after the
    dynamics.  The formulas checked are the formulas of the blocks of the
    modal-equivalence partition: every formula's truth sets are a union of
    blocks, so agreement on each block formula is agreement on the whole
    language at every depth."""
    static = Fragment.of("K", "Bc", "Bplus")
    for trial, trial_seed, trng in _trials(report):
        left = generate(GenSpec(2, 4, 2, 2, uniform=True, locally_connected=True,
                                seed=trng.getrandbits(48)))
        right = rename_states(left)
        z = greatest_structural(left, right, Fragment.of("K", "Bplus"))
        if not z.pairs:
            report.failures.append(_blame(
                trial, trial_seed, "no bisimilar pairs on an isomorphic copy",
                (left, right)))
            continue

        def agreement_failures(cl, cr, pairs):
            formulas = _block_formulas(cl, cr, static.operators)[1]
            return _agreement_failures(cl, cr, pairs, formulas, trial, trial_seed)

        def surviving_announcement(cl, cr, pairs):
            for _ in range(40):
                phi = random_formula(trng, sorted(cl.valuation), cl.agents,
                                     static, 2)
                tl, tr = truth_set(cl, phi), truth_set(cr, phi)
                kept = frozenset((w, v) for w, v in pairs
                                 if w in tl and v in tr)
                if tl and tr and kept:
                    return phi, kept
            return None, None

        # One announcement at pairs where both sides hear it.
        phi, kept = surviving_announcement(left, right, z.pairs)
        if phi is not None:
            report.failures.extend(agreement_failures(
                announce(left, phi), announce(right, phi), kept))

        # One upgrade, at every bisimilar pair.
        psi = random_formula(trng, sorted(left.valuation), left.agents, static, 2)
        report.failures.extend(agreement_failures(
            upgrade(left, psi), upgrade(right, psi), z.pairs))

        # A three-step mixed history.
        cl, cr, pairs = left, right, z.pairs
        for _ in range(3):
            if trng.random() < 0.5:
                phi, kept = surviving_announcement(cl, cr, pairs)
                if phi is None:
                    break
                cl, cr, pairs = announce(cl, phi), announce(cr, phi), kept
            else:
                phi = random_formula(trng, sorted(cl.valuation), cl.agents,
                                     static, 2)
                cl, cr = upgrade(cl, phi), upgrade(cr, phi)
        if pairs:
            report.failures.extend(agreement_failures(cl, cr, pairs))


# ---------------------------------------------------------------------------
# Definable-pair exactness

def _pair_saturation(left: Model, right: Model, fragment: Fragment):
    """Independent oracle for the definable-pair family: saturate truth-set
    pairs level by level, composing through truth sets, until stable."""
    atoms = sorted(set(left.valuation) | set(right.valuation))
    current = {
        (frozenset(left.atom_extension(p)), frozenset(right.atom_extension(p)))
        for p in atoms
    }
    current.add((frozenset(left.states), frozenset(right.states)))

    def relations(m):
        """Each (agent, state)'s class and order, read once per call."""
        rels = {}
        for a in m.agents:
            epist = m.epist[a]
            for w in m.states:
                rels[a, w] = frozenset(v for x, v in epist if x == w), m.plaus[(a, w)]
        return m.states, rels

    def modal(side, kind, agent, mask, cond=None):
        states, rels = side
        out = set()
        for w in states:
            cls, rel = rels[agent, w]
            if kind == "K":
                targets = cls
            elif kind == "Bplus":
                targets = frozenset(v for v in cls if (v, w) in rel)
            elif kind == "Gt":
                targets = frozenset(v for v in cls
                                    if (v, w) in rel and (w, v) not in rel)
            else:
                xs = cond & cls
                targets = frozenset(
                    x for x in xs
                    if all((x, y) in rel for y in xs if (y, x) in rel))
            if targets <= mask:
                out.add(w)
        return frozenset(out)

    unary = [k for k in ("K", "Bplus", "Gt") if k in fragment]
    lv, rv = relations(left), relations(right)
    while True:
        fresh = set(current)
        fl = frozenset(left.states)
        fr = frozenset(right.states)
        for ls, rs in current:
            fresh.add((fl - ls, fr - rs))
            for ls2, rs2 in current:
                fresh.add((ls & ls2, rs & rs2))
            for kind in unary:
                for a in left.agents:
                    fresh.add((modal(lv, kind, a, ls), modal(rv, kind, a, rs)))
            if "Bc" in fragment:
                for a in left.agents:
                    for ls2, rs2 in current:
                        fresh.add((modal(lv, "Bc", a, ls2, cond=ls),
                                   modal(rv, "Bc", a, rs2, cond=rs)))
                        fresh.add((modal(lv, "Bc", a, ls, cond=ls2),
                                   modal(rv, "Bc", a, rs, cond=rs2)))
        if fresh == current:
            return current
        current = fresh


def _pairfamily_suite(report):
    fragment = Fragment.of("K", "Bc")
    enum_cache = {}
    for trial, trial_seed, trng in _trials(report):
        agents = trng.choice([1, 2])
        left, right = _model_pair(trng, 2, 3, agents, 2)
        family = definable_pairs(left, right, fragment)
        family_set = set(family.pairs)

        oracle = _pair_saturation(left, right, fragment)
        if family_set != oracle:
            report.failures.append(_blame(
                trial, trial_seed,
                f"family differs from saturation oracle: "
                f"only_family={len(family_set - oracle)} "
                f"only_oracle={len(oracle - family_set)}",
                (left, right)))
            continue

        # Each member must be realized by its own formula.
        evl, evr = Evaluator(), Evaluator()
        for k, (ls, rs) in enumerate(family.pairs):
            f = family.formula(k)
            if evl.truth_set(left, f) != ls or evr.truth_set(right, f) != rs:
                report.failures.append(_blame(
                    trial, trial_seed, f"formula {k} does not realize its pair",
                    (left, right), (f,)))
                break
        else:
            # Every enumerated formula must land inside the family.
            key = (tuple(sorted(set(left.valuation) | set(right.valuation))),
                   left.agents)
            if key not in enum_cache:
                enum_cache[key] = list(enumerate_formulas(
                    key[0], key[1], fragment, 2))
            for f in enum_cache[key]:
                pair = (evl.truth_set(left, f), evr.truth_set(right, f))
                if pair not in family_set:
                    report.failures.append(_blame(
                        trial, trial_seed, "enumerated pair missing from family",
                        (left, right), (f,)))
                    break


# ---------------------------------------------------------------------------
# Registry

@functools.cache
def _defs():
    """Name -> (description, default trials, runner filling a report)."""
    KB = Fragment.of("K", "Bplus")
    return {
        "thm9-K": (
            "K-bisimilar points agree on every knowledge formula",
            500,
            lambda r: _equivalence_suite(
                r, Fragment.of("K"), Fragment.of("K"))),
        "thm9-Bplus": (
            "safe-belief-bisimilar points agree on every safe-belief formula",
            500,
            lambda r: _equivalence_suite(
                r, Fragment.of("Bplus"), Fragment.of("Bplus"))),
        "thm9-Bc": (
            "conditional-belief-bisimilar points agree on the Bc language",
            500,
            lambda r: _equivalence_suite(
                r, Fragment.of("Bc"), Fragment.of("Bc"), sizes=(2, 3))),
        "thm11-KBc": (
            "K+Bc-bisimilar points agree on the K+Bc language",
            500,
            lambda r: _equivalence_suite(
                r, Fragment.of("K", "Bc"), Fragment.of("K", "Bc"), sizes=(2, 3))),
        "thm11-KBplus": (
            "K+Bplus-bisimilar points agree on the K+Bplus language",
            500,
            lambda r: _equivalence_suite(r, KB, KB)),
        "thm13": (
            "the K+Bc equivalence relation is itself a K+Bc bisimulation",
            200,
            _hennessy_milner_suite),
        "thm17": (
            "on uniform models agents know their conditional beliefs",
            500,
            _introspection_suite),
        "thm18": (
            "announcement and upgrade preserve uniformity",
            500,
            lambda r: _preservation_suite(
                r, is_uniform, "uniformity",
                uniform=True, locally_connected=False)),
        "thm22": (
            "conditional belief matches its K+Gt unfolding on uniform models",
            None,
            lambda r: _translation_suite(
                r, _unfold_gt, False, _uniform_counterexample_model,
                (Top(), Not(Atom("p"))),
                "non-uniform")),
        "thm24-1": (
            "Gt-bisimilar points agree on the strict-plausibility language",
            500,
            lambda r: _equivalence_suite(
                r, Fragment.of("Gt"), Fragment.of("Gt"))),
        "thm24-2": (
            "K+Gt-bisimilar points agree on the K+Gt language",
            500,
            lambda r: _equivalence_suite(
                r, Fragment.of("K", "Gt"), Fragment.of("K", "Gt"))),
        "thm24-3": (
            "on uniform models K+Gt bisimilarity gives K+Bc equivalence",
            500,
            lambda r: _equivalence_suite(
                r, Fragment.of("K", "Gt"), Fragment.of("K", "Bc"),
                sizes=(2, 4), uniform=True)),
        "thm24-4": (
            "on uniform models the greatest K+Gt relation sits inside K+Bc equivalence",
            200,
            lambda r: _containment_suite(
                r, Fragment.of("K", "Gt"), locally_connected=False)),
        "thm26": (
            "announcement and upgrade preserve local connectedness",
            500,
            lambda r: _preservation_suite(
                r, is_locally_connected, "local connectedness",
                uniform=False, locally_connected=True)),
        "thm27": (
            "conditional belief matches its K+Bplus unfolding on uniform locally "
            "connected models",
            None,
            lambda r: _translation_suite(
                r, _unfold_safe, True, _connected_counterexample_model,
                (Top(), Atom("p")),
                "non-connected")),
        "thm28-1": (
            "on uniform locally connected models K+Bplus bisimilarity gives "
            "K+Bplus+Bc equivalence",
            500,
            lambda r: _equivalence_suite(
                r, KB, Fragment.of("K", "Bplus", "Bc"),
                sizes=(2, 4), uniform=True, locally_connected=True)),
        "thm28-2": (
            "on uniform locally connected models the greatest K+Bplus relation "
            "sits inside K+Bc equivalence",
            200,
            lambda r: _containment_suite(r, KB, locally_connected=True)),
        "thm29": (
            "bisimilar now means equivalent after announcements and upgrades",
            200,
            _dynamic_future_suite),
        "reduction": (
            "eliminating dynamic operators preserves truth everywhere",
            500,
            _reduction_suite),
        "fact5": (
            "the six announcement/upgrade biconditionals for K, Bc, Bplus are valid",
            100,
            lambda r: _schema_suite(r, _FACT5)),
        "fact30": (
            "the two announcement/upgrade biconditionals for Gt are valid",
            100,
            lambda r: _schema_suite(r, _FACT30)),
        "pairfamily": (
            "the definable-pair family is exactly the enumerable truth-set pairs",
            100,
            _pairfamily_suite),
    }


def suite_names() -> list[str]:
    return sorted(_defs())


def run_suite(name: str, trials: int | None = None,
              seed: int | None = None) -> SuiteReport:
    """Run a named suite.  ``trials`` defaults to the suite's budget;
    ``seed`` defaults to the ``PLAUSIKIT_SEED`` environment variable when
    set, else to the built-in seed."""
    defs = _defs()
    if name not in defs:
        raise InputError(
            f"unknown suite {name!r}; known: {', '.join(sorted(defs))}")
    _, default_trials, runner = defs[name]
    if seed is None:
        env = os.environ.get("PLAUSIKIT_SEED")
        try:
            seed = int(env) if env else DEFAULT_SEED
        except ValueError:
            raise InputError(
                f"PLAUSIKIT_SEED must be an integer, got {env!r}") from None
    if trials is None:
        trials = default_trials
    report = SuiteReport(name, trials, seed=seed)
    runner(report)
    return report


def suite_description(name: str) -> str:
    defs = _defs()
    if name not in defs:
        raise InputError(f"unknown suite {name!r}")
    return defs[name][0]

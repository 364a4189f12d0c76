import itertools

import pytest
from hypothesis import given, settings

from plausikit import (Evaluator, Fragment, InputError, Model, Relation,
                       ResourceLimitError, check_bc, check_structural,
                       definable_pairs, greatest_structural, hennessy_milner,
                       identity_pairs, load_corpus, modal_equiv,
                       relation_from_dict, relation_to_dict, total_pairs)

from helpers import models

KBC = Fragment.of("K", "Bc")


def identity_relation(m):
    return Relation(m, m, frozenset((w, w) for w in m.states))


def one_state_pair():
    left = Model(["w"], ["a"], {"a": {("w", "w")}},
                 {("a", "w"): {("w", "w")}}, {"p": {"w"}})
    right = Model(["x"], ["a"], {"a": {("x", "x")}},
                  {("a", "x"): {("x", "x")}}, {"p": {"x"}})
    return left, right


class TestCheckStructural:
    @settings(max_examples=60, deadline=None)
    @given(models(max_states=3))
    def test_identity_is_a_bisimulation_for_every_fragment(self, m):
        rel = identity_relation(m)
        for ops in [("K",), ("Bplus",), ("Gt",), ("K", "Bplus"),
                    ("K", "Gt"), ("K", "Bplus", "Gt")]:
            assert check_structural(rel, Fragment.of(*ops)).ok

    def test_atom_disagreement_is_reported_first(self):
        left, right = one_state_pair()
        right = Model(right.states, right.agents, right.epist, right.plaus, {})
        res = check_structural(Relation(left, right, {("w", "x")}), Fragment.of("K"))
        assert not res.ok
        assert res.violation.clause == "atoms"
        assert "p" in res.violation.detail

    def test_agent_mismatch_rejected(self):
        left, _ = one_state_pair()
        other = Model(["x"], ["b"], {"b": {("x", "x")}},
                      {("b", "x"): {("x", "x")}}, {})
        with pytest.raises(InputError):
            check_structural(Relation(left, other, set()), Fragment.of("K"))

    def test_dynamic_fragment_rejected(self):
        left, right = one_state_pair()
        with pytest.raises(InputError):
            check_structural(Relation(left, right, set()), Fragment.of("K", "Ann"))

    def test_relation_validates_its_states(self):
        left, right = one_state_pair()
        with pytest.raises(InputError):
            Relation(left, right, {("nope", "x")})


class TestGreatestStructural:
    @settings(max_examples=60, deadline=None)
    @given(models(max_states=3))
    def test_contains_the_identity_on_a_self_pair(self, m):
        z = greatest_structural(m, m, Fragment.of("K", "Bplus", "Gt"))
        for w in m.states:
            assert (w, w) in z.pairs

    def test_disjoint_atom_extensions_leave_nothing(self):
        left, right = one_state_pair()
        right = Model(right.states, right.agents, right.epist, right.plaus,
                      {"p": set()})
        z = greatest_structural(left, right, Fragment.of("K"))
        assert z.pairs == frozenset()

    @settings(max_examples=40, deadline=None)
    @given(models(max_states=3), models(max_states=3))
    def test_result_passes_its_own_check_and_is_maximal(self, left, right):
        if left.agents != right.agents:
            return
        frag = Fragment.of("K", "Bplus")
        z = greatest_structural(left, right, frag)
        assert check_structural(z, frag).ok
        # adding back any deleted atom-respecting pair breaks some clause
        atoms = sorted(set(left.valuation) | set(right.valuation))
        respecting = {
            (w, v) for w in left.states for v in right.states
            if all((w in left.atom_extension(p)) == (v in right.atom_extension(p))
                   for p in atoms)}
        for extra in sorted(respecting - z.pairs):
            bigger = Relation(left, right, z.pairs | {extra})
            assert not check_structural(bigger, frag).ok


class TestDefinablePairs:
    def test_one_state_models_with_a_shared_atom(self):
        left, right = one_state_pair()
        fam = definable_pairs(left, right, KBC)
        assert set(fam.pairs) == {
            (frozenset({"w"}), frozenset({"x"})),
            (frozenset(), frozenset()),
        }

    def test_no_atoms_gives_the_two_constant_pairs(self):
        left = Model(["v", "w"], ["a"], {"a": total_pairs(["v", "w"])},
                     {("a", s): total_pairs(["v", "w"]) for s in ["v", "w"]}, {})
        right = Model(["x"], ["a"], {"a": {("x", "x")}},
                      {("a", "x"): {("x", "x")}}, {})
        fam = definable_pairs(left, right, KBC)
        assert set(fam.pairs) == {
            (frozenset({"v", "w"}), frozenset({"x"})),
            (frozenset(), frozenset()),
        }

    def test_cap_is_enforced(self):
        corpus = load_corpus()
        entry = corpus[0]
        with pytest.raises(ResourceLimitError) as err:
            definable_pairs(entry.left, entry.right, KBC, cap=2)
        assert err.value.cap == 2
        assert "cap of 2" in str(err.value)

    @settings(max_examples=30, deadline=None)
    @given(models(max_states=3, max_agents=1))
    def test_recipes_replay_to_matching_truth_sets(self, m):
        fam = definable_pairs(m, m, KBC)
        ev = Evaluator()
        for k, (ls, rs) in enumerate(fam.pairs):
            f = fam.formula(k)
            assert ev.truth_set(m, f) == ls == rs

    def test_rejects_dynamic_fragments(self):
        left, right = one_state_pair()
        with pytest.raises(InputError):
            definable_pairs(left, right, Fragment.of("K", "Up"))

    def test_depth_three_enumeration_lands_in_the_witness_pair_family(self):
        from plausikit import enumerate_formulas
        entry = next(e for e in load_corpus() if e.name == "thm15")
        fam = definable_pairs(entry.left, entry.right, KBC)
        family_set = set(fam.pairs)
        evl, evr = Evaluator(), Evaluator()
        for f in enumerate_formulas(["p"], ["a"], KBC, 3):
            pair = (evl.truth_set(entry.left, f), evr.truth_set(entry.right, f))
            assert pair in family_set


class TestCheckBc:
    @settings(max_examples=40, deadline=None)
    @given(models(max_states=3))
    def test_identity_is_accepted_on_a_self_pair(self, m):
        rel = identity_relation(m)
        assert check_bc(rel, Fragment.of("Bc")).ok
        assert check_bc(rel, KBC).ok
        assert check_bc(rel, Fragment.of("K", "Bplus", "Bc")).ok

    def test_fragment_must_be_a_conditional_belief_combination(self):
        left, right = one_state_pair()
        rel = Relation(left, right, {("w", "x")})
        with pytest.raises(InputError):
            check_bc(rel, Fragment.of("K"))
        with pytest.raises(InputError):
            check_bc(rel, Fragment.of("Gt", "Bc"))

    def test_failing_relation_keeps_failing_on_subrelations(self):
        # witness reporting is monotone: if Z fails, every subrelation that
        # still contains the violating pair fails as well
        entry = next(e for e in load_corpus() if e.name == "thm14")
        rel = entry.relation
        res = check_bc(rel, KBC)
        assert not res.ok
        culprit = res.violation.pair
        others = sorted(rel.pairs - {culprit})
        for r in range(len(others) + 1):
            for kept in itertools.combinations(others, r):
                sub = Relation(rel.left, rel.right, set(kept) | {culprit})
                assert not check_bc(sub, KBC).ok


def _formula_quantifier_violates(rel, alphas):
    """Direct check of the conditional-belief clauses with the condition
    drawn from an explicit formula list; an independent under-approximation
    of the family-based quantifier."""
    from plausikit import eq_class, min_set, truth_set
    left, right = rel.left, rel.right
    l_image = {}
    r_image = {}
    for w, v in rel.pairs:
        l_image.setdefault(w, set()).add(v)
        r_image.setdefault(v, set()).add(w)
    for alpha in alphas:
        tl = truth_set(left, alpha)
        tr = truth_set(right, alpha)
        for w, v in rel.pairs:
            for agent in left.agents:
                lmin = min_set(left, agent, w, tl & eq_class(left, agent, w))
                rmin = min_set(right, agent, v, tr & eq_class(right, agent, v))
                if any(not (l_image.get(x, set()) & rmin) for x in lmin):
                    return True
                if any(not (r_image.get(y, set()) & lmin) for y in rmin):
                    return True
    return False


@settings(max_examples=30, deadline=None)
@given(models(max_states=3, max_agents=1), models(max_states=3, max_agents=1))
def test_family_checker_never_accepts_what_formulas_refute(left, right):
    from plausikit import enumerate_formulas
    atoms = sorted(set(left.valuation) | set(right.valuation))
    alphas = list(enumerate_formulas(atoms, left.agents, KBC, 2))
    candidates = []
    # the modal-equivalence relation (expected to be accepted)
    fam = definable_pairs(left, right, KBC)
    equiv = frozenset((w, v) for w in left.states for v in right.states
                      if fam.agree(w, v))
    candidates.append(Relation(left, right, equiv))
    # the blunt atom-respecting relation (often refutable)
    respecting = frozenset(
        (w, v) for w in left.states for v in right.states
        if all((w in left.atom_extension(p)) == (v in right.atom_extension(p))
               for p in atoms))
    candidates.append(Relation(left, right, respecting))
    for rel in candidates:
        ok = check_bc(rel, KBC).ok
        refuted = _formula_quantifier_violates(rel, alphas)
        if ok:
            assert not refuted
    # the equivalence relation itself must be accepted on finite models
    assert check_bc(candidates[0], KBC).ok


def test_breaking_a_bisimulation_is_detected():
    from plausikit import GenSpec, generate, greatest_structural, rename_states
    left = generate(GenSpec(3, 3, 1, 1, seed=21))
    right = rename_states(left)
    frag = Fragment.of("K", "Bplus")
    z = greatest_structural(left, right, frag)
    assert z.pairs
    iso = frozenset((w, "x" + w) for w in left.states)
    assert iso <= z.pairs
    # drop one isomorphism pair whose state has epistemic company
    for w, v in sorted(iso):
        cls = {y for x, y in left.epist["a"] if x == w}
        if len(cls) > 1:
            broken = Relation(left, right, iso - {(w, v)})
            assert not check_structural(broken, frag).ok
            break


class TestModalEquiv:
    def test_reflexive(self):
        left, _ = one_state_pair()
        assert modal_equiv(left, "w", left, "w", KBC)

    def test_unknown_state_rejected(self):
        left, right = one_state_pair()
        with pytest.raises(InputError):
            modal_equiv(left, "z", right, "x", KBC)

    @settings(max_examples=40, deadline=None)
    @given(models(max_states=3, max_agents=1))
    def test_equivalence_respects_every_definable_pair(self, m):
        from helpers import ref_definable_pairs
        family = ref_definable_pairs(m, m, KBC)
        for w in m.states:
            for v in m.states:
                expected = all((w in ls) == (v in rs) for ls, rs in family)
                assert modal_equiv(m, w, m, v, KBC) == expected


class TestHennessyMilner:
    @settings(max_examples=30, deadline=None)
    @given(models(max_states=3))
    def test_self_pair_passes_and_contains_identity(self, m):
        report = hennessy_milner(m, m)
        assert report.ok
        for w in m.states:
            assert (w, w) in report.relation.pairs

    @settings(max_examples=30, deadline=None)
    @given(models(max_states=4), models(max_states=4))
    def test_random_pairs_pass(self, left, right):
        if left.agents != right.agents:
            return
        assert hennessy_milner(left, right).ok


def test_relation_document_round_trip():
    left, right = one_state_pair()
    rel = Relation(left, right, {("w", "x")})
    doc = relation_to_dict(rel, "l.json", "r.json")
    assert doc == {"left": "l.json", "right": "r.json", "pairs": [["w", "x"]]}
    again = relation_from_dict(doc, left, right)
    assert again.pairs == rel.pairs


def test_malformed_relation_document_rejected():
    left, right = one_state_pair()
    with pytest.raises(InputError):
        relation_from_dict({"pairs": [["w"]]}, left, right)
    with pytest.raises(InputError):
        relation_from_dict({}, left, right)


# ---------------------------------------------------------------------------
# The partition-refinement engine against the code it replaced

from hypothesis import strategies as st

from plausikit import BC_FRAGMENTS

from helpers import (ref_check_bc, ref_definable_pairs, ref_greatest_structural,
                     ref_holds)

STATIC_FRAGMENTS = [Fragment.of(*ops)
                    for r in range(1, 5)
                    for ops in itertools.combinations(["K", "Bc", "Bplus", "Gt"], r)]
STRUCTURAL_FRAGMENTS = [f for f in STATIC_FRAGMENTS if "Bc" not in f]


@st.composite
def model_pairs(draw, max_states=3):
    """Two models over the same agents: a model and its renamed copy, or
    two models drawn apart (mostly not isomorphic)."""
    from plausikit import rename_states
    left = draw(models(max_states=max_states))
    if draw(st.booleans()):
        return left, rename_states(left)
    right = draw(models(max_states=max_states))
    if right.agents != left.agents:
        right = Model(right.states, left.agents,
                      {a: right.epist[right.agents[0]] for a in left.agents},
                      {(a, w): right.plaus[(right.agents[0], w)]
                       for a in left.agents for w in right.states},
                      right.valuation)
    return left, rename_states(right)


def agree(family, w, v):
    """Do w (left) and v (right) fall on the same side of every pair?"""
    return all((w in ls) == (v in rs) for ls, rs in family)


def atom_respecting(left, right):
    atoms = sorted(set(left.valuation) | set(right.valuation))
    return sorted((w, v) for w in left.states for v in right.states
                  if all((w in left.atom_extension(p)) == (v in right.atom_extension(p))
                         for p in atoms))


@settings(max_examples=40, deadline=None)
@given(model_pairs())
def test_modal_equiv_is_agreement_on_the_family_in_every_static_fragment(pair):
    left, right = pair
    for frag in STATIC_FRAGMENTS:
        family = ref_definable_pairs(left, right, frag)
        for w in left.states:
            for v in right.states:
                assert (modal_equiv(left, w, right, v, frag)
                        == agree(family, w, v)), (frag, w, v)


@settings(max_examples=40, deadline=None)
@given(model_pairs())
def test_family_is_the_unions_of_the_refined_blocks(pair):
    left, right = pair
    for frag in STATIC_FRAGMENTS:
        assert set(definable_pairs(left, right, frag).pairs) == ref_definable_pairs(
            left, right, frag), frag


@settings(max_examples=40, deadline=None)
@given(model_pairs())
def test_block_formulas_are_exact_in_every_static_fragment(pair):
    """The family equals the closure, every member's formula realizes it,
    and each block's own formula holds exactly on the block under the
    reference evaluator."""
    left, right = pair
    for frag in STATIC_FRAGMENTS:
        fam = definable_pairs(left, right, frag)
        assert len(fam.pairs) == 2 ** len(fam.blocks)
        assert set(fam.pairs) == ref_definable_pairs(left, right, frag), frag
        evl, evr = Evaluator(), Evaluator()
        for k, pair_k in enumerate(fam.pairs):
            f = fam.formula(k)
            assert (evl.truth_set(left, f), evr.truth_set(right, f)) == pair_k, (frag, k)
        for i, f in enumerate(fam.blocks):
            ls, rs = fam.pairs[1 << i]
            assert {w for w in left.states if ref_holds(left, w, f)} == ls, (frag, i)
            assert {v for v in right.states if ref_holds(right, v, f)} == rs, (frag, i)


@settings(max_examples=60, deadline=None)
@given(model_pairs(max_states=4))
def test_greatest_structural_matches_the_deletion_fixpoint(pair):
    left, right = pair
    for frag in STRUCTURAL_FRAGMENTS:
        assert (greatest_structural(left, right, frag).pairs
                == ref_greatest_structural(left, right, frag).pairs), frag


@settings(max_examples=60, deadline=None)
@given(model_pairs(), st.data())
def test_check_bc_matches_the_family_scan(pair, data):
    left, right = pair
    respecting = atom_respecting(left, right)
    every = [(w, v) for w in left.states for v in right.states]
    for ops in BC_FRAGMENTS:
        frag = Fragment(ops)
        hm = frozenset((w, v) for w, v in every if modal_equiv(left, w, right, v, frag))
        candidates = [
            hm,
            frozenset(data.draw(st.sets(st.sampled_from(every)), label="any"))
            if every else frozenset(),
            frozenset(data.draw(st.sets(st.sampled_from(respecting)), label="atoms"))
            if respecting else frozenset(),
            hm ^ frozenset(data.draw(st.sets(st.sampled_from(respecting), max_size=2),
                                     label="flip")) if respecting else hm,
        ]
        for pairs in candidates:
            _assert_matches_the_family_scan(Relation(left, right, pairs), frag)
        assert check_bc(Relation(left, right, hm), frag).ok


def test_check_bc_reports_the_family_scans_violation_on_the_corpus():
    for entry in load_corpus():
        for ops in BC_FRAGMENTS:
            _assert_matches_the_family_scan(entry.relation, Fragment(ops))


def _assert_matches_the_family_scan(rel, frag):
    """check_bc gives ref_check_bc's verdict.  On a false one it fails at
    the same pair and agent, with the same violation when that is not a Bc
    clause; at a Bc clause its named condition must break the clause at
    the named state, checked on the condition's truth sets."""
    got, want = check_bc(rel, frag), ref_check_bc(rel, frag)
    assert got.ok == want.ok, (frag, sorted(rel.pairs))
    if got.ok:
        return
    g, r = got.violation, want.violation
    assert (g.pair, g.agent) == (r.pair, r.agent), (g, r)
    if not r.clause.startswith("Bc-"):
        assert g == r
        return
    assert g.clause.startswith("Bc-"), g
    assert _breaks_the_clause(rel, g), (str(g), sorted(rel.pairs))


def _breaks_the_clause(rel, violation):
    """Is the named state a most plausible state of the named condition in
    its class, at the violation's pair and agent, with no partner among the
    other side's most plausible condition states?"""
    from plausikit import eq_class, min_set, truth_set
    alpha = _named_condition(violation)
    (w, v), a = violation.pair, violation.agent
    lmin = min_set(rel.left, a, w, truth_set(rel.left, alpha) & eq_class(rel.left, a, w))
    rmin = min_set(rel.right, a, v, truth_set(rel.right, alpha) & eq_class(rel.right, a, v))
    x = violation.state
    if violation.clause == "Bc-zig":
        return x in lmin and not any((x, y) in rel.pairs for y in rmin)
    return x in rmin and not any((y, x) in rel.pairs for y in lmin)


def _structural_part(rel, frag):
    """The largest subrelation of rel passing the fragment's structural
    clauses: drop the pair that check_structural blames until none is."""
    base = Fragment(frag.operators - {"Bc"})
    pairs = set(rel.pairs)
    while True:
        res = check_structural(Relation(rel.left, rel.right, pairs), base)
        if res.ok:
            return Relation(rel.left, rel.right, frozenset(pairs))
        pairs.discard(res.violation.pair)


@settings(max_examples=80, deadline=None)
@given(model_pairs(max_states=4), st.data())
def test_check_bc_matches_the_family_scan_where_only_bc_clauses_can_fail(pair, data):
    """On relations that pass the structural clauses, every false verdict
    is at a Bc clause: the propagation is checked where it alone decides."""
    left, right = pair
    respecting = atom_respecting(left, right)
    for ops in BC_FRAGMENTS:
        frag = Fragment(ops)
        drawn = frozenset(data.draw(st.sets(st.sampled_from(respecting)), label="atoms")
                          if respecting else ())
        for rel in (_structural_part(Relation(left, right, drawn), frag),
                    greatest_structural(left, right, Fragment(ops - {"Bc"}))):
            res = check_bc(rel, frag)
            assert res.ok or res.violation.clause.startswith("Bc-"), res.violation
            _assert_matches_the_family_scan(rel, frag)


def _named_condition(violation):
    """The condition formula a Bc violation names."""
    from plausikit import parse
    assert violation.detail.startswith("condition ")
    return parse(violation.detail[len("condition "):])


def test_named_condition_refutes_the_corpus_relations():
    named = 0
    for entry in load_corpus():
        for ops in BC_FRAGMENTS:
            res = check_bc(entry.relation, Fragment(ops))
            if not res.ok and res.violation.clause.startswith("Bc-"):
                named += 1
                assert _formula_quantifier_violates(
                    entry.relation, [_named_condition(res.violation)]), (entry.name, ops)
    assert named


@settings(max_examples=60, deadline=None)
@given(model_pairs(), st.data())
def test_named_condition_is_a_witness(pair, data):
    """Wherever check_bc fails at a Bc clause, the condition it names breaks
    the clause, checked straight on the formula's truth sets."""
    left, right = pair
    respecting = atom_respecting(left, right)
    if not respecting:
        return
    for ops in BC_FRAGMENTS:
        frag = Fragment(ops)
        hm = greatest_structural(left, right, frag).pairs
        drawn = frozenset(data.draw(st.sets(st.sampled_from(respecting)), label="atoms"))
        flip = frozenset(data.draw(st.sets(st.sampled_from(respecting), min_size=1,
                                           max_size=2), label="flip"))
        for pairs in (drawn, hm ^ flip):
            rel = Relation(left, right, pairs)
            res = check_bc(rel, frag)
            if not res.ok and res.violation.clause.startswith("Bc-"):
                assert _formula_quantifier_violates(
                    rel, [_named_condition(res.violation)]), (frag, sorted(pairs))


def test_check_bc_caps_at_the_family_size():
    from plausikit import rename_states
    from plausikit.bisim import _partition
    entry = next(e for e in load_corpus() if e.name == "thm14")
    left, right = entry.left, rename_states(entry.left)
    rel = Relation(left, right, frozenset((w, "x" + w) for w in left.states))
    size = 2 ** len(set(_partition(left, right, KBC.operators)))
    assert len(definable_pairs(left, right, KBC)) == size
    with pytest.raises(ResourceLimitError) as err:
        definable_pairs(left, right, KBC, cap=size - 1)
    assert err.value.cap == size - 1
    assert str(err.value) == f"definable pair family exceeded cap of {size - 1} pairs"
    # The check never builds the family, so the cap does not bind it.
    assert check_bc(rel, KBC).ok


@settings(max_examples=60, deadline=None)
@given(model_pairs(), st.data())
def test_greatest_bc_bisimulation_is_the_equivalence_relation(pair, data):
    left, right = pair
    every = [(w, v) for w in left.states for v in right.states]
    for ops in BC_FRAGMENTS:
        frag = Fragment(ops)
        z = greatest_structural(left, right, frag)
        family = ref_definable_pairs(left, right, frag)
        assert z.pairs == frozenset((w, v) for w, v in every if agree(family, w, v))
        assert check_bc(z, frag).ok
        drawn = frozenset(data.draw(st.sets(st.sampled_from(every))))
        for pairs in (drawn, drawn | z.pairs):
            if ref_check_bc(Relation(left, right, pairs), frag).ok:
                assert pairs <= z.pairs, (frag, sorted(pairs))


def test_equivalence_and_true_checks_never_build_the_family(monkeypatch):
    import plausikit.bisim as bisim_mod
    import plausikit.suites as suites_mod
    from plausikit import GenSpec, generate, rename_states, run_suite

    def forbidden(*args, **kwargs):
        raise AssertionError("definable_pairs was called")

    monkeypatch.setattr(bisim_mod, "definable_pairs", forbidden)
    monkeypatch.setattr(suites_mod, "definable_pairs", forbidden)
    for name in ("thm9-Bc", "thm11-KBc"):
        assert run_suite(name, trials=1, seed=3).ok
    for seed in range(6):
        left = generate(GenSpec(3, 6, 2, 2, seed=seed))
        right = rename_states(left)
        for frag in STATIC_FRAGMENTS:
            assert modal_equiv(left, left.states[0], right, right.states[0], frag)
        assert hennessy_milner(left, right).ok
        iso = Relation(left, right, frozenset((w, "x" + w) for w in left.states))
        for ops in BC_FRAGMENTS:
            assert check_bc(iso, Fragment(ops)).ok
            assert iso.pairs <= greatest_structural(left, right, Fragment(ops)).pairs
    # A false verdict names its condition from the block formulas alone.
    named = 0
    for entry in load_corpus():
        for ops in BC_FRAGMENTS:
            res = check_bc(entry.relation, Fragment(ops))
            named += not res.ok and res.violation.clause.startswith("Bc-")
    assert named


def _perfbench_pair(n):
    """The benchmark's n-state model with two classes per agent and a
    total order per state, against its renamed copy."""
    import importlib.util
    import random
    from pathlib import Path
    from plausikit import model_from_dict
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).parent.parent / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    doc = inputs.random_model(random.Random(0), n, 2, "total", False)
    return model_from_dict(doc), model_from_dict(inputs.renamed(doc)[0])


def test_hennessy_milner_and_check_bc_need_no_cap_past_twelve_blocks():
    """Twenty blocks, a family of 2^20 members: the greatest K+Bc
    bisimulation passes check_bc, and the equivalence relation is a
    bisimulation, each decided without the family."""
    from plausikit.bisim import _partition
    left, right = _perfbench_pair(20)
    assert len(set(_partition(left, right, KBC.operators))) == 20
    assert check_bc(greatest_structural(left, right, KBC), KBC).ok
    assert hennessy_milner(left, right).ok

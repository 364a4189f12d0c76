import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plausikit import (And, Announce, Atom, CondBelief, Evaluator, GenSpec,
                       InputError, Know, Model, Not, Upgrade, eq_class,
                       generate, holds, identity_pairs, is_valid_on, min_set,
                       parse, total_pairs, truth_set)
from plausikit.model import Index

from helpers import (DISCRETE2, TOTAL2, RefEvaluator, formulas,
                     model_with_formula, models, ref_holds, shared_graphs,
                     two_state)


class TestHolds:
    def test_knowledge_of_truth_is_universal(self):
        m = two_state(TOTAL2, TOTAL2, atoms={"p": {"w"}})
        for w in m.states:
            assert holds(m, w, parse("K[a] true"))

    def test_safe_belief_depends_on_the_order(self):
        discrete = two_state(DISCRETE2, DISCRETE2, atoms={"p": {"w"}})
        flat = two_state(TOTAL2, TOTAL2, atoms={"p": {"w"}})
        assert holds(discrete, "w", parse("Bplus[a] p"))
        assert not holds(flat, "w", parse("Bplus[a] p"))

    def test_strict_plausibility_sees_only_strictly_better_states(self):
        sharp = two_state(DISCRETE2 | {("v", "w")}, DISCRETE2,
                          atoms={"p": {"v", "w"}})
        flat = two_state(TOTAL2, TOTAL2, atoms={"p": {"v", "w"}})
        assert holds(sharp, "w", parse("GtDia[a] true"))
        assert not holds(flat, "w", parse("GtDia[a] true"))

    def test_conditional_belief_uses_most_plausible_condition_states(self):
        m = two_state(DISCRETE2 | {("v", "w")}, DISCRETE2,
                      atoms={"p": {"v", "w"}, "q": {"v"}})
        # v is strictly more plausible at w, so only v matters for B[a|p].
        assert holds(m, "w", parse("B[a | p] q"))
        assert not holds(m, "w", parse("B[a | p] ~q"))

    def test_announcement_is_vacuous_where_the_content_fails(self):
        m = two_state(TOTAL2, TOTAL2, atoms={"p": {"w"}})
        assert holds(m, "v", parse("[! p] false"))
        assert not holds(m, "w", parse("[! p] false"))

    def test_unknown_state_and_agent_rejected(self):
        m = two_state(TOTAL2, TOTAL2)
        with pytest.raises(InputError):
            holds(m, "z", parse("true"))
        with pytest.raises(InputError):
            holds(m, "w", parse("K[c] true"))


class TestTruthSet:
    def test_truth_constant(self):
        m = two_state(TOTAL2, TOTAL2)
        assert truth_set(m, parse("true")) == {"v", "w"}

    def test_atom_reads_valuation(self):
        m = two_state(TOTAL2, TOTAL2, atoms={"p": {"w"}})
        assert truth_set(m, parse("p")) == {"w"}
        assert truth_set(m, parse("q")) == frozenset()

    def test_plain_belief_is_belief_conditional_on_truth(self):
        m = two_state(TOTAL2, DISCRETE2 | {("v", "w")}, atoms={"p": {"v"}})
        direct = frozenset(
            w for w in m.states
            if min_set(m, "a", w, eq_class(m, "a", w)) <= truth_set(m, parse("p")))
        assert truth_set(m, parse("B[a | true] p")) == direct


class TestValidity:
    def test_tautology(self):
        m = two_state(TOTAL2, TOTAL2, atoms={"p": {"w"}})
        ok, witness = is_valid_on(m, parse("p -> p"))
        assert ok and witness is None

    def test_least_falsifying_state_reported(self):
        m = two_state(TOTAL2, TOTAL2, atoms={"p": {"w"}})
        ok, witness = is_valid_on(m, parse("p"))
        assert not ok and witness == "v"

    def test_introspection_valid_on_a_uniform_model(self):
        m = two_state(TOTAL2, TOTAL2, atoms={"p": {"w"}, "q": {"v"}})
        ok, _ = is_valid_on(m, parse("B[a | p] q -> K[a] B[a | p] q"))
        assert ok

    def test_introspection_can_fail_without_uniformity(self):
        # brute-force search over shallow instances on a non-uniform model
        from plausikit import CondBelief, Fragment, Implies, Know, enumerate_formulas
        m = two_state(DISCRETE2 | {("v", "w")}, DISCRETE2,
                      atoms={"p": {"v", "w"}, "q": {"v"}})
        shallow = list(enumerate_formulas(["p", "q"], ["a"], Fragment.of("K"), 1))
        witnesses = []
        for alpha in shallow:
            for phi in shallow:
                belief = CondBelief("a", alpha, phi)
                ok, state = is_valid_on(m, Implies(belief, Know("a", belief)))
                if not ok:
                    witnesses.append((alpha, phi, state))
        assert witnesses
        assert all(state in m.states for _, _, state in witnesses)


@settings(max_examples=120, deadline=None)
@given(model_with_formula())
def test_negation_flips_truth_exactly(mf):
    from plausikit import Not
    m, f = mf
    full = frozenset(m.states)
    sat = truth_set(m, f)
    assert truth_set(m, Not(f)) == full - sat


@settings(max_examples=200, deadline=None)
@given(model_with_formula(max_states=3, max_depth=4))
def test_agreement_with_reference_evaluator(mf):
    m, f = mf
    ev = Evaluator()
    for w in m.states:
        assert (w in ev.truth_set(m, f)) == ref_holds(m, w, f)


@settings(max_examples=100, deadline=None)
@given(model_with_formula())
def test_shared_evaluator_matches_fresh_evaluation(mf):
    m, f = mf
    shared = Evaluator()
    a = shared.truth_set(m, f)
    b = shared.truth_set(m, f)
    assert a == b == truth_set(m, f)


def test_transformed_models_are_memoized_per_announced_formula():
    from plausikit import And, Announce
    m = two_state(TOTAL2, TOTAL2, atoms={"p": {"w"}, "q": {"v", "w"}})
    ev = Evaluator()
    ev.truth_set(m, And(Announce(parse("p"), parse("q")),
                        Announce(parse("p"), parse("~q"))))
    assert len(ev._announced) == 1


def test_views_build_no_orders(monkeypatch):
    """An announcement or upgrade view reads its targets and beliefs off its
    parent: evaluating through it builds no order.  Materialising the view
    as a model still does."""
    import plausikit.model as model
    from plausikit import GenSpec, generate, upgrade
    m = generate(GenSpec(12, 12, 2, 3, seed=3))
    assert 0 < len(m.valuation["p"]) < len(m.states)
    queries = [parse("[up p] (B[a | q] r & Gt[a] p & Bplus[b] q)"),
               parse("[! p] B[a | q] r")]
    # The reference evaluator builds models, so it runs before the count.
    want = [{w for w in m.states if ref_holds(m, w, f)} for f in queries]
    built = []

    class Counted(model._Order):
        __slots__ = ()

        def __init__(self, below, above):
            built.append(self)
            super().__init__(below, above)

    monkeypatch.setattr(model, "_Order", Counted)
    assert [truth_set(m, f) for f in queries] == want
    assert built == []
    upgrade(m, parse("p"))
    assert built


def test_one_evaluator_over_many_short_lived_models():
    # Models are built and dropped one after another, so a cache keyed on
    # object ids would hand a new model the truth sets of a dead one.
    import random
    from plausikit import Fragment, GenSpec, generate, random_formula
    rng = random.Random(7)
    ev = Evaluator()
    frag = Fragment.of("K", "Bc", "Bplus", "Gt", "Ann", "Up")
    f = parse("B[a | p] q & [! p] Gt[a] q")
    for k in range(200):
        m = generate(GenSpec(2, 5, 1, 2, seed=k))
        g = random_formula(rng, sorted(m.valuation), m.agents, frag, 3)
        for h in (f, g):
            sat = ev.truth_set(m, h)
            assert all((w in sat) == ref_holds(m, w, h) for w in m.states)
        del m


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nested_dynamics_on_larger_models(data):
    from plausikit import Announce, CondBelief, Fragment, GtBox, Upgrade
    from helpers import formulas
    m = data.draw(models(min_states=5, max_states=8, max_atoms=2))
    atoms = sorted(m.valuation) or ["p"]
    small = formulas(atoms=atoms, agents=m.agents, fragment=Fragment.of("K"),
                     max_depth=1)
    agent = st.sampled_from(m.agents)
    body = st.one_of(st.builds(CondBelief, agent, small, small),
                     st.builds(GtBox, agent, small))
    dynamic = st.sampled_from([Announce, Upgrade])
    f = data.draw(body)
    for make, pre in data.draw(st.lists(st.tuples(dynamic, small),
                                        min_size=1, max_size=3)):
        f = make(pre, f)
    sat = truth_set(m, f)
    for w in m.states:
        assert (w in sat) == ref_holds(m, w, f)


def test_a_value_that_is_not_a_formula_is_a_type_error():
    m = two_state(TOTAL2, TOTAL2, atoms={"p": {"w"}})
    with pytest.raises(TypeError, match="^not a formula: 'p'$"):
        truth_set(m, "p")
    with pytest.raises(TypeError, match="^not a formula: 'q'$"):
        truth_set(m, And(Atom("p"), "q"))


def _outcome(ev, ix, f):
    try:
        return ev.mask(ix, f)
    except InputError as err:   # an agent the model lacks
        return str(err)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_masks_equal_those_of_the_two_visit_loop(data):
    """The once-per-node loop against the loop it replaced, with a fresh
    evaluator per formula and with one evaluator across the list."""
    m = data.draw(models())
    graph = data.draw(st.booleans())
    fs = data.draw(shared_graphs() if graph else st.lists(
        formulas(atoms=sorted(m.valuation) or ["p"], agents=m.agents),
        min_size=1, max_size=4))
    ix = m.index
    got = [_outcome(Evaluator(), ix, f) for f in fs]
    assert got == [_outcome(RefEvaluator(), ix, f) for f in fs]
    shared, ref = Evaluator(), RefEvaluator()
    assert [_outcome(shared, ix, f) for f in fs] == got
    assert [_outcome(ref, ix, f) for f in fs] == got
    if not graph:   # a shared graph's tree is too large to walk state by state
        for f, mask in zip(fs, got):
            assert all((mask >> ix.pos[w] & 1) == ref_holds(m, w, f)
                       for w in m.states)


def _deep_chain(depth: int):
    """K[a], B[a | p], [! p], [up p] and a conjunct in turn, innermost
    first; each conjunct K[a] q is a new object equal to the others."""
    p, f = Atom("p"), Atom("q")
    steps = (lambda g: Know("a", g), lambda g: CondBelief("a", p, g),
             lambda g: Announce(p, g), lambda g: Upgrade(p, g),
             lambda g: And(g, Know("a", Atom("q"))))
    for k in range(depth):
        f = steps[k % 5](f)
    return f


def test_deep_formulas_evaluate_without_recursion():
    m = generate(GenSpec(6, 6, 1, 2, seed=4))
    p = m.valuation["p"]
    assert 0 < len(p) < len(m.states)
    f = Atom("p")
    for _ in range(100_000):
        f = Not(f)
    assert truth_set(m, f) == p
    assert truth_set(m, Not(f)) == frozenset(m.states) - p
    deep = _deep_chain(3000)
    assert Evaluator().mask(m.index, deep) == RefEvaluator().mask(m.index, deep)
    short = _deep_chain(12)
    assert truth_set(m, short) == {w for w in m.states if ref_holds(m, w, short)}


def test_each_modal_subformula_is_transformed_once_per_index(monkeypatch):
    """Transformer calls against the distinct (index, modal subformula)
    pairs met, formulas told apart by value."""
    calls = []
    for name in ("groups", "best"):
        real = getattr(Index, name)
        monkeypatch.setattr(Index, name, lambda self, *args, real=real: (
            calls.append(self), real(self, *args))[1])
    m = generate(GenSpec(6, 6, 1, 2, seed=4))
    ev = Evaluator()
    ev.truth_set(m, _deep_chain(3000))
    modal = {(ix, g) for ix, g in ev._truth
             if type(g) in (Know, CondBelief)}
    # 600 K and 600 B nodes evaluate on the view after [up p] [! p]; the
    # innermost, K[a] q, equals the 600 conjuncts there, and the outermost
    # conjunct evaluates on the model.
    assert len(calls) == len(modal) == 1201

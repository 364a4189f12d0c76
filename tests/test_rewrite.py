import random

import pytest
from hypothesis import given, settings

from plausikit import (And, Announce, Atom, CondBelief, Fragment, GenSpec,
                       InputError, Know, Not, ResourceLimitError, RewriteTrace,
                       Upgrade, formula_depth, fragment_of,
                       generate, has_dynamic, holds, is_valid_on, parse,
                       random_formula, reduce_dynamic, replay,
                       rewrite_measure, translate_gt, translate_safe,
                       truth_set, iff)
from plausikit import rewrite
from plausikit.syntax import children, formula_size

from helpers import model_with_formula, ref_reduce_dynamic


class TestReduceDynamic:
    def test_static_input_is_unchanged(self):
        f = parse("K[a](p -> B[a | q] r)")
        out, trace = reduce_dynamic(f)
        assert out == f
        assert len(trace) == 0

    def test_announced_knowledge(self):
        out, _ = reduce_dynamic(parse("[! p] K[a] q"))
        assert out == parse("p -> K[a](p -> q)")

    def test_upgraded_knowledge_collapses(self):
        out, _ = reduce_dynamic(parse("[up p] K[a] q"))
        assert out == parse("K[a] q")

    def test_output_is_always_static(self):
        rng = random.Random(7)
        full = Fragment.of("K", "Bc", "Bplus", "Gt", "Ann", "Up")
        for _ in range(200):
            f = random_formula(rng, ["p", "q"], ["a", "b"], full, 3)
            out, _ = reduce_dynamic(f)
            assert not has_dynamic(out)

    def test_trace_replays_to_the_output(self):
        rng = random.Random(11)
        full = Fragment.of("K", "Bc", "Bplus", "Gt", "Ann", "Up")
        for _ in range(100):
            f = random_formula(rng, ["p"], ["a"], full, 3)
            out, trace = reduce_dynamic(f)
            assert replay(f, trace) == out

    def test_measure_decreases_at_every_step(self):
        rng = random.Random(13)
        full = Fragment.of("K", "Bc", "Bplus", "Gt", "Ann", "Up")
        checked_steps = 0
        for _ in range(150):
            f = random_formula(rng, ["p", "q"], ["a"], full, 3)
            g = f
            _, trace = reduce_dynamic(f)
            for step in trace:
                before = rewrite_measure(g)
                from helpers import replace_at
                g = replace_at(g, step.path, step.after)
                after = rewrite_measure(g)
                assert after < before
                checked_steps += 1
        assert checked_steps > 100

    def test_replay_follows_paths_deeper_than_the_recursion_limit(self):
        from plausikit import Announce, Upgrade
        deep = Announce(Atom("p"), Atom("q"))
        for _ in range(3000):
            deep = Not(deep)
        under = Atom("q")
        for _ in range(3000):
            under = Not(under)
        for f in (deep, Upgrade(Atom("p"), under)):
            out, trace = reduce_dynamic(f)
            assert replay(f, trace) == out

    def test_replay_rejects_a_mismatched_trace(self):
        _, trace = reduce_dynamic(parse("[! p] q"))
        with pytest.raises(InputError):
            replay(parse("[! r] q"), trace)

    def test_dynamic_announced_formulas_reduce_inside_out(self):
        f = parse("[! [! p] q] r")
        out, trace = reduce_dynamic(f)
        assert not has_dynamic(out)
        # the inner announcement is contracted before the outer one
        assert trace.steps[0].path == (0,)
        from helpers import two_state, TOTAL2, DISCRETE2
        for plaus in (TOTAL2, DISCRETE2):
            m = two_state(plaus, plaus, atoms={"p": {"w"}, "q": {"v", "w"},
                                               "r": {"v"}})
            assert truth_set(m, f) == truth_set(m, out)


def _distinct_nodes(f):
    seen, todo = {id(f)}, [f]
    for g in todo:
        for kid in children(g):
            if id(kid) not in seen:
                seen.add(id(kid))
                todo.append(kid)
    return len(seen)


class TestSharing:
    """The pass contracts each distinct redex once; a trace keeps its
    length without being written out.  No test here reads a clock: the
    contractions are counted."""

    @pytest.fixture
    def contractions(self, monkeypatch):
        made = []
        contract = rewrite._contract

        def counted(red):
            made.append(red)
            return contract(red)
        monkeypatch.setattr(rewrite, "_contract", counted)
        return made

    def test_upgrades_over_belief(self, contractions):
        out, trace = reduce_dynamic(parse("[up p] " * 8 + "B[a | q] r"))
        assert len(trace) == 13977 and len(contractions) <= 200
        assert formula_size(out) == 9972 and _distinct_nodes(out) < 1000

    def test_announcements_up_to_the_step_budget(self, contractions):
        out, trace = reduce_dynamic(parse("[! p] " * 14 + "q"))
        assert len(trace) == 32752 and len(contractions) <= 50
        assert formula_size(out) == 2**15 - 1 and _distinct_nodes(out) < 50

    def test_past_the_step_budget_the_pass_stops_at_once(self, contractions):
        for k in (15, 300):
            contractions.clear()
            with pytest.raises(ResourceLimitError) as err:
                reduce_dynamic(parse("[! p] " * k + "q"))
            assert err.value.cap == rewrite.MAX_STEPS == 2**15
            assert len(contractions) <= 50

    def test_a_repeated_redex_at_the_root_counts_against_the_budget(self):
        # [up s] phi takes one step per node of phi and gives phi back, so
        # the outer upgrade rebuilds to the inner redex: a memo hit at the
        # root that doubles the trace.
        phi = "(" + " & ".join(["p"] * (2**13 + 1)) + ")"  # 2^14 + 1 nodes
        _, trace = reduce_dynamic(parse("[up s] " + phi))
        assert len(trace) == 2**14 + 1
        with pytest.raises(ResourceLimitError) as err:
            reduce_dynamic(parse("[up s] [up s] " + phi))
        assert err.value.cap == rewrite.MAX_STEPS == 2**15

    def test_the_budget_refuses_exactly_the_longer_traces(self, monkeypatch):
        rng = random.Random(5)
        formulas = [parse("[up q] [up q] q")]
        for frag in (Fragment.of("Ann", "Up"), Fragment.of("K", "Bc", "Ann", "Up")):
            for _ in range(150):
                f = random_formula(rng, ["p", "q"], ["a"], frag, 3)
                # An upgrade leaves a Boolean formula as it is, so the root
                # of the second is often a redex met before.
                formulas += [f, Upgrade(f, Upgrade(f, f))]
        for f in formulas:
            monkeypatch.setattr(rewrite, "MAX_STEPS", 2**15)
            n = len(reduce_dynamic(f)[1])
            monkeypatch.setattr(rewrite, "MAX_STEPS", n)
            assert len(reduce_dynamic(f)[1]) == n
            if n:
                monkeypatch.setattr(rewrite, "MAX_STEPS", n - 1)
                with pytest.raises(ResourceLimitError):
                    reduce_dynamic(f)

    def test_equal_redexes_share_one_normal_form(self, contractions):
        f = parse("[up p] [! q] B[a | r] p")
        once = len(reduce_dynamic(f)[1])
        alone = len(contractions)
        assert alone < once
        contractions.clear()
        out, trace = reduce_dynamic(And(f, Not(parse(str(f)))))
        assert out.left is out.right.sub
        assert len(trace) == 2 * once and len(contractions) == alone

    def test_the_trace_is_written_out_once_and_on_demand(self):
        f = parse("[up p] [! q] B[a | r] p")
        _, trace = reduce_dynamic(f)
        assert trace._steps is None
        n = len(trace)
        assert trace._steps is None
        steps = trace.steps
        assert len(steps) == n and trace.steps is steps
        assert steps == ref_reduce_dynamic(f)[1].steps
        assert RewriteTrace(steps) == trace and len(RewriteTrace(list(steps))) == n
        assert list(trace) == list(steps)


@settings(max_examples=150, deadline=None)
@given(model_with_formula(max_states=3, max_depth=3))
def test_reduction_preserves_truth_everywhere(mf):
    m, f = mf
    out, _ = reduce_dynamic(f)
    assert truth_set(m, f) == truth_set(m, out)


def _all_tiny_models():
    """Every single-agent model on one or two states with one atom, orders
    and valuation exhaustive; a small but complete soundness court."""
    from plausikit import Model
    out = []
    out.append(Model(["w"], ["a"], {"a": {("w", "w")}},
                     {("a", "w"): {("w", "w")}}, {"p": {"w"}}))
    out.append(Model(["w"], ["a"], {"a": {("w", "w")}},
                     {("a", "w"): {("w", "w")}}, {"p": set()}))
    states = ["v", "w"]
    diag = {("v", "v"), ("w", "w")}
    orders = [diag, diag | {("v", "w")}, diag | {("w", "v")},
              diag | {("v", "w"), ("w", "v")}]
    epists = [diag, diag | {("v", "w"), ("w", "v")}]
    for epist in epists:
        for ow in orders:
            for ov in orders:
                for val in [set(), {"v"}, {"w"}, {"v", "w"}]:
                    out.append(Model(states, ["a"], {"a": epist},
                                     {("a", "w"): ow, ("a", "v"): ov},
                                     {"p": val}))
    return out


TINY = _all_tiny_models()


def test_each_contraction_rule_is_sound_on_all_tiny_models():
    from plausikit.rewrite import _contract
    rng = random.Random(3)
    static = Fragment.of("K", "Bc", "Bplus", "Gt")
    for _ in range(60):
        shell = random_formula(rng, ["p"], ["a"], Fragment.of("Ann", "Up"), 1)
        if not has_dynamic(shell):
            continue
        inner = random_formula(rng, ["p"], ["a"], static, 1)
        redex = type(shell)(shell.ann if hasattr(shell, "ann") else shell.up, inner)
        _, out = _contract(redex)
        for m in TINY:
            for w in m.states:
                assert holds(m, w, redex) == holds(m, w, out)


class TestTranslateGt:
    def test_single_conditional_belief(self):
        got = translate_gt(parse("B[a | p] q"))
        assert got == parse("K[a]((p & ~GtDia[a]p) -> q)")

    def test_knowledge_only_is_unchanged(self):
        f = parse("K[a] p")
        assert translate_gt(f) == f

    def test_nested_conditions_are_translated_inside_out(self):
        inner = translate_gt(parse("B[a | p] q"))
        got = translate_gt(parse("B[a | B[a | p] q] r"))
        expected = translate_gt(CondBelief("a", parse("B[a | p] q"), Atom("r")))
        assert got == expected
        # the translated condition appears inside the unfolding
        assert str(inner) in str(got)

    def test_rejects_out_of_fragment_input(self):
        with pytest.raises(InputError):
            translate_gt(parse("Bplus[a] p"))
        with pytest.raises(InputError):
            translate_gt(parse("[! p] B[a | q] r"))

    def test_equivalence_on_uniform_models(self):
        rng = random.Random(5)
        frag = Fragment.of("K", "Bc")
        for trial in range(60):
            m = generate(GenSpec(1, 3, 1, 1, uniform=True, seed=trial))
            f = random_formula(rng, ["p"], ["a"], frag, 2)
            assert truth_set(m, f) == truth_set(m, translate_gt(f))

    def test_fails_without_uniformity(self):
        from plausikit.suites import _uniform_counterexample_model
        m = _uniform_counterexample_model()
        f = CondBelief("a", parse("true"), parse("~p"))
        ok, _ = is_valid_on(m, iff(f, translate_gt(f)))
        assert not ok


class TestTranslateSafe:
    def test_single_conditional_belief(self):
        got = translate_safe(parse("B[a | p] q"))
        assert got == parse("Khat[a]p -> Khat[a](p & Bplus[a](p -> q))")

    def test_safe_belief_is_unchanged(self):
        f = parse("Bplus[a] p")
        assert translate_safe(f) == f

    def test_belief_conditional_on_truth(self):
        got = translate_safe(parse("B[a | true] q"))
        assert got == parse(
            "Khat[a]true -> Khat[a](true & Bplus[a](true -> q))")

    def test_equivalence_on_uniform_locally_connected_models(self):
        rng = random.Random(9)
        frag = Fragment.of("K", "Bc", "Bplus")
        for trial in range(60):
            m = generate(GenSpec(1, 3, 1, 1, uniform=True,
                                 locally_connected=True, seed=trial))
            f = random_formula(rng, ["p"], ["a"], frag, 2)
            assert truth_set(m, f) == truth_set(m, translate_safe(f))

    def test_fails_without_local_connectedness(self):
        from plausikit.suites import _connected_counterexample_model
        m = _connected_counterexample_model()
        f = CondBelief("a", parse("true"), parse("p"))
        ok, _ = is_valid_on(m, iff(f, translate_safe(f)))
        assert not ok

    def test_rejects_strict_plausibility_input(self):
        with pytest.raises(InputError):
            translate_safe(parse("Gt[a] p"))


DEEP = 3000  # levels, past Python's default recursion limit of 1000


def _nots(f, n=DEEP):
    for _ in range(n):
        f = Not(f)
    return f


def _deep_shapes():
    """``~^n [! p] q``, ``[! p] ~^n q`` and ``~^n B[a | p] q``, built
    without the parser, which recurses."""
    p, q = Atom("p"), Atom("q")
    return _nots(Announce(p, q)), Announce(p, _nots(q)), _nots(CondBelief("a", p, q))


class TestDeepFormulas:
    """The queries and the translations keep their own stacks."""

    def test_queries_return(self):
        expected = [(True, {"Ann"}, (0, (3,))),
                    (True, {"Ann"}, (0, (DEEP + 3,))),
                    (False, {"Bc"}, (0, ()))]
        for f, (dynamic, kinds, measure) in zip(_deep_shapes(), expected):
            assert formula_size(f) == DEEP + 3
            assert formula_depth(f) == DEEP + 1
            assert has_dynamic(f) is dynamic
            assert fragment_of(f).operators == kinds
            assert rewrite_measure(f) == measure

    def test_translations_return(self):
        *dynamic, belief = _deep_shapes()
        for translate in (translate_gt, translate_safe):
            assert translate(belief) == _nots(translate(parse("B[a | p] q")))
            for f in dynamic:
                with pytest.raises(InputError):
                    translate(f)

import time

import pytest
from hypothesis import given, settings

from hypothesis import event
from hypothesis import strategies as st

from plausikit import (And, Announce, Atom, Bot, CondBelief, Fragment, GtBox,
                       Implies, InputError, Know, Not, Or, ParseError,
                       ResourceLimitError, SafeBelief, Top, Upgrade,
                       enumerate_formulas, format_formula, formula_depth,
                       fragment_of, parse, reduce_dynamic, translate_gt)
from plausikit import syntax
from plausikit.syntax import MAX_PRINTED, Printer, formula_size, has_dynamic

import helpers
from helpers import (all_fragments, formulas, ref_enumerate_formulas,
                     ref_format_formula, ref_format_recursive,
                     ref_parse, shared_graphs)


class TestParse:
    def test_knowledge_over_implication(self):
        assert parse("K[a](p -> Bplus[a] q)") == Know(
            "a", Implies(Atom("p"), SafeBelief("a", Atom("q"))))

    def test_announcement_over_conditional_belief(self):
        assert parse("[! p] B[a | q] r") == Announce(
            Atom("p"), CondBelief("a", Atom("q"), Atom("r")))

    def test_unbalanced_bracket_position(self):
        with pytest.raises(ParseError) as err:
            parse("K[a")
        assert err.value.position == 4
        assert "']'" in err.value.expected

    def test_error_on_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse("p q")
        assert err.value.position == 3

    def test_error_reports_expected_tokens(self):
        with pytest.raises(ParseError) as err:
            parse("p & ")
        assert err.value.position == 5
        assert "identifier" in err.value.expected

    def test_precedence_and_associativity(self):
        assert parse("p & q & r") == And(And(Atom("p"), Atom("q")), Atom("r"))
        assert parse("p | q & r") == Or(Atom("p"), And(Atom("q"), Atom("r")))
        assert parse("p -> q -> r") == Implies(
            Atom("p"), Implies(Atom("q"), Atom("r")))
        assert parse("~K[a] p & q") == And(Not(Know("a", Atom("p"))), Atom("q"))

    def test_keywords_and_sugar(self):
        assert parse("true") == Top()
        assert parse("false") == Bot()
        assert parse("Khat[a] p") == Not(Know("a", Not(Atom("p"))))
        assert parse("GtDia[a] p") == Not(GtBox("a", Not(Atom("p"))))

    def test_modal_names_without_bracket_are_atoms(self):
        assert parse("K & Gt") == And(Atom("K"), Atom("Gt"))

    def test_upgrade_of_atom_named_up(self):
        assert parse("[up up] q") == Upgrade(Atom("up"), Atom("q"))

    def test_whitespace_is_flexible(self):
        assert parse("K[a]p&q") == parse("K[ a ] p  &  q")


class TestFormat:
    def test_negated_atom(self):
        assert format_formula(Not(Atom("p"))) == "~p"

    def test_plain_belief_is_conditional_on_true(self):
        assert format_formula(CondBelief("a", Top(), Atom("p"))) == "B[a | true] p"

    def test_upgrade_prefix(self):
        assert format_formula(
            Upgrade(Atom("p"), Know("a", Atom("p")))) == "[up p] K[a] p"

    def test_parenthesized_operands_attach_directly(self):
        assert format_formula(
            Know("a", Implies(Atom("p"), Atom("q")))) == "K[a](p -> q)"

    def test_dual_patterns_print_as_sugar(self):
        assert format_formula(parse("Khat[a] p")) == "Khat[a] p"
        assert format_formula(parse("GtDia[a] true")) == "GtDia[a] true"
        assert format_formula(parse("~Khat[a] p")) == "~Khat[a] p"
        # a plain negated modality is not sugared
        assert format_formula(Not(Know("a", Atom("p")))) == "~K[a] p"

    def test_binary_nesting(self):
        assert format_formula(And(Atom("p"), And(Atom("q"), Atom("r")))) == "p & (q & r)"
        assert format_formula(And(And(Atom("p"), Atom("q")), Atom("r"))) == "p & q & r"
        assert format_formula(
            Implies(Implies(Atom("p"), Atom("q")), Atom("r"))) == "(p -> q) -> r"


    def test_deep_formulas_print(self):
        """The printer keeps its own stack: each shape is 3000 levels deep,
        past Python's default recursion limit of 1000."""
        p, q, n = Atom("p"), Atom("q"), 3000

        def nots(f, wrap=Not):
            for _ in range(n):
                f = wrap(f)
            return f
        assert format_formula(nots(Announce(p, q))) == "~" * n + "[! p] q"
        assert format_formula(Upgrade(p, nots(q))) == "[up p] " + "~" * n + "q"
        assert format_formula(nots(q, lambda f: Not(GtBox("a", Not(f))))) == \
            "GtDia[a] " * n + "q"
        assert format_formula(nots(q, lambda f: And(f, p))) == "q" + " & p" * n
        assert format_formula(nots(q, lambda f: Implies(p, f))) == "p -> " * n + "q"
        assert format_formula(nots(q, lambda f: Or(p, f))) == \
            "p | (" * (n - 1) + "p | q" + ")" * (n - 1)

    def test_past_the_print_budget_raises(self):
        """translate_gt of 30 nested conditions is a graph of a few hundred
        nodes; written out as a tree it would be about 25 * 2^30 characters."""
        f = translate_gt(parse("B[a | " * 30 + "p" + "] q" * 30))
        with pytest.raises(ResourceLimitError) as err:
            format_formula(f)
        assert err.value.cap == MAX_PRINTED

    def test_budget_counts_pieces(self, monkeypatch):
        """q, then " & " and p per conjunct: 21 pieces."""
        import plausikit.syntax as syntax
        chain = Atom("q")
        for _ in range(10):
            chain = And(chain, Atom("p"))
        monkeypatch.setattr(syntax, "MAX_PRINTED", 21)
        assert format_formula(chain) == "q" + " & p" * 10
        monkeypatch.setattr(syntax, "MAX_PRINTED", 20)
        with pytest.raises(ResourceLimitError):
            format_formula(chain)

    def test_non_formulas_are_refused(self):
        for bad in ("p", None, Not("p"), And(Atom("p"), 3)):
            with pytest.raises(TypeError, match="not a formula"):
                format_formula(bad)


@settings(max_examples=500, deadline=None)
@given(formulas(max_depth=5))
def test_format_matches_the_recursive_printer(f):
    assert format_formula(f) == ref_format_recursive(f)


def _printed(printer, f):
    try:
        return printer(f)
    except ResourceLimitError as err:
        return "over the budget", err.cap


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(formulas(max_depth=5), min_size=1, max_size=3),
                 shared_graphs()),
       st.integers(1, 3000))
def test_printer_matches_the_one_call_printer(fs, budget):
    """The same text, or ResourceLimitError at the same budget, on trees and
    on shared graphs, from ``format_formula`` and from one ``Printer``
    across the list, as ``rewrite --trace`` uses it."""
    printer = Printer()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(syntax, "MAX_PRINTED", budget)
        patch.setattr(helpers, "MAX_PRINTED", budget)
        for f in fs:
            want = _printed(ref_format_formula, f)
            assert _printed(format_formula, f) == want
            assert _printed(printer, f) == want


def test_printer_lays_out_each_distinct_node_once(monkeypatch):
    """A graph of 33 nodes that doubles at each of 16 levels prints 2^16
    copies of p.  One printer lays out each node once, across its calls."""
    f = Atom("p")
    for _ in range(16):
        f = And(f, Not(f))
    laid_out = []
    layout = syntax._layout
    monkeypatch.setattr(syntax, "_layout",
                        lambda g: laid_out.append(g) or layout(g))
    printer = Printer()
    text = printer(f)
    assert text.count("p") == 2**16 and len(laid_out) == 33
    assert text == ref_format_formula(f)
    assert printer(Not(f)) == "~(" + text + ")" and len(laid_out) == 34


def test_equal_shared_graphs_compare_in_linear_time():
    """Two separately built translations of 30 nested conditions are equal
    graphs of a few hundred nodes, whose trees have about 2^30 nodes.  The
    comparison remembers the pairs it has checked, so it is fast."""
    text = "B[a | " * 30 + "p" + "] q" * 30
    a, b = translate_gt(parse(text)), translate_gt(parse(text))
    assert a is not b
    start = time.perf_counter()
    assert a == b
    assert not a != b
    assert time.perf_counter() - start < 1.0
    assert translate_gt(parse(text.replace("p", "r", 1))) != a


def test_size_and_depth_of_a_shared_graph():
    f = Atom("p")
    for _ in range(300):
        f = And(f, f)
    assert formula_size(f) == 2**301 - 1
    assert formula_depth(f) == 300
    assert not has_dynamic(f) and fragment_of(f) == Fragment.of()
    assert has_dynamic(And(f, Announce(f, f)))
    assert fragment_of(Know("a", And(f, GtBox("b", f)))) == Fragment.of("K", "Gt")


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_parse_inverts_format(f):
    assert parse(format_formula(f)) == f


def _parser_inputs():
    printed = formulas(max_depth=4).map(format_formula)
    tokens = ["p", "q", "up", "true", "false", "K", "Khat", "B", "Bplus", "Gt",
              "GtDia", "a", "~", "&", "|", "->", "(", ")", "[", "]", "!", "@"]
    text = st.one_of(st.text("pqa~&|()[]!->KB @", max_size=40),
                     st.lists(st.sampled_from(tokens), max_size=30).map(" ".join))
    inserted = st.tuples(printed, st.integers(0, 200), text).map(
        lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:])
    deleted = st.tuples(printed, st.integers(0, 200), st.integers(1, 12)).map(
        lambda t: t[0][:t[1]] + t[0][t[1] + t[2]:])
    return st.one_of(printed, inserted, deleted, text)


def _parsed(parser, text):
    try:
        return parser(text)
    except ParseError as e:
        return str(e), e.position, e.expected


@settings(max_examples=2000, deadline=None)
@given(_parser_inputs())
def test_parse_matches_the_recursive_parser(text):
    """The same Formula, or a ParseError with the same message, position and
    expected tokens."""
    try:
        want = _parsed(ref_parse, text)
    except RecursionError:
        event("past the recursive parser's depth")
        return
    event("parse error" if isinstance(want, tuple) else "formula")
    assert _parsed(parse, text) == want


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_format_is_idempotent_through_parse(f):
    text = format_formula(f)
    assert format_formula(parse(text)) == text


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_fragment_stable_under_round_trip(f):
    assert fragment_of(parse(format_formula(f))) == fragment_of(f)


class TestFragment:
    def test_boolean_only(self):
        assert fragment_of(parse("p & ~q")).operators == frozenset()

    def test_knowledge_and_conditional_belief(self):
        assert fragment_of(parse("K[a] B[a | p] q")).operators == {"K", "Bc"}

    def test_dynamic_operators(self):
        frag = fragment_of(parse("[! p][up q] Bplus[a] r"))
        assert frag.operators == {"Ann", "Up", "Bplus"}
        assert not frag.is_static

    def test_parse_and_str(self):
        frag = Fragment.parse("K, Bplus")
        assert "K" in frag and "Bplus" in frag and "Gt" not in frag
        assert str(frag) == "K,Bplus"

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            Fragment.parse("K,Blus")


def expected_enumeration_count(n_atoms, n_agents, ops, depth):
    """Independent counting oracle: every formula of depth <= d decomposes
    uniquely as a constructor over formulas of depth <= d-1."""
    unary = sum(1 for k in ("K", "Bplus", "Gt") if k in ops) * n_agents
    binary = ((n_agents if "Bc" in ops else 0)
              + (1 if "Ann" in ops else 0)
              + (1 if "Up" in ops else 0))
    count = n_atoms + 1
    for _ in range(depth):
        count = (n_atoms + 1) + count + count * count + unary * count + binary * count * count
    return count


class TestEnumerate:
    def test_depth_zero_is_atoms_plus_truth(self):
        got = list(enumerate_formulas(["p"], ["a"], Fragment.of(), 0))
        assert got == [Atom("p"), Top()]

    def test_depth_one_membership(self):
        got = set(enumerate_formulas(["p"], ["a"], Fragment.of("K"), 1))
        assert Know("a", Atom("p")) in got
        assert Not(Atom("p")) in got
        assert And(Atom("p"), Atom("p")) in got

    @pytest.mark.parametrize("n_atoms,n_agents,ops,depth", [
        (1, 1, ("K",), 1),
        (1, 1, ("K",), 2),
        (1, 1, (), 2),
        (2, 2, ("K", "Bc"), 1),
        (1, 1, ("K", "Bc", "Bplus", "Gt", "Ann", "Up"), 1),
    ])
    def test_count_matches_oracle(self, n_atoms, n_agents, ops, depth):
        atoms = ["p", "q"][:n_atoms]
        agents = ["a", "b"][:n_agents]
        got = list(enumerate_formulas(atoms, agents, Fragment.of(*ops), depth))
        assert len(got) == expected_enumeration_count(n_atoms, n_agents, ops, depth)

    def test_frozen_count_for_smallest_knowledge_signature(self):
        got = list(enumerate_formulas(["p"], ["a"], Fragment.of("K"), 1))
        assert len(got) == 10

    def test_no_duplicates_and_bounds_respected(self):
        frag = Fragment.of("K", "Bc")
        got = list(enumerate_formulas(["p"], ["a"], frag, 2))
        assert len(got) == len(set(got))
        for f in got:
            assert formula_depth(f) <= 2
            assert fragment_of(f).issubset(frag)

    def test_negative_depth_rejected(self):
        with pytest.raises(InputError):
            list(enumerate_formulas(["p"], ["a"], Fragment.of(), -1))

    def test_matches_the_per_kind_enumerator_in_every_fragment(self):
        """The same formulas in the same order, in all 64 fragments: to depth
        1, and to depth 2 where the fragment has at most two kinds."""
        for frag in all_fragments():
            for depth in range(3 if len(frag.operators) <= 2 else 2):
                args = (["q", "p"], ["b", "a"], frag, depth)
                assert (list(enumerate_formulas(*args))
                        == list(ref_enumerate_formulas(*args))), (str(frag), depth)


class TestNodes:
    SAMPLES = [Atom("p"), Top(), Bot(), Not(Atom("p")),
               And(Atom("p"), Top()), Or(Bot(), Atom("q")),
               Implies(Atom("p"), Atom("q")), Know("a", Atom("p")),
               CondBelief("b", Atom("p"), Atom("q")),
               SafeBelief("a", Top()), GtBox("b", Bot()),
               Announce(Atom("p"), Atom("q")), Upgrade(Atom("q"), Atom("p"))]

    @pytest.mark.parametrize("f", SAMPLES, ids=lambda f: type(f).__name__)
    def test_hash_is_class_name_and_fields(self, f):
        from dataclasses import fields
        values = [getattr(f, field.name) for field in fields(f)]
        assert hash(f) == hash((type(f).__name__, *values))
        assert hash(type(f)(*values)) == hash(f)

    def test_keyword_construction(self):
        assert And(left=Atom("p"), right=Top()) == And(Atom("p"), Top())
        assert CondBelief(agent="a", cond=Top(), sub=Atom(name="q")) == \
            CondBelief("a", Top(), Atom("q"))
        with pytest.raises(TypeError):
            Not()

    def test_fields_cannot_be_assigned(self):
        from dataclasses import FrozenInstanceError
        f = Know("a", Atom("p"))
        with pytest.raises(FrozenInstanceError):
            f.agent = "b"
        with pytest.raises(FrozenInstanceError):
            f.sub = Top()
        with pytest.raises(FrozenInstanceError):
            del f.sub
        assert f == Know("a", Atom("p"))

    def test_equality_of_deep_formulas(self):
        def chain(leaf, n=5000):
            f = leaf
            for k in range(n):
                f = Not(f) if k % 2 else Know("a", f)
            return f
        assert chain(Atom("p")) == chain(Atom("p"))
        assert chain(Atom("p")) != chain(Atom("q"))
        assert Know("a", Atom("p")) != Know("b", Atom("p"))
        assert Atom("p") != "p" and Top() != Bot()

    def test_unpickled_in_another_process_hashes_afresh(self):
        import os
        import pickle
        import subprocess
        import sys
        text = "[! K[a] p] B[b | q] (p -> ~q)"
        code = ("import pickle, sys\n"
                "from plausikit import parse\n"
                "g = pickle.load(sys.stdin.buffer)\n"
                f"f = parse({text!r})\n"
                "print(g == f, hash(g) == hash(f), g in {f})\n")
        env = {**os.environ, "PYTHONHASHSEED": "12345",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              input=pickle.dumps(parse(text)),
                              capture_output=True, timeout=60)
        assert done.stdout.decode().split() == ["True"] * 3

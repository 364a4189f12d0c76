"""The one-pass ``reduce_dynamic`` against the stepwise oracle, and on
formulas too deep for Python's recursion."""

import random

import pytest
from hypothesis import given, settings

from plausikit import (Announce, Atom, CondBelief, Fragment, GtBox, Implies,
                       Not, Upgrade, random_formula, reduce_dynamic)

from helpers import formulas, ref_reduce_dynamic


FULL = Fragment.of("K", "Bc", "Bplus", "Gt", "Ann", "Up")


def _same_as_oracle(f):
    out, trace = reduce_dynamic(f)
    want, want_trace = ref_reduce_dynamic(f)
    assert out == want
    assert trace.steps == want_trace.steps
    return trace


@settings(max_examples=300, deadline=None)
@given(formulas(max_depth=4))
def test_one_pass_matches_the_stepwise_oracle(f):
    _same_as_oracle(f)


def test_one_pass_matches_the_oracle_on_random_formulas():
    rng = random.Random(21)
    steps = 0
    for trial in range(2000):
        f = random_formula(rng, ["p", "q", "r"], ["a", "b"], FULL,
                           3 + trial % 2)
        steps += len(_same_as_oracle(f))
    assert steps > 3000


def _upgrades_over(rng, body, k, announce=False):
    f = body
    for _ in range(k):
        if announce:
            f = Announce(Atom(rng.choice("pqr")), f)
        f = Upgrade(Atom(rng.choice("pqr")), f)
    return f


@pytest.mark.parametrize("k", range(6))
def test_one_pass_matches_the_oracle_on_upgraded_belief(k):
    rng = random.Random(k)
    body = CondBelief(rng.choice("ab"), Atom(rng.choice("pqr")),
                      Atom(rng.choice("pqr")))
    _same_as_oracle(_upgrades_over(rng, body, k))


@pytest.mark.parametrize("k", range(3))
def test_one_pass_matches_the_oracle_on_mixed_chains(k):
    rng = random.Random(100 + k)
    body = GtBox(rng.choice("ab"), Atom(rng.choice("pqr")))
    _same_as_oracle(_upgrades_over(rng, body, k, announce=True))


def _under_negations(f, n):
    for _ in range(n):
        f = Not(f)
    return f


def test_reduces_below_thousands_of_negations():
    p, q, n = Atom("p"), Atom("q"), 3000
    out, trace = reduce_dynamic(_under_negations(Announce(p, q), n))
    assert out == _under_negations(Implies(p, q), n)
    assert [s.rule for s in trace] == ["ann-atom"]
    assert trace.steps[0].path == (0,) * n


def test_reduces_an_upgrade_over_thousands_of_negations():
    p, q, n = Atom("p"), Atom("q"), 3000
    out, trace = reduce_dynamic(Upgrade(p, _under_negations(q, n)))
    assert out == _under_negations(q, n)
    assert len(trace) == n + 1
    assert [s.rule for s in trace] == ["up-not"] * n + ["up-atom"]
    assert [s.path for s in trace] == [(0,) * k for k in range(n + 1)]

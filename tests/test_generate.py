import random

import pytest
from hypothesis import given, settings

from plausikit import (Fragment, GenSpec, InputError, ResourceLimitError,
                       formula_depth, fragment_of, generate, genspec_from_dict,
                       genspec_to_dict, is_locally_connected, is_uniform,
                       model_to_json, random_formula, rename_states, strict,
                       validate)

from helpers import all_fragments, broken_models, ref_random_formula


def test_identical_spec_and_seed_give_identical_bytes():
    spec = GenSpec(2, 5, 2, 2, uniform=True, seed=982451653)
    assert model_to_json(generate(spec)) == model_to_json(generate(spec))


def test_different_seeds_vary():
    texts = {model_to_json(generate(GenSpec(3, 5, 2, 2, seed=s)))
             for s in range(20)}
    assert len(texts) > 1


def test_single_state_spec():
    m = generate(GenSpec(1, 1, 1, 1, seed=0))
    assert m.states == ("w0",)
    assert validate(m) == []


@pytest.mark.parametrize("seed", range(120))
def test_generated_models_are_always_valid(seed):
    m = generate(GenSpec(1, 5, 2, 2, seed=seed))
    assert validate(m) == []


@pytest.mark.parametrize("seed", range(120))
def test_uniform_constraint_holds(seed):
    m = generate(GenSpec(2, 5, 2, 2, uniform=True, seed=seed))
    assert validate(m) == []
    assert is_uniform(m)


@pytest.mark.parametrize("seed", range(120))
def test_locally_connected_constraint_holds(seed):
    m = generate(GenSpec(2, 5, 2, 2, locally_connected=True, seed=seed))
    assert validate(m) == []
    assert is_locally_connected(m)


@pytest.mark.parametrize("seed", range(60))
def test_combined_constraints_hold(seed):
    m = generate(GenSpec(2, 5, 2, 2, uniform=True, locally_connected=True,
                         seed=seed))
    assert is_uniform(m) and is_locally_connected(m)


def test_discrete_orders_have_no_strict_pairs():
    for seed in range(30):
        m = generate(GenSpec(2, 4, 2, 1, discrete_preorders=True, seed=seed))
        so = strict(m)
        assert all(not lt for lt in so.lt.values())


def test_discrete_plus_connected_forces_singleton_classes():
    m = generate(GenSpec(3, 3, 2, 1, discrete_preorders=True,
                         locally_connected=True, seed=4))
    assert is_locally_connected(m)
    assert sorted(m.epist) == ["a", "b"]
    assert all(rel == frozenset((s, s) for s in m.states)
               for rel in m.epist.values())


def test_bad_ranges_rejected():
    with pytest.raises(InputError):
        GenSpec(0, 3)
    with pytest.raises(InputError):
        GenSpec(3, 2)
    with pytest.raises(InputError):
        GenSpec(1, 2, agents=0)


def test_genspec_document_round_trip():
    spec = GenSpec(2, 4, 2, 1, uniform=True, seed=99)
    doc = genspec_to_dict(spec)
    assert genspec_from_dict(doc) == spec
    every = GenSpec(2, 5, 3, 2, uniform=True, locally_connected=True,
                    total_preorders=True, discrete_preorders=True, seed=7)
    doc = genspec_to_dict(every)
    assert list(doc) == ["states", "agents", "atoms", "uniform", "locallyConnected",
                         "totalPreorders", "discretePreorders", "seed"]
    assert genspec_from_dict(doc) == every
    # The integers are checked before the flags.
    with pytest.raises(InputError, match="^seed must be an integer"):
        genspec_from_dict({"uniform": 1, "seed": "7"})
    assert genspec_from_dict({"states": 3}) == GenSpec(3, 3)
    with pytest.raises(InputError):
        genspec_from_dict({"state": 3})


def test_rename_states_is_an_isomorphism():
    m = generate(GenSpec(2, 4, 2, 2, seed=5))
    r = rename_states(m)
    assert len(r.states) == len(m.states)
    assert validate(r) == []
    assert sorted(len(xs) for xs in r.valuation.values()) == \
        sorted(len(xs) for xs in m.valuation.values())


@settings(max_examples=60, deadline=None)
@given(broken_models())
def test_rename_states_keeps_names_that_are_not_states(m):
    assert len(validate(rename_states(m))) == len(validate(m))


def test_random_formula_respects_fragment_and_depth():
    rng = random.Random(0)
    frag = Fragment.of("K", "Gt")
    for _ in range(300):
        f = random_formula(rng, ["p"], ["a"], frag, 3)
        assert formula_depth(f) <= 3
        assert fragment_of(f).issubset(frag)


def test_random_formula_is_deterministic_in_the_rng():
    a = [random_formula(random.Random(42), ["p", "q"], ["a", "b"],
                        Fragment.of("K", "Bc"), 3) for _ in range(5)]
    b = [random_formula(random.Random(42), ["p", "q"], ["a", "b"],
                        Fragment.of("K", "Bc"), 3) for _ in range(5)]
    assert a == b


def test_random_formula_matches_the_per_kind_sampler_in_every_fragment():
    """The same depth-4 formula from the same seed in all 64 fragments, and
    the RNG left in the same state: the draws and their order are kept."""
    for frag in all_fragments():
        for seed in range(500):
            got, want = random.Random(seed), random.Random(seed)
            assert (random_formula(got, ["q", "p"], ["b", "a"], frag, 4)
                    == ref_random_formula(want, ["q", "p"], ["b", "a"], frag, 4)
                    ), (str(frag), seed)
            assert got.random() == want.random(), (str(frag), seed)


def test_state_limit_is_checked_before_generating():
    from plausikit.generate import MAX_STATES
    assert GenSpec(MAX_STATES, MAX_STATES).max_states == MAX_STATES
    with pytest.raises(ResourceLimitError) as err:
        GenSpec(1, MAX_STATES + 1)
    assert err.value.cap == MAX_STATES
    with pytest.raises(InputError):
        GenSpec(3, 2)

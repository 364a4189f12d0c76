import pytest

from plausikit import InputError, run_suite, suite_names
from plausikit.suites import DEFAULT_SEED, suite_description


def test_registry_contains_every_documented_suite():
    expected = {
        "thm9-K", "thm9-Bplus", "thm9-Bc", "thm11-KBc", "thm11-KBplus",
        "thm13", "thm17", "thm18", "thm22", "thm24-1", "thm24-2", "thm24-3",
        "thm24-4", "thm26", "thm27", "thm28-1", "thm28-2", "thm29",
        "reduction", "fact5", "fact30", "pairfamily",
    }
    assert set(suite_names()) == expected
    for name in expected:
        assert suite_description(name)


def test_unknown_suite_rejected():
    with pytest.raises(InputError, match="unknown suite"):
        run_suite("thm999")


def test_reports_carry_reproduction_seed_and_timing():
    report = run_suite("thm9-K", trials=20, seed=5)
    assert report.ok
    assert report.seed == 5
    assert report.trials == 20
    assert report.elapsed >= 0.0
    assert report.lines()[0].startswith("suite thm9-K: trials=20 failures=0")


def test_same_seed_reproduces_the_same_report_lines():
    a = run_suite("reduction", trials=15, seed=77)
    b = run_suite("reduction", trials=15, seed=77)
    assert a.lines()[0].split("elapsed")[0] == b.lines()[0].split("elapsed")[0]
    assert a.failures == b.failures == []


def test_environment_variable_overrides_the_default_seed(monkeypatch):
    monkeypatch.setenv("PLAUSIKIT_SEED", "12345")
    report = run_suite("thm9-K", trials=5)
    assert report.seed == 12345
    monkeypatch.delenv("PLAUSIKIT_SEED")
    assert run_suite("thm9-K", trials=5).seed == DEFAULT_SEED


def test_structural_relations_sit_inside_conditional_belief_equivalence():
    # the two containment suites that are not part of the acceptance wall
    assert run_suite("thm24-4", trials=60, seed=3).ok
    assert run_suite("thm28-2", trials=60, seed=3).ok


def test_exhaustive_translation_suites_report_model_counts():
    gt = run_suite("thm22")
    assert gt.ok and gt.trials == 358
    safe = run_suite("thm27")
    assert safe.ok and safe.trials == 202


def test_failure_lines_carry_full_reproduction_data():
    from plausikit import Model, parse
    from plausikit.suites import _agreement_failures
    left = Model(["w"], ["a"], {"a": {("w", "w")}},
                 {("a", "w"): {("w", "w")}}, {"p": {"w"}})
    right = Model(["x"], ["a"], {"a": {("x", "x")}},
                  {("a", "x"): {("x", "x")}}, {"p": set()})
    failures = _agreement_failures(left, right, {("w", "x")}, [parse("p")],
                                   trial=4, trial_seed=99)
    assert len(failures) == 1
    line = failures[0]
    assert "trial=4" in line
    assert "seed=99" in line
    assert "formula=p" in line
    assert line.count("model=") == 2
    assert '"states"' in line


def test_suite_report_lines_include_failures():
    from plausikit.suites import SuiteReport
    report = SuiteReport("demo", 3, failures=["trial=0 seed=1 boom"],
                         elapsed=0.5, seed=1)
    assert not report.ok
    lines = report.lines()
    assert lines[0].startswith("suite demo: trials=3 failures=1")
    assert lines[1] == "  FAIL trial=0 seed=1 boom"


def test_trial_driver_draws_the_seed_sequence_and_times_the_loop():
    import random
    from plausikit.suites import SuiteReport, _trials
    report = SuiteReport("demo", 4, seed=42, elapsed=-1.0)
    rng = random.Random(42)
    driver = _trials(report)
    for trial in range(4):
        got_trial, trial_seed, trng = next(driver)
        assert (got_trial, trial_seed) == (trial, rng.getrandbits(48))
        assert trng.random() == random.Random(trial_seed).random()
        assert report.elapsed == -1.0
    assert next(driver, None) is None
    assert report.elapsed >= 0.0


def _thm29_style_pairs(count=30):
    """A uniform, locally connected model and its renamed copy, after one
    announcement or upgrade, as the thm29 suite builds them."""
    import random
    from plausikit import Fragment, GenSpec, generate, rename_states
    from plausikit.dynamics import announce, upgrade
    from plausikit.generate import random_formula
    from plausikit.semantics import truth_set
    static = Fragment.of("K", "Bc", "Bplus")
    for seed in range(count):
        rng = random.Random(seed)
        left = generate(GenSpec(2, 4, 2, 2, uniform=True,
                                locally_connected=True,
                                seed=rng.getrandbits(48)))
        right = rename_states(left)
        phi = random_formula(rng, ["p", "q"], ["a", "b"], static, 2)
        if seed % 2 and truth_set(left, phi):
            yield announce(left, phi), announce(right, phi)
        else:
            yield upgrade(left, phi), upgrade(right, phi)


def test_family_witnesses_cover_every_depth2_formula():
    # thm29 checks one witness per family member in place of the 6303
    # enumerated depth-2 formulas; the family must hold all their pairs.
    from plausikit import Fragment, definable_pairs
    from plausikit.semantics import Evaluator
    from plausikit.syntax import enumerate_formulas
    static = Fragment.of("K", "Bc", "Bplus")
    formulas = list(enumerate_formulas(["p", "q"], ["a", "b"], static, 2))
    for left, right in _thm29_style_pairs():
        family = definable_pairs(left, right, static)
        evl, evr = Evaluator(), Evaluator()
        for k, pair in enumerate(family.pairs):
            f = family.formula(k)
            assert (evl.truth_set(left, f), evr.truth_set(right, f)) == pair
        members = set(family.pairs)
        for f in formulas:
            assert (evl.truth_set(left, f), evr.truth_set(right, f)) in members


def test_thm29_flags_an_upgrade_that_breaks_bisimilarity(monkeypatch):
    from plausikit import suites
    from plausikit.syntax import Not
    real = suites.upgrade

    def upgrade_copy_with_negation(m, f):
        return real(m, Not(f) if m.states[0].startswith("x") else f)

    monkeypatch.setattr(suites, "upgrade", upgrade_copy_with_negation)
    report = run_suite("thm29", trials=10, seed=11)
    assert report.failures
    assert all("disagreement at" in line for line in report.failures)


def test_pairfamily_flags_a_partition_that_merges_blocks(monkeypatch):
    """The family is read off the refined blocks; an engine that puts every
    state in one block must fail the suite's saturation check."""
    from plausikit import bisim

    def one_block(left, right, ops):
        n = len(left.states) + len(right.states)
        yield [()] * n, [0] * n

    assert run_suite("pairfamily", trials=5, seed=11).ok
    monkeypatch.setattr(bisim, "_rounds", one_block)
    report = run_suite("pairfamily", trials=5, seed=11)
    assert not report.ok
    assert all("differs from saturation oracle" in line for line in report.failures)


@pytest.mark.parametrize("name, rule, label", [
    ("fact5", "ann-know", "announce-know"),
    ("fact30", "up-gt", "upgrade-gt"),
])
def test_schema_suites_check_the_rewriters_own_rules(monkeypatch, name, rule, label):
    """fact5 and fact30 check the contractions reduce_dynamic applies, so a
    wrong rule there fails them."""
    from plausikit import suites
    from plausikit.syntax import Not
    real = suites._contract

    def negated(red):
        got, out = real(red)
        return got, Not(out) if got == rule else out

    assert run_suite(name, trials=3, seed=11).ok
    monkeypatch.setattr(suites, "_contract", negated)
    report = run_suite(name, trials=3, seed=11)
    assert len(report.failures) == 3
    assert all(f"{label} fails at state" in line for line in report.failures)

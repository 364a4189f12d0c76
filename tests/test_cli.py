import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from plausikit import (Model, load_corpus, load_model, model_to_dict,
                       model_to_json, relation_to_dict, total_pairs)
from plausikit.cli import main


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    paths = {}
    for entry in load_corpus():
        lp = root / f"{entry.name}L.json"
        rp = root / f"{entry.name}R.json"
        lp.write_text(model_to_json(entry.left))
        rp.write_text(model_to_json(entry.right))
        zp = root / f"{entry.name}Z.json"
        zp.write_text(json.dumps(relation_to_dict(
            entry.relation, str(lp), str(rp))))
        paths[entry.name] = (str(lp), str(rp), str(zp))
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_DEPTH = 3000
# A formula nested _DEPTH levels deep, one level of it over the atom x that
# stands for the level below, and the formula at the bottom.  In the body of
# [! p] and [up p] too, x may stand for the level below: [! p]^k q and
# [up p]^k q hold at a state by its own atoms, which both operators keep.
_DEEP_SHAPES = {
    "~": ("~" * _DEPTH + "p", "~x", "p"),
    "K[a]": ("K[a] " * _DEPTH + "p", "K[a] x", "p"),
    "Khat[b]": ("Khat[b] " * _DEPTH + "p", "Khat[b] x", "p"),
    "GtDia[a]": ("GtDia[a] " * _DEPTH + "p", "GtDia[a] x", "p"),
    "( ... )": ("(" * _DEPTH + "p" + ")" * _DEPTH, "(x)", "p"),
    "p -> ...": ("p -> " * _DEPTH + "q", "p -> x", "q"),
    "... & p": ("q" + " & p" * _DEPTH, "x & p", "q"),
    "B[a | ...] q": ("B[a | " * _DEPTH + "p" + "] q" * _DEPTH, "B[a | x] q", "p"),
    "B[b | q] ...": ("B[b | q] " * _DEPTH + "p", "B[b | q] x", "p"),
    "[! ...] q": ("[! " * _DEPTH + "p" + "] q" * _DEPTH, "[! x] q", "p"),
    "[! p] ...": ("[! p] " * _DEPTH + "q", "[! p] x", "q"),
    "[up ...] q": ("[up " * _DEPTH + "p" + "] q" * _DEPTH, "[up x] q", "p"),
    "[up p] ...": ("[up p] " * _DEPTH + "q", "[up p] x", "q"),
}


def _reference_truth(m, level, base):
    """The truth set of a _DEEP_SHAPES formula by the recursive reference
    evaluator, one level at a time: x holds the truth set of the level
    below.  Levels are a function of the set below, so a repeated set is
    looked up."""
    from helpers import ref_holds
    from plausikit import parse
    level = parse(level)
    truth = frozenset(w for w in m.states if ref_holds(m, w, parse(base)))
    above = {}
    for _ in range(_DEPTH):
        if truth not in above:
            mx = Model(m.states, m.agents, m.epist, m.plaus,
                       {**m.valuation, "x": truth})
            above[truth] = frozenset(w for w in m.states
                                     if ref_holds(mx, w, level))
        truth = above[truth]
    return truth


@pytest.fixture(scope="module")
def deep_model(tmp_path_factory):
    """Five states, two agents, atoms p and q, orders that differ from
    state to state."""
    from plausikit import GenSpec, generate
    m = generate(GenSpec(min_states=5, max_states=5, agents=2, atoms=2, seed=3))
    path = tmp_path_factory.mktemp("deep") / "m.json"
    path.write_text(model_to_json(m))
    return str(path), m


class TestCheck:
    def test_true_verdict(self, corpus_files, capsys):
        left, _, _ = corpus_files["thm15"]
        code, out, _ = run(capsys, "check", left, "w", "Bplus[a] p")
        assert code == 0
        assert out == "true\n"

    def test_false_verdict(self, corpus_files, capsys):
        _, right, _ = corpus_files["thm15"]
        code, out, _ = run(capsys, "check", right, "wr", "Bplus[a] p")
        assert code == 1
        assert out == "false\n"

    def test_parse_error_exits_2(self, corpus_files, capsys):
        left, _, _ = corpus_files["thm15"]
        code, _, err = run(capsys, "check", left, "w", "K[a")
        assert code == 2
        assert "position 4" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "no-such.json", "w", "p")
        assert code == 2

    def test_deep_negation_gets_its_verdict(self, corpus_files, capsys):
        left, _, _ = corpus_files["thm15"]
        m = load_model(left)
        for w in m.states:
            want = w in m.atom_extension("p")
            code, out, err = run(capsys, "check", left, w, "~" * 600 + "p")
            assert (code, out, err) == ((0, "true\n", "") if want
                                        else (1, "false\n", ""))

    @pytest.mark.parametrize("shape", sorted(_DEEP_SHAPES))
    def test_3000_level_formulas_get_the_reference_verdict(self, deep_model,
                                                           capsys, shape):
        path, m = deep_model
        text, level, base = _DEEP_SHAPES[shape]
        truth = _reference_truth(m, level, base)
        for w in m.states:
            assert run(capsys, "check", path, w, text) == (
                (0, "true\n", "") if w in truth else (1, "false\n", ""))

    def test_3000_level_formula_in_a_fresh_interpreter(self, deep_model):
        """The CLI as installed, on the interpreter's own stack."""
        import os
        import subprocess
        import sys
        import plausikit
        path, m = deep_model
        text, level, base = _DEEP_SHAPES["B[a | ...] q"]
        truth = _reference_truth(m, level, base)
        src = os.path.dirname(os.path.dirname(plausikit.__file__))
        w = m.states[0]
        done = subprocess.run(
            [sys.executable, "-m", "plausikit", "check", path, w, text],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert (done.returncode, done.stdout, done.stderr) == (
            (0, "true\n", "") if w in truth else (1, "false\n", ""))


class TestValidity:
    def test_valid(self, corpus_files, capsys):
        left, _, _ = corpus_files["thm15"]
        code, out, _ = run(capsys, "validity", left, "p -> p")
        assert code == 0 and out == "valid\n"

    def test_invalid_with_witness(self, corpus_files, capsys):
        left, _, _ = corpus_files["thm15"]
        code, out, _ = run(capsys, "validity", left, "p")
        assert code == 1 and out == "invalid at v\n"


class TestTransform:
    def test_announce_to_file(self, corpus_files, capsys, tmp_path):
        left, _, _ = corpus_files["thm15"]
        out_path = tmp_path / "after.json"
        code, out, _ = run(capsys, "transform", left, "announce", "p",
                           "-o", str(out_path))
        assert code == 0
        m = load_model(out_path)
        assert m.states == ("w",)

    def test_upgrade_to_stdout(self, corpus_files, capsys):
        left, _, _ = corpus_files["thm21"]
        code, out, _ = run(capsys, "transform", left, "upgrade", "p")
        assert code == 0
        doc = json.loads(out)
        assert doc["states"] == ["v", "w"]

    def test_empty_announcement_exits_2(self, corpus_files, capsys):
        left, _, _ = corpus_files["thm15"]
        code, _, err = run(capsys, "transform", left, "announce", "false")
        assert code == 2
        assert "no states" in err


class TestRewrite:
    def test_golden_reduction(self, capsys):
        code, out, _ = run(capsys, "rewrite", "[! p] K[a] q")
        assert code == 0
        assert out == "p -> K[a](p -> q)\n"

    def test_trace_lists_steps(self, capsys):
        code, out, _ = run(capsys, "rewrite", "--trace", "[! p] K[a] q")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p -> K[a](p -> q)"
        assert lines[1].startswith("step 1: ann-know")
        assert lines[2].startswith("step 2: ann-atom")

    def test_output_deeper_than_the_recursion_limit_prints(self, capsys):
        code, out, err = run(capsys, "rewrite", "[! p] " + "~" * 350 + "q")
        assert (code, out, err) == (0, "p -> ~(" * 350 + "p -> q" + ")" * 350 + "\n", "")

    def test_largest_reduction_within_the_step_budget_prints(self, capsys):
        from plausikit import has_dynamic, parse
        from plausikit.syntax import formula_size
        code, out, err = run(capsys, "rewrite", "[! p] " * 14 + "q")
        assert (code, err) == (0, "")
        reduced = parse(out)
        assert formula_size(reduced) == 2**15 - 1 and not has_dynamic(reduced)

    def test_past_the_step_budget_exits_3(self, capsys):
        code, out, err = run(capsys, "rewrite", "[! p] " * 300 + "q")
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err


class TestTranslate:
    def test_output_past_the_print_budget_exits_3(self, capsys):
        code, out, err = run(capsys, "translate", "gt",
                             "B[a | " * 30 + "p" + "] q" * 30)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_gt(self, capsys):
        code, out, _ = run(capsys, "translate", "gt", "B[a | p] q")
        assert code == 0
        assert out == "K[a](p & ~GtDia[a] p -> q)\n"

    def test_safe(self, capsys):
        code, out, _ = run(capsys, "translate", "safe", "B[a | p] q")
        assert code == 0
        assert out == "Khat[a] p -> Khat[a](p & Bplus[a](p -> q))\n"

    def test_out_of_fragment_exits_2(self, capsys):
        code, _, err = run(capsys, "translate", "gt", "Bplus[a] p")
        assert code == 2


class TestBisim:
    def test_check_relation_true(self, corpus_files, capsys):
        left, right, z = corpus_files["thm15"]
        code, out, _ = run(capsys, "bisim", left, right,
                           "--fragment", "K,Bc", "--relation", z)
        assert code == 0 and out == "true\n"

    def test_check_relation_false_with_witness(self, corpus_files, capsys):
        left, right, z = corpus_files["thm15"]
        code, out, _ = run(capsys, "bisim", left, right,
                           "--fragment", "K,Bplus", "--relation", z)
        assert code == 1
        assert out.splitlines()[0] == "false"
        assert "zag" in out or "zig" in out

    def test_greatest_excludes_the_distinguished_pair(self, corpus_files, capsys):
        left, right, _ = corpus_files["thm15"]
        code, out, _ = run(capsys, "bisim", left, right,
                           "--fragment", "K,Bplus", "--greatest")
        assert code == 0
        assert "w wr" not in out.splitlines()

    def test_greatest_on_knowledge_keeps_the_pairing(self, corpus_files, capsys):
        left, right, _ = corpus_files["thm15"]
        code, out, _ = run(capsys, "bisim", left, right,
                           "--fragment", "K", "--greatest")
        assert code == 0
        assert "w wr" in out.splitlines()
        assert "v vr" in out.splitlines()

    def test_greatest_with_bc_prints_the_equivalence_pairs(self, corpus_files,
                                                           capsys):
        left, right, _ = corpus_files["thm15"]
        code, out, _ = run(capsys, "bisim", left, right,
                           "--fragment", "K,Bc", "--greatest")
        assert code == 0
        assert "v vr" in out.splitlines()
        assert "w wr" in out.splitlines()
        code, _, err = run(capsys, "bisim", left, right,
                           "--fragment", "K,Gt,Bc", "--greatest")
        assert code == 2
        assert "Bc, K+Bc and K+Bplus+Bc" in err

    def test_dynamic_fragment_dropped_with_notice(self, corpus_files, capsys):
        left, right, z = corpus_files["thm15"]
        code, out, err = run(capsys, "bisim", left, right,
                             "--fragment", "K,Bc,Ann", "--relation", z)
        assert code == 0 and out == "true\n"
        assert "notice" in err and "Ann" in err

    def test_missing_mode_exits_2(self, corpus_files, capsys):
        left, right, _ = corpus_files["thm15"]
        code, _, err = run(capsys, "bisim", left, right)
        assert code == 2

    @pytest.mark.parametrize("flags,message", [
        ((), "provide either --relation FILE or --greatest"),
        (("--greatest", "--relation", "z.json"),
         "--greatest and --relation are mutually exclusive"),
    ])
    def test_mode_is_checked_before_the_models_are_read(self, tmp_path, capsys,
                                                        flags, message):
        left, right = str(tmp_path / "no-left.json"), str(tmp_path / "no-right.json")
        code, _, err = run(capsys, "bisim", left, right, *flags)
        assert code == 2
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"error: {message}"]


class TestEquiv:
    def test_equivalent_points(self, corpus_files, capsys):
        left, right, _ = corpus_files["thm21"]
        code, out, _ = run(capsys, "equiv", left, "w", right, "wr",
                           "--fragment", "K,Bplus,Bc")
        assert code == 0 and out == "true\n"

    def test_distinguished_points(self, corpus_files, capsys):
        left, right, _ = corpus_files["thm21"]
        code, out, _ = run(capsys, "equiv", left, "w", right, "wr",
                           "--fragment", "K,Gt")
        assert code == 1 and out == "false\n"


class TestProps:
    def test_uniform_not_connected_report(self, corpus_files, capsys):
        left, _, _ = corpus_files["thm14"]
        code, out, _ = run(capsys, "props", left)
        assert code == 0
        lines = out.splitlines()
        assert "valid: true" in lines
        assert "uniform: true" in lines
        assert any(line.startswith("locally-connected: false") for line in lines)
        assert "image-finite: true" in lines

    def test_invalid_model_reports_violations(self, capsys, tmp_path):
        doc = {"states": ["w"], "agents": ["a"], "epist": {"a": []},
               "plaus": {"a": {"w": [["w", "w"]]}}, "valuation": {}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "props", str(path))
        assert code == 1
        assert "valid: false" in out
        assert "not reflexive" in out


class TestGen:
    def test_generates_deterministic_model_files(self, capsys, tmp_path):
        spec = {"states": [2, 4], "agents": 2, "atoms": 1,
                "uniform": True, "seed": 7}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out1 = tmp_path / "m1.json"
        out2 = tmp_path / "m2.json"
        assert run(capsys, "gen", str(spec_path), "-o", str(out1))[0] == 0
        assert run(capsys, "gen", str(spec_path), "-o", str(out2))[0] == 0
        assert out1.read_text() == out2.read_text()
        assert load_model(out1) is not None

    def test_bad_spec_exits_2(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"states": [3, 1]}))
        assert run(capsys, "gen", str(spec_path))[0] == 2

    @pytest.mark.parametrize("states", [100000, [1, 100000]])
    def test_spec_past_the_state_limit_exits_3(self, capsys, tmp_path, states):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"states": states}))
        assert run(capsys, "gen", str(spec_path), "-o", str(tmp_path / "m.json"))[0] == 3


class TestSuite:
    def test_named_suite_runs_green(self, capsys):
        code, out, _ = run(capsys, "suite", "fact30")
        assert code == 0
        assert out.startswith("suite fact30: trials=200 failures=0")

    def test_unknown_suite_exits_2(self, capsys):
        assert run(capsys, "suite", "thm999")[0] == 2


class TestCorpus:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "corpus", "--list")
        assert code == 0
        names = [line.split(":")[0] for line in out.splitlines()]
        assert names == ["thm14", "thm15", "thm21"]

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "corpus", "--verify")
        assert code == 0
        assert all("ok" in line for line in out.splitlines())


class TestUnusableInput:
    """Unreadable files and mistyped fields exit 2 with one error line,
    never 1, the code of a false verdict."""

    @staticmethod
    def exits_2(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_check_on_a_directory(self, capsys, tmp_path):
        self.exits_2(capsys, "check", str(tmp_path), "w0", "p")

    def test_gen_on_a_directory(self, capsys, tmp_path):
        self.exits_2(capsys, "gen", str(tmp_path))

    def test_relation_file_is_a_directory(self, corpus_files, capsys, tmp_path):
        left, right, _ = corpus_files["thm15"]
        self.exits_2(capsys, "bisim", left, right, "--relation", str(tmp_path))

    def test_model_file_not_in_utf8(self, corpus_files, capsys, tmp_path):
        left, _, _ = corpus_files["thm15"]
        path = tmp_path / "utf16.json"
        path.write_bytes(open(left, encoding="utf-8").read().encode("utf-16"))
        assert path.read_bytes()[:2] == b"\xff\xfe"
        self.exits_2(capsys, "check", str(path), "w", "p")

    @pytest.mark.parametrize("pairs", [3, None])
    def test_relation_pairs_not_a_list(self, corpus_files, capsys, tmp_path,
                                       pairs):
        left, right, _ = corpus_files["thm15"]
        path = tmp_path / "rel.json"
        path.write_text(json.dumps({"pairs": pairs}))
        self.exits_2(capsys, "bisim", left, right, "--relation", str(path))

    @pytest.mark.parametrize("field", [
        {"agents": "x"}, {"agents": 2.5}, {"atoms": None}, {"seed": [1]},
        {"agents": True},
    ])
    def test_spec_count_not_an_integer(self, capsys, tmp_path, field):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"states": 2, **field}))
        self.exits_2(capsys, "gen", str(path))

    def test_seed_variable_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("PLAUSIKIT_SEED", "seven")
        self.exits_2(capsys, "suite", "thm13")


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_resource_cap_exits_3(corpus_files, capsys, monkeypatch):
    from plausikit import ResourceLimitError
    import plausikit.cli as cli_mod

    def explode(*args, **kwargs):
        raise ResourceLimitError("definable pair family exceeded cap", cap=1)

    monkeypatch.setattr(cli_mod, "check_bc", explode)
    left, right, z = corpus_files["thm15"]
    code, _, err = run(capsys, "bisim", left, right,
                       "--fragment", "K,Bc", "--relation", z)
    assert code == 3
    assert "cap" in err


def test_unexpected_error_exits_4_with_one_line(corpus_files, capsys, monkeypatch):
    """An exception no handler expects is a fault of the toolkit: one
    error line and exit 4, not a traceback and the false-verdict code."""
    import plausikit.cli as cli_mod

    def broken(*args, **kwargs):
        raise KeyError("lost")

    monkeypatch.setattr(cli_mod, "check_bc", broken)
    left, right, z = corpus_files["thm15"]
    code, out, err = run(capsys, "bisim", left, right,
                         "--fragment", "K,Bc", "--relation", z)
    assert code == 4
    assert out == ""
    assert err == "error: internal error: KeyError('lost')\n"


@pytest.mark.parametrize("text", [
    "[up p] [up q] [up r] B[a | q] r",
    "[up q] [up p] [up q] [up r] [up p] B[b | p] r",
    "[up p] [! q] [up r] [! p] Gt[a] r",
    "[! [up p] K[a] q] (Bplus[b] r | ~[! r] p)",
    "K[a](p -> B[a | q] r)",
])
def test_rewrite_trace_matches_the_stepwise_oracle(capsys, text):
    from helpers import ref_reduce_dynamic
    from plausikit import format_formula, parse
    out, trace = ref_reduce_dynamic(parse(text))
    want = [format_formula(out)] + [f"step {k + 1}: {step}"
                                    for k, step in enumerate(trace)]
    code, got, err = run(capsys, "rewrite", text, "--trace")
    assert (code, got, err) == (0, "".join(f"{line}\n" for line in want), "")


def _formula_texts():
    from plausikit import format_formula
    from helpers import formulas
    printed = formulas(max_depth=3).map(format_formula)
    # Long chains of operators that do not copy their operand when a
    # dynamic operator is pushed through them, so the output stays linear.
    deep = st.builds(
        lambda ops, leaf: "".join(ops) + leaf,
        st.lists(st.sampled_from(["~", "K[a] ", "[up p] ", "~[up q] "]),
                 max_size=2500),
        st.sampled_from(["p", "[! q] r", "Khat[b] q", "(p | [up q] q)"]))
    parens = st.integers(0, 2500).map(lambda n: "(" * n + "p" + ")" * n)
    garbled = st.tuples(printed, st.integers(0, 200), st.sampled_from(
        ["", "(", ")", "[", "]", "!", "|", "->", "K[", "B[a |", "@"])).map(
            lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:])
    return st.one_of(printed, deep, parens, garbled,
                     st.text("pq~&|()[]!->KBa ", max_size=40))


@settings(max_examples=150, deadline=None)
@given(text=_formula_texts(), verb=st.sampled_from(
    [("rewrite",), ("rewrite", "--trace"), ("translate", "gt"),
     ("translate", "safe")]))
def test_rewrite_and_translate_never_raise(text, verb):
    import contextlib
    import io
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*verb, "--", text])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")


def _ranked_model(states, codes, atoms):
    """One agent, one class, one total order shared by every state (the
    first state most plausible); state k carries the atoms of codes[k]."""
    ranked = [(x, y) for i, x in enumerate(states) for y in states[i:]]
    return Model(states, ["a"], {"a": total_pairs(states)},
                 {("a", w): ranked for w in states},
                 {p: {s for s, c in zip(states, codes) if c >> k & 1}
                  for k, p in enumerate(atoms)})


def _write(path, m):
    path.write_text(model_to_json(m))
    return str(path)


def test_equiv_past_the_family_cap_gives_a_verdict_quickly(capsys, tmp_path):
    """Seven states with their own valuations, against a renamed copy with
    one atom flipped: 13 blocks, so the family would have 2^13 > 4096
    members and the verdict used to exit 3."""
    import time
    from plausikit.bisim import _partition
    names = [f"s{k}" for k in range(7)]
    left = _ranked_model(names, range(7), "pqr")
    right = _ranked_model([f"t{k}" for k in range(7)], [1, *range(1, 7)], "pqr")
    assert len(set(_partition(left, right, frozenset({"K", "Bc"})))) == 13
    lp, rp = _write(tmp_path / "l.json", left), _write(tmp_path / "r.json", right)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "equiv", lp, "s1", rp, "t1", "--fragment", "K,Bc")
        times.append(time.perf_counter() - t0)
        # t1 shares s1's atoms, but the left class has a state with no atom
        assert (code, out, err) == (1, "false\n", "")
    # a verdict takes milliseconds; building the family took 0.45 s and exit 3
    assert min(times) < 1.0
    code, out, _ = run(capsys, "equiv", rp, "t0", rp, "t1", "--fragment", "K,Bc")
    assert (code, out) == (0, "true\n")


def test_bc_relation_check_past_the_family_cap_gives_a_verdict(capsys, tmp_path):
    """Thirteen states with their own valuations against a renamed copy:
    13 blocks, a family of 2^13 > 4096 pairs.  The check decides its
    clauses without the family, so it answers instead of exiting 3."""
    left = _ranked_model([f"s{k:02}" for k in range(13)], range(13), "pqrs")
    right = _ranked_model([f"t{k:02}" for k in range(13)], range(13), "pqrs")
    lp, rp = _write(tmp_path / "l.json", left), _write(tmp_path / "r.json", right)
    rel = tmp_path / "rel.json"

    def check(pairs):
        rel.write_text(json.dumps({"pairs": pairs}))
        return run(capsys, "bisim", lp, rp, "--fragment", "K,Bc", "--relation", str(rel))

    identity = [[f"s{k:02}", f"t{k:02}"] for k in range(13)]
    assert check(identity) == (0, "true\n", "")
    swapped = [["s00", "t01"], ["s01", "t00"]] + identity[2:]
    code, out, err = check(swapped)
    assert (code, out.splitlines()[0], err) == (1, "false", "")


def _relation_docs():
    """Relation documents, mostly malformed: not objects, no pairs list,
    pairs of the wrong shape or type, and unknown state names."""
    names = st.sampled_from(["s0", "s1", "t0", "t1", "x", ""])
    pair = st.one_of(st.lists(names, min_size=2, max_size=2),
                     st.lists(names, max_size=3),
                     st.tuples(names, st.integers()).map(list),
                     st.integers(), st.none(), names)
    return st.one_of(
        st.fixed_dictionaries({"pairs": st.lists(pair, max_size=5)}),
        st.fixed_dictionaries({"pairs": st.one_of(st.none(), st.integers(), names,
                                                  st.dictionaries(names, names))}),
        st.lists(st.lists(names, min_size=2, max_size=2), max_size=3),
        st.one_of(st.none(), st.integers(), names, st.just({})))


@pytest.fixture(scope="module")
def two_state_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    left = _ranked_model(["s0", "s1"], [1, 1], "p")
    right = _ranked_model(["t0", "t1"], [1, 0], "p")
    return _write(root / "l.json", left), _write(root / "r.json", right), root / "rel.json"


@settings(max_examples=150, deadline=None)
@given(doc=_relation_docs(), fragment=st.sampled_from(["K", "K,Bc", "Bc", "K,Gt,Bc"]))
def test_bisim_relation_never_raises(two_state_files, doc, fragment):
    import contextlib
    import io
    lp, rp, rel = two_state_files
    rel.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["bisim", lp, rp, "--fragment", fragment, "--relation", str(rel)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert out.getvalue().splitlines()[0] == ("true" if code == 0 else "false")


def _main_outcome(argv):
    """main's exit code, stdout and stderr for argv, run in process."""
    import contextlib
    import io
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_documented(code, err):
    """A verdict, or an input error or a cap with one error line; never a
    traceback or an internal error."""
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    if code in (2, 3):
        assert sum("error:" in line for line in err.splitlines()) == 1, err


_JUNK = [None, 7, -1, 2.5, True, "x", "", [], {}, [["w0"]], [[1, 2]], {"a": 3}]


@st.composite
def _model_texts(draw):
    """Model files, mostly broken: generated documents with pairs dropped,
    added, repeated or naming unknown states, a part replaced by a value
    of the wrong type, or the JSON text garbled."""
    from helpers import broken_docs, models, repeated_docs
    valid = models().map(model_to_dict)
    doc = draw(st.one_of(valid, valid, broken_docs(), repeated_docs()))
    # Hypothesis favours the simplest choice, 0, so the rarer branches
    # are taken on 3.
    if draw(st.integers(0, 3)) == 3:
        key = draw(st.sampled_from(sorted(doc)))
        junk = st.sampled_from(_JUNK)
        if isinstance(doc[key], dict) and doc[key] and draw(st.booleans()):
            doc[key][draw(st.sampled_from(sorted(doc[key])))] = draw(junk)
        else:
            doc[key] = draw(junk)
    text = json.dumps(doc)
    if draw(st.integers(0, 3)) == 3:
        k = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:k] + draw(st.sampled_from(["", "{", "]", '"', ",", "null", "\\"])) \
            + text[k + cut:]
    return text


def _verb_argvs(left, right):
    """argv for every verb that reads model files, on left and right."""
    from helpers import formulas
    from plausikit import format_formula
    printed = formulas(atoms=("p", "q"), max_depth=2).map(format_formula)
    text = st.one_of(printed, printed, printed, st.sampled_from(
        ["", "p &", "K[c] p", "[! false] p", "B[a | p q"]))
    state = st.sampled_from(["w0", "w0", "w1", "w3", "zz"])
    fragment = st.sampled_from(["K", "K,Bc", "Bc", "K,Bplus,Gt", "K,Gt,Bc", "Ann,K", "X"])
    return st.one_of(
        st.builds(lambda s, f: ["check", left, s, f], state, text),
        st.builds(lambda f: ["validity", left, f], text),
        st.builds(lambda k, f: ["transform", left, k, f],
                  st.sampled_from(["announce", "upgrade"]), text),
        st.just(["props", left]),
        st.builds(lambda s, t, g: ["equiv", left, s, right, t, "--fragment", g],
                  state, state, fragment),
        st.builds(lambda g: ["bisim", left, right, "--fragment", g, "--greatest"], fragment))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("verbs")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), left=_model_texts(), right=st.one_of(st.none(), _model_texts()))
def test_every_model_verb_on_broken_files_gives_a_documented_outcome(fuzz_dir, data,
                                                                     left, right):
    lp, rp = fuzz_dir / "l.json", fuzz_dir / "r.json"
    lp.write_text(left)
    rp.write_text(left if right is None else right)
    argv = data.draw(_verb_argvs(str(lp), str(rp)))
    code, _, err = _main_outcome(argv)
    _assert_documented(code, err)


def _gen_specs():
    """Generator spec files, mostly malformed: values of the wrong type,
    bounds out of range, unknown keys, and garbled or non-object JSON."""
    from plausikit.generate import _GENSPEC_KEYS
    states = st.sampled_from([0, 1, 3, 101, 10 ** 9, -2, True, 2.5, "3", None,
                              [1, 3], [3, 1], [0, 2], [2, 101], [1], [1, 2, 3]])
    value = st.one_of(st.sampled_from(_JUNK), st.integers(-3, 30))
    spec = st.dictionaries(st.sampled_from(sorted(_GENSPEC_KEYS) + ["extra"]), value,
                           max_size=4).flatmap(
        lambda d: st.builds(lambda s: {**d, "states": s}, states)
        if "states" in d else st.just(d))
    return st.one_of(spec.map(json.dumps),
                     st.sampled_from(["", "{", "[1, 2]", "null", '"spec"', "{}"]))


@settings(max_examples=150, deadline=None)
@given(text=_gen_specs())
def test_gen_on_malformed_specs_gives_a_documented_outcome(fuzz_dir, text):
    path = fuzz_dir / "spec.json"
    path.write_text(text)
    code, out, err = _main_outcome(["gen", str(path)])
    _assert_documented(code, err)
    if code == 0:
        assert json.loads(out)["states"]


@settings(max_examples=50, deadline=None)
@given(name=st.text(max_size=12))
def test_unknown_suite_names_exit_2(name):
    from plausikit import suite_names
    if name in suite_names():
        return
    code, out, err = _main_outcome(["suite", "--", name])
    assert (code, out) == (2, "")
    _assert_documented(code, err)


def test_main_called_repeatedly_matches_fresh_processes(corpus_files, capsys,
                                                         monkeypatch):
    """main keeps one parser per process; calls after the first, including
    a bad argument and --help, print what a fresh process prints."""
    import os
    import subprocess
    import sys
    import plausikit
    import plausikit.cli as cli_mod
    left, right, _ = corpus_files["thm15"]
    bc_left, bc_right, bc_rel = corpus_files["thm14"]
    calls = [
        ["check", left, "w", "Bplus[a] p"],
        ["check", right, "wr", "Bplus[a] p"],
        ["equiv", left, "w", right, "wr", "--fragment", "K,Bc"],
        ["bisim", bc_left, bc_right, "--fragment", "K,Bc", "--relation", bc_rel],
        ["rewrite", "[! p] K[a] q", "--trace"],
        ["check", left, "w"],
        ["translate", "nope", "p"],
        ["--help"],
        ["bisim", "--help"],
        ["check", left, "w", "Bplus[a] p"],
    ]
    src = os.path.dirname(os.path.dirname(plausikit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    main(["rewrite", "p"])
    capsys.readouterr()

    def rebuilt():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli_mod, "build_parser", rebuilt)
    codes = set()
    for argv in calls:
        here = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "plausikit", *argv],
                               capture_output=True, text=True, env=env)
        assert here == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.add(here[0])
    assert codes == {0, 1, 2}


class TestDuplicateNames:
    """A name listed twice is an input error (exit 2), not a smaller model
    or a spec with a boolean bound."""

    @staticmethod
    def one_state_doc():
        return {"states": ["w"], "agents": ["a"], "epist": {"a": [["w", "w"]]},
                "plaus": {"a": {"w": [["w", "w"]]}}, "valuation": {}}

    @pytest.mark.parametrize("verb", ["props", "check"])
    @pytest.mark.parametrize("key,names", [
        ("states", ["w", "v", "w"]), ("agents", ["a", "a"])])
    def test_model_file_with_a_repeated_name(self, capsys, tmp_path, verb, key,
                                             names):
        doc = self.one_state_doc()
        doc[key] = names
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        argv = [verb, str(path)] + (["w", "p"] if verb == "check" else [])
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {key}: duplicate name {names[-1]!r}\n"

    def test_model_file_without_repeats_still_loads(self, capsys, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(self.one_state_doc()))
        assert run(capsys, "props", str(path))[0] == 0

    @pytest.mark.parametrize("states", [[True, 2], [1, False], True, [1.0, 2]])
    def test_spec_state_bounds_must_be_integers(self, capsys, tmp_path, states):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"states": states}))
        code, out, err = run(capsys, "gen", str(path))
        assert (code, out) == (2, "")
        assert err == "error: states must be an integer or a [min, max] pair\n"

    @pytest.mark.parametrize("key", ["uniform", "locallyConnected",
                                     "totalPreorders", "discretePreorders"])
    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None, [True]])
    def test_spec_flags_must_be_booleans(self, capsys, tmp_path, key, value):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, "gen", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {key} must be true or false, got {value!r}\n"


def test_bc_relation_check_on_different_agent_sets_names_the_agents(capsys, tmp_path):
    """The Bc path checks the agent sets before refining the partition, so
    it reports them as the K path does instead of an unknown agent."""
    def one_state(agent):
        return Model(["w"], [agent], {agent: [("w", "w")]},
                     {(agent, "w"): [("w", "w")]}, {"p": {"w"}})
    lp = _write(tmp_path / "l.json", one_state("a"))
    rp = _write(tmp_path / "r.json", one_state("b"))
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"pairs": [["w", "w"]]}))
    for fragment in ("K", "K,Bc"):
        code, out, err = run(capsys, "bisim", lp, rp, "--fragment", fragment,
                             "--relation", str(rel))
        assert (code, out) == (2, "")
        assert err == "error: models have different agent sets: ['a'] vs ['b']\n"

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plausikit import (InputError, Model, eq_class, identity_pairs,
                       is_image_finite, is_locally_connected, is_uniform,
                       connectedness_counterexample, load_model,
                       min_set, model_from_dict, model_from_json, model_to_dict,
                       model_to_json, parse, save_model, strict, total_pairs,
                       truth_set, uniformity_counterexample, validate)

from plausikit.model import Index, bits, box

from helpers import (DISCRETE2, TOTAL2, broken_docs, broken_models, models,
                     pairs_read, ref_connectedness_counterexample, ref_least,
                     ref_model_to_json, ref_uniformity_counterexample,
                     ref_validate, ref_view_order, repeated_docs, two_state)

DATA = pathlib.Path(__file__).parent / "data"


def one_state(epist=None, plaus=None):
    return Model(
        ["w"], ["a"],
        {"a": epist if epist is not None else {("w", "w")}},
        {("a", "w"): plaus if plaus is not None else {("w", "w")}},
        {},
    )


class TestValidate:
    def test_minimal_reflexive_model_is_valid(self):
        assert validate(one_state()) == []

    def test_empty_epistemic_relation_is_one_reflexivity_violation(self):
        assert validate(one_state(epist=set())) == ["epist[a] not reflexive at 'w'"]

    def test_unknown_state_in_plausibility_pairs_is_named(self):
        m = Model(
            ["v", "w"], ["a"],
            {"a": total_pairs(["v", "w"])},
            {("a", "w"): {("w", "w"), ("v", "v"), ("w", "v"), ("v", "u")},
             ("a", "v"): identity_pairs(["v", "w"])},
            {},
        )
        problems = validate(m)
        assert any("unknown state 'u'" in p for p in problems)

    def test_missing_plausibility_entry_reported(self):
        m = Model(["v", "w"], ["a"], {"a": total_pairs(["v", "w"])},
                  {("a", "w"): identity_pairs(["v", "w"])}, {})
        assert "no plausibility order for ('a', 'v')" in validate(m)

    def test_symmetry_and_transitivity_checked(self):
        states = ["u", "v", "w"]
        m = Model(states, ["a"],
                  {"a": identity_pairs(states) | {("u", "v")}},
                  {("a", s): identity_pairs(states) for s in states}, {})
        problems = validate(m)
        assert any("not symmetric" in p for p in problems)

    def test_bad_identifier(self):
        m = Model(["w w"], ["a"], {"a": {("w w", "w w")}},
                  {("a", "w w"): {("w w", "w w")}}, {})
        assert any("bad state identifier" in p for p in validate(m))


class TestValidateAgainstPairScan:
    """validate reads index masks; ref_validate scans pairs.  They must give
    the same problems in the same order."""

    @settings(max_examples=150, deadline=None)
    @given(models())
    def test_generated_models(self, m):
        assert validate(m) == ref_validate(m)

    @settings(max_examples=300, deadline=None)
    @given(broken_models())
    def test_broken_models(self, m):
        assert validate(m) == ref_validate(m)

    def test_each_broken_law(self):
        states = ["u", "v", "w"]
        ident = identity_pairs(states)
        chain = ident | {("u", "v"), ("v", "w")}
        for epist, plaus in [
                (ident - {("v", "v")}, ident - {("w", "w")}),   # reflexivity
                (ident | {("u", "w")}, ident),                    # symmetry
                (chain | {("v", "u"), ("w", "v")}, chain),        # transitivity
                (ident | {("u", "x"), ("x", "x")}, ident | {("y", "w")}),
        ]:
            m = Model(states, ["a"], {"a": epist},
                      {("a", s): plaus for s in states}, {"p": {"u", "x"}})
            assert validate(m) == ref_validate(m)
            assert validate(m)


class TestImmutability:
    def test_mappings_and_attributes_are_read_only(self):
        m = two_state(TOTAL2, DISCRETE2 | {("v", "w")}, atoms={"p": {"v"}})
        f = parse("K[a] B[a | true] p & Gt[a] p")
        before = truth_set(m, f)
        with pytest.raises(TypeError):
            m.epist["a"] = identity_pairs(m.states)
        with pytest.raises(TypeError):
            m.plaus[("a", "w")] = TOTAL2
        with pytest.raises(TypeError):
            m.valuation["p"] = frozenset(m.states)
        with pytest.raises(AttributeError):
            m.epist = {}
        assert truth_set(m, f) == before

    def test_index_dies_with_its_model(self):
        import gc
        import weakref
        m = two_state(TOTAL2, TOTAL2, atoms={"p": {"w"}})
        truth_set(m, parse("[up p] B[a | true] p"))
        ref = weakref.ref(m.index)
        del m
        gc.collect()
        assert ref() is None


class TestEqClass:
    def test_total_relation(self):
        m = two_state(TOTAL2, TOTAL2)
        assert eq_class(m, "a", "w") == {"v", "w"}

    def test_identity_relation(self):
        m = Model(["v", "w"], ["a"], {"a": identity_pairs(["v", "w"])},
                  {("a", s): identity_pairs(["v", "w"]) for s in ["v", "w"]}, {})
        assert eq_class(m, "a", "w") == {"w"}

    def test_three_states_two_classes(self):
        states = ["u", "v", "w"]
        cls = identity_pairs(states) | {("w", "v"), ("v", "w")}
        m = Model(states, ["a"], {"a": cls},
                  {("a", s): identity_pairs(states) for s in states}, {})
        assert eq_class(m, "a", "u") == {"u"}
        assert eq_class(m, "a", "w") == {"v", "w"}

    def test_unknown_agent_or_state(self):
        m = one_state()
        with pytest.raises(InputError):
            eq_class(m, "b", "w")
        with pytest.raises(InputError):
            eq_class(m, "a", "z")


class TestMinSet:
    def test_singleton(self):
        m = one_state()
        assert min_set(m, "a", "w", {"w"}) == {"w"}

    def test_incomparable_states_are_all_minimal(self):
        m = two_state(DISCRETE2, DISCRETE2)
        assert min_set(m, "a", "w", {"v", "w"}) == {"v", "w"}

    def test_strictly_better_state_wins(self):
        # v strictly more plausible than w at the order held at w
        m = two_state(DISCRETE2 | {("v", "w")}, DISCRETE2)
        assert min_set(m, "a", "w", {"v", "w"}) == {"v"}

    def test_unknown_member_rejected(self):
        m = one_state()
        with pytest.raises(InputError):
            min_set(m, "a", "w", {"z"})


class TestStrict:
    def test_discrete_order_has_no_strict_pairs(self):
        m = two_state(DISCRETE2, DISCRETE2)
        so = strict(m)
        assert so.lt[("a", "w")] == frozenset()
        assert so.eqv[("a", "w")] == frozenset(DISCRETE2)

    def test_total_order_is_all_ties(self):
        m = two_state(TOTAL2, TOTAL2)
        so = strict(m)
        assert so.lt[("a", "w")] == frozenset()
        assert so.eqv[("a", "w")] == frozenset(TOTAL2)

    def test_one_sided_pair_is_strict(self):
        m = two_state(DISCRETE2 | {("v", "w")}, DISCRETE2)
        so = strict(m)
        assert so.lt[("a", "w")] == {("v", "w")}
        assert so.eqv[("a", "w")] == frozenset(DISCRETE2)


class TestUniformity:
    def test_constant_family_is_uniform(self):
        m = two_state(TOTAL2, TOTAL2)
        assert is_uniform(m)

    def test_divergent_orders_in_one_class_break_uniformity(self):
        m = two_state(DISCRETE2 | {("v", "w")}, DISCRETE2)
        assert not is_uniform(m)
        assert uniformity_counterexample(m) == ("a", "v", "w", ("v", "w"))

    def test_identity_classes_make_uniformity_vacuous(self):
        states = ["v", "w"]
        m = Model(states, ["a"], {"a": identity_pairs(states)},
                  {("a", "w"): frozenset(TOTAL2), ("a", "v"): frozenset(DISCRETE2)},
                  {})
        assert is_uniform(m)


class TestLocalConnectedness:
    def test_total_orders_are_connected(self):
        assert is_locally_connected(two_state(TOTAL2, TOTAL2))

    def test_incomparable_class_members_are_not(self):
        m = two_state(DISCRETE2, DISCRETE2)
        assert not is_locally_connected(m)
        assert connectedness_counterexample(m) == ("a", "v", "w")

    def test_identity_classes_are_vacuously_connected(self):
        states = ["v", "w"]
        m = Model(states, ["a"], {"a": identity_pairs(states)},
                  {("a", s): identity_pairs(states) for s in states}, {})
        assert is_locally_connected(m)


def test_image_finiteness_holds_for_every_model():
    assert is_image_finite(one_state())
    assert is_image_finite(two_state(TOTAL2, TOTAL2))


# ---------------------------------------------------------------------------
# Properties

@settings(max_examples=150, deadline=None)
@given(models())
def test_generated_models_are_valid(m):
    assert validate(m) == []


@settings(max_examples=150, deadline=None)
@given(models())
def test_min_set_nonempty_on_nonempty_input(m):
    import itertools
    states = list(m.states)
    for a in m.agents:
        for w in states:
            for r in range(1, len(states) + 1):
                for xs in itertools.combinations(states, r):
                    assert min_set(m, a, w, xs)


@settings(max_examples=150, deadline=None)
@given(models())
def test_min_set_matches_strict_order_characterization(m):
    import itertools
    so = strict(m)
    states = list(m.states)
    for a in m.agents:
        for w in states:
            lt = so.lt[(a, w)]
            for r in range(len(states) + 1):
                for xs in itertools.combinations(states, r):
                    xs = frozenset(xs)
                    by_strict = frozenset(
                        x for x in xs if not any((y, x) in lt for y in xs))
                    assert min_set(m, a, w, xs) == by_strict


@settings(max_examples=150, deadline=None)
@given(models())
def test_strict_parts_partition_each_preorder(m):
    so = strict(m)
    for key, rel in m.plaus.items():
        assert so.lt[key] | so.eqv[key] == rel
        assert not (so.lt[key] & so.eqv[key])


@settings(max_examples=150, deadline=None)
@given(models())
def test_uniformity_and_connectedness_match_double_loop_oracle(m):
    uniform = all(
        m.plaus[(a, w)] == m.plaus[(a, v)]
        for a in m.agents for w in m.states for v in m.states
        if (w, v) in m.epist[a])
    connected = all(
        (w, v) in m.plaus[(a, w)] or (v, w) in m.plaus[(a, w)]
        for a in m.agents for w in m.states for v in m.states
        if (w, v) in m.epist[a])
    assert is_uniform(m) == uniform
    assert is_locally_connected(m) == connected


# ---------------------------------------------------------------------------
# Serialization

GOLDEN = """\
{
  "agents": [
    "a"
  ],
  "epist": {
    "a": [
      [
        "v",
        "v"
      ],
      [
        "v",
        "w"
      ],
      [
        "w",
        "v"
      ],
      [
        "w",
        "w"
      ]
    ]
  },
  "plaus": {
    "a": {
      "v": [
        [
          "v",
          "v"
        ],
        [
          "w",
          "w"
        ]
      ],
      "w": [
        [
          "v",
          "v"
        ],
        [
          "w",
          "w"
        ]
      ]
    }
  },
  "states": [
    "v",
    "w"
  ],
  "valuation": {
    "p": [
      "w"
    ]
  }
}
"""


def test_serialization_is_byte_stable():
    m = two_state(DISCRETE2, DISCRETE2, atoms={"p": {"w"}})
    assert model_to_json(m) == GOLDEN


@settings(max_examples=100, deadline=None)
@given(models())
def test_json_round_trip(m):
    assert model_from_json(model_to_json(m)) == m


def test_file_round_trip(tmp_path):
    m = two_state(TOTAL2, TOTAL2, atoms={"p": {"w"}})
    path = tmp_path / "m.json"
    save_model(m, path)
    assert load_model(path) == m


def test_load_rejects_invalid_model(tmp_path):
    bad = model_to_dict(one_state())
    bad["epist"]["a"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(InputError, match="not reflexive"):
        load_model(path)


def test_malformed_documents_rejected():
    with pytest.raises(InputError, match="missing keys"):
        model_from_json("{}")
    with pytest.raises(InputError, match="not valid JSON"):
        model_from_json("{")
    with pytest.raises(InputError, match="malformed pair"):
        model_from_json(json.dumps({
            "states": ["w"], "agents": ["a"],
            "epist": {"a": [["w"]]}, "plaus": {"a": {"w": []}},
            "valuation": {}}))


@pytest.mark.parametrize("pairs, bad", [
    ([["w", "w", "w"]], ["w", "w", "w"]),
    ([["w", 1]], ["w", 1]),
    ([[None, "w"]], [None, "w"]),
    ([["w", "w"], "ww", ["w", "w"]], "ww"),
    ([["w", "w"], ["w"], ["w", "w"]], ["w"]),
    ([["w", "w"], {"w": "w"}], {"w": "w"}),
])
def test_malformed_pair_reported_with_its_place(pairs, bad):
    doc = {"states": ["w"], "agents": ["a"],
           "epist": {"a": pairs}, "plaus": {"a": {"w": [["w", "w"]]}},
           "valuation": {}}
    with pytest.raises(InputError) as err:
        model_from_json(json.dumps(doc))
    assert str(err.value) == f"epist[a]: malformed pair {bad!r}"
    doc["epist"]["a"], doc["plaus"]["a"]["w"] = [["w", "w"]], pairs
    with pytest.raises(InputError) as err:
        model_from_json(json.dumps(doc))
    assert str(err.value) == f"plaus[a][w]: malformed pair {bad!r}"


@pytest.mark.parametrize("seed", range(8))
def test_targets_equal_the_targets_read_off_the_pairs(seed):
    """The Bplus and Gt targets of the index are the class-mates at least
    as plausible, or strictly more plausible, read straight off the pairs
    of ``epist`` and ``plaus``.  So are those of an announcement or upgrade
    view at its live states, off the pairs of the model it shows."""
    from plausikit import GenSpec, generate
    m = generate(GenSpec(2, 12, 2, 2, seed=seed))
    ix = m.index
    p, q = ix.atom("p"), ix.atom("q")
    views = [ix.upgraded(p), ix.announced(q or ix.live),
             ix.announced(ix.live & ~p or ix.live).upgraded(q),
             ix.upgraded(q).announced(p or ix.live).upgraded(q & ~p)]
    for view, shown in [(ix, m)] + [(v, v.to_model()) for v in views]:
        for a in m.agents:
            for kind in ("Bplus", "Gt"):
                expected = []
                for w in shown.states:
                    order = shown.plaus[(a, w)]
                    expected.append(sum(
                        1 << ix.pos[v] for v in shown.states
                        if (w, v) in shown.epist[a] and (v, w) in order
                        and (kind == "Bplus" or (w, v) not in order)))
                got = view.targets(kind, a)
                assert [got[w] for w in bits(view.live)] == expected, (kind, a)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_views_agree_with_the_orders_derived_view_by_view(data):
    """Along chains of one to three announcements and upgrades, each view's
    targets at its live states, and its conditional-belief boxes, are those
    read off the orders that ``ref_view_order`` derives from the parent's."""
    m = data.draw(models(max_states=5))
    ix = root = m.index
    masks = st.integers(0, (1 << len(m.states)) - 1)
    for upgrade in data.draw(st.lists(st.booleans(), min_size=1, max_size=3)):
        zone = data.draw(masks) & ix.live
        ix = ix.upgraded(zone) if upgrade else ix.announced(zone or ix.live)
        live = ix.live
        for a in m.agents:
            rows = [row & live for row in root.rows(a)]
            orders = {w: ref_view_order(ix, a, w) for w in bits(live)}
            for kind in ("K", "Bplus", "Gt"):
                got = ix.targets(kind, a)
                for w, o in orders.items():
                    want = rows[w] & (o.below[w] if kind != "K" else -1)
                    assert got[w] == want & (~o.above[w] if kind == "Gt" else -1)
            for _ in range(3):
                cond, sub = data.draw(masks) & live, data.draw(masks) & live
                assert box(ix.best(a, cond), sub) == sum(
                    1 << w for w, o in orders.items()
                    if not ref_least(o, cond & rows[w]) & ~sub)


@settings(max_examples=200, deadline=None)
@given(models(max_states=5))
def test_least_agrees_with_the_scan_of_every_member(m):
    ix = m.index
    for o in set(ix._orders.values()):
        for xs in range(1 << len(m.states)):
            assert Index.least(o, xs) == ref_least(o, xs)


# ---------------------------------------------------------------------------
# The index as storage: property checks on rows, and the JSON path

class TestPropertyChecksAgainstPairScan:
    """The counterexample searches read index rows; the ref_* scans read
    pairs.  They must give the same witnesses."""

    @settings(max_examples=200, deadline=None)
    @given(models())
    def test_generated_models(self, m):
        assert uniformity_counterexample(m) == ref_uniformity_counterexample(m)
        assert connectedness_counterexample(m) == ref_connectedness_counterexample(m)

    @settings(max_examples=300, deadline=None)
    @given(broken_models())
    def test_broken_models(self, m):
        assert uniformity_counterexample(m) == ref_uniformity_counterexample(m)
        assert connectedness_counterexample(m) == ref_connectedness_counterexample(m)

    def test_orders_differing_only_in_an_unknown_state(self):
        every = total_pairs(["v", "w"])
        m = Model(["v", "w"], ["a"], {"a": every},
                  {("a", "v"): every, ("a", "w"): every | {("w", "zz")}}, {})
        assert uniformity_counterexample(m) == ("a", "v", "w", ("w", "zz"))
        assert uniformity_counterexample(m) == ref_uniformity_counterexample(m)


class TestJsonPath:
    @settings(max_examples=300, deadline=None)
    @given(broken_docs())
    def test_documents_with_stray_pairs_agents_and_keys(self, doc):
        m, ref = model_from_dict(doc), pairs_read(doc)
        assert validate(m) == ref_validate(ref)
        assert dict(m.epist) == ref.epist
        assert dict(m.plaus) == ref.plaus
        assert uniformity_counterexample(m) == ref_uniformity_counterexample(ref)
        assert connectedness_counterexample(m) == ref_connectedness_counterexample(ref)
        assert Model(ref.states, ref.agents, ref.epist, ref.plaus, ref.valuation) == m

    @pytest.mark.parametrize("epist, plaus, message", [
        ([["w", "w"], ["s1", 3]], [["w", "w"]], "epist[a]: malformed pair ['s1', 3]"),
        ([["w", "zz"], ["w", "w", "w"]], [["w", "w"]],
         "epist[a]: malformed pair ['w', 'w', 'w']"),
        ([["w", "w"], ["s1", 3], "ww"], [["w", "w"]], "epist[a]: malformed pair ['s1', 3]"),
        ([["zz", "w"], [["w"], "w"]], [["w", "w"]], "epist[a]: malformed pair [['w'], 'w']"),
        ([["w", "w"]], [["zz", "w"], "ww"], "plaus[a][w]: malformed pair 'ww'"),
        ([["w", "w"]], [["w", "w"], 7], "plaus[a][w]: malformed pair 7"),
        ([["w", 3]], "x", "epist[a]: malformed pair ['w', 3]"),
        (7, [["w", "w"]], "epist[a]: expected a list of pairs"),
        ([["w", "w"]], {"w": "w"}, "plaus[a][w]: expected a list of pairs"),
    ])
    def test_malformed_pairs_give_the_first_problem_in_document_order(
            self, epist, plaus, message):
        doc = {"states": ["w"], "agents": ["a"], "epist": {"a": epist},
               "plaus": {"a": {"w": plaus}}, "valuation": {"p": 3}}
        with pytest.raises(InputError) as err:
            model_from_dict(doc)
        assert str(err.value) == message

    def test_pairs_are_checked_before_plaus_objects_and_valuations(self):
        doc = {"states": ["w"], "agents": ["a"], "epist": {"a": [["w", 1]]},
               "plaus": {"a": [], "b": {}}, "valuation": {"p": 3}}
        for fix, message in [(None, "epist[a]: malformed pair ['w', 1]"),
                             (("epist", {"a": [["w", "w"]]}),
                              "plaus[a]: expected an object"),
                             (("plaus", {"a": {"w": [["w", "w"]]}}),
                              "valuation[p]: expected a list of states")]:
            if fix:
                doc[fix[0]] = fix[1]
            with pytest.raises(InputError) as err:
                model_from_dict(doc)
            assert str(err.value) == message

    @settings(max_examples=60, deadline=None)
    @given(models(), st.integers(0, 2 ** 32))
    def test_writing_a_loaded_file_gives_its_bytes(self, tmp_path_factory, m, seed):
        from plausikit import GenSpec, generate
        path = tmp_path_factory.mktemp("json") / "m.json"
        for model in (m, generate(GenSpec(1, 9, 2, 2, seed=seed)),
                      generate(GenSpec(1, 9, 2, 1, uniform=True, seed=seed))):
            text = model_to_json(model)
            path.write_text(text)
            assert model_to_json(load_model(path)) == text

    def test_read_back_mappings_are_read_only(self):
        doc = {"states": ["w"], "agents": ["a"],
               "epist": {"a": [["w", "w"], ["w", "zz"]], "c": []},
               "plaus": {"a": {"w": [["w", "w"]], "zz": []}}, "valuation": {}}
        for m in (model_from_dict(doc), two_state(TOTAL2, TOTAL2)):
            with pytest.raises(TypeError):
                m.epist["a"] = frozenset()
            with pytest.raises(TypeError):
                m.plaus[("a", "w")] = frozenset()
        assert m.epist["a"] == frozenset(TOTAL2)


# ---------------------------------------------------------------------------
# The file layer works once per distinct order

def uniform_models():
    """Generated models whose class-mates share their orders."""
    from plausikit import GenSpec, generate
    return st.builds(lambda n, seed: generate(GenSpec(1, n, 2, 2, uniform=True, seed=seed)),
                     st.integers(1, 8), st.integers(0, 2 ** 32))


@st.composite
def escaped_models(draw):
    """A model, perhaps broken, whose names need JSON escapes: quotes,
    backslashes, control and non-ASCII characters."""
    m = draw(st.one_of(models(), broken_models()))
    marks = draw(st.lists(st.sampled_from(['"', "\\", "\x01", "\x7f", "é", "\U0001f600"]),
                          min_size=1, max_size=3))
    ren = lambda s: s[0] + marks[ord(s[-1]) % len(marks)] + s[1:]
    pairs = lambda rel: {(ren(x), ren(y)) for x, y in rel}
    return Model(map(ren, m.states), map(ren, m.agents),
                 {ren(a): pairs(rel) for a, rel in m.epist.items()},
                 {(ren(a), ren(w)): pairs(rel) for (a, w), rel in m.plaus.items()},
                 {ren(p): set(map(ren, xs)) for p, xs in m.valuation.items()})


class TestFileLayer:
    """Reading, validating and writing take one pass per distinct order;
    the oracles take one per key."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(models(), broken_models(), broken_docs().map(model_from_dict),
                     uniform_models(), escaped_models()))
    def test_writer_gives_the_bytes_of_the_whole_document_dump(self, m):
        assert model_to_json(m) == ref_model_to_json(m)

    def test_gen_writes_its_golden_file(self, tmp_path, capsys):
        """The golden file was written by ``plausikit gen`` when the writer
        dumped the whole document with ``json.dumps``."""
        from plausikit.cli import main
        spec, want = DATA / "gen_uniform.spec.json", (DATA / "gen_uniform.json").read_text()
        out = tmp_path / "m.json"
        assert main(["gen", str(spec), "-o", str(out)]) == 0
        assert out.read_text() == want
        capsys.readouterr()
        assert main(["gen", str(spec)]) == 0
        assert capsys.readouterr().out == want

    @settings(max_examples=200, deadline=None)
    @given(repeated_docs())
    def test_repeated_lists_read_as_the_pairs_they_hold(self, doc):
        m, ref = model_from_dict(doc), pairs_read(doc)
        assert m == Model(ref.states, ref.agents, ref.epist, ref.plaus, ref.valuation)
        assert dict(m.plaus) == ref.plaus
        assert validate(m) == ref_validate(ref)
        assert model_to_json(m) == ref_model_to_json(m)

    def test_each_distinct_list_is_read_once(self, monkeypatch):
        import plausikit.model as model
        read, masks = [], model._masks
        monkeypatch.setattr(model, "_masks", lambda raw, *rest: read.append(raw) or masks(raw, *rest))
        doc = json.loads((DATA / "gen_uniform.json").read_text())
        m = model_from_dict(doc)
        lists = [*doc["epist"].values(),
                 *(ps for per in doc["plaus"].values() for ps in per.values())]
        assert len(read) == len({json.dumps(ps) for ps in lists}) < len(lists)
        assert m == model_from_dict(json.loads(json.dumps(doc)))

    @staticmethod
    def one_class(orders: dict):
        states = ["u", "v", "w"]
        return Model(states, ["a"], {"a": total_pairs(states)},
                     {("a", w): orders.get(w, orders.get(None)) for w in states}, {})

    def test_a_shared_broken_order_is_reported_at_every_key(self):
        states = ["u", "v", "w"]
        broken = identity_pairs(states) - {("w", "w")} | {("u", "v"), ("v", "w")}
        m = self.one_class({None: broken})
        assert len({id(o) for o in m.index._orders.values()}) == 1
        problems = validate(m)
        assert problems == ref_validate(m)
        assert [p.split(" ", 1)[0] for p in problems] == [
            f"plaus[a,{w}]" for w in states for _ in range(2)]
        assert validate(model_from_json(model_to_json(m))) == problems

    @pytest.mark.parametrize("broken", [False, True])
    def test_one_class_mate_with_side_pairs(self, broken):
        shared = total_pairs(["u", "v", "w"]) - ({("w", "w")} if broken else set())
        m = self.one_class({None: shared, "v": shared | {("v", "zz"), ("zz", "u")}})
        problems = validate(m)
        assert problems == ref_validate(m)
        side = ["plaus[a,v] mentions unknown state 'zz'"] * 2
        assert [p for p in problems if "zz" in p] == side
        # a broken order fails three laws at each of u, v and w, in turn
        assert len(problems) == 2 + 9 * broken
        assert problems.index(side[0]) == 3 * broken
        assert validate(model_from_json(model_to_json(m))) == problems

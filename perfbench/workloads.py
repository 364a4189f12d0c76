"""The benchmark's workloads: seeded inputs, one pass of operations, and the
checks of their outputs.

A workload builds its inputs from the seed, then exposes ``ops``: the fixed
list of operations of one pass.  Each :class:`Op` is timed as a whole by the
worker; ``check`` compares the first pass's outputs with the reference
computations in ``reference.py`` and with answers known by construction.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re

import inputs
import reference
from plausikit import cli, semantics, suites
from plausikit.model import Model
from plausikit.syntax import parse


class Op:
    """One timed operation.  ``done`` says whether an output counts as the
    operation completing; by default anything returned without raising
    does."""

    __slots__ = ("family", "run", "done", "expect")

    def __init__(self, family, run, expect=None, done=None):
        self.family = family
        self.run = run
        self.expect = expect
        self.done = done or (lambda out: True)


def _to_model(doc: dict) -> Model:
    return Model(doc["states"], doc["agents"],
                 {a: [tuple(p) for p in ps] for a, ps in doc["epist"].items()},
                 {(a, w): [tuple(p) for p in ps]
                  for a, per in doc["plaus"].items() for w, ps in per.items()},
                 doc["valuation"])


def _doc_of(m: Model) -> dict:
    return {"states": list(m.states), "agents": list(m.agents),
            "epist": {a: sorted(map(list, r)) for a, r in m.epist.items()},
            "plaus": {a: {w: sorted(map(list, m.plaus[(a, w)])) for w in m.states}
                      for a in m.agents},
            "valuation": {p: sorted(xs) for p, xs in m.valuation.items()}}


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.ops: list[Op] = []
        # Run once, untimed, before the first pass.  Chosen from the inputs'
        # fixed make-up, not from the shuffled pass, so that set-up does
        # about the same work whatever the seed.
        self.warm_ops: list[Op] = []

    def warmup(self) -> None:
        for op in self.warm_ops:
            try:
                op.run()
            except Exception:   # a failing operation fails in the pass too
                pass

    def check(self, outputs: list) -> list[str]:
        """Problems with the first pass's outputs; None marks an operation
        that failed."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# check: library model checking on models held in memory

# (states, classes per agent or None for a fine partition, order shape,
#  uniform, queries).  Static queries carry 4-7 modal operators; queries on
# fine partitions are cheap (2-12 ms), so they get more of them and the
# median operation lies well inside their group rather than on the edge
# between the fine and the coarse models.
STATIC_MODELS = [
    (30, 1, "total", True, 20), (40, None, "partial", False, 30),
    (50, 2, "partial", True, 20), (60, None, "total", False, 30),
    (60, 3, "total", False, 20), (70, None, "partial", True, 30),
    (80, 3, "partial", True, 20), (80, None, "total", False, 30),
]
# Dynamic queries hold one [! f] or [up f], alternately, over a 2-3
# operator body.
DYNAMIC_MODELS = [
    (20, 1, "total", False, 16), (30, 2, "partial", True, 16),
    (40, None, "total", False, 16), (45, 2, "total", True, 16),
]
QUERY_KINDS = ("truth_set", "holds", "is_valid_on")


class CheckWorkload(Workload):
    name = "check"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        self.docs = []
        self.queries = []   # (doc index, kind, state, formula tuple)
        for spec, dynamic in ((STATIC_MODELS, False), (DYNAMIC_MODELS, True)):
            for n, classes, shape, uniform, count in spec:
                self.docs.append(inputs.random_model(rng, n, classes, shape, uniform))
                for k in range(count):
                    f = (inputs.dynamic(rng, 2 + k // 2 % 2, ("ann", "up")[k % 2])
                         if dynamic else inputs.static(rng, 4 + k % 4))
                    state = rng.choice(self.docs[-1]["states"])
                    self.queries.append((len(self.docs) - 1, QUERY_KINDS[k % 3],
                                         state, f))
        models = [_to_model(d) for d in self.docs]
        ops = []
        for i, kind, state, f in self.queries:
            family = "dynamic" if reference.kinds(f) & reference.DYNAMIC else "static"
            ops.append(Op(family, self._query(models[i], kind, state,
                                              parse(inputs.show(f)))))
        # Warm-up: an atom on every model, so each Model's hash is computed
        # in set-up rather than in the first pass, then the first static and
        # the first dynamic query.
        p = parse("p")
        self.warm_ops = [Op("warm", self._query(m, "truth_set", None, p))
                         for m in models]
        self.warm_ops += [ops[0], ops[-1]]
        order = list(range(len(ops)))
        rng.shuffle(order)
        self.queries = [self.queries[k] for k in order]
        self.ops = [ops[k] for k in order]

    @staticmethod
    def _query(m, kind, state, f):
        if kind == "truth_set":
            return lambda: semantics.truth_set(m, f)
        if kind == "holds":
            return lambda: semantics.holds(m, state, f)
        return lambda: semantics.is_valid_on(m, f)

    def check(self, outputs):
        evs = [reference.Evaluator(reference.RefModel(d)) for d in self.docs]
        problems = []
        for (i, kind, state, f), got in zip(self.queries, outputs):
            if got is None:
                continue
            ev = evs[i]
            sat = ev.truth(f)
            if kind == "truth_set":
                want = sat
            elif kind == "holds":
                want = state in sat
            else:
                bad = sorted(ev.m.all - sat)
                want = (False, bad[0]) if bad else (True, None)
            if got != want:
                problems.append(f"check {kind} {inputs.show(f)}: got {got!r}")
        return problems


# ---------------------------------------------------------------------------
# cli: a session of CLI verbs on files the benchmark wrote

# (states, classes, order shape, uniform, check calls, validity calls).
# Models whose validation is cheap get more calls, so the median call lies
# inside their dense group of 8-20 ms calls.
# The 16-state single-class model's calls (about 0.4 s, most of it in
# validate) form the group the 90th percentile falls in.
VERB_MODELS = [
    (10, 1, "total", True, 2, 1), (12, 2, "partial", False, 8, 2),
    (14, None, "total", False, 8, 2), (16, 1, "total", True, 4, 2),
    (18, 2, "total", False, 2, 1), (20, None, "partial", True, 8, 2),
    (20, 2, "partial", True, 2, 1),
]
# (states, classes, order shape, uniform, rigid).  The 7-state model gives
# every state its own valuation, so its definable-pair family always has
# 2 ** 7 members and its cost and memory do not swing with the seed.
BC_MODELS = [(5, 1, "total", True, False), (6, 2, "partial", False, False),
             (7, None, "total", False, True)]
UPGRADE_DEPTHS = (3, 4, 5)       # rewrite: [up x]^k B[i | y] z
MIX_DEPTH = 2                    # rewrite: ([up x] [! y])^k Gt[i] z
DEEP_NEGATIONS = 600
SMALL_MODELS = 3                 # per rewrite/translate agreement check


def _small_models(rng, shape, uniform):
    return [reference.RefModel(inputs.random_model(
        rng, rng.randint(3, 5), rng.choice((1, 2)), shape, uniform))
        for _ in range(SMALL_MODELS)]


class CliWorkload(Workload):
    name = "cli"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        os.makedirs(workdir, exist_ok=True)
        plan = []          # (family, argv, expect)

        docs = [inputs.random_model(rng, *spec[:4]) for spec in VERB_MODELS]
        paths = [self._write(d, f"m{i}.json") for i, d in enumerate(docs)]
        for i, doc in enumerate(docs):
            for k in range(VERB_MODELS[i][4]):
                f = inputs.static(rng, 4 + k % 3)
                state = rng.choice(doc["states"])
                plan.append(("check", ["check", paths[i], state, inputs.show(f)],
                             ("check", doc, state, f)))
            for k in range(VERB_MODELS[i][5]):
                f = inputs.static(rng, 3 + k % 3)
                plan.append(("validity", ["validity", paths[i], inputs.show(f)],
                             ("validity", doc, f)))
        broken = inputs.with_broken_order(docs[1], "a", docs[1]["states"][0])
        for i, doc in ((0, docs[0]), (2, docs[2]), (3, docs[3]), (5, docs[5]),
                       (None, broken)):
            path = paths[i] if i is not None else self._write(broken, "broken.json")
            plan.append(("props", ["props", path], ("props", doc)))
        for i, kind in ((0, "announce"), (2, "upgrade"), (4, "announce"),
                        (6, "upgrade")):
            f = self._nonempty(rng, docs[i])
            plan.append(("transform", ["transform", paths[i], kind, inputs.show(f)],
                         ("transform", docs[i], kind, f)))
        for i in (1, 4):
            copy, names = inputs.renamed(docs[i])
            plan.append(("bisim-greatest",
                         ["bisim", paths[i], self._write(copy, f"m{i}r.json"),
                          "--fragment", "K,Bplus,Gt", "--greatest"],
                         ("greatest", docs[i], copy, names)))

        bc = [inputs.random_model(rng, *spec) for spec in BC_MODELS]
        bc_paths = [self._write(d, f"bc{i}.json") for i, d in enumerate(bc)]
        copies = []
        for i, doc in enumerate(bc):
            copy, names = inputs.renamed(doc)
            copies.append((self._write(copy, f"bc{i}r.json"), names))
        for i in range(len(bc)):
            w = rng.choice(bc[i]["states"])
            path, names = copies[i]
            plan.append(("equiv", ["equiv", bc_paths[i], w, path, names[w],
                                   "--fragment", "K,Bc"], ("verdict", True)))
        plan.append(self._separated(rng, bc[1], bc_paths[1], copies[1], "equiv"))
        plan.append(self._separated(rng, bc[1], bc_paths[1], copies[1], "relation"))
        plan.append(("bisim-relation",
                     ["bisim", bc_paths[2], copies[2][0], "--fragment", "K,Bc",
                      "--relation", self._relation(bc_paths[2], copies[2])],
                     ("verdict", True)))

        for k in UPGRADE_DEPTHS:
            f = ("B", rng.choice(inputs.AGENTS), ("atom", rng.choice(inputs.ATOMS)),
                 ("atom", rng.choice(inputs.ATOMS)))
            for _ in range(k):
                f = ("up", inputs.boolean(rng, 1), f)
            plan.append(("rewrite", ["rewrite", inputs.show(f), "--trace"],
                         ("rewrite", f, _small_models(rng, "partial", False))))
        f = ("Gt", rng.choice(inputs.AGENTS), ("atom", rng.choice(inputs.ATOMS)))
        for _ in range(MIX_DEPTH):
            f = ("up", inputs.boolean(rng, 1), ("ann", inputs.boolean(rng, 1), f))
        plan.append(("rewrite", ["rewrite", inputs.show(f), "--trace"],
                     ("rewrite", f, _small_models(rng, "partial", False))))
        for kind, ops, shape in (("gt", ("K", "B"), "partial"),
                                 ("gt", ("K", "B"), "total"),
                                 ("safe", ("K", "B", "Bplus"), "total"),
                                 ("safe", ("K", "B", "Bplus"), "total")):
            f = inputs.static(rng, rng.randint(3, 4), kinds=ops)
            plan.append(("translate", ["translate", kind, inputs.show(f)],
                         ("translate", kind, f, _small_models(rng, shape, True))))
        plan.append(("corpus", ["corpus", "--verify"], ("corpus",)))

        state = rng.choice(docs[0]["states"])
        deep = "~" * DEEP_NEGATIONS + "p"
        truth = state in docs[0]["valuation"]["p"]
        plan.append(("deep", ["check", paths[0], state, deep], ("check-text", truth)))

        for family, argv, expect in plan:
            done = self._deep_done(expect[1]) if family == "deep" else None
            self.ops.append(Op(family, self._call(argv), expect, done))
        # Warm-up: the first call of every verb family, in the order above,
        # where each family starts with its smallest input.
        firsts = {}
        for op in self.ops:
            firsts.setdefault(op.family, op)
        self.warm_ops = list(firsts.values())
        rng.shuffle(self.ops)

    def _write(self, doc, name):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inputs.model_json(doc))
        return path

    def _relation(self, left_path, copy, tag="renaming"):
        path, names = copy
        rel = os.path.join(self.workdir, f"{os.path.basename(path)}.{tag}.rel")
        with open(rel, "w", encoding="utf-8") as fh:
            json.dump({"left": left_path, "right": path,
                       "pairs": [[w, v] for w, v in sorted(names.items())]}, fh)
        return rel

    @staticmethod
    def _nonempty(rng, doc):
        """A formula with one modal operator true somewhere in doc, so an
        announcement keeps at least one state."""
        ev = reference.Evaluator(reference.RefModel(doc))
        while True:
            f = inputs.static(rng, 1)
            if ev.truth(f):
                return f

    def _separated(self, rng, doc, path, copy, verb):
        """Two states of ``doc`` that the reference evaluator separates with
        a K+Bc formula, compared across ``doc`` and its renamed copy; the
        expected verdict is therefore false.  Pairs that agree on the atoms
        are preferred, so the separating formula is modal."""
        copy_path, names = copy
        ev = reference.Evaluator(reference.RefModel(doc))
        candidates = [inputs.static(rng, k, kinds=("K", "Khat", "B"))
                      for k in (1, 1, 2, 2, 3) for _ in range(40)]
        candidates += [("atom", p) for p in inputs.ATOMS]
        states = doc["states"]
        pairs = [(w, v) for w in states for v in states if w < v]
        rng.shuffle(pairs)

        def atoms_agree(w, v):
            return all((w in xs) == (v in xs) for xs in doc["valuation"].values())

        pairs.sort(key=lambda wv: not atoms_agree(*wv))
        for w, v in pairs:
            for f in candidates:
                if (w in ev.truth(f)) != (v in ev.truth(f)):
                    if verb == "equiv":
                        argv = ["equiv", path, w, copy_path, names[v],
                                "--fragment", "K,Bc"]
                        return ("equiv", argv, ("verdict", False, f))
                    swapped = dict(names, **{w: names[v], v: names[w]})
                    rel = self._relation(path, (copy_path, swapped), "swapped")
                    argv = ["bisim", path, copy_path, "--fragment", "K,Bc",
                            "--relation", rel]
                    return ("bisim-relation", argv, ("verdict", False, f))
        raise RuntimeError("no two states are separated")

    @staticmethod
    def _call(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue(), err.getvalue()
        return run

    @staticmethod
    def _deep_done(truth):
        """Done only when main returns a documented outcome: 2 with one
        error line, or the verdict the reference gives."""
        def done(out):
            rc, stdout, stderr = out
            if rc == 2:
                lines = stderr.splitlines()
                return len(lines) == 1 and lines[0].startswith("error:")
            return (rc, stdout) == ((0, "true\n") if truth else (1, "false\n"))
        return done

    def check(self, outputs):
        problems = []
        for op, out in zip(self.ops, outputs):
            if out is None:
                continue
            try:
                ok = self._check_one(op.expect, out)
            except (ValueError, KeyError, IndexError) as e:
                ok = False
                out = (out, repr(e))
            if not ok:
                problems.append(f"cli {op.family}: {op.expect[0]} got {out!r}"[:300])
        return problems

    def _check_one(self, expect, out):
        kind = expect[0]
        rc, stdout, _ = out
        if kind in ("check", "validity"):
            doc, f = expect[1], expect[-1]
            m = reference.RefModel(doc)
            sat = reference.Evaluator(m).truth(f)
            if kind == "check":
                verdict = expect[2] in sat
                return (rc, stdout) == ((0, "true\n") if verdict else (1, "false\n"))
            bad = sorted(m.all - sat)
            return (rc, stdout) == ((1, f"invalid at {bad[0]}\n") if bad
                                    else (0, "valid\n"))
        if kind == "check-text":
            return (rc, stdout) == ((0, "true\n") if expect[1] else (1, "false\n"))
        if kind == "props":
            m = reference.RefModel(expect[1])
            lines = stdout.splitlines()
            if reference.problems(m):
                return rc == 1 and lines[0] == "valid: false" and len(lines) > 1
            want = ["valid: true",
                    "uniform: " + str(reference.is_uniform(m)).lower(),
                    "locally-connected: "
                    + str(reference.is_locally_connected(m)).lower(),
                    "image-finite: true"]
            return rc == 0 and len(lines) == 4 and all(
                line.split(" (")[0] == w for line, w in zip(lines, want))
        if kind == "transform":
            _, doc, how, f = expect
            m = reference.RefModel(doc)
            sat = reference.Evaluator(m).truth(f)
            want = (reference.announce if how == "announce" else reference.upgrade)(m, sat)
            return rc == 0 and _same_model(reference.RefModel(json.loads(stdout)), want)
        if kind == "greatest":
            _, doc, copy, names = expect
            pairs = {tuple(line.split()) for line in stdout.splitlines()}
            return (rc == 0 and set(names.items()) <= pairs
                    and reference.is_structural_bisimulation(
                        reference.RefModel(doc), reference.RefModel(copy), pairs,
                        ("K", "Bplus", "Gt")))
        if kind == "verdict":
            first = stdout.splitlines()[0]
            return (rc, first) == ((0, "true") if expect[1] else (1, "false"))
        if kind == "rewrite":
            _, f, models = expect
            lines = stdout.splitlines()
            g = reference.parse(lines[0])
            steps = lines[1:]
            return (rc == 0 and not reference.kinds(g) & reference.DYNAMIC
                    and steps and all(s.startswith(f"step {k + 1}: ")
                                      for k, s in enumerate(steps))
                    and _agree(f, g, models))
        if kind == "translate":
            _, how, f, models = expect
            g = reference.parse(stdout.strip())
            allowed = {"K", "Khat"} | ({"Gt", "GtDia"} if how == "gt" else {"Bplus"})
            modal = reference.kinds(g) - {"atom", "top", "bot", "not", "and", "or", "imp"}
            return rc == 0 and modal <= allowed and _agree(f, g, models)
        if kind == "corpus":
            return rc == 0 and _corpus_ok(stdout)
        raise ValueError(f"unknown expectation {kind}")


def _same_model(a, b) -> bool:
    """Equal as parsed sets; atoms with empty extensions are dropped."""
    def val(m):
        return {p: xs for p, xs in m.val.items() if xs}
    return (a.all == b.all and a.epist == b.epist and a.plaus == b.plaus
            and val(a) == val(b))


def _agree(f, g, models) -> bool:
    return all(reference.Evaluator(m).truth(f) == reference.Evaluator(m).truth(g)
               for m in models)


_CORPUS_LINE = re.compile(r"(\w+): ok \((\d+) verdicts, distinguished by (.+)\)\Z")


def _corpus_ok(stdout) -> bool:
    """Every witness pair is listed, and its distinguishing formula really
    separates the stated point under the reference evaluator."""
    from plausikit.corpus import load_corpus
    entries = {e.name: e for e in load_corpus()}
    seen = set()
    for line in stdout.splitlines():
        m = _CORPUS_LINE.match(line)
        if not m or m.group(1) not in entries:
            return False
        e = entries[m.group(1)]
        f = reference.parse(m.group(3))
        left = reference.Evaluator(reference.RefModel(_doc_of(e.left))).truth(f)
        right = reference.Evaluator(reference.RefModel(_doc_of(e.right))).truth(f)
        if (e.point[0] in left) == (e.point[1] in right):
            return False
        seen.add(e.name)
    return seen == set(entries)


# ---------------------------------------------------------------------------
# suites: the theorem harness, one trial per operation

# Trials per pass.  A thm29 trial costs 0.5-1.4 s and a thm13 trial 1-180 ms
# depending on its seed, so the pass also runs many cheap trials whose cost
# barely varies; thm29 still takes the largest share of the pass.  A pass
# lasts about as long as a run, which averages the machine's own swings in
# speed over the whole run.
SUITE_MIX = [("thm29", 15), ("thm13", 90), ("thm9-Bc", 750),
             ("thm11-KBc", 675), ("reduction", 7500)]
WARMUP_SEED = 1729


class SuitesWorkload(Workload):
    name = "suites"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        trials = [(name, rng.getrandbits(32))
                  for name, count in SUITE_MIX for _ in range(count)]
        rng.shuffle(trials)
        self.trials = trials
        self.ops = [Op(name, self._trial(name, s)) for name, s in trials]
        # Warm-up trials do not depend on the seed, so set-up time does not.
        self.warm_ops = [Op(name, self._trial(name, WARMUP_SEED))
                         for name, _ in SUITE_MIX]

    @staticmethod
    def _trial(name, seed):
        def run():
            report = suites.run_suite(name, trials=1, seed=seed)
            return report.ok, report.trials, len(report.failures)
        return run

    def check(self, outputs):
        return [f"suite {name} seed={s}: got {out!r}"
                for (name, s), out in zip(self.trials, outputs)
                if out is not None and out != (True, 1, 0)]


WORKLOADS = {w.name: w for w in (CheckWorkload, CliWorkload, SuitesWorkload)}

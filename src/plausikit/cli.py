"""Command-line interface.

Exit codes: 0 success or true verdict, 1 false verdict, 2 input error
(including an unreadable file), 3 resource cap exceeded, 4 an unexpected
internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .bisim import (check_bc, check_structural, greatest_structural,
                    relation_from_dict)
from .corpus import CorpusError, load_corpus
from .dynamics import announce, upgrade
from .errors import InputError, ResourceLimitError
from .generate import generate, load_genspec
from .model import (connectedness_counterexample, is_image_finite, load_model,
                    model_to_json, read_json, save_model,
                    uniformity_counterexample, validate)
from .rewrite import reduce_dynamic, translate_gt, translate_safe
from .semantics import holds, is_valid_on
from .suites import run_suite, suite_names
from .syntax import Fragment, Printer, format_formula, parse


def _parse_fragment(text: str, purpose: str) -> Fragment:
    frag = Fragment.parse(text)
    dynamic = frag.operators & {"Ann", "Up"}
    if dynamic:
        # Dynamic operators never refine these comparisons: every dynamic
        # formula reduces to a static one, so drop them with a notice.
        print(f"notice: dropping dynamic operators {sorted(dynamic)} from the "
              f"{purpose} fragment; dynamic formulas reduce to static ones",
              file=sys.stderr)
        frag = Fragment(frag.operators - {"Ann", "Up"})
    return frag


def _cmd_check(ns) -> int:
    m = load_model(ns.model)
    f = parse(ns.formula)
    verdict = holds(m, ns.state, f)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_validity(ns) -> int:
    m = load_model(ns.model)
    f = parse(ns.formula)
    ok, bad = is_valid_on(m, f)
    if ok:
        print("valid")
        return 0
    print(f"invalid at {bad}")
    return 1


def _cmd_transform(ns) -> int:
    m = load_model(ns.model)
    f = parse(ns.formula)
    out = announce(m, f) if ns.kind == "announce" else upgrade(m, f)
    if ns.output:
        save_model(out, ns.output)
        print(ns.output)
    else:
        sys.stdout.write(model_to_json(out))
    return 0


def _cmd_rewrite(ns) -> int:
    f = parse(ns.formula)
    reduced, trace = reduce_dynamic(f)
    # One printer for the output and every step: what recurs is written once.
    printer = Printer()
    print(printer(reduced))
    if ns.trace:
        for k, step in enumerate(trace):
            print(f"step {k + 1}: {step.format(printer)}")
    return 0


def _cmd_translate(ns) -> int:
    f = parse(ns.formula)
    out = translate_gt(f) if ns.kind == "gt" else translate_safe(f)
    print(format_formula(out))
    return 0


def _cmd_bisim(ns) -> int:
    if ns.greatest and ns.relation:
        raise InputError("--greatest and --relation are mutually exclusive")
    if not (ns.greatest or ns.relation):
        raise InputError("provide either --relation FILE or --greatest")
    left = load_model(ns.left)
    right = load_model(ns.right)
    frag = _parse_fragment(ns.fragment, "bisimulation")
    if ns.greatest:
        z = greatest_structural(left, right, frag)
        for w, v in z.sorted_pairs():
            print(f"{w} {v}")
        return 0
    rel = relation_from_dict(read_json(ns.relation), left, right)
    if "Bc" in frag:
        res = check_bc(rel, frag)
    else:
        res = check_structural(rel, frag)
    if res.ok:
        print("true")
        return 0
    print("false")
    print(str(res.violation))
    return 1


def _cmd_equiv(ns) -> int:
    from .bisim import modal_equiv
    left = load_model(ns.left)
    right = load_model(ns.right)
    frag = _parse_fragment(ns.fragment, "equivalence")
    verdict = modal_equiv(left, ns.state_left, right, ns.state_right, frag)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_props(ns) -> int:
    m = load_model(ns.model, check=False)
    problems = validate(m)
    print(f"valid: {'true' if not problems else 'false'}")
    for p in problems:
        print(f"  violation: {p}")
    if problems:
        return 1
    uw = uniformity_counterexample(m)
    print("uniform: true" if uw is None else
          "uniform: false (witness: {}, {}, {}, pair {})".format(*uw))
    cw = connectedness_counterexample(m)
    print("locally-connected: true" if cw is None else
          "locally-connected: false (witness: {}, {}, {})".format(*cw))
    print(f"image-finite: {'true' if is_image_finite(m) else 'false'}")
    return 0


def _cmd_gen(ns) -> int:
    spec = load_genspec(ns.specfile)
    m = generate(spec)
    if ns.output:
        save_model(m, ns.output)
        print(ns.output)
    else:
        sys.stdout.write(model_to_json(m))
    return 0


def _cmd_suite(ns) -> int:
    report = run_suite(ns.name)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_corpus(ns) -> int:
    if ns.list:
        for entry in load_corpus():
            print(f"{entry.name}: {entry.summary}")
        return 0
    try:
        entries = load_corpus()
    except CorpusError as e:
        print(str(e))
        return 1
    for entry in entries:
        print(f"{entry.name}: ok ({len(entry.verdicts)} verdicts, "
              f"distinguished by {entry.distinguishing})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="plausikit",
        description="Finite epistemic plausibility models: model checking, "
                    "announcements and upgrades, rewriting, bisimilarity.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="truth of a formula at a state")
    p.add_argument("model")
    p.add_argument("state")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("validity", help="truth of a formula at every state")
    p.add_argument("model")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_validity)

    p = sub.add_parser("transform", help="announce or upgrade a model")
    p.add_argument("model")
    p.add_argument("kind", choices=["announce", "upgrade"])
    p.add_argument("formula")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("rewrite", help="eliminate dynamic operators")
    p.add_argument("formula")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_rewrite)

    p = sub.add_parser("translate", help="eliminate conditional belief")
    p.add_argument("kind", choices=["gt", "safe"])
    p.add_argument("formula")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("bisim", help="check or compute bisimulations")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--fragment", default="K")
    p.add_argument("--relation")
    p.add_argument("--greatest", action="store_true")
    p.set_defaults(func=_cmd_bisim)

    p = sub.add_parser("equiv", help="fragment equivalence of two points")
    p.add_argument("left")
    p.add_argument("state_left")
    p.add_argument("right")
    p.add_argument("state_right")
    p.add_argument("--fragment", default="K,Bc")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("props", help="validate a model and report its properties")
    p.add_argument("model")
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("gen", help="generate a random model from a spec file")
    p.add_argument("specfile")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("suite", help="run a named property suite")
    p.add_argument("name", choices=suite_names(), metavar="name")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("corpus", help="list or verify the built-in corpus")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--list", action="store_true")
    group.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_corpus)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parsing leaves it unchanged, and argparse
    looks up sys.stdout and sys.stderr only when it prints."""
    return build_parser()


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return ns.func(ns)
    except ResourceLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as e:
        # Unreadable files: missing, a directory, not UTF-8 text.
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CorpusError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        # A fault of the toolkit, not a verdict: never exit 1 for it.
        print(f"error: internal error: {e!r}", file=sys.stderr)
        return 4


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

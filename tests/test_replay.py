"""``replay`` re-runs the one pass and holds a trace to it, step by step;
``MAX_STEPS`` bounds the pass."""

from dataclasses import replace

import pytest
from hypothesis import given, settings

from plausikit import (Announce, Atom, InputError, Not, ResourceLimitError, Top,
                       Upgrade, parse, reduce_dynamic, replay, translate_gt)
from plausikit import rewrite

from helpers import formulas, ref_reduce_dynamic


@settings(max_examples=200, deadline=None)
@given(formulas(max_depth=4))
def test_replay_accepts_every_trace_of_the_stepwise_oracle(f):
    out, trace = ref_reduce_dynamic(f)
    assert replay(f, trace) == out


F = parse("[up p] [! q] B[a | r] p")


def _refused(trace, step):
    with pytest.raises(InputError, match=f"trace does not match: step {step} "):
        replay(F, trace)


def test_replay_refuses_a_truncated_trace():
    steps = reduce_dynamic(F)[1].steps
    assert len(steps) > 3
    _refused(steps[:-1], len(steps))
    _refused(steps[:2], 3)
    _refused((), 1)
    _refused(steps + steps[-1:], len(steps) + 1)


def test_replay_refuses_a_replaced_result():
    steps = list(reduce_dynamic(F)[1])
    for k in (0, len(steps) // 2, len(steps) - 1):
        tampered = steps.copy()
        tampered[k] = replace(steps[k], after=Top())
        _refused(tampered, k + 1)


def test_replay_refuses_a_changed_path():
    steps = list(reduce_dynamic(F)[1])
    k = next(k for k, s in enumerate(steps) if s.path)
    tampered = steps.copy()
    tampered[k] = replace(steps[k], path=steps[k].path[:-1])
    _refused(tampered, k + 1)


def test_replay_refuses_a_deep_trace_with_its_message():
    """The message prints the steps of ``[up p] ~^3000 q``, past Python's
    default recursion limit."""
    f = Atom("q")
    for _ in range(3000):
        f = Not(f)
    f = Upgrade(Atom("p"), f)
    steps = list(reduce_dynamic(f)[1])
    assert len(steps) == 3001
    steps[5] = replace(steps[5], after=Top())
    with pytest.raises(InputError, match="trace does not match: step 6 ") as err:
        replay(f, steps)
    assert "~" * 2990 in str(err.value)


def _announcements(k):
    f = Atom("q")
    for _ in range(k):
        f = Announce(Atom("p"), f)
    return f


def test_the_pass_stops_past_its_step_budget(monkeypatch):
    _, trace = reduce_dynamic(_announcements(4))
    assert len(trace) == 2**5 - 4 - 2
    monkeypatch.setattr(rewrite, "MAX_STEPS", len(trace))
    assert len(reduce_dynamic(_announcements(4))[1]) == len(trace)
    monkeypatch.setattr(rewrite, "MAX_STEPS", len(trace) - 1)
    for run in (reduce_dynamic, lambda f: replay(f, trace)):
        with pytest.raises(ResourceLimitError) as err:
            run(_announcements(4))
        assert err.value.cap == len(trace) - 1
    with pytest.raises(ResourceLimitError):
        translate_gt(parse(" & ".join(["B[a | p] q"] * len(trace))))

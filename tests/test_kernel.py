"""Federation scheduler: registration, barrier semantics, determinism."""

import numpy as np
import pytest

from harness import StubContext
from petgrid.kernel import Federation, FederationError, SimClock, whole_steps
from petgrid.kernel import FederateFailure


def test_first_registration_gets_id_zero():
    fed = Federation(60.0, 300.0)
    assert fed.register_federate("weather", lambda ctx: None) == 0


def test_ids_are_dense_in_registration_order():
    fed = Federation(60.0, 300.0)
    seen = []
    ids = [fed.register_federate(f"f{i}", lambda ctx: seen.append(ctx.fed_id))
           for i in range(5)]
    assert ids == [0, 1, 2, 3, 4]
    fed.run(60.0)
    assert seen == ids


def test_duplicate_name_rejected():
    fed = Federation(60.0, 300.0)
    fed.register_federate("weather", lambda ctx: None)
    with pytest.raises(FederationError, match="duplicate"):
        fed.register_federate("weather", lambda ctx: None)


def test_registration_after_run_rejected():
    fed = Federation(60.0, 300.0)
    fed.register_federate("a", lambda ctx: None)
    fed.run(60.0)
    with pytest.raises(FederationError, match="register"):
        fed.register_federate("b", lambda ctx: None)


def test_clock_rejects_market_period_not_multiple_of_step():
    with pytest.raises(ValueError):
        SimClock(step=60.0, t_market=250.0)
    with pytest.raises(ValueError):
        SimClock(step=60.0, t_market=0.0)


def test_clock_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        SimClock(step=0.0, t_market=300.0)


# (step, span, whole steps or 0): float `%` refuses the decimal steps,
# since 300 % 0.1 is 0.0999...; 5e-324 would overflow round(span / step)
WHOLE_STEPS = [(0.1, 300.0, 3000), (0.2, 300.0, 1500),
               (0.001, 300.0, 300000), (0.25, 300.0, 1200),
               (60.0, 300.0, 5), (300.0, 300.0, 1),
               (70.0, 300.0, 0), (7.0, 300.0, 0), (0.07, 300.0, 0),
               (60.0, 250.0, 0), (60.0, 90.0, 0), (0.3, 0.9, 0),
               (5e-324, 300.0, 0), (60.0, 0.0, 0), (60.0, -300.0, 0),
               (600.0, 300.0, 0)]


@pytest.mark.parametrize("step, span, n", WHOLE_STEPS)
def test_whole_steps_is_exact_in_floats(step, span, n):
    assert whole_steps(span, step) == n
    if n:
        assert SimClock(step=step, t_market=span).t_market == span
        fed = Federation(step, span)
        fed.register_federate("a", lambda ctx: None)
        fed.run(span)
    else:
        with pytest.raises(ValueError):
            SimClock(step=step, t_market=span)
        with pytest.raises(ValueError):
            Federation(step, 2 * step).run(span)


def test_a_decimal_step_clears_rounds_at_their_step():
    seen = []

    def handler(ctx):
        seen.append((ctx.clearing_round, ctx.next_round))

    fed = Federation(0.1, 300.0)
    fed.register_federate("a", handler)
    fed.run(600.0)
    assert len(seen) == 6000
    assert [(k, r) for k, (r, _) in enumerate(seen) if r is not None] == \
        [(0, 0), (3000, 1)]
    assert [(k, r) for k, (_, r) in enumerate(seen) if r is not None] == \
        [(2999, 1), (5999, 2)]


def test_handler_invocation_count():
    calls = []
    fed = Federation(step_s=300.0, t_market_s=300.0)
    fed.register_federate("a", lambda ctx: calls.append(ctx.t))
    fed.run(600.0)
    assert calls == [0.0, 300.0]


def test_eight_day_invocation_count():
    n = [0]

    def handler(ctx):
        n[0] += 1

    fed = Federation(step_s=300.0, t_market_s=300.0)
    fed.register_federate("a", handler)
    fed.run(8 * 86400.0)
    assert n[0] == 2304


def test_run_horizon_must_be_step_multiple():
    fed = Federation(60.0, 300.0)
    fed.register_federate("a", lambda ctx: None)
    with pytest.raises(ValueError):
        fed.run(90.0)


def test_publish_visible_from_next_step_only():
    seen = []

    def writer(ctx):
        ctx.publish("x", ctx.t + 1.0)

    def reader(ctx):
        seen.append(ctx.read("x", -1.0))

    fed = Federation(60.0, 300.0)
    fed.register_federate("writer", writer)
    fed.register_federate("reader", reader)
    fed.run(180.0)
    # step 0: nothing committed yet (default); afterwards the value from
    # the previous step
    assert seen == [-1.0, 1.0, 61.0]


def reader(key, default, seen):
    """A federate handler appending what it reads from `key` each step."""
    return lambda ctx: seen.append(ctx.read(key, default))


def test_read_before_any_publish_returns_default():
    seen = []
    fed = Federation(60.0, 300.0)
    fed.register_federate("r", reader("nope", 7.5, seen))
    fed.run(120.0)
    assert seen == [7.5, 7.5]


def test_last_write_wins_within_a_step():
    def writer(ctx):
        ctx.publish("x", 1.0)
        ctx.publish("x", 2.0)

    seen = []
    fed = Federation(60.0, 300.0)
    fed.register_federate("w", writer)
    fed.register_federate("r", reader("x", 0.0, seen))
    fed.run(120.0)
    assert seen == [0.0, 2.0]


def test_topic_ownership_enforced():
    def a(ctx):
        ctx.publish("shared", 1.0)

    def b(ctx):
        ctx.publish("shared", 2.0)

    fed = Federation(60.0, 300.0)
    fed.register_federate("a", a)
    fed.register_federate("b", b)
    with pytest.raises(FederationError, match="owned by"):
        fed.run(60.0)


@pytest.mark.parametrize("value", [
    [1.0, 2.0], {"a": 1.0}, np.zeros(3), (1.0, [2.0]),
], ids=["list", "dict", "ndarray", "tuple-holding-list"])
def test_mutable_published_value_rejected(value):
    def writer(ctx):
        ctx.publish("x", value)

    fed = Federation(60.0, 300.0)
    fed.register_federate("w", writer)
    with pytest.raises(FederationError, match="mutable"):
        fed.run(60.0)

    # a rejected value is never committed to the bus
    errors, seen = [], []

    def catching_writer(ctx):
        try:
            ctx.publish("x", value)
        except FederationError as exc:
            errors.append(exc)

    fed = Federation(60.0, 300.0)
    fed.register_federate("w", catching_writer)
    fed.register_federate("r", reader("x", None, seen))
    fed.run(120.0)
    assert len(errors) == 2 and seen == [None, None]


def test_the_stub_context_reads_and_refuses_as_a_federation_does():
    """The unit tests step a federate on `harness.StubContext`, so it
    serves the kernel's `read` default and refuses the same publish."""
    seen = []

    def handler(ctx):
        seen.append((ctx.read("x"), ctx.read_cleared("x", "default")))
        ctx.publish("y", [1.0])

    fed = Federation(60.0, 300.0)
    fed.register_federate("f", handler)
    for run in (lambda: fed.run(60.0), lambda: handler(StubContext())):
        with pytest.raises(FederationError, match="mutable list"):
            run()
    assert seen == [(0.0, "default")] * 2


def test_causality_value_never_observable_same_step():
    """A federate registered after the writer still sees last step's value."""
    observed = []

    def writer(ctx):
        ctx.publish("k", ctx.t)

    def late_reader(ctx):
        observed.append((ctx.t, ctx.read("k", -1.0)))

    fed = Federation(60.0, 300.0)
    fed.register_federate("writer", writer)
    fed.register_federate("late", late_reader)
    fed.run(300.0)
    for t, value in observed:
        assert value != t  # never this step's own publication
        assert value == (t - 60.0 if t > 0 else -1.0)


def test_failing_federate_aborts_with_diagnostic():
    def bad(ctx):
        if ctx.t >= 120.0:
            raise RuntimeError("boom")

    fed = Federation(60.0, 300.0)
    fed.register_federate("fragile", bad)
    with pytest.raises(FederateFailure, match="fragile.*t=120"):
        fed.run(600.0)


@pytest.mark.parametrize("per_round", [1, 2, 5])
def test_round_schedule_at_every_step(per_round):
    seen = []
    fed = Federation(step_s=60.0, t_market_s=60.0 * per_round)
    fed.register_federate(
        "r", lambda ctx: seen.append((ctx.clearing_round, ctx.next_round)))
    fed.run(60.0 * 4 * per_round)
    # round r clears at step n*r; its inputs are published one step
    # earlier, so they are visible when it clears
    clearing = {per_round * r: r for r in range(4)}
    upcoming = {per_round * r - 1: r for r in range(1, 5)}
    assert seen == [(clearing.get(k), upcoming.get(k))
                    for k in range(4 * per_round)]


@pytest.mark.parametrize("per_round", [1, 2, 5])
def test_every_federate_sees_its_step_in_a_reused_context(per_round):
    """Each federate gets one context per run, and at every step it holds
    that step's time and rounds, whatever an earlier federate or an
    earlier step left in its own context."""
    seen = {name: [] for name in ("a", "b", "c")}
    contexts = {name: set() for name in seen}
    fed = Federation(step_s=60.0, t_market_s=60.0 * per_round)

    def recorder(name):
        def handler(ctx):
            contexts[name].add(id(ctx))
            seen[name].append((ctx.fed_id, ctx.t, ctx.clearing_round,
                               ctx.next_round))
            # a federate that scribbles on its context changes nothing
            # that the next federate or its own next step sees
            ctx.t, ctx.clearing_round, ctx.next_round = -1.0, -1, -1
        return handler

    for name in seen:
        fed.register_federate(name, recorder(name))
    fed.run(60.0 * 3 * per_round)
    first = {name: set(ids) for name, ids in contexts.items()}
    fed.run(60.0 * per_round)
    steps = range(4 * per_round)
    for fed_id, name in enumerate(seen):
        assert seen[name] == [
            (fed_id, 60.0 * k,
             k // per_round if k % per_round == 0 else None,
             (k + 1) // per_round if (k + 1) % per_round == 0 else None)
            for k in steps]
        assert len(first[name]) == 1            # one context per run
        assert len(contexts[name]) <= 2
    assert len(set().union(*first.values())) == 3


def test_round_schedule_continues_across_runs():
    seen = []
    fed = Federation(step_s=60.0, t_market_s=180.0)
    fed.register_federate(
        "r", lambda ctx: seen.append((ctx.t, ctx.clearing_round,
                                      ctx.next_round)))
    fed.run(120.0)
    fed.run(240.0)
    assert seen == [(0.0, 0, None), (60.0, None, None), (120.0, None, 1),
                    (180.0, 1, None), (240.0, None, None), (300.0, None, 2)]


@pytest.mark.parametrize("per_round", [1, 2, 5])
def test_read_cleared_returns_what_the_last_clearing_step_saw(per_round):
    def writer(ctx):
        ctx.publish("x", ctx.t)

    seen, at_clearing = [], {}

    def recorder(ctx):
        if ctx.clearing_round is not None:
            at_clearing[ctx.clearing_round] = ctx.read("x", None)
        seen.append((ctx.clearing_round, ctx.read_cleared("x", None)))

    fed = Federation(step_s=60.0, t_market_s=60.0 * per_round)
    fed.register_federate("w", writer)
    fed.register_federate("r", recorder)
    n_steps = 6 * per_round
    fed.run(60.0 * n_steps)
    cleared = None
    for k, (clearing, value) in enumerate(seen):
        # served from the step after a clearing step up to and
        # including the next clearing step, never a later publication
        assert value == cleared, k
        if clearing is not None:
            cleared = at_clearing[clearing]
    # round 0 clears on an empty bus, so the default holds through its
    # window; round r saw the publication of step n*r - 1
    assert [v for _, v in seen[:per_round + 1]] == [None] * (per_round + 1)
    assert at_clearing == {r: 60.0 * (per_round * r - 1) if r else None
                           for r in range(6)}


def test_read_cleared_default_for_a_key_the_round_did_not_see():
    seen = []

    def late_writer(ctx):
        if ctx.t >= 120.0:
            ctx.publish("x", 1.0)

    fed = Federation(step_s=60.0, t_market_s=120.0)
    fed.register_federate("w", late_writer)
    fed.register_federate("r", lambda ctx: seen.append(
        ctx.read_cleared("x", "default")))
    fed.run(360.0)
    # published at step 2, visible from step 3, first cleared at step 4
    assert seen == ["default"] * 5 + [1.0]

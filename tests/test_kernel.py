"""Federation scheduler: registration, barrier semantics, determinism."""

import numpy as np
import pytest

from petgrid.kernel import Federation, FederationError, SimClock
from petgrid.kernel import FederateFailure


def test_first_registration_gets_id_zero():
    fed = Federation()
    assert fed.register_federate("weather", lambda ctx: None) == 0


def test_ids_are_dense_in_registration_order():
    fed = Federation(step_s=60.0)
    seen = []
    ids = [fed.register_federate(f"f{i}", lambda ctx: seen.append(ctx.fed_id))
           for i in range(5)]
    assert ids == [0, 1, 2, 3, 4]
    fed.run(60.0)
    assert seen == ids


def test_duplicate_name_rejected():
    fed = Federation()
    fed.register_federate("weather", lambda ctx: None)
    with pytest.raises(FederationError, match="duplicate"):
        fed.register_federate("weather", lambda ctx: None)


def test_registration_after_run_rejected():
    fed = Federation(step_s=60.0)
    fed.register_federate("a", lambda ctx: None)
    fed.run(60.0)
    with pytest.raises(FederationError, match="register"):
        fed.register_federate("b", lambda ctx: None)


def test_clock_rejects_market_period_not_multiple_of_step():
    with pytest.raises(ValueError):
        SimClock(t=0.0, step=60.0, t_market=250.0)


def test_clock_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        SimClock(t=0.0, step=0.0, t_market=300.0)


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
    fed = Federation(step_s=60.0)
    fed.register_federate("a", lambda ctx: None)
    with pytest.raises(ValueError):
        fed.run(90.0)


def test_publish_visible_from_next_step_only():
    seen = []

    def writer(ctx):
        ctx.publish("x", ctx.t + 1.0)

    def reader(ctx):
        seen.append(ctx.read("x", -1.0))

    fed = Federation(step_s=60.0)
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
    fed = Federation(step_s=60.0)
    fed.register_federate("r", reader("nope", 7.5, seen))
    fed.run(120.0)
    assert seen == [7.5, 7.5]


def test_last_write_wins_within_a_step():
    def writer(ctx):
        ctx.publish("x", 1.0)
        ctx.publish("x", 2.0)

    seen = []
    fed = Federation(step_s=60.0)
    fed.register_federate("w", writer)
    fed.register_federate("r", reader("x", 0.0, seen))
    fed.run(120.0)
    assert seen == [0.0, 2.0]


def test_topic_ownership_enforced():
    def a(ctx):
        ctx.publish("shared", 1.0)

    def b(ctx):
        ctx.publish("shared", 2.0)

    fed = Federation(step_s=60.0)
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

    fed = Federation(step_s=60.0)
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

    fed = Federation(step_s=60.0)
    fed.register_federate("w", catching_writer)
    fed.register_federate("r", reader("x", None, seen))
    fed.run(120.0)
    assert len(errors) == 2 and seen == [None, None]


def test_causality_value_never_observable_same_step():
    """A federate registered after the writer still sees last step's value."""
    observed = []

    def writer(ctx):
        ctx.publish("k", ctx.t)

    def late_reader(ctx):
        observed.append((ctx.t, ctx.read("k", -1.0)))

    fed = Federation(step_s=60.0)
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

    fed = Federation(step_s=60.0)
    fed.register_federate("fragile", bad)
    with pytest.raises(FederateFailure, match="fragile.*t=120"):
        fed.run(600.0)


def test_per_federate_rng_streams_are_deterministic_and_distinct():
    def run_once():
        draws = {}

        def make(name):
            def handler(ctx):
                draws.setdefault(name, []).append(ctx.rng.random())
            return handler

        fed = Federation(step_s=60.0, seed=42)
        fed.register_federate("a", make("a"))
        fed.register_federate("b", make("b"))
        fed.run(300.0)
        return draws

    first, second = run_once(), run_once()
    assert first == second
    assert first["a"] != first["b"]


def test_published_values_identical_across_runs():
    def run_once():
        fed = Federation(step_s=60.0, seed=7)

        def noisy(ctx):
            ctx.publish("noise", ctx.rng.normal())

        fed.register_federate("n", noisy)
        trace = []

        def recorder(ctx):
            trace.append(ctx.read("noise", 0.0))

        fed.register_federate("r", recorder)
        fed.run(600.0)
        return trace

    assert run_once() == run_once()

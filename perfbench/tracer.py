"""Span tracing of petgrid's layers, attached from outside the package.

`Tracer` replaces each layer's public functions with wrappers for the
length of a `with` block. A wrapped call records one span: name, start,
end and the index of the enclosing span. Spans are kept in memory as
parallel arrays, and self times are derived from them once the run has
ended. Bus reads and publishes are too frequent to give a span each, so
they are counted only. Leaving the block restores every original.

Names bound with `from ... import` are patched where they are looked
up, e.g. `petgrid.substation.match_orders`, not `petgrid.market`.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from array import array
from pathlib import Path

import numpy as np

from petgrid import evfleet, household, kernel, metrics, runner, substation, weather
from petgrid.market import Side

FEDERATE_SPANS = ("weather.step", "household.step", "evfleet.step",
                  "substation.step")

# span name -> (owner, attribute); handlers are wrapped on the class.
SPAN_TARGETS = [
    ("kernel.run", kernel.Federation, "run"),
    ("weather.step", weather.WeatherFederate, "__call__"),
    ("household.step", household.HouseholdFederate, "__call__"),
    ("evfleet.step", evfleet.EvFederate, "__call__"),
    ("substation.step", substation.SubstationFederate, "__call__"),
    ("weather.sample", weather.SyntheticWeather, "sample"),
    ("weather.sample", weather.CsvWeather, "sample"),
    ("household.build_houses", household, "build_houses"),
    ("household.step_thermal", household, "step_thermal"),
    ("evfleet.build_fleet", evfleet, "build_fleet"),
    ("evfleet.step_battery", evfleet, "step_battery"),
    ("evfleet.load_range", evfleet, "load_range"),
    ("substation.compute_lmp", substation, "compute_lmp"),
    ("substation.lmp_append", substation.LmpHistory, "append"),
    ("substation.formulate_grid_bid", substation, "formulate_grid_bid"),
    ("substation.formulate_house_bids", substation, "formulate_house_bids"),
    ("substation.formulate_ev_bids", substation, "formulate_ev_bids"),
    ("substation.ev_strategy_prices", substation, "ev_strategy_prices"),
    ("market.match_orders", substation, "match_orders"),
    ("metrics.summarize", metrics, "summarize"),
    ("metrics.average_day", metrics, "average_day"),
    ("runner.write_outputs", runner, "write_outputs"),
]

BID_SPANS = ("substation.formulate_grid_bid",
             "substation.formulate_house_bids",
             "substation.formulate_ev_bids")

_MISSING = object()


@contextlib.contextmanager
def patched(owner, attr: str, make_wrapper):
    """Replace `owner.attr` with `make_wrapper(original)` for the block."""
    own = owner.__dict__.get(attr, _MISSING)
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield original
    finally:
        if own is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, own)


class Tracer:
    """Records spans and bus counts for every run inside its block."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._reads = itertools.count()
        self._publishes = itertools.count()
        self.topics: set[str] = set()
        self.steps = 0
        self.orders = 0
        self.sell_orders = 0
        self.buy_fills = 0
        self.reads = 0
        self.publishes = 0
        self.missing: list[str] = []
        self._exit = None

    # -- recording ----------------------------------------------------

    def _span_wrapper(self, name: str, fn, after=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, clock = self.start, self.end, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_run(self, args, result) -> None:
        fed, until_s = args[0], args[1]
        self.steps += int(round(until_s / fed.clock.step))

    def _after_match(self, args, result) -> None:
        orders = args[0]
        sells = sum(1 for o in orders if o.side is Side.SELL)
        self.orders += len(orders)
        self.sell_orders += sells
        self.buy_fills += len(result.bought)

    def _read_wrapper(self, fn):
        tick = self._reads.__next__

        def read(ctx, key, default=0.0):
            tick()
            return fn(ctx, key, default)
        return read

    def _publish_wrapper(self, fn):
        tick, seen = self._publishes.__next__, self.topics.add

        def publish(ctx, key, value):
            tick()
            seen(key)
            return fn(ctx, key, value)
        return publish

    def __enter__(self) -> "Tracer":
        hooks = {"kernel.run": self._after_run,
                 "market.match_orders": self._after_match}
        with contextlib.ExitStack() as stack:
            for name, owner, attr in SPAN_TARGETS:
                if not hasattr(owner, attr):
                    self.missing.append(name)
                    continue
                stack.enter_context(patched(
                    owner, attr,
                    lambda fn, n=name: self._span_wrapper(n, fn, hooks.get(n))))
            stack.enter_context(patched(kernel.StepContext, "read",
                                        self._read_wrapper))
            stack.enter_context(patched(kernel.StepContext, "publish",
                                        self._publish_wrapper))
            self._exit = stack.pop_all()
        return self

    def __exit__(self, *exc) -> None:
        self._exit.close()
        # next() on a count returns how many ticks came before it
        self.reads = next(self._reads)
        self.publishes = next(self._publishes)

    # -- results ------------------------------------------------------

    def span_arrays(self):
        """(name_id, start, end, parent) as numpy arrays."""
        return (np.array(self.name_id, dtype=np.int32),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64),
                np.array(self.parent, dtype=np.int32))

    def by_name(self) -> dict[str, dict]:
        """Per span name: call count, inclusive time and self time (s).

        A span's self time is its duration minus the durations of its
        direct children, which nest inside it.
        """
        name_id, start, end, parent = self.span_arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        incl = np.bincount(name_id, weights=dur, minlength=k)
        excl = np.bincount(name_id, weights=own, minlength=k)
        min_self = np.full(k, np.inf)
        np.minimum.at(min_self, name_id, own)
        return {n: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                    "self_s": float(excl[i]), "min_self_s": float(min_self[i])}
                for i, n in enumerate(self.names)}

    def durations(self, name: str) -> np.ndarray:
        name_id, start, end, _ = self.span_arrays()
        if name not in self._name_ids:
            return np.zeros(0)
        sel = name_id == self._name_ids[name]
        return end[sel] - start[sel]

    def save(self, path: Path) -> None:
        """Write every span to an uncompressed .npz file."""
        name_id, start, end, parent = self.span_arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 start=start, end=end, parent=parent)

    def layer_metrics(self, n_houses: int, n_ev: int) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        spans = self.by_name()

        def incl(name):
            return spans.get(name, {}).get("incl_s", 0.0)

        def own(name):
            return spans.get(name, {}).get("self_s", 0.0)

        def calls(name):
            return spans.get(name, {}).get("calls", 0)

        run_s = incl("kernel.run")
        busy = {n: incl(n) for n in FEDERATE_SPANS}
        steps = self.steps
        match_ms = self.durations("market.match_orders") * 1e3
        rounds = calls("substation.compute_lmp")
        buy_orders = self.orders - self.sell_orders
        return {
            "kernel.run_s": run_s,
            "kernel.self_s": own("kernel.run"),
            "kernel.steps": steps,
            "kernel.reads": self.reads,
            "kernel.publishes": self.publishes,
            "kernel.topics": len(self.topics),
            "weather.busy_s": busy["weather.step"],
            "weather.samples": calls("weather.sample"),
            "household.busy_s": busy["household.step"],
            "household.step_thermal_calls": calls("household.step_thermal"),
            "household.step_thermal_s": incl("household.step_thermal"),
            "household.us_per_house_step": _per(busy["household.step"] * 1e6,
                                                n_houses * steps),
            "evfleet.busy_s": busy["evfleet.step"],
            "evfleet.step_battery_calls": calls("evfleet.step_battery"),
            "evfleet.step_battery_s": incl("evfleet.step_battery"),
            "evfleet.load_range_s": incl("evfleet.load_range"),
            "evfleet.us_per_ev_step": _per(busy["evfleet.step"] * 1e6,
                                           n_ev * steps),
            "substation.busy_s": busy["substation.step"],
            "substation.rounds": rounds,
            "substation.lmp_s": (incl("substation.compute_lmp")
                                 + incl("substation.lmp_append")),
            "substation.bids_s": sum(own(n) for n in BID_SPANS),
            "substation.ev_strategy_calls": calls("substation.ev_strategy_prices"),
            "substation.ev_strategy_s": incl("substation.ev_strategy_prices"),
            "substation.dispatch_s": own("substation.step"),
            "market.match_s": incl("market.match_orders"),
            "market.match_p50_ms": _pct(match_ms, 50),
            "market.match_p98_ms": _pct(match_ms, 98),
            "market.orders_per_round": _per(self.orders, rounds),
            "market.sell_orders_per_round": _per(self.sell_orders, rounds),
            "market.fills": self.buy_fills,
            "market.buy_fill_ratio": _per(self.buy_fills, buy_orders),
            "metrics.summarize_s": incl("metrics.summarize"),
            "metrics.average_day_s": incl("metrics.average_day"),
            "runner.write_outputs_s": incl("runner.write_outputs"),
            "runner.build_s": (incl("household.build_houses")
                               + incl("evfleet.build_fleet")),
        }


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0

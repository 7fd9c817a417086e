"""Market-facing business logic: bids, grid pricing and dispatch.

Each market round the substation formulates orders for every trader
(grid supply, per-house unresponsive and HVAC loads, PV arrays, EVs),
clears them through the double auction, and dispatches the cleared
power back to the devices. Grid sell orders price at a parametric
locational marginal price that rises with the previous round's demand
to supply ratio on top of a diurnal base curve.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from functools import partial

import numpy as np

from .market import Order, Side, TransactionLog, match_orders
from .metrics import append_round, round_log
from .weather import DAY_S, diurnal_wave

# Trader id blocks; the offsets give must-serve loads tie-break priority.
# Block k starts at k * MAX_HOUSES, which `_dispatch` relies on.
GRID_TRADER = 0
UNRESP_BASE = 1000
HVAC_BASE = 2000
PV_BASE = 3000
EV_BASE = 4000
EV_SELL_BASE = 5000
# one id per house or EV in each block caps the fleet size, and keeps
# every id below 2**15, as the fill log's 16-bit id columns need
MAX_HOUSES = HVAC_BASE - UNRESP_BASE

# an Order without the checks of Order.__new__, for the house and EV bids,
# whose positive whole watts and non-negative prices hold by construction
_order = partial(tuple.__new__, Order)


class LmpHistory:
    """Rolling grid-price series with the statistics the EV strategy needs.

    The window lives in a ring of twice its length, each value written at
    i and i + n, so the window in append order is always one contiguous
    slice. Each mean divides `np.add.reduce` of its slice by the slice's
    length, which is what `np.mean` computes (numpy's pairwise summation
    sets the last bits), without its Python wrapper or a copy. The
    quartiles are read from a sorted copy of the window that each append
    keeps in order, with the interpolation `np.percentile` uses by
    default, so no call sorts the window again.
    """

    def __init__(self, t_market_s: float):
        self._n_long = max(int(round(LONG_WINDOW_S / t_market_s)), 1)
        self._n_short = max(int(round(SHORT_WINDOW_S / t_market_s)), 1)
        self._ring = np.zeros(2 * self._n_long)
        self._next = self._len = 0  # next write index, values held
        self._sorted: list[float] = []

    def append(self, lmp: float) -> None:
        i, n = self._next, self._n_long
        if self._len == n:          # evict the oldest, which sits at i
            del self._sorted[bisect_left(self._sorted, self._ring.item(i))]
        else:
            self._len += 1
        self._ring[i] = self._ring[i + n] = lmp
        insort(self._sorted, lmp)
        self._next = (i + 1) % n

    def _window(self) -> np.ndarray:
        start = self._next if self._len == self._n_long else 0
        return self._ring[start:start + self._len]

    @property
    def ma_long(self) -> float:
        a = self._window()
        return float(np.add.reduce(a)) / len(a)

    @property
    def ma_short(self) -> float:
        a = self._window()[-self._n_short:]
        return float(np.add.reduce(a)) / len(a)

    def _quantile(self, q: float) -> float:
        # numpy's default ("linear") rule, in its operation order
        s = self._sorted
        n = len(s)
        v = (n - 1) * q
        lo = math.floor(v)
        g = v - lo
        a, b = s[lo], s[min(lo + 1, n - 1)]
        d = b - a
        return b - d * (1 - g) if g >= 0.5 else a + d * g

    @property
    def iqr_long(self) -> float:
        return self._quantile(0.75) - self._quantile(0.25)


def base_price(t: float, p_base: float, amplitude: float) -> float:
    """Diurnal grid base price, trough at 04:00 and peak at 18:00."""
    hour = (t % DAY_S) / 3600.0
    return p_base * (1.0 + amplitude * diurnal_wave(hour, 4.0, 18.0, -1.0, 1.0))


def compute_lmp(prev_round_demand_w: float, capacity_w: float, t: float,
                p_base: float, alpha: float, amplitude: float) -> float:
    """LMP rises quadratically with the demand to supply ratio."""
    u = min(max(prev_round_demand_w, 0.0) / capacity_w, 1.0)
    return base_price(t, p_base, amplitude) * (1.0 + alpha * u * u)


def formulate_grid_bid(capacity_w: int, lmp: float) -> Order:
    return Order(GRID_TRADER, Side.SELL, capacity_w, lmp)


def formulate_house_bids(unresp_w: list[int], hvac_w: list[int],
                         pv_w: list[int], cfg) -> list[Order]:
    """Orders of every house, class by class in house order: appliance
    buys, HVAC buys, then PV sells (the arrays sit on the first
    len(pv_w) houses), each only when its quantity is positive."""
    orders = []
    for base, side, price, watts in (
            (UNRESP_BASE, Side.BUY, cfg.prices_unresponsive, unresp_w),
            (HVAC_BASE, Side.BUY, cfg.prices_hvac, hvac_w),
            (PV_BASE, Side.SELL, cfg.prices_pv_sell, pv_w)):
        orders += [_order((base + i, side, q, price, base + i))
                   for i, q in enumerate(watts) if q > 0]
    return orders


# the long and short LMP windows of `ev_strategy_prices`
LONG_WINDOW_S, SHORT_WINDOW_S = DAY_S, 1800.0


def ev_strategy_prices(hist: LmpHistory) -> tuple[float, float]:
    """Buy/sell prices for the two-sided EV bid.

    The buy price tracks the 24 h LMP mean; the sell price sits at least
    a small IQR margin above it so the EV never undercuts itself.
    """
    buy, iqr = hist.ma_long, hist.iqr_long
    return buy, max(buy + 0.05 * iqr, hist.ma_short + 0.1 * iqr)


def formulate_ev_bids(ranges: list[tuple[int, int]], socs, departs,
                      strategy: tuple[float, float], cfg) -> list[Order]:
    """Orders of the EV fleet for its load ranges `lo`..`hi` in W, each
    the idle (0, 0) or with `hi` 0 or the charger rating. An EV with
    `lo` > 0 buys `lo` at the unresponsive price (a forced charge); any
    other buys `hi` and sells `-lo`, each when positive, at `strategy`,
    the `ev_strategy_prices` pair.

    EVs all bid the same strategy prices, so a tie-break on trader id
    would ration scarce supply or demand to the same EVs every round.
    Instead an order's priority is its class base plus its EV's rank,
    lower first: buys by urgency (soonest departure in `departs`, then
    lowest SoC in `socs`, then index) so commuters refill before idle
    vehicles, sells by fullness (highest SoC, then index) so the
    emptiest EVs keep their reserve. Orders come out in rank order."""
    buy, sell = Side.BUY, Side.SELL     # an enum member lookup is slow
    buy_price, sell_price = strategy
    forced = cfg.prices_unresponsive
    evs = range(len(ranges))
    orders = [_order((EV_BASE + j, buy, lo if lo > 0 else hi,
                      forced if lo > 0 else buy_price, EV_BASE + r))
              for r, (_, _, j, (lo, hi)) in enumerate(sorted(
                  zip(departs, socs, evs, ranges))) if hi > 0]
    orders += [_order((EV_SELL_BASE + j, sell, -lo, sell_price,
                       EV_SELL_BASE + r))
               for r, (_, j, (lo, _)) in enumerate(sorted(
                   zip([-soc for soc in socs], evs, ranges))) if lo < 0]
    return orders


class SubstationFederate:
    """Runs one clearing round at every market period boundary.

    The grid capacity becomes a whole-watt packet once, at build. At the
    top of each round the households' bus values become whole-watt
    packets, once, and the EV fleet publishes whole-watt ranges: bids,
    dispatch, slack and every round-log sum read those integers, so the
    round trades, dispatches and accounts in the same watts.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.capacity_w = round(cfg.grid_capacity_kw * 1000.0)
        self.lmp_capacity_w = cfg.lmp_reference_capacity_kw * 1000.0
        self.hist = LmpHistory(cfg.t_market_s)
        self.prev_demand_w = 0.0
        self.rounds = round_log()
        self.transactions = TransactionLog()
        self.unserved_unresponsive = 0
        self.ev_unfilled_must_charge = 0
        self.max_imbalance_w = 0.0

    def __call__(self, ctx) -> None:
        round_index = ctx.clearing_round
        if round_index is None:
            return
        lmp = compute_lmp(self.prev_demand_w, self.lmp_capacity_w, ctx.t,
                          self.cfg.lmp_p_base, self.cfg.lmp_alpha,
                          self.cfg.lmp_diurnal_amplitude)
        self.hist.append(lmp)

        n_ev = self.cfg.n_ev
        no_houses = (0.0,) * self.cfg.n_houses
        unresp, hvac = (list(map(round, ctx.read(key, no_houses)))
                        for key in ("houses/unresponsive_w",
                                    "houses/hvac_demand_w"))
        pv = list(map(round, ctx.read("houses/pv_potential_w", ())))
        orders = [formulate_grid_bid(self.capacity_w, lmp)]
        orders += formulate_house_bids(unresp, hvac, pv, self.cfg)
        ranges = ()
        if n_ev:
            ranges = ctx.read("evs/load_range_w", ((0, 0),) * n_ev)
            orders += formulate_ev_bids(
                ranges, ctx.read("evs/soc", (0.0,) * n_ev),
                ctx.read("evs/next_depart_s", (float("inf"),) * n_ev),
                ev_strategy_prices(self.hist), self.cfg)

        result = match_orders(orders, round_index)
        self.transactions.extend(round_index, result.buyer, result.seller,
                                 result.quantity, result.price)
        grid_import = float(self._dispatch(ctx, result, unresp, hvac, pv,
                                           ranges, lmp))
        # demand seen at the grid connection point: next round's LMP
        # tracks the import actually drawn from the wider grid, smoothed
        # so the grid/local-supply split settles instead of flip-flopping
        ema = self.cfg.lmp_demand_ema
        self.prev_demand_w = ema * grid_import + (1 - ema) * self.prev_demand_w

    def _dispatch(self, ctx, result, unresp, hvac, pv, ranges, lmp) -> int:
        """Push the round's fills to the devices, account for the round
        and return the watts the grid supplied."""
        # quantities are whole watts, so each total is an exact int sum.
        # Each fill lands in its trader id block's list, at its house or
        # EV index, in one pass.
        n, n_ev, m = self.cfg.n_houses, self.cfg.n_ev, MAX_HOUSES
        blocks = [[0] * k for k in (1, n, n, len(pv), n_ev, n_ev)]
        for fills in (result.bought, result.sold):
            for trader, quantity in fills.items():
                blocks[trader // m][trader % m] = quantity
        grid, unresp_bought, hvac_granted, pv_sold, ev_bought, ev_sold = blocks
        grid_supplied = grid[GRID_TRADER]
        # must-serve loads left unfilled: serve them anyway via
        # out-of-market slack and record the violations
        unserved = [w for w, got in zip(unresp, unresp_bought)
                    if w > 0 and got == 0]
        self.unserved_unresponsive += len(unserved)
        slack_w = float(sum(unserved))
        unresp_total = float(sum(unresp))
        hvac_total = float(sum(hvac_granted))
        pv_supplied = float(sum(pv_sold))
        pv_potential_total = float(sum(pv))
        # an array sells at most what it offered
        pv_surplus = pv_potential_total - pv_supplied
        ctx.publish("dispatch/hvac_w", tuple(hvac_granted))

        ev_charge = ev_discharge = ev_surplus = must_charge_w = 0.0
        ev_loads = []
        for (lo, hi), charged, discharged in zip(ranges, ev_bought, ev_sold):
            if lo > 0:
                must_charge_w += lo
                if charged == 0:
                    # forced charge left unfilled: the EV charges at its
                    # range minimum anyway, served via out-of-market slack
                    self.ev_unfilled_must_charge += 1
                    charged = lo
                    slack_w += lo
            net = charged - discharged
            ev_loads.append(net)
            if net > 0:
                ev_charge += net
            else:
                ev_discharge += -net
            if lo < 0:                  # it sold at most what it offered
                ev_surplus += abs(lo) - discharged
        ctx.publish("dispatch/ev_load_w", tuple(ev_loads))

        supply = grid_supplied + pv_supplied + ev_discharge + slack_w
        load = unresp_total + hvac_total + ev_charge
        self.max_imbalance_w = max(self.max_imbalance_w, abs(supply - load))

        p_target = unresp_total + sum(hvac) + must_charge_w
        append_round(
            self.rounds, t_s=ctx.t, lmp=lmp, round_vwap=result.round_vwap,
            grid_supplied_w=grid_supplied, pv_potential_w=pv_potential_total,
            pv_supplied_w=pv_supplied, ev_charge_w=ev_charge,
            ev_discharge_w=ev_discharge, hvac_load_w=hvac_total,
            unresponsive_load_w=unresp_total,
            mean_t_air_c=ctx.read("houses/mean_t_air_c", 0.0),
            mean_setpoint_c=ctx.read("houses/mean_t_set_c", 0.0),
            mean_t_excess2=ctx.read("houses/mean_t_excess2", 0.0),
            p_target_w=p_target,
            p_supplied_w=grid_supplied + pv_supplied + ev_discharge,
            p_surplus_pv_w=pv_surplus, p_surplus_ev_w=ev_surplus)
        return grid_supplied

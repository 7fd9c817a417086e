"""Market-facing business logic: bids, grid pricing and dispatch.

Each market round the substation formulates orders for every trader
(grid supply, per-house unresponsive and HVAC loads, PV arrays, EVs),
clears them through the double auction, and dispatches the cleared
power back to the devices. Grid sell orders price at a parametric
locational marginal price that rises with the previous round's demand
to supply ratio on top of a diurnal base curve.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .market import Order, Side, match_orders
from .metrics import MetricsSample
from .weather import DAY_S, diurnal_wave

# Trader id blocks; the offsets give must-serve loads tie-break priority.
GRID_TRADER = 0
UNRESP_BASE = 1000
HVAC_BASE = 2000
PV_BASE = 3000
EV_BASE = 4000
EV_SELL_BASE = 5000


@dataclass
class PriceBook:
    unresponsive: float = 1.00     # $/kWh, must-serve
    hvac: float = 0.50             # high, but below unresponsive
    pv_sell: float = 0.0148
    ev_floor: float = 0.001        # must-discharge floor


class LmpHistory:
    """Rolling grid-price series with the statistics the EV strategy needs,
    all read from one array built on first use after each append."""

    def __init__(self, t_market_s: float = 300.0, long_window_s: float = DAY_S,
                 short_window_s: float = 1800.0):
        self._n_long = max(int(round(long_window_s / t_market_s)), 1)
        self._n_short = max(int(round(short_window_s / t_market_s)), 1)
        self._values: deque[float] = deque(maxlen=self._n_long)
        self._array: np.ndarray | None = None

    def append(self, t: float, lmp: float) -> None:
        self._values.append(lmp)
        self._array = None

    def __len__(self) -> int:
        return len(self._values)

    def _series(self) -> np.ndarray:
        if not self._values:
            raise ValueError("empty LMP history")
        if self._array is None:
            self._array = np.fromiter(self._values, dtype=float,
                                      count=len(self._values))
        return self._array

    @property
    def ma_long(self) -> float:
        return float(np.mean(self._series()))

    @property
    def ma_short(self) -> float:
        return float(np.mean(self._series()[-self._n_short:]))

    @property
    def iqr_long(self) -> float:
        q25, q75 = np.percentile(self._series(), [25, 75])
        return float(q75 - q25)


def base_price(t: float, p_base: float = 0.012,
               amplitude: float = 0.25) -> float:
    """Diurnal grid base price, trough at 04:00 and peak at 18:00."""
    hour = (t % DAY_S) / 3600.0
    return p_base * (1.0 + amplitude * diurnal_wave(hour, 4.0, 18.0, -1.0, 1.0))


def compute_lmp(prev_round_demand_w: float, capacity_w: float, t: float,
                p_base: float = 0.012, alpha: float = 0.75,
                amplitude: float = 0.25) -> float:
    """LMP rises quadratically with the demand to supply ratio."""
    if capacity_w <= 0:
        raise ValueError("capacity must be positive")
    u = min(max(prev_round_demand_w, 0.0) / capacity_w, 1.0)
    return base_price(t, p_base, amplitude) * (1.0 + alpha * u * u)


def formulate_grid_bid(capacity_w: float, lmp: float,
                       trader: int = GRID_TRADER) -> Order:
    return Order(trader, Side.SELL, int(round(capacity_w)), lmp)


def formulate_house_bids(house_index: int, unresponsive_w: float,
                         hvac_demand_w: float, pv_potential_w: float,
                         prices: PriceBook) -> list[Order]:
    orders = []
    if round(unresponsive_w) > 0:
        orders.append(Order(UNRESP_BASE + house_index, Side.BUY,
                            int(round(unresponsive_w)), prices.unresponsive,
                            responsive=False))
    if round(hvac_demand_w) > 0:
        orders.append(Order(HVAC_BASE + house_index, Side.BUY,
                            int(round(hvac_demand_w)), prices.hvac))
    if round(pv_potential_w) > 0:
        orders.append(Order(PV_BASE + house_index, Side.SELL,
                            int(round(pv_potential_w)), prices.pv_sell))
    return orders


def ev_strategy_prices(hist: LmpHistory) -> tuple[float, float]:
    """Buy/sell prices for the two-sided EV bid.

    The buy price tracks the 24 h LMP mean; the sell price sits at least
    a small IQR margin above it so the EV never undercuts itself.
    """
    ma_long = hist.ma_long
    iqr = hist.iqr_long
    buy = ma_long
    sell = max(buy + 0.05 * iqr, hist.ma_short + 0.1 * iqr)
    return buy, sell


def ev_bids_two_sided(load_min_w: float, load_max_w: float) -> bool:
    """True when the EV bids at the strategy prices (range straddles 0)."""
    lo, hi = int(round(load_min_w)), int(round(load_max_w))
    return lo <= 0 <= hi and lo != hi


def formulate_ev_bids(load_min_w: float, load_max_w: float,
                      strategy: tuple[float, float] | None, ev_index: int,
                      prices: PriceBook, buy_rank: int,
                      sell_rank: int) -> list[Order]:
    """Orders of EV `ev_index`; `strategy` is the `ev_strategy_prices`
    pair, read only for a two-sided range. The ranks set the orders'
    priority among EVs (lower fills first); trader ids stay stable."""
    buy_trader, buy_prio = EV_BASE + ev_index, EV_BASE + buy_rank
    sell_trader, sell_prio = EV_SELL_BASE + ev_index, EV_SELL_BASE + sell_rank
    lo, hi = int(round(load_min_w)), int(round(load_max_w))
    if lo == 0 and hi == 0:
        return []
    if lo > 0:
        return [Order(buy_trader, Side.BUY, lo, prices.unresponsive,
                      priority=buy_prio)]
    if hi < 0:
        return [Order(sell_trader, Side.SELL, abs(hi), prices.ev_floor,
                      priority=sell_prio)]
    buy_price, sell_price = strategy
    orders = []
    if hi > 0:
        orders.append(Order(buy_trader, Side.BUY, hi, buy_price,
                            priority=buy_prio))
    if lo < 0:
        orders.append(Order(sell_trader, Side.SELL, abs(lo), sell_price,
                            priority=sell_prio))
    return orders


class SubstationFederate:
    """Runs one clearing round at every market period boundary."""

    def __init__(self, cfg, n_houses: int, n_ev: int, prices: PriceBook):
        self.cfg = cfg
        self.n_houses = n_houses
        self.n_ev = n_ev
        self.prices = prices
        self.capacity_w = cfg.grid_capacity_kw * 1000.0
        self.lmp_capacity_w = cfg.lmp_reference_capacity_kw * 1000.0
        self.hist = LmpHistory(cfg.t_market_s)
        self.prev_demand_w = 0.0
        self.samples: list[MetricsSample] = []
        self.transactions = []
        self.unserved_unresponsive = 0
        self.ev_unfilled_must_charge = 0
        self.max_imbalance_w = 0.0

    def __call__(self, ctx) -> None:
        if ctx.t % self.cfg.t_market_s != 0:
            return
        round_index = int(round(ctx.t / self.cfg.t_market_s))
        lmp = compute_lmp(self.prev_demand_w, self.lmp_capacity_w, ctx.t,
                          self.cfg.lmp_p_base, self.cfg.lmp_alpha,
                          self.cfg.lmp_diurnal_amplitude)
        self.hist.append(ctx.t, lmp)

        orders = [formulate_grid_bid(self.capacity_w, lmp)]
        no_houses = (0.0,) * self.n_houses
        unresp = ctx.read("houses/unresponsive_w", no_houses)
        hvac_demand = ctx.read("houses/hvac_demand_w", no_houses)
        pv_pot = ctx.read("houses/pv_potential_w", no_houses)
        for i in range(self.n_houses):
            orders.extend(formulate_house_bids(
                i, unresp[i], hvac_demand[i], pv_pot[i], self.prices))
        ranges = ctx.read("evs/load_range_w", ((0.0, 0.0),) * self.n_ev)
        socs = ctx.read("evs/soc", (0.0,) * self.n_ev)
        departs = ctx.read("evs/next_depart_s", (float("inf"),) * self.n_ev)
        # EVs all bid the same strategy prices, so a tie-break on trader
        # id would ration scarce supply/demand to the same EVs every
        # round. Instead each EV order carries a priority rank: buys by
        # urgency (soonest next departure, then lowest SoC) so commuters
        # refill before idle vehicles, sells by fullness (descending SoC)
        # so the emptiest EVs keep their reserve.
        by_urgency = sorted(range(self.n_ev),
                            key=lambda j: (departs[j], socs[j], j))
        by_fullness = sorted(range(self.n_ev), key=lambda j: (-socs[j], j))
        buy_rank = {j: r for r, j in enumerate(by_urgency)}
        sell_rank = {j: r for r, j in enumerate(by_fullness)}
        strategy = (ev_strategy_prices(self.hist)
                    if any(ev_bids_two_sided(*r) for r in ranges) else None)
        for j in range(self.n_ev):
            orders.extend(formulate_ev_bids(*ranges[j], strategy, j,
                                            self.prices, buy_rank[j],
                                            sell_rank[j]))

        result = match_orders(orders, round_index)
        self.transactions.extend(result.transactions)
        self._dispatch(ctx, result, unresp, hvac_demand, pv_pot, ranges,
                       lmp, round_index)
        # demand seen at the grid connection point: next round's LMP
        # tracks the import actually drawn from the wider grid, smoothed
        # so the grid/local-supply split settles instead of flip-flopping
        ema = self.cfg.lmp_demand_ema
        grid_import = float(result.sold.get(GRID_TRADER, 0))
        self.prev_demand_w = ema * grid_import + (1 - ema) * self.prev_demand_w

    def _dispatch(self, ctx, result, unresp, hvac_demand, pv_pot, ranges,
                  lmp, round_index) -> None:
        grid_supplied = result.sold.get(GRID_TRADER, 0)
        hvac_total = 0.0
        hvac_granted = []
        unresp_total = 0.0
        slack_w = 0.0
        pv_supplied = 0.0
        pv_potential_total = 0.0
        pv_surplus = 0.0
        for i in range(self.n_houses):
            q_unresp = int(round(unresp[i]))
            unresp_total += q_unresp
            if q_unresp > 0 and result.bought.get(UNRESP_BASE + i, 0) == 0:
                # must-serve load left unfilled: serve it anyway via
                # out-of-market slack and record the violation
                self.unserved_unresponsive += 1
                slack_w += q_unresp
            granted = result.bought.get(HVAC_BASE + i, 0)
            hvac_granted.append(float(granted))
            hvac_total += granted
            sold = result.sold.get(PV_BASE + i, 0)
            pot = int(round(pv_pot[i]))
            pv_supplied += sold
            pv_potential_total += pot
            pv_surplus += max(pot - sold, 0)
        ctx.publish("dispatch/hvac_w", tuple(hvac_granted))

        ev_charge = 0.0
        ev_discharge = 0.0
        ev_surplus = 0.0
        must_charge_w = 0.0
        ev_loads = []
        for j in range(self.n_ev):
            lo, hi = ranges[j]
            bought = result.bought.get(EV_BASE + j, 0)
            sold = result.sold.get(EV_SELL_BASE + j, 0)
            if lo > 0:
                must_charge_w += lo
                if bought == 0:
                    # forced charge left unfilled: the EV charges at its
                    # range minimum anyway, served via out-of-market slack
                    self.ev_unfilled_must_charge += 1
                    bought = int(round(lo))
                    slack_w += bought
            net = float(bought - sold)
            ev_loads.append(net)
            if net > 0:
                ev_charge += net
            else:
                ev_discharge += -net
            if lo < 0:
                ev_surplus += max(abs(lo) - sold, 0)
        ctx.publish("dispatch/ev_load_w", tuple(ev_loads))

        supply = grid_supplied + pv_supplied + ev_discharge + slack_w
        load = unresp_total + hvac_total + ev_charge
        self.max_imbalance_w = max(self.max_imbalance_w, abs(supply - load))

        p_target = unresp_total + sum(hvac_demand) + must_charge_w
        self.samples.append(MetricsSample(
            t=ctx.t,
            mean_t_excess2=ctx.read("houses/mean_t_excess2", 0.0),
            p_target_w=p_target,
            p_supplied_w=grid_supplied + pv_supplied + ev_discharge,
            p_surplus_pv_w=pv_surplus,
            p_surplus_ev_w=ev_surplus,
            round_vwap=result.round_vwap,
            lmp=lmp,
            grid_supplied_w=grid_supplied,
            pv_potential_w=pv_potential_total,
            pv_supplied_w=pv_supplied,
            ev_charge_w=ev_charge,
            ev_discharge_w=ev_discharge,
            hvac_load_w=hvac_total,
            unresponsive_load_w=unresp_total,
            mean_t_air_c=ctx.read("houses/mean_t_air_c", 0.0),
            mean_setpoint_c=ctx.read("houses/mean_t_set_c", 0.0),
        ))

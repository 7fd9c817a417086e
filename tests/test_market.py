"""Double-auction matcher: worked oracles and property-based checks."""

import itertools
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petgrid.market import MarketResult, Order, Side, Transaction, \
    TransactionLog, match_orders, vwap


def buy(trader, q, p, priority=None):
    return Order(trader, Side.BUY, q, p, priority=priority)


def sell(trader, q, p, priority=None):
    return Order(trader, Side.SELL, q, p, priority=priority)


def market_result(fills, round_index=0):
    """A MarketResult holding `fills`, given as Transactions."""
    return MarketResult(round_index, [tx.buyer for tx in fills],
                        [tx.seller for tx in fills],
                        [tx.quantity for tx in fills],
                        [tx.price for tx in fills])


def reference_match_orders(orders, round_index=0):
    """The O(B*S) matcher that scans every seller for every buyer, kept as
    a test-only reference for the prefix-sum matcher."""
    buyers = sorted((o for o in orders if o.side is Side.BUY),
                    key=lambda o: (-o.price, o.priority, o.trader))
    sellers = sorted((o for o in orders if o.side is Side.SELL),
                     key=lambda o: (o.price, o.priority, o.trader))
    remaining = [s.quantity for s in sellers]
    result = MarketResult(round_index)
    for buyer in buyers:
        eligible = [i for i, s in enumerate(sellers)
                    if remaining[i] > 0 and s.price <= buyer.price]
        if sum(remaining[i] for i in eligible) < buyer.quantity:
            continue
        need = buyer.quantity
        for i in eligible:
            if need == 0:
                break
            q = min(remaining[i], need)
            remaining[i] -= q
            need -= q
            for column, value in zip(
                    (result.buyer, result.seller, result.quantity,
                     result.price),
                    (buyer.trader, sellers[i].trader, q, sellers[i].price)):
                column.append(value)
        result.bought[buyer.trader] = (
            result.bought.get(buyer.trader, 0) + buyer.quantity)
    for i, s in enumerate(sellers):
        filled = s.quantity - remaining[i]
        if filled > 0:
            result.sold[s.trader] = result.sold.get(s.trader, 0) + filled
    return result


def test_two_buyer_two_seller_worked_example():
    result = match_orders([
        buy(1, 3000, 0.020), buy(2, 2000, 0.016),
        sell(11, 2000, 0.010), sell(12, 4000, 0.014),
    ])
    assert result.transactions == [
        Transaction(1, 11, 2000, 0.010),
        Transaction(1, 12, 1000, 0.014),
        Transaction(2, 12, 2000, 0.014),
    ]


def test_indivisible_buy_left_unfilled_when_supply_short():
    result = match_orders([buy(1, 5000, 0.02), sell(2, 3000, 0.01)])
    assert result.transactions == []
    assert result.bought == {}
    assert result.sold == {}


def test_no_sellers_no_transactions():
    assert match_orders([buy(1, 1000, 0.02)]).transactions == []
    assert match_orders([]).transactions == []


def test_sellers_above_bid_price_excluded():
    result = match_orders([buy(1, 1000, 0.015),
                           sell(2, 500, 0.010), sell(3, 500, 0.020)])
    # the 0.020 ask is not eligible, so the buy cannot fill
    assert result.transactions == []
    # with enough cheap supply it fills entirely from the eligible seller
    result = match_orders([buy(1, 1000, 0.015),
                           sell(2, 1500, 0.010), sell(3, 500, 0.020)])
    assert result.sold == {2: 1000}


def test_ties_break_on_trader_id():
    result = match_orders([buy(5, 100, 0.02), buy(3, 100, 0.02),
                           sell(9, 100, 0.01)])
    assert result.bought == {3: 100}


def test_priority_defaults_to_trader():
    assert buy(7, 100, 0.02).priority == 7
    assert buy(7, 100, 0.02, priority=2).priority == 2


def test_ties_break_on_priority_before_trader_id():
    result = match_orders([buy(3, 100, 0.02, priority=9),
                           buy(5, 100, 0.02, priority=1),
                           sell(8, 50, 0.01, priority=4),
                           sell(9, 100, 0.01, priority=0)])
    assert result.transactions == [Transaction(5, 9, 100, 0.01)]
    # equal priorities fall back to trader id
    result = match_orders([buy(5, 100, 0.02, priority=1),
                           buy(3, 100, 0.02, priority=1),
                           sell(9, 100, 0.01)])
    assert result.bought == {3: 100}


def test_order_validation():
    with pytest.raises(ValueError):
        Order(1, Side.BUY, 0, 0.01)
    with pytest.raises(ValueError):
        Order(1, Side.SELL, 100, -0.01)
    with pytest.raises(ValueError):
        Order(trader=1, side=Side.BUY, quantity=-5, price=0.01, priority=3)
    assert Order(1, Side.SELL, 100, 0.0).price == 0.0
    assert Order(1, Side.SELL, 100, -0.0).price == 0.0


@pytest.mark.parametrize("price", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", [Side.BUY, Side.SELL])
def test_order_rejects_a_non_finite_price(side, price):
    with pytest.raises(ValueError, match="finite"):
        Order(2, side, 50, price)


def test_a_nan_ask_cannot_clear_ahead_of_real_asks():
    # a NaN ask compares false with every bid, so it used to reach the
    # book and fill 50 W ahead of the 0.5 ask
    with pytest.raises(ValueError):
        match_orders([buy(1, 100, 1.0), sell(2, 50, math.nan),
                      sell(3, 100, 0.5)])
    result = match_orders([buy(1, 100, 1.0), sell(3, 100, 0.5)])
    assert result.transactions == [Transaction(1, 3, 100, 0.5)]


def test_orders_and_fills_are_tuples():
    order = Order(trader=7, side=Side.SELL, quantity=100, price=0.02)
    assert order == (7, Side.SELL, 100, 0.02, 7)
    assert order._fields == ("trader", "side", "quantity", "price",
                             "priority")
    assert Transaction(1, 2, 3, 0.5) == (1, 2, 3, 0.5, 0)
    with pytest.raises(AttributeError):
        order.price = 0.0


def test_market_result_holds_its_fills_as_columns():
    result = match_orders([buy(1, 3000, 0.020), buy(2, 2000, 0.016),
                           sell(11, 2000, 0.010), sell(12, 4000, 0.014)],
                          round_index=4)
    assert result.round_index == 4
    assert (result.buyer, result.seller, result.quantity, result.price) == \
        ([1, 1, 2], [11, 12, 12], [2000, 1000, 2000], [0.010, 0.014, 0.014])
    assert result.transactions == [Transaction(1, 11, 2000, 0.010, 4),
                                   Transaction(1, 12, 1000, 0.014, 4),
                                   Transaction(2, 12, 2000, 0.014, 4)]
    # built on each read, and not settable
    assert result.transactions is not result.transactions
    with pytest.raises(AttributeError):
        result.transactions = []


def test_transaction_log_iterates_its_fills_in_order():
    log = TransactionLog()
    log.extend(0, [], [], [], [])
    assert len(log) == 0 and list(log) == []
    first = [Transaction(1, 2, 300, 0.0155, 7),
             Transaction(1, 3, 200, 0.5, 7)]
    second = match_orders([buy(4, 100, 0.02), sell(5, 150, 0.01)],
                          round_index=8)
    log.extend(7, [1, 1], [2, 3], [300, 200], [0.0155, 0.5])
    log.extend(8, second.buyer, second.seller, second.quantity, second.price)
    assert len(log) == 3
    assert list(log) == first + second.transactions
    assert list(log) == list(log)   # iterating does not consume the log
    # one round entry per extend: its round id and its first fill
    assert list(log.round_ids) == [0, 7, 8]
    assert list(log.round_starts) == [0, 0, 2]
    assert list(log.price) == [0.0155, 0.5, 0.01]


def test_vwap_examples():
    assert vwap([2000, 1000], [0.010, 0.016]) == pytest.approx(0.012)
    assert market_result([Transaction(1, 2, 2000, 0.010),
                          Transaction(1, 3, 1000, 0.016)]).round_vwap == \
        pytest.approx(0.012)
    assert vwap([777], [0.031]) == 0.031
    assert vwap([], []) is None
    assert MarketResult(0).round_vwap is None


def test_vwap_sums_left_to_right():
    # products 1e16, 1, 1: a compensated sum (builtin sum() of floats
    # from Python 3.12 on) gives 1e16 + 2, a left-to-right sum 1e16
    assert vwap([1, 1, 1], [1e16, 1.0, 1.0]) == ((1e16 + 1.0) + 1.0) / 3


# ---------------------------------------------------------------------------
# Property-based checks against a brute-force oracle
# ---------------------------------------------------------------------------

PRICES = [0.005, 0.010, 0.015, 0.020, 0.025]


def random_instance(rng):
    orders = []
    for i in range(rng.randint(0, 5)):
        orders.append(buy(100 + i, rng.randint(1, 4), rng.choice(PRICES)))
    for i in range(rng.randint(0, 5)):
        orders.append(sell(200 + i, rng.randint(1, 4), rng.choice(PRICES)))
    return orders


def check_invariants(orders, result):
    buys = {o.trader: o for o in orders if o.side is Side.BUY}
    sells = {o.trader: o for o in orders if o.side is Side.SELL}
    bought = {t: 0 for t in buys}
    sold = {t: 0 for t in sells}
    for tx in result.transactions:
        assert tx.quantity > 0
        assert tx.price == sells[tx.seller].price           # pay-as-ask
        assert tx.price <= buys[tx.buyer].price             # compatibility
        bought[tx.buyer] += tx.quantity
        sold[tx.seller] += tx.quantity
    for trader, o in buys.items():
        assert bought[trader] in (0, o.quantity)            # indivisible
    for trader, o in sells.items():
        assert 0 <= sold[trader] <= o.quantity              # divisible
    assert sum(bought.values()) == sum(sold.values())       # conservation
    assert result.bought == {t: q for t, q in bought.items() if q}
    assert result.sold == {t: q for t, q in sold.items() if q}


def check_spend_minimality(orders, result):
    """Exhaustively verify each filled buyer pays the minimum possible
    spend given all higher-priority buyers' fills, and that fill/no-fill
    follows remaining eligible supply exactly."""
    buys = sorted((o for o in orders if o.side is Side.BUY),
                  key=lambda o: (-o.price, o.priority, o.trader))
    sells = sorted((o for o in orders if o.side is Side.SELL),
                   key=lambda o: (o.price, o.priority, o.trader))
    remaining = {o.trader: o.quantity for o in sells}
    spend = {}
    for tx in result.transactions:
        spend[tx.buyer] = spend.get(tx.buyer, 0.0) + tx.quantity * tx.price
    for buyer in buys:
        eligible = [o for o in sells
                    if remaining[o.trader] > 0 and o.price <= buyer.price]
        supply = sum(remaining[o.trader] for o in eligible)
        filled = buyer.trader in result.bought
        assert filled == (supply >= buyer.quantity)
        if not filled:
            continue
        best = min(
            sum(q * o.price for q, o in zip(alloc, eligible))
            for alloc in itertools.product(
                *[range(remaining[o.trader] + 1) for o in eligible])
            if sum(alloc) == buyer.quantity
        )
        assert spend[buyer.trader] == pytest.approx(best)
        for tx in result.transactions:
            if tx.buyer == buyer.trader:
                remaining[tx.seller] -= tx.quantity


def test_random_instances_against_oracle():
    rng = random.Random(12345)
    for _ in range(500):
        orders = random_instance(rng)
        result = match_orders(orders)
        check_invariants(orders, result)
        check_spend_minimality(orders, result)


def tie_heavy_instance(rng, n_orders):
    """Many orders on few prices, with shared priorities that differ from
    the trader ids, and supply close to demand so sellers run dry."""
    prices = rng.sample(PRICES, rng.randint(1, 3))
    n_buy = rng.randint(1, n_orders - 1)
    orders = []
    for i in range(n_buy):
        orders.append(buy(100_000 + i, rng.randint(1, 60), rng.choice(prices),
                          priority=rng.choice([None, rng.randint(0, 4)])))
    for i in range(n_orders - n_buy):
        orders.append(sell(200_000 + i, rng.randint(1, 60),
                           rng.choice(prices),
                           priority=rng.choice([None, rng.randint(0, 4)])))
    rng.shuffle(orders)
    return orders


def test_matches_reference_on_large_tie_heavy_instances():
    rng = random.Random(777)
    for n_orders in [100] * 30 + [300] * 10 + [1000] * 4:
        orders = tie_heavy_instance(rng, n_orders)
        expected = reference_match_orders(orders, round_index=3)
        result = match_orders(orders, round_index=3)
        assert result.transactions == expected.transactions
        assert result.bought == expected.bought
        assert list(result.sold.items()) == list(expected.sold.items())
        check_invariants(orders, result)


def test_matches_reference_on_small_instances():
    rng = random.Random(4321)
    for _ in range(2000):
        orders = [Order(o.trader, o.side, o.quantity, o.price,
                        priority=rng.choice([None, 0, 1, 2]))
                  for o in random_instance(rng)]
        expected = reference_match_orders(orders)
        result = match_orders(orders)
        assert result.transactions == expected.transactions
        assert result.sold == expected.sold


def s1_shaped_instance(rng):
    """A book like an uncapped grid round: one large seller, sometimes
    short of demand, and long runs of buyers on two prices, plus equal
    asks, a repeated seller id and a buyer that takes exactly what the
    seller at the cursor has left."""
    buyers = [buy(1000 + i, rng.randint(1, 3000), 1.0)
              for i in range(rng.randint(0, 40))]
    buyers += [buy(2000 + i, 4000, 0.5) for i in range(rng.randint(0, 30))]
    demand = sum(o.quantity for o in buyers)
    grid = rng.choice([demand + rng.randint(1, 10_000_000),
                       rng.randint(1, demand + 1)])
    if buyers and rng.random() < 0.3:
        # the grid's supply ends exactly at the end of the k-th buyer
        grid = sum(o.quantity for o in buyers[:rng.randint(1, len(buyers))])
    sellers = [sell(0, grid, rng.choice([0.0155, 0.5, 1.0]))]
    if rng.random() < 0.5:
        # an equal ask after the grid's, on a higher priority
        sellers.append(sell(3000, rng.randint(1, 5000), sellers[0].price,
                            priority=4000))
    if rng.random() < 0.3:
        # the grid's id again, behind another seller
        sellers += [sell(3001, rng.randint(1, 3000), 0.5),
                    sell(0, rng.randint(1, 3000), 0.5)]
    orders = buyers + sellers
    rng.shuffle(orders)
    return orders


def test_matches_reference_on_single_seller_books():
    rng = random.Random(14)
    exact = 0
    for _ in range(400):
        orders = s1_shaped_instance(rng)
        expected = reference_match_orders(orders, round_index=5)
        result = match_orders(orders, round_index=5)
        assert result.transactions == expected.transactions
        assert list(result.bought.items()) == list(expected.bought.items())
        assert list(result.sold.items()) == list(expected.sold.items())
        grids = [o.quantity for o in orders
                 if o.side is Side.SELL and o.trader == 0]
        if len(grids) == 1:     # the invariants key sellers by trader id
            check_invariants(orders, result)
        exact += result.sold.get(0) == sum(grids)
    assert exact > 20


def test_a_buyer_that_takes_the_rest_of_a_seller_moves_the_cursor():
    result = match_orders([buy(1, 300, 1.0), buy(2, 200, 1.0),
                           buy(3, 100, 1.0), sell(0, 500, 0.01),
                           sell(7, 100, 0.02), sell(0, 50, 0.02)])
    assert result.transactions == [Transaction(1, 0, 300, 0.01),
                                   Transaction(2, 0, 200, 0.01),
                                   Transaction(3, 0, 50, 0.02),
                                   Transaction(3, 7, 50, 0.02)]
    assert list(result.sold.items()) == [(0, 550), (7, 50)]


def test_round_vwap_is_vwap_bit_for_bit():
    rng = random.Random(6)
    books = [[Transaction(1, 2, 5, -0.0)]] + [
        [Transaction(1, 2, rng.randint(1, 2 ** 40),
                     rng.choice([0.0, -0.0, 1e16, 2.0 ** -30, rng.random(),
                                 rng.uniform(0, 1e6)]))
         for _ in range(rng.randint(0, 40))]
        for _ in range(300)]
    for fills in books:
        expected = vwap([tx.quantity for tx in fills],
                        [tx.price for tx in fills])
        got = market_result(fills).round_vwap
        if expected is None:
            assert got is None
        else:
            assert struct.pack("d", got) == struct.pack("d", expected)


@st.composite
def order_lists(draw):
    n_buy = draw(st.integers(0, 5))
    n_sell = draw(st.integers(0, 5))
    priorities = st.none() | st.integers(0, 3)
    orders = []
    for i in range(n_buy):
        orders.append(buy(100 + i, draw(st.integers(1, 4)),
                          draw(st.sampled_from(PRICES)), draw(priorities)))
    for i in range(n_sell):
        orders.append(sell(200 + i, draw(st.integers(1, 4)),
                           draw(st.sampled_from(PRICES)), draw(priorities)))
    return orders


@settings(max_examples=300, deadline=None)
@given(order_lists(), st.randoms(use_true_random=False))
def test_permutation_determinism(orders, shuffler):
    baseline = match_orders(orders)
    shuffled = list(orders)
    shuffler.shuffle(shuffled)
    permuted = match_orders(shuffled)
    assert permuted.transactions == baseline.transactions
    assert permuted.bought == baseline.bought
    assert permuted.sold == baseline.sold


@settings(max_examples=300, deadline=None)
@given(order_lists())
def test_hypothesis_invariants_and_minimality(orders):
    result = match_orders(orders)
    check_invariants(orders, result)
    check_spend_minimality(orders, result)

"""Price-first continuous double auction clearing.

Buy orders are indivisible (all-or-nothing), sell orders divisible.
Buyers are processed in descending price order and filled from the
cheapest price-compatible sellers, if and only if those sellers'
combined remaining quantity covers the full buy quantity. Transactions
price at the seller's ask, which minimizes the spend of each filled
buyer. Equal prices break on each order's `priority`, which defaults to
its trader id, and then on trader id, so results are independent of
input order. Clearing B buyers against S sellers takes
O((B + S) log(B + S)) time. Quantities are integer watts committed for
one market round.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple


class Side(enum.Enum):
    BUY = "buy"
    SELL = "sell"


class _OrderFields(NamedTuple):
    trader: int
    side: Side
    quantity: int          # W, committed for the coming round
    price: float           # $/kWh
    priority: int          # tie-break among equal prices


class Order(_OrderFields):
    """One bid or ask; `priority=None` defaults to the trader id."""

    __slots__ = ()

    def __new__(cls, trader: int, side: Side, quantity: int, price: float,
                priority: int | None = None):
        if quantity <= 0:
            raise ValueError("order quantity must be positive")
        if price < 0:
            raise ValueError("order price must be non-negative")
        return tuple.__new__(cls, (trader, side, quantity, price,
                                   trader if priority is None else priority))


class Transaction(NamedTuple):
    buyer: int
    seller: int
    quantity: int          # W
    price: float           # $/kWh, always the seller's ask
    round_index: int = 0


class TransactionLog:
    """Every fill of a run, one typed array per field.

    Five 8-byte columns hold a fill in 40 bytes, where a `Transaction`
    tuple and the int objects it pins take several times that. Iterating
    the log yields `Transaction`s in the order they were appended.
    """

    def __init__(self):
        self.round_index = array("q")
        self.buyer = array("q")
        self.seller = array("q")
        self.quantity = array("q")
        self.price = array("d")

    def extend(self, transactions) -> None:
        if not transactions:
            return
        buyer, seller, quantity, price, round_index = zip(*transactions)
        self.buyer.extend(buyer)
        self.seller.extend(seller)
        self.quantity.extend(quantity)
        self.price.extend(price)
        self.round_index.extend(round_index)

    def __len__(self) -> int:
        return len(self.buyer)

    def __iter__(self):
        return map(Transaction, self.buyer, self.seller, self.quantity,
                   self.price, self.round_index)


@dataclass
class MarketResult:
    transactions: list[Transaction] = field(default_factory=list)
    bought: dict[int, int] = field(default_factory=dict)
    sold: dict[int, int] = field(default_factory=dict)

    @property
    def round_vwap(self) -> float | None:
        txs = self.transactions
        return vwap((tx.quantity for tx in txs), (tx.price for tx in txs))


def match_orders(orders: list[Order], round_index: int = 0) -> MarketResult:
    """Clear one round of the double auction.

    Buyers descend by price (ties: lower priority, then lower trader id
    first). For each buyer, sellers with ask <= bid are taken
    cheapest-first (ties likewise); the buyer fills only if their
    combined remaining quantity covers it in full. Partial seller fills
    persist across buyers; unfillable buyers are dropped.

    Bids descend and fills take the cheapest sellers first, so the used
    up sellers form a prefix of the sorted sellers: a cursor, prefix sums
    and one bisection per buyer clear B buyers against S sellers in
    O((B + S) log S) after sorting.
    """
    buyers = sorted((o for o in orders if o.side is Side.BUY),
                    key=lambda o: (-o.price, o.priority, o.trader))
    sellers = sorted((o for o in orders if o.side is Side.SELL),
                     key=lambda o: (o.price, o.priority, o.trader))
    asks = [s.price for s in sellers]
    supply = list(accumulate((s.quantity for s in sellers), initial=0))
    # sellers before `cursor` are used up; `used` W have been sold so far
    cursor = used = 0
    result = MarketResult()
    for buyer in buyers:
        if supply[bisect_right(asks, buyer.price)] - used < buyer.quantity:
            continue
        need = buyer.quantity
        while need:
            seller = sellers[cursor]
            q = min(supply[cursor + 1] - used, need)
            used += q
            need -= q
            result.transactions.append(Transaction(
                buyer.trader, seller.trader, q, seller.price, round_index))
            if used == supply[cursor + 1]:
                cursor += 1
        result.bought[buyer.trader] = (
            result.bought.get(buyer.trader, 0) + buyer.quantity)
    for i, s in enumerate(sellers[:cursor + 1]):
        filled = min(used, supply[i + 1]) - supply[i]
        if filled > 0:
            result.sold[s.trader] = result.sold.get(s.trader, 0) + filled
    return result


def vwap(quantities, prices) -> float | None:
    """Volume-weighted average price of fills given as parallel quantity
    and price iterables; None marks a no-trade window.

    The spend is summed left to right: builtin sum() of floats is
    compensated from Python 3.12 on, which changes the last bits.
    """
    total_q = 0
    spend = 0.0
    for quantity, price in zip(quantities, prices, strict=True):
        total_q += quantity
        spend += quantity * price
    if total_q == 0:
        return None
    return spend / total_q

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
from functools import partial
from itertools import accumulate
from operator import itemgetter
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


# keys over an order's fields (trader, side, quantity, price, priority);
# a transaction holds its quantity and price at the same two positions
_TRADER = itemgetter(0)
_QUANTITY = itemgetter(2)
_PRICE = itemgetter(3)
_PRIORITY_TRADER = itemgetter(4, 0)
_PRICE_PRIORITY_TRADER = itemgetter(3, 4, 0)


class Transaction(NamedTuple):
    buyer: int
    seller: int
    quantity: int          # W
    price: float           # $/kWh, always the seller's ask
    round_index: int = 0


# builds a Transaction from one tuple of its fields, without the
# Python-level __new__ that NamedTuple gives it
_transaction = partial(tuple.__new__, Transaction)


class TransactionLog:
    """Every fill of a run, one typed array per field.

    Round and trader ids take 4 bytes each and quantity and price 8, so
    a fill takes 28 bytes, where a `Transaction` tuple and the int
    objects it pins take several times that. A value that does not fit
    its column raises `OverflowError`. Iterating the log yields
    `Transaction`s in the order they were appended.
    """

    def __init__(self):
        self.round_index = array("i")
        self.buyer = array("i")
        self.seller = array("i")
        self.quantity = array("q")
        self.price = array("d")

    def extend(self, transactions) -> None:
        columns = (self.buyer, self.seller, self.quantity, self.price,
                   self.round_index)
        # build every column before extending any, so an overflow adds none
        arrays = [array(column.typecode, values)
                  for column, values in zip(columns, zip(*transactions))]
        for column, values in zip(columns, arrays):
            column.extend(values)

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
        return vwap(map(_QUANTITY, txs), map(_PRICE, txs))


def match_orders(orders: list[Order], round_index: int = 0) -> MarketResult:
    """Clear one round of the double auction.

    Buyers descend by price (ties: lower priority, then lower trader id
    first). For each buyer, sellers with ask <= bid are taken
    cheapest-first (ties likewise); the buyer fills only if their
    combined remaining quantity covers it in full. Partial seller fills
    persist across buyers; unfillable buyers are dropped.

    Buyers are sorted in two stable passes: by (priority, trader), then
    by price with `reverse=True`. A stable sort keeps records with equal
    keys in their earlier order even when reversed, so equal prices keep
    the (priority, trader) order, exactly as one sort on
    (-price, priority, trader) would.

    Bids descend and fills take the cheapest sellers first, so the used
    up sellers form a prefix of the sorted sellers: a cursor, prefix sums
    and one bisection per buyer clear B buyers against S sellers in
    O((B + S) log S) after sorting.
    """
    buy, sell = Side.BUY, Side.SELL     # an enum member lookup is slow
    buyers = [o for o in orders if o.side is buy]
    sellers = [o for o in orders if o.side is sell]
    buyers.sort(key=_PRIORITY_TRADER)
    buyers.sort(key=_PRICE, reverse=True)
    sellers.sort(key=_PRICE_PRIORITY_TRADER)
    seller_ids = list(map(_TRADER, sellers))
    asks = list(map(_PRICE, sellers))
    supply = list(accumulate(map(_QUANTITY, sellers), initial=0))
    # sellers before `cursor` are used up; `used` W have been sold so far
    cursor = used = 0
    result = MarketResult()
    fill = result.transactions.append
    bought, sold = result.bought, result.sold
    for trader, _, quantity, price, _ in buyers:
        if supply[bisect_right(asks, price)] - used < quantity:
            continue
        need = quantity
        while need:
            left = supply[cursor + 1] - used
            q = need if need < left else left
            seller = seller_ids[cursor]
            fill(_transaction((trader, seller, q, asks[cursor], round_index)))
            sold[seller] = sold.get(seller, 0) + q
            used += q
            need -= q
            if q == left:
                cursor += 1
        bought[trader] = bought.get(trader, 0) + quantity
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

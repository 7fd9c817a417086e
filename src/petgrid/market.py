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
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, count, islice, repeat
from operator import itemgetter, sub
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
        if not 0 <= price < math.inf:   # NaN fails every comparison
            raise ValueError("order price must be finite and non-negative")
        return tuple.__new__(cls, (trader, side, quantity, price,
                                   trader if priority is None else priority))


# keys over an order's fields (trader, side, quantity, price, priority)
_TRADER = itemgetter(0)
_QUANTITY = itemgetter(2)
_PRICE = itemgetter(3)
_PRIORITY = itemgetter(4)


class Transaction(NamedTuple):
    buyer: int
    seller: int
    quantity: int          # W
    price: float           # $/kWh, always the seller's ask
    round_index: int = 0


class TransactionLog:
    """Every fill of a run, one typed array per field, and one entry per
    round: entry r is round r.

    Trader ids take 2 bytes each (every id the substation assigns is
    below 2**15), quantity 4 (a fill is at most its buyer's packet,
    which `DOMAINS` keeps below 2**31 W) and price 8, so a fill takes
    16 bytes, where a `Transaction` tuple and the int objects it pins
    take several times that. Each `extend` appends the next round: the
    index of its first fill, 8 bytes. A value that does not fit its
    column raises `OverflowError`. Iterating the log yields
    `Transaction`s in the order they were appended.
    """

    def __init__(self):
        self.buyer = array("h")
        self.seller = array("h")
        self.quantity = array("i")
        self.price = array("d")
        self.round_starts = array("q")

    def extend(self, buyer, seller, quantity, price) -> None:
        """Append the next round's fills, given as equal-length lists."""
        columns = (self.buyer, self.seller, self.quantity, self.price)
        n = len(self.buyer)
        try:
            # fromlist adds all of a list or none of it
            for column, values in zip(columns,
                                      (buyer, seller, quantity, price)):
                column.fromlist(values)
        except OverflowError:
            # cut back what was added: a value that does not fit adds no
            # fill and no round
            for column in columns:
                del column[n:]
            raise
        self.round_starts.append(n)

    def __len__(self) -> int:
        return len(self.buyer)

    def first_fill(self, round_index: int) -> int:
        """The index of round `round_index`'s first fill, or the fill
        count past the last round."""
        starts = self.round_starts
        return starts[round_index] if round_index < len(starts) else len(self)

    def per_fill(self, values):
        """Each round's item of `values`, repeated over its fills."""
        ends = chain(islice(self.round_starts, 1, None), (len(self),))
        return chain.from_iterable(map(repeat, values,
                                       map(sub, ends, self.round_starts)))

    def __iter__(self):
        return map(Transaction, self.buyer, self.seller, self.quantity,
                   self.price, self.per_fill(count()))


@dataclass
class MarketResult:
    """One round's fills as parallel columns in fill order, and the
    watts each buyer bought and each seller sold."""

    buyer: list[int] = field(default_factory=list)
    seller: list[int] = field(default_factory=list)
    quantity: list[int] = field(default_factory=list)        # W
    price: list[float] = field(default_factory=list)         # seller's ask
    bought: dict[int, int] = field(default_factory=dict)
    sold: dict[int, int] = field(default_factory=dict)

    @property
    def transactions(self) -> list[Transaction]:
        """The fills as `Transaction`s of round 0, built on each read."""
        return list(map(Transaction, self.buyer, self.seller, self.quantity,
                        self.price))

    @property
    def round_vwap(self) -> float | None:
        """`vwap` of the round's fills, summed in fill order."""
        return vwap(self.quantity, self.price)


def match_orders(orders: list[Order]) -> MarketResult:
    """Clear one round of the double auction.

    Buyers descend by price (ties: lower priority, then lower trader id
    first). For each buyer, sellers with ask <= bid are taken
    cheapest-first (ties likewise); the buyer fills only if their
    combined remaining quantity covers it in full. Partial seller fills
    persist across buyers; unfillable buyers are dropped.

    The book is sorted in stable passes, each on one field: all orders
    by trader, then by priority, then each side by price, the buyers
    with `reverse=True`. A stable sort keeps records with equal keys in
    their earlier order even when reversed, so each side ends in the
    order of one sort on (-price or price, priority, trader), without
    building a key tuple per order.

    Bids descend and fills take the cheapest sellers first, so the used
    up sellers form a prefix of the sorted sellers: a cursor, prefix sums
    and one bisection per buyer clear B buyers against S sellers in
    O((B + S) log S) after sorting. Every buyer fills through one path;
    one that the seller at the cursor covers alone, at an ask within its
    bid, skips only the bisection. `sold` is read off the used-up prefix
    and the cursor's partial fill once the buyers are done.
    """
    buy, sell = Side.BUY, Side.SELL     # an enum member lookup is slow
    book = sorted(orders, key=_TRADER)
    book.sort(key=_PRIORITY)
    buyers = [o for o in book if o.side is buy]
    sellers = [o for o in book if o.side is sell]
    result = MarketResult()
    if not (buyers and sellers):
        return result
    buyers.sort(key=_PRICE, reverse=True)
    sellers.sort(key=_PRICE)
    seller_ids = list(map(_TRADER, sellers))
    asks = list(map(_PRICE, sellers))
    quantities = list(map(_QUANTITY, sellers))
    supply = list(accumulate(quantities, initial=0))
    n_sellers = len(sellers)
    add_buyer, add_seller = result.buyer.append, result.seller.append
    add_quantity, add_price = result.quantity.append, result.price.append
    bought = result.bought
    # sellers before `cursor` are used up; the one at it has `left` W left
    cursor = 0
    seller, ask, left = seller_ids[0], asks[0], quantities[0]
    for trader, _, quantity, price, _ in buyers:
        need = quantity
        if need >= left or ask > price:     # the cursor alone falls short
            used = supply[cursor + 1] - left
            if supply[bisect_right(asks, price)] - used < quantity:
                continue
            while need >= left:         # takes the rest of this seller
                add_buyer(trader)
                add_seller(seller)
                add_quantity(left)
                add_price(ask)
                need -= left
                cursor += 1
                if cursor == n_sellers:     # need is 0: supply covered it
                    break
                seller, ask = seller_ids[cursor], asks[cursor]
                left = quantities[cursor]
        if need:                        # the rest, from the cursor seller
            add_buyer(trader)
            add_seller(seller)
            add_quantity(need)
            add_price(ask)
            left -= need
        bought[trader] = bought.get(trader, 0) + quantity
        if cursor == n_sellers:
            break
    # the used-up sellers sold all they offered, the one at the cursor
    # what it no longer has left
    sold = result.sold
    filled = quantities[:cursor]
    if cursor < n_sellers:
        filled.append(quantities[cursor] - left)
    for trader, quantity in zip(seller_ids, filled):
        if quantity:
            sold[trader] = sold.get(trader, 0) + quantity
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

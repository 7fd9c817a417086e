#!/usr/bin/env python3
"""Walk through one market round of the double auction by hand.

Buy orders are indivisible (a buyer fills completely or not at all),
sell orders are divisible, and every transaction prices at the seller's
ask — so each filled buyer pays the minimum possible for its packet.
"""

from petgrid.market import Order, Side, match_orders

orders = [
    # a house's must-serve appliance load: tiny quantity, very high price
    Order(trader=1001, side=Side.BUY, quantity=1200, price=1.00),
    # its HVAC packet: high price, but below the must-serve load
    Order(trader=2001, side=Side.BUY, quantity=4000, price=0.50),
    # an EV charging opportunistically near the daily mean price
    Order(trader=4001, side=Side.BUY, quantity=11000, price=0.018),
    # rooftop PV sells cheap...
    Order(trader=3001, side=Side.SELL, quantity=6000, price=0.0148),
    # ...the grid sells whatever is left at the going tariff
    Order(trader=0, side=Side.SELL, quantity=100_000, price=0.0175),
]

print("order book")
for o in orders:
    kind = "BUY " if o.side is Side.BUY else "SELL"
    print(f"  trader {o.trader:>5}  {kind} {o.quantity:>7} W @ "
          f"{o.price:.4f} $/kWh")

result = match_orders(orders)

print("\ntransactions (buyers served best-price-first, pay-as-ask)")
for tx in result.transactions:
    print(f"  {tx.buyer:>5} <- {tx.seller:>5}  {tx.quantity:>7} W @ "
          f"{tx.price:.4f}")

print(f"\nround VWAP: {result.round_vwap:.5f} $/kWh")
print("note: the EV's 11 kW packet cleared entirely because cheap PV")
print("plus grid headroom covered it in full; had supply fallen short,")
print("the indivisible packet would have been dropped, not trimmed.")

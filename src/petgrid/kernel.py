"""Discrete-time federation scheduler with a latest-value message bus.

Federates register a step handler and exchange scalars or tuples through
named topics. A value published during step k becomes visible to every
federate at step k+1; no federate can observe a value from its own step
(barrier semantics). A published value must be hashable, such as a
scalar or a tuple of scalars, so no federate can change what another
one reads. Execution is single-threaded and deterministic: federates are
stepped in registration order, and the kernel draws no random numbers.

The kernel also owns the market-round schedule. With n steps per round,
round r clears at step n*r against the inputs published at step n*r - 1,
and its dispatch is in force over steps n*r + 1 .. n*r + n. At each
clearing barrier the kernel keeps the values visible during that step,
which `read_cleared` serves until the next clearing barrier.
Each federate gets one `StepContext` per `run()`, updated in place at
every step, so a context is valid only during its step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class FederationError(Exception):
    """Raised for registration, ownership, or scheduling violations."""


class FederateFailure(FederationError):
    """Raised when a federate's step handler signals fatal failure."""


def whole_steps(span: float, step: float) -> int:
    """The n >= 1 for which n * step == span exactly, else 0. Unlike
    `span % step` it takes a decimal step (3000 * 0.1 == 300.0), and it
    refuses a near multiple (3 * 0.3 != 0.9), whose step times drift."""
    n = round(span / step) if span / step < 2**53 else 0
    return n if n >= 1 and n * step == span else 0


@dataclass(frozen=True)
class SimClock:
    """Simulation clock: physics step and market period, both in seconds."""

    step: float
    t_market: float

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not whole_steps(self.t_market, self.step):
            raise ValueError(
                f"t_market ({self.t_market}) must be a positive integer "
                f"multiple of step ({self.step})"
            )


class StepContext:
    """View of the bus handed to a federate during one step.

    Reads see values committed up to the previous barrier; writes are
    buffered and become visible only after this step's barrier. The
    round that clears at this step and the round whose inputs are
    published at it are `clearing_round` and `next_round`, else None.
    The kernel hands a federate the same context at every step of a
    run and updates its fields in place, so a context is valid only
    during its step: keep the values it holds, never the context.
    """

    def __init__(self, federation: "Federation", fed_id: int):
        self._federation = federation
        self.fed_id = fed_id
        self.t = 0.0
        self.clearing_round: int | None = None
        self.next_round: int | None = None

    def read(self, key: str, default: float = 0.0):
        return self._federation._visible.get(key, default)

    def read_cleared(self, key: str, default):
        """The value of `key` the latest cleared round saw, or `default`."""
        return self._federation._cleared.get(key, default)

    def publish(self, key: str, value) -> None:
        self._federation._publish(self.fed_id, key, value)


class Federation:
    """Lock-step scheduler playing the broker role for all federates."""

    def __init__(self, step_s: float, t_market_s: float):
        self.clock = SimClock(step=step_s, t_market=t_market_s)
        self._names: list[str] = []
        self._handlers: list[Callable[[StepContext], None]] = []
        self._visible: dict[str, object] = {}
        self._pending: dict[str, object] = {}
        self._cleared: dict[str, object] = {}
        self._owners: dict[str, int] = {}
        self._running = False
        self._k = 0

    # -- registration -----------------------------------------------------

    def register_federate(self, name: str,
                          handler: Callable[[StepContext], None]) -> int:
        if self._running:
            raise FederationError("cannot register federates after run() starts")
        if name in self._names:
            raise FederationError(f"duplicate federate name: {name!r}")
        self._names.append(name)
        self._handlers.append(handler)
        return len(self._names) - 1

    # -- bus --------------------------------------------------------------

    def _publish(self, fed_id: int, key: str, value) -> None:
        owner = self._owners.setdefault(key, fed_id)
        if owner != fed_id:
            raise FederationError(
                f"federate {self._names[fed_id]!r} may not publish to "
                f"{key!r} (owned by {self._names[owner]!r})"
            )
        try:
            hash(value)
        except TypeError:
            raise FederationError(
                f"federate {self._names[fed_id]!r} published a mutable "
                f"{type(value).__name__} to {key!r}; publish a scalar or tuple"
            ) from None
        self._pending[key] = value

    # -- execution --------------------------------------------------------

    def run(self, until_s: float) -> None:
        step = self.clock.step
        if not (n := whole_steps(until_s, step)):
            raise ValueError("run horizon must be a multiple of the step")
        self._running = True
        per_round = whole_steps(self.clock.t_market, step)
        start = self._k
        steps = [(StepContext(self, fed_id), handler)
                 for fed_id, handler in enumerate(self._handlers)]
        for k in range(start, start + n):
            t = k * step
            clearing = k // per_round if k % per_round == 0 else None
            upcoming = (k + 1) // per_round if (k + 1) % per_round == 0 else None
            for ctx, handler in steps:
                ctx.t, ctx.clearing_round = t, clearing
                ctx.next_round = upcoming
                try:
                    handler(ctx)
                except FederationError:
                    raise
                except Exception as exc:
                    raise FederateFailure(
                        f"federate {self._names[ctx.fed_id]!r} failed at "
                        f"t={t:.0f}s: {exc}"
                    ) from exc
            # barrier: keep what a clearing round saw, then commit this
            # step's publications
            if clearing is not None:
                self._cleared = dict(self._visible)
            self._visible.update(self._pending)
            self._pending.clear()
            self._k = k + 1

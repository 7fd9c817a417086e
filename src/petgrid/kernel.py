"""Discrete-time federation scheduler with a latest-value message bus.

Federates register a step handler and exchange scalars or tuples through
named topics. A value published during step k becomes visible to every
federate at step k+1; no federate can observe a value from its own step
(barrier semantics). A published value must be hashable, such as a
scalar or a tuple of scalars, so no federate can change what another
one reads. Execution is single-threaded and deterministic: federates are
stepped in registration order with one private RNG stream each, so the
same seed and configuration always produce the same published values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class FederationError(Exception):
    """Raised for registration, ownership, or scheduling violations."""


class FederateFailure(FederationError):
    """Raised when a federate's step handler signals fatal failure."""


@dataclass(frozen=True)
class SimClock:
    """Simulation clock: physics step and market period, both in seconds."""

    t: float
    step: float
    t_market: float

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.t_market % self.step != 0:
            raise ValueError(
                f"t_market ({self.t_market}) must be an integer multiple "
                f"of step ({self.step})"
            )


class StepContext:
    """View of the bus handed to a federate during one step.

    Reads see values committed up to the previous barrier; writes are
    buffered and become visible only after this step's barrier.
    """

    def __init__(self, federation: "Federation", fed_id: int, t: float):
        self._federation = federation
        self.fed_id = fed_id
        self.t = t
        self.rng = federation._rngs[fed_id]

    def read(self, key: str, default: float = 0.0):
        return self._federation._visible.get(key, default)

    def publish(self, key: str, value) -> None:
        self._federation._publish(self.fed_id, key, value)


class Federation:
    """Lock-step scheduler playing the broker role for all federates."""

    def __init__(self, step_s: float = 60.0, t_market_s: float = 300.0,
                 seed: int = 0):
        self.clock = SimClock(t=0.0, step=step_s, t_market=t_market_s)
        self._names: list[str] = []
        self._handlers: list[Callable[[StepContext], None]] = []
        self._rngs: list[np.random.Generator] = []
        self._seed_seq = np.random.SeedSequence(seed)
        self._visible: dict[str, object] = {}
        self._pending: dict[str, object] = {}
        self._owners: dict[str, int] = {}
        self._running = False
        self._t = 0.0

    # -- registration -----------------------------------------------------

    def register_federate(self, name: str,
                          handler: Callable[[StepContext], None]) -> int:
        if self._running:
            raise FederationError("cannot register federates after run() starts")
        if name in self._names:
            raise FederationError(f"duplicate federate name: {name!r}")
        fed_id = len(self._names)
        self._names.append(name)
        self._handlers.append(handler)
        self._rngs.append(np.random.default_rng(self._seed_seq.spawn(1)[0]))
        return fed_id

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
        if until_s % self.clock.step != 0:
            raise ValueError("run horizon must be a multiple of the step")
        self._running = True
        n_steps = int(round(until_s / self.clock.step))
        for k in range(n_steps):
            t = self._t
            for fed_id, handler in enumerate(self._handlers):
                ctx = StepContext(self, fed_id, t)
                try:
                    handler(ctx)
                except FederationError:
                    raise
                except Exception as exc:
                    raise FederateFailure(
                        f"federate {self._names[fed_id]!r} failed at "
                        f"t={t:.0f}s: {exc}"
                    ) from exc
            # barrier: commit this step's publications
            self._visible.update(self._pending)
            self._pending.clear()
            self._t = t + self.clock.step

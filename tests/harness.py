"""Stand-ins that the tests share, kept out of collection by its name: a
federate's step context outside a federation, a call spy and a runner
for a child interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

from petgrid.kernel import FederationError

SRC = Path(__file__).resolve().parents[1] / "src"


class StubContext:
    """One step of a federate without a federation. `read` serves `bus`
    and `read_cleared` serves `cleared`, each with the kernel's default;
    `reads` maps each key read to the value served. `published` maps
    each key published to its value, and like the kernel, `publish`
    refuses a value that is not hashable."""

    def __init__(self, t=0.0, clearing_round=None, next_round=None,
                 bus=None, cleared=None):
        self.t, self.clearing_round, self.next_round = (t, clearing_round,
                                                        next_round)
        self.bus, self.cleared = bus or {}, cleared or {}
        self.reads, self.published = {}, {}

    def read(self, key, default=0.0):
        self.reads[key] = self.bus.get(key, default)
        return self.reads[key]

    def read_cleared(self, key, default):
        self.reads[key] = self.cleared.get(key, default)
        return self.reads[key]

    def publish(self, key, value):
        try:
            hash(value)
        except TypeError:
            raise FederationError(
                f"published a mutable {type(value).__name__} to {key!r}"
            ) from None
        self.published[key] = value


class Call(NamedTuple):
    """One call that a `spy` saw."""
    args: tuple
    result: object


def spy(monkeypatch, owner, name, record=None) -> list:
    """Wrap `owner.name` for the rest of the test and return the list of
    its calls, each a `Call` of the positional arguments and the result.
    With `record`, an entry is `record(*args)` instead, taken when the
    call starts: the kernel reuses a step context across steps, so a
    context kept in a list shows only its last step."""
    calls, original = [], getattr(owner, name)

    def wrapper(*args):
        if record is not None:
            calls.append(record(*args))
        result = original(*args)
        if record is None:
            calls.append(Call(args, result))
        return result

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def run_child(*args, timeout=120, **env) -> subprocess.CompletedProcess:
    """`python *args` in a child process, with `src` first on PYTHONPATH
    and `env` added to its environment, its output captured as text."""
    path = os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, timeout=timeout)

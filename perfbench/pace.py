"""Host pace: a fixed piece of work timed beside every measured call.

On a shared host the same code runs up to about 1.8x slower for
stretches of seconds to minutes as other tenants load the machine, and
the guest sees this neither as steal time nor in its CPU-time clocks: a
fixed pure-Python loop timed back to back read 14 to 23 ms per
one-second median, with thread time equal to wall time throughout.  A
run's median then depends on how much of its window met slow stretches.

So every measured call is bracketed by a short fixed piece of work, the
*pace probe*, and the call's wall time is scaled by how long the probes
around it took: ``scaled = wall * REFERENCE_S / mean(probe before, probe
after)``.  Scaled times are the times the call would take on the host at
the speed where one probe takes :data:`REFERENCE_S`, about the quiet
speed of the 2-vCPU host the benchmark was tuned on.  The probe runs
none of the program's code, so a change to the program moves scaled
times as it moves wall times; only the host's speed cancels.

The probe mixes integer arithmetic with object work (method calls,
attribute reads, a dict, a sort, string formatting): the program's
reads slowed more than arithmetic alone when the host did, and about as
much as this mix.  It runs with the garbage collector off, so it never
walks the program's heap.
"""

from __future__ import annotations

import gc
from collections.abc import Callable
from typing import Any, TypeVar

from repro.obs import Stopwatch

#: Iterations of the probe's arithmetic loop.
LOOPS = 7_500

#: Rounds of the probe's object work; with the loop, about 1 ms on a
#: quiet 2-vCPU Xeon host.
ROUNDS = 4

#: Every scaled time is at the host speed where one probe takes this long.
REFERENCE_S = 0.001

T = TypeVar("T")


class _Item:
    __slots__ = ("weight", "offset")

    def __init__(self, weight: float, offset: float) -> None:
        self.weight = weight
        self.offset = offset

    def value(self, x: float) -> float:
        return self.weight * x + self.offset


_ITEMS = [_Item(i, i * 0.5) for i in range(256)]
_KEYS = [f"k{i}" for i in range(256)]


def _arithmetic() -> int:
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return total


def _objects() -> float:
    table: dict[str, float] = {}
    for key, item in zip(_KEYS, _ITEMS):
        table[key] = item.value(1.5)
    total = 0.0
    for _ in range(3):
        for key in _KEYS:
            total += table[key]
    ranked = sorted(table.values(), reverse=True)
    return total + len(",".join([f"{x:.2f}" for x in ranked[:128]]))


def probe_work() -> None:
    """The probe's fixed work, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _arithmetic()
        for _ in range(ROUNDS):
            _objects()
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Probes around measured calls, and the calls' times scaled by them.

    Calls measured back to back share a probe: the one after a call is
    the one before the next.
    """

    def __init__(self) -> None:
        self.last: float | None = None
        self.probes: list[float] = []

    def probe(self) -> float:
        took = Stopwatch.time_call(probe_work)[1]
        self.probes.append(took)
        self.last = took
        return took

    def time_call(
        self, timed: Callable[..., tuple[T, float]], *args: Any
    ) -> tuple[T, float, float]:
        """``timed(*args)``, which returns ``(result, seconds)``, between two
        probes; returns ``(result, wall seconds, scaled seconds)``."""
        before = self.last if self.last is not None else self.probe()
        result, took = timed(*args)
        after = self.probe()
        return result, took, took * REFERENCE_S * 2.0 / (before + after)

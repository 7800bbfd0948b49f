"""Host-speed probe: a fixed pure-Python workload timed next to each sample.

The shared host this benchmark was tuned on changes speed by up to ±20%
over minutes while the process stays on the CPU the whole time (CPU time
equals wall time), which moves every wall-clock figure of a run
together.  Each packet repetition is therefore timed between two runs of
this probe and scaled by the host factor: the probe's time over
:data:`REFERENCE_S`.  A scaled figure reads as it would on a host where
the probe takes exactly :data:`REFERENCE_S`.  The probe uses none of the
program's code, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Any, Callable

#: Probe time on the host the benchmark was tuned on (2 vCPU, Python 3.11).
REFERENCE_S = 0.040

#: Events per probe run: about 40 ms on that host.
PROBE_EVENTS = 40_000


class _Item:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0


def probe_seconds(events: int = PROBE_EVENTS) -> float:
    """Wall time of a fixed heap-driven event loop over slotted objects,
    the interpreter work the simulator's engine does most.  Garbage the
    caller left is collected first, outside the timing."""
    gc.collect()
    heap = [(i, i, _Item(i)) for i in range(64)]
    heapq.heapify(heap)
    table: dict[int, _Item] = {}
    start = time.perf_counter()
    for _ in range(events):
        when, seq, item = heapq.heappop(heap)
        item.hits += 1
        table[seq & 255] = item
        heapq.heappush(heap, (when + (seq * 7919) % 97 + 1, seq, item))
    return time.perf_counter() - start


def on_reference_host(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``fn`` between two probes; return its result and the host
    factor (above 1 means the host ran slower than the reference).
    Divide a wall time by the factor, multiply a rate by it."""
    before = probe_seconds()
    result = fn()
    after = probe_seconds()
    return result, (before + after) / 2 / REFERENCE_S

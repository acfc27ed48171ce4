"""A host-speed probe, so that host timings survive a shared host.

On a VM that shares its cores with other tenants the same work can run
at two speeds, and the slow one, about 1.6-2x slower, can last from a
fraction of a second to minutes.  ``best_wall_s`` (in ``run.py``)
removes the short bursts; this probe removes the long phases.

The probe is a fixed pure-Python loop of the simulator's kind of work
(dict lookups and stores, a bounded heap of tuples, small slotted
objects, string formatting) that calls no code of the program under
test.  The runner times it once before every set-up and every timed
segment, outside the timed regions, so each sample finds the caches as
the simulator left them.  A fast quantile of a run's samples is the
host's speed during that run, and its times are reported as if that
quantile had been ``REFERENCE_NS``:

    reported time = measured time * REFERENCE_NS / probe quantile

A change to the program moves the measured times and not the probe, so
the reported times move by the same share.  The probe's working set is
small, so it tracks contention for the core better than contention for
the shared cache and memory; see ``README.md`` for what that leaves.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Iterable, List

#: The probe's time between segments on an uncontended 2-vCPU Xeon VM at
#: Python 3.11; the speed that reported host timings are scaled to.
REFERENCE_NS = 2_000_000
#: Which quantile of a run's probe samples stands for the host's speed.
QUANTILE = 0.1
ITERATIONS = 1000


class _Event:
    __slots__ = ("at", "name", "payload")

    def __init__(self, at, name, payload):
        self.at = at
        self.name = name
        self.payload = payload


def probe_ns() -> int:
    """Wall time of one fixed probe loop, in nanoseconds."""
    began = time.perf_counter_ns()
    heap: List[tuple] = []
    store = {}
    x = 12345
    for i in range(ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = "m%04d" % (x % 2000)
        ad = store.get(key)
        if ad is None:
            ad = store[key] = {"Name": key, "Memory": x % 512, "Arch": "INTEL"}
        ad["Seq"] = i
        heapq.heappush(heap, (x % 1000 + i, i, _Event(i, key, ad)))
        if len(heap) > 500:
            heapq.heappop(heap)
    return time.perf_counter_ns() - began


def host_factor(samples: Iterable[int]) -> float:
    """``REFERENCE_NS`` over the QUANTILE quantile of the probe samples:
    below 1 on a host slower than the reference."""
    ordered = sorted(samples)
    if len(ordered) < 2:
        return REFERENCE_NS / ordered[0]
    cut = statistics.quantiles(ordered, n=round(1 / QUANTILE), method="inclusive")[0]
    return REFERENCE_NS / cut

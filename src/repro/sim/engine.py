"""Discrete-event simulation engine — S12 in DESIGN.md.

A minimal, deterministic DES kernel: events fire in ``(time, sequence)``
order, so simultaneous events fire in schedule order and every run is
exactly reproducible.  This is the substrate on which the "distributed"
system runs; the paper's campus pool becomes agents exchanging messages
over :mod:`repro.sim.network` on this clock.

Soft state makes the kernel's load regular: every agent re-advertises
every period, every message is a scheduled event, and same-instant
delivery bursts are the common case.  The queue is shaped for that:

* entries are mutable ``[time, seq, fn, arg]`` records — callers pass
  ``schedule(delay, fn, arg)`` and no per-event closure is built;
* runs of same-timestamp events (an advertising burst, a delivery
  fan-out) land in a FIFO *bucket* instead of the heap: one O(1)
  append/popleft per event instead of an O(log n) push/pop pair;
* cancellation marks the entry in place (``fn = None``), so
  ``pending()`` is an O(1) live counter and cancelling an already-fired
  handle is a no-op;
* the per-event ``sim.events`` counter bump sits behind the metrics
  registry's ``enabled`` flag.

The ``(time, seq)`` total order is load-bearing (every differential,
chaos, and tracing suite depends on it).  ``tests/sim/reference_kernel.py``
keeps a plain tuple-heap kernel as a test oracle:
``tests/sim/test_engine_property.py`` drives both through interleaved
schedule/cancel/step programs asserting identical firing order, and
``benchmarks/bench_engine.py`` measures the gap that CI gates
(``engine_event_throughput``).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, List, Optional

from ..obs import event_log as _event_log, metrics as _metrics
from ..obs.causal import causal_log as _causal_log
from ..obs.timeseries import series as _series

# The event counter is the denominator for throughput (events per
# wall-second); step() bumps it only while the registry is enabled, so
# a disabled registry costs a single attribute check per event.
_SIM_EVENTS = _metrics.counter("sim.events", "simulation events dispatched")
_SIM_EVENT_RATE = _metrics.gauge(
    "sim.events_per_wall_second",
    "raw kernel dispatch throughput, recorded by benchmarks/bench_engine.py",
)

#: Sentinel: "call ``fn`` with no argument" (``None`` is a valid arg).
_NO_ARG = object()


class EventHandle(list):
    """Returned by schedule(); lets the caller cancel the event.

    The handle *is* the queue entry — a mutable ``[time, seq, fn, arg]``
    list — so scheduling an event allocates exactly one object.
    Ordering is the inherited elementwise list comparison: sequence
    numbers are unique, so two entries always order on ``(time, seq)``
    and callbacks are never compared.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[0]

    @property
    def sequence(self) -> int:
        return self[1]

    def __hash__(self) -> int:  # identity on (time, seq); both are frozen
        return hash((self[0], self[1]))

    def __repr__(self) -> str:
        return f"EventHandle(time={self[0]!r}, sequence={self[1]!r})"


class Simulator:
    """The simulation clock and event queue.

    Typical agent code::

        sim = Simulator()
        sim.schedule(5.0, callback)          # fn called as callback()
        sim.schedule(5.0, handler, message)  # fn called as handler(message)
        sim.every(60.0, advertise)           # periodic timer
        sim.run_until(3600.0)
    """

    def __init__(self, start: float = 0.0):
        self.now = start
        self._sequence = itertools.count()
        self.events_processed = 0
        # Mutable [time, seq, fn, arg] entries; a FIFO bucket absorbs
        # runs of same-timestamp schedules; _pending_count is a live
        # counter maintained by schedule/cancel/step.  Neither container
        # is ever rebound — run loops hold locals.
        self._heap: List[list] = []
        self._bucket: deque = deque()
        self._bucket_time: float = start
        self._last_time: Optional[float] = None
        self._pending_count = 0
        # Forensics: the newest simulator becomes the clock of every
        # recorded stream (events, causal spans, pool series), so
        # everything recorded during a simulation is stamped with
        # simulated time.  Each stream's reset() restores the wall clock.
        _event_log.set_clock(lambda: self.now)
        _causal_log.set_clock(lambda: self.now)
        _series.set_clock(lambda: self.now)
        _event_log.emit("sim.started", t=self.now)

    # -- scheduling ------------------------------------------------------

    def schedule(
        self, delay: float, fn: Callable, arg: Any = _NO_ARG
    ) -> EventHandle:
        """Run *fn* after *delay* simulated seconds.

        With *arg* given the event fires as ``fn(arg)``; without it, as
        ``fn()`` — so hot callers pass a bound method plus its argument
        instead of allocating a closure per event.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        # Inlined schedule_at (delay >= 0 already proves the past-check):
        # this is the hottest call in a full-pool run.
        time = self.now + delay
        entry = EventHandle((time, next(self._sequence), fn, arg))
        bucket = self._bucket
        if bucket:
            if time == self._bucket_time:
                bucket.append(entry)
            else:
                heapq.heappush(self._heap, entry)
        elif time == self._last_time:
            # Second same-instant schedule in a row: a run is starting,
            # open the bucket for it.  (The first went to the heap with
            # a smaller sequence, so ordering still holds.)
            self._bucket_time = time
            bucket.append(entry)
        else:
            self._last_time = time
            heapq.heappush(self._heap, entry)
        self._pending_count += 1
        return entry

    def schedule_at(
        self, time: float, fn: Callable, arg: Any = _NO_ARG
    ) -> EventHandle:
        """Run *fn* at absolute simulated *time* (see :meth:`schedule`)."""
        if time < self.now:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        entry = EventHandle((time, next(self._sequence), fn, arg))
        bucket = self._bucket
        if bucket:
            # Invariant: while the bucket is open at _bucket_time, every
            # schedule at that instant appends here — so heap-resident
            # entries at the same instant (pushed before it opened) all
            # carry smaller sequences and still fire first.
            if time == self._bucket_time:
                bucket.append(entry)
            else:
                heapq.heappush(self._heap, entry)
        elif time == self._last_time:
            # Open the bucket lazily, on the second same-instant
            # schedule in a row — sparse timer loads stay pure-heap.
            self._bucket_time = time
            bucket.append(entry)
        else:
            self._last_time = time
            heapq.heappush(self._heap, entry)
        self._pending_count += 1
        return entry

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event; cancelling one that already fired
        (or was already cancelled) is a no-op."""
        if handle[2] is not None:
            handle[2] = None
            self._pending_count -= 1

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        start_delay: Optional[float] = None,
    ) -> "PeriodicTask":
        """Run *callback* every *interval* seconds until stopped.

        The first firing happens after ``start_delay`` (default: one full
        interval), matching how Condor daemons start their timers.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        task = PeriodicTask(self, interval, callback)
        task._arm(interval if start_delay is None else start_delay)
        return task

    # -- execution ---------------------------------------------------------

    def _head(self) -> Optional[list]:
        """The next live entry (heads cleaned), unpopped."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        bucket = self._bucket
        while bucket and bucket[0][2] is None:
            bucket.popleft()
        if bucket:
            if heap and heap[0] < bucket[0]:
                return heap[0]
            return bucket[0]
        return heap[0] if heap else None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or None."""
        head = self._head()
        return head[0] if head is not None else None

    def step(self) -> bool:
        """Process one event; False when the queue is empty."""
        entry = self._head()
        if entry is None:
            return False
        # pop whichever structure holds the head
        if self._bucket and entry is self._bucket[0]:
            self._bucket.popleft()
        else:
            heapq.heappop(self._heap)
        time = entry[0]
        if time < self.now:
            raise AssertionError("causality violation: event in the past")
        self.now = time
        self.events_processed += 1
        self._pending_count -= 1
        fn = entry[2]
        arg = entry[3]
        entry[2] = None  # mark fired: cancel-after-fire stays a no-op
        if _metrics.enabled:
            _SIM_EVENTS.inc()
        if arg is _NO_ARG:
            fn()
        else:
            fn(arg)
        return True

    def run_until(self, time: float) -> None:
        """Process events up to and including simulated *time*."""
        # Inlined dispatch loop: no per-event method calls beyond the
        # callback itself.  The past-event assertion is omitted here —
        # schedule_at's guard makes it unreachable (step() still
        # carries it).
        heap = self._heap
        bucket = self._bucket
        registry = _metrics
        pop_heap = heapq.heappop
        popleft = bucket.popleft
        while True:
            while heap and heap[0][2] is None:
                pop_heap(heap)
            while bucket and bucket[0][2] is None:
                popleft()
            if bucket:
                b0 = bucket[0]
                if heap and heap[0] < b0:
                    entry = heap[0]
                    if entry[0] > time:
                        break
                    pop_heap(heap)
                else:
                    # The bucket head wins, and the rest of the bucket
                    # shares its timestamp: nothing a fired callback
                    # schedules can preempt the run (same-instant
                    # schedules append behind us; later times go to the
                    # heap, which already lost).  Drain the run in one
                    # tight loop with the clock write hoisted and the
                    # counters batched.  The timestamp re-check guards
                    # the one escape hatch: if the bucket momentarily
                    # empties mid-run, a callback can re-open it at a
                    # later instant.
                    now_t = b0[0]
                    if now_t > time:
                        break
                    self.now = now_t
                    fired = 0
                    while bucket:
                        entry = bucket[0]
                        if entry[0] != now_t:
                            break
                        popleft()
                        fn = entry[2]
                        if fn is None:
                            continue
                        entry[2] = None  # cancel-after-fire no-ops
                        fired += 1
                        if registry.enabled:
                            _SIM_EVENTS.inc()
                        arg = entry[3]
                        if arg is _NO_ARG:
                            fn()
                        else:
                            fn(arg)
                    self.events_processed += fired
                    self._pending_count -= fired
                    continue
            elif heap:
                entry = heap[0]
                if entry[0] > time:
                    break
                pop_heap(heap)
            else:
                break
            self.now = entry[0]
            self.events_processed += 1
            self._pending_count -= 1
            fn = entry[2]
            arg = entry[3]
            entry[2] = None  # mark fired: cancel-after-fire is a no-op
            if registry.enabled:
                _SIM_EVENTS.inc()
            if arg is _NO_ARG:
                fn()
            else:
                fn(arg)
        self.now = max(self.now, time)

    def run(self, max_events: Optional[int] = None) -> int:
        """Process events until the queue drains (or *max_events* have
        fired; a limit of zero or less fires nothing)."""
        processed = 0
        while max_events is None or processed < max_events:
            if not self.step():
                break
            processed += 1
        return processed

    def pending(self) -> int:
        """Number of pending (non-cancelled) events — O(1)."""
        return self._pending_count


class PeriodicTask:
    """A repeating timer created by :meth:`Simulator.every`.

    Re-arming reuses one bound method (``_fire_cb``) captured at
    construction, so a million firings allocate no closures — just the
    kernel's own event entry per arm.
    """

    __slots__ = ("sim", "interval", "callback", "stopped", "firings", "_handle", "_fire_cb")

    def __init__(self, sim: Simulator, interval: float, callback: Callable[[], None]):
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.stopped = False
        self.firings = 0
        self._handle: Optional[EventHandle] = None
        self._fire_cb = self._fire

    def _arm(self, delay: float) -> None:
        self._handle = self.sim.schedule(delay, self._fire_cb)

    def _fire(self) -> None:
        if self.stopped:
            return
        self.firings += 1
        self.callback()
        if not self.stopped:  # the callback may have stopped us
            self._arm(self.interval)

    def stop(self) -> None:
        self.stopped = True
        if self._handle is not None:
            self.sim.cancel(self._handle)

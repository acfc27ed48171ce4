"""Reference heap kernel: the test oracle for :class:`repro.sim.Simulator`.

A plain DES queue — immutable ``(time, seq, fn, arg)`` tuples on one
heap plus a set of live sequence numbers — with none of the bundled
kernel's bucket, in-place cancellation or inlined dispatch.  The
differential suites run the same programs and pools on both and require
identical results; ``benchmarks/bench_engine.py`` uses it as the
denominator of the ``engine_event_throughput`` gate.  ``every``,
``run`` and the forensics clock hookup are inherited unchanged.
"""

import heapq

from repro.sim.engine import _NO_ARG, _SIM_EVENTS, EventHandle, Simulator


class ReferenceSimulator(Simulator):
    def __init__(self, start: float = 0.0):
        super().__init__(start)
        self._live: set = set()

    def schedule(self, delay, fn, arg=_NO_ARG):
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, arg)

    def schedule_at(self, time, fn, arg=_NO_ARG):
        if time < self.now:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        seq = next(self._sequence)
        heapq.heappush(self._heap, (time, seq, fn, arg))
        self._live.add(seq)
        return EventHandle((time, seq))

    def cancel(self, handle):
        self._live.discard(handle[1])

    def peek_time(self):
        heap = self._heap
        while heap and heap[0][1] not in self._live:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self):
        if self.peek_time() is None:
            return False
        time, seq, fn, arg = heapq.heappop(self._heap)
        self._live.remove(seq)
        if time < self.now:
            raise AssertionError("causality violation: event in the past")
        self.now = time
        self.events_processed += 1
        # Unconditional per-event metrics call (the counter's own guard
        # eats it when disabled), as a plain kernel would make it.
        _SIM_EVENTS.inc()
        if arg is _NO_ARG:
            fn()
        else:
            fn(arg)
        return True

    def run_until(self, time):
        while True:
            when = self.peek_time()
            if when is None or when > time:
                break
            self.step()
        self.now = max(self.now, time)

    def pending(self):
        return len(self._live)

"""Differential property suite: the DES kernel against its oracle.

The bundled bucketed kernel (:class:`repro.sim.Simulator`) and the
reference heap (``tests/sim/reference_kernel.py``) must be
observationally identical: same
firing order, same clock, same ``pending()`` counts, for *any*
interleaving of ``schedule`` / ``schedule_at`` / ``cancel`` / ``every``
/ ``step`` — including operations issued from inside callbacks, which
is where the bucket's re-open edge cases live.  Hypothesis drives the
same randomly generated program through both kernels and compares every
observable after every operation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from tests.sim.reference_kernel import ReferenceSimulator


class Driver:
    """Interprets one operation program against one kernel, recording
    every observable (firings, clock, pending counts) in a log."""

    def __init__(self, kernel):
        self.sim = kernel()
        self.log = []
        self.handles = []
        self.tasks = []

    def apply(self, op):
        sim = self.sim
        kind = op[0]
        if kind == "schedule":
            self.handles.append(sim.schedule(op[1], self._fire, op[2]))
        elif kind == "schedule_at":
            self.handles.append(sim.schedule_at(sim.now + op[1], self._fire, op[2]))
        elif kind == "schedule_noarg":
            self.handles.append(sim.schedule(op[1], self._fire_noarg))
        elif kind == "cancel":
            if self.handles:
                sim.cancel(self.handles[op[1] % len(self.handles)])
        elif kind == "every":
            self.tasks.append(sim.every(op[1], self._fire_noarg))
        elif kind == "stop":
            if self.tasks:
                self.tasks[op[1] % len(self.tasks)].stop()
        elif kind == "step":
            self.log.append(("stepped", sim.step()))
        elif kind == "run":
            sim.run_until(sim.now + op[1])
        elif kind == "burst":
            # A callback that fans out same-instant events and cancels
            # one mid-bucket — the pattern the bucket optimizes.
            sim.schedule(op[1], self._burst, (op[2], op[3]))
        self.log.append(("after-op", sim.now, sim.pending(), sim.events_processed))

    def _fire(self, tag):
        self.log.append((tag, self.sim.now))

    def _fire_noarg(self):
        self.log.append(("noarg", self.sim.now))

    def _burst(self, arg):
        count, nested_delay = arg
        sim = self.sim
        burst_handles = [
            sim.schedule(0.0, self._fire, ("burst", i)) for i in range(count)
        ]
        sim.cancel(burst_handles[count // 2])
        # Re-entrant scheduling at a *later* instant while the bucket
        # drains: exercises the bucket re-open path.
        sim.schedule(nested_delay, self._fire, "post-burst")

    def finish(self):
        self.sim.run_until(self.sim.now + 1000.0)
        return (self.log, self.sim.now, self.sim.pending(), self.sim.events_processed)


# Delays drawn mostly from a small grid so simultaneous timestamps (the
# interesting case) are common, with occasional arbitrary floats.
delays = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 5.0]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
tags = st.integers(min_value=0, max_value=5)
operations = st.one_of(
    st.tuples(st.just("schedule"), delays, tags),
    st.tuples(st.just("schedule_at"), delays, tags),
    st.tuples(st.just("schedule_noarg"), delays),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=100)),
    st.tuples(st.just("every"), st.sampled_from([0.5, 1.0, 3.0])),
    st.tuples(st.just("stop"), st.integers(min_value=0, max_value=100)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), delays),
    st.tuples(
        st.just("burst"),
        delays,
        st.integers(min_value=1, max_value=8),
        st.sampled_from([0.0, 0.5, 1.0]),
    ),
)


class TestKernelEquivalence:
    @given(st.lists(operations, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_fast_and_reference_kernels_agree(self, program):
        drivers = [Driver(Simulator), Driver(ReferenceSimulator)]
        for op in program:
            for driver in drivers:
                driver.apply(op)
        fast_result, ref_result = (driver.finish() for driver in drivers)
        assert fast_result == ref_result

    @given(st.lists(st.tuples(delays, tags), max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_handles_agree_across_kernels(self, events):
        fast, ref = Simulator(), ReferenceSimulator()
        for delay, _tag in events:
            a = fast.schedule(delay, lambda: None)
            b = ref.schedule(delay, lambda: None)
            assert (a.time, a.sequence) == (b.time, b.sequence)


class TestCancellationLeak:
    """Regression: the seed kernel kept cancelled sequence numbers in a
    set forever when the event had already fired."""

    def test_cancel_after_fire_leaves_no_residue_fast(self):
        sim = Simulator()
        for _ in range(100):
            handle = sim.schedule(1.0, lambda: None)
            sim.run_until(sim.now + 2.0)
            sim.cancel(handle)  # already fired: must be a no-op
            sim.cancel(handle)  # and idempotent
        assert sim.pending() == 0
        assert not sim._heap and not sim._bucket

    def test_cancel_after_fire_leaves_no_residue_reference(self):
        sim = ReferenceSimulator()
        for _ in range(100):
            handle = sim.schedule(1.0, lambda: None)
            sim.run_until(sim.now + 2.0)
            sim.cancel(handle)
            sim.cancel(handle)
        assert sim.pending() == 0
        assert not sim._live

    def test_double_cancel_keeps_pending_exact(self):
        for kernel in (Simulator, ReferenceSimulator):
            sim = kernel()
            handle = sim.schedule(1.0, lambda: None)
            sim.schedule(2.0, lambda: None)
            sim.cancel(handle)
            sim.cancel(handle)
            assert sim.pending() == 1, kernel.__name__

    def test_cancelled_entries_do_not_accumulate(self):
        # Cancel-heavy churn must not grow the queue without bound: dead
        # entries are swept as they reach the head.
        sim = Simulator()
        for round_number in range(50):
            handles = [sim.schedule(1.0, lambda: None) for _ in range(20)]
            for handle in handles:
                sim.cancel(handle)
            sim.run_until(sim.now + 2.0)
            assert sim.pending() == 0
        assert len(sim._heap) + len(sim._bucket) <= 20

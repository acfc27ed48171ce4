"""Bundled kernel vs reference oracle: end-to-end differential checks.

Same-seed pool runs, chaos recordings, and pool snapshots must be
bitwise identical whether the bundled :class:`repro.sim.Simulator` or
the reference heap oracle (``tests/sim/reference_kernel.py``) executes
them.  The pool test hands ``CondorPool`` the oracle directly; the CLI
chaos recordings swap the ``Simulator`` name that ``repro.condor.pool``
constructs.  Both compare whole artifacts.
"""

import json

import pytest

import repro.condor.pool
from repro.cli import main
from repro.condor import CondorPool, Job, MachineSpec, PoissonOwner, PoolConfig
from repro.obs import metrics
from repro.sim import Network, Simulator
from tests.sim.reference_kernel import ReferenceSimulator
from tests.sim.test_network import _SizedPing


def run_pool_fingerprint(sim=None):
    specs = [MachineSpec(name=f"m{i}") for i in range(5)]
    owner_models = {
        spec.name: PoissonOwner(mean_active=600.0, mean_idle=900.0) for spec in specs
    }
    pool = CondorPool(
        specs,
        PoolConfig(
            seed=31,
            advertise_interval=120.0,
            negotiation_interval=120.0,
            network_loss=0.05,
            network_jitter=0.5,
        ),
        owner_models=owner_models,
        sim=sim,
    )
    for i in range(12):
        pool.submit(Job(owner="alice" if i % 2 else "bob", total_work=700.0))
    pool.run_until(15_000.0)
    m = pool.metrics
    return (
        m.jobs_completed,
        m.claims_attempted,
        m.claims_rejected,
        round(m.goodput, 9),
        round(m.badput, 9),
        pool.sim.events_processed,
        pool.collector.snapshot(),
    )


class TestPoolDifferential:
    def test_pool_history_and_snapshot_identical_across_kernels(self):
        fast = run_pool_fingerprint()
        reference = run_pool_fingerprint(ReferenceSimulator())
        assert fast == reference


class TestChaosRecordingDifferential:
    @pytest.fixture(scope="class")
    def recordings(self, tmp_path_factory):
        """Same-seed cm-crash recordings: two per kernel mode."""
        runs = {}
        for mode, kernel in (("fast", Simulator), ("reference", ReferenceSimulator)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(repro.condor.pool, "Simulator", kernel)
                for attempt in ("one", "two"):
                    base = tmp_path_factory.mktemp(f"{mode}-{attempt}")
                    paths = {
                        "events": str(base / "events.jsonl"),
                        "trace": str(base / "trace.jsonl"),
                        "series": str(base / "series.jsonl"),
                    }
                    code = main(
                        ["chaos", "cm-crash", "--machines", "4", "--jobs", "6",
                         "--horizon", "1800", "--out", paths["events"],
                         "--trace", paths["trace"], "--series", paths["series"]]
                    )
                    assert code == 0
                    runs[(mode, attempt)] = paths
        return runs

    @staticmethod
    def normalized_events(path):
        # cycle.end carries duration_s, a wall-clock measurement — the
        # one legitimately nondeterministic field in a recording.
        records = []
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                record.get("fields", {}).pop("duration_s", None)
                records.append(record)
        return records

    @pytest.mark.parametrize("mode", ["fast", "reference"])
    def test_two_runs_bitwise_identical_within_mode(self, recordings, mode):
        first, second = recordings[(mode, "one")], recordings[(mode, "two")]
        for stream in ("trace", "series"):
            with open(first[stream]) as a, open(second[stream]) as b:
                assert a.read() == b.read(), f"{mode}: {stream} differs across runs"
        assert self.normalized_events(first["events"]) == self.normalized_events(
            second["events"]
        )

    def test_recordings_identical_across_kernel_modes(self, recordings):
        fast, reference = recordings[("fast", "one")], recordings[("reference", "one")]
        for stream in ("trace", "series"):
            with open(fast[stream]) as a, open(reference[stream]) as b:
                assert a.read() == b.read(), f"{stream} differs across kernels"
        assert self.normalized_events(fast["events"]) == self.normalized_events(
            reference["events"]
        )


class TestNetworkFastPath:
    """Sends with metrics off skip wire sizing; they must deliver
    exactly as sends with metrics on do."""

    def test_fast_and_slow_paths_deliver_identically(self):
        def run(force_slow):
            sim = Simulator()
            net = Network(sim, latency=0.1)
            if force_slow:
                metrics.enable()
            inbox = []
            net.register("b", inbox.append)
            try:
                for i in range(20):
                    net.send(_SizedPing("a", "b", i))
                sim.run()
            finally:
                metrics.disable()
                metrics.reset()
            return ([m.payload for m in inbox], net.stats.sent, sim.now)

        assert run(force_slow=False) == run(force_slow=True)

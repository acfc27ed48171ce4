"""Differential tests for the fingerprinted refresh fast path (PR 8).

The refresh protocol is a pure transport optimisation: with it on or off
(the ``refresh`` switch, ``REPRO_NO_REFRESH=1``), a clean same-seed run
must produce bitwise-identical event streams, job outcomes, and final
collector state.  Under chaos the two modes consume different RNG draws
(a ``ResendRequest`` is an extra message), so there we assert the
outcome-level contract instead: every profile still delivers all jobs
and passes the protocol invariants.

Also covered here: the E1 crash-recovery story — after a central-manager
outage the first ``Refresh`` misses, the collector answers with a
``ResendRequest``, and one full advertising period later the pool
composition is fully restored.
"""

import pytest

from repro import obs
from repro.condor import CondorPool, Job, MachineSpec, PoolConfig
from repro.condor.collector import _job_order_key
from repro.config import override
from repro.matchmaking.matchmaker import reset_cycle_ids
from repro.obs.invariants import check_events
from repro.protocols import (
    Refresh,
    ResendRequest,
    reset_message_ids,
)
from repro.sim.chaos import PROFILES, chaos_profile


def _build_pool(seed=7, machines=6, chaos=None, horizon=None):
    specs = [
        MachineSpec(name=f"m{i}", mips=100.0 + 50.0 * (i % 3))
        for i in range(machines)
    ]
    cfg = dict(
        seed=seed,
        advertise_interval=60.0,
        negotiation_interval=60.0,
    )
    if chaos is not None:
        cfg["chaos"] = chaos
        cfg["chaos_horizon"] = horizon
    return CondorPool(specs, config=PoolConfig(**cfg))


def _batch(jobs=10):
    return [
        Job(
            job_id=j,
            owner="alice" if j % 2 == 0 else "bob",
            total_work=600.0 + 60.0 * (j % 5),
        )
        for j in range(jobs)
    ]


def _job_outcome(job):
    return (
        job.job_id,
        job.owner,
        job.state.name,
        job.completion_time,
        job.completed_work,
        job.restarts,
        job.evictions,
        job.matches,
        job.claim_rejections,
    )


def _spy_network(pool, captured):
    """Record every message the pool sends (without perturbing delivery)."""
    original = pool.net.send

    def send(message):
        captured.append(message)
        original(message)

    pool.net.send = send


def run_clean(refresh, seed=7):
    """One recorded clean run; returns (events, outcomes, snapshot, sent)."""
    obs.reset()
    reset_message_ids()
    reset_cycle_ids()
    obs.enable(events=True)
    try:
        with override(refresh=refresh):
            pool = _build_pool(seed=seed)
            sent = []
            _spy_network(pool, sent)
            pool.submit_all(_batch(), arrival_times=[5.0 * j for j in range(10)])
            pool.run_until_quiescent(check_interval=60.0, max_time=100_000.0)
            # Two cycle.end fields are not protocol outcomes and legitimately
            # vary: duration_s is wall-clock, and evals_saved counts compiled-
            # cache hits — the fast path keeps per-ad caches warm (that is the
            # point), so it reports *more* savings than the full-ad path.
            drop = {"duration_s", "evals_saved"}
            events = [
                (
                    e.t,
                    e.kind,
                    tuple(sorted((k, v) for k, v in e.fields.items() if k not in drop)),
                )
                for e in obs.event_log.events()
            ]
            outcomes = sorted(_job_outcome(j) for j in pool.jobs())
            snapshot = pool.collector.snapshot()
    finally:
        obs.disable()
        obs.reset()
    return events, outcomes, snapshot, sent


class TestCleanRunEquivalence:
    def test_refresh_on_equals_refresh_off_bitwise(self):
        ev_on, out_on, snap_on, sent_on = run_clean(True)
        ev_off, out_off, snap_off, sent_off = run_clean(False)

        # The comparison is only meaningful if the fast path actually ran.
        assert any(isinstance(m, Refresh) for m in sent_on)
        assert not any(isinstance(m, Refresh) for m in sent_off)
        assert not any(isinstance(m, ResendRequest) for m in sent_on)

        assert ev_on == ev_off
        assert out_on == out_off
        assert snap_on == snap_off

    def test_same_mode_same_seed_is_deterministic(self):
        ev_a, out_a, snap_a, _ = run_clean(True)
        ev_b, out_b, snap_b, _ = run_clean(True)
        assert ev_a == ev_b
        assert out_a == out_b
        assert snap_a == snap_b

    def test_refresh_mode_sends_fewer_advertising_bytes(self):
        _, _, _, sent_on = run_clean(True)
        _, _, _, sent_off = run_clean(False)
        bytes_on = sum(m.wire_size() for m in sent_on)
        bytes_off = sum(m.wire_size() for m in sent_off)
        assert bytes_on < bytes_off


class TestCrashResync:
    def test_resend_request_restores_state_within_one_period(self):
        """After a CM outage, a stale Refresh is answered by ResendRequest
        and the sender's full re-advertisement rebuilds the store within
        one advertising period of recovery (the E1 claim, kept)."""
        with override(refresh=True):
            pool = _build_pool(machines=4)
            sent = []
            _spy_network(pool, sent)
            pool.submit_all(_batch(jobs=4), arrival_times=[5.0, 10.0, 15.0, 20.0])
            pool.crash_central_manager(at=400.0, duration=50.0)
            pool.run_until(399.0)
            # Steady state before the crash: refreshes flowing, store full.
            assert any(isinstance(m, Refresh) for m in sent)
            assert len(pool.collector.machine_ads()) == 4

            # One advertising period (+ delivery slack) after recovery at
            # t=450 every machine must be re-registered.
            pool.run_until(450.0 + 60.0 + 5.0)
            resyncs = [m for m in sent if isinstance(m, ResendRequest)]
            assert resyncs, "collector never asked for a resend"
            assert len(pool.collector.machine_ads()) == 4

            # And the pool still drains normally afterwards.
            pool.run_until_quiescent(check_interval=60.0, max_time=100_000.0)
            assert all(job.done for job in pool.jobs())


class TestChaosBothModes:
    """Outcome-level equivalence: every chaos profile completes and keeps
    the invariants with the fast path on *and* off (bitwise equality is
    out of reach under chaos — the resync handshake consumes extra RNG
    draws — so the contract is the recorded-invariant one)."""

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("refresh", [True, False])
    def test_profile_completes_and_invariants_hold(self, profile, refresh):
        horizon = 3600.0
        plan = chaos_profile(profile, horizon=horizon)
        obs.reset()
        reset_message_ids()
        reset_cycle_ids()
        obs.enable(events=True)
        try:
            with override(refresh=refresh):
                pool = _build_pool(
                    seed=plan.seed, machines=5, chaos=plan, horizon=horizon
                )
                batch = _batch(jobs=8)
                pool.submit_all(
                    batch, arrival_times=[5.0 * j for j in range(len(batch))]
                )
                pool.run_until_quiescent(check_interval=60.0, max_time=8.0 * horizon)
                events = list(obs.event_log.events())
        finally:
            obs.disable()
            obs.reset()
        assert all(job.done for job in pool.jobs())
        report = check_events(events, require_complete=True)
        assert report.ok, "\n".join(str(v) for v in report.violations)


class TestIncrementalViewsMatchNaive:
    """Satellites 1+2: the collector's incremental composition counts and
    the cached owner-grouped job view must always agree with a from-
    scratch recomputation over the store."""

    def _run_partial(self, until=700.0):
        with override(refresh=True):
            pool = _build_pool(machines=5)
            pool.submit_all(_batch(jobs=8), arrival_times=[5.0 * j for j in range(8)])
            pool.run_until(until)
        return pool

    @staticmethod
    def _naive_composition(collector):
        machines = jobs = 0
        states = {}
        for ad in collector.store.ads():
            kind, state = collector._classify(ad)
            if kind == "machine":
                machines += 1
                states[state] = states.get(state, 0) + 1
            elif kind == "job":
                jobs += 1
        return machines, states, jobs

    @staticmethod
    def _naive_grouped(collector):
        grouped = {}
        for ad in collector.job_ads():
            owner = ad.evaluate("Owner")
            grouped.setdefault(owner, []).append((_job_order_key(ad), ad))
        return {
            owner: [ad for _, ad in sorted(pairs, key=lambda p: p[0])]
            for owner, pairs in grouped.items()
        }

    def test_composition_counts_match_store_scan(self):
        collector = self._run_partial().collector
        machines, states, jobs = self._naive_composition(collector)
        assert collector._n_machines == machines
        assert collector._n_jobs == jobs
        live = {k: v for k, v in collector._state_counts.items() if v}
        assert live == states

    def test_job_grouping_matches_store_scan(self):
        collector = self._run_partial().collector
        grouped = collector.job_ads_by_owner()
        naive = self._naive_grouped(collector)
        assert set(grouped) == set(naive)
        for owner in naive:
            assert len(grouped[owner]) == len(naive[owner])
            for got, want in zip(grouped[owner], naive[owner]):
                assert got is want

    def test_counts_survive_expiry_and_crash(self):
        pool = self._run_partial()
        pool.collector.crash()
        assert pool.collector._n_machines == 0
        assert pool.collector._n_jobs == 0
        assert self._naive_composition(pool.collector) == (0, {}, 0)

"""Protocol hardening under a lying network: retransmission, duplicate
suppression, claim leases, and the ``retry`` kill-switch.

These tests drive the agents directly (no chaos plan) to pin down each
hardening mechanism in isolation; tests/chaos/test_chaos_pool.py then
exercises them all together under the named fault profiles.
"""

import pytest

from repro.condor import CondorPool, Job, MachineSpec, MachineState, PoolConfig
from repro.condor.machine import MachineAgent
from repro.condor.schedd import CustomerAgent
from repro.config import override
from repro.protocols import (
    BackoffPolicy,
    ClaimRequest,
    MatchNotification,
    Retransmitter,
)
from repro.sim import Network, RngStream, Simulator


@pytest.fixture()
def retries_on():
    """Guarantee the kill-switch state is restored after a test."""
    with override(retry=True):
        yield


class TestBackoffPolicy:
    def test_delays_grow_and_cap(self):
        policy = BackoffPolicy(base=5.0, factor=2.0, cap=12.0, jitter=0.0, max_tries=5)
        assert policy.delay(0) == 5.0
        assert policy.delay(1) == 10.0
        assert policy.delay(2) == 12.0  # capped
        assert policy.delay(3) == 12.0

    def test_jitter_stays_bounded_and_deterministic(self):
        policy = BackoffPolicy(base=10.0, factor=1.0, cap=10.0, jitter=0.5, max_tries=3)
        a = [policy.delay(0, rng=RngStream(4)) for _ in range(5)]
        b = [policy.delay(0, rng=RngStream(4)) for _ in range(5)]
        assert a == b
        assert all(10.0 <= d <= 15.0 for d in a)


class TestRetransmitter:
    def make(self, policy):
        sim = Simulator()
        net = Network(sim, latency=0.01)
        inbox = []
        net.register("b", inbox.append)
        return sim, net, inbox, Retransmitter(sim, net, policy=policy)

    @pytest.mark.usefixtures("retries_on")
    def test_retransmits_until_exhausted(self):
        policy = BackoffPolicy(base=1.0, factor=1.0, cap=1.0, jitter=0.0, max_tries=3)
        sim, net, inbox, retx = self.make(policy)
        retx.send(ClaimRequest(sender="a", recipient="b", customer_ad=None, ticket=None, match_id=1))
        sim.run_until(100.0)
        assert len(inbox) == 4  # original + 3 retries

    @pytest.mark.usefixtures("retries_on")
    def test_stop_when_halts_retries(self):
        policy = BackoffPolicy(base=1.0, factor=1.0, cap=1.0, jitter=0.0, max_tries=5)
        sim, net, inbox, retx = self.make(policy)
        done = []
        retx.send(
            ClaimRequest(sender="a", recipient="b", customer_ad=None, ticket=None, match_id=1),
            stop_when=lambda: bool(done),
        )
        sim.schedule_at(1.5, lambda: done.append(True))
        sim.run_until(100.0)
        assert len(inbox) == 2  # original + the one retry before stop_when

    def test_kill_switch_sends_exactly_once(self):
        policy = BackoffPolicy(base=1.0, factor=1.0, cap=1.0, jitter=0.0, max_tries=5)
        sim, net, inbox, retx = self.make(policy)
        with override(retry=False):
            retx.send(ClaimRequest(sender="a", recipient="b", customer_ad=None, ticket=None, match_id=1))
            sim.run_until(100.0)
        assert len(inbox) == 1


def make_claimed_machine(claim_lease=120.0, match_id=77, total_work=100_000.0):
    """A machine agent with one established claim from a fake schedd."""
    sim = Simulator()
    net = Network(sim, rng=RngStream(1), latency=0.01)
    net.register("collector@cm", lambda m: None)
    inbox = []
    net.register("schedd@alice", inbox.append)
    agent = MachineAgent(
        sim, net, MachineSpec(name="m0"), collector_address="collector@cm",
        rng=RngStream(2),
    )
    agent.claim_lease = claim_lease
    agent.start()
    sim.run_until(1.0)
    job = Job(owner="alice", total_work=total_work)
    request = ClaimRequest(
        sender="schedd@alice",
        recipient=agent.address,
        customer_ad=job.to_classad("schedd@alice", sim.now),
        ticket=agent.authority.current,
        match_id=match_id,
    )
    net.send(request)
    sim.run_until(2.0)
    assert agent.state is MachineState.CLAIMED
    return sim, net, agent, inbox, request


class TestDuplicateSuppression:
    def test_duplicate_claim_request_replays_the_accept(self):
        # A duplicated ClaimRequest must NOT be answered ALREADY_CLAIMED
        # against the very claim it created (nor rejected for its
        # consumed ticket) — the original verdict is replayed.
        sim, net, agent, inbox, request = make_claimed_machine()
        net.send(request)  # the network's duplicate
        sim.run_until(3.0)
        from repro.protocols import ClaimResponse

        responses = [m for m in inbox if isinstance(m, ClaimResponse)]
        assert len(responses) == 2
        assert all(r.accepted for r in responses)
        assert agent.claims_accepted == 1  # counted once, not twice

    def test_stale_accept_replay_downgraded(self):
        # Replaying an accept after the claim ended must not pretend the
        # job is still running there.
        sim, net, agent, inbox, request = make_claimed_machine(total_work=50.0)
        sim.run_until(200.0)  # job (50 ref-seconds at 100 MIPS) completes
        assert agent.claim is None
        inbox.clear()
        net.send(request)  # very late duplicate
        sim.run_until(250.0)
        from repro.protocols import ClaimResponse

        responses = [m for m in inbox if isinstance(m, ClaimResponse)]
        assert len(responses) == 1
        assert not responses[0].accepted
        assert responses[0].reason == "stale-claim"

    def test_duplicate_match_notification_yields_one_claim_request(self):
        sim = Simulator()
        net = Network(sim, latency=0.01)
        net.register("collector@cm", lambda m: None)
        machine_inbox = []
        net.register("startd@m0", machine_inbox.append)
        ca = CustomerAgent(
            sim, net, "alice", collector_address="collector@cm", rng=RngStream(3)
        )
        ca.start()
        job = Job(owner="alice", total_work=600.0)
        ca.submit(job)
        sim.run_until(1.0)
        scratch = Simulator()
        provider_ad = MachineAgent(
            scratch, Network(scratch), MachineSpec(name="m0"), collector_address="x"
        ).build_ad()
        notification = MatchNotification(
            sender="negotiator@cm",
            recipient=ca.address,
            peer_address="startd@m0",
            peer_ad=provider_ad,
            my_ad=job.to_classad(ca.address, sim.now),
            match_id=42,
        )
        net.send(notification)
        net.send(notification)  # duplicated in flight
        sim.run_until(3.0)
        requests = [m for m in machine_inbox if isinstance(m, ClaimRequest)]
        assert len(requests) == 1


class TestLeaseProtocol:
    def make_pool(self, **config_kwargs):
        specs = [MachineSpec(name=f"m{i}") for i in range(2)]
        pool = CondorPool(
            specs,
            config=PoolConfig(
                seed=5,
                advertise_interval=60.0,
                negotiation_interval=60.0,
                chaos=False,
                **config_kwargs,
            ),
        )
        return pool

    @pytest.mark.usefixtures("retries_on")
    def test_machine_crash_recovered_via_lease(self):
        # The machine dies mid-claim and never says goodbye; the CA must
        # notice (lease NACK after restart, or renewal silence) and
        # re-run the job elsewhere.
        pool = self.make_pool()
        job = Job(job_id=1, owner="alice", total_work=2_000.0)
        pool.submit(job)
        pool.start()
        pool.sim.run_until(120.0)
        assert job.state.name == "RUNNING"
        machine = pool.machines[job.running_on]
        machine.crash()
        pool.sim.schedule_at(400.0, machine.restart)
        finished = pool.run_until_quiescent(check_interval=60.0, max_time=20_000.0)
        assert job.done, f"job stranded in {job.state} at t={finished}"
        assert job.restarts >= 1

    def test_no_retry_strands_the_job_after_machine_crash(self):
        # Same scenario with the kill-switch thrown: nobody ever notices
        # the dead claim, the job hangs in RUNNING forever.
        pool = self.make_pool()
        job = Job(job_id=1, owner="alice", total_work=2_000.0)
        pool.submit(job)
        with override(retry=False):
            pool.start()
            pool.sim.run_until(120.0)
            assert job.state.name == "RUNNING"
            machine = pool.machines[job.running_on]
            machine.crash()
            pool.sim.schedule_at(400.0, machine.restart)
            pool.sim.run_until(30_000.0)
        assert not job.done
        assert job.state.name == "RUNNING"  # stranded, demonstrably

    @pytest.mark.usefixtures("retries_on")
    def test_lease_renewals_extend_the_claim(self):
        sim, net, agent, inbox, request = make_claimed_machine(claim_lease=120.0)
        from repro.condor.messages import KeepAlive, LeaseAck

        sim.every(
            60.0,
            lambda: net.send(
                KeepAlive(sender="schedd@alice", recipient=agent.address, match_id=77)
            ),
        )
        sim.run_until(1_000.0)
        assert agent.state is MachineState.CLAIMED
        acks = [m for m in inbox if isinstance(m, LeaseAck)]
        assert acks and all(ack.ok for ack in acks)

    @pytest.mark.usefixtures("retries_on")
    def test_keepalive_for_unknown_claim_nacked(self):
        sim, net, agent, inbox, request = make_claimed_machine(claim_lease=120.0)
        from repro.condor.messages import KeepAlive, LeaseAck

        inbox.clear()
        net.send(
            KeepAlive(sender="schedd@alice", recipient=agent.address, match_id=999)
        )
        sim.run_until(3.0)
        nacks = [m for m in inbox if isinstance(m, LeaseAck) and not m.ok]
        assert len(nacks) == 1
        assert nacks[0].match_id == 999

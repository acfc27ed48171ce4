"""Differential tests for the batched negotiation engine (PR 4).

The contract under test: a batched cycle (request equivalence classes +
shared per-class candidate lists + per-cycle provider memos) is
*assignment-identical* to the naive reference scan — same matches, same
preemptions, same tie-breaks — and, with the event log on, replays the
identical forensic event stream.  The persistent index must likewise be
indistinguishable from a fresh rebuild after any advertise/withdraw
sequence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classads import ClassAd
from repro.config import override
from repro.matchmaking import (
    Accountant,
    CycleStats,
    Matchmaker,
    ProviderIndex,
    negotiation_cycle,
)
from repro.obs import event_log


def machine(
    name,
    arch="INTEL",
    memory=64,
    state="Unclaimed",
    current_rank=0.0,
    remote_owner=None,
    constraint='other.Type == "Job"',
    rank='other.Owner == "vip" ? 5 : 0',
):
    ad = ClassAd(
        {"Type": "Machine", "Name": name, "Arch": arch, "Memory": memory, "State": state}
    )
    ad.set_expr("Constraint", constraint)
    ad.set_expr("Rank", rank)
    if state == "Claimed":
        ad["CurrentRank"] = current_rank
        ad["RemoteOwner"] = remote_owner or "someone"
    return ad


def request(owner, job_id, arch="INTEL", memory=32):
    ad = ClassAd(
        {"Type": "Job", "JobId": job_id, "Owner": owner, "Memory": memory, "ReqArch": arch}
    )
    ad.set_expr(
        "Constraint",
        'other.Type == "Machine" && other.Arch == self.ReqArch '
        "&& other.Memory >= self.Memory",
    )
    ad.set_expr("Rank", "other.Memory")
    return ad


def assignment_key(assignments):
    return [
        (
            a.submitter,
            a.request.evaluate("JobId"),
            a.provider.evaluate("Name"),
            a.customer_rank,
            a.provider_rank,
            a.preempts,
        )
        for a in assignments
    ]


def run_cycle(providers, grouped, batch, use_index, accountant=None, allow_preemption=True):
    stats = CycleStats()
    index = ProviderIndex(providers) if use_index else None
    assignments = negotiation_cycle(
        grouped,
        providers,
        accountant=accountant,
        allow_preemption=allow_preemption,
        index=index,
        stats=stats,
        batch=batch,
    )
    return assignments, stats


archs = st.sampled_from(["INTEL", "SPARC"])
memories = st.sampled_from([32, 64, 128])
states = st.sampled_from(["Unclaimed", "Claimed", "Owner"])
owners = st.sampled_from(["alice", "bob", "vip"])

machines_strategy = st.lists(
    st.tuples(archs, memories, states, st.floats(min_value=0, max_value=10)),
    max_size=12,
)
requests_strategy = st.lists(st.tuples(owners, archs, memories), max_size=16)


def build(machine_params, request_params):
    providers = [
        machine(f"m{i}", a, m, state=s, current_rank=r)
        for i, (a, m, s, r) in enumerate(machine_params)
    ]
    grouped = {}
    for i, (owner, arch, memory) in enumerate(request_params):
        grouped.setdefault(owner, []).append(request(owner, i, arch, memory))
    return providers, grouped


class TestBatchedEqualsNaive:
    """The hypothesis differential suite the ISSUE asks for."""

    @given(machines_strategy, requests_strategy, st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_assignments_identical(
        self, machine_params, request_params, use_index, allow_preemption
    ):
        providers, grouped = build(machine_params, request_params)
        naive, _ = run_cycle(
            providers, grouped, batch=False, use_index=use_index,
            allow_preemption=allow_preemption,
        )
        batched, stats = run_cycle(
            providers, grouped, batch=True, use_index=use_index,
            allow_preemption=allow_preemption,
        )
        assert assignment_key(naive) == assignment_key(batched)
        total = sum(len(reqs) for reqs in grouped.values())
        assert stats.requests_considered == total

    @given(machines_strategy, requests_strategy, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_assignments_identical_under_fair_share(
        self, machine_params, request_params, use_index
    ):
        """Quota corners: uneven usage histories give the submitters
        different pie slices, exercising the quota cutoff + spin-pie
        interaction on both paths."""
        providers, grouped = build(machine_params, request_params)

        def accountant():
            acc = Accountant(half_life=100.0)
            for i, owner in enumerate(sorted(grouped)):
                acc.record(owner)
                for _ in range(i * 2):
                    acc.resource_claimed(owner)
            acc.advance_to(50.0)
            return acc

        naive, _ = run_cycle(
            providers, grouped, batch=False, use_index=use_index, accountant=accountant()
        )
        batched, _ = run_cycle(
            providers, grouped, batch=True, use_index=use_index, accountant=accountant()
        )
        assert assignment_key(naive) == assignment_key(batched)

    @given(machines_strategy, requests_strategy)
    @settings(max_examples=75, deadline=None)
    def test_provider_side_request_reads_split_classes(
        self, machine_params, request_params
    ):
        """Providers that read request attributes the requests never
        mention (here: Owner, via Rank and a Constraint) must still
        match identically — the signature closes over pool-observed
        attributes."""
        providers, grouped = build(machine_params, request_params)
        providers.append(
            machine("picky", memory=256, constraint='other.Owner == "vip"')
        )
        naive, _ = run_cycle(providers, grouped, batch=False, use_index=False)
        batched, _ = run_cycle(providers, grouped, batch=True, use_index=False)
        assert assignment_key(naive) == assignment_key(batched)


class TestEventStreamParity:
    def _events_of(self, providers, grouped, batch, use_index, accountant):
        event_log.reset()
        event_log.enable()
        try:
            run_cycle(
                providers, grouped, batch=batch, use_index=use_index,
                accountant=accountant,
            )
            variable = {"cycle", "batched", "duration_s", "evals_saved",
                        "request_classes", "pairings_saved", "workers", "chunks"}
            return [
                (
                    e.kind,
                    tuple(sorted(
                        (k, v) for k, v in e.fields.items() if k not in variable
                    )),
                )
                for e in event_log.events()
            ]
        finally:
            event_log.disable()
            event_log.reset()

    def test_replayed_stream_matches_naive(self):
        """Every rejection (taken / unavailable / preemption-disabled /
        constraint attribution / rank-not-above-current), every match,
        every preemption and unmatched-job event — in the same order
        with the same fields."""
        providers = [
            machine("m1", memory=128),
            machine(
                "m2", memory=64, state="Claimed", current_rank=5.0,
                remote_owner="alice",
                rank='other.Owner == "bob" ? 10 : 0',
            ),
            machine("m3", memory=256, state="Claimed", current_rank=100.0,
                    remote_owner="bob"),
            machine("m4", memory=32),
            machine("m5", memory=512, state="Owner"),
            machine("picky", memory=96, constraint='other.Owner == "vip"'),
        ]
        grouped = {
            "alice": [request("alice", 1), request("alice", 2),
                      request("alice", 3, memory=48)],
            "bob": [request("bob", 4), request("bob", 5, memory=200)],
            "vip": [request("vip", 6, memory=48), request("vip", 7, memory=48)],
        }
        acc = Accountant(half_life=100.0)
        for owner in ("alice", "bob", "vip"):
            acc.record(owner)
        for _ in range(4):
            acc.resource_claimed("alice")
        acc.advance_to(10.0)
        for use_index in (False, True):
            naive = self._events_of(providers, grouped, False, use_index, acc)
            batched = self._events_of(providers, grouped, True, use_index, acc)
            assert naive == batched

    def test_cycle_end_reports_batching_yield(self):
        providers = [machine(f"m{i}") for i in range(4)]
        grouped = {"alice": [request("alice", i) for i in range(6)]}
        event_log.reset()
        event_log.enable()
        try:
            run_cycle(providers, grouped, batch=True, use_index=False)
            (end,) = [e for e in event_log.events() if e.kind == "cycle.end"]
        finally:
            event_log.disable()
            event_log.reset()
        assert end.fields["request_classes"] == 1
        # 5 repeat members × a 4-provider pool evaluated once
        assert end.fields["pairings_saved"] == 5 * len(providers)


class TestQuotaRounding:
    def test_quota_sum_capped_at_matchable_capacity(self):
        """Regression: max(1, round(share * matchable)) across many
        low-share submitters used to overshoot the pie; quotas must now
        sum to at most the matchable capacity."""
        providers = [machine(f"m{i}") for i in range(3)]
        grouped = {
            f"user{i}": [request(f"user{i}", i)] for i in range(8)
        }
        acc = Accountant(half_life=100.0)
        for owner in grouped:
            acc.record(owner)
        event_log.reset()
        event_log.enable()
        try:
            run_cycle(providers, grouped, batch=False, use_index=False, accountant=acc)
            quotas = [e.fields["quota"] for e in event_log.events()
                      if e.kind == "fairshare.quota"]
        finally:
            event_log.disable()
            event_log.reset()
        assert len(quotas) == 8
        assert sum(quotas) <= len(providers)

    def test_capacity_still_fully_served(self):
        """Zero-quota submitters are back-filled by the spin-pie round,
        so the cap never strands machines."""
        providers = [machine(f"m{i}") for i in range(3)]
        grouped = {f"user{i}": [request(f"user{i}", i)] for i in range(8)}
        acc = Accountant(half_life=100.0)
        for owner in grouped:
            acc.record(owner)
        assignments, _ = run_cycle(
            providers, grouped, batch=True, use_index=False, accountant=acc
        )
        assert len(assignments) == len(providers)


class TestKillSwitch:
    def test_override_toggles_batching(self):
        providers = [machine(f"m{i}") for i in range(3)]
        grouped = {"alice": [request("alice", i) for i in range(4)]}
        with override(batch=False):
            _, stats_off = run_cycle(providers, grouped, batch=None, use_index=False)
        with override(batch=True):
            _, stats_on = run_cycle(providers, grouped, batch=None, use_index=False)
        assert stats_off.request_classes == 0
        assert stats_off.pairings_saved == 0
        assert stats_on.request_classes == 1
        assert stats_on.pairings_saved > 0


# -- persistent index -----------------------------------------------------


def typed_machine(name, typ, memory):
    ad = machine(name, memory=memory)
    ad["Type"] = typ
    return ad


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["advertise", "withdraw"]),
        st.integers(min_value=0, max_value=9),  # name index
        st.sampled_from(["Machine", "Other"]),
        memories,
    ),
    max_size=40,
)


class TestMaintainedIndexEquivalence:
    @given(ops_strategy, st.integers(min_value=0, max_value=2))
    @settings(max_examples=150, deadline=None)
    def test_delta_maintained_equals_rebuilt(self, ops, probe_memory_i):
        """After any advertise/withdraw sequence the persistent index
        yields the same providers, in the same order, and the same
        candidate sets as an index rebuilt from scratch."""
        mm = Matchmaker()
        mm.provider_index()  # force early creation: every op is a delta
        for op, name_i, typ, memory in ops:
            name = f"n{name_i}"
            if op == "advertise":
                mm.advertise(name, typed_machine(name, typ, memory))
            else:
                mm.withdraw(name)
        mindex = mm.provider_index()
        authoritative = mm.ads('Type == "Machine"')
        assert [id(a) for a in mindex.providers()] == [id(a) for a in authoritative]
        probe = request("alice", 0, memory=[32, 64, 128][probe_memory_i])
        fresh = ProviderIndex(authoritative)
        assert [id(a) for a in mindex.index.candidates_for(probe)] == [
            id(a) for a in fresh.candidates_for(probe)
        ]

    def test_steady_state_performs_zero_rebuilds(self):
        """The acceptance criterion: once built, refresh/withdraw/expiry
        traffic is absorbed by deltas — the rebuild counter stays at the
        initial build."""
        mm = Matchmaker()
        for i in range(20):
            mm.advertise(f"m{i}", machine(f"m{i}"))
        grouped = {"alice": [request("alice", 0)]}
        mm.negotiate(grouped, use_index=True)
        mindex = mm.provider_index()
        assert mindex.index.rebuilds == 1
        for _ in range(5):
            for i in range(20):  # periodic re-advertisement, fresh ad objects
                mm.advertise(f"m{i}", machine(f"m{i}"))
            mm.withdraw("m7")
            mm.advertise("m7", machine("m7"))
            mm.negotiate(grouped, use_index=True)
        assert mm.provider_index() is mindex
        assert mindex.index.rebuilds == 1
        assert mindex.index.delta_updates > 0

    def test_member_turned_nonmember_and_back_keeps_naive_order(self):
        """The one delta-unrepresentable case: a stored non-member
        re-advertised as a member must not be appended out of its
        historical dict position — the index is dropped and rebuilt in
        authoritative order instead."""
        mm = Matchmaker()
        mm.advertise("a", typed_machine("a", "Other", 64))
        mm.advertise("b", machine("b"))
        mm.provider_index()
        mm.advertise("a", machine("a"))  # becomes a member mid-stream
        authoritative = mm.ads('Type == "Machine"')
        assert [id(x) for x in mm.provider_index().providers()] == [
            id(x) for x in authoritative
        ]
        names = [x.evaluate("Name") for x in mm.provider_index().providers()]
        assert names == ["a", "b"]

    def test_negotiate_uses_persistent_index(self):
        """use_index=True must produce the same assignments as the naive
        unindexed negotiate, through the maintained index."""
        mm = Matchmaker()
        for i in range(10):
            mm.advertise(f"m{i}", machine(f"m{i}", memory=[32, 64, 128][i % 3]))
        grouped = {"alice": [request("alice", i, memory=64) for i in range(5)]}
        plain = mm.negotiate(grouped)
        indexed = mm.negotiate(grouped, use_index=True)
        assert assignment_key(plain) == assignment_key(indexed)


class TestAdsFastPath:
    def test_unconstrained_ads_returns_fresh_list(self):
        mm = Matchmaker()
        mm.advertise("m1", machine("m1"))
        ads = mm.ads()
        assert len(ads) == 1
        ads.append(machine("mx"))  # caller-owned copy: store unaffected
        assert len(mm.ads()) == 1

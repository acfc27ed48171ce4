"""The Resource-owner Agent (RA / startd) — S14 in DESIGN.md.

Section 4: "Resources in the Condor system are represented by
Resource-owner Agents (RAs), which are responsible for enforcing the
policies stipulated by resource owners.  An RA periodically probes the
resource to determine its current state, and encapsulates this
information in a classad along with the owner's usage policy."

Behaviour implemented here:

* periodic advertisement of a Figure-1-shaped classad, plus an immediate
  ad on every state change (Condor's behaviour; bounds staleness);
* owner arrival/departure dynamics driven by a pluggable activity model
  (keyboard idle time and load average follow the owner);
* an authorization ticket embedded in each ad, validated at claim time;
* claim verification exactly per the paper: ticket first, then both
  constraints against *current* state;
* eviction on owner return, and Rank-based preemption: a claimed RA
  still accepts claims from customers it ranks *strictly above* the
  current one ("it is still interested in hearing from higher priority
  customers ... completely under the control of the RA");
* job execution: wall time scales with the machine's Mips rating, and
  evicted jobs keep their progress only if they checkpoint.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..classads import ClassAd, fingerprint, parse, rank_value
from ..config import switches as _switches
from ..matchmaking.match import DEFAULT_POLICY, MatchPolicy, constraints_satisfied
from ..obs import event_log as _events, metrics as _metrics
from ..obs.causal import TraceContext, causal_log as _causal
from ..protocols import (
    VOLATILE_MACHINE_ATTRS,
    Advertisement,
    BackoffPolicy,
    ClaimRequest,
    ClaimResponse,
    MatchNotification,
    Refresh,
    ReleaseNotice,
    ResendRequest,
    Retransmitter,
    TicketAuthority,
    embed_ticket,
    stable_equal,
    verify_claim,
    volatile_values,
)
from ..protocols.advertising import ADV_FULL_ADS, ADV_REFRESHES
from ..protocols.claiming import ClaimVerdict
from ..sim import Network, Simulator, Trace
from .jobs import REFERENCE_MIPS
from .messages import JobCompleted, JobEvicted, KeepAlive, LeaseAck, NoticeAck
from .states import Activity, MachineState, check_machine_transition

_RA_LEASES_RENEWED = _metrics.counter(
    "leases.renewed", "claim-lease renewals granted by RAs"
)
_RA_LEASES_EXPIRED = _metrics.counter(
    "leases.expired", "claims reaped because their lease lapsed"
)
_RA_DUP_CLAIMS = _metrics.counter(
    "machine.duplicate_claims",
    "retransmitted claim requests answered from the replay cache",
)

#: Replay-cache and notification-dedup bound: old entries are evicted
#: FIFO once this many are held (retransmit windows are far shorter
#: than the lifetime of 512 claims).
_REPLAY_CAP = 512

#: Default owner policy: accept anyone whenever the machine is not in
#: Owner state (the state machine handles owner presence; pools built
#: from Figure-1-style policies pass their own constraint).
DEFAULT_MACHINE_CONSTRAINT = 'other.Type == "Job"'
DEFAULT_MACHINE_RANK = "0"

#: The Owner-state START policy, parsed once and shared by every ad
#: build (shared Expr objects hit the change detector's identity check).
_FALSE_EXPR = parse("false")


@dataclass
class MachineSpec:
    """Static description of one workstation."""

    name: str
    arch: str = "INTEL"
    opsys: str = "SOLARIS251"
    memory: int = 64
    disk: int = 300_000
    mips: float = 100.0
    kflops: float = 20_000.0
    constraint: str = DEFAULT_MACHINE_CONSTRAINT
    rank: str = DEFAULT_MACHINE_RANK
    extra_attrs: Dict[str, object] = field(default_factory=dict)


class OwnerModel:
    """Owner presence model: when does the owner (de)occupy the machine?

    ``first_event`` returns (initially_active, seconds-until-change);
    afterwards the agent alternates, asking :meth:`active_duration` /
    :meth:`idle_duration` for each phase.  The default owner never shows
    up (a dedicated compute node).
    """

    def first_event(self, rng):
        return False, float("inf")

    def active_duration(self, rng) -> float:  # pragma: no cover - abstract-ish
        return 0.0

    def idle_duration(self, rng) -> float:  # pragma: no cover
        return float("inf")


@dataclass
class _Claim:
    """The RA's record of its current working relationship."""

    match_id: int
    customer_address: str
    job_ad: ClassAd
    job_id: int
    rank: float
    started_at: float
    wants_checkpoint: bool
    completion_handle: object = None
    last_alive: float = 0.0
    lease_expires: float = float("inf")
    #: Causal context of the accepted claim request; timer-fired
    #: completion/eviction notices parent on it so the teardown stays
    #: inside the job's trace.
    ctx: Optional[TraceContext] = None


class MachineAgent:
    """One simulated workstation and its resource-owner agent."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        spec: MachineSpec,
        collector_address: str,
        trace: Optional[Trace] = None,
        rng=None,
        owner_model: Optional[OwnerModel] = None,
        advertise_interval: float = 300.0,
        ad_lifetime: Optional[float] = None,
        policy: MatchPolicy = DEFAULT_POLICY,
        advertise_on_state_change: bool = True,
        on_claim_started: Optional[Callable[[str, str], None]] = None,
        on_claim_ended: Optional[Callable[[str, str], None]] = None,
    ):
        self.sim = sim
        self.net = net
        self.spec = spec
        self.collector_address = collector_address
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.rng = rng
        self.owner_model = owner_model or OwnerModel()
        self.advertise_interval = advertise_interval
        self.ad_lifetime = ad_lifetime if ad_lifetime is not None else 3 * advertise_interval
        self.policy = policy
        self.advertise_on_state_change = advertise_on_state_change
        self.on_claim_started = on_claim_started
        self.on_claim_ended = on_claim_ended

        self.address = f"startd@{spec.name}"
        self.authority = TicketAuthority(spec.name, spec.name.encode())
        self.state = MachineState.UNCLAIMED
        self.claim: Optional[_Claim] = None
        self.owner_active = False
        self.crashed = False
        self._owner_last_departure = sim.now
        self._sequence = 0
        # Refresh fast path: the last full ad sent and its fingerprint
        # (stable attributes only); while the current state still
        # matches, the periodic advertiser sends a compact Refresh.
        self._last_ad: Optional[ClassAd] = None
        self._last_fp: Optional[str] = None
        self._last_full_at: float = -1.0
        # Policy expressions parsed once per source text, not per build.
        self._policy_src: Optional[tuple] = None
        self._constraint_expr = None
        self._rank_expr = None
        self._pending_notices = {}
        # Receiver-side duplicate suppression (retransmits are blind, so
        # the RA must answer repeats idempotently): verdicts by
        # (match_id, sender, job_id), and match notifications seen.
        self._claim_verdicts: OrderedDict = OrderedDict()
        self._seen_notifications: OrderedDict = OrderedDict()
        retry_rng = rng.fork("retry") if rng is not None else None
        #: Blind retransmit of each advertisement (same sequence number;
        #: the collector's >=-sequence refresh makes copies idempotent).
        self._ad_retx = Retransmitter(
            sim,
            net,
            rng=retry_rng,
            kind="advertisement",
            policy=BackoffPolicy(
                base=advertise_interval / 8.0,
                factor=2.0,
                cap=advertise_interval / 2.0,
                jitter=0.25,
                max_tries=1,
            ),
        )
        self.notice_retry_interval = 30.0
        #: Give up teardown-notice delivery after this many resends (the
        #: peer is almost certainly gone; 50 tries beats 10% loss by
        #: 10^-50, and leases handle truly dead peers).
        self.max_notice_retries = 50
        #: Claim lease: evict if no KeepAlive arrives for this long.
        #: None disables leases (ablation knob; see E-ablation bench).
        self.claim_lease: float | None = 180.0
        #: Vacate grace: seconds the owner tolerates between arrival and
        #: the job being gone.  Writing a checkpoint takes
        #: memory / checkpoint_rate seconds; if that exceeds the grace,
        #: the checkpoint is abandoned and the work is lost.  None means
        #: the owner always waits out the checkpoint (the default, and
        #: the behaviour of a well-configured pool).
        self.vacate_grace: float | None = None
        self.checkpoint_rate_mb_s: float = 10.0

        # outcome counters (tests and E5 read these)
        self.jobs_completed = 0
        self.evictions_owner = 0
        self.evictions_preempted = 0
        self.evictions_lease = 0
        self.claims_accepted = 0
        self.claims_rejected = 0

        net.register(self.address, self._on_message)

    def start(self) -> None:
        """Arm the periodic advertiser and the owner-activity process."""
        self.authority.mint()
        self.sim.every(self.advertise_interval, self.advertise, start_delay=0.0)
        active, until_change = self.owner_model.first_event(self.rng)
        if active:
            # Owner present from t=0: enter Owner state before anything runs.
            self.owner_active = True
            self._set_state(MachineState.OWNER)
        if until_change != float("inf"):
            self.sim.schedule(until_change, self._owner_flip)

    # -- dynamic state -------------------------------------------------------

    @property
    def speed(self) -> float:
        return self.spec.mips / REFERENCE_MIPS

    @property
    def keyboard_idle(self) -> float:
        """Seconds since the owner last touched the machine."""
        if self.owner_active:
            return 0.0
        return self.sim.now - self._owner_last_departure

    @property
    def load_avg(self) -> float:
        """Owner-induced load (job load is excluded, as Condor's owner
        policies consult the non-Condor load average)."""
        return 1.25 if self.owner_active else 0.05

    @property
    def day_time(self) -> float:
        return self.sim.now % 86_400.0

    def _owner_flip(self) -> None:
        if self.owner_active:
            self.owner_active = False
            self._owner_last_departure = self.sim.now
            if self.state is MachineState.OWNER:
                self._set_state(MachineState.UNCLAIMED)
            self.trace.emit(self.sim.now, "owner-departed", machine=self.spec.name)
            next_in = self.owner_model.idle_duration(self.rng)
        else:
            self.owner_active = True
            self.trace.emit(self.sim.now, "owner-arrived", machine=self.spec.name)
            if self.claim is not None:
                self._evict("owner-returned")
                self.evictions_owner += 1
            self._set_state(MachineState.OWNER)
            next_in = self.owner_model.active_duration(self.rng)
        if next_in != float("inf"):
            self.sim.schedule(next_in, self._owner_flip)

    def _set_state(self, new: MachineState) -> None:
        if new is self.state and new is not MachineState.CLAIMED:
            return
        check_machine_transition(self.state, new)
        self.state = new
        if new is MachineState.UNCLAIMED:
            self.authority.mint()  # fresh ticket for the next customer
        elif new is MachineState.OWNER:
            self.authority.revoke()
        if self.advertise_on_state_change:
            # The immediate ad on state change is what bounds staleness in
            # deployed Condor; E2 disables it to sweep pure-periodic pools.
            self.advertise()

    # -- advertising (Figure 3, step 1) ---------------------------------------

    def build_ad(self) -> ClassAd:
        """The RA's current classad — the Figure 1 shape."""
        ad = ClassAd(
            {
                "Type": "Machine",
                "Name": self.spec.name,
                "State": self.state.value,
                "Activity": (
                    Activity.BUSY.value
                    if self.claim is not None or self.owner_active
                    else Activity.IDLE.value
                ),
                "Arch": self.spec.arch,
                "OpSys": self.spec.opsys,
                "Memory": self.spec.memory,
                "Disk": self.spec.disk,
                "Mips": self.spec.mips,
                "KFlops": self.spec.kflops,
                "LoadAvg": self.load_avg,
                "KeyboardIdle": self.keyboard_idle,
                "DayTime": self.day_time,
                "ContactAddress": self.address,
            }
        )
        for key, value in self.spec.extra_attrs.items():
            ad[key] = value
        src = (self.spec.constraint, self.spec.rank)
        if src != self._policy_src:
            self._policy_src = src
            self._constraint_expr = parse(src[0])
            self._rank_expr = parse(src[1])
        if self.state is MachineState.OWNER:
            # Owner present: the START policy is unsatisfiable, full stop.
            ad["Constraint"] = _FALSE_EXPR
        else:
            ad["Constraint"] = self._constraint_expr
        ad["Rank"] = self._rank_expr
        if self.claim is not None:
            ad["RemoteOwner"] = str(self.claim.job_ad.evaluate("Owner"))
            ad["CurrentRank"] = self.claim.rank
        ticket = self.authority.current
        if ticket is not None:
            embed_ticket(ad, ticket)
        return ad

    def advertise(self) -> None:
        self._sequence += 1
        seq = self._sequence
        ad = self.build_ad()
        message = None
        if (
            _switches.refresh
            and self._last_fp is not None
            # Never refresh at the instant the referenced full ad was
            # sent: latency jitter could deliver the Refresh first and
            # force a needless resync round trip.
            and self.sim.now > self._last_full_at
            and stable_equal(ad, self._last_ad, VOLATILE_MACHINE_ATTRS)
        ):
            volatile = volatile_values(ad, VOLATILE_MACHINE_ATTRS)
            if volatile is not None:
                ADV_REFRESHES.inc()
                message = Refresh(
                    sender=self.address,
                    recipient=self.collector_address,
                    name=f"machine.{self.spec.name}",
                    fingerprint=self._last_fp,
                    lifetime=self.ad_lifetime,
                    sequence=seq,
                    volatile=volatile,
                )
        if message is None:
            if _switches.refresh:
                self._last_ad = ad
                self._last_fp = fingerprint(ad, exclude=VOLATILE_MACHINE_ATTRS)
                self._last_full_at = self.sim.now
            else:
                self._last_ad = None
                self._last_fp = None
            ADV_FULL_ADS.inc()
            message = Advertisement(
                sender=self.address,
                recipient=self.collector_address,
                name=f"machine.{self.spec.name}",
                ad=ad,
                lifetime=self.ad_lifetime,
                sequence=seq,
                fingerprint=self._last_fp,
            )
        # Retransmit unless a newer ad has superseded this one (the
        # collector would drop the stale sequence anyway) or we died.
        self._ad_retx.send(
            message, stop_when=lambda: self._sequence != seq or self.crashed
        )
        self.trace.emit(
            self.sim.now, "advertise-machine", machine=self.spec.name, state=self.state.value
        )

    # -- message handling ------------------------------------------------------

    def _on_message(self, message) -> None:
        if isinstance(message, ClaimRequest):
            self._on_claim_request(message)
        elif isinstance(message, MatchNotification):
            # Step 3 arrives here too; the RA just awaits the claim.
            # Notifications may be retransmitted — record each once.
            if message.match_id in self._seen_notifications:
                return
            self._remember(self._seen_notifications, message.match_id, True)
            self.trace.emit(
                self.sim.now, "match-notified-provider", machine=self.spec.name,
                match=message.match_id,
            )
        elif isinstance(message, ReleaseNotice):
            self._on_release(message)
        elif isinstance(message, ResendRequest):
            self._on_resend_request(message)
        elif isinstance(message, NoticeAck):
            self._pending_notices.pop(message.match_id, None)
        elif isinstance(message, KeepAlive):
            self._on_keepalive(message)

    def _on_resend_request(self, message: ResendRequest) -> None:
        """The collector cannot honour our Refresh (it crashed, expired
        the ad, or saw a different fingerprint): forget the cached state
        and re-advertise in full immediately — the one-round-trip resync
        that keeps crash recovery within an advertising period."""
        if message.name != f"machine.{self.spec.name}" or self.crashed:
            return
        self._last_ad = None
        self._last_fp = None
        self.advertise()

    def _on_keepalive(self, message: KeepAlive) -> None:
        claim = self.claim
        if claim is not None and claim.match_id == message.match_id:
            claim.last_alive = self.sim.now
            if self.claim_lease is not None:
                claim.lease_expires = self.sim.now + self.claim_lease
                _RA_LEASES_RENEWED.inc()
                if _events.enabled:
                    _events.emit(
                        "claim.lease.renewed",
                        t=self.sim.now,
                        machine=self.spec.name,
                        match=claim.match_id,
                        expires=claim.lease_expires,
                    )
                self.net.send(
                    LeaseAck(
                        sender=self.address,
                        recipient=message.sender,
                        match_id=message.match_id,
                        ok=True,
                        lease=self.claim_lease,
                    )
                )
        elif self.claim_lease is not None:
            # No such claim here: NACK so the customer stops renewing a
            # dead claim and recovers the job (e.g. after we crashed).
            self.net.send(
                LeaseAck(
                    sender=self.address,
                    recipient=message.sender,
                    match_id=message.match_id,
                    ok=False,
                )
            )

    @staticmethod
    def _remember(cache: OrderedDict, key, value) -> None:
        cache[key] = value
        while len(cache) > _REPLAY_CAP:
            cache.popitem(last=False)

    def _send_reliably(self, notice) -> None:
        """Send a claim-teardown notice, retrying until the CA acks.

        A lost JobCompleted/JobEvicted would strand the job at the CA, so
        these get at-least-once delivery (Condor relies on TCP here; our
        network is datagram-like).  Duplicates are fine: the CA
        de-duplicates by match id.
        """
        self._pending_notices[notice.match_id] = notice
        self.net.send(notice)
        if _switches.retry:
            self._schedule_notice_retry(notice.match_id, self.max_notice_retries)
        else:
            self._pending_notices.pop(notice.match_id, None)

    def _schedule_notice_retry(self, match_id: int, retries_left: int) -> None:
        self.sim.schedule(
            self.notice_retry_interval, self._notice_retry, (match_id, retries_left)
        )

    def _notice_retry(self, state) -> None:
        match_id, retries_left = state
        notice = self._pending_notices.get(match_id)
        if notice is None:
            return  # acked
        if retries_left <= 0 or not _switches.retry:
            self._pending_notices.pop(match_id, None)
            return  # peer presumed dead; leases cover the rest
        self.net.send(notice)
        self._schedule_notice_retry(match_id, retries_left - 1)

    def _claim_key(self, request: ClaimRequest):
        job_id = request.customer_ad.evaluate("JobId")
        return (
            request.match_id,
            request.sender,
            job_id if isinstance(job_id, int) else -1,
        )

    def _on_claim_request(self, request: ClaimRequest) -> None:
        # Duplicate suppression: a retransmitted request replays the
        # original verdict instead of colliding with the claim it itself
        # created (which would wrongly answer ALREADY_CLAIMED).  The
        # accept is only replayed while that exact claim is still live;
        # afterwards the honest answer is "that claim is gone".
        cached = self._claim_verdicts.get(self._claim_key(request))
        if cached is not None:
            _RA_DUP_CLAIMS.inc()
            accepted, reason = cached
            claim = self.claim
            if accepted and (claim is None or claim.match_id != request.match_id):
                accepted, reason = False, "stale-claim"
            self.net.send(
                ClaimResponse(
                    sender=self.address,
                    recipient=request.sender,
                    match_id=request.match_id,
                    accepted=accepted,
                    reason=reason,
                    lease_duration=self.claim_lease if accepted else None,
                )
            )
            return
        preempting = False
        if self.claim is not None:
            # Rank preemption: only a strictly better customer may displace
            # the current one; otherwise the claim is refused outright.
            current_ad = self.build_ad()
            new_rank = rank_value(current_ad.evaluate("Rank", other=request.customer_ad))
            if new_rank > self.claim.rank:
                preempting = True
            else:
                self._respond(request, False, ClaimVerdict.ALREADY_CLAIMED.value)
                return
        decision = verify_claim(
            request_ad=request.customer_ad,
            current_resource_ad=self.build_ad(),
            presented_ticket=request.ticket,
            authority=self.authority,
            already_claimed=False,
            policy=self.policy,
        )
        if not decision.accepted:
            self._respond(request, False, decision.verdict.value)
            return
        if preempting:
            self._evict("preempted-by-higher-rank")
            self.evictions_preempted += 1
        self._accept_claim(request)

    def _respond(self, request: ClaimRequest, accepted: bool, reason: str) -> None:
        if accepted:
            self.claims_accepted += 1
        else:
            self.claims_rejected += 1
        self._remember(self._claim_verdicts, self._claim_key(request), (accepted, reason))
        job_id = request.customer_ad.evaluate("JobId")
        self.trace.emit(
            self.sim.now,
            "claim-response",
            machine=self.spec.name,
            accepted=accepted,
            reason=reason,
            match=request.match_id,
            job=job_id if isinstance(job_id, int) else -1,
        )
        self.net.send(
            ClaimResponse(
                sender=self.address,
                recipient=request.sender,
                match_id=request.match_id,
                accepted=accepted,
                reason=reason,
                lease_duration=self.claim_lease if accepted else None,
            )
        )

    def _accept_claim(self, request: ClaimRequest) -> None:
        job_ad = request.customer_ad
        rank = rank_value(self.build_ad().evaluate("Rank", other=job_ad))
        remaining = job_ad.evaluate("RemainingWork")
        remaining = float(remaining) if isinstance(remaining, (int, float)) else 0.0
        wants_checkpoint = job_ad.evaluate("WantCheckpoint") in (1, True)
        job_id = job_ad.evaluate("JobId")
        claim = _Claim(
            match_id=request.match_id,
            customer_address=request.sender,
            job_ad=job_ad,
            job_id=job_id if isinstance(job_id, int) else -1,
            rank=rank,
            started_at=self.sim.now,
            wants_checkpoint=wants_checkpoint,
            ctx=_causal.current(),
        )
        wall_time = remaining * REFERENCE_MIPS / self.spec.mips
        claim.completion_handle = self.sim.schedule(wall_time, self._complete)
        claim.last_alive = self.sim.now
        self.claim = claim
        if self.claim_lease is not None:
            claim.lease_expires = self.sim.now + self.claim_lease
            self._arm_lease_reaper(claim)
            if _events.enabled:
                _events.emit(
                    "claim.lease.granted",
                    t=self.sim.now,
                    machine=self.spec.name,
                    match=claim.match_id,
                    job=claim.job_id,
                    lease=self.claim_lease,
                )
        # Rotate the ticket: the consumed one must not authorize a second
        # claim, and subsequent (Claimed-state) ads carry a fresh ticket
        # for potential preemptors.
        self.authority.mint()
        self._set_state(MachineState.CLAIMED)
        if self.on_claim_started is not None:
            self.on_claim_started(str(job_ad.evaluate("Owner")), self.spec.name)
        self._respond(
            ClaimRequest(
                sender=claim.customer_address,
                recipient=self.address,
                customer_ad=job_ad,
                ticket=None,
                match_id=claim.match_id,
            ),
            True,
            ClaimVerdict.ACCEPTED.value,
        )

    def _arm_lease_reaper(self, claim: _Claim) -> None:
        """Fire exactly when the lease would lapse; each renewal pushes
        ``lease_expires`` forward, so the reaper just re-arms itself
        until the deadline is real (Condor's ALIVE protocol, with a
        reaper instead of the old half-lease poll).  The claim itself
        rides the kernel's argument slot — no closure per re-arm."""
        delay = max(claim.lease_expires - self.sim.now, 0.0)
        self.sim.schedule(delay + 1e-9, self._lease_reap, claim)

    def _lease_reap(self, claim: _Claim) -> None:
        if self.claim is not claim:
            return  # claim already ended
        if self.sim.now >= claim.lease_expires:
            self.evictions_lease += 1
            _RA_LEASES_EXPIRED.inc()
            if _events.enabled:
                _events.emit(
                    "claim.lease.expired",
                    t=self.sim.now,
                    machine=self.spec.name,
                    match=claim.match_id,
                    job=claim.job_id,
                )
            self._evict("claim-lease-expired")
            if not self.owner_active:
                self._set_state(MachineState.UNCLAIMED)
        else:
            self._arm_lease_reaper(claim)

    def _work_done(self, claim: _Claim) -> float:
        """Reference CPU-seconds executed so far under *claim*."""
        return (self.sim.now - claim.started_at) * self.spec.mips / REFERENCE_MIPS

    def _complete(self) -> None:
        claim = self.claim
        if claim is None:
            return
        self.claim = None
        self.jobs_completed += 1
        self.trace.emit(
            self.sim.now, "job-completed", machine=self.spec.name, job=claim.job_id
        )
        with _causal.activate(claim.ctx if _causal.enabled else None):
            self._send_reliably(
                JobCompleted(
                    sender=self.address,
                    recipient=claim.customer_address,
                    match_id=claim.match_id,
                    job_id=claim.job_id,
                    work_done=self._work_done(claim),
                )
            )
        if self.on_claim_ended is not None:
            self.on_claim_ended(str(claim.job_ad.evaluate("Owner")), self.spec.name)
        if not self.owner_active:
            self._set_state(MachineState.UNCLAIMED)

    def _evict(self, reason: str) -> None:
        claim = self.claim
        if claim is None:
            return
        self.claim = None
        if claim.completion_handle is not None:
            self.sim.cancel(claim.completion_handle)
        checkpointed = claim.wants_checkpoint
        if checkpointed and self.vacate_grace is not None:
            memory = claim.job_ad.evaluate("Memory")
            memory = float(memory) if isinstance(memory, (int, float)) else 64.0
            checkpoint_time = memory / self.checkpoint_rate_mb_s
            checkpointed = checkpoint_time <= self.vacate_grace
        self.trace.emit(
            self.sim.now,
            "job-evicted",
            machine=self.spec.name,
            job=claim.job_id,
            reason=reason,
            checkpointed=checkpointed,
        )
        with _causal.activate(claim.ctx if _causal.enabled else None):
            self._send_reliably(
                JobEvicted(
                    sender=self.address,
                    recipient=claim.customer_address,
                    match_id=claim.match_id,
                    job_id=claim.job_id,
                    reason=reason,
                    checkpointed=checkpointed,
                    work_done=self._work_done(claim),
                )
            )
        if self.on_claim_ended is not None:
            self.on_claim_ended(str(claim.job_ad.evaluate("Owner")), self.spec.name)

    # -- failure injection (chaos crash schedules) -------------------------

    def crash(self) -> None:
        """The RA process dies: it stops transmitting, loses its claim
        and any pending teardown notices, and its ads go stale.  The
        customer learns of the loss only through the lease protocol."""
        if self.crashed:
            return
        self.crashed = True
        self.net.set_down(self.address)
        claim = self.claim
        if claim is not None:
            self.claim = None
            if claim.completion_handle is not None:
                self.sim.cancel(claim.completion_handle)
            if self.on_claim_ended is not None:
                self.on_claim_ended(str(claim.job_ad.evaluate("Owner")), self.spec.name)
        self._pending_notices.clear()
        self._claim_verdicts.clear()
        self._seen_notifications.clear()
        # The collector may expire our ad while we are down: the first
        # post-restart advertisement must be a full one.
        self._last_ad = None
        self._last_fp = None
        self.trace.emit(self.sim.now, "machine-crash", machine=self.spec.name)

    def restart(self) -> None:
        """Reboot after :meth:`crash`: fresh ticket, fresh ads, no
        memory of the old claim."""
        if not self.crashed:
            return
        self.crashed = False
        self.net.set_down(self.address, down=False)
        target = MachineState.OWNER if self.owner_active else MachineState.UNCLAIMED
        if self.state is not target:
            self._set_state(target)  # mints/revokes the ticket, re-advertises
        else:
            if target is MachineState.UNCLAIMED:
                self.authority.mint()
            self.advertise()
        self.trace.emit(self.sim.now, "machine-restart", machine=self.spec.name)

    def _on_release(self, notice: ReleaseNotice) -> None:
        """Customer relinquished the claim (Section 4)."""
        if self.claim is not None and self.claim.match_id == notice.match_id:
            claim = self.claim
            self.claim = None
            if claim.completion_handle is not None:
                self.sim.cancel(claim.completion_handle)
            self.trace.emit(
                self.sim.now, "claim-released", machine=self.spec.name, job=claim.job_id
            )
            if self.on_claim_ended is not None:
                self.on_claim_ended(str(claim.job_ad.evaluate("Owner")), self.spec.name)
            if not self.owner_active:
                self._set_state(MachineState.UNCLAIMED)

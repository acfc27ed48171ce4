"""The negotiator half of the central manager — S16 in DESIGN.md.

Section 4: "Periodically, the pool manager enters a negotiation cycle.
This phase invokes the matchmaking algorithm, which determines which CAs
require matchmaking services, obtains requests from these CAs, and
matches them with compatible RA ads. ... When the pool manager
determines that two classads match, it invokes the matchmaking protocol
to contact the matched principals at the contact addresses specified in
their classads and send them each other's classads.  The manager also
gives the CA the authorization ticket supplied by the RA."

The negotiator is *stateless across cycles* except for the fair-share
accountant (which Condor persists separately); each cycle recomputes
from the collector's current ads.
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..matchmaking import Accountant, Assignment, CycleStats, negotiation_cycle
from ..matchmaking.index import ProviderIndex
from ..matchmaking.match import DEFAULT_POLICY, MatchPolicy
from ..obs import metrics as _metrics, tracer as _tracer
from ..obs.causal import causal_log as _causal
from ..protocols import BackoffPolicy, Retransmitter, build_notifications
from ..sim import Network, Simulator, Trace
from .collector import Collector

_NEG_CYCLES = _metrics.counter("negotiator.cycles", "negotiator cycles fired")
_NEG_MATCHES = _metrics.counter("negotiator.matches", "assignments notified")
_NEG_NOTIFY_FAILURES = _metrics.counter(
    "negotiator.notify_failures", "matches dropped for missing contact addresses"
)
_NEG_CYCLE_SECONDS = _metrics.histogram(
    "negotiator.cycle_seconds", "wall-clock cost of one full negotiator cycle"
)
_NEG_PROVIDERS = _metrics.gauge(
    "negotiator.providers", "machine ads seen at the last cycle"
)
_NEG_REQUESTS_PENDING = _metrics.gauge(
    "negotiator.requests_pending", "job ads queued at the last cycle"
)


class Negotiator:
    """Runs periodic negotiation cycles against a collector."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        collector: Collector,
        trace: Optional[Trace] = None,
        address: str = "negotiator@cm",
        cycle_interval: float = 300.0,
        accountant: Optional[Accountant] = None,
        policy: MatchPolicy = DEFAULT_POLICY,
        allow_preemption: bool = True,
        use_index: bool = False,
        with_session_key: bool = False,
        rng=None,
    ):
        self.sim = sim
        self.net = net
        self.collector = collector
        #: Match notifications get one blind retransmit shortly after
        #: the original (both receivers de-duplicate by match id); a
        #: notification lost twice is recovered by the next cycle.
        self._notify_retx = Retransmitter(
            sim,
            net,
            rng=rng.fork("retry") if rng is not None else None,
            kind="match-notification",
            policy=BackoffPolicy(base=5.0, factor=2.0, cap=10.0, jitter=0.25, max_tries=1),
        )
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.address = address
        self.cycle_interval = cycle_interval
        self.accountant = accountant if accountant is not None else Accountant()
        self.policy = policy
        self.allow_preemption = allow_preemption
        self.use_index = use_index
        self.with_session_key = with_session_key

        self.cycles_run = 0
        self.total_matches = 0
        self.last_cycle_stats: Optional[CycleStats] = None
        self._down = False
        net.register(self.address, lambda message: None)  # no inbound traffic
        sim.every(cycle_interval, self.run_cycle)

    def run_cycle(self) -> List[Assignment]:
        """One negotiation cycle: match, then notify (Figure 3, steps 2–3)."""
        if self._down:
            return []
        start = time.perf_counter()
        self.accountant.advance_to(self.sim.now)
        index: Optional[ProviderIndex] = None
        if self.use_index:
            # The collector's persistent index is delta-maintained by the
            # advertising traffic — no per-cycle select + rebuild.
            mindex = self.collector.provider_index()
            providers = mindex.providers()
            index = mindex.index
        else:
            providers = self.collector.machine_ads()
        requests = self.collector.job_ads_by_owner()
        stats = CycleStats()
        with _tracer.span(
            "negotiator_cycle", now=self.sim.now, providers=len(providers)
        ) as span:
            assignments = negotiation_cycle(
                requests,
                providers,
                accountant=self.accountant,
                policy=self.policy,
                allow_preemption=self.allow_preemption,
                index=index,
                stats=stats,
            )
            span.annotate(matched=len(assignments))
        if _metrics.enabled:
            _NEG_CYCLES.inc()
            _NEG_MATCHES.inc(len(assignments))
            _NEG_PROVIDERS.set(len(providers))
            _NEG_REQUESTS_PENDING.set(sum(len(ads) for ads in requests.values()))
            _NEG_CYCLE_SECONDS.observe(time.perf_counter() - start)
        self.cycles_run += 1
        self.total_matches += len(assignments)
        self.last_cycle_stats = stats
        self.trace.emit(
            self.sim.now,
            "negotiation-cycle",
            machines=len(providers),
            requests=stats.requests_considered,
            matched=len(assignments),
            preemptions=stats.preemptions,
        )
        for assignment in assignments:
            self._notify(assignment)
        self.collector.sample_pool(
            cycle=self.cycles_run,
            matched=len(assignments),
            requests=stats.requests_considered,
            match_rate=(
                len(assignments) / stats.requests_considered
                if stats.requests_considered
                else 0.0
            ),
            preemptions=stats.preemptions,
        )
        return assignments

    def _notify(self, assignment: Assignment) -> None:
        try:
            to_customer, to_provider = build_notifications(
                self.address,
                assignment.request,
                assignment.provider,
                with_session_key=self.with_session_key,
            )
        except ValueError:
            # An ad slipped in without a contact address; the advertising
            # protocol should have rejected it — drop the match, log it.
            _NEG_NOTIFY_FAILURES.inc()
            self.trace.emit(self.sim.now, "notify-failed", submitter=assignment.submitter)
            return
        job_id = assignment.request.evaluate("JobId")
        self.trace.emit(
            self.sim.now,
            "match",
            submitter=assignment.submitter,
            job=job_id,
            machine=assignment.provider.evaluate("Name"),
            preempts=assignment.preempts,
        )
        ctx = None
        if _causal.enabled:
            # Stitch the negotiation decision into the job's trace: the
            # match span parents on the stored job ad's delivery context
            # (the recv span of the advertisement that got matched), and
            # both notifications descend from the match span.
            parent = self.collector.ad_context(
                f"job.{assignment.submitter}.{job_id}"
            )
            if parent is not None:
                ctx = _causal.span(
                    "negotiate.match",
                    parent=parent,
                    submitter=assignment.submitter,
                    job=job_id,
                    machine=to_customer.peer_address,
                    match=to_customer.match_id,
                )
        with _causal.activate(ctx):
            self._notify_retx.send(to_customer)
            self._notify_retx.send(to_provider)

    # -- failure injection ----------------------------------------------------

    def crash(self) -> None:
        """Stop negotiating (experiment E1).  The matchmaker holds no
        match state, so nothing else needs saving."""
        self._down = True
        self.trace.emit(self.sim.now, "negotiator-crash")

    def recover(self) -> None:
        self._down = False
        self.trace.emit(self.sim.now, "negotiator-recover")

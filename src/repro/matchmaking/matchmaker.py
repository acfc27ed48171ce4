"""The matchmaker service — S6 in DESIGN.md.

"A designated matchmaking service (matchmaker) matches classads in a
manner that satisfies the constraints specified in the respective
advertisements and informs the relevant entities of the match.  The
responsibility of the matchmaker then ceases with respect to the match."
(Section 3.)

Two layers live here:

* :class:`Matchmaker` — the stateless match engine: given the current ad
  collection it identifies matches; it retains *no state about matches*
  (the paper's end-to-end argument), only the ads most recently
  advertised to it, which are soft state refreshed by the advertising
  protocol and fully reconstructible after a crash (experiment E1).
* :func:`negotiation_cycle` — the pure algorithm of Section 4's
  "negotiation cycle": serve submitters in fair-share order, pick the
  best-ranked compatible resource for each request, honouring
  Rank-driven preemption.

Since PR 4 the cycle is *batched*: the paper's Section 5 observation
that ad lists "exhibit a high degree of regularity" holds for requests
too — a submitter's queue is typically thousands of jobs with a handful
of distinct Requirements/Rank combinations.  The cycle groups requests
into behavioural equivalence classes (see :func:`_request_signature`),
evaluates constraints and ranks once per (class, provider), and lets
class members consume the shared ranked candidate list under the
per-cycle ``taken`` set.  The batched cycle is assignment-identical to
the naive scan — same matches, same preemptions, same tie-breaks, and
(with the event log on) the same forensic event stream, replayed per
member from the per-class dispositions.  The ``batch`` switch
(``REPRO_NO_BATCH=1``; see docs/PERFORMANCE.md "Runtime switches") falls
back to the naive reference path, mirroring PR 3's ``compile`` switch.

Since PR 7 the batched engine's per-class candidate construction can
additionally fan out to a persistent pool of scoring worker *processes*
(:mod:`.parallel`): constraint checks and bilateral rank evaluations for
each ``(class, provider)`` pair run on every core, results are merged in
deterministic provider order, and assignment/preemption/fair-share
commit stays serial and unchanged — so parallel cycles are bit-for-bit
identical to serial ones.  ``REPRO_SCORING_WORKERS=<n>`` opts in (0, the
default, keeps scoring serial), and small classes fall back to the
serial scorer automatically (IPC overhead dominates tiny pools).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..classads import ClassAd
from ..classads.ast import Expr, Literal, external_references
from ..classads.compile import cache_hits_total as _compiled_cache_hits, structural_key
from ..config import switches as _switches
from ..obs import event_log as _events, metrics as _metrics, tracer as _tracer
from . import parallel as _parallel
from .accounting import Accountant
from .diagnose import attribute_failure
from .index import MaintainedIndex, ProviderIndex
from .match import (
    DEFAULT_POLICY,
    Match,
    MatchPolicy,
    availability_of,
    best_match,
    constraints_satisfied,
    current_owner_of,
    current_rank_of,
    evaluate_rank,
    rank_candidates,
)
from .query import select

# Observability: the hot loop accumulates into the (pre-existing, local)
# CycleStats and the global counters are bumped once per cycle, so an
# enabled registry adds a handful of dict updates per cycle — not per
# (request, provider) pair.
_MM_CYCLES = _metrics.counter("matchmaker.cycles", "negotiation cycles run")
_MM_REQUESTS = _metrics.counter("matchmaker.requests", "requests considered")
_MM_MATCHED = _metrics.counter("matchmaker.matched", "requests matched")
_MM_REJECTED = _metrics.counter(
    "matchmaker.rejected", "requests with no compatible provider this cycle"
)
_MM_PREEMPTIONS = _metrics.counter(
    "matchmaker.preemptions", "matches that preempt a running customer"
)
_MM_PRUNED = _metrics.counter(
    "matchmaker.index_pruned", "constraint evaluations saved by index pre-filtering"
)
_MM_CLASSES = _metrics.counter(
    "matchmaker.request_classes", "request equivalence classes built per cycle"
)
_MM_CYCLE_SECONDS = _metrics.histogram(
    "matchmaker.cycle_seconds", "wall-clock duration of one negotiation cycle"
)

#: Process-wide negotiation-cycle numbering for the forensic event log —
#: every ``cycle.*``/``match.*`` event carries one of these so post-mortem
#: queries can group a run's events by cycle.
_CYCLE_IDS = itertools.count(1)


def reset_cycle_ids() -> None:
    """Restart cycle numbering at 1 (fresh recordings — ``repro chaos``
    resets before each run so same-seed event streams are bitwise
    identical)."""
    global _CYCLE_IDS
    _CYCLE_IDS = itertools.count(1)


def _identity_field(ad: ClassAd, name: str):
    """Fast identity read for event fields: ads bind ``Name``/``JobId``
    to plain literals, which can be read off the AST without paying the
    evaluator — the per-rejection emit path must stay cheap enough to
    hold the <=5% events-enabled overhead bar."""
    expr = ad.lookup(name)
    if expr is None:
        return None
    if isinstance(expr, Literal):
        value = expr.value
    else:
        value = ad.evaluate(name)
    return value if isinstance(value, (int, float, str)) and not isinstance(value, bool) else None


def _job_identity(request: ClassAd) -> Dict[str, object]:
    """The fields that name a request in forensic events."""
    return {"job": _identity_field(request, "JobId")}


def _provider_name(provider: ClassAd):
    return _identity_field(provider, "Name")


@dataclass(frozen=True)
class Assignment:
    """One negotiated match: a request ad paired with a provider ad.

    ``preempts`` names the submitter currently occupying the provider
    when the match is preemptive, else None.
    """

    submitter: str
    request: ClassAd
    provider: ClassAd
    customer_rank: float
    provider_rank: float
    preempts: Optional[str] = None


@dataclass
class CycleStats:
    """Bookkeeping for one negotiation cycle (feeds E6's benchmarks)."""

    submitters_considered: int = 0
    requests_considered: int = 0
    matched: int = 0
    preemptions: int = 0
    constraint_evaluations_saved: int = 0  # by index pre-filtering
    request_classes: int = 0  # equivalence classes built (0 on the naive path)
    pairings_saved: int = 0  # (request, provider) pairings served from a class
    parallel_chunks: int = 0  # worker chunks engaged by class builds
    parallel_pairs_scored: int = 0  # pairs evaluated in worker processes
    parallel_fallbacks: int = 0  # class builds scored serially despite config


# Backwards-compatible aliases: these classification helpers moved to
# .match in PR 4 so the batched engine and the naive reference path share
# one definition.
_availability = availability_of
_current_rank = current_rank_of
_current_owner = current_owner_of


# -- request equivalence ------------------------------------------------------
#
# Two requests are behaviourally interchangeable inside a cycle when every
# expression the matching algorithm can possibly evaluate against them is
# structurally identical (refined by literal types — the compile module's
# memo key).  That covers (a) the request's own Constraint and Rank plus
# every self/bare attribute they transitively read, and (b) every request
# attribute some provider in the pool reads through ``other.`` (or a bare
# name the provider doesn't define itself) — providers constrain customers
# too, so the signature must close over what the *pool* observes, not just
# what the request mentions.

_REFS_MEMO: Dict[Expr, frozenset] = {}
_REFS_LIMIT = 2048


def _expr_refs(expr: Expr) -> frozenset:
    """Memoized :func:`external_references`.

    Keyed structurally: equal ASTs reference equal attribute sets even
    when their literal *types* differ, so the conflation that forces
    ``structural_key`` to carry a type signature is harmless here.
    """
    refs = _REFS_MEMO.get(expr)
    if refs is None:
        if len(_REFS_MEMO) >= _REFS_LIMIT:
            _REFS_MEMO.clear()
        refs = frozenset(external_references(expr))
        _REFS_MEMO[expr] = refs
    return refs


def _provider_observed_attrs(provider: ClassAd, policy: MatchPolicy) -> Set[str]:
    """Request attributes this provider's Constraint/Rank can read.

    Transitive: a Constraint referencing the provider's own ``MyPolicy``
    attribute observes whatever *that* expression reads.  ``other.X``
    always reads the request; a bare ``X`` only falls through to the
    request when the provider does not define it.
    """
    observed: Set[str] = set()
    seen: Set[str] = set()
    stack: List[Expr] = []
    cname = policy.constraint_of(provider)
    if cname is not None:
        stack.append(provider.lookup(cname))
    rank_expr = provider.lookup(policy.rank_attr)
    if rank_expr is not None:
        stack.append(rank_expr)
    while stack:
        expr = stack.pop()
        for scope, name in _expr_refs(expr):
            if scope == "other":
                observed.add(name)
            elif scope == "self" or name in provider:
                if name not in seen:
                    seen.add(name)
                    sub = provider.lookup(name)
                    if sub is not None:
                        stack.append(sub)
            else:
                observed.add(name)
    return observed


def _pool_observed_attrs(providers: Sequence[ClassAd], policy: MatchPolicy) -> Set[str]:
    """Union of request attributes any provider in the pool can read."""
    observed: Set[str] = set()
    for provider in providers:
        observed |= _provider_observed_attrs(provider, policy)
    return observed


def _request_signature(
    request: ClassAd, policy: MatchPolicy, observed: Set[str]
) -> Tuple:
    """The equivalence-class key for *request* against this cycle's pool.

    Maps every attribute the cycle can evaluate on the request — its
    Constraint/Rank, their transitive self/bare references, and the
    pool-observed attributes — to its expression's ``structural_key``
    (None when absent; absence is behaviour too: it evaluates to
    ``undefined``).  Equal signatures imply identical constraint, rank,
    and provider-side evaluations against every provider, hence
    identical candidate lists.
    """
    cname = policy.constraint_of(request)
    visited: Dict[str, Optional[Tuple]] = {}
    stack: List[str] = [policy.rank_attr.lower()]
    if cname is not None:
        stack.append(cname.lower())
    stack.extend(observed)
    while stack:
        name = stack.pop()
        if name in visited:
            continue
        expr = request.lookup(name)
        if expr is None:
            visited[name] = None
            continue
        visited[name] = structural_key(expr)
        for scope, ref in _expr_refs(expr):
            if scope != "other":
                stack.append(ref)
    return (None if cname is None else cname.lower(), frozenset(visited.items()))


class _ClassState:
    """Shared per-cycle state of one request equivalence class."""

    __slots__ = ("pool", "cands", "head", "dispositions", "members")

    def __init__(self, pool, cands, dispositions):
        self.pool = pool
        #: Viable candidates as (customer_rank, provider_rank, -pos,
        #: provider, preempts) tuples, best first.  ``-pos`` is unique
        #: within the pool, so sorting never compares the ad objects and
        #: the order equals the naive max()'s preference order.
        self.cands = cands
        self.head = 0  # first candidate not yet known to be taken
        #: Per pool position: None for viable candidates, else the
        #: reject reason replayed into the event log for each member.
        #: Only built while the event log is enabled.
        self.dispositions = dispositions
        self.members = 0  # match attempts served from this class


def negotiation_cycle(
    requests_by_submitter: Mapping[str, Sequence[ClassAd]],
    providers: Sequence[ClassAd],
    accountant: Optional[Accountant] = None,
    policy: MatchPolicy = DEFAULT_POLICY,
    allow_preemption: bool = True,
    index: Optional[ProviderIndex] = None,
    stats: Optional[CycleStats] = None,
    batch: Optional[bool] = None,
) -> List[Assignment]:
    """Run one negotiation cycle and return the assignments.

    Fair matching (Section 4) happens in two mechanisms, both driven by
    the accountant: submitters are served in ascending effective-priority
    order, *and* each submitter's matches in the first serving round are
    capped at its fair-share "pie slice" of the available resources
    (shares ∝ 1/effective-priority).  Remaining capacity is then handed
    out unrestricted in priority order so no machine idles while work is
    queued.  Ordering alone cannot yield factor-weighted shares — two
    lock-step users would simply alternate whole cycles — which is why
    deployed Condor spins the pie; we reproduce that.

    For each request, the best compatible provider is chosen by
    (customer Rank, provider Rank) per Section 3.1.  A claimed provider
    may be matched only when preemption is allowed and the provider
    ranks the new customer *strictly above* its advertised
    ``CurrentRank`` — Section 4's "it is still interested in hearing
    from higher priority customers".

    ``batch`` overrides the ``batch`` switch for this cycle (None
    follows ``repro.config.switches.batch``).  Batched and naive cycles
    produce identical assignments; the batched one evaluates each
    distinct (class, provider) pairing once.

    Parallel scoring engages only on the batched path, only when the
    ``scoring_workers`` switch configures a worker pool, and only for
    classes whose candidate pool clears the ``pair_threshold`` switch —
    everything else scores serially, and the results are identical
    either way.

    The cycle only *identifies* matches; claiming is the parties' own
    business (separation of matching and claiming).
    """
    start = time.perf_counter()
    stats = stats if stats is not None else CycleStats()
    # Callers may pass an accumulating CycleStats; count only this
    # cycle's delta into the global registry.
    base_requests = stats.requests_considered
    base_matched = stats.matched
    base_preemptions = stats.preemptions
    base_pruned = stats.constraint_evaluations_saved
    base_classes = stats.request_classes
    base_pairings = stats.pairings_saved
    use_batch = _switches.batch if batch is None else bool(batch)
    # Parallel scoring rides on the batched engine only: the naive path
    # is the semantic reference and stays single-core by construction.
    scoring = _parallel.cycle_scoring(providers) if use_batch else None
    submitters = list(requests_by_submitter.keys())
    if accountant is not None:
        submitters = accountant.negotiation_order(submitters)
    else:
        submitters.sort()

    # Forensics: hoist the event-log switch into a local once per cycle, so
    # the per-pair hot loop pays one local-variable truth test while the
    # log is off — and records clause-level rejection attribution while on.
    emit_events = _events.enabled
    cycle_id = next(_CYCLE_IDS) if emit_events else None
    base_cache_hits = _compiled_cache_hits() if emit_events else 0
    if emit_events:
        _events.emit(
            "cycle.begin",
            cycle=cycle_id,
            submitters=len(submitters),
            providers=len(providers),
            indexed=index is not None,
            batched=use_batch,
        )

    taken: set = set()  # ids of providers already matched this cycle
    assignments: List[Assignment] = []

    # Per-cycle provider memo: availability, preempting occupant, and
    # CurrentRank are facts of the ad, not of the pairing — compute each
    # once per provider per cycle instead of once per (request, provider).
    provider_states: Dict[int, Tuple[str, Optional[str], float]] = {}

    def _provider_state(provider: ClassAd) -> Tuple[str, Optional[str], float]:
        key = id(provider)
        state = provider_states.get(key)
        if state is None:
            avail = availability_of(provider)
            if avail == "preemptable":
                state = (avail, current_owner_of(provider) or "<unknown>", current_rank_of(provider))
            else:
                state = (avail, None, 0.0)
            provider_states[key] = state
        return state

    # Identity fields recur on every rejection event — a busy cycle emits
    # thousands of rejects, each naming the same few ads — so the ClassAd
    # lookups behind them are memoized per cycle like the provider state.
    provider_names: Dict[int, object] = {}
    job_identities: Dict[int, Dict[str, object]] = {}

    def _name_of(provider: ClassAd):
        key = id(provider)
        name = provider_names.get(key)
        if name is None:
            name = provider_names[key] = _provider_name(provider)
        return name

    def _identity_of(request: ClassAd) -> Dict[str, object]:
        key = id(request)
        ident = job_identities.get(key)
        if ident is None:
            ident = job_identities[key] = _job_identity(request)
        return ident

    def emit_reject(submitter: str, request: ClassAd, provider: ClassAd, **fields) -> None:
        _events.emit(
            "match.reject",
            cycle=cycle_id,
            submitter=submitter,
            provider=_name_of(provider),
            **_identity_of(request),
            **fields,
        )

    def emit_constraint_reject(submitter: str, request: ClassAd, provider: ClassAd) -> None:
        """The Section 5 diagnosis, captured at match time: which side's
        Constraint failed, and on which top-level conjunct."""
        attribution = attribute_failure(request, provider, policy)
        fields: Dict[str, object] = {"reason": "constraint"}
        if attribution is not None:
            fields.update(
                side=attribution.side,
                constraint=attribution.constraint,
                conjunct=attribution.conjunct,
                value=attribution.value,
            )
            if attribution.undefined_attrs:
                fields["undefined"] = list(attribution.undefined_attrs)
        emit_reject(submitter, request, provider, **fields)

    def emit_match(submitter: str, request: ClassAd, provider: ClassAd,
                   customer_rank: float, provider_rank: float,
                   preempts: Optional[str]) -> None:
        _events.emit(
            "match.made",
            cycle=cycle_id,
            submitter=submitter,
            provider=_name_of(provider),
            customer_rank=customer_rank,
            provider_rank=provider_rank,
            preempts=preempts,
            **_identity_of(request),
        )
        if preempts is not None:
            _events.emit(
                "preemption",
                cycle=cycle_id,
                submitter=submitter,
                provider=_name_of(provider),
                evicted=preempts,
                **_identity_of(request),
            )

    def _commit(submitter: str, request: ClassAd, provider: ClassAd,
                customer_rank: float, provider_rank: float,
                preempts: Optional[str]) -> None:
        taken.add(id(provider))
        assignments.append(
            Assignment(
                submitter=submitter,
                request=request,
                provider=provider,
                customer_rank=customer_rank,
                provider_rank=provider_rank,
                preempts=preempts,
            )
        )
        stats.matched += 1
        if preempts is not None:
            stats.preemptions += 1
        if emit_events:
            emit_match(submitter, request, provider, customer_rank, provider_rank, preempts)

    # -- naive reference path ---------------------------------------------

    def _naive_try_match(submitter: str, request: ClassAd) -> bool:
        stats.requests_considered += 1
        if index is not None:
            pool = index.candidates_for(request, policy)
            stats.constraint_evaluations_saved += len(providers) - len(pool)
        else:
            pool = providers
        chosen: Optional[Tuple[Match, Optional[str]]] = None
        for pid, provider in enumerate(pool):
            if id(provider) in taken:
                if emit_events:
                    emit_reject(submitter, request, provider, reason="taken")
                continue
            availability, owner, current = _provider_state(provider)
            if availability == "unavailable":
                if emit_events:
                    emit_reject(submitter, request, provider, reason="unavailable")
                continue
            preempts: Optional[str] = None
            if availability == "preemptable":
                if not allow_preemption:
                    if emit_events:
                        emit_reject(
                            submitter, request, provider, reason="preemption-disabled"
                        )
                    continue
                preempts = owner
            if not constraints_satisfied(request, provider, policy):
                if emit_events:
                    emit_constraint_reject(submitter, request, provider)
                continue
            provider_rank = evaluate_rank(provider, request, policy)
            if preempts is not None and provider_rank <= current:
                if emit_events:
                    emit_reject(
                        submitter,
                        request,
                        provider,
                        reason="rank-not-above-current",
                        provider_rank=provider_rank,
                        current_rank=current,
                    )
                continue  # not strictly preferred: no preemption
            candidate = Match(
                customer=request,
                provider=provider,
                customer_rank=evaluate_rank(request, provider, policy),
                provider_rank=provider_rank,
                index=pid,
            )
            if chosen is None or candidate.sort_key > chosen[0].sort_key:
                chosen = (candidate, preempts)
        if chosen is None:
            if emit_events:
                _events.emit(
                    "job.unmatched",
                    cycle=cycle_id,
                    submitter=submitter,
                    candidates=len(pool),
                    **_identity_of(request),
                )
            return False
        match, preempts = chosen
        _commit(
            submitter, request, match.provider,
            match.customer_rank, match.provider_rank, preempts,
        )
        return True

    # -- batched path ------------------------------------------------------

    observed_attrs: Optional[Set[str]] = None
    classes: Dict[Tuple, _ClassState] = {}
    signatures: Dict[int, Tuple] = {}  # id(request) -> signature, this cycle

    def _build_class(rep: ClassAd) -> _ClassState:
        """Evaluate every (class, provider) pairing once, exactly in the
        naive path's check order, and record the outcome.

        With a scoring pool attached, the per-pair evaluations fan out
        to worker processes and come back as outcome tuples in candidate
        order; the serial loop below is both the fallback (small
        classes, worker failure) and the semantic
        reference — outcome tuples are interchangeable between the two.
        """
        if index is not None:
            pool = index.candidates_for(rep, policy)
        else:
            pool = providers
        cands: List[Tuple] = []
        dispositions: Optional[List[Optional[Tuple]]] = (
            [None] * len(pool) if emit_events else None
        )
        if scoring is not None:
            outcomes = scoring.score_class(rep, pool, policy, allow_preemption)
            if outcomes is not None:
                for pid, outcome in enumerate(outcomes):
                    if outcome[0] == "ok":
                        _, customer_rank, provider_rank, preempts = outcome
                        cands.append(
                            (customer_rank, provider_rank, -pid, pool[pid], preempts)
                        )
                    elif emit_events:
                        dispositions[pid] = outcome
                cands.sort(reverse=True)
                return _ClassState(pool, cands, dispositions)
        for pid, provider in enumerate(pool):
            availability, owner, current = _provider_state(provider)
            if availability == "unavailable":
                if emit_events:
                    dispositions[pid] = ("unavailable",)
                continue
            preempts: Optional[str] = None
            if availability == "preemptable":
                if not allow_preemption:
                    if emit_events:
                        dispositions[pid] = ("preemption-disabled",)
                    continue
                preempts = owner
            if not constraints_satisfied(rep, provider, policy):
                if emit_events:
                    dispositions[pid] = ("constraint",)
                continue
            provider_rank = evaluate_rank(provider, rep, policy)
            if preempts is not None and provider_rank <= current:
                if emit_events:
                    dispositions[pid] = ("rank", provider_rank, current)
                continue
            cands.append(
                (evaluate_rank(rep, provider, policy), provider_rank, -pid, provider, preempts)
            )
        cands.sort(reverse=True)
        return _ClassState(pool, cands, dispositions)

    def _replay(submitter: str, request: ClassAd, state: _ClassState) -> None:
        """Reproduce the naive event stream for one member from the class
        dispositions plus the current ``taken`` set (checked first, as
        the naive scan does)."""
        dispositions = state.dispositions
        for pid, provider in enumerate(state.pool):
            if id(provider) in taken:
                emit_reject(submitter, request, provider, reason="taken")
                continue
            d = dispositions[pid]
            if d is None:
                continue
            reason = d[0]
            if reason == "constraint":
                emit_constraint_reject(submitter, request, provider)
            elif reason == "rank":
                emit_reject(
                    submitter,
                    request,
                    provider,
                    reason="rank-not-above-current",
                    provider_rank=d[1],
                    current_rank=d[2],
                )
            else:
                emit_reject(submitter, request, provider, reason=reason)

    def _batched_try_match(submitter: str, request: ClassAd) -> bool:
        nonlocal observed_attrs
        stats.requests_considered += 1
        if observed_attrs is None:
            observed_attrs = _pool_observed_attrs(providers, policy)
        key = id(request)
        sig = signatures.get(key)
        if sig is None:
            sig = signatures[key] = _request_signature(request, policy, observed_attrs)
        state = classes.get(sig)
        if state is None:
            state = classes[sig] = _build_class(request)
            stats.request_classes += 1
        else:
            stats.pairings_saved += len(state.pool)
        state.members += 1
        if index is not None:
            stats.constraint_evaluations_saved += len(providers) - len(state.pool)
        cands = state.cands
        head = state.head
        while head < len(cands) and id(cands[head][3]) in taken:
            head += 1
        state.head = head
        winner = cands[head] if head < len(cands) else None
        if emit_events:
            _replay(submitter, request, state)
        if winner is None:
            if emit_events:
                _events.emit(
                    "job.unmatched",
                    cycle=cycle_id,
                    submitter=submitter,
                    candidates=len(state.pool),
                    **_identity_of(request),
                )
            return False
        customer_rank, provider_rank, _negpid, provider, preempts = winner
        _commit(submitter, request, provider, customer_rank, provider_rank, preempts)
        return True

    _try_match = _batched_try_match if use_batch else _naive_try_match

    def try_match(submitter: str, request: ClassAd) -> bool:
        with _tracer.span("try_match", submitter=submitter) as span:
            matched = _try_match(submitter, request)
            span.annotate(matched=matched)
            return matched

    # Pie slices: cap the first round at each submitter's fair share of
    # the currently matchable capacity.  Rounding each share up to at
    # least one match can over-commit the pie with many low-share
    # submitters, so the quotas are additionally capped to never exceed
    # the matchable capacity in total: later (lower-priority) submitters
    # absorb the shortfall and are served from the spin-pie round.
    quotas: Dict[str, int] = {}
    if accountant is not None and len(submitters) > 1:
        matchable = sum(1 for p in providers if _provider_state(p)[0] != "unavailable")
        shares = accountant.fair_shares(submitters)
        capacity = matchable
        for s in submitters:
            quota = min(max(1, int(round(shares[s] * matchable))), capacity)
            quotas[s] = quota
            capacity -= quota
        if emit_events:
            for position, s in enumerate(submitters):
                _events.emit(
                    "fairshare.quota",
                    cycle=cycle_id,
                    submitter=s,
                    position=position,
                    quota=quotas[s],
                    share=shares[s],
                )

    with _tracer.span(
        "negotiation_cycle",
        submitters=len(submitters),
        providers=len(providers),
        indexed=index is not None,
    ) as cycle_span:
        leftovers: List[Tuple[str, List[ClassAd]]] = []
        for submitter in submitters:
            stats.submitters_considered += 1
            quota = quotas.get(submitter)
            served = 0
            remaining: List[ClassAd] = []
            with _tracer.span("submitter", submitter=submitter) as submitter_span:
                for position, request in enumerate(requests_by_submitter[submitter]):
                    if quota is not None and served >= quota:
                        remaining = list(requests_by_submitter[submitter][position:])
                        break
                    if try_match(submitter, request):
                        served += 1
                submitter_span.annotate(served=served)
            if remaining:
                leftovers.append((submitter, remaining))

        # Spin the pie: hand unused capacity to still-hungry submitters in
        # priority order, unrestricted.
        with _tracer.span("spin_pie", submitters=len(leftovers)):
            for submitter, requests in leftovers:
                for request in requests:
                    try_match(submitter, request)
        cycle_span.annotate(matched=stats.matched, preemptions=stats.preemptions)

    if scoring is not None:
        stats.parallel_chunks += scoring.chunks
        stats.parallel_pairs_scored += scoring.pairs
        stats.parallel_fallbacks += scoring.fallbacks
    if _metrics.enabled:
        requests_seen = stats.requests_considered - base_requests
        matched = stats.matched - base_matched
        _MM_CYCLES.inc()
        _MM_REQUESTS.inc(requests_seen)
        _MM_MATCHED.inc(matched)
        _MM_REJECTED.inc(requests_seen - matched)
        _MM_PREEMPTIONS.inc(stats.preemptions - base_preemptions)
        _MM_PRUNED.inc(stats.constraint_evaluations_saved - base_pruned)
        _MM_CLASSES.inc(stats.request_classes - base_classes)
        _MM_CYCLE_SECONDS.observe(time.perf_counter() - start)
    if emit_events:
        requests_seen = stats.requests_considered - base_requests
        matched = stats.matched - base_matched
        _events.emit(
            "cycle.end",
            cycle=cycle_id,
            requests=requests_seen,
            matched=matched,
            rejected=requests_seen - matched,
            preemptions=stats.preemptions - base_preemptions,
            # Full AST walks avoided this cycle: evaluations served from
            # the compiled-expression cache (0 when REPRO_NO_COMPILE=1).
            evals_saved=_compiled_cache_hits() - base_cache_hits,
            # Request-batching yield: classes built and (request, provider)
            # pairings served from a shared class instead of re-evaluated
            # (both 0 on the naive path).
            request_classes=stats.request_classes - base_classes,
            pairings_saved=stats.pairings_saved - base_pairings,
            # Parallel-scoring yield: configured worker count and chunks
            # dispatched this cycle (both 0 when scoring stayed serial).
            # Like duration_s these describe *how* the cycle computed,
            # not what it decided — differential suites normalize them.
            workers=scoring.workers if scoring is not None else 0,
            chunks=scoring.chunks if scoring is not None else 0,
            duration_s=time.perf_counter() - start,
        )
    return assignments


class Matchmaker:
    """An ad collection plus the matching algorithms — the paper's service.

    The matchmaker holds only *advertisements* (soft state): entities
    re-advertise periodically and ads expire, so a restarted matchmaker
    reconverges without recovery protocol (experiments E1/E2 exercise
    this through the simulated collector, which wraps this class).

    No match state is retained: ``match`` and ``negotiate`` compute from
    the current ads and return; claiming is end-to-end between the
    matched parties.

    Since PR 4 the provider index used by ``negotiate(use_index=True)``
    is *persistent*: a :class:`MaintainedIndex` hangs off the matchmaker
    and is delta-updated by ``advertise``/``withdraw`` instead of being
    rebuilt from the ad collection every cycle.  Note one contract this
    sharpens: an ad must be **re-advertised after mutation** for the
    index to observe the change (which the advertising protocol does
    anyway — soft state is refreshed, not edited in place).
    """

    def __init__(self, policy: MatchPolicy = DEFAULT_POLICY):
        self.policy = policy
        self._ads: Dict[str, ClassAd] = {}
        self._mindex: Optional[MaintainedIndex] = None

    # -- advertising side -------------------------------------------------

    def advertise(self, name: str, ad: ClassAd) -> None:
        """Insert or refresh the ad advertised under *name*."""
        mindex = self._mindex
        if mindex is not None:
            if not mindex.advertise(name, ad, had_prior=name in self._ads):
                # Candidate order can no longer be preserved by deltas;
                # drop the index and rebuild lazily on the next negotiate.
                self._mindex = None
        self._ads[name] = ad

    def withdraw(self, name: str) -> None:
        """Remove an ad; absent names are ignored (idempotent)."""
        if self._mindex is not None:
            self._mindex.withdraw(name)
        self._ads.pop(name, None)

    def clear(self) -> None:
        """Forget everything — simulates a matchmaker crash/restart."""
        self._ads.clear()
        if self._mindex is not None:
            self._mindex.clear()

    def ads(self, constraint: Optional[str] = None) -> List[ClassAd]:
        """All ads, optionally filtered by a one-way constraint."""
        if constraint is None:
            return list(self._ads.values())
        return select(self._ads.values(), constraint)

    def __len__(self) -> int:
        return len(self._ads)

    def __contains__(self, name: str) -> bool:
        return name in self._ads

    # -- matching side ------------------------------------------------------

    def match(self, customer: ClassAd, constraint: Optional[str] = None) -> Optional[Match]:
        """Best provider for a single customer ad among stored ads."""
        providers = self.ads(constraint)
        return best_match(customer, providers, self.policy)

    def matches(self, customer: ClassAd, constraint: Optional[str] = None) -> List[Match]:
        """All compatible providers for *customer*, best first."""
        return rank_candidates(customer, self.ads(constraint), self.policy)

    def query(self, constraint: str) -> List[ClassAd]:
        """One-way matching over the stored ads (status tools)."""
        return select(self.ads(), constraint)

    def provider_index(self, constraint: str = 'Type == "Machine"') -> MaintainedIndex:
        """The persistent provider index for *constraint*, built lazily
        and kept current by ``advertise``/``withdraw`` thereafter."""
        mindex = self._mindex
        if mindex is None or mindex.constraint_source != constraint:
            mindex = self._mindex = MaintainedIndex(
                constraint, items=self._ads.items()
            )
        return mindex

    def negotiate(
        self,
        requests_by_submitter: Mapping[str, Sequence[ClassAd]],
        provider_constraint: str = 'Type == "Machine"',
        accountant: Optional[Accountant] = None,
        allow_preemption: bool = True,
        use_index: bool = False,
        stats: Optional[CycleStats] = None,
    ) -> List[Assignment]:
        """One negotiation cycle over the stored provider ads.

        The scoring worker pool is persistent (spawned on the first
        parallel cycle, reused by every later one — see
        :meth:`scoring_pool`).
        """
        if use_index:
            mindex = self.provider_index(provider_constraint)
            providers: Sequence[ClassAd] = mindex.providers()
            index: Optional[ProviderIndex] = mindex.index
        else:
            providers = self.ads(provider_constraint)
            index = None
        return negotiation_cycle(
            requests_by_submitter,
            providers,
            accountant=accountant,
            policy=self.policy,
            allow_preemption=allow_preemption,
            index=index,
            stats=stats,
        )

    def scoring_pool(self):
        """The persistent scoring worker pool this matchmaker's cycles
        use, or None when the ``scoring_workers`` switch leaves scoring
        serial.  The pool is shared process-wide (workers hold no
        per-matchmaker state between commands) and is shut down and
        respawned when the worker count changes."""
        return _parallel.scoring_pool()

"""Multi-core candidate scoring for the negotiation cycle — DESIGN.md S23.

PRs 3–4 took the negotiation hot path (constraint checks + bilateral
rank evaluation per ``(request class, provider)`` pair) as far as one
core goes: compiled closures, incremental indexing, and equivalence
batching.  The remaining cost is *pure query evaluation* — Robinson &
DeWitt's observation that matchmaking is data management — and pure
query evaluation parallelises embarrassingly: each pairing is evaluated
independently, and only the *commit* (assignment under the ``taken``
set, preemption, fair-share accounting) is order-sensitive.

This module supplies the scoring tier:

* :class:`ScoringPool` — a persistent pool of worker *processes*
  (spawned once, reused across negotiation cycles, cleanly shut down
  and respawned when the configuration changes).  Per cycle the parent
  ships each worker a contiguous chunk of the provider ads over a
  compact wire format built on :mod:`repro.classads.serialize`; per
  request class it ships the class representative's ad and collects
  ``(pid, outcome)`` tuples.  Each worker deserialises into its own
  :class:`~repro.classads.classad.ClassAd` objects and compiles
  expressions into its own per-worker ``_ccache``/structural memo, so
  warm cycles evaluate closure-only on every core.
* :class:`CycleScoring` — the per-cycle handle
  :func:`~repro.matchmaking.matchmaker.negotiation_cycle` drives:
  lazy provider upload, per-class fan-out, deterministic merge.

**Determinism.** Chunks are contiguous slices of the provider list and
results are merged in worker order, so the concatenated outcome list is
in ascending provider-id order — exactly the serial scan order.  The
parent then sorts/commits **serially and unchanged**, so assignments,
tie-breaks, preemptions, fair-share outcomes, and the forensic event
stream are bit-for-bit identical to the serial engine (enforced by
``tests/matchmaking/test_parallel_equivalence.py``).  Workers consult
no wall clock and no RNG; scoring is a pure function of the shipped
ads.

**Configuration** (two fields of ``repro.config.switches``; see
docs/PERFORMANCE.md "Runtime switches"):

* ``scoring_workers`` (``REPRO_SCORING_WORKERS=<n>``) — worker count;
  0 (the default) leaves scoring serial.
* ``pair_threshold`` (``REPRO_PARALLEL_THRESHOLD=<pairs>``) — the
  automatic serial fallback: a class whose candidate pool is smaller
  than this many pairs is scored in-process, because IPC overhead
  dominates tiny pools.  Tune it from
  ``benchmarks/profile_negotiation.py``'s per-stage breakdown.

Failures degrade, never break: a worker crash or serialization surprise
marks the pool dead, the class is scored serially (counted in
``parallel.fallbacks``), and the next cycle respawns a fresh pool.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..classads import ClassAd
from ..classads.fingerprint import fingerprint
from ..classads.serialize import SerializationError, from_json_obj, to_json_obj
from ..config import switches as _switches
from ..obs import metrics as _metrics
from .match import (
    DEFAULT_POLICY,
    MatchPolicy,
    availability_of,
    constraints_satisfied,
    current_owner_of,
    current_rank_of,
    evaluate_rank,
)

__all__ = [
    "CycleScoring",
    "ScoringPool",
    "ScoringPoolError",
    "cycle_scoring",
    "scoring_pool",
    "shutdown_scoring_pool",
]

# Observability: one registry update per *class build*, never per pair —
# the counters cost nothing against the work they describe.
_PAR_CHUNKS = _metrics.counter(
    "parallel.chunks", "provider chunks dispatched to scoring workers"
)
_PAR_PAIRS = _metrics.counter(
    "parallel.pairs_scored", "(class, provider) pairs scored in worker processes"
)
_PAR_FALLBACKS = _metrics.counter(
    "parallel.fallbacks",
    "class builds scored serially despite parallel configuration "
    "(below threshold, or the pool was unavailable)",
)


class ScoringPoolError(RuntimeError):
    """A worker died, answered garbage, or refused a command."""


# ---------------------------------------------------------------------------
# worker side
#
# The worker is a plain command loop over a Pipe.  It holds one chunk of
# deserialized provider ads between commands; scoring mirrors the serial
# `_build_class` check order *exactly* so the outcome tuples are
# interchangeable with the in-process ones.


def _score_pair(
    rep: ClassAd, provider: ClassAd, policy: MatchPolicy, allow_preemption: bool
) -> Tuple:
    """One (class representative, provider) outcome, serial check order."""
    availability = availability_of(provider)
    if availability == "unavailable":
        return ("unavailable",)
    preempts: Optional[str] = None
    current = 0.0
    if availability == "preemptable":
        if not allow_preemption:
            return ("preemption-disabled",)
        preempts = current_owner_of(provider) or "<unknown>"
        current = current_rank_of(provider)
    if not constraints_satisfied(rep, provider, policy):
        return ("constraint",)
    provider_rank = evaluate_rank(provider, rep, policy)
    if preempts is not None and provider_rank <= current:
        return ("rank", provider_rank, current)
    return ("ok", evaluate_rank(rep, provider, policy), provider_rank, preempts)


def _worker_main(conn) -> None:
    """Worker process entry point: deserialize, compile, score, repeat.

    Per-worker state is exactly the provider chunk plus the compile
    caches that grow on its ads — no wall clock, no RNG, nothing that
    could make two runs differ.
    """
    providers: List[ClassAd] = []
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        tag = message[0]
        try:
            if tag == "pool":
                providers = [from_json_obj(obj) for obj in message[1]]
                conn.send(("ok", len(providers)))
            elif tag == "score":
                _, rep_obj, policy_fields, allow_preemption, local_ids = message
                started = time.perf_counter()
                rep = from_json_obj(rep_obj)
                policy = MatchPolicy(tuple(policy_fields[0]), policy_fields[1])
                indices = range(len(providers)) if local_ids is None else local_ids
                outcomes = [
                    _score_pair(rep, providers[i], policy, allow_preemption)
                    for i in indices
                ]
                conn.send(("ok", outcomes, time.perf_counter() - started))
            elif tag == "ping":
                conn.send(("ok",))
            else:  # "quit"
                conn.close()
                return
        except Exception as exc:  # surface, don't hang the parent
            try:
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            except (OSError, ValueError):
                return


# ---------------------------------------------------------------------------
# parent side


def _chunk_bounds(n: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal [lo, hi) slices of range(n), one per worker."""
    base, extra = divmod(n, workers)
    bounds = []
    lo = 0
    for i in range(workers):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class ScoringPool:
    """A persistent pool of scoring worker processes.

    Spawned once and reused across negotiation cycles; ``close`` (or the
    module's atexit hook) shuts the workers down.  All communication is
    over per-worker pipes; chunk uploads are skipped when a worker's
    chunk is unchanged since the previous cycle, so a steady-state pool
    pays per-cycle IPC proportional to churn, not pool size.

    ``stage_seconds`` accumulates the parent-visible cost of each stage
    (serialize / ipc / score / merge) for
    ``benchmarks/profile_negotiation.py``'s breakdown; ``score`` is the
    workers' own in-process evaluation time, so ``ipc`` ≈ wait − score.
    """

    def __init__(self, workers: int, start_method: Optional[str] = None):
        if workers < 1:
            raise ValueError("a ScoringPool needs at least one worker")
        self.workers = workers
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        ctx = mp.get_context(start_method)
        self._procs = []
        self._conns = []
        for _ in range(workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child_conn,), daemon=True)
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        self.alive = True
        #: Wire-format memo keyed by content fingerprint: equal-content
        #: ads — the same object refreshed in place, or a re-advertised
        #: replacement carrying identical attributes — share one
        #: serialized object.  Mutation invalidates the ad's cached
        #: fingerprint, so a changed ad can never hit a stale entry.
        self._ser_memo: Dict[str, dict] = {}
        self._ser_memo_limit = 65536
        #: Last uploaded chunk signature per worker (content
        #: fingerprints), used to skip redundant uploads.
        self._chunk_sigs: List[Optional[Tuple[str, ...]]] = [None] * workers
        self._bounds: List[Tuple[int, int]] = []
        self._loaded_count = 0
        self.stage_seconds = {"serialize": 0.0, "ipc": 0.0, "score": 0.0, "merge": 0.0}

    # -- wire format -------------------------------------------------------

    def _serialize(self, ad: ClassAd) -> dict:
        key = fingerprint(ad)
        obj = self._ser_memo.get(key)
        if obj is None:
            if len(self._ser_memo) >= self._ser_memo_limit:
                self._ser_memo.clear()
            obj = self._ser_memo[key] = to_json_obj(ad)
        return obj

    # -- worker protocol ---------------------------------------------------

    def _recv(self, worker: int):
        try:
            reply = self._conns[worker].recv()
        except (EOFError, OSError) as exc:
            self.alive = False
            raise ScoringPoolError(f"scoring worker {worker} died") from exc
        if not isinstance(reply, tuple) or not reply or reply[0] != "ok":
            self.alive = False
            detail = reply[1] if isinstance(reply, tuple) and len(reply) > 1 else reply
            raise ScoringPoolError(f"scoring worker {worker} failed: {detail}")
        return reply

    def _send(self, worker: int, message) -> None:
        try:
            self._conns[worker].send(message)
        except (OSError, ValueError) as exc:
            self.alive = False
            raise ScoringPoolError(f"scoring worker {worker} unreachable") from exc

    def load_providers(self, providers: Sequence[ClassAd]) -> None:
        """Ship the cycle's provider list, chunked, to the workers.

        Chunks whose content fingerprints are unchanged since the last
        upload are skipped entirely — object replacement by an equal ad
        no longer defeats the skip.
        """
        started = time.perf_counter()
        self._bounds = _chunk_bounds(len(providers), self.workers)
        self._loaded_count = len(providers)
        payloads: List[Optional[List[dict]]] = []
        for worker, (lo, hi) in enumerate(self._bounds):
            chunk = providers[lo:hi]
            sig = tuple(fingerprint(ad) for ad in chunk)
            if sig == self._chunk_sigs[worker]:
                payloads.append(None)  # unchanged content — skip the upload
            else:
                payloads.append([self._serialize(ad) for ad in chunk])
                self._chunk_sigs[worker] = sig
        self.stage_seconds["serialize"] += time.perf_counter() - started
        started = time.perf_counter()
        engaged = [w for w, objs in enumerate(payloads) if objs is not None]
        for worker in engaged:
            self._send(worker, ("pool", payloads[worker]))
        for worker in engaged:
            self._recv(worker)
        self.stage_seconds["ipc"] += time.perf_counter() - started

    def score(
        self,
        rep: ClassAd,
        policy: MatchPolicy,
        allow_preemption: bool,
        subset: Optional[Sequence[int]] = None,
    ) -> Tuple[List[Tuple], int]:
        """Score one class representative against the loaded providers.

        *subset*, when given, is an ascending list of global provider
        ids to score (the index-pruned candidate pool).  Returns the
        outcome tuples in ascending provider-id order — the serial scan
        order — plus the number of worker chunks engaged.
        """
        started = time.perf_counter()
        rep_obj = self._serialize(rep)
        policy_fields = (tuple(policy.constraint_attrs), policy.rank_attr)
        if subset is None:
            tasks: List[Tuple[int, Optional[List[int]]]] = [
                (worker, None)
                for worker, (lo, hi) in enumerate(self._bounds)
                if hi > lo
            ]
        else:
            per_worker: List[List[int]] = [[] for _ in range(self.workers)]
            bounds = self._bounds
            worker = 0
            for gid in subset:  # ascending, like the chunk layout
                while gid >= bounds[worker][1]:
                    worker += 1
                per_worker[worker].append(gid - bounds[worker][0])
            tasks = [
                (worker, local_ids)
                for worker, local_ids in enumerate(per_worker)
                if local_ids
            ]
        self.stage_seconds["serialize"] += time.perf_counter() - started
        started = time.perf_counter()
        for worker, local_ids in tasks:
            self._send(
                worker, ("score", rep_obj, policy_fields, allow_preemption, local_ids)
            )
        outcomes: List[Tuple] = []
        scored_seconds = 0.0
        merge_seconds = 0.0
        for worker, _local_ids in tasks:
            reply = self._recv(worker)
            scored_seconds += reply[2]
            merge_started = time.perf_counter()
            outcomes.extend(reply[1])
            merge_seconds += time.perf_counter() - merge_started
        waited = time.perf_counter() - started
        self.stage_seconds["score"] += scored_seconds
        self.stage_seconds["merge"] += merge_seconds
        self.stage_seconds["ipc"] += max(0.0, waited - scored_seconds - merge_seconds)
        return outcomes, len(tasks)

    def ping(self) -> bool:
        """Round-trip every worker; False (and dead) on any failure."""
        try:
            for worker in range(self.workers):
                self._send(worker, ("ping",))
            for worker in range(self.workers):
                self._recv(worker)
        except ScoringPoolError:
            return False
        return True

    def reset_stage_seconds(self) -> None:
        for key in self.stage_seconds:
            self.stage_seconds[key] = 0.0

    def close(self) -> None:
        """Shut the workers down; safe to call repeatedly."""
        self.alive = False
        for conn in self._conns:
            try:
                conn.send(("quit",))
            except (OSError, ValueError):
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        self._procs = []
        self._conns = []


# ---------------------------------------------------------------------------
# the shared pool + per-cycle handle

_POOL: Optional[ScoringPool] = None


def scoring_pool() -> Optional[ScoringPool]:
    """The process-wide pool for the configured worker count.

    Spawned on first use, reused across cycles (and across Matchmaker
    instances — workers are stateless between commands), shut down and
    respawned when the ``scoring_workers`` switch changes the count or
    the previous pool died.  None when workers are configured to 0 or
    the pool cannot be spawned; a pool left from an earlier count then
    stays idle until the count returns or :func:`shutdown_scoring_pool`.
    """
    global _POOL
    workers = _switches.scoring_workers
    if workers <= 0:
        return None
    if _POOL is not None and (_POOL.workers != workers or not _POOL.alive):
        _POOL.close()
        _POOL = None
    if _POOL is None:
        try:
            _POOL = ScoringPool(workers)
        except (OSError, ValueError):
            return None
    return _POOL


def shutdown_scoring_pool() -> None:
    """Terminate the shared pool (tests, config changes, interpreter exit)."""
    global _POOL
    if _POOL is not None:
        _POOL.close()
        _POOL = None


atexit.register(shutdown_scoring_pool)


class CycleScoring:
    """One negotiation cycle's view of the scoring pool.

    Created by :func:`cycle_scoring` at cycle start; uploads the
    provider list lazily (first class that actually fans out) so cycles
    that never cross the threshold pay nothing but the per-class size
    check.  Tallies are plain ints consumed by ``cycle.end`` events and
    ``CycleStats``; the registry counters settle once per class build.
    """

    __slots__ = ("pool", "providers", "threshold", "chunks", "pairs", "fallbacks",
                 "_loaded", "_gid_of")

    def __init__(self, pool: ScoringPool, providers: Sequence[ClassAd], threshold: int):
        self.pool = pool
        self.providers = providers
        self.threshold = threshold
        self.chunks = 0
        self.pairs = 0
        self.fallbacks = 0
        self._loaded = False
        self._gid_of: Optional[Dict[int, int]] = None

    @property
    def workers(self) -> int:
        return self.pool.workers

    def score_class(
        self,
        rep: ClassAd,
        pool_ads: Sequence[ClassAd],
        policy: MatchPolicy = DEFAULT_POLICY,
        allow_preemption: bool = True,
    ) -> Optional[List[Tuple]]:
        """Fan one class build out to the workers.

        Returns outcome tuples in candidate order, or None when the
        class should be scored serially (below the threshold, or the
        pool failed — the caller's serial path is always correct).
        """
        if len(pool_ads) < self.threshold or not self.pool.alive:
            self.fallbacks += 1
            if _metrics.enabled:
                _PAR_FALLBACKS.inc()
            return None
        try:
            if not self._loaded:
                self.pool.load_providers(self.providers)
                self._loaded = True
            if pool_ads is self.providers:
                subset: Optional[List[int]] = None
            else:
                gid_of = self._gid_of
                if gid_of is None:
                    gid_of = self._gid_of = {
                        id(ad): gid for gid, ad in enumerate(self.providers)
                    }
                subset = [gid_of[id(ad)] for ad in pool_ads]
            outcomes, engaged = self.pool.score(rep, policy, allow_preemption, subset)
            if len(outcomes) != len(pool_ads):
                raise ScoringPoolError(
                    f"worker results misaligned: {len(outcomes)} outcomes"
                    f" for {len(pool_ads)} candidates"
                )
        except (ScoringPoolError, SerializationError, KeyError):
            # Degrade to the serial scorer; a fresh pool is spawned on
            # the next cycle.  KeyError: a candidate ad not in the
            # cycle's provider list (caller contract violation).
            self.pool.alive = False
            self.fallbacks += 1
            if _metrics.enabled:
                _PAR_FALLBACKS.inc()
            return None
        self.chunks += engaged
        self.pairs += len(pool_ads)
        if _metrics.enabled:
            _PAR_CHUNKS.inc(engaged)
            _PAR_PAIRS.inc(len(pool_ads))
        return outcomes


def cycle_scoring(providers: Sequence[ClassAd]) -> Optional[CycleScoring]:
    """The cycle-start hook: a :class:`CycleScoring` handle when parallel
    scoring is configured and a pool is available — else None (the
    cycle stays serial)."""
    if not providers:
        return None
    pool = scoring_pool()
    if pool is None:
        return None
    return CycleScoring(pool, providers, _switches.pair_threshold)

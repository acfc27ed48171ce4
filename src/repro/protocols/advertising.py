"""The advertising protocol — S9 in DESIGN.md.

Section 3: the advertising protocol "defines basic conventions regarding
what a matchmaker expects to find in a classad if the ad is to be
included in the matchmaking process, and how the matchmaker expects to
receive the ad".  Section 4 gives Condor's conventions: "every classad
should include expressions named Constraint and Rank ... the advertising
parties [must] include contact addresses with their ads", and an RA may
include an authorization ticket.

This module provides:

* :func:`validate_ad` — the convention check a matchmaker applies before
  admitting an ad;
* :class:`AdStore` — the soft-state ad collection: ads carry lifetimes
  and expire unless refreshed, which is precisely why a crashed
  matchmaker recovers by doing nothing (experiment E1) and why stale ads
  are bounded by the advertising period (experiment E2);
* the **refresh fast path** conventions (PR 8): which attributes are
  *volatile* (clock-derived, changing every period by construction, so
  they ride the compact :class:`~repro.protocols.messages.Refresh`
  instead of defeating the fingerprint), the sender-side change
  detector (:func:`stable_equal` / :func:`volatile_values`).  The
  ``refresh`` switch (``REPRO_NO_REFRESH=1``; see docs/PERFORMANCE.md
  "Runtime switches") forces every advertisement back onto the
  always-full-ad path.

Expiry is served by a lazily-invalidated heap: every admit/renew pushes
``(expires_at, name)`` and :meth:`AdStore.expire` pops entries that are
due, discarding entries whose record has since been replaced, renewed,
or removed — O(k log n) per sweep instead of the old O(n) scan.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..classads import ClassAd
from ..classads.ast import Literal
from ..classads.fingerprint import payload_equal
from ..obs import metrics as _metrics

_ADS_STALE_DROPPED = _metrics.counter(
    "adstore.stale_dropped", "out-of-order advertisements dropped by sequence"
)
_ADS_EXPIRED = _metrics.counter(
    "adstore.expired", "ads reaped past their advertised lifetime"
)
_ADS_REFRESHED = _metrics.counter(
    "adstore.refreshed", "advertisements admitted (insert or refresh)"
)

#: Sender-side fast-path accounting (machine and job agents share these).
ADV_REFRESHES = _metrics.counter(
    "advertising.refreshes", "compact Refresh messages sent in place of full ads"
)
ADV_FULL_ADS = _metrics.counter(
    "advertising.full_ads",
    "full advertisements sent (first ad, content change, or resync)",
)

#: Condor's default advertising interval (seconds): RAs/CAs re-send their
#: ads on this period, and the matchmaker keeps them ~3 periods.
DEFAULT_ADVERTISING_INTERVAL = 300.0
DEFAULT_AD_LIFETIME = 3 * DEFAULT_ADVERTISING_INTERVAL

#: Volatile attributes of a machine ad: derived from the clock or the
#: owner's activity, they change every advertising period by
#: construction, so the fingerprint excludes their values and the
#: Refresh message carries them explicitly.
VOLATILE_MACHINE_ATTRS: FrozenSet[str] = frozenset(
    {"loadavg", "keyboardidle", "daytime"}
)
#: Volatile attributes of a job request ad (the advertisement stamp).
VOLATILE_JOB_ATTRS: FrozenSet[str] = frozenset({"advertisedat"})


# -- sender-side change detection ----------------------------------------


def volatile_values(
    ad: ClassAd, volatile: FrozenSet[str]
) -> Optional[Tuple[Tuple[str, object], ...]]:
    """The ``(name, value)`` pairs a Refresh must carry for *ad*.

    Returns the volatile attributes present in *ad*, in insertion order
    with original spelling, or ``None`` when any of them is bound to
    something other than a plain scalar literal — in which case the
    sender must fall back to a full advertisement (the Refresh wire
    format only carries scalars).
    """
    out = []
    for name, expr in ad.items():
        if name.lower() in volatile:
            if not isinstance(expr, Literal) or not isinstance(
                expr.value, (bool, int, float, str)
            ):
                return None
            out.append((name, expr.value))
    return tuple(out)


def stable_equal(ad: ClassAd, last: ClassAd, volatile: FrozenSet[str]) -> bool:
    """Whether *ad* matches *last* on every non-volatile attribute.

    The comparison is exactly as fine as the fingerprint (payload-level,
    so literal types count); attribute *presence* still matters for
    volatile names — an ad gaining or losing a volatile attribute is a
    change.  True means the previously sent fingerprint still describes
    *ad*'s stable part, so a Refresh suffices.
    """
    fields, last_fields = ad._fields, last._fields
    if fields.keys() != last_fields.keys():
        return False
    for key, expr in fields.items():
        if key in volatile:
            continue
        if not payload_equal(expr, last_fields[key]):
            return False
    return True


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    problems: Tuple[str, ...] = ()


def validate_ad(
    ad: ClassAd,
    require_constraint: bool = True,
    require_contact: bool = True,
) -> ValidationResult:
    """Check *ad* against the advertising protocol conventions.

    The check is deliberately shallow — the semi-structured model means
    the matchmaker imposes *conventions*, not a schema.  Missing Rank is
    tolerated (it defaults to 0 in ranking); a missing Constraint or
    contact address makes the ad unusable for two-way matchmaking.
    """
    problems: List[str] = []
    if require_constraint and ("Constraint" not in ad and "Requirements" not in ad):
        problems.append("no Constraint (or Requirements) attribute")
    if require_contact and "ContactAddress" not in ad:
        problems.append("no ContactAddress attribute")
    if "Type" not in ad:
        problems.append("no Type attribute")
    return ValidationResult(ok=not problems, problems=tuple(problems))


@dataclass
class StoredAd:
    """An admitted advertisement plus its soft-state bookkeeping.

    ``fingerprint`` is the sender-computed stable-content hash carried
    by the full advertisement (``None`` when the fast path is off); a
    later Refresh is honoured only when it presents the same hash.
    """

    name: str
    ad: ClassAd
    received_at: float
    expires_at: float
    sequence: int
    fingerprint: Optional[str] = None


class AdStore:
    """Soft-state advertisement store keyed by advertised name.

    Semantics:

    * re-advertisement under the same name replaces the stored ad and
      renews its lifetime;
    * a :meth:`touch` (refresh fast path) renews the lifetime of the
      stored ad *in place* without replacing it;
    * out-of-order delivery is tolerated: an advertisement with a
      sequence number older than the stored one is ignored (the network
      substrate can reorder messages);
    * a withdrawal may carry the sender's sequence counter, which is
      kept as a *tombstone*: late-arriving copies sent before the
      withdrawal (sequence <= tombstone) are dropped as stale instead of
      resurrecting the withdrawn ad — this keeps the refresh fast path
      and the full-ad path byte-identical under reordering;
    * ads past their lifetime are reaped by :meth:`expire`, which pops a
      lazily-invalidated expiry heap instead of scanning the store.
    """

    def __init__(self):
        self._store: Dict[str, StoredAd] = {}
        #: (expires_at, name) entries; an entry is live iff the stored
        #: record still carries exactly that expiry.
        self._expiry_heap: List[Tuple[float, str]] = []
        #: name -> withdrawing sender's sequence counter at removal time.
        self._tombstones: Dict[str, int] = {}

    def _push_expiry(self, expires_at: float, name: str) -> None:
        heap = self._expiry_heap
        heapq.heappush(heap, (expires_at, name))
        if len(heap) > 4 * len(self._store) + 64:
            # Too many invalidated entries (renew-heavy workload with no
            # expiry sweeps): rebuild from the live records.
            heap = [(rec.expires_at, rec.name) for rec in self._store.values()]
            heapq.heapify(heap)
            self._expiry_heap = heap

    def insert(
        self,
        name: str,
        ad: ClassAd,
        now: float,
        lifetime: float = DEFAULT_AD_LIFETIME,
        sequence: int = 0,
        fingerprint: Optional[str] = None,
    ) -> bool:
        """Admit/refresh an ad; False when dropped as out-of-order."""
        existing = self._store.get(name)
        if existing is not None and sequence < existing.sequence:
            _ADS_STALE_DROPPED.inc()
            return False
        if self.withdrawn_after(name, sequence):
            _ADS_STALE_DROPPED.inc()
            return False
        self._tombstones.pop(name, None)
        _ADS_REFRESHED.inc()
        expires_at = now + lifetime
        self._store[name] = StoredAd(
            name=name,
            ad=ad,
            received_at=now,
            expires_at=expires_at,
            sequence=sequence,
            fingerprint=fingerprint,
        )
        self._push_expiry(expires_at, name)
        return True

    def touch(
        self,
        name: str,
        now: float,
        lifetime: float = DEFAULT_AD_LIFETIME,
        sequence: int = 0,
    ) -> Optional[bool]:
        """Renew the lease of the stored ad *name* without replacing it.

        Returns True on renewal, False when dropped as out-of-order
        (mirroring :meth:`insert`'s sequence rule), and None when no ad
        is stored under *name* (the caller should request a resend).
        """
        if self.withdrawn_after(name, sequence):
            _ADS_STALE_DROPPED.inc()
            return False
        rec = self._store.get(name)
        if rec is None:
            return None
        if sequence < rec.sequence:
            _ADS_STALE_DROPPED.inc()
            return False
        _ADS_REFRESHED.inc()
        rec.received_at = now
        rec.expires_at = now + lifetime
        rec.sequence = sequence
        self._push_expiry(rec.expires_at, name)
        return True

    def withdrawn_after(self, name: str, sequence: int) -> bool:
        """True when *name* was withdrawn by a message that postdates
        *sequence* — i.e. this is a late copy of a dead ad."""
        tombstone = self._tombstones.get(name)
        return tombstone is not None and sequence <= tombstone

    def remove(self, name: str, tombstone: Optional[int] = None) -> bool:
        """Drop *name*; remember *tombstone* (the withdrawing sender's
        sequence counter) even when nothing was stored, so an ad still in
        flight cannot resurrect after its own withdrawal."""
        if tombstone is not None:
            prior = self._tombstones.get(name)
            if prior is None or tombstone > prior:
                self._tombstones[name] = tombstone
        return self._store.pop(name, None) is not None

    def clear(self) -> None:
        self._store.clear()
        self._expiry_heap.clear()
        self._tombstones.clear()

    def expire(self, now: float) -> List[str]:
        """Reap expired ads; returns the reaped names (expiry order)."""
        dead: List[str] = []
        heap = self._expiry_heap
        store = self._store
        while heap and heap[0][0] <= now:
            expires_at, name = heapq.heappop(heap)
            rec = store.get(name)
            if rec is None or rec.expires_at != expires_at:
                continue  # replaced, renewed, or removed since: stale entry
            del store[name]
            dead.append(name)
        if dead:
            _ADS_EXPIRED.inc(len(dead))
        return dead

    def get(self, name: str) -> Optional[ClassAd]:
        rec = self._store.get(name)
        return rec.ad if rec is not None else None

    def record(self, name: str) -> Optional[StoredAd]:
        """The full stored record for *name* (refresh path bookkeeping)."""
        return self._store.get(name)

    def age_of(self, name: str, now: float) -> Optional[float]:
        """Seconds since the stored ad was received (its staleness)."""
        rec = self._store.get(name)
        return (now - rec.received_at) if rec is not None else None

    def ads(self) -> List[ClassAd]:
        return [rec.ad for rec in self._store.values()]

    def records(self) -> List[StoredAd]:
        return list(self._store.values())

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, name: str) -> bool:
        return name in self._store

    def __iter__(self) -> Iterator[str]:
        return iter(self._store)

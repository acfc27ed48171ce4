"""Benchmark-side spans for the traced run.

The traced run times calls into each layer's public entry points from
the outside: nothing in ``src/`` is edited.  :class:`Instrumentation`
swaps wrappers in for the duration of one run and restores the
originals afterwards:

* class methods — ``MachineAgent.advertise`` / ``build_ad``,
  ``Negotiator.run_cycle``, ``CustomerAgent.advertise_queue``,
  ``Retransmitter.send`` (and its timer callback ``_fire``, so that
  retransmitted copies can be told apart) and ``Trace.emit``;
* module functions — ``fingerprint``, ``stable_equal`` and
  ``negotiation_cycle`` are rebound in every ``repro`` module that
  imported them by name; the compiled evaluator's two front doors
  (``evaluate`` / ``evaluate_attribute``) are counted, not timed;
* the network — :class:`TracedNetwork` is handed to ``CondorPool`` as
  ``net=``.  Its ``send`` is a span and its ``register`` wraps every
  daemon handler in a span named ``<daemon kind>.<message type>``.

Spans live in memory as a flat ``array('q')`` of ``(name id, parent
index, start ns, end ns)`` records.  A span's self time is its duration
minus its children's durations; the time no span covers is the event
kernel's residual, so the per-layer split sums to the traced wall by
construction.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.classads import compile as _compile
from repro.classads import fingerprint as _fingerprint_fn
from repro.condor.machine import MachineAgent
from repro.condor.negotiator import Negotiator
from repro.condor.schedd import CustomerAgent
from repro.matchmaking.matchmaker import negotiation_cycle as _negotiation_cycle_fn
from repro.protocols.advertising import stable_equal as _stable_equal_fn
from repro.protocols.retry import Retransmitter
from repro.sim import Network, Trace

_now = time.perf_counter_ns
_FIELDS = 4  # name id, parent index, start ns, end ns


class SpanRecorder:
    """Nested spans kept in memory, summarised after the run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.records = array("q")
        self._stack: List[int] = []
        #: Free-form per-run tallies (message kinds, cycle statistics).
        self.counts: Counter = Counter()
        self.cycle_ns: List[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid: int, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span; returns its result."""
        records = self.records
        stack = self._stack
        index = len(records) // _FIELDS
        records.extend((nid, stack[-1] if stack else -1, _now(), 0))
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            records[index * _FIELDS + 3] = _now()
            stack.pop()

    def reset(self) -> None:
        """Forget everything recorded so far (between set-up and run)."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.records = array("q")
        self.counts.clear()
        self.cycle_ns.clear()

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span (None at top level)."""
        if not self._stack:
            return None
        return self.names[self.records[self._stack[-1] * _FIELDS]]

    def __len__(self) -> int:
        return len(self.records) // _FIELDS

    # -- analysis -----------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per span name: ``calls``, ``total_ns`` (inclusive), ``self_ns``;
        plus ``covered_ns`` (top-level spans) under the key ``""``."""
        recs = self.records
        n = len(self)
        child_ns = [0] * n
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        covered = 0
        # Children are always recorded after their parent, so one reverse
        # sweep sees every child's duration before its parent's.
        for i in range(n - 1, -1, -1):
            base = i * _FIELDS
            nid, parent = recs[base], recs[base + 1]
            duration = recs[base + 3] - recs[base + 2]
            calls[nid] += 1
            total[nid] += duration
            self_ns[nid] += duration - child_ns[i]
            if parent >= 0:
                child_ns[parent] += duration
            else:
                covered += duration
        out = {
            name: {"calls": calls[i], "total_ns": total[i], "self_ns": self_ns[i]}
            for i, name in enumerate(self.names)
        }
        out[""] = {"calls": 0, "total_ns": covered, "self_ns": covered}
        return out

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the raw int64 records."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "format": "perfbench-spans/1",
            "fields": ["name", "parent", "start_ns", "end_ns"],
            "dtype": "int64",
            "byteorder": sys.byteorder,
            "names": self.names,
            "count": len(self),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            self.records.tofile(fh)


def _kind(address: str) -> str:
    """``startd@vm0001`` -> ``startd``."""
    return address.partition("@")[0]


class TracedNetwork(Network):
    """A :class:`Network` whose sends and deliveries are spans."""

    recorder: SpanRecorder

    def send(self, message) -> None:
        rec = self.recorder
        rec.counts["net.sends"] += 1
        rec.counts[f"net.sends.{type(message).__name__}"] += 1
        if rec.parent_name() == "retry.fire":
            rec.counts["retry.sends"] += 1
        rec.call(self._send_id, Network.send, self, message)

    def register(self, address: str, handler) -> None:
        rec = self.recorder
        kind = _kind(address)
        ids: Dict[type, int] = {}

        def traced_handler(message):
            mtype = type(message)
            nid = ids.get(mtype)
            if nid is None:
                nid = ids[mtype] = rec.name_id(f"{kind}.{mtype.__name__}")
            rec.call(nid, handler, message)

        super().register(address, traced_handler)


def traced_network(recorder: SpanRecorder, sim, rng, config) -> TracedNetwork:
    """The network ``CondorPool`` would build for *config*, traced."""
    net = TracedNetwork(
        sim,
        rng=rng,
        latency=config.network_latency,
        jitter=config.network_jitter,
        loss=config.network_loss,
    )
    net.recorder = recorder
    net._send_id = recorder.name_id("net.send")
    return net


class Instrumentation:
    """Installs the span wrappers; a context manager that restores them."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    # -- patching helpers ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_function(self, original: Callable, replacement: Callable) -> None:
        """Replace *original* in every ``repro`` module that holds it."""
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _span(self, name: str, fn: Callable) -> Callable:
        rec = self.recorder
        nid = rec.name_id(name)

        def wrapper(*args, **kwargs):
            return rec.call(nid, fn, *args, **kwargs)

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.recorder.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / restore ----------------------------------------------------

    def __enter__(self) -> "Instrumentation":
        rec = self.recorder
        self._set(MachineAgent, "advertise", self._span("machine.advertise", MachineAgent.advertise))
        self._set(MachineAgent, "build_ad", self._span("machine.build_ad", MachineAgent.build_ad))
        self._set(
            CustomerAgent,
            "advertise_queue",
            self._span("schedd.advertise_queue", CustomerAgent.advertise_queue),
        )
        self._set(Trace, "emit", self._span("trace.emit", Trace.emit))
        self._set(Retransmitter, "_fire", self._span("retry.fire", Retransmitter._fire))

        retry_send = Retransmitter.send
        retry_id = rec.name_id("retry.send")

        def traced_retry_send(retx, message, *args, **kwargs):
            if _kind(getattr(message, "sender", "") or "") == "startd":
                rec.counts[f"adv.machine.{type(message).__name__}"] += 1
            return rec.call(retry_id, retry_send, retx, message, *args, **kwargs)

        self._set(Retransmitter, "send", traced_retry_send)

        run_cycle = Negotiator.run_cycle
        cycle_id = rec.name_id("negotiator.run_cycle")

        def traced_run_cycle(negotiator):
            before = negotiator.cycles_run
            start = _now()
            result = rec.call(cycle_id, run_cycle, negotiator)
            rec.cycle_ns.append(_now() - start)
            if negotiator.cycles_run != before and negotiator.last_cycle_stats is not None:
                stats = negotiator.last_cycle_stats
                rec.counts["matchmaker.requests_considered"] += stats.requests_considered
                rec.counts["matchmaker.matched"] += stats.matched
                rec.counts["matchmaker.request_classes"] += stats.request_classes
                rec.counts["matchmaker.pairings_saved"] += stats.pairings_saved
                rec.counts["matchmaker.preemptions"] += stats.preemptions
            return result

        self._set(Negotiator, "run_cycle", traced_run_cycle)

        self._rebind_function(_fingerprint_fn, self._span("adv.fingerprint", _fingerprint_fn))
        self._rebind_function(_stable_equal_fn, self._span("adv.stable_equal", _stable_equal_fn))
        self._rebind_function(
            _negotiation_cycle_fn,
            self._span("matchmaker.negotiation_cycle", _negotiation_cycle_fn),
        )
        for entry in (_compile.evaluate, _compile.evaluate_attribute):
            self._rebind_function(entry, self._counted("classads.evaluations", entry))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run

#: Span name (or ``prefix.``) -> layer whose self time it counts toward.
#: Every span lands in exactly one layer, so the layer self times plus
#: the kernel residual partition the traced wall.
LAYERS = (
    ("net.send", "network"),
    ("retry.", "retry"),
    ("machine.", "machine_adv"),
    ("adv.", "fingerprint_diff"),
    ("collector.", "collector"),
    ("negotiator.run_cycle", "negotiation"),
    ("matchmaker.", "negotiation"),
    ("schedd.", "schedd"),
    ("startd.ClaimRequest", "claiming"),
    ("startd.", "startd_other"),
    ("trace.emit", "trace"),
)
LAYER_NAMES = ("network", "retry", "machine_adv", "fingerprint_diff", "collector",
               "negotiation", "schedd", "claiming", "startd_other", "trace", "other")
COLLECTOR_MSGS = ("Advertisement", "Refresh", "Withdrawal")
SCHEDD_MSGS = ("MatchNotification", "ClaimResponse", "JobCompleted", "JobEvicted",
               "LeaseAck", "ResendRequest")
CLAIM_REASONS = ("already-claimed", "bad-ticket", "constraint-violated",
                 "bad-handshake", "stale-claim", "timeout")


def layer_of(span: str) -> str:
    for prefix, layer in LAYERS:
        if span == prefix or (prefix.endswith(".") and span.startswith(prefix)):
            return layer
    return "other"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, pool, horizon: float, wall_ns: int,
                  compile_delta: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced run to *horizon* (see README)."""
    summary = rec.summary()
    covered = summary.pop("")["total_ns"]
    residual = wall_ns - covered

    def span(name: str, key: str) -> int:
        return summary.get(name, {}).get(key, 0)

    def secs(ns: int) -> float:
        return ns / 1e9

    layers = {name: 0 for name in LAYER_NAMES}
    for name, row in summary.items():
        layers[layer_of(name)] += row["self_ns"]
    if sum(layers.values()) + residual != wall_ns:
        raise AssertionError("layer self times do not partition the traced wall")

    counts = rec.counts
    stats = pool.net.stats
    metrics = pool.metrics
    machine_periods = len(pool.machines) * horizon / pool.config.advertise_interval
    net_sends = counts["net.sends"]
    full_ads = counts["adv.machine.Advertisement"]
    refreshes = counts["adv.machine.Refresh"]
    refresh_msgs = span("collector.Refresh", "calls")
    cycles = sorted(rec.cycle_ns)
    out: Dict[str, float] = {
        "traced.wall_s": secs(wall_ns),
        "engine.events": pool.sim.events_processed,
        "engine.events_per_s": _ratio(pool.sim.events_processed, secs(wall_ns)),
        "engine.residual_s": secs(residual),
        "net.sends": net_sends,
        "net.send_s": secs(span("net.send", "self_ns")),
        "net.delivered": stats.delivered,
        "net.dropped": (stats.dropped_loss + stats.dropped_no_recipient
                        + stats.dropped_down + stats.dropped_partition),
        "net.duplicated": stats.duplicated,
        "retry.calls": span("retry.send", "calls"),
        "retry.sends": counts["retry.sends"],
        "retry.share": _ratio(counts["retry.sends"], net_sends),
        "retry.sends.per_machine_period": _ratio(counts["retry.sends"], machine_periods),
        "machine.advertise.calls": span("machine.advertise", "calls"),
        "machine.advertise.self_s": secs(span("machine.advertise", "self_ns")),
        "machine.advertise.s": secs(span("machine.advertise", "total_ns")),
        "machine.build_ad.calls": span("machine.build_ad", "calls"),
        "machine.build_ad.s": secs(span("machine.build_ad", "total_ns")),
        "adv.full_ads": full_ads,
        "adv.refreshes": refreshes,
        "adv.refresh_ratio": _ratio(refreshes, full_ads + refreshes),
        "adv.fingerprint.calls": span("adv.fingerprint", "calls"),
        "adv.fingerprint.s": secs(span("adv.fingerprint", "total_ns")),
        "adv.stable_equal.calls": span("adv.stable_equal", "calls"),
        "adv.stable_equal.s": secs(span("adv.stable_equal", "total_ns")),
        "collector.refresh_hit_ratio": _ratio(
            refresh_msgs - counts["net.sends.ResendRequest"], refresh_msgs
        ),
        "collector.ads_admitted": pool.collector.ads_admitted,
        "collector.msgs.Advertisement.per_machine_period": _ratio(
            span("collector.Advertisement", "calls"), machine_periods
        ),
        "negotiator.cycles": len(cycles),
        "negotiator.cycle_s.p50": secs(cycles[(len(cycles) - 1) // 2]) if cycles else 0.0,
        "negotiator.cycle_s.max": secs(cycles[-1]) if cycles else 0.0,
        "negotiator.run_cycle.share": _ratio(span("negotiator.run_cycle", "total_ns"), wall_ns),
        "matchmaker.requests_considered": counts["matchmaker.requests_considered"],
        "matchmaker.matched": counts["matchmaker.matched"],
        "matchmaker.match_yield": _ratio(
            counts["matchmaker.matched"], counts["matchmaker.requests_considered"]
        ),
        "matchmaker.request_classes": counts["matchmaker.request_classes"],
        "matchmaker.pairings_saved": counts["matchmaker.pairings_saved"],
        "matchmaker.preemptions": counts["matchmaker.preemptions"],
        "classads.evaluations": counts["classads.evaluations"],
        "classads.compile_hits": compile_delta["hits"],
        "classads.compile_misses": compile_delta["misses"],
        "schedd.advertise_queue.calls": span("schedd.advertise_queue", "calls"),
        "schedd.advertise_queue.s": secs(span("schedd.advertise_queue", "total_ns")),
        "schedd.evictions": metrics.evictions,
        "claim.requests": metrics.claims_attempted,
        "claim.accept_ratio": _ratio(
            metrics.claims_attempted - metrics.claims_rejected, metrics.claims_attempted
        ),
        "claim.handle_s": secs(span("startd.ClaimRequest", "total_ns")),
        "match_latency_sim_s.mean": metrics.match_latency.mean,
        "trace.records": len(pool.trace.events),
        "trace.emit_s": secs(span("trace.emit", "total_ns")),
        "share.advertise_ingest": _ratio(
            span("machine.advertise", "total_ns")
            + sum(span(f"collector.{m}", "total_ns") for m in COLLECTOR_MSGS),
            wall_ns,
        ),
    }
    for msg in COLLECTOR_MSGS:
        out[f"collector.msgs.{msg}"] = span(f"collector.{msg}", "calls")
        out[f"collector.ingest_s.{msg}"] = secs(span(f"collector.{msg}", "total_ns"))
    for msg in SCHEDD_MSGS:
        out[f"schedd.handle_s.{msg}"] = secs(span(f"schedd.{msg}", "total_ns"))
    for reason in CLAIM_REASONS:
        out[f"claim.rejections.{reason}"] = metrics.claim_rejections_by_reason.get(reason, 0)
    for name, ns in layers.items():
        out[f"layer.{name}_s"] = secs(ns)
    return out

#!/usr/bin/env python3
"""End-to-end CondorPool benchmark with checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 40 --trace 0

``--trace 0`` repeats whole pool simulations (fresh pool, seeded
workload instance, fixed simulated horizon) until ``--seconds`` of wall
time are spent.  ``sim_rate`` sums, per instance, the fastest wall time
of each simulated segment over the repeated runs, each run scaled to a
reference host speed (see ``best_wall_s`` and ``hostspeed.py``);
``setup_s`` is the median set-up, scaled the same way; simulated
metrics pool the workload instances.
``--trace 1`` makes one untraced and one traced run and reports the
per-layer split (see ``perfbench/README.md``).  Every run's simulated
outcome is audited before any number counts; a failed audit prints
``"correct": false``, counts every job as failed and exits with 1.

The last line of stdout is one JSON object: ``correct``, ``attempted``
(jobs submitted, summed over runs), ``failed`` and ``metrics``.  A full
record with provenance goes to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Workload instances per --trace 0 invocation.  Each is a full pool
#: generated from its own instance seed; the simulated outcome metrics
#: pool them, so one --seed stands for several independent draws.
#: ``steady`` has the costliest instances and uses two, so that each is
#: still timed at least MIN_ROUNDS times within a run.
INSTANCES = {"steady": 2, "policy-churn": 3, "cm-crash": 3}
#: Instance seeds of consecutive --seed values never overlap.
SEED_STRIDE = 3
#: Every instance is run at least this many times per invocation.
MIN_ROUNDS = 2
#: Simulated seconds per timed segment of a run (see best_wall_s).
SEGMENT_SIM_S = 25.0
#: Set-up samples per invocation (timed runs plus set-up-only builds).
SETUP_SAMPLES = 11
#: Ceiling on timed runs, whatever --seconds says.
MAX_REPS = 100
#: The hash-seed twin must finish well inside the run's time limit.
CHILD_TIMEOUT_S = 120


def _bootstrap() -> None:
    """Make ``src/`` importable, or exit 2 when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def load_declared() -> Dict[str, Dict[str, str]]:
    """Metric names and units, by section, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


@dataclass
class Rep:
    """One simulated run: host timings plus its audited outcome."""

    seed: int  # the instance seed (see instance_seed)
    setup_s: float
    run_s: float
    sim_rate: float
    wall_s: float  # everything, generation and audit included
    outcome: object  # outcome.Outcome
    layers: Dict[str, float] = field(default_factory=dict)
    horizon: float = 0.0
    #: Wall time of each stretch of simulated time between consecutive
    #: stops (see segment_stops); identical stops for every run of an
    #: instance.
    segments_ns: List[int] = field(default_factory=list)
    #: Host-speed probe samples taken before the set-up and before every
    #: segment (untraced runs only; see hostspeed.py).
    probes_ns: List[int] = field(default_factory=list)


def run_once(workload: str, seed: int, scale: float, recorder=None,
             setup_only: bool = False) -> Rep:
    """Generate, set up, run to the horizon and audit one pool."""
    from repro import obs
    from repro.classads.compile import cache_stats
    from repro.condor import CondorPool
    from repro.sim import RngStream, Simulator

    from hostspeed import probe_ns
    from outcome import check, live_machines_missing
    from tracing import Instrumentation, layer_metrics, traced_network
    from workloads import WORKLOADS

    began = time.perf_counter()
    scenario = WORKLOADS[workload](seed, scale)
    cfg = scenario.config
    # The newest simulator is the clock of the global obs streams, which
    # keeps the previous pool alive; release it before timing set-up.
    obs.reset()
    gc.collect()
    pool_kwargs = {}
    instrumentation = contextlib.nullcontext()
    if recorder is not None:
        sim, rng = Simulator(), RngStream(cfg.seed)
        pool_kwargs = {"sim": sim, "rng": rng, "net": traced_network(recorder, sim, rng, cfg)}
        instrumentation = Instrumentation(recorder)
    e1_missing: List[str] = []
    probes: List[int] = []
    probe = recorder is None
    with instrumentation:
        if probe:
            probes.append(probe_ns())
        t0 = time.perf_counter()
        pool = CondorPool(scenario.specs, cfg, owner_models=scenario.owner_models, **pool_kwargs)
        pool.submit_all(scenario.jobs, scenario.arrivals)
        pool.start()
        setup_s = time.perf_counter() - t0
        if setup_only:
            return Rep(seed, setup_s, 0.0, 0.0, time.perf_counter() - began, None,
                       probes_ns=probes)
        if recorder is not None:
            recorder.reset()
        compile_before = cache_stats()
        segments_ns: List[int] = []
        for stop in segment_stops(scenario):
            if probe:
                probes.append(probe_ns())
            t = time.perf_counter_ns()
            pool.run_until(stop)
            segments_ns.append(time.perf_counter_ns() - t)
            if stop == scenario.e1_check_at:
                e1_missing = [m for m in live_machines_missing(pool)
                              if m not in scenario.e1_exempt]
        run_ns = sum(segments_ns)
    compile_after = cache_stats()
    outcome = check(
        pool,
        scenario.horizon,
        expect_machine_crash=bool(scenario.crashes),
        e1_missing=e1_missing,
        late_allowed=scenario.late_allowed,
    )
    layers = {}
    if recorder is not None:
        compile_delta = {k: compile_after[k] - compile_before[k] for k in compile_after}
        layers = layer_metrics(recorder, pool, scenario.horizon, run_ns, compile_delta)
        layers["e1.late_machines"] = outcome.e1_late
        layers["soft_state.missing_at_horizon"] = outcome.missing_at_horizon
    run_s = run_ns / 1e9
    return Rep(seed, setup_s, run_s, scenario.horizon / run_s, time.perf_counter() - began,
               outcome, layers, scenario.horizon, segments_ns, probes)


def segment_stops(scenario) -> List[float]:
    """Where a run pauses: every SEGMENT_SIM_S simulated seconds, at the
    E1 check (which runs outside the timed segments) and at the horizon."""
    stops = {scenario.horizon}
    at = SEGMENT_SIM_S
    while at < scenario.horizon:
        stops.add(at)
        at += SEGMENT_SIM_S
    if scenario.e1_check_at is not None:
        stops.add(scenario.e1_check_at)
    return sorted(stops)


def best_wall_s(runs: List[List[float]]) -> float:
    """Wall time of one run of an instance, from the segment times (ns)
    of repeated runs of it.

    Every run of an instance simulates the same events between the same
    stops, so each segment is the same work each time.  Load from other
    tenants of a shared host only ever adds time, in bursts shorter than
    a run, so the fastest time of each segment, summed, is the estimate
    of the instance's cost that such bursts disturb least."""
    return sum(min(column) for column in zip(*runs)) / 1e9


def scaled_segments_ns(rep: Rep) -> List[float]:
    """The run's segment times at the probe's reference host speed: the
    run is scaled by its own probe samples, so a slow phase of the host
    that covers a whole run is taken out too (see hostspeed.py)."""
    from hostspeed import host_factor

    factor = host_factor(rep.probes_ns[1:])
    return [ns * factor for ns in rep.segments_ns]


# ---------------------------------------------------------------------------
# digest cross-checks


def _tree_hash() -> str:
    """Hash of the program and benchmark sources (keys the digest store)."""
    h = hashlib.sha256()
    for base in (SRC / "repro", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_stored_digest(workload: str, seed: int, scale: float, digest: str) -> Optional[str]:
    """Compare with the digest an earlier process recorded for the same
    sources, workload, seed and scale (each process has its own hash
    seed); record it when new.  Returns a problem or None."""
    store = OUT / "digests.json"
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    key = f"{_tree_hash()}/{workload}/{seed}/{scale}"
    previous = known.get(key)
    if previous is not None:
        if previous != digest:
            return f"digest {digest} differs from {previous} recorded by an earlier process"
        return None
    known[key] = digest
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return None


def child_digest(workload: str, seed: int, scale: float) -> str:
    """The digest of the same run in a process with another hash seed."""
    mine = os.environ.get("PYTHONHASHSEED")
    env = dict(os.environ, PYTHONHASHSEED="1" if mine == "0" else "0")
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--scale", repr(scale), "--digest-only"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"hash-seed twin failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["digest"]


def scoring_workers_started() -> bool:
    from repro.matchmaking import parallel

    return bool(multiprocessing.active_children()) or getattr(parallel, "_POOL", None) is not None


# ---------------------------------------------------------------------------
# the two modes


def instance_seed(workload: str, seed: int, index: int) -> int:
    """Seed of workload instance *index* (cycling) of run --seed."""
    return seed * SEED_STRIDE + index % INSTANCES[workload]


def measure(args) -> tuple:
    """--trace 0: timed runs cycling through the workload instances until
    --seconds are spent (at least MIN_ROUNDS runs per instance)."""
    from hostspeed import host_factor
    from outcome import nearest_rank

    count = INSTANCES[args.workload]
    reps: List[Rep] = []
    start = time.perf_counter()
    while len(reps) < MAX_REPS:
        reps.append(run_once(args.workload, instance_seed(args.workload, args.seed, len(reps)),
                             args.scale))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in reps)
        if len(reps) >= MIN_ROUNDS * count and elapsed + typical > args.seconds:
            break
    setups = [r.setup_s for r in reps]
    probes = [p for r in reps for p in r.probes_ns]
    while len(setups) < SETUP_SAMPLES:
        seed = instance_seed(args.workload, args.seed, len(setups))
        extra = run_once(args.workload, seed, args.scale, setup_only=True)
        setups.append(extra.setup_s)
        probes += extra.probes_ns
    # Set-up times are scaled by the probe samples of the whole run.
    host = host_factor(probes)
    by_instance: Dict[int, List[Rep]] = {}
    for rep in reps:
        by_instance.setdefault(rep.seed, []).append(rep)
    horizons = sum(runs[0].horizon for runs in by_instance.values())
    measured = [best_wall_s([r.segments_ns for r in runs]) for runs in by_instance.values()]
    best = {seed: best_wall_s([scaled_segments_ns(r) for r in runs])
            for seed, runs in by_instance.items()}
    instances = [r.outcome for r in reps[:count]]
    waits = [w for o in instances for w in o.waits]
    goodput = sum(o.goodput for o in instances)
    badput = sum(o.badput for o in instances)
    metrics = {
        "sim_rate": horizons / sum(best.values()),
        "setup_s": statistics.median(setups) * host,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs_completed": sum(o.completed for o in instances),
        "job_wait_p50_sim_s": nearest_rank(waits, 0.50),
        "job_wait_p95_sim_s": nearest_rank(waits, 0.95),
        "goodput_fraction": goodput / (goodput + badput) if goodput + badput else 0.0,
    }
    return reps, metrics, {"setup_samples_s": setups, "job_wait_samples": len(waits),
                           "best_wall_s": best, "sim_rate_measured": horizons / sum(measured),
                           "host_factor": host, "probe_samples": len(probes)}


def trace(args) -> tuple:
    """--trace 1: one untraced and one traced run of the first instance;
    returns per-layer metrics."""
    from tracing import SpanRecorder

    seed = instance_seed(args.workload, args.seed, 0)
    plain = run_once(args.workload, seed, args.scale)
    recorder = SpanRecorder()
    traced = run_once(args.workload, seed, args.scale, recorder=recorder)
    OUT.mkdir(parents=True, exist_ok=True)
    recorder.write(OUT / f"{args.workload}-seed{args.seed}.spans")
    metrics = dict(traced.layers)
    metrics["trace_overhead_ratio"] = plain.sim_rate / traced.sim_rate
    metrics["job_wait.samples"] = traced.outcome.wait_samples
    return [plain, traced], metrics, {
        "predictions": predictions(args, metrics),
        "job_wait_samples": traced.outcome.wait_samples,
    }


def predictions(args, m: Dict[str, float]) -> Dict[str, object]:
    """The workload-purpose predictions the traced run checks (reported,
    not gating: a later change may legitimately move them)."""
    if args.workload == "steady":
        return {"advertise+ingest share > negotiation share":
                m["share.advertise_ingest"] > m["negotiator.run_cycle.share"]}
    if args.workload == "policy-churn":
        return {"negotiator.run_cycle share > 0.5": m["negotiator.run_cycle.share"] > 0.5}
    steady = OUT / f"steady-seed{args.seed}-trace1.json"
    if not steady.is_file():
        return {"cm-crash vs steady": f"no traced steady record at seed {args.seed}"}
    s = json.loads(steady.read_text())["metrics"]
    keys = ("collector.msgs.Advertisement.per_machine_period", "retry.sends.per_machine_period")
    return {f"{k} > steady's": m[k] > s[k]["value"] for k in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="pool and backlog size factor (tests use small ones)")
    parser.add_argument("--digest-only", action="store_true",
                        help="run the workload instance whose seed is --seed once and "
                             "print only its outcome digest (the hash-seed cross-check)")
    args = parser.parse_args(argv)
    _bootstrap()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    if args.digest_only:
        print(json.dumps({"digest": run_once(args.workload, args.seed, args.scale).outcome.digest}))
        return 0

    from hostspeed import host_factor
    from provenance import provenance, warn_code_path_vars

    declared = load_declared()
    warned = warn_code_path_vars()
    reps, values, extra = (trace if args.trace else measure)(args)

    problems: List[str] = []
    first_digest: Dict[int, str] = {}
    for i, rep in enumerate(reps):
        problems += [f"run {i} (instance seed {rep.seed}): {p}" for p in rep.outcome.problems]
        digest = first_digest.setdefault(rep.seed, rep.outcome.digest)
        if rep.outcome.digest != digest:
            problems.append(f"run {i} (instance seed {rep.seed}): digest "
                            f"{rep.outcome.digest} differs from the first run's {digest}")
    if args.trace:
        seed = reps[0].seed
        try:
            twin = child_digest(args.workload, seed, args.scale)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            problems.append(f"hash-seed twin: {exc}")
        else:
            if twin != first_digest[seed]:
                problems.append(f"hash-seed twin digest {twin} differs from {first_digest[seed]}")
    for seed, digest in first_digest.items():
        stored = check_stored_digest(args.workload, seed, args.scale, digest)
        if stored:
            problems.append(f"instance seed {seed}: {stored}")
    if scoring_workers_started():
        problems.append("scoring worker processes were started")

    attempted = sum(rep.outcome.submitted for rep in reps)
    correct = not problems
    failed = sum(rep.outcome.failed_jobs for rep in reps) if correct else attempted
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in declared[section].items()
    }
    record = {
        "schema": "perfbench/1",
        "provenance": provenance(ROOT, args.workload, args.seed, args.scale,
                                 _instance_configs(args.workload, sorted(first_digest), args.scale)),
        "code_path_vars_set": warned,
        "args": vars(args),
        "correct": correct,
        "problems": problems,
        "digests": first_digest,
        "runs": [
            {"instance_seed": r.seed, "setup_s": r.setup_s, "run_s": r.run_s,
             "sim_rate": r.sim_rate, "wall_s": r.wall_s,
             "host_factor": host_factor(r.probes_ns[1:]) if r.probes_ns else None,
             "invariants": r.outcome.invariant_stats,
             "e1_late_machines": r.outcome.e1_late,
             "missing_at_horizon": r.outcome.missing_at_horizon}
            for r in reps
        ],
        "metrics": metrics,
        "all_values": values,
        **extra,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True, default=repr))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} runs={len(reps)} "
          f"instances={sorted(first_digest)} record={os.path.relpath(out_path, ROOT)}")
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    for name, verdict in extra.get("predictions", {}).items():
        print(f"  prediction: {name}: {verdict}")
    print(f"  job wait samples: {extra['job_wait_samples']}")
    if "host_factor" in extra:
        print(f"  host speed vs reference: {extra['host_factor']:.4f} "
              f"(measured sim_rate {extra['sim_rate_measured']:.6g} sim_s/s)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _instance_configs(workload: str, seeds: List[int], scale: float) -> Dict[int, object]:
    from workloads import WORKLOADS

    return {seed: WORKLOADS[workload](seed, scale).config for seed in seeds}


if __name__ == "__main__":
    sys.exit(main())

"""PR 7 — the multi-core scoring tier: worker sweep + stage anatomy.

Two questions this benchmark answers with data:

* **How does cycle time scale with worker count?**  The sweep runs the
  same batched cycle at 1, 2, 4, ... workers (capped at the host's
  core count) against the serial baseline and reports the speedup per
  configuration — Amdahl's view of the cycle, since the commit stage
  stays serial by design.
* **Where does the parallel cycle spend its time?**  The per-stage
  breakdown (serialize / IPC / score / merge / commit) shows what the
  fallback threshold trades: below it, (serialize + IPC) would exceed
  the in-process scoring it displaces.

Run as a script for the CI smoke benchmark::

    python benchmarks/bench_parallel.py --smoke [--out DIR]

which executes a reduced sweep and writes ``BENCH_PAR_parallel.json``.
The smoke mode asserts only *correctness-adjacent* properties (identical
assignments, fallback accounting); the >= 1.5x speedup bar lives in
``bench_scalability.py`` where the E6 baselines are, and only on hosts
with >= 4 cores.
"""

import argparse
import os
import sys
import time

if __name__ == "__main__":
    _src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    if os.path.isdir(_src) and os.path.abspath(_src) not in map(os.path.abspath, sys.path):
        sys.path.insert(0, os.path.abspath(_src))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_scalability import build_pool, build_requests

from repro.config import Switches, override
from repro.matchmaking import CycleStats, negotiation_cycle
from repro.matchmaking import parallel as par
from repro.sim import RngStream

from _report import rows_to_dicts, table, write_bench_json, write_report

HEADERS = ["workers", "cycle", "speedup", "chunks", "pairs", "serialize",
           "ipc", "score", "merge", "commit"]


def _timed_cycle(requests, providers):
    stats = CycleStats()
    start = time.perf_counter()
    assignments = negotiation_cycle(requests, providers, stats=stats)
    return assignments, time.perf_counter() - start, stats


def _sweep_row(requests, providers, repeats, workers, serial_best, reference):
    """One sweep row: the best of *repeats* cycles on *workers* workers."""
    _timed_cycle(requests, providers)  # warm pool + caches
    pool = par.scoring_pool()
    best = float("inf")
    best_stages = None
    stats = None
    for _ in range(repeats):
        pool.reset_stage_seconds()
        assignments, elapsed, stats = _timed_cycle(requests, providers)
        got = [
            (a.submitter, a.provider.evaluate("Name"))
            for a in assignments
        ]
        if reference is not None:
            assert got == reference, (
                f"{workers}-worker assignments diverged from serial"
            )
        if elapsed < best:
            best = elapsed
            best_stages = dict(pool.stage_seconds)
    parent = (best_stages["serialize"] + best_stages["ipc"]
              + best_stages["merge"])
    commit = max(0.0, best - parent - best_stages["score"])
    return (
        workers,
        f"{1000 * best:.1f}ms",
        f"{serial_best / best:.2f}x",
        stats.parallel_chunks,
        stats.parallel_pairs_scored,
        f"{1000 * best_stages['serialize']:.1f}ms",
        f"{1000 * best_stages['ipc']:.1f}ms",
        f"{1000 * best_stages['score']:.1f}ms",
        f"{1000 * best_stages['merge']:.1f}ms",
        f"{1000 * commit:.1f}ms",
    )


def worker_sweep(n_machines, n_requests, repeats, worker_counts):
    """One row per configuration: serial baseline, then each pool size.

    Every parallel configuration is interleaved with an adjacent serial
    run and must reproduce its assignments exactly.
    """
    rng = RngStream(n_machines, "sweep")
    providers = build_pool(n_machines, rng.fork("machines"))
    requests = build_requests(n_requests, rng.fork("jobs"), distinct=12)
    rows = []
    try:
        # the sweep measures the tier, not the bar
        with override(batch=True, scoring_workers=0, pair_threshold=0):
            _, serial_best, _ = _timed_cycle(requests, providers)
            reference = None
            for _ in range(repeats - 1):
                assignments, elapsed, _ = _timed_cycle(requests, providers)
                serial_best = min(serial_best, elapsed)
                reference = [
                    (a.submitter, a.provider.evaluate("Name")) for a in assignments
                ]
            rows.append((0, f"{1000 * serial_best:.1f}ms", "1.00x", 0, 0,
                         "-", "-", "-", "-", f"{1000 * serial_best:.1f}ms"))
            for workers in worker_counts:
                with override(scoring_workers=workers):
                    rows.append(_sweep_row(requests, providers, repeats,
                                           workers, serial_best, reference))
                par.shutdown_scoring_pool()
    finally:
        par.shutdown_scoring_pool()
    return rows, serial_best


def threshold_anatomy(n_machines, n_requests, workers=2):
    """Fallback accounting at three threshold positions: never fan out,
    always fan out, and the shipped default."""
    rng = RngStream(n_machines, "threshold")
    providers = build_pool(n_machines, rng.fork("machines"))
    requests = build_requests(n_requests, rng.fork("jobs"), distinct=12)
    out = {}
    try:
        for label, threshold in (
            ("always", 0),
            ("default", Switches().pair_threshold),
            ("never", 10 * n_machines + 1),
        ):
            with override(batch=True, scoring_workers=workers, pair_threshold=threshold):
                _, _, stats = _timed_cycle(requests, providers)
            out[label] = {
                "threshold": threshold,
                "pairs_scored": stats.parallel_pairs_scored,
                "chunks": stats.parallel_chunks,
                "fallbacks": stats.parallel_fallbacks,
            }
    finally:
        par.shutdown_scoring_pool()
    return out


def run_smoke(out_dir=None, machines=1500, requests=100, repeats=3):
    """The CI smoke benchmark: reduced sweep + threshold anatomy."""
    cores = os.cpu_count() or 1
    worker_counts = sorted({1, 2, min(4, max(1, cores))})
    start = time.perf_counter()
    rows, serial_best = worker_sweep(machines, requests, repeats, worker_counts)
    anatomy = threshold_anatomy(machines, requests)
    wall = time.perf_counter() - start

    # Fallback accounting must be exact: "never" scores nothing in
    # workers and counts every class; "always" scores everything.
    assert anatomy["never"]["pairs_scored"] == 0
    assert anatomy["never"]["fallbacks"] > 0
    assert anatomy["always"]["pairs_scored"] > 0
    assert anatomy["always"]["fallbacks"] == 0

    report = table(HEADERS, rows) + (
        "\n\nthreshold anatomy (workers=2):\n"
        + "\n".join(
            f"  {label:8s} (>= {info['threshold']:>6d} pairs):"
            f" {info['pairs_scored']:>7d} pairs in workers,"
            f" {info['fallbacks']:>3d} serial fallbacks"
            for label, info in anatomy.items()
        )
        + f"\n\ncores on this host: {cores} (speedup bars live in"
        " bench_scalability.py and only apply at >= 4 cores)"
    )
    write_report("PAR_parallel_smoke", report, out_dir=out_dir)
    throughput = {"serial_cycle_s": serial_best}
    for row in rows[1:]:
        throughput[f"speedup_workers_{row[0]}"] = float(row[2].rstrip("x"))
    return write_bench_json(
        "PAR_parallel",
        wall_time_s=wall,
        throughput=throughput,
        data=rows_to_dicts(HEADERS, rows),
        extra={"mode": "smoke", "repeats": repeats, "cores": cores,
               "threshold_anatomy": anatomy},
        out_dir=out_dir,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run the reduced CI smoke sweep")
    parser.add_argument("--out", default=None,
                        help="results directory (default: benchmarks/results)")
    parser.add_argument("--machines", type=int, default=1500)
    parser.add_argument("--requests", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("only --smoke mode is supported as a script")
    run_smoke(out_dir=args.out, machines=args.machines,
              requests=args.requests, repeats=args.repeats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

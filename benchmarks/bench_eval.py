"""E-EVAL — classad evaluation microbenchmark: interpreter vs compiled closures.

Measures the negotiation inner-loop primitive in isolation: repeated
``Constraint``/``Rank`` evaluation of a (job, machine) ad pair, in three
configurations:

* **interpreted** — the recursive tree-walker (``REPRO_NO_COMPILE`` path);
* **compiled, cold cache** — every round starts with empty caches, so the
  cost includes lowering the ASTs to closures;
* **compiled, warm cache** — the steady state of a negotiation cycle,
  where ``Constraint``/``Rank`` compiled once and every candidate pairing
  reuses the cached closure.

The acceptance bar (ISSUE 3): warm-cache compiled evaluation is at least
2x the interpreter on this workload.  Results are written as
``repro-bench/1`` JSON (``BENCH_EVAL_compile.json``).

Run as a script for the CI smoke benchmark::

    python benchmarks/bench_eval.py --smoke [--out DIR]

or under pytest (collected when the benchmarks directory is targeted).
"""

import argparse
import os
import sys
import time

if __name__ == "__main__":
    # Allow `python benchmarks/bench_eval.py` from a bare checkout.
    _src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    if os.path.isdir(_src) and os.path.abspath(_src) not in map(os.path.abspath, sys.path):
        sys.path.insert(0, os.path.abspath(_src))

from repro.classads import ClassAd
from repro.classads import compile as compiled_path
from repro.classads import evaluator as interpreted_path
from repro.config import override

from _report import rows_to_dicts, table, write_bench_json, write_report

#: The Figure-2-shaped pair every negotiation cycle evaluates repeatedly.
JOB_CONSTRAINT = (
    'other.Type == "Machine" && other.Arch == self.ReqArch '
    "&& other.OpSys == self.ReqOpSys && other.Memory >= self.Memory"
)
JOB_RANK = "other.KFlops / 1E3 + other.Memory / 32"
MACHINE_CONSTRAINT = 'other.Type == "Job" && LoadAvg < 0.3'
MACHINE_RANK = 'other.Owner == "raman" ? 10 : 0'


def build_pair():
    job = ClassAd(
        {
            "Type": "Job",
            "Owner": "raman",
            "Memory": 31,
            "ReqArch": "INTEL",
            "ReqOpSys": "SOLARIS251",
        }
    )
    job.set_expr("Constraint", JOB_CONSTRAINT)
    job.set_expr("Rank", JOB_RANK)
    machine = ClassAd(
        {
            "Type": "Machine",
            "Name": "crow",
            "Arch": "INTEL",
            "OpSys": "SOLARIS251",
            "Memory": 64,
            "KFlops": 21893,
            "LoadAvg": 0.042,
        }
    )
    machine.set_expr("Constraint", MACHINE_CONSTRAINT)
    machine.set_expr("Rank", MACHINE_RANK)
    return job, machine


def _drop_caches(*ads):
    compiled_path.clear_cache()
    for ad in ads:
        ad._ccache = None


def _rounds(evaluate_attribute, job, machine, n):
    for _ in range(n):
        evaluate_attribute(job, "Constraint", other=machine)
        evaluate_attribute(job, "Rank", other=machine)
        evaluate_attribute(machine, "Constraint", other=job)
        evaluate_attribute(machine, "Rank", other=job)


def measure(rounds=20_000, repeats=5, cold_batches=200):
    """Best-of-*repeats* per-round times for the three configurations.

    The configurations are interleaved within each repeat so machine
    drift biases them equally.  Cold-cache rounds are measured in batches
    of one evaluation sweep per cache drop (``cold_batches`` drops per
    repeat) because a single cold round is too short to time.
    """
    job, machine = build_pair()
    best = {"interpreted": float("inf"), "cold": float("inf"), "warm": float("inf")}
    with override(compile=True):
        _rounds(compiled_path.evaluate_attribute, job, machine, 100)  # warm-up
    for _ in range(repeats):
        with override(compile=False):
            start = time.perf_counter()
            _rounds(compiled_path.evaluate_attribute, job, machine, rounds)
            best["interpreted"] = min(
                best["interpreted"], (time.perf_counter() - start) / rounds
            )

        with override(compile=True):
            start = time.perf_counter()
            for _ in range(cold_batches):
                _drop_caches(job, machine)
                _rounds(compiled_path.evaluate_attribute, job, machine, 1)
            best["cold"] = min(
                best["cold"], (time.perf_counter() - start) / cold_batches
            )

            _rounds(compiled_path.evaluate_attribute, job, machine, 100)
            start = time.perf_counter()
            _rounds(compiled_path.evaluate_attribute, job, machine, rounds)
            best["warm"] = min(
                best["warm"], (time.perf_counter() - start) / rounds
            )
    return best


def sanity_check_results():
    """Both paths agree on the workload (guards the benchmark itself)."""
    from repro.classads import values_identical

    job, machine = build_pair()
    for ad, other in ((job, machine), (machine, job)):
        for attr in ("Constraint", "Rank"):
            compiled = compiled_path.evaluate_attribute(ad, attr, other=other)
            interpreted = interpreted_path.evaluate_attribute(ad, attr, other=other)
            assert values_identical(compiled, interpreted), (attr, compiled, interpreted)


HEADERS = ["configuration", "per round", "rounds/s", "vs interpreter"]


def _rows(best):
    interp = best["interpreted"]
    return [
        (
            name,
            f"{1e6 * seconds:.2f}us",
            f"{1 / seconds:,.0f}",
            f"{interp / seconds:.2f}x",
        )
        for name, seconds in (
            ("interpreted", best["interpreted"]),
            ("compiled cold", best["cold"]),
            ("compiled warm", best["warm"]),
        )
    ]


def run_smoke(out_dir=None, rounds=20_000, repeats=5):
    """The CI smoke run: measure, report, and enforce the 2x bar."""
    sanity_check_results()
    start = time.perf_counter()
    best = measure(rounds=rounds, repeats=repeats)
    wall = time.perf_counter() - start
    warm_speedup = best["interpreted"] / best["warm"]
    cold_speedup = best["interpreted"] / best["cold"]
    rows = _rows(best)
    report = table(HEADERS, rows) + (
        f"\n\none round = 4 attribute evaluations (both Constraints + both"
        f" Ranks)\nwarm-cache speedup {warm_speedup:.2f}x"
        f" (bar: >= 2x), cold-cache {cold_speedup:.2f}x"
    )
    write_report("EVAL_compile_smoke", report, out_dir=out_dir)
    path = write_bench_json(
        "EVAL_compile",
        wall_time_s=wall,
        throughput={
            "rounds_per_s_interpreted": 1 / best["interpreted"],
            "rounds_per_s_compiled_cold": 1 / best["cold"],
            "rounds_per_s_compiled_warm": 1 / best["warm"],
            "warm_speedup": warm_speedup,
            "cold_speedup": cold_speedup,
        },
        data=rows_to_dicts(HEADERS, rows),
        extra={"mode": "smoke", "rounds": rounds, "repeats": repeats},
        out_dir=out_dir,
    )
    assert warm_speedup >= 2.0, (
        f"compiled warm-cache evaluation is only {warm_speedup:.2f}x the"
        " interpreter; the acceptance bar is 2x"
    )
    return path


def test_warm_cache_speedup_bar():
    """Pytest entry point: the ISSUE-3 acceptance assertion."""
    sanity_check_results()
    best = measure(rounds=5_000, repeats=3, cold_batches=50)
    assert best["interpreted"] / best["warm"] >= 2.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="run the CI smoke measurement"
    )
    parser.add_argument(
        "--out", default=None, help="results directory (default: benchmarks/results)"
    )
    parser.add_argument("--rounds", type=int, default=20_000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("only --smoke mode is supported as a script; use pytest otherwise")
    run_smoke(out_dir=args.out, rounds=args.rounds, repeats=args.repeats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

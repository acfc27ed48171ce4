"""Tests of the benchmark itself, at tiny pool sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import outcome
import run
from repro.condor import CondorPool
from repro.condor.machine import MachineAgent
from repro.protocols.retry import Retransmitter
from repro.sim import Trace
from tracing import SpanRecorder
from workloads import WORKLOADS

ROOT = Path(run.__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SCALE = 0.02  # 40 / 6 / 20 machines


def _invoke(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _result(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    done = _invoke("--workload", workload, "--seed", "3", "--seconds", "0.1",
                   "--trace", trace, "--scale", str(SCALE))
    assert done.returncode == 0, done.stdout + done.stderr
    result = _result(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = run.load_declared()["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == list(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_digest_repeats_in_process_traced_and_across_hash_seeds(workload):
    first = run.run_once(workload, 5, SCALE)
    again = run.run_once(workload, 5, SCALE)
    traced = run.run_once(workload, 5, SCALE, recorder=SpanRecorder())
    assert first.outcome.ok, first.outcome.problems
    assert first.outcome.digest == again.outcome.digest == traced.outcome.digest
    assert run.child_digest(workload, 5, SCALE) == first.outcome.digest


def test_other_seed_gives_other_outcome():
    assert (run.run_once("steady", 1, SCALE).outcome.digest
            != run.run_once("steady", 2, SCALE).outcome.digest)


def test_instrumentation_is_removed_after_a_traced_run():
    originals = (MachineAgent.advertise, Retransmitter.send, Trace.emit)
    run.run_once("steady", 1, SCALE, recorder=SpanRecorder())
    assert (MachineAgent.advertise, Retransmitter.send, Trace.emit) == originals


def test_best_wall_takes_the_fastest_run_of_each_segment():
    assert run.best_wall_s([[5, 1, 9], [2, 4, 9], [3, 3, 8]]) == 11e-9


def test_a_run_is_scaled_by_its_own_host_probe():
    def rep(probe_ns):
        return run.Rep(1, 0.0, 0.0, 0.0, 0.0, None, segments_ns=[10, 20],
                       probes_ns=[1, probe_ns, probe_ns])

    reference = hostspeed.REFERENCE_NS
    assert run.scaled_segments_ns(rep(reference)) == [10, 20]
    assert run.scaled_segments_ns(rep(2 * reference)) == [5, 10]


def test_segment_stops_cover_the_horizon_and_the_e1_check():
    scenario = WORKLOADS["cm-crash"](11, SCALE)
    stops = run.segment_stops(scenario)
    assert stops == sorted(set(stops))
    assert stops[-1] == scenario.horizon and scenario.e1_check_at in stops
    assert max(b - a for a, b in zip([0.0] + stops, stops)) <= run.SEGMENT_SIM_S


def test_layer_split_sums_to_traced_wall():
    layers = run.run_once("policy-churn", 1, SCALE, recorder=SpanRecorder()).layers
    split = sum(v for k, v in layers.items() if k.startswith("layer.")) + layers["engine.residual_s"]
    assert split == pytest.approx(layers["traced.wall_s"], rel=1e-9)
    assert layers["engine.residual_s"] > 0


def test_cm_crash_plan_targets_an_existing_machine():
    scenario = WORKLOADS["cm-crash"](11, SCALE)
    names = {spec.name for spec in scenario.specs}
    targets = [c.target for c in scenario.crashes if c.target.startswith("startd@")]
    assert targets and all(t.partition("@")[2] in names for t in targets)
    assert scenario.config.chaos.seed == 11
    assert scenario.e1_check_at is not None and scenario.e1_check_at < scenario.horizon


def test_clean_workloads_ignore_the_chaos_environment_hook(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "cm-crash")
    for name in ("steady", "policy-churn"):
        scenario = WORKLOADS[name](1, SCALE)
        assert scenario.config.chaos is False
        pool = CondorPool(scenario.specs, scenario.config, owner_models=scenario.owner_models)
        assert pool.chaos is None


# -- a corrupted outcome must fail the check ---------------------------------


def _finished_pool(workload="steady", seed=1):
    scenario = WORKLOADS[workload](seed, SCALE)
    pool = CondorPool(scenario.specs, scenario.config, owner_models=scenario.owner_models)
    pool.submit_all(scenario.jobs, scenario.arrivals)
    pool.run_until(scenario.horizon)
    return pool, scenario


def test_clean_outcome_passes():
    pool, scenario = _finished_pool()
    result = outcome.check(pool, scenario.horizon)
    assert result.ok and result.failed_jobs == 0
    assert result.wait_samples == result.submitted == len(scenario.jobs)


def test_job_completing_before_it_starts_fails_every_job():
    pool, scenario = _finished_pool()
    job = next(j for j in pool.jobs() if j.done)
    job.completion_time = job.first_start_time - 1.0
    result = outcome.check(pool, scenario.horizon)
    assert not result.ok
    assert result.failed_jobs == result.submitted


def test_double_completion_in_the_trace_fails_the_check():
    pool, scenario = _finished_pool()
    done = next(e for e in pool.trace.events if e.kind == "job-done")
    pool.trace.emit(done.t, "job-done", **done.fields)
    result = outcome.check(pool, scenario.horizon)
    assert any("double-completion" in p for p in result.problems)
    assert result.failed_jobs == result.submitted


def test_lost_machine_ad_and_missing_crash_fail_the_check():
    pool, scenario = _finished_pool()
    pool.collector.store.clear()
    result = outcome.check(pool, scenario.horizon, expect_machine_crash=True, e1_missing=["vm0000"])
    problems = " ".join(result.problems)
    assert "lacks ads for 40 live machines" in problems
    assert "machine crash never happened" in problems
    assert "two advertise periods" in problems
    assert result.missing_at_horizon == 40 and result.e1_late == 1


def test_late_machines_within_the_lossy_allowance_pass():
    pool, scenario = _finished_pool()
    ok = outcome.check(pool, scenario.horizon, e1_missing=["vm0000"], late_allowed=1)
    late = outcome.check(pool, scenario.horizon, e1_missing=["vm0000", "vm0001"], late_allowed=1)
    assert ok.ok and ok.e1_late == 1
    assert not late.ok


def test_tampered_digest_fails_the_run(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    digests = iter(f"{i:064x}" for i in range(100))
    monkeypatch.setattr(outcome, "digest", lambda pool: next(digests))
    code = run.main(["--workload", "steady", "--seed", "1", "--seconds", "0",
                     "--trace", "1", "--scale", str(SCALE)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_digest_store_catches_a_changed_outcome(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.check_stored_digest("steady", 1, 1.0, "a" * 64) is None
    assert run.check_stored_digest("steady", 1, 1.0, "a" * 64) is None
    assert "differs" in run.check_stored_digest("steady", 1, 1.0, "b" * 64)


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

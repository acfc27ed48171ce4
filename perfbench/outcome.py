"""What a finished run simulated, and whether it is correct.

Every run's numbers count only after :func:`check` passes.  It audits
the simulated outcome, never the host timings:

* the safety invariants of ``repro.obs.invariants.check_events`` over
  the pool's in-memory trace (no machine runs two jobs at once, no job
  holds two claims, no job terminates twice);
* per-job coherence: submit <= first start <= completion for every
  completed job, completed <= submitted, and the pool's own counters
  agree with the job records;
* soft state: at the horizon the collector holds an unexpired ad for
  every live machine;
* for chaos runs: the plan's machine crash really happened, and the
  collector regained every live machine ad within two advertise periods
  of the central manager's recovery (the paper's E1 claim; sampled by
  the runner at that instant, see :func:`live_machines_missing`).

On a lossy network the two soft-state checks can only hold with high
probability: a machine stays unknown for a whole period when its
Refresh and the Refresh's one blind copy are lost, or when the
collector's single ``ResendRequest`` is.  The scenario therefore states
how many live machines may be late (``late_allowed``; zero on a
loss-free network), and the counts are always reported.

:func:`digest` hashes the simulated outcome (per job: state, start,
completion, machine, evictions; plus the network counters).  Runs of one
workload and seed must agree on it bit for bit, traced or not, whatever
the interpreter's hash seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.condor import CondorPool
from repro.condor.states import JobState
from repro.obs.invariants import check_events


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


@dataclass
class Outcome:
    """The checked, deterministic result of one simulated run."""

    digest: str
    submitted: int
    completed: int
    goodput: float
    badput: float
    failed_jobs: int
    #: Live machines without a collector ad at the horizon / at the E1 check.
    missing_at_horizon: int = 0
    e1_late: int = 0
    problems: List[str] = field(default_factory=list)
    invariant_stats: Dict[str, int] = field(default_factory=dict)
    #: Per job, simulated seconds from submit to first start (or to the
    #: horizon for jobs that never started).
    waits: List[float] = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def wait_samples(self) -> int:
        return len(self.waits)

    @property
    def goodput_fraction(self) -> float:
        total = self.goodput + self.badput
        return self.goodput / total if total else 0.0


def live_machines_missing(pool: CondorPool) -> List[str]:
    """Live (not crashed) machines without an unexpired collector ad."""
    now = pool.sim.now
    missing = []
    for name, agent in pool.machines.items():
        if agent.crashed:
            continue
        rec = pool.collector.store.record(f"machine.{name}")
        if rec is None or rec.expires_at <= now:
            missing.append(name)
    return missing


def _job_machines(pool: CondorPool) -> Dict[Tuple[str, int], str]:
    """(owner, job id) -> machine of the job's last accepted claim."""
    machines: Dict[Tuple[str, int], str] = {}
    for event in pool.trace.events:
        if event.kind == "claim-accepted":
            fields = event.fields
            machines[(fields["owner"], fields["job"])] = fields["machine"]
    return machines


def digest(pool: CondorPool) -> str:
    """sha256 over the per-job outcome and the network counters."""
    machines = _job_machines(pool)
    jobs = sorted(pool.jobs(), key=lambda job: (job.owner, job.job_id))
    payload = {
        "jobs": [
            [
                job.owner,
                job.job_id,
                job.state.value,
                job.submit_time,
                job.first_start_time,
                job.completion_time,
                machines.get((job.owner, job.job_id)),
                job.evictions,
            ]
            for job in jobs
        ],
        "net": asdict(pool.net.stats),
        "events": pool.sim.events_processed,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def check(
    pool: CondorPool,
    horizon: float,
    expect_machine_crash: bool = False,
    e1_missing: Optional[List[str]] = None,
    late_allowed: int = 0,
) -> Outcome:
    """Audit a pool run to *horizon*; see the module docstring."""
    problems: List[str] = []
    report = check_events(pool.trace.events)
    failed_keys = set()
    for violation in report.violations:
        problems.append(f"invariant {violation}")
        if violation.job is not None:
            failed_keys.add(violation.job)

    jobs = pool.jobs()
    completed = [job for job in jobs if job.done]
    for job in jobs:
        key = f"{job.owner}.{job.job_id}"
        if job.state is JobState.REMOVED:
            failed_keys.add(key)
        start, end = job.first_start_time, job.completion_time
        if start is not None and not job.submit_time <= start <= horizon:
            problems.append(f"job {key} started at {start} outside [{job.submit_time}, {horizon}]")
            failed_keys.add(key)
        if job.done and (start is None or end is None or not start <= end <= horizon):
            problems.append(f"job {key} completed at {end} but started at {start}")
            failed_keys.add(key)
    if pool.metrics.jobs_completed > pool.metrics.jobs_submitted:
        problems.append(
            f"{pool.metrics.jobs_completed} jobs completed of {pool.metrics.jobs_submitted} submitted"
        )
    if pool.metrics.jobs_completed != len(completed):
        problems.append(
            f"pool counted {pool.metrics.jobs_completed} completions, job records show {len(completed)}"
        )
    if pool.metrics.jobs_submitted != len(jobs):
        problems.append(
            f"pool counted {pool.metrics.jobs_submitted} submissions, job records show {len(jobs)}"
        )
    if report.stats.get("jobs_done") != len(completed):
        problems.append(
            f"trace shows {report.stats.get('jobs_done')} job-done events, "
            f"job records show {len(completed)} completions"
        )

    missing = live_machines_missing(pool)
    e1_missing = e1_missing or []
    if len(missing) > late_allowed:
        problems.append(
            f"collector lacks ads for {len(missing)} live machines at the horizon "
            f"(allowed {late_allowed}): {missing[:5]}"
        )
    if expect_machine_crash and report.stats.get("machine_crashes", 0) < 1:
        problems.append("the chaos plan's machine crash never happened")
    if len(e1_missing) > late_allowed:
        problems.append(
            f"collector did not regain {len(e1_missing)} live machine ads within two "
            f"advertise periods of CM recovery (allowed {late_allowed}): {e1_missing[:5]}"
        )

    waits = [
        (job.first_start_time if job.first_start_time is not None else horizon)
        - job.submit_time
        for job in jobs
    ]
    return Outcome(
        digest=digest(pool),
        submitted=len(jobs),
        completed=len(completed),
        goodput=pool.metrics.goodput,
        badput=pool.metrics.badput,
        failed_jobs=len(jobs) if problems else len(failed_keys),
        missing_at_horizon=len(missing),
        e1_late=len(e1_missing),
        problems=problems,
        invariant_stats=dict(report.stats),
        waits=waits,
    )

"""Seeded workload generators for the end-to-end pool benchmark.

Each workload is a recipe that turns ``(seed, scale)`` into a fresh
:class:`Scenario`: machine specs, jobs with their arrival times, owner
models, the ``PoolConfig`` and the simulated horizon.  The program under
test only ever sees these generated inputs.  Every call builds new
objects (jobs are mutable and carry explicit ids), so repeated runs of
one scenario start from identical state.

Workloads are open-loop in simulated time: jobs arrive on the seeded
schedule whatever the pool does.

* ``steady`` — a dedicated pool (owners never present) and a backlog from
  four submitters at t=0.  Advertising-dominated.
* ``policy-churn`` — Figure 1 policy workstations with Poisson owners and
  eight submitters oversubscribing the pool about 2x.
  Negotiation-dominated; the only workload with Rank preemption and
  owner evictions.
* ``cm-crash`` — a ``steady``-shaped pool under the ``cm-crash`` chaos
  profile's shape, rebuilt from the workload seed so that its machine
  crash targets a machine that exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.condor import Job, MachineSpec, PoissonOwner, PoolConfig
from repro.condor.machine import OwnerModel
from repro.condor.workload import (
    JobProfile,
    generate_jobs,
    generate_policy_pool,
    generate_pool,
    poisson_arrival_times,
)
from repro.sim.chaos import ChaosPlan, CrashWindow, chaos_profile
from repro.sim.rng import RngStream


@dataclass
class Scenario:
    """One fully generated workload instance."""

    specs: List[MachineSpec]
    jobs: List[Job]
    #: Arrival instants, one per job; None submits the whole list at t=0.
    arrivals: Optional[List[float]]
    owner_models: Dict[str, OwnerModel]
    config: PoolConfig
    horizon: float
    #: Crash windows of the chaos plan (empty for clean workloads).
    crashes: Tuple[CrashWindow, ...] = ()
    #: When set, the run pauses at this instant (two advertise periods
    #: after the central manager recovers) to check the paper's E1 claim:
    #: the collector holds an ad for every machine live since recovery.
    e1_check_at: Optional[float] = None
    #: Machines down at some point since recovery; E1 does not cover them.
    e1_exempt: FrozenSet[str] = frozenset()
    #: Live machines the collector may lack at the E1 check and at the
    #: horizon: zero on a loss-free network (see ``outcome.py``).
    late_allowed: int = 0


def _numbered(jobs: List[Job]) -> List[Job]:
    """Give jobs ids 1..n so every generation of a scenario is identical
    (the default ids come from a process-wide counter)."""
    for i, job in enumerate(jobs, start=1):
        job.job_id = i
    return jobs


def _backlog(rng: RngStream, submitters: int, per_submitter: int) -> List[Job]:
    jobs: List[Job] = []
    for i in range(submitters):
        jobs.extend(generate_jobs(rng.fork(f"jobs/{i}"), f"user{i}", per_submitter))
    return _numbered(jobs)


def steady(seed: int, scale: float = 1.0) -> Scenario:
    """~2k dedicated machines, a t=0 backlog from four submitters."""
    rng = RngStream(seed, "perfbench/steady")
    machines = max(4, round(2000 * scale))
    specs = generate_pool(rng.fork("pool"), machines)
    jobs = _backlog(rng, 4, max(1, machines // 4))
    return Scenario(
        specs=specs,
        jobs=jobs,
        arrivals=None,
        owner_models={},
        config=PoolConfig(seed=seed, chaos=False),
        horizon=1500.0,
    )


#: policy-churn submitters: (name, share of arrivals).  Two research
#: groups always welcome on their own machines (Rank 10), one friend
#: welcome when the owner is idle (Rank 1), strangers welcome at night
#: (the simulation starts at midnight), and one untrusted user whom no
#: machine ever accepts.
CHURN_GROUPS = (("alice", "bob"), ("carol", "dave"))
CHURN_FRIENDS = ("erin",)
CHURN_UNTRUSTED = ("mallory",)
CHURN_SUBMITTERS = (
    ("alice", 0.14),
    ("bob", 0.14),
    ("carol", 0.14),
    ("dave", 0.14),
    ("erin", 0.14),
    ("frank", 0.14),
    ("grace", 0.14),
    ("mallory", 0.02),
)


def policy_churn(seed: int, scale: float = 1.0) -> Scenario:
    """~300 Figure 1 workstations, Poisson owners, 2x oversubscribed."""
    rng = RngStream(seed, "perfbench/policy-churn")
    machines = max(4, round(300 * scale))
    horizon = 1500.0
    specs = generate_policy_pool(
        rng.fork("pool"),
        machines,
        groups=CHURN_GROUPS,
        friends=CHURN_FRIENDS,
        untrusted=CHURN_UNTRUSTED,
    )
    owners: Dict[str, OwnerModel] = {
        spec.name: PoissonOwner(mean_active=600.0, mean_idle=1_800.0) for spec in specs
    }
    profile = JobProfile(mean_work=900.0, want_checkpoint_fraction=0.5)
    # Offered load ~2x capacity: owners leave a machine free 3/4 of the
    # time and the mean machine runs 1.75 reference CPU-seconds per second.
    capacity = machines * 0.75 * 1.75
    total_rate = 2.0 * capacity / profile.mean_work
    timed: List[Tuple[float, int, Job]] = []
    for rank, (owner, share) in enumerate(CHURN_SUBMITTERS):
        sub = rng.fork(f"submitter/{owner}")
        rate = total_rate * share
        count = max(1, round(rate * horizon))
        times = poisson_arrival_times(sub.fork("arrivals"), count, rate)
        for at, job in zip(times, generate_jobs(sub.fork("jobs"), owner, count, profile)):
            if at < horizon:
                timed.append((at, rank, job))
    timed.sort(key=lambda item: (item[0], item[1]))
    jobs = _numbered([job for _, _, job in timed])
    return Scenario(
        specs=specs,
        jobs=jobs,
        arrivals=[at for at, _, _ in timed],
        owner_models=owners,
        config=PoolConfig(seed=seed, chaos=False),
        horizon=horizon,
    )


def cm_crash_plan(seed: int, specs: List[MachineSpec], horizon: float) -> ChaosPlan:
    """The ``cm-crash`` profile's shape, seeded from the workload seed,
    with its machine crash aimed at a machine of *this* pool."""
    base = chaos_profile("cm-crash", horizon=horizon)
    victim = RngStream(seed, "perfbench/cm-crash/victim").choice(specs).name
    crashes = tuple(
        replace(c, target=f"startd@{victim}") if c.target.startswith("startd@") else c
        for c in base.crashes
    )
    return replace(base, seed=seed, crashes=crashes)


def cm_crash(seed: int, scale: float = 1.0) -> Scenario:
    """~1k ``steady``-shaped machines under a seeded cm-crash plan."""
    rng = RngStream(seed, "perfbench/cm-crash")
    machines = max(4, round(1000 * scale))
    horizon = 1500.0
    specs = generate_pool(rng.fork("pool"), machines)
    jobs = _backlog(rng, 4, max(1, machines // 4))
    plan = cm_crash_plan(seed, specs, horizon)
    config = PoolConfig(seed=seed, chaos=plan, chaos_horizon=horizon)
    cm = next(c for c in plan.crashes if c.target == "cm")
    recovered = cm.at + cm.duration
    check_at = recovered + 2 * config.advertise_interval
    exempt = frozenset(
        c.target.partition("@")[2]
        for c in plan.crashes
        if c.target.startswith("startd@")
        and c.at < check_at
        and (c.duration is None or c.at + c.duration >= recovered)
    )
    return Scenario(
        specs=specs,
        jobs=jobs,
        arrivals=None,
        owner_models={},
        config=config,
        horizon=horizon,
        crashes=plan.crashes,
        e1_check_at=check_at,
        e1_exempt=exempt,
        # Under the plan's 5% loss a machine misses two periods with
        # probability ~1e-4; a broken resync path misses nearly all.
        late_allowed=math.ceil(0.01 * machines),
    )


WORKLOADS: Dict[str, Callable[[int, float], Scenario]] = {
    "steady": steady,
    "policy-churn": policy_churn,
    "cm-crash": cm_crash,
}

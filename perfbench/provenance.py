"""Provenance block for every benchmark record.

A number without its host, interpreter, commit and configuration cannot
be compared with anything, so each record carries them.  Environment
variables named ``REPRO_*`` are recorded verbatim; the ones that select
a code path are also reported loudly on stderr, because a run made with
one of them set does not measure the default configuration.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import socket
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

#: ``REPRO_*`` variables that only redirect output; every other one
#: switches a code path or a subsystem on or off.
OUTPUT_ONLY_VARS = frozenset({"REPRO_BENCH_RESULTS_DIR"})


def repro_env() -> Dict[str, str]:
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


def code_path_vars() -> List[str]:
    return [k for k in repro_env() if k not in OUTPUT_ONLY_VARS]


def git_head(root: Path) -> Optional[str]:
    """``git rev-parse HEAD`` of *root*, or None outside a git checkout
    (the search is not allowed to climb above *root*)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: Path, workload: str, seed: int, scale: float,
               configs: Dict[int, object]) -> Dict[str, object]:
    """Host, interpreter, commit, workload and the ``PoolConfig`` of every
    workload instance (keyed by instance seed)."""
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_head": git_head(root),
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "pool_configs": {str(seed): dataclasses.asdict(cfg) for seed, cfg in configs.items()},
        "repro_env": repro_env(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def warn_code_path_vars(stream=sys.stderr) -> List[str]:
    """Print a loud warning for each code-path ``REPRO_*`` variable set."""
    names = code_path_vars()
    for name in names:
        print(
            f"WARNING: {name}={os.environ[name]!r} is set: this run does not "
            "measure the default configuration",
            file=stream,
        )
    return names

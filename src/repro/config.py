"""Runtime switches: the one place the process environment is read.

Every code path with a reference twin is chosen by a field of the one
:data:`switches` instance.  :func:`from_env` parses the ``REPRO_*``
variables into it once, at import; tests and benchmarks change it only
through :func:`override`, which restores what it found.  The same parser
serves the two start-up readers that are not switches: ``repro.obs``
takes its ``REPRO_OBS*`` flags from it at import (``obs.enable()`` /
``disable()`` control them afterwards), and ``sim.chaos.plan_from_env``
reads ``REPRO_CHAOS`` through it when a pool is built.

docs/PERFORMANCE.md "Runtime switches" tables every variable: its field,
its default, and the code path it selects.

Flags accept ``1/true/yes/on`` and ``0/false/no/off`` (or empty); counts
are non-negative integers.  Anything else raises :class:`ValueError`
naming the variable, so a mistyped switch never silently runs the
default path.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Tuple

__all__ = [
    "CHAOS_VARIABLE",
    "Environment",
    "OBS_VARIABLES",
    "SWITCH_VARIABLES",
    "Switches",
    "VARIABLES",
    "from_env",
    "override",
    "switches",
]


@dataclass(slots=True)
class Switches:
    """The code-path switches; every default is the fast path."""

    #: Compiled classad closures (off: the tree-walking interpreter).
    compile: bool = True
    #: Request batching in the negotiation cycle (off: the naive scan).
    batch: bool = True
    #: Refresh messages for unchanged ads (off: every advertisement is full).
    refresh: bool = True
    #: Protocol retransmission and lease-loss recovery (off: one-shot sends).
    retry: bool = True
    #: Scoring worker processes (0: scoring stays serial).
    scoring_workers: int = 0
    #: Candidate pairs below which a class is scored in-process.
    pair_threshold: int = 1024


#: Switches field -> variable.  The flag variables are kill-switches:
#: setting ``REPRO_NO_COMPILE=1`` turns ``compile`` off.
SWITCH_VARIABLES: Dict[str, str] = {
    "compile": "REPRO_NO_COMPILE",
    "batch": "REPRO_NO_BATCH",
    "refresh": "REPRO_NO_REFRESH",
    "retry": "REPRO_NO_RETRY",
    "scoring_workers": "REPRO_SCORING_WORKERS",
    "pair_threshold": "REPRO_PARALLEL_THRESHOLD",
}
#: obs recorder -> variable that enables it at start-up.
OBS_VARIABLES: Dict[str, str] = {
    "metrics": "REPRO_OBS",
    "trace": "REPRO_OBS_TRACE",
    "events": "REPRO_OBS_EVENTS",
    "causal": "REPRO_OBS_CAUSAL",
    "series": "REPRO_OBS_SERIES",
}
#: ``<profile>[:<seed>]`` chaos plan for every pool built without one.
CHAOS_VARIABLE = "REPRO_CHAOS"
#: Every variable :func:`from_env` reads.
VARIABLES: Tuple[str, ...] = (
    *SWITCH_VARIABLES.values(),
    *OBS_VARIABLES.values(),
    CHAOS_VARIABLE,
)

_TYPES = {f.name: type(f.default) for f in fields(Switches)}
_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"", "0", "false", "no", "off"})


@dataclass(frozen=True)
class Environment:
    """What one reading of the environment configures."""

    switches: Switches
    #: The ``OBS_VARIABLES`` recorders switched on.
    obs: FrozenSet[str]
    #: ``(profile, seed or None)`` from ``REPRO_CHAOS``, or None when unset.
    chaos: Optional[Tuple[str, Optional[int]]]


def _flag(environ: Mapping[str, str], name: str) -> bool:
    raw = environ.get(name, "")
    text = raw.strip().lower()
    if text in _TRUE:
        return True
    if text in _FALSE:
        return False
    raise ValueError(f"{name}={raw!r}: expected 1/true/yes/on or 0/false/no/off")


def _is_count(text: str) -> bool:
    return text.isascii() and text.isdigit()


def from_env(environ: Optional[Mapping[str, str]] = None) -> Environment:
    """Parse every ``REPRO_*`` variable (of the process environment when
    *environ* is None); raises :class:`ValueError` on a malformed value."""
    environ = os.environ if environ is None else environ
    values = {}
    for field in fields(Switches):
        name = SWITCH_VARIABLES[field.name]
        if type(field.default) is bool:
            values[field.name] = not _flag(environ, name)
            continue
        raw = environ.get(name, "")
        text = raw.strip()
        if text and not _is_count(text):
            raise ValueError(f"{name}={raw!r}: expected a non-negative integer")
        values[field.name] = int(text) if text else field.default
    obs = frozenset(r for r, name in OBS_VARIABLES.items() if _flag(environ, name))
    chaos = None
    raw = environ.get(CHAOS_VARIABLE, "")
    if raw.strip():
        profile, _, seed = raw.strip().partition(":")
        if seed and not _is_count(seed):
            raise ValueError(
                f"{CHAOS_VARIABLE}={raw!r}: expected <profile>[:<non-negative seed>]"
            )
        chaos = (profile, int(seed) if seed else None)
    return Environment(Switches(**values), obs, chaos)


#: The process-wide switches.  Hot paths bind this object once and read
#: one attribute per decision; :func:`override` mutates it in place, so
#: those bindings never go stale.
switches = from_env().switches


@contextmanager
def override(**changes) -> Iterator[Switches]:
    """Set switch fields for the ``with`` block, then restore the values
    it found, also when the block raises.  Unknown fields and values of
    the wrong type raise :class:`TypeError`; negative counts
    :class:`ValueError`."""
    for name, value in changes.items():
        kind = _TYPES.get(name)
        if kind is None:
            raise TypeError(f"unknown switch {name!r} (known: {', '.join(_TYPES)})")
        if type(value) is not kind:
            raise TypeError(f"switch {name!r} takes {kind.__name__}, got {value!r}")
        if kind is int and value < 0:
            raise ValueError(f"switch {name!r} must be non-negative, got {value}")
    saved = {name: getattr(switches, name) for name in changes}
    for name, value in changes.items():
        setattr(switches, name, value)
    try:
        yield switches
    finally:
        for name, value in saved.items():
            setattr(switches, name, value)

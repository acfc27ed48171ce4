"""The one switch surface: ``repro.config``.

Every ``REPRO_*`` variable is parsed by :func:`repro.config.from_env`;
the table test below drives each one through unset / on / off /
malformed.  :func:`repro.config.override` is the only setter of the
code-path switches, and must restore exactly what it found.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import (
    CHAOS_VARIABLE,
    OBS_VARIABLES,
    SWITCH_VARIABLES,
    VARIABLES,
    Switches,
    from_env,
    override,
    switches,
)

ROOT = Path(__file__).resolve().parent.parent

KILL_SWITCHES = ["REPRO_NO_COMPILE", "REPRO_NO_BATCH", "REPRO_NO_REFRESH", "REPRO_NO_RETRY"]
OBS_FLAGS = list(OBS_VARIABLES.values())
ON = ["1", "true", "Yes", " on "]
OFF = ["0", "false", "NO", "off", ""]


def parsed(env):
    """variable -> the value one parse of *env* gives it."""
    result = from_env(env)
    view = {name: getattr(result.switches, field) for field, name in SWITCH_VARIABLES.items()}
    view.update({name: recorder in result.obs for recorder, name in OBS_VARIABLES.items()})
    view[CHAOS_VARIABLE] = result.chaos
    return view


#: (variable, raw value or None for unset, parsed value)
TABLE = (
    [(name, None, True) for name in KILL_SWITCHES]
    + [(name, raw, False) for name in KILL_SWITCHES for raw in ON]
    + [(name, raw, True) for name in KILL_SWITCHES for raw in OFF]
    + [(name, None, False) for name in OBS_FLAGS]
    + [(name, raw, True) for name in OBS_FLAGS for raw in ON]
    + [(name, raw, False) for name in OBS_FLAGS for raw in OFF]
    + [
        ("REPRO_SCORING_WORKERS", None, 0),
        ("REPRO_SCORING_WORKERS", "3", 3),
        ("REPRO_SCORING_WORKERS", " 0 ", 0),
        ("REPRO_SCORING_WORKERS", "", 0),
        ("REPRO_PARALLEL_THRESHOLD", None, 1024),
        ("REPRO_PARALLEL_THRESHOLD", "0", 0),
        ("REPRO_PARALLEL_THRESHOLD", "4096", 4096),
        ("REPRO_PARALLEL_THRESHOLD", "", 1024),
        (CHAOS_VARIABLE, None, None),
        (CHAOS_VARIABLE, "", None),
        (CHAOS_VARIABLE, "lossy", ("lossy", None)),
        (CHAOS_VARIABLE, " partition:99 ", ("partition", 99)),
    ]
)

#: (variable, raw value) pairs that must be refused.
MALFORMED = (
    [(name, raw) for name in KILL_SWITCHES + OBS_FLAGS for raw in ("2", "maybe")]
    + [
        (name, raw)
        for name in ("REPRO_SCORING_WORKERS", "REPRO_PARALLEL_THRESHOLD")
        for raw in ("two", "-2", "1.5", "+3", "٣")
    ]
    + [(CHAOS_VARIABLE, "lossy:x"), (CHAOS_VARIABLE, "lossy:-1")]
)


class TestFromEnv:
    @pytest.mark.parametrize("name,raw,expected", TABLE)
    def test_table(self, name, raw, expected):
        env = {} if raw is None else {name: raw}
        assert parsed(env)[name] == expected

    @pytest.mark.parametrize("name,raw", MALFORMED)
    def test_malformed_value_names_variable_and_value(self, name, raw):
        with pytest.raises(ValueError) as caught:
            from_env({name: raw})
        assert f"{name}={raw!r}" in str(caught.value)

    def test_table_covers_every_variable(self):
        assert {name for name, raw, _ in TABLE if raw is None} == set(VARIABLES)
        assert {name for name, _ in MALFORMED} == set(VARIABLES)

    def test_unset_environment_gives_the_defaults(self):
        result = from_env({})
        assert result.switches == Switches()
        assert result.obs == frozenset()
        assert result.chaos is None

    def test_unrelated_variables_are_ignored(self):
        assert from_env({"REPRO_BENCH_RESULTS_DIR": "/tmp/x", "PATH": "x"}).switches == Switches()

    def test_process_switches_are_parsed_at_import(self):
        code = "from repro.config import switches; print(switches)"
        env = {
            "PYTHONPATH": str(ROOT / "src"),
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "REPRO_NO_REFRESH": "1",
            "REPRO_SCORING_WORKERS": "3",
        }
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert "refresh=False" in result.stdout
        assert "scoring_workers=3" in result.stdout

    def test_malformed_process_environment_stops_the_import(self):
        env = {
            "PYTHONPATH": str(ROOT / "src"),
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "REPRO_SCORING_WORKERS": "two",
        }
        result = subprocess.run(
            [sys.executable, "-c", "import repro"], capture_output=True, text=True, env=env
        )
        assert result.returncode != 0
        assert "REPRO_SCORING_WORKERS='two'" in result.stderr

    def test_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_REFRESH", "1")
        assert from_env().switches.refresh is False
        with override(refresh=True):
            assert switches.refresh is True


class TestOverride:
    def test_sets_and_restores(self):
        before = Switches(**{f: getattr(switches, f) for f in SWITCH_VARIABLES})
        with override(compile=False, scoring_workers=3) as current:
            assert current is switches
            assert switches.compile is False
            assert switches.scoring_workers == 3
        assert switches == before

    def test_restores_on_exception(self):
        before = switches.retry
        with pytest.raises(RuntimeError):
            with override(retry=not before):
                assert switches.retry is not before
                raise RuntimeError("boom")
        assert switches.retry is before

    def test_nested_overrides_restore_layer_by_layer(self):
        before = switches.pair_threshold
        with override(pair_threshold=5):
            with override(pair_threshold=7, batch=False):
                assert switches.pair_threshold == 7
                assert switches.batch is False
            assert switches.pair_threshold == 5
        assert switches.pair_threshold == before

    def test_empty_override_changes_nothing(self):
        with override() as current:
            assert current is switches

    @pytest.mark.parametrize(
        "changes,error",
        [
            ({"parallel": False}, TypeError),
            ({"compile": 1}, TypeError),
            ({"compile": "false"}, TypeError),
            ({"scoring_workers": True}, TypeError),
            ({"scoring_workers": "2"}, TypeError),
            ({"pair_threshold": 1.5}, TypeError),
            ({"scoring_workers": -1}, ValueError),
        ],
    )
    def test_rejects_unknown_fields_and_bad_values(self, changes, error):
        before = Switches(**{f: getattr(switches, f) for f in SWITCH_VARIABLES})
        with pytest.raises(error):
            with override(batch=not before.batch, **changes):
                pass  # pragma: no cover - never entered
        assert switches == before


def test_hot_paths_share_the_one_instance():
    # override() mutates in place, so every module must hold the same
    # object, never a copy taken at import.
    from repro.classads import compile as compiled
    from repro.condor import machine, schedd
    from repro.matchmaking import matchmaker, parallel
    from repro.protocols import retry

    for module in (compiled, machine, schedd, matchmaker, parallel, retry):
        assert module._switches is switches, module.__name__


def test_performance_doc_tables_every_variable():
    text = (ROOT / "docs" / "PERFORMANCE.md").read_text()
    section = text.split("## Runtime switches", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    tabled = [re.findall(r"`([^`]+)`", row.split("|")[2]) for row in rows[1:]]
    assert sorted(name for names in tabled for name in names) == sorted(VARIABLES)

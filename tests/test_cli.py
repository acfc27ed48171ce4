"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import CliError, load_ad, load_pool, main
from repro.classads import ClassAd, dumps
from repro.config import override, switches

MACHINE_SRC = """[
  Type = "Machine"; Name = "leonardo"; Arch = "INTEL";
  OpSys = "SOLARIS251"; Memory = 64; KFlops = 21893;
  State = "Unclaimed"; Activity = "Idle"; LoadAvg = 0.05; KeyboardIdle = 1432;
  Constraint = other.Type == "Job"
]"""

JOB_SRC = """[
  Type = "Job"; JobId = 7; Owner = "raman"; Cmd = "run_sim"; Memory = 31;
  ReqArch = "INTEL"; RemainingWork = 600.0;
  Constraint = other.Type == "Machine" && other.Memory >= self.Memory;
  Rank = other.KFlops / 1E3
]"""


@pytest.fixture()
def machine_file(tmp_path):
    path = tmp_path / "machine.ad"
    path.write_text(MACHINE_SRC)
    return str(path)


@pytest.fixture()
def job_file(tmp_path):
    path = tmp_path / "job.ad"
    path.write_text(JOB_SRC)
    return str(path)


@pytest.fixture()
def pool_file(tmp_path):
    ads = []
    for i, memory in enumerate([16, 64, 256]):
        ad = ClassAd.parse(MACHINE_SRC)
        ad["Name"] = f"m{i}"
        ad["Memory"] = memory
        ads.append(ad)
    path = tmp_path / "pool.jsonl"
    path.write_text("\n".join(dumps(ad) for ad in ads))
    return str(path)


class TestLoading:
    def test_load_classad_source(self, machine_file):
        ad = load_ad(machine_file)
        assert ad.evaluate("Name") == "leonardo"

    def test_load_json_ad(self, tmp_path):
        ad = ClassAd.parse(MACHINE_SRC)
        path = tmp_path / "machine.json"
        path.write_text(dumps(ad))
        assert load_ad(str(path)) == ad

    def test_load_jsonl_pool(self, pool_file):
        pool = load_pool(pool_file)
        assert len(pool) == 3

    def test_load_json_array_pool(self, tmp_path):
        ads = [ClassAd({"Type": "Machine", "Name": f"m{i}"}) for i in range(2)]
        path = tmp_path / "pool.json"
        path.write_text(json.dumps([{"Type": "Machine", "Name": f"m{i}"} for i in range(2)]))
        assert len(load_pool(str(path))) == 2

    def test_load_concatenated_classad_blocks(self, tmp_path):
        path = tmp_path / "pool.ads"
        path.write_text(MACHINE_SRC + "\n\n" + MACHINE_SRC.replace("leonardo", "raphael"))
        pool = load_pool(str(path))
        assert [ad.evaluate("Name") for ad in pool] == ["leonardo", "raphael"]

    def test_brackets_inside_strings_do_not_confuse_splitter(self, tmp_path):
        path = tmp_path / "pool.ads"
        path.write_text('[ Type = "Machine"; Note = "odd ] text [" ]')
        assert len(load_pool(str(path))) == 1

    def test_missing_file(self):
        with pytest.raises(CliError):
            load_ad("/nonexistent/file.ad")

    def test_malformed_source(self, tmp_path):
        path = tmp_path / "bad.ad"
        path.write_text("[ a = ]")
        with pytest.raises(CliError):
            load_ad(str(path))


class TestCommands:
    def test_eval_simple(self, capsys):
        assert main(["eval", "2 + 3 * 4"]) == 0
        assert capsys.readouterr().out.strip() == "14"

    def test_eval_with_ads(self, capsys, machine_file, job_file):
        code = main(["eval", "other.Memory >= self.Memory", "--ad", job_file, "--other", machine_file])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_eval_undefined(self, capsys):
        main(["eval", "NoSuchThing"])
        assert capsys.readouterr().out.strip() == "undefined"

    def test_eval_bad_expression(self, capsys):
        assert main(["eval", "a +"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_match_yes(self, capsys, machine_file, job_file):
        assert main(["match", job_file, machine_file]) == 0
        out = capsys.readouterr().out
        assert "match: yes" in out
        assert "customer Rank of provider: 21.893" in out

    def test_match_no(self, capsys, tmp_path, machine_file):
        small = tmp_path / "big_job.ad"
        small.write_text(JOB_SRC.replace("Memory = 31", "Memory = 4096"))
        assert main(["match", str(small), machine_file]) == 1
        assert "match: no" in capsys.readouterr().out

    def test_best(self, capsys, job_file, pool_file):
        assert main(["best", job_file, pool_file]) == 0
        out = capsys.readouterr().out
        assert "best provider:" in out

    def test_best_none(self, capsys, tmp_path, pool_file):
        impossible = tmp_path / "impossible.ad"
        impossible.write_text(JOB_SRC.replace("Memory = 31", "Memory = 99999"))
        assert main(["best", str(impossible), pool_file]) == 1

    def test_status(self, capsys, pool_file):
        assert main(["status", pool_file]) == 0
        out = capsys.readouterr().out
        assert "Total 3 machines" in out

    def test_status_with_constraint(self, capsys, pool_file):
        main(["status", pool_file, "--constraint", "Memory >= 64"])
        out = capsys.readouterr().out
        assert "Total 2 machines" in out

    def test_q(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.ads"
        jobs.write_text(JOB_SRC)
        main(["q", str(jobs)])
        assert "raman" in capsys.readouterr().out

    def test_q_owner_filter(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.ads"
        jobs.write_text(JOB_SRC)
        main(["q", str(jobs), "--owner", "nobody"])
        assert "no idle jobs" in capsys.readouterr().out

    def test_diagnose_satisfiable(self, capsys, job_file, pool_file):
        assert main(["diagnose", job_file, pool_file]) == 0
        assert "bilateral matches" in capsys.readouterr().out

    def test_diagnose_unsatisfiable(self, capsys, tmp_path, pool_file):
        bad = tmp_path / "bad_job.ad"
        bad.write_text(JOB_SRC.replace('"INTEL"', '"VAX"').replace(
            'other.Memory >= self.Memory',
            'other.Arch == "VAX"',
        ))
        assert main(["diagnose", str(bad), pool_file]) == 1
        assert "UNSATISFIABLE" in capsys.readouterr().out

    def test_convert_to_json_and_back(self, capsys, machine_file, tmp_path):
        main(["convert", machine_file, "--to", "json"])
        as_json = capsys.readouterr().out
        json_path = tmp_path / "machine.json"
        json_path.write_text(as_json)
        main(["convert", str(json_path), "--to", "classad"])
        as_classad = capsys.readouterr().out
        assert ClassAd.parse(as_classad) == load_ad(machine_file)


class TestValueFormatting:
    def test_eval_list_result(self, capsys):
        main(["eval", 'split("a b c")'])
        assert capsys.readouterr().out.strip() == '{ "a", "b", "c" }'

    def test_eval_record_result(self, capsys):
        main(["eval", "[x = 1 + 1]"])
        out = capsys.readouterr().out.strip()
        assert out.startswith("[") and "x" in out

    def test_eval_error_result(self, capsys):
        main(["eval", "1/0"])
        assert capsys.readouterr().out.strip() == "error"

    def test_eval_real_result(self, capsys):
        main(["eval", "7 / 2.0"])
        assert capsys.readouterr().out.strip() == "3.5"


OBS_POOL_SRC = """[
  Type = "Machine"; Name = "vulture"; Arch = "INTEL"; Memory = 64;
  State = "Unclaimed"; Constraint = other.Type == "Job"; Rank = 0
]
[
  Type = "Machine"; Name = "condor"; Arch = "SPARC"; Memory = 128;
  State = "Unclaimed"; Constraint = other.Type == "Job"; Rank = 0
]
[
  Type = "Job"; JobId = 1; Owner = "raman"; QDate = 1;
  Constraint = other.Type == "Machine" && other.Arch == "INTEL";
  Rank = other.Memory
]
[
  Type = "Job"; JobId = 2; Owner = "raman"; QDate = 2;
  Constraint = other.Type == "Machine" && other.Arch == "VAX" && other.Memory >= 32;
  Rank = 0
]
[
  Type = "Job"; JobId = 3; Owner = "livny"; QDate = 3;
  Constraint = other.Type == "Machine" && other.HasJava;
  Rank = 0
]"""


class TestObsCommands:
    """The negotiation-forensics CLI: record → report/why/tail/export."""

    @pytest.fixture()
    def events_file(self, tmp_path, capsys):
        pool = tmp_path / "obspool.ads"
        pool.write_text(OBS_POOL_SRC)
        out = str(tmp_path / "events.jsonl")
        assert main(["obs", "record", str(pool), "--out", out, "--cycles", "2"]) == 0
        capsys.readouterr()  # swallow the record confirmation line
        return out

    def test_record_writes_valid_jsonl(self, events_file):
        from repro.obs.events import read_jsonl

        events = read_jsonl(events_file)
        assert any(e.kind == "cycle.end" for e in events)
        assert any(e.kind == "match.reject" for e in events)

    def test_report_summarizes_cycles(self, capsys, events_file):
        assert main(["obs", "report", events_file]) == 0
        out = capsys.readouterr().out
        assert "cycle  requests  matched  rejected" in out
        assert "top rejection reasons:" in out
        assert 'other.Arch == "VAX"' in out

    def test_why_names_failing_conjunct(self, capsys, events_file):
        # Job 2 is genuinely unmatchable: no VAX in the pool.
        assert main(["obs", "why", "2", events_file]) == 1
        out = capsys.readouterr().out
        assert 'conjunct other.Arch == "VAX" is false' in out
        assert "unmatched in every recorded cycle" in out

    def test_why_names_undefined_attribute(self, capsys, events_file):
        # Job 3 wants other.HasJava, which no machine ad defines.
        assert main(["obs", "why", "3", events_file]) == 1
        out = capsys.readouterr().out
        assert "conjunct other.HasJava is undefined" in out
        assert "undefined attributes: other.HasJava" in out

    def test_why_reports_match(self, capsys, events_file):
        assert main(["obs", "why", "1", events_file]) == 0
        out = capsys.readouterr().out
        assert "matched provider vulture" in out

    def test_why_unknown_job(self, capsys, events_file):
        assert main(["obs", "why", "99", events_file]) == 1
        assert "no recorded events" in capsys.readouterr().out

    def test_tail_prints_events(self, capsys, events_file):
        assert main(["obs", "tail", events_file, "--limit", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        assert "cycle.end" in out[-1]

    def test_tail_kind_filter(self, capsys, events_file):
        assert main(["obs", "tail", events_file, "--kind", "cycle.begin"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all("cycle.begin" in line for line in lines)

    def test_export_summary_schema(self, capsys, events_file):
        assert main(["obs", "export", events_file]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["schema"] == "repro-events-summary/1"
        assert len(summary["cycles"]) == 2
        assert summary["by_kind"]["match.reject"] > 0

    def test_export_to_file(self, capsys, events_file, tmp_path):
        out = str(tmp_path / "summary.json")
        assert main(["obs", "export", events_file, "--out", out]) == 0
        summary = json.loads(open(out).read())
        assert summary["schema"] == "repro-events-summary/1"

    def test_report_rejects_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "a header"}\n')
        assert main(["obs", "report", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_record_requires_jobs(self, capsys, tmp_path, pool_file):
        out = str(tmp_path / "events.jsonl")
        assert main(["obs", "record", pool_file, "--out", out]) == 2
        assert "no Job ads" in capsys.readouterr().err


class TestPoolFormats:
    def test_empty_pool_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_pool(str(path)) == []

    def test_unbalanced_brackets_rejected(self, tmp_path):
        path = tmp_path / "broken.ads"
        path.write_text("[ a = 1 ")
        with pytest.raises(CliError):
            load_pool(str(path))

    def test_json_pool_must_be_array(self, tmp_path):
        path = tmp_path / "scalar.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(Exception):
            load_pool(str(path))


class TestObsCheck:
    def write_log(self, tmp_path, records):
        path = tmp_path / "events.jsonl"
        lines = ['{"schema": "repro-events/1"}']
        lines += [json.dumps(r) for r in records]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_clean_log_passes(self, capsys, tmp_path):
        path = self.write_log(
            tmp_path,
            [
                {"seq": 1, "t": 0.0, "kind": "job-submitted",
                 "fields": {"owner": "a", "job": 1}},
                {"seq": 2, "t": 1.0, "kind": "claim-response",
                 "fields": {"machine": "m0", "accepted": True, "match": 1, "job": 1}},
                {"seq": 3, "t": 1.0, "kind": "claim-accepted",
                 "fields": {"owner": "a", "job": 1, "match": 1}},
                {"seq": 4, "t": 9.0, "kind": "job-completed",
                 "fields": {"machine": "m0", "job": 1}},
                {"seq": 5, "t": 9.1, "kind": "job-done",
                 "fields": {"owner": "a", "job": 1}},
            ],
        )
        assert main(["obs", "check", path, "--require-complete"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_overlap_fails(self, capsys, tmp_path):
        path = self.write_log(
            tmp_path,
            [
                {"seq": 1, "t": 1.0, "kind": "claim-response",
                 "fields": {"machine": "m0", "accepted": True, "match": 1, "job": 1}},
                {"seq": 2, "t": 2.0, "kind": "claim-response",
                 "fields": {"machine": "m0", "accepted": True, "match": 2, "job": 2}},
            ],
        )
        assert main(["obs", "check", path]) == 1
        assert "machine-overlap" in capsys.readouterr().out

    def test_incomplete_only_fails_with_require_complete(self, capsys, tmp_path):
        path = self.write_log(
            tmp_path,
            [{"seq": 1, "t": 0.0, "kind": "job-submitted",
              "fields": {"owner": "a", "job": 1}}],
        )
        assert main(["obs", "check", path]) == 0
        assert main(["obs", "check", path, "--require-complete"]) == 1

    def test_bad_file_is_cli_error(self, capsys, tmp_path):
        bad = tmp_path / "nope.jsonl"
        bad.write_text("not json\n")
        assert main(["obs", "check", str(bad)]) == 2


class TestChaosCommand:
    def test_chaos_run_records_and_passes_check(self, capsys, tmp_path):
        out = str(tmp_path / "chaos.jsonl")
        code = main(
            ["chaos", "lossy", "--machines", "3", "--jobs", "4",
             "--horizon", "1200", "--out", out]
        )
        stdout = capsys.readouterr().out
        assert code == 0, stdout
        assert "4/4 completed" in stdout
        assert main(["obs", "check", out, "--require-complete"]) == 0

    def test_unknown_profile_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["chaos", "mayhem"])

    def test_chaos_restores_the_callers_switches(self, capsys):
        # --no-retry and --workers used to restore the retry switch from
        # the environment, not from what the caller had set.
        with override(retry=False, scoring_workers=0, pair_threshold=77):
            main(["chaos", "lossy", "--no-retry", "--workers", "2",
                  "--machines", "3", "--jobs", "2", "--horizon", "600"])
            assert switches.retry is False
            assert switches.scoring_workers == 0
            assert switches.pair_threshold == 77
        capsys.readouterr()


class TestLifecycleCommands:
    """The lifecycle-analytics CLI: timeline / critical-path / latency / pool."""

    LIFECYCLE_RECORDS = [
        {"seq": 1, "t": 0.0, "kind": "job-submitted",
         "fields": {"owner": "alice", "job": 0, "trace": "job.alice.0"}},
        {"seq": 2, "t": 0.0, "kind": "advertise-job",
         "fields": {"owner": "alice", "job": 0}},
        {"seq": 3, "t": 60.0, "kind": "match-notified-customer",
         "fields": {"owner": "alice", "job": 0, "match": 1}},
        {"seq": 4, "t": 60.1, "kind": "claim-request",
         "fields": {"owner": "alice", "job": 0, "match": 1}},
        {"seq": 5, "t": 60.2, "kind": "claim-response",
         "fields": {"machine": "m0", "accepted": True, "match": 1, "job": 0}},
        {"seq": 6, "t": 60.3, "kind": "claim-accepted",
         "fields": {"owner": "alice", "job": 0, "match": 1}},
        {"seq": 7, "t": 660.3, "kind": "job-done",
         "fields": {"owner": "alice", "job": 0}},
    ]

    TRACE_RECORDS = [
        {"span": 1, "t": 0.0, "trace": "job.alice.0", "name": "job.submit",
         "parent": None, "fields": {"owner": "alice", "job": 0}},
        {"span": 2, "t": 0.0, "trace": "job.alice.0", "name": "send.Advertisement",
         "parent": 1, "fields": {}},
        {"span": 3, "t": 8.0, "trace": "job.alice.0", "name": "recv.Advertisement",
         "parent": 2, "fields": {}},
    ]

    SERIES_RECORDS = [
        {"seq": 1, "t": 60.0,
         "fields": {"cycle": 1, "machines": 3, "claimed": 1, "match_rate": 0.5}},
        {"seq": 2, "t": 120.0,
         "fields": {"cycle": 2, "machines": 3, "claimed": 2, "match_rate": 1.0}},
    ]

    def write_jsonl(self, tmp_path, name, schema, records):
        path = tmp_path / name
        lines = [json.dumps({"schema": schema})] + [json.dumps(r) for r in records]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.fixture()
    def events_file(self, tmp_path):
        return self.write_jsonl(
            tmp_path, "events.jsonl", "repro-events/1", self.LIFECYCLE_RECORDS
        )

    @pytest.fixture()
    def trace_file(self, tmp_path):
        return self.write_jsonl(
            tmp_path, "trace.jsonl", "repro-trace/1", self.TRACE_RECORDS
        )

    @pytest.fixture()
    def series_file(self, tmp_path):
        return self.write_jsonl(
            tmp_path, "series.jsonl", "repro-series/1", self.SERIES_RECORDS
        )

    def test_timeline_renders_phases(self, capsys, events_file):
        assert main(["obs", "timeline", "0", events_file]) == 0
        out = capsys.readouterr().out
        assert "job 0 (alice)" in out
        assert "executing" in out
        assert "end-to-end 660.300" in out

    def test_timeline_owner_qualified(self, capsys, events_file):
        assert main(["obs", "timeline", "alice.0", events_file]) == 0
        assert "trace job.alice.0" in capsys.readouterr().out

    def test_timeline_unknown_job(self, capsys, events_file):
        assert main(["obs", "timeline", "42", events_file]) == 2
        assert "recorded jobs: alice.0" in capsys.readouterr().err

    def test_critical_path_walks_spans(self, capsys, trace_file):
        assert main(["obs", "critical-path", "alice.0", trace_file]) == 0
        out = capsys.readouterr().out
        assert out.index("job.submit") < out.index("recv.Advertisement")
        assert "root→leaf" in out

    def test_critical_path_unknown_trace(self, capsys, trace_file):
        assert main(["obs", "critical-path", "bob.9", trace_file]) == 2
        assert "job.alice.0" in capsys.readouterr().err

    def test_latency_table(self, capsys, events_file):
        assert main(["obs", "latency", events_file]) == 0
        out = capsys.readouterr().out
        assert "end-to-end" in out
        assert "p99" in out

    def test_latency_json(self, capsys, events_file):
        assert main(["obs", "latency", events_file, "--json"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["schema"] == "repro-latency/1"
        assert table["jobs_completed"] == 1

    def test_pool_table(self, capsys, series_file):
        assert main(["obs", "pool", series_file]) == 0
        out = capsys.readouterr().out
        assert "match_rate" in out
        assert "0.50" in out

    def test_pool_limit(self, capsys, series_file):
        assert main(["obs", "pool", series_file, "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "0.50" not in out
        assert "1.00" in out

    def test_report_section_filter(self, capsys, events_file):
        assert main(["obs", "report", events_file, "--section", "kinds"]) == 0
        out = capsys.readouterr().out
        assert "events by kind" in out
        assert "cycle  requests" not in out


class TestChaosRecordingFlags:
    def test_chaos_records_trace_and_series(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        series = str(tmp_path / "series.jsonl")
        code = main(
            ["chaos", "lossy", "--machines", "3", "--jobs", "4",
             "--horizon", "1200", "--trace", trace, "--series", series]
        )
        assert code == 0, capsys.readouterr().out
        from repro.obs.causal import check_dag
        from repro.obs.causal import read_jsonl as read_trace
        from repro.obs.timeseries import read_jsonl as read_series

        spans = read_trace(trace)
        assert check_dag(spans)  # connected, rooted — raises otherwise
        assert read_series(series)

    def test_chaos_emits_run_stats_for_report(self, capsys, tmp_path):
        out = str(tmp_path / "events.jsonl")
        assert main(
            ["chaos", "lossy", "--machines", "3", "--jobs", "4",
             "--horizon", "1200", "--out", out]
        ) == 0
        capsys.readouterr()
        assert main(["obs", "report", out, "--section", "robustness"]) == 0
        report = capsys.readouterr().out
        assert "robustness" in report
        assert "delivered" in report
        assert "retries_sent" in report

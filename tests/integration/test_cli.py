"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main


class TestDescribe:
    def test_describe_prints_data_sheet(self, capsys):
        assert main(["describe", "2", "1"]) == 0
        out = capsys.readouterr().out
        assert "O(2, 1)" in out
        assert "agreement profile" in out
        assert "paper's ascending-chain" in out

    def test_describe_rejects_bad_level(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["describe", "2", "0"])
        assert excinfo.value.code == 2


class TestCurves:
    def test_curves_output_shape(self, capsys):
        assert main(["curves", "2", "--kmax", "2", "--nmax", "10"]) == 0
        out = capsys.readouterr().out
        assert "2-consensus" in out
        assert "O(2,1)" in out
        assert "O(2,2)" in out

    def test_curves_values(self, capsys):
        main(["curves", "3", "--kmax", "1", "--nmax", "6"])
        out = capsys.readouterr().out
        assert "3-consensus" in out


class TestCheck:
    def test_check_small_member_exhaustive(self, capsys):
        assert main(["check", "1", "1"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "OK" in out

    def test_check_medium_member_sampled(self, capsys):
        assert main(["check", "2", "2"]) == 0
        out = capsys.readouterr().out
        assert "300 random schedules" in out


class TestCommon2:
    def test_certificates_printed(self, capsys):
        assert main(["common2", "--levels", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("Common2") == 2

    def test_default_levels(self, capsys):
        assert main(["common2"]) == 0
        assert capsys.readouterr().out.count("Common2") == 3


#: O(2,1) with one crash: the walk perfbench's serve-worker workload runs.
CRASH_WALK = ["explore", "--task", "set-consensus", "--n", "2", "--k", "1",
              "--max-crashes", "1"]


class TestObservability:
    def test_trace_out_then_stats(self, tmp_path, capsys):
        """The acceptance loop: check --trace-out produces a file that the
        stats command summarizes without error."""
        trace = tmp_path / "run.jsonl"
        assert main(["check", "1", "1", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert lines, "trace file must not be empty"
        names = {record["event"] for record in lines}
        assert "step" in names
        assert "schedule_explored" in names
        assert "span_end" in names
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "steps_total" in out
        assert "by process" in out
        assert "by object" in out
        assert "schedules_explored" in out
        assert "phase timings" in out

    def test_trace_out_bus_restored_after_run(self, tmp_path):
        from repro.obs import events

        assert main(["check", "1", "1", "--trace-out", str(tmp_path / "t.jsonl")]) == 0
        assert not events.is_enabled()

    def test_progress_flag_writes_to_stderr(self, capsys):
        assert main(["check", "1", "1", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "progress:" in err
        assert "steps" in err

    def test_stats_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_stats_empty_file_fails_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["stats", str(empty)]) == 1
        assert "no events" in capsys.readouterr().err

    def test_stats_skips_corrupt_lines_and_reports_count(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["check", "1", "1", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        with open(trace, "a", encoding="utf-8") as handle:
            handle.write('{"event": "step", "pid": 0, "obj\n')  # truncated
            handle.write("not json at all\n")
            handle.write('["a", "list", "record"]\n')
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "3 corrupt lines skipped" in out
        assert "steps_total" in out

    def test_stats_aggregates_multiple_traces(self, tmp_path, capsys):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        assert main(["check", "1", "1", "--trace-out", str(first)]) == 0
        assert main(["check", "1", "1", "--trace-out", str(second)]) == 0
        capsys.readouterr()

        def steps_total(stdout):
            for line in stdout.splitlines():
                if line.strip().startswith("steps_total:"):
                    return int(line.split(":")[1].strip().split()[0])
            raise AssertionError("no steps_total line in digest")

        assert main(["stats", str(first)]) == 0
        single = steps_total(capsys.readouterr().out)
        assert main(["stats", str(first), str(second)]) == 0
        out = capsys.readouterr().out
        assert steps_total(out) == 2 * single
        assert "one.jsonl" in out and "two.jsonl" in out

    def test_stats_export_flags_write_valid_files(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        prom = tmp_path / "metrics.prom"
        assert main(["check", "1", "1", "--trace-out", str(trace)]) == 0
        assert main(["stats", str(trace), "--metrics-out", str(prom)]) == 0
        assert f"wrote Prometheus metrics to {prom}" in capsys.readouterr().out
        prom_text = prom.read_text()
        assert "# TYPE steps_total counter" in prom_text
        assert 'schedule_depth_bucket{le="+Inf"}' in prom_text

    @pytest.mark.parametrize(
        "command",
        [["check", "1", "1"], CRASH_WALK + ["--no-ledger", "--no-execset"]],
        ids=["check", "crash-walk"],
    )
    def test_replayed_metrics_are_byte_stable(self, tmp_path, capsys, command):
        """stats --metrics-out is the one source of a run's Prometheus
        file: two replays of one trace render the same non-empty bytes."""
        trace = tmp_path / "run.jsonl"
        first = tmp_path / "first.prom"
        second = tmp_path / "second.prom"
        assert main(command + ["--trace-out", str(trace)]) == 0
        for prom in (first, second):
            assert main(["stats", str(trace), "--metrics-out", str(prom)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes() != b""

    @pytest.mark.parametrize("argv", [
        ["describe", "2", "1"], ["curves", "2"], ["check", "1", "1"],
        ["explore"], ["audit"], ["report"], ["common2"],
    ], ids=lambda argv: argv[0])
    def test_run_commands_take_no_metrics_out(self, tmp_path, capsys, argv):
        """A run's metrics come from its trace (``stats --metrics-out``);
        no run command writes a metrics file of its own."""
        out = tmp_path / "run.prom"
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--metrics-out", str(out)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_suite_metrics_come_from_the_report_trace(self, tmp_path, capsys):
        """``repro report`` prints the command's budget in its summary,
        and its trace carries the suite metrics for ``stats``."""
        trace = tmp_path / "suite.jsonl"
        prom = tmp_path / "suite.prom"
        assert main(["report", "--deadline", "0", "--no-ledger",
                     "--trace-out", str(trace)]) == 3
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.endswith(" _(budget: Budget(deadline=0s))_"), summary
        assert main(["stats", str(trace), "--metrics-out", str(prom)]) == 0
        assert "suite_experiments_total 11" in prom.read_text().splitlines()

    def test_traced_crash_walk_pays_only_for_its_trace(
        self, tmp_path, capsys, monkeypatch
    ):
        """No registry listens to the walk, and the trace holds exactly
        the walk's events, each line canonical JSON."""
        from repro.obs import events
        from repro.obs.metrics import MetricsRegistry

        consumed = []
        monkeypatch.setattr(
            MetricsRegistry, "consume_event",
            lambda self, name, fields: consumed.append(name),
        )
        subscribed = set()
        sink_emit = events.JsonlSink.emit

        def watching_emit(self, name, fields):
            subscribed.add(bool(events._subscribers))
            sink_emit(self, name, fields)

        monkeypatch.setattr(events.JsonlSink, "emit", watching_emit)
        trace = tmp_path / "T.jsonl"
        assert main(CRASH_WALK + ["--trace-out", str(trace), "--no-ledger",
                                  "--execset-out", str(tmp_path / "x.jsonl")]) == 0
        capsys.readouterr()
        assert subscribed == {False}
        assert consumed == []
        counts = {}
        for line in trace.read_text().splitlines():
            record = json.loads(line)
            assert json.dumps(record, default=repr) == line
            counts[record["event"]] = counts.get(record["event"], 0) + 1
        # Time-driven, but the walk's last beat closes it.
        assert counts.pop("explore_heartbeat") >= 1
        # The state-cached walk: 2,734 leaves walked or credited, and a
        # step or crash only on the edge into each of the 2,429 expanded
        # nodes but the root (a credited node is never stepped into).
        assert counts == {
            "span_start": 2, "span_end": 2, "frontier": 2429, "step": 1466,
            "schedule_explored": 2734, "crash": 962, "execset_digest": 1,
        }

    def test_stats_of_a_cached_walk_count_every_execution(
        self, tmp_path, capsys
    ):
        """A credited subtree's executions are schedules explored, but
        only walked leaves have a depth."""
        trace = tmp_path / "T.jsonl"
        assert main(CRASH_WALK + ["--trace-out", str(trace), "--no-ledger",
                                  "--no-execset"]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "schedules_explored: 5040" in lines
        depth = next(line for line in lines if line.startswith("schedule_depth:"))
        assert depth.endswith(" over 336 schedules"), depth

    def test_stats_write_failure_exits_two(self, tmp_path, capsys):
        # Missing parent directories are created, so the unwritable path
        # here has a *file* where a directory would have to be.
        trace = tmp_path / "run.jsonl"
        assert main(["check", "1", "1", "--trace-out", str(trace)]) == 0
        (tmp_path / "not-a-dir").write_text("")
        bad = tmp_path / "not-a-dir" / "out.prom"
        assert main(["stats", str(trace), "--metrics-out", str(bad)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_stats_digest_of_an_explore_trace_is_byte_stable(
        self, tmp_path, capsys
    ):
        """Two readings of one exploration trace print the same bytes,
        and the digest times the command and the walk as phases."""
        trace = tmp_path / "run.jsonl"
        assert main(["explore", "--task", "consensus", "--n", "2", "--k", "1",
                     "--trace-out", str(trace), "--no-ledger",
                     "--no-execset"]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        first = capsys.readouterr().out
        assert main(["stats", str(trace)]) == 0
        assert capsys.readouterr().out == first
        lines = first.splitlines()
        phases = lines[lines.index("phase timings:") + 1:]
        assert sorted(line.split()[0] for line in phases) == [
            "command", "explore"
        ]
        assert all(line.endswith("(1 call)") for line in phases)

    def test_stats_records_nothing_in_the_run_ledger(self, tmp_path, capsys):
        """Reading a trace is not a run: neither a good read nor a failed
        one adds a verdict to the ledger."""
        from repro.obs.ledger import default_ledger_path

        trace = tmp_path / "run.jsonl"
        assert main(["check", "1", "1", "--trace-out", str(trace)]) == 0
        ledger = Path(default_ledger_path())
        before = ledger.read_bytes()
        assert main(["stats", str(trace)]) == 0
        assert main(["stats", str(tmp_path / "absent.jsonl")]) == 1
        capsys.readouterr()
        assert ledger.read_bytes() == before

    @pytest.mark.parametrize("flag", ["--flame", "--html"])
    def test_stats_has_no_second_rendering(self, tmp_path, capsys, flag):
        """The digest and --metrics-out are the only accounts of a trace."""
        trace = tmp_path / "run.jsonl"
        assert main(["check", "1", "1", "--trace-out", str(trace)]) == 0
        with pytest.raises(SystemExit) as exit_info:
            main(["stats", str(trace), flag, str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["audit"], ["diff", "a.jsonl", "b.jsonl"], ["explain", "w.jsonl"],
    ], ids=["audit", "diff", "explain"])
    def test_reports_render_only_as_text(self, tmp_path, capsys, argv):
        """Each report's one rendering is its text; HTML is the daemon's."""
        out = tmp_path / "out.html"
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--html", str(out)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content, code", [
        (None, 1), ("{nope\nnot json either\n", 2),
    ], ids=["missing", "all-corrupt"])
    def test_stats_unreadable_trace_writes_no_metrics(
        self, tmp_path, capsys, content, code
    ):
        trace = tmp_path / "run.jsonl"
        if content is not None:
            trace.write_text(content)
        prom = tmp_path / "metrics.prom"
        assert main(["stats", str(trace), "--metrics-out", str(prom)]) == code
        assert capsys.readouterr().out == ""
        assert not prom.exists()

    def test_stats_header_counts_every_event(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["check", "1", "1", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:2] == [f"# {trace}: {len(lines)} events", ""]

    def test_stats_counts_witnesses_and_faults_in_the_trace(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "run.jsonl"
        assert main(CRASH_WALK + ["--trace-out", str(trace), "--no-ledger",
                                  "--no-execset"]) == 0
        with open(trace, "a", encoding="utf-8") as handle:
            for kind in ("existence", "existence", "violation"):
                handle.write(json.dumps(
                    {"event": "witness_captured", "kind": kind}
                ) + "\n")
        crashes = trace.read_text().count('"event": "crash"')
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert crashes > 0
        assert f"faults_injected: {crashes}" in out
        assert "witnesses_captured_total: existence=2, violation=1" in out

    def test_stats_of_a_killed_run_and_its_resume(self, tmp_path, capsys):
        """A killed run's trace ends inside its spans; read together with
        a complete trace, only the closed spans are timed."""
        whole = tmp_path / "whole.jsonl"
        assert main(["check", "1", "1", "--trace-out", str(whole)]) == 0
        killed = tmp_path / "killed.jsonl"
        lines = whole.read_text().splitlines(keepends=True)
        killed.write_text("".join(
            line for line in lines if '"event": "span_end"' not in line
        ))
        capsys.readouterr()

        def command_phase(traces):
            assert main(["stats"] + [str(t) for t in traces]) == 0
            for line in capsys.readouterr().out.splitlines():
                if line.split()[:1] == ["command"]:
                    return line.rsplit("(", 1)[1]
            raise AssertionError("no command phase in digest")

        assert command_phase([killed, whole]) == "1 call)"
        assert command_phase([whole, whole]) == "2 calls)"


class TestWitnessAndExplain:
    @staticmethod
    def archive_bundle(directory):
        """A real Common2-point witness bundle for the CLI to chew on."""
        from repro.algorithms.consensus_from_n_consensus import (
            partition_set_consensus_spec,
        )
        from repro.obs.witness import capture_witnesses, witness_context
        from repro.runtime.explorer import find_execution

        inputs = ["a", "b", "c", "d", "e", "f"]
        with capture_witnesses(str(directory)) as store:
            with witness_context(
                spec={"builder": "n-consensus-partition", "n": 2,
                      "inputs": inputs},
                predicate={"name": "distinct-outputs-at-least", "count": 3},
                label="cli test witness",
            ):
                find_execution(
                    partition_set_consensus_spec(2, inputs),
                    lambda e: len(e.distinct_outputs()) >= 3,
                    max_depth=10,
                )
        return store.captured[0]

    def test_witness_dir_flag_activates_and_deactivates(self, tmp_path, capsys):
        from repro.obs.witness import get_active_store

        assert main(["check", "1", "1", "--witness-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert get_active_store() is None  # torn down in the finally

    def test_explain_bundle_end_to_end(self, tmp_path, capsys):
        bundle = self.archive_bundle(tmp_path)
        assert main(["explain", bundle]) == 0
        out = capsys.readouterr().out
        assert "fingerprint verified" in out
        assert "1-minimal" in out
        # The lanes are the one rendering: the output closes with their
        # outcome row, and no prose retelling follows.
        assert "=> " in out.splitlines()[-1]
        assert "Decision set:" not in out

    def test_explain_output_byte_stable(self, tmp_path, capsys):
        bundle = self.archive_bundle(tmp_path)
        assert main(["explain", bundle]) == 0
        first = capsys.readouterr().out
        assert main(["explain", bundle]) == 0
        assert capsys.readouterr().out == first

    def test_explain_no_shrink(self, tmp_path, capsys):
        bundle = self.archive_bundle(tmp_path)
        assert main(["explain", bundle, "--no-shrink"]) == 0
        assert "shrunk:" not in capsys.readouterr().out

    def test_explain_resolves_run_id_from_ledger(self, tmp_path, capsys):
        from repro.obs import ledger as run_ledger

        bundle = self.archive_bundle(tmp_path / "wit")
        ledger = str(tmp_path / "runs.jsonl")
        recorder = run_ledger.begin_run(path=ledger, command="test")
        run_ledger.annotate(witnesses=[bundle])
        run_ledger.finish_run(0)
        assert main(
            ["explain", recorder.run_id, "--ledger", ledger]
        ) == 0
        out = capsys.readouterr().out
        assert f"bundle: {bundle}" in out

    def test_explain_unknown_target_exits_two(self, tmp_path, capsys):
        assert main(
            ["explain", "nope", "--ledger", str(tmp_path / "absent.jsonl")]
        ) == 2
        assert "explain:" in capsys.readouterr().out

    def test_witness_path_lands_in_ledger_and_runs_show(self, tmp_path, capsys):
        """A run that captures a witness records its path; runs show
        surfaces it (the acceptance-criteria loop, minus the slow suite)."""
        from repro.algorithms.consensus_from_n_consensus import (
            partition_set_consensus_spec,
        )
        from repro.obs import ledger as run_ledger
        from repro.obs.witness import capture_witnesses
        from repro.runtime.explorer import find_execution

        inputs = ["a", "b", "c", "d", "e", "f"]
        ledger = str(tmp_path / "runs.jsonl")
        recorder = run_ledger.begin_run(path=ledger, command="hunt")
        with capture_witnesses(str(tmp_path / "wit")) as store:
            find_execution(
                partition_set_consensus_spec(2, inputs),
                lambda e: len(e.distinct_outputs()) >= 3,
                max_depth=10,
            )
        run_ledger.finish_run(0)
        assert main(["runs", "show", recorder.run_id, "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert store.captured[0] in out
        assert main(["runs", "list", "--ledger", ledger]) == 0
        assert "1 witness" in capsys.readouterr().out


class TestExecsetAndDiff:
    """The ``explore`` digest stream and the ``repro diff`` gate."""

    def explore(self, tmp_path, out, *extra):
        return main(
            ["explore", "--task", "consensus", "--n", "2", "--k", "1",
             "--execset-out", str(out), "--no-ledger", *extra]
        )

    def test_explore_writes_digest_stream_by_default(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_EXECSET_DIR", str(tmp_path / "sets"))
        assert main(
            ["explore", "--task", "consensus", "--n", "2", "--k", "1",
             "--no-ledger"]
        ) == 0
        out = capsys.readouterr().out
        assert "execution-set digest" in out
        files = list((tmp_path / "sets").glob("*.jsonl"))
        assert len(files) == 1

    def test_no_execset_disables(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXECSET_DIR", str(tmp_path / "sets"))
        assert main(
            ["explore", "--task", "consensus", "--n", "2", "--k", "1",
             "--no-ledger", "--no-execset"]
        ) == 0
        out = capsys.readouterr().out
        assert "execution-set digest" not in out
        # the summary line says where the walk's time went
        assert " on-path + 0 replayed steps (" in out
        assert "generator resumes, " in out and " memo hits)" in out
        assert not (tmp_path / "sets").exists()

    def test_diff_identical_runs_exit_0_byte_stable(self, tmp_path, capsys):
        assert self.explore(tmp_path, tmp_path / "a.jsonl") == 0
        assert self.explore(tmp_path, tmp_path / "b.jsonl") == 0
        assert (tmp_path / "a.jsonl").read_bytes() == \
            (tmp_path / "b.jsonl").read_bytes()
        capsys.readouterr()
        assert main(
            ["diff", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
        ) == 0
        first = capsys.readouterr().out
        assert "SAME SET" in first
        assert main(
            ["diff", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
        ) == 0
        assert capsys.readouterr().out == first

    def test_diff_truncated_run_exit_1_with_explanation(
        self, tmp_path, capsys
    ):
        assert self.explore(tmp_path, tmp_path / "full.jsonl") == 0
        assert self.explore(
            tmp_path, tmp_path / "short.jsonl", "--max-depth", "1"
        ) == 0
        capsys.readouterr()
        code = main(
            ["diff", str(tmp_path / "full.jsonl"),
             str(tmp_path / "short.jsonl")]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "only in A" in out
        assert "first divergence" in out

    def test_diff_json(self, tmp_path, capsys):
        assert self.explore(tmp_path, tmp_path / "a.jsonl") == 0
        assert self.explore(tmp_path, tmp_path / "b.jsonl") == 0
        capsys.readouterr()
        assert main(
            ["diff", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"),
             "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exit_code"] == 0
        assert report["digest"]["equal"] is True
        # A set comparison: no audit or wall-clock section on either side.
        assert "audit" not in report and "timing" not in report
        assert "duration_seconds" not in report["a"]
        assert "duration_seconds" not in report["b"]

    def test_ledger_target_diff_reports_sets_and_verdicts_only(
        self, tmp_path, capsys
    ):
        ledger_path = tmp_path / "runs.jsonl"
        for name in ("a", "b"):
            assert main(
                ["explore", "--task", "set-consensus", "--n", "1", "--k", "1",
                 "--ledger", str(ledger_path),
                 "--execset-out", str(tmp_path / f"{name}.jsonl")]
            ) == 0
        first, second = [
            json.loads(line)["run_id"]
            for line in ledger_path.read_text().splitlines()
        ]
        capsys.readouterr()
        assert main(
            ["diff", first, second, "--ledger", str(ledger_path)]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "verdict: proved vs proved (=)" in lines
        for dropped in ("duration:", "throughput:", "audit:"):
            assert not any(line.startswith(dropped) for line in lines)

    def test_diff_unknown_target_exits_3(self, tmp_path, capsys):
        assert main(
            ["diff", "no-such-thing", "also-missing",
             "--ledger", str(tmp_path / "absent.jsonl")]
        ) == 3
        assert "diff:" in capsys.readouterr().err

    def test_resumed_run_merges_digest(self, tmp_path, capsys):
        """Interrupt, resume, and the merged digest equals the digest
        of one uninterrupted run — set equality across sessions."""
        ledger_path = tmp_path / "runs.jsonl"
        checkpoint = tmp_path / "ck.jsonl"
        common = ["explore", "--task", "set-consensus", "--n", "1",
                  "--k", "1", "--ledger", str(ledger_path)]
        assert main(
            common + ["--execset-out", str(tmp_path / "full.jsonl")]
        ) == 0
        assert main(
            common + ["--execset-out", str(tmp_path / "part1.jsonl"),
                      "--checkpoint", str(checkpoint),
                      "--checkpoint-every", "1", "--max-steps", "2"]
        ) == 3
        assert main(
            common + ["--execset-out", str(tmp_path / "part2.jsonl"),
                      "--resume", str(checkpoint)]
        ) == 0
        capsys.readouterr()
        records = [
            json.loads(line)
            for line in ledger_path.read_text().splitlines()
        ]
        full, _, resumed = records
        assert resumed["execset"]["digest"] == full["execset"]["digest"]
        # And the ledger-resolved chain diffs clean against the file.
        assert main(
            ["diff", resumed["run_id"], str(tmp_path / "full.jsonl"),
             "--ledger", str(ledger_path)]
        ) == 0
        assert "SAME SET" in capsys.readouterr().out

    def test_budget_cut_recovery_walk_resumes_to_the_fresh_set(
        self, tmp_path, capsys
    ):
        """A crash-recovery walk cut by its step budget and resumed from
        its checkpoint covers exactly the executions of one uninterrupted
        walk: ``repro diff`` of the fresh set against the resumed run id
        reports the same set."""
        ledger_path = tmp_path / "runs.jsonl"
        checkpoint = tmp_path / "ck.jsonl"
        common = ["explore", "--n", "1", "--k", "2", "--max-crashes", "1",
                  "--max-recoveries", "1", "--ledger", str(ledger_path)]
        assert main(
            common + ["--execset-out", str(tmp_path / "fresh.jsonl")]
        ) == 0
        assert main(
            common + ["--execset-out", str(tmp_path / "cut.jsonl"),
                      "--checkpoint", str(checkpoint), "--max-steps", "150"]
        ) == 3
        assert main(
            common + ["--execset-out", str(tmp_path / "resumed.jsonl"),
                      "--resume", str(checkpoint)]
        ) == 0
        capsys.readouterr()
        fresh, cut, resumed = [
            json.loads(line)
            for line in ledger_path.read_text().splitlines()
        ]
        assert cut["verdict"] == "inconclusive"
        assert 0 < cut["executions"] < fresh["executions"]
        assert resumed["parent_run_id"] == cut["run_id"]
        assert fresh["recoveries"] > 0
        assert main(
            ["diff", str(tmp_path / "fresh.jsonl"), resumed["run_id"],
             "--ledger", str(ledger_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "(SAME SET)" in out
        configs = fresh["execset"]["records"]
        executions = fresh["execset"]["executions"]
        assert configs < executions == fresh["executions"]
        assert f"configurations: {configs} vs {configs} " \
            f"(executions: {executions} vs {executions})" in out


class TestLifecycle:
    def test_explore_sigint_records_interrupted_run(self, tmp_path, capsys):
        """A SIGINT mid-exploration exits 3 and records the run as
        interrupted and inconclusive."""
        from repro.obs import events

        fuse = {"steps": 0}

        def tripwire(name, fields):
            if name == "step":
                fuse["steps"] += 1
                if fuse["steps"] == 3:
                    signal.raise_signal(signal.SIGINT)

        events.subscribe(tripwire)
        try:
            ledger_path = tmp_path / "runs.jsonl"
            code = main(
                ["explore", "--task", "consensus", "--n", "2", "--k", "1",
                 "--checkpoint", str(tmp_path / "ck.jsonl"),
                 "--ledger", str(ledger_path)]
            )
        finally:
            events.unsubscribe(tripwire)
        assert code == 3
        assert "interrupted" in capsys.readouterr().out
        record = json.loads(ledger_path.read_text().splitlines()[0])
        assert record["interrupted"] == "SIGINT"
        assert record["verdict"] == "inconclusive"

    def test_explore_sigint_resume_covers_the_fresh_set(self, tmp_path, capsys):
        """SIGINT stops the walk between nodes, so the checkpoint keeps
        the subtree of the node in flight: the interrupted and the resumed
        streams together hold exactly the fresh walk's configurations,
        and count its executions."""
        from repro.faults.checkpoint import read_checkpoint
        from repro.obs import events
        from repro.obs.execset import read_execset

        common = ["explore", "--task", "set-consensus", "--n", "2",
                  "--k", "1", "--max-crashes", "1", "--no-ledger"]
        checkpoint = str(tmp_path / "ck.jsonl")
        fuse = {"steps": 0}

        def tripwire(name, fields):
            if name == "step":
                fuse["steps"] += 1
                if fuse["steps"] == 100:
                    signal.raise_signal(signal.SIGINT)

        events.subscribe(tripwire)
        try:
            code = main(common + ["--checkpoint", checkpoint,
                                  "--execset-out", str(tmp_path / "a.jsonl")])
        finally:
            events.unsubscribe(tripwire)
        assert code == 3
        interrupted = read_checkpoint(checkpoint)
        assert main(common + ["--resume", checkpoint, "--execset-out",
                              str(tmp_path / "b.jsonl")]) == 0
        assert main(common + ["--execset-out", str(tmp_path / "full.jsonl")]) == 0
        capsys.readouterr()

        first, second, fresh = (
            read_execset(str(tmp_path / name))
            for name in ("a.jsonl", "b.jsonl", "full.jsonl")
        )
        assert interrupted.executions == first.executions > 0
        assert first.executions + second.executions == fresh.executions
        assert set(first.records) | set(second.records) == set(fresh.records)
        assert interrupted.execset["configs"] == sorted(first.records)
        assert second.merged_digest == fresh.own_digest

    @pytest.mark.parametrize("script", [
        # Only ``repro serve`` needs the HTTP stack (and its ``email``
        # chain); only the graph builders need networkx; only ``stats``
        # needs the metrics code, and only the daemon's pages the report
        # code.
        "import sys, repro.__main__\n"
        "heavy = ('http.server', 'networkx', 'repro.obs.metrics',\n"
        "         'repro.obs.report')\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "assert not loaded, loaded",
        # The simulator alone: no analysis, task or object zoo, and none of
        # the observability modules only a CLI flag or a report reads.
        "import sys, repro.runtime.system\n"
        "heavy = ('networkx', 'repro.obs.audit', 'repro.obs.metrics',\n"
        "         'repro.obs.report', 'repro.tasks', 'repro.analysis',\n"
        "         'repro.core', 'repro.objects')\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "assert not loaded, loaded",
        # The graph builders import networkx when they run.
        "from repro import family_hierarchy_graph\n"
        "graph = family_hierarchy_graph(2, 3)\n"
        "assert (graph.number_of_nodes(), graph.number_of_edges()) == (5, 6)\n"
        "assert graph.has_edge('O(2,1)', 'O(2,2)')",
        # Every lazily exported name resolves and star-imports.
        "import repro\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "missing = [n for n in repro.__all__ if namespace.get(n) is None]\n"
        "assert not missing, missing\n"
        "assert set(repro.__all__) <= set(dir(repro))",
        # Spans report through the event bus alone; the metrics registry
        # loads only where ``repro stats`` replays a trace.
        "import sys, repro.obs.spans\n"
        "assert 'repro.obs.metrics' not in sys.modules",
        # The HTML page shell of the daemon's pages loads no metrics
        # code.
        "import sys, repro.obs.report\n"
        "assert 'repro.obs.metrics' not in sys.modules",
        # ``repro explain`` (and ``repro diff``'s lane exhibit) render
        # text only; the lane page and its page shell are the daemon's.
        "import sys, repro.obs.explain\n"
        "loaded = [m for m in ('repro.obs.report', 'html')\n"
        "          if m in sys.modules]\n"
        "assert not loaded, loaded",
    ], ids=["cli", "runtime", "hierarchy-graph", "star-import", "spans",
            "report", "explain"])
    def test_cold_import_loads_only_what_runs(self, script):
        """A fresh interpreter pays only for the modules it uses: heavy
        dependencies load where they are called, and the ``repro``
        umbrella exports its names lazily."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr


class TestParser:
    @pytest.mark.parametrize("command", ["explore", "audit"])
    def test_task_choices_match_spec_builders(self, command):
        """Every ``--task`` choice builds the same system the witness
        registry does, so checkpoints and execsets resolve back to it."""
        from repro.__main__ import _task_spec, build_parser
        from repro.obs.witness import SPEC_BUILDERS

        parser = build_parser()
        sub = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        task = next(
            action for action in sub.choices[command]._actions
            if action.dest == "task"
        )
        assert task.choices
        for name in task.choices:
            spec, inputs = _task_spec(name, 2, 1)
            assert spec.n_processes == SPEC_BUILDERS[name](n=2, k=1).n_processes
            assert inputs == [f"v{i}" for i in range(spec.n_processes)]

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

"""Tests for the run ledger and the ``repro runs`` subcommands."""

import json

import pytest

from repro.__main__ import main
from repro.obs import ledger


@pytest.fixture(autouse=True)
def _no_dangling_recorder():
    """Tests must not leak a process-wide recorder into each other."""
    ledger.abandon_run()
    yield
    ledger.abandon_run()


class TestAppendRead:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ledger.append_record(path, {"format": ledger.FORMAT, "run_id": "a"})
        ledger.append_record(path, {"format": ledger.FORMAT, "run_id": "b"})
        records, skipped = ledger.read_ledger(path)
        assert [r["run_id"] for r in records] == ["a", "b"]
        assert skipped == 0

    def test_missing_file_reads_empty(self, tmp_path):
        records, skipped = ledger.read_ledger(str(tmp_path / "absent.jsonl"))
        assert records == [] and skipped == 0

    def test_corrupt_and_foreign_lines_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(
            json.dumps({"format": ledger.FORMAT, "run_id": "ok"})
            + "\n{broken\n"
            + json.dumps({"format": "other/1"})
            + "\n"
        )
        records, skipped = ledger.read_ledger(str(path))
        assert [r["run_id"] for r in records] == ["ok"]
        assert skipped == 2

    def test_append_creates_parent_directory(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "runs.jsonl")
        ledger.append_record(path, {"format": ledger.FORMAT, "run_id": "x"})
        assert ledger.read_ledger(path)[0][0]["run_id"] == "x"


class TestFindRecord:
    RECORDS = [
        {"format": ledger.FORMAT, "run_id": "20260101T000000-aaaaaa"},
        {"format": ledger.FORMAT, "run_id": "20260101T000001-bbbbbb"},
    ]

    def test_exact_and_prefix(self):
        assert ledger.find_record(self.RECORDS, "20260101T000001-bbbbbb") \
            is self.RECORDS[1]
        assert ledger.find_record(self.RECORDS, "20260101T000001") \
            is self.RECORDS[1]

    def test_unknown_and_ambiguous_raise(self):
        with pytest.raises(ValueError, match="no run"):
            ledger.find_record(self.RECORDS, "zzz")
        with pytest.raises(ValueError, match="ambiguous"):
            ledger.find_record(self.RECORDS, "20260101T00000")


class TestRunRecorder:
    def test_finish_stamps_verdict_and_duration(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        recorder = ledger.begin_run(path, "check", ["check", "1", "1"])
        ledger.annotate(executions=7, nothing=None)
        record = ledger.finish_run(0)
        assert record["verdict"] == "proved"
        assert record["executions"] == 7
        assert "nothing" not in record
        assert record["duration_seconds"] >= 0
        stored, _ = ledger.read_ledger(path)
        assert stored[0]["run_id"] == recorder.run_id
        # finish_run cleared the process-wide recorder.
        assert ledger.current_run() is None
        assert ledger.finish_run(0) is None

    def test_annotate_without_active_run_is_noop(self):
        ledger.annotate(executions=1)  # must not raise


#: The run flags: observability and budget options of the commands that
#: walk (check, explore, audit, report).
RUN_FLAGS = [
    ["--trace-out", "t.jsonl"], ["--progress"], ["--ledger", "l.jsonl"],
    ["--no-ledger"], ["--witness-dir"], ["--deadline", "5"],
    ["--max-steps", "100"],
]


class TestCliRecording:
    def test_every_run_command_appends(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        assert main(["check", "1", "1", "--ledger", str(path)]) == 0
        records, _ = ledger.read_ledger(str(path))
        assert len(records) == 1
        assert records[0]["command"] == "check"
        assert records[0]["verdict"] == "proved"

    def test_no_ledger_disables(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        assert main(
            ["check", "1", "1", "--ledger", str(path), "--no-ledger"]
        ) == 0
        assert not path.exists()

    def test_crashing_command_records_error(self, tmp_path, capsys, monkeypatch):
        import repro.__main__ as cli

        def broken(*_args):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "FamilyMember", broken)
        path = tmp_path / "runs.jsonl"
        with pytest.raises(ValueError):
            main(["check", "2", "1", "--ledger", str(path)])
        records, _ = ledger.read_ledger(str(path))
        assert records[0]["verdict"] == "error"
        assert records[0]["exit_code"] == 2

    @pytest.mark.parametrize(
        "argv", [["check", "2", "0"], ["describe", "2", "0"], ["curves", "0"]],
        ids=lambda argv: argv[0],
    )
    def test_bad_positional_value_is_a_usage_error(self, argv, tmp_path, capsys):
        """O(n, k) needs n, k >= 1: a bad value is an argparse usage
        error (exit 2) that leaves no ledger record, not a traceback."""
        path = tmp_path / "runs.jsonl"
        flags = ["--ledger", str(path)] if argv[0] == "check" else []
        with pytest.raises(SystemExit) as excinfo:
            main(argv + flags)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be >= 1, got 0" in err
        assert not path.exists()

    def test_bad_positional_value_exits_2_from_the_shell(self, tmp_path):
        import subprocess
        import sys

        path = tmp_path / "runs.jsonl"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "check", "2", "0",
             "--ledger", str(path)],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "must be >= 1, got 0" in done.stderr
        assert not path.exists()

    @pytest.mark.parametrize("flag", RUN_FLAGS, ids=lambda f: f[0])
    @pytest.mark.parametrize(
        "command", [["describe", "2", "1"], ["curves", "2"], ["common2"]],
        ids=lambda c: c[0],
    )
    def test_computed_commands_take_no_run_flags(
        self, command, flag, tmp_path, monkeypatch, capsys
    ):
        """describe, curves and common2 compute the paper's arithmetic:
        no walk to observe or budget, so every run flag is a usage error
        and no run, flagged or not, leaves a ledger record."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        with pytest.raises(SystemExit) as excinfo:
            main(command + flag)
        assert excinfo.value.code == 2
        assert main(command) == 0
        assert not (tmp_path / ".repro" / "runs.jsonl").exists()

    def test_runs_family_not_recorded(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        assert main(["runs", "list", "--ledger", str(path)]) == 0
        assert not path.exists()


class TestRunsSubcommands:
    def run_explore(self, tmp_path, *extra):
        path = tmp_path / "runs.jsonl"
        code = main(
            ["explore", "--task", "consensus", "--n", "2", "--k", "1",
             "--ledger", str(path), *extra]
        )
        return path, code

    def test_list_show(self, tmp_path, capsys, monkeypatch):
        from repro.obs.execset import ExecutionSetRecorder

        walked = []
        observe = ExecutionSetRecorder.observe

        def counting(recorder, execution, system):
            walked.append(execution)
            observe(recorder, execution, system)

        monkeypatch.setattr(ExecutionSetRecorder, "observe", counting)
        path, code = self.run_explore(tmp_path)
        assert code == 0
        assert main(["runs", "list", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "explore" in out and "proved" in out
        records, _ = ledger.read_ledger(str(path))
        # The memo counters ride next to the step count, and agree with
        # the explore summary line.
        record = records[0]
        assert record["steps"] > 0 and record["generator_resumes"] > 0
        assert (
            f"{record['systems_forked']} systems forked, "
            f"{record['object_applies']} object applies, "
            f"{record['generator_resumes']} generator resumes, "
            f"{record['memo_hits']} memo hits"
        ) in out
        # No configuration of this walk repeats, so the state cache
        # credits nothing and the walk forks once per execution (a node's
        # last child takes its system over; the root is forked once).
        assert record["cache_hits"] == 0
        assert record["systems_forked"] == len(walked) == record["executions"] > 0
        assert record["object_applies"] > 0
        run_id = records[0]["run_id"]
        assert main(["runs", "show", run_id, "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"run_id: {run_id}" in out
        assert "describe: exhaustive(task=consensus" in out

    def test_show_unknown_id_exits_2(self, tmp_path, capsys):
        path, _ = self.run_explore(tmp_path)
        assert main(["runs", "show", "nope", "--ledger", str(path)]) == 2
        assert "no run" in capsys.readouterr().err

    def test_resume_chain_diffs_as_one_run(self, tmp_path, capsys):
        """Acceptance: an interrupted run resumed via --resume yields two
        ledger records linked by parent run id, and ``repro diff``
        compares the chain as one run against a fresh exploration."""
        checkpoint = tmp_path / "ck.jsonl"
        path, code = self.run_explore(
            tmp_path, "--checkpoint", str(checkpoint), "--max-steps", "3",
            "--execset-out", str(tmp_path / "part1.jsonl"),
        )
        assert code == 3  # budget-interrupted
        path, code = self.run_explore(
            tmp_path, "--resume", str(checkpoint),
            "--execset-out", str(tmp_path / "part2.jsonl"),
        )
        assert code == 0
        path, code = self.run_explore(
            tmp_path, "--execset-out", str(tmp_path / "fresh.jsonl")
        )
        assert code == 0
        capsys.readouterr()
        records, _ = ledger.read_ledger(str(path))
        assert len(records) == 3
        first, second, fresh = records
        assert second["parent_run_id"] == first["run_id"]
        assert first["verdict"] == "inconclusive"
        assert second["verdict"] == "proved"
        assert first["budget_trips"] == {"steps": 1}
        assert "budget_trips" not in second
        code = main(
            ["diff", second["run_id"], fresh["run_id"], "--ledger", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"A: {first['run_id']} .. {second['run_id']}" in out
        assert "(SAME SET)" in out
        assert "verdict: proved vs proved (=)" in out

    def test_diff_exit_0_when_verdicts_agree(self, tmp_path, capsys):
        path, _ = self.run_explore(tmp_path)
        self.run_explore(tmp_path)
        records, _ = ledger.read_ledger(str(path))
        capsys.readouterr()
        code = main(
            ["diff", records[0]["run_id"], records[1]["run_id"],
             "--ledger", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "(SAME SET)" in out
        assert "verdict: proved vs proved (=)" in out

    def test_diff_tolerates_records_predating_recoveries(
        self, tmp_path, capsys
    ):
        """Ledger records written before the crash-recovery model have no
        ``recoveries`` key; diffing one against a new record must not
        crash (mirrors the ``audit`` key handling)."""
        path = str(tmp_path / "runs.jsonl")
        execset = {"digest": "ab" * 32, "records": 24}
        old = {"format": ledger.FORMAT, "run_id": "old", "verdict": "proved",
               "executions": 24, "faults_injected": 3, "execset": execset}
        ledger.append_record(path, old)
        ledger.append_record(path, dict(old, run_id="new", recoveries=32))
        code = main(["diff", "old", "new", "--ledger", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: proved vs proved (=)" in out

    def test_show_keeps_the_fields_diff_omits(self, tmp_path, capsys):
        """``repro diff`` compares outcomes; the raw per-record inputs and
        counters (argv, budget, steps, recoveries) stay readable through
        ``runs show``."""
        path, code = self.run_explore(tmp_path, "--max-steps", "3")
        assert code == 3
        run_id = ledger.read_ledger(str(path))[0][0]["run_id"]
        capsys.readouterr()
        assert main(["runs", "show", run_id, "--ledger", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(
            line.startswith("argv: [") and '"--max-steps", "3"' in line
            for line in lines
        )
        assert "budget: Budget(max_steps=3)" in lines
        assert "steps: 3" in lines
        assert "recoveries: 0" in lines

    @pytest.mark.parametrize("traced", [False, True], ids=["bare", "traced"])
    @pytest.mark.parametrize(
        "budget, kind",
        [(("--max-steps", "3"), "steps"), (("--deadline", "0"), "deadline")],
        ids=["steps", "deadline"],
    )
    def test_budget_trips_recorded_with_or_without_trace(
        self, tmp_path, capsys, traced, budget, kind
    ):
        """A tripped budget lands in the ledger whether or not the run
        writes a trace: the count comes from the budget, not from a
        metrics registry."""
        trace = ["--trace-out", str(tmp_path / "t.jsonl")] if traced else []
        path, code = self.run_explore(tmp_path, *budget, *trace)
        assert code == 3
        (record,), _ = ledger.read_ledger(str(path))
        assert record["budget_trips"] == {kind: 1}
        path, code = self.run_explore(tmp_path, "--max-steps", "100000", *trace)
        assert code == 0
        records, _ = ledger.read_ledger(str(path))
        assert "budget_trips" not in records[-1]


class TestResumeChainGuards:
    """A corrupt (or hand-edited) ledger with cyclic ``parent_run_id``
    links must be reported, never walked forever."""

    @staticmethod
    def record(run_id, parent=None):
        out = {"format": ledger.FORMAT, "run_id": run_id}
        if parent is not None:
            out["parent_run_id"] = parent
        return out

    def test_linear_chain_resolves_from_any_link(self):
        records = [
            self.record("aa"),
            self.record("bb", parent="aa"),
            self.record("cc", parent="bb"),
        ]
        for link in ("aa", "bb", "cc"):
            chain = ledger.resume_chain(records, link)
            assert [r["run_id"] for r in chain] == ["aa", "bb", "cc"]

    def test_self_referential_record_raises(self):
        records = [self.record("aa", parent="aa")]
        with pytest.raises(ValueError, match="cyclic parent_run_id"):
            ledger.resume_chain(records, "aa")

    def test_two_cycle_raises_and_names_the_cycle(self):
        records = [
            self.record("aa", parent="bb"),
            self.record("bb", parent="aa"),
        ]
        with pytest.raises(ValueError, match="aa -> bb|bb -> aa"):
            ledger.resume_chain(records, "aa")

    def test_missing_parent_terminates_quietly(self):
        """A SIGKILLed worker's run id exists only in the checkpoint
        header; the survivor's dangling parent link is not an error."""
        records = [self.record("bb", parent="gone")]
        chain = ledger.resume_chain(records, "bb")
        assert [r["run_id"] for r in chain] == ["bb"]


class TestDiffExecset:
    """``repro diff`` on two ledger runs compares their recorded
    execution-set digests."""

    def diff_table(self, tmp_path, capsys, execset_a, execset_b):
        path = str(tmp_path / "runs.jsonl")
        for run_id, execset in (("run-a", execset_a), ("run-b", execset_b)):
            record = {"format": ledger.FORMAT, "run_id": run_id,
                      "verdict": "proved"}
            if execset is not None:
                record["execset"] = execset
            ledger.append_record(path, record)
        code = main(["diff", "run-a", "run-b", "--ledger", path])
        return code, capsys.readouterr().out

    def test_digest_line_same_and_differs(self, tmp_path, capsys):
        digest = {"digest": "ab" * 32, "records": 7}
        code, out = self.diff_table(tmp_path, capsys, digest, digest)
        assert code == 0
        assert "set digest: abababababababab vs abababababababab (SAME SET)" in out
        code, out = self.diff_table(
            tmp_path / "d", capsys, digest, {"digest": "cd" * 32, "records": 7}
        )
        assert code == 1  # verdicts still match; only the set differs
        assert "(DIFFERS)" in out
        assert "verdict: proved vs proved (=)" in out

    def test_predigest_records_compare_as_na(self, tmp_path, capsys):
        """Records written before the execset format have no digest:
        the comparison degrades to n/a instead of crashing."""
        code, out = self.diff_table(
            tmp_path, capsys, None, {"digest": "ab" * 32, "records": 7}
        )
        assert code == 1
        assert "set digest: n/a vs abababababababab (n/a)" in out
        code, out = self.diff_table(tmp_path / "old", capsys, None, None)
        assert code == 1
        assert "set digest: n/a vs n/a (n/a)" in out


class TestVerdictFilterAndJson:
    RECORDS = [
        {"format": ledger.FORMAT, "run_id": "a", "verdict": "proved"},
        {"format": ledger.FORMAT, "run_id": "b", "verdict": "refuted"},
        {"format": ledger.FORMAT, "run_id": "c", "verdict": "proved"},
        {"format": ledger.FORMAT, "run_id": "d", "verdict": "error"},
    ]

    def test_filter_is_case_insensitive(self):
        proved = ledger.filter_by_verdict(self.RECORDS, "PROVED")
        assert [r["run_id"] for r in proved] == ["a", "c"]
        assert ledger.filter_by_verdict(self.RECORDS, "refuted") \
            == [self.RECORDS[1]]

    def test_filter_unknown_verdict_raises(self):
        with pytest.raises(ValueError, match="unknown verdict"):
            ledger.filter_by_verdict(self.RECORDS, "maybe")

    def test_render_json_roundtrips_and_limits(self):
        parsed = json.loads(ledger.render_json(self.RECORDS, limit=2))
        assert [r["run_id"] for r in parsed] == ["c", "d"]
        assert json.loads(ledger.render_json([])) == []

    def seed_ledger(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        for record in self.RECORDS:
            ledger.append_record(path, record)
        return path

    def test_cli_list_json(self, tmp_path, capsys):
        path = self.seed_ledger(tmp_path)
        assert main(["runs", "list", "--json", "--ledger", path]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert [r["run_id"] for r in parsed] == ["a", "b", "c", "d"]
        assert all(r["format"] == ledger.FORMAT for r in parsed)

    def test_cli_list_json_with_verdict_filter(self, tmp_path, capsys):
        path = self.seed_ledger(tmp_path)
        assert main(
            ["runs", "list", "--json", "--verdict", "PROVED", "--ledger", path]
        ) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert [r["run_id"] for r in parsed] == ["a", "c"]

    def test_cli_list_verdict_filters_table(self, tmp_path, capsys):
        path = self.seed_ledger(tmp_path)
        assert main(
            ["runs", "list", "--verdict", "error", "--ledger", path]
        ) == 0
        out = capsys.readouterr().out
        assert "d" in out and "proved" not in out

    def test_cli_list_unknown_verdict_exits_2(self, tmp_path, capsys):
        path = self.seed_ledger(tmp_path)
        assert main(
            ["runs", "list", "--verdict", "bogus", "--ledger", path]
        ) == 2
        assert "unknown verdict" in capsys.readouterr().err

    def test_cli_list_empty_json_is_valid(self, tmp_path, capsys):
        path = str(tmp_path / "absent.jsonl")
        assert main(["runs", "list", "--json", "--ledger", path]) == 0
        assert json.loads(capsys.readouterr().out) == []


class TestConcurrentAppends:
    def test_two_processes_never_tear_a_line(self, tmp_path):
        """The O_APPEND contract: two processes hammering append_record
        concurrently produce only whole lines — read_ledger sees every
        record and zero corrupt lines."""
        import os
        import subprocess
        import sys

        import repro

        package_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        path = str(tmp_path / "runs.jsonl")
        count = 200
        script = (
            "import sys\n"
            "from repro.obs import ledger\n"
            "path, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])\n"
            "for i in range(count):\n"
            "    ledger.append_record(path, {\n"
            "        'format': ledger.FORMAT,\n"
            "        'run_id': f'{tag}-{i}',\n"
            # Padding makes a torn write overwhelmingly likely to split a
            # line if O_APPEND atomicity were ever lost.
            "        'pad': 'x' * 512,\n"
            "    })\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, path, tag, str(count)],
                env=env,
            )
            for tag in ("alpha", "beta")
        ]
        for proc in procs:
            assert proc.wait(timeout=60) == 0
        records, skipped = ledger.read_ledger(path)
        assert skipped == 0
        assert len(records) == 2 * count
        ids = {r["run_id"] for r in records}
        assert ids == {f"{tag}-{i}" for tag in ("alpha", "beta")
                       for i in range(count)}

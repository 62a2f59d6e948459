"""Integration: graceful degradation of the suite and CLI under faults
and budgets — error isolation, INCONCLUSIVE downgrades, exit codes, and
checkpoint/resume through ``repro explore``."""

import pytest

from repro.__main__ import main
from repro.experiments import suite
from repro.experiments.rows import ExperimentRow
from repro.faults.checkpoint import read_checkpoint
from repro.faults.verdict import Verdict


def ok_runner():
    return [
        ExperimentRow(
            experiment="EX",
            setting="trivial",
            claimed="runs",
            measured="ran",
            ok=True,
        )
    ]


def refuted_runner():
    (row,) = ok_runner()
    row.ok = False
    return [row]


def crashing_runner():
    raise RuntimeError("boom")


class TestSuiteIsolation:
    def test_one_crashing_experiment_becomes_error_row(self, monkeypatch):
        monkeypatch.setattr(
            suite, "EXPERIMENTS", {"EX": ok_runner, "EY": crashing_runner}
        )
        results = suite.run_all()
        assert results["EX"][0].effective_verdict is Verdict.PROVED
        error = results["EY"][0]
        assert error.effective_verdict is Verdict.ERROR
        assert "RuntimeError: boom" in error.measured

    @pytest.mark.parametrize("runner, code, tally", [
        (ok_runner, 0, "2 proved, 0 refuted, 0 errors"),
        (refuted_runner, 1, "1 proved, 1 refuted, 0 errors"),
        (crashing_runner, 2, "1 proved, 0 refuted, 1 errors"),
    ], ids=["proved", "refuted", "error"])
    def test_report_exit_code_is_the_worst_verdict(
        self, monkeypatch, capsys, runner, code, tally
    ):
        monkeypatch.setattr(
            suite, "EXPERIMENTS", {"EX": ok_runner, "EY": runner}
        )
        assert main(["report", "--no-ledger"]) == code
        out = capsys.readouterr().out
        assert out.startswith(
            "# Experiment report (generated by repro.experiments.report)\n"
        )
        assert f"_2 rows: {tally}, 0 inconclusive; " in out
        assert "_(budget:" not in out


class TestBudgetDegradation:
    def test_expired_deadline_skips_everything_inconclusive(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            suite, "EXPERIMENTS", {"EX": ok_runner, "EY": ok_runner}
        )
        assert main(["report", "--deadline", "0", "--no-ledger"]) == 3
        out = capsys.readouterr().out
        assert "2 inconclusive" in out
        assert "budget exhausted before start" in out
        assert out.endswith(" _(budget: Budget(deadline=0s))_\n")

    def test_skipped_rows_are_inconclusive_not_failed(self, monkeypatch):
        monkeypatch.setattr(suite, "EXPERIMENTS", {"EX": ok_runner})
        from repro.faults.budget import Budget, active_budget

        with active_budget(Budget(deadline=0.0)):
            results = suite.run_all()
        row = results["EX"][0]
        assert row.effective_verdict is Verdict.INCONCLUSIVE
        assert row.ok  # inconclusive is not a refutation


class TestExploreCheckpointResume:
    def test_interrupt_and_resume_cover_full_space(self, tmp_path, capsys):
        path = str(tmp_path / "explore.jsonl")
        code = main(
            [
                "explore", "--task", "set-consensus", "--n", "2", "--k", "1",
                "--checkpoint", path, "--max-steps", "400",
            ]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "INCONCLUSIVE" in out
        interrupted = read_checkpoint(path)
        assert not interrupted.done
        assert 0 < interrupted.executions < 720

        code = main(["explore", "--resume", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "resuming set-consensus O(2,1)" in out
        assert "720 executions" in out
        assert read_checkpoint(path).done

    def test_resuming_complete_checkpoint_is_a_noop(self, tmp_path, capsys):
        path = str(tmp_path / "explore.jsonl")
        assert (
            main(
                [
                    "explore", "--task", "set-consensus", "--n", "2",
                    "--k", "1", "--checkpoint", path,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["explore", "--resume", path]) == 0
        assert "nothing to resume" in capsys.readouterr().out

    def test_resume_from_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["explore", "--resume", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot resume" in capsys.readouterr().err

"""Checkpoint/resume tests: round-trip, corruption, and the resume
count-equality guarantee (resumed run visits exactly the remaining
executions)."""

import json

import pytest

from repro.errors import ExplorationLimitError, ProtocolError
from repro.faults.budget import Budget
from repro.faults.checkpoint import (
    FORMAT,
    LEGACY_FORMATS,
    Checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.objects.register import RegisterSpec
from repro.runtime.explorer import Explorer
from repro.runtime.ops import invoke
from repro.runtime.system import SystemSpec


def steps_spec(n_processes: int = 3, n_steps: int = 2):
    def program(pid):
        def run():
            for _ in range(n_steps):
                yield invoke("r", "write", pid)
            return pid

        return run

    return SystemSpec({"r": RegisterSpec()}, [program(p) for p in range(n_processes)])


class TestRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        frontier = [[(0, 0)], [(0, 0), (1, -1)], []]
        write_checkpoint(
            path,
            n_processes=3,
            frontier=frontier,
            executions=17,
            max_depth=60,
            max_crashes=1,
            stats={"nodes": 99},
            spec={"task": "consensus", "n": 3},
        )
        checkpoint = read_checkpoint(path)
        assert checkpoint.n_processes == 3
        assert checkpoint.frontier == frontier
        assert checkpoint.executions == 17
        assert checkpoint.max_depth == 60
        assert checkpoint.max_crashes == 1
        assert checkpoint.stats == {"nodes": 99}
        assert checkpoint.spec == {"task": "consensus", "n": 3}
        assert not checkpoint.done

    def test_max_recoveries_round_trips(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        write_checkpoint(
            path,
            n_processes=2,
            frontier=[[(0, 0), (0, -1), (0, -2)]],
            executions=3,
            max_crashes=1,
            max_recoveries=1,
        )
        checkpoint = read_checkpoint(path)
        assert checkpoint.max_crashes == 1
        assert checkpoint.max_recoveries == 1
        assert checkpoint.frontier == [[(0, 0), (0, -1), (0, -2)]]

    def test_legacy_v1_checkpoint_still_reads(self, tmp_path):
        """Files written before the recovery model (repro-checkpoint/1)
        load with max_recoveries=0 — their frontier was enumerated with
        no recovery branches, so resuming recovery-free is exact."""
        path = tmp_path / "cp.jsonl"
        header = {
            "format": "repro-checkpoint/1",
            "n_processes": 2,
            "frontier": 1,
            "executions": 4,
            "max_crashes": 1,
        }
        path.write_text(
            json.dumps(header) + "\n"
            + json.dumps({"prefix": [[0, 0], [1, -1]]}) + "\n"
        )
        checkpoint = read_checkpoint(str(path))
        assert checkpoint.max_crashes == 1
        assert checkpoint.max_recoveries == 0
        assert checkpoint.frontier == [[(0, 0), (1, -1)]]

    def test_execset_digest_round_trips(self, tmp_path):
        """The header carries the execution-set digest-so-far, so a
        resumed run's merged digest is well-defined."""
        path = str(tmp_path / "cp.jsonl")
        state = {"digest": "ab" * 32, "records": 17}
        write_checkpoint(
            path, n_processes=2, frontier=[[(0, 0)]], execset=state
        )
        assert read_checkpoint(path).execset == state

    def test_header_without_execset_reads_none(self, tmp_path):
        """Checkpoints from before the execset format (and any header
        with a malformed entry) resume with no base digest — the diff
        side then reports the merged claim as partial, not an error."""
        path = str(tmp_path / "cp.jsonl")
        write_checkpoint(path, n_processes=2, frontier=[[(0, 0)]])
        assert read_checkpoint(path).execset is None
        header = json.loads((tmp_path / "cp.jsonl").read_text().splitlines()[0])
        header["execset"] = "not-a-dict"
        lines = (tmp_path / "cp.jsonl").read_text().splitlines()
        (tmp_path / "cp.jsonl").write_text(
            "\n".join([json.dumps(header)] + lines[1:]) + "\n"
        )
        assert read_checkpoint(path).execset is None

    def test_empty_frontier_is_done(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        write_checkpoint(path, n_processes=2, frontier=[], executions=6)
        checkpoint = read_checkpoint(path)
        assert checkpoint.done
        assert checkpoint.executions == 6

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        write_checkpoint(path, n_processes=2, frontier=[[(0, 0)]])
        write_checkpoint(path, n_processes=2, frontier=[])
        assert read_checkpoint(path).done
        # No temp debris left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["cp.jsonl"]

    def test_resume_removes_only_its_own_stale_temp_files(self, tmp_path):
        """A writer killed before its rename leaves its temp file; the
        next run writing that checkpoint removes it, and no other
        checkpoint's (``ck.jsonl-x``'s temp file starts like one of
        ``ck.jsonl``'s)."""
        path = str(tmp_path / "ck.jsonl")
        interrupted = Explorer(
            steps_spec(), budget=Budget(max_steps=200), checkpoint_path=path
        )
        list(interrupted.executions())
        assert interrupted.interrupted
        stale = ".checkpoint-ck.jsonl-k1ll3d_0.tmp"
        others = [".checkpoint-other.jsonl-k1ll3d_0.tmp",
                  ".checkpoint-ck.jsonl-x-k1ll3d_0.tmp"]
        for name in [stale, *others]:
            (tmp_path / name).write_text('{"format": "repro-checkpoint/3"')
        resumed = Explorer.from_checkpoint(
            steps_spec(), read_checkpoint(path), checkpoint_path=path
        )
        list(resumed.executions())
        assert read_checkpoint(path).done
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["ck.jsonl", *others]
        )


class TestCorruption:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.write_text("")
        with pytest.raises(ProtocolError, match="empty"):
            read_checkpoint(str(path))

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ProtocolError, match="corrupt header"):
            read_checkpoint(str(path))

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.write_text(json.dumps({"format": "something/9"}) + "\n")
        with pytest.raises(ProtocolError, match="unsupported format"):
            read_checkpoint(str(path))

    def test_corrupt_frontier_line(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        header = {"format": FORMAT, "n_processes": 2, "frontier": 1}
        path.write_text(json.dumps(header) + "\n{broken\n")
        with pytest.raises(ProtocolError, match="frontier line 2"):
            read_checkpoint(str(path))

    def test_truncated_frontier_detected(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        header = {"format": FORMAT, "n_processes": 2, "frontier": 2}
        path.write_text(
            json.dumps(header) + "\n" + json.dumps({"prefix": [[0, 0]]}) + "\n"
        )
        with pytest.raises(ProtocolError, match="incomplete"):
            read_checkpoint(str(path))


class TestResume:
    def full_enumeration(self):
        return {
            tuple(e.full_decisions) for e in Explorer(steps_spec()).executions()
        }

    def test_resume_visits_exactly_the_remaining_executions(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        everything = self.full_enumeration()

        interrupted = Explorer(
            steps_spec(), budget=Budget(max_steps=200), checkpoint_path=path
        )
        visited = {tuple(e.full_decisions) for e in interrupted.executions()}
        assert interrupted.interrupted
        assert 0 < len(visited) < len(everything)

        checkpoint = read_checkpoint(path)
        assert not checkpoint.done
        assert checkpoint.executions == len(visited)

        resumed = Explorer.from_checkpoint(steps_spec(), checkpoint)
        remaining = {tuple(e.full_decisions) for e in resumed.executions()}
        assert not resumed.interrupted
        assert visited | remaining == everything
        assert not (visited & remaining)
        assert resumed.total_executions == len(everything)

    def test_resume_with_crashes(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        spec = steps_spec(n_processes=2, n_steps=2)
        everything = {
            tuple(e.full_decisions)
            for e in Explorer(spec, max_crashes=1).executions()
        }
        interrupted = Explorer(
            spec,
            max_crashes=1,
            budget=Budget(max_steps=16),
            checkpoint_path=path,
        )
        visited = {tuple(e.full_decisions) for e in interrupted.executions()}
        assert interrupted.interrupted
        checkpoint = read_checkpoint(path)
        # max_crashes is restored from the checkpoint when not overridden.
        resumed = Explorer.from_checkpoint(spec, checkpoint)
        assert resumed.max_crashes == 1
        remaining = {tuple(e.full_decisions) for e in resumed.executions()}
        assert visited | remaining == everything
        assert not (visited & remaining)

    def test_resume_with_recoveries(self, tmp_path):
        """The count-equality guarantee holds with recovery branches: an
        interrupted crash-recovery walk plus its resume visit exactly the
        executions of one uninterrupted walk."""
        path = str(tmp_path / "cp.jsonl")
        spec = steps_spec(n_processes=2, n_steps=2)
        everything = {
            tuple(e.full_decisions)
            for e in Explorer(
                spec, max_crashes=1, max_recoveries=1
            ).executions()
        }
        assert any(
            choice == -2 for full in everything for _pid, choice in full
        )
        interrupted = Explorer(
            spec,
            max_crashes=1,
            max_recoveries=1,
            budget=Budget(max_steps=150),
            checkpoint_path=path,
        )
        visited = {tuple(e.full_decisions) for e in interrupted.executions()}
        assert interrupted.interrupted
        checkpoint = read_checkpoint(path)
        resumed = Explorer.from_checkpoint(spec, checkpoint)
        # max_recoveries restored from the checkpoint when not overridden.
        assert resumed.max_recoveries == 1
        remaining = {tuple(e.full_decisions) for e in resumed.executions()}
        assert visited | remaining == everything
        assert not (visited & remaining)
        assert resumed.total_executions == len(everything)

    def test_from_checkpoint_validates_process_count(self):
        checkpoint = Checkpoint(n_processes=5, frontier=[[]])
        with pytest.raises(ExplorationLimitError, match="processes"):
            Explorer.from_checkpoint(steps_spec(), checkpoint)

    def test_resuming_finished_checkpoint_yields_nothing(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        explorer = Explorer(steps_spec(), checkpoint_path=path)
        total = len(list(explorer.executions()))
        checkpoint = read_checkpoint(path)
        assert checkpoint.done
        resumed = Explorer.from_checkpoint(steps_spec(), checkpoint)
        assert list(resumed.executions()) == []
        assert resumed.total_executions == total


def relabel(path, format_marker):
    """Rewrite a checkpoint's format marker, as an older writer left it."""
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["format"] = format_marker
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")


class TestLegacyFaultOrder:
    """Version 3 checkpoints come from the walk that takes each run of
    same-step faults in merge order.  An unfinished older file with
    recovery branches holds prefixes of the pid-order walk, so resuming
    it is refused (exit 2 on the CLI); older crash-only files resume
    exactly, since crash-only walks order faults alike in every version.
    """

    EXPLORE = ["explore", "--task", "set-consensus", "--n", "1", "--k", "2",
               "--no-ledger"]

    def interrupt(self, tmp_path, crashes, recoveries):
        """An interrupted CLI walk: (checkpoint path, its execset file)."""
        from repro.__main__ import main
        from repro.obs.execset import read_execset

        checkpoint = tmp_path / "ck.jsonl"
        stream = str(tmp_path / "a.jsonl")
        code = main(self.EXPLORE + [
            "--max-crashes", str(crashes), "--max-recoveries", str(recoveries),
            "--max-steps", "100", "--checkpoint", str(checkpoint),
            "--execset-out", stream,
        ])
        assert code == 3
        assert not read_checkpoint(str(checkpoint)).done
        return checkpoint, read_execset(stream)

    def test_format_is_version_3(self):
        assert FORMAT == "repro-checkpoint/3"
        assert LEGACY_FORMATS == ("repro-checkpoint/1", "repro-checkpoint/2")

    @pytest.mark.parametrize("legacy", ["repro-checkpoint/1", "repro-checkpoint/2"])
    def test_legacy_recovery_checkpoint_is_refused(self, tmp_path, capsys, legacy):
        from repro.__main__ import main

        checkpoint, _ids = self.interrupt(tmp_path, crashes=2, recoveries=1)
        relabel(checkpoint, legacy)
        parsed = read_checkpoint(str(checkpoint))
        assert parsed.format == legacy and parsed.max_recoveries == 1
        assert "from scratch" in parsed.resume_refusal()
        with pytest.raises(ExplorationLimitError, match="from scratch"):
            Explorer.from_checkpoint(steps_spec(n_processes=3), parsed)
        capsys.readouterr()
        assert main(["explore", "--resume", str(checkpoint), "--no-ledger"]) == 2
        captured = capsys.readouterr()
        assert "from scratch" in captured.err
        assert "resuming" not in captured.out

    def test_current_recovery_checkpoint_resumes(self, tmp_path):
        spec = steps_spec(n_processes=2)
        path = str(tmp_path / "cp.jsonl")
        write_checkpoint(
            path, n_processes=2, frontier=[[(0, -1)]], max_crashes=1,
            max_recoveries=1,
        )
        checkpoint = read_checkpoint(path)
        assert checkpoint.format == FORMAT
        assert checkpoint.resume_refusal() is None
        assert list(Explorer.from_checkpoint(spec, checkpoint).executions())

    def test_finished_legacy_recovery_checkpoint_is_not_refused(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        write_checkpoint(
            str(path), n_processes=2, frontier=[], max_crashes=1,
            max_recoveries=1,
        )
        relabel(path, "repro-checkpoint/2")
        assert read_checkpoint(str(path)).resume_refusal() is None

    def test_legacy_crash_only_checkpoint_resumes_to_the_fresh_set(self, tmp_path):
        from repro.__main__ import main
        from repro.obs.execset import read_execset

        checkpoint, before = self.interrupt(tmp_path, crashes=2, recoveries=0)
        relabel(checkpoint, "repro-checkpoint/2")
        assert read_checkpoint(str(checkpoint)).resume_refusal() is None
        assert main(["explore", "--resume", str(checkpoint), "--no-ledger",
                     "--execset-out", str(tmp_path / "b.jsonl")]) == 0
        assert main(self.EXPLORE + [
            "--max-crashes", "2", "--execset-out", str(tmp_path / "fresh.jsonl"),
        ]) == 0
        after = read_execset(str(tmp_path / "b.jsonl"))
        fresh = read_execset(str(tmp_path / "fresh.jsonl"))
        assert before.records and after.records
        assert before.executions + after.executions == fresh.executions
        assert set(before.records) | set(after.records) == set(fresh.records)
        assert after.merged_digest == fresh.own_digest

"""Unit tests for SystemSpec / System step semantics."""

import pytest

from repro.errors import ProtocolError, SchedulingError
from repro.objects.register import RegisterSpec
from repro.objects.set_consensus import SetConsensusSpec
from repro.objects.consensus_object import NConsensusSpec
from repro.runtime.ops import invoke
from repro.runtime.process import ProcessStatus
from repro.runtime.scheduler import RoundRobinScheduler
from repro.runtime.system import SystemSpec


def reader_writer_spec():
    def writer():
        yield invoke("r", "write", "w")
        return "wrote"

    def reader():
        value = yield invoke("r", "read")
        return value

    return SystemSpec({"r": RegisterSpec(initial="init")}, [writer, reader])


class TestConstruction:
    def test_processes_are_primed_at_build(self):
        system = reader_writer_spec().build()
        assert system.enabled_pids() == [0, 1]
        assert system.pending_operation(0) == invoke("r", "write", "w")

    def test_initial_object_state(self):
        system = reader_writer_spec().build()
        assert system.object_states["r"] == "init"

    def test_empty_program_list_rejected(self):
        with pytest.raises(ProtocolError):
            SystemSpec({"r": RegisterSpec()}, [])

    def test_fresh_builds_are_independent(self):
        spec = reader_writer_spec()
        first = spec.build()
        first.step(0)
        second = spec.build()
        assert second.object_states["r"] == "init"


class TestStepping:
    def test_step_applies_operation(self):
        system = reader_writer_spec().build()
        record = system.step(0)
        assert system.object_states["r"] == "w"
        assert record.pid == 0
        assert record.response is None

    def test_step_order_controls_read_result(self):
        system = reader_writer_spec().build()
        system.step(1)  # reader first
        system.step(0)
        execution = system.finalize()
        assert execution.outputs[1] == "init"

        system2 = reader_writer_spec().build()
        system2.step(0)
        system2.step(1)
        assert system2.finalize().outputs[1] == "w"

    def test_unknown_object_is_protocol_error(self):
        def lost():
            yield invoke("nope", "read")

        spec = SystemSpec({"r": RegisterSpec()}, [lost])
        system = spec.build()
        with pytest.raises(ProtocolError, match="unknown object"):
            system.step(0)

    def test_stepping_finished_process_rejected(self):
        system = reader_writer_spec().build()
        system.step(0)
        with pytest.raises(SchedulingError):
            system.step(0)

    def test_quiescence_detection(self):
        system = reader_writer_spec().build()
        assert not system.is_quiescent()
        system.step(0)
        system.step(1)
        assert system.is_quiescent()


class TestNondeterminism:
    def _spec(self):
        def proposer(value):
            def program():
                decision = yield invoke("sc", "propose", value)
                return decision

            return program

        return SystemSpec(
            {"sc": SetConsensusSpec(3, 2)},
            [proposer("a"), proposer("b")],
        )

    def test_outcomes_enumerated_without_commit(self):
        system = self._spec().build()
        system.step(0)
        outcomes = system.outcomes_for(1)
        assert len(outcomes) >= 2  # adopt 'a', or add 'b' and return either
        assert system.object_states["sc"][1] == 1  # still one proposal

    def test_choice_selects_outcome(self):
        spec = self._spec()
        first = spec.build()
        first.step(0)
        responses = set()
        for choice in range(len(first.outcomes_for(1))):
            system = spec.build()
            system.step(0)
            record = system.step(1, choice)
            responses.add(record.response)
        assert responses == {"a", "b"}

    def test_out_of_range_choice_rejected(self):
        system = self._spec().build()
        with pytest.raises(SchedulingError):
            system.step(0, choice=5)


class TestMisuseHang:
    def test_hanging_object_blocks_process(self):
        def greedy():
            yield invoke("c", "propose", 1)
            yield invoke("c", "propose", 2)
            return "done"

        spec = SystemSpec(
            {"c": NConsensusSpec(1, hang_on_misuse=True)}, [greedy]
        )
        system = spec.build()
        system.step(0)
        record = system.step(0)  # second propose exceeds the budget
        assert record.n_outcomes == 0
        assert system.processes[0].status is ProcessStatus.BLOCKED
        assert system.is_quiescent()

    def test_raising_object_propagates(self):
        def greedy():
            yield invoke("c", "propose", 1)
            yield invoke("c", "propose", 2)

        spec = SystemSpec({"c": NConsensusSpec(1)}, [greedy])
        system = spec.build()
        system.step(0)
        from repro.errors import IllegalOperationError

        with pytest.raises(IllegalOperationError):
            system.step(0)


class TestRunAndReplay:
    def test_run_to_quiescence(self):
        execution = reader_writer_spec().run(RoundRobinScheduler())
        assert execution.all_done()
        assert execution.outputs == {0: "wrote", 1: "w"}

    def test_replay_reproduces_decisions(self):
        spec = reader_writer_spec()
        execution = spec.run(RoundRobinScheduler())
        replayed = spec.replay(execution.decisions).finalize()
        assert replayed.outputs == execution.outputs
        assert replayed.schedule == execution.schedule

    def test_max_steps_stops_early(self):
        def spinner():
            while True:
                yield invoke("r", "read")

        spec = SystemSpec({"r": RegisterSpec()}, [spinner])
        execution = spec.run(RoundRobinScheduler(), max_steps=10)
        assert len(execution) == 10
        assert execution.statuses[0] is ProcessStatus.POISED

    def test_crash_removes_process(self):
        spec = reader_writer_spec()
        system = spec.build()
        system.crash(0)
        system.step(1)
        execution = system.finalize()
        assert execution.statuses[0] is ProcessStatus.CRASHED
        assert execution.outputs[1] == "init"


class TestIdentity:
    """``identity()`` is computed once per configuration and kept until
    the next transition; the recovery count comes from the process
    record, not from a scan of the trace."""

    def test_one_tuple_per_configuration(self):
        system = reader_writer_spec().build()
        first = system.identity()
        assert system.identity() is first
        assert system.fork().identity() is first
        system.step(0)
        assert system.identity() is not first
        assert system.identity() != first

    def test_every_transition_resets_it(self):
        system = reader_writer_spec().build()
        seen = [system.identity()]
        system.crash(0)
        seen.append(system.identity())
        system.recover(0)
        seen.append(system.identity())
        system.step(1)
        seen.append(system.identity())
        assert len(set(seen)) == len(seen)

    def test_no_op_faults_keep_it(self):
        system = reader_writer_spec().build()
        before = system.identity()
        system.recover(0)  # not crashed: a no-op
        assert system.identity() is before
        system.crash(0)
        crashed = system.identity()
        system.crash(0)  # already dead: a no-op
        assert system.identity() is crashed

    def test_recovery_counts_match_the_trace(self):
        system = reader_writer_spec().build()
        for _ in range(2):
            system.crash(0)
            system.recover(0)
        fork = system.fork()
        fork.crash(0)
        fork.recover(0)
        for candidate, expected in ((system, 2), (fork, 3)):
            assert len(candidate.trace.recoveries) == expected
            assert candidate.processes[0].recoveries == expected
            # one object text, then (status, node, recoveries) per pid
            assert candidate.identity()[3] == expected
            assert candidate.configuration()["processes"][0]["recoveries"] == expected
        assert "recoveries" not in system.configuration()["processes"][1]

"""The system: processes plus shared objects, advanced step by step.

:class:`SystemSpec` is an immutable description (object specs + program
factories) from which any number of fresh :class:`System` instances can be
built — the unit of replay for schedulers, property tests, and trace
files.  A live :class:`System` copies itself with :meth:`System.fork`,
which is how the exhaustive explorer branches.

Shared objects follow the state-machine protocol defined in
:mod:`repro.objects.base` (duck-typed here to keep the runtime free of
upward dependencies): ``initial_state()``, ``apply(state, method, args) ->
[(response, new_state), ...]`` and the ``hang_on_misuse`` flag.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import (
    IllegalOperationError,
    ProtocolError,
    SchedulingError,
)
from repro.faults.budget import get_active_budget
from repro.obs import events as _obs_events
from repro.runtime.execution import (
    CRASH_CHOICE,
    RECOVER_CHOICE,
    Execution,
    StepRecord,
)
from repro.runtime.ops import Operation
from repro.runtime.process import Process, ProcessStatus, ProgramFactory, ProgramMemo


class SystemSpec:
    """Immutable recipe for a system.

    Parameters
    ----------
    objects:
        Mapping from object name to object spec (see
        :class:`repro.objects.base.ObjectSpec`).  Specs are stateless, so
        they are shared between builds; only *states* are per-system.
    programs:
        One zero-argument generator factory per process; process ``i`` runs
        ``programs[i]()``.
    """

    def __init__(self, objects: Mapping[str, Any], programs: Sequence[ProgramFactory]):
        self.objects: Dict[str, Any] = dict(objects)
        self.programs: List[ProgramFactory] = list(programs)
        if not self.programs:
            raise ProtocolError("a system needs at least one process")
        #: Object name -> the position of its text in :meth:`System.identity`.
        self.object_slots: Dict[str, int] = {
            name: slot for slot, name in enumerate(self.objects)
        }

    @property
    def n_processes(self) -> int:
        return len(self.programs)

    def build(self) -> "System":
        """Create a fresh system in its initial configuration."""
        return System(self)

    def run(self, scheduler, max_steps: int = 100_000) -> Execution:
        """Build a fresh system and run it to quiescence under ``scheduler``."""
        return self.build().run(scheduler, max_steps=max_steps)

    def replay(
        self, decisions: Iterable[Tuple[int, int]], replaying: bool = False
    ) -> "System":
        """Build a fresh system and :meth:`~System.apply` the given
        ``(pid, choice)`` decision sequence (e.g. from
        :attr:`Execution.decisions` or :attr:`Execution.full_decisions`),
        fault decisions included, so faulty runs replay exactly.
        ``replaying`` marks the steps as re-executions in step events."""
        system = self.build()
        system.replaying = replaying
        for pid, choice in decisions:
            system.apply(pid, choice)
        system.replaying = False
        return system


class System:
    """A live configuration: object states plus process control states."""

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        #: Attribution flag for observability: set while a decision prefix
        #: that was already explored is re-executed (a resumed checkpoint,
        #: an audit probe), so ``step`` events can separate replay overhead
        #: from first-time (on-path) work.  Purely observational — never
        #: changes semantics.
        self.replaying = False
        self.object_states: Dict[str, Any] = {
            name: obj.initial_state() for name, obj in spec.objects.items()
        }
        #: Program transitions, shared with every :meth:`fork` of this system.
        self.memo = ProgramMemo(dict(enumerate(spec.programs)))
        self.processes: List[Process] = [
            Process(pid, factory, self.memo)
            for pid, factory in enumerate(spec.programs)
        ]
        self.trace = Execution()
        #: Pids of the POISED processes, ascending (kept by :meth:`_note_status`).
        self._enabled: List[int] = []
        #: Bitmask of the pids whose process record this system alone
        #: holds (all of them until the first fork; see :meth:`fork`).
        self._owned = -1
        #: :meth:`identity` of the current configuration, once computed;
        #: every transition resets it.
        self._identity = None
        for process in self.processes:
            self._prime_and_drain(process)

    def fork(self) -> "System":
        """An independent copy of this configuration.

        Object states are immutable values and step records are frozen, so
        shallow copies of the state dict and the trace lists suffice.  The
        process list is copied but its records are shared, copy-on-write:
        :meth:`step`, :meth:`crash` and :meth:`recover` copy a record the
        first time either side writes it.  The memo is shared and, from
        the first fork on, records transitions: the copy resumes no
        generator and applies no object operation that either side has
        already taken.  Memoized outcomes and the states in them are
        shared by every fork and must not be mutated.
        """
        memo = self.memo
        if not memo.recording:
            self._record()
        memo.forks += 1
        clone = System.__new__(System)
        clone.spec = self.spec
        clone.replaying = False
        clone.object_states = self.object_states.copy()
        clone.memo = memo
        clone.processes = self.processes.copy()
        clone._owned = self._owned = 0
        clone._enabled = self._enabled.copy()
        clone._identity = self._identity
        trace = self.trace
        clone.trace = Execution(
            trace.steps.copy(),
            trace.outputs.copy(),
            trace.statuses.copy(),
            trace.annotations.copy(),
            trace.crashes.copy(),
            trace.recoveries.copy(),
        )
        return clone

    # ------------------------------------------------------------------
    # Configuration inspection
    # ------------------------------------------------------------------
    def enabled_pids(self) -> List[int]:
        """Pids of processes that can take a step now, ascending (a fresh
        list: callers may keep or mutate it)."""
        return self._enabled.copy()

    def pending_operation(self, pid: int) -> Optional[Operation]:
        """The operation process ``pid`` is poised to perform."""
        return self.processes[pid].pending_operation

    def outcomes_for(self, pid: int) -> List[Tuple[Any, Any]]:
        """Enumerate ``(response, new_state)`` outcomes of ``pid``'s pending
        operation without committing to any of them.

        Deterministic objects yield a single outcome; nondeterministic ones
        yield one per adversary choice.  Misuse in ``hang_on_misuse`` mode is
        reported as the empty list (the step blocks the process).

        Once the system has been forked, outcomes come from the memo's
        transition table (see :class:`~repro.runtime.process.ProgramMemo`):
        each distinct (state, operation) runs the object's ``apply`` once
        per walk, and the returned list and its states are shared by every
        fork, so callers must not mutate them.
        """
        process = self.processes[pid]
        if process.status is not ProcessStatus.POISED:
            raise SchedulingError(f"process {pid} has no pending operation")
        operation = process.node.operation
        try:
            obj = self.spec.objects[operation.target]
        except KeyError:
            raise ProtocolError(
                f"operation {operation} targets unknown object "
                f"{operation.target!r}; known: {sorted(self.spec.objects)}"
            ) from None
        state = self.object_states[operation.target]
        memo = self.memo
        if memo.recording:
            key = (id(state), id(operation))
            entry = memo.transitions.get(key)
            if entry is not None:
                return entry[2]
        try:
            outcomes = obj.apply(state, operation.method, operation.args)
        except IllegalOperationError:
            if not getattr(obj, "hang_on_misuse", False):
                raise
            outcomes = []
        else:
            if not outcomes:
                raise ProtocolError(
                    f"object {operation.target!r} returned no outcomes for "
                    f"{operation} — specs must return at least one outcome"
                )
        if memo.recording:
            memo.applies += 1
            canonical = memo.canonical
            outcomes = [(response, canonical(new)) for response, new in outcomes]
            memo.transitions[key] = (state, operation, outcomes)
        return outcomes

    def is_quiescent(self) -> bool:
        """True when no process can take another step."""
        return not self._enabled

    def configuration(self) -> Dict[str, Any]:
        """Structured snapshot naming the current configuration.

        The substrate for content-addressed state identity (audit today,
        state caching later — see :mod:`repro.obs.fingerprint`).  Its
        hashable in-memory name, built without serializing, is
        :meth:`identity`: equal identities imply equal snapshots.  Shared state is the object
        states (``repr``-encoded, sorted by name).
        Process control state is extensional: a generator cannot be
        serialized, but it is a deterministic function of its program
        (fixed per pid) and the responses delivered to it, so
        ``(status, delivered responses, pending operation)`` names it
        exactly.  Crashes are covered through the ``"crashed"`` status,
        so configurations on crash branches never alias crash-free ones.
        A recovered generator only ever saw the responses delivered
        *since its last recovery*, so earlier incarnations' responses are
        excluded — the recovery count disambiguates the rest (two
        configurations differing only in dead history name the same
        reachable future, which is exactly what state identity is for).
        """
        last_recovery: Dict[int, int] = {}
        for at, pid in self.trace.recoveries:
            last_recovery[pid] = at
        responses: Dict[int, List[str]] = {p.pid: [] for p in self.processes}
        for step in self.trace.steps:
            if step.index >= last_recovery.get(step.pid, 0):
                responses[step.pid].append(repr(step.response))
        return {
            "objects": {
                name: repr(state)
                for name, state in sorted(self.object_states.items())
            },
            "processes": [
                {
                    "status": process.status.value,
                    "responses": responses[process.pid],
                    "pending": (
                        str(process.pending_operation)
                        if process.pending_operation is not None
                        else ""
                    ),
                    # Key present only on recovered processes, so
                    # crash-stop configurations keep their exact shape.
                    **(
                        {"recoveries": process.recoveries}
                        if process.recoveries
                        else {}
                    ),
                }
                for process in self.processes
            ],
        }

    def identity(self) -> Tuple[Any, ...]:
        """Hashable name of the current configuration, in O(objects +
        processes), computed once per configuration: the system keeps it
        until its next transition, so every caller at one configuration
        shares one tuple.  Contract: equal identities imply equal
        :meth:`configuration` snapshots.

        The tuple is flat, one text per object and then three fields per
        process, so a cache holding many identities pays for one tuple
        each.  Object states enter as the ``repr`` text the snapshot
        records, so none need be hashable; a canonical state (see
        :meth:`fork`) brings the text the memo stored for it, so forks in
        equal object states share one text object and no ``repr`` runs.
        A process enters as ``status, program node, recovery count``
        (the count kept on its record): its trie node is
        reached by exactly the responses delivered since its last
        recovery, and fixes the pending operation.  Every element hashes
        in C (statuses hash by identity, see
        :class:`~repro.runtime.process.ProcessStatus`), so a cache lookup
        makes no Python call per element, and :meth:`successor_identity`
        builds a child's identity from this one without stepping.  Nodes
        belong to one program memo, so only a system and its forks share
        identities; equal configurations may still differ in identity
        (nodes made before the memo records transitions), so a cache
        keyed on identities can miss but never aliases.
        """
        identity = self._identity
        if identity is None:
            texts = self.memo.texts
            parts = [
                texts.get(id(state)) or repr(state)
                for state in self.object_states.values()
            ]
            for process in self.processes:
                parts += (process.status, process.node, process.recoveries)
            identity = self._identity = tuple(parts)
        return identity

    def successor_identity(
        self, pid: int, choice: int, outcomes: Optional[List[Tuple[Any, Any]]] = None
    ) -> Tuple[Any, ...]:
        """The :meth:`identity` this configuration would have after
        :meth:`apply` ``(pid, choice, outcomes)``, computed without
        forking or changing it: a step's target object takes the text of
        its new state and ``pid`` takes its status, program node and
        recovery count after the memo's transition, a crash, a recovery
        or a hang-on-misuse block.  Annotations name nothing in an
        identity, so they are not drained.

        The transition is taken in the program memo, which records it,
        so applying the decision afterwards reaches the same node object
        and the identities are equal.  A memo not yet recording starts
        recording here, as on the first :meth:`fork`: an unrecorded
        transition would consume the node's generator and lead the later
        step to a different node."""
        if not self.memo.recording:
            self._record()
        identity = self.identity()
        process = self.processes[pid]
        status = process.status
        node = process.node
        recoveries = process.recoveries
        parts = list(identity)
        if choice == CRASH_CHOICE:
            if not process.is_live:
                return identity
            status = ProcessStatus.CRASHED
        elif choice == RECOVER_CHOICE:
            if status is not ProcessStatus.CRASHED:
                return identity
            node = self.memo.root(pid)
            if node.operation is None:
                status = ProcessStatus.DONE
            else:
                status = ProcessStatus.POISED
            recoveries += 1
        else:
            if status is not ProcessStatus.POISED:
                raise SchedulingError(
                    f"cannot step process {pid}: status is {status.value}"
                )
            if outcomes is None:
                outcomes = self.outcomes_for(pid)
            if not outcomes:
                status = ProcessStatus.BLOCKED
            else:
                if not 0 <= choice < len(outcomes):
                    raise SchedulingError(
                        f"choice {choice} out of range for {len(outcomes)} "
                        f"outcomes of {node.operation}"
                    )
                response, new_state = outcomes[choice]
                parts[self.spec.object_slots[node.operation.target]] = (
                    self.memo.texts.get(id(new_state)) or repr(new_state)
                )
                node = self.memo.advance(pid, node, response)
                if node.operation is None:
                    status = ProcessStatus.DONE
        at = len(self.object_states) + 3 * pid
        parts[at : at + 3] = (status, node, recoveries)
        return tuple(parts)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def apply(
        self, pid: int, choice: int, outcomes: Optional[List[Tuple[Any, Any]]] = None
    ) -> None:
        """Apply one ``(pid, choice)`` decision: a step selecting outcome
        ``choice``, or, for :data:`~repro.runtime.execution.CRASH_CHOICE`
        and :data:`~repro.runtime.execution.RECOVER_CHOICE`, a crash or an
        amnesiac recovery of ``pid``.  ``outcomes`` is passed on to
        :meth:`step`."""
        if choice == CRASH_CHOICE:
            self.crash(pid)
        elif choice == RECOVER_CHOICE:
            self.recover(pid)
        else:
            self.step(pid, choice, outcomes)

    def step(
        self,
        pid: int,
        choice: int = 0,
        outcomes: Optional[List[Tuple[Any, Any]]] = None,
    ) -> StepRecord:
        """Let ``pid`` perform its pending operation, selecting outcome
        ``choice`` if the object is nondeterministic.  ``outcomes``, when
        given, is ``outcomes_for(pid)`` already computed in this
        configuration, so the object's ``apply`` does not run again."""
        process = self.processes[pid]
        if process.status is not ProcessStatus.POISED:
            raise SchedulingError(
                f"cannot step process {pid}: status is {process.status.value}"
            )
        operation = process.node.operation
        if outcomes is None:
            outcomes = self.outcomes_for(pid)
        self._identity = None
        if not self._owned >> pid & 1:
            process = self._own(pid)
        if not outcomes:
            # Misuse under hang semantics: the step happens but never returns.
            process.block()
            record = StepRecord(
                index=len(self.trace.steps),
                pid=pid,
                operation=operation,
                response=None,
                choice=0,
                n_outcomes=0,
            )
            self.trace.steps.append(record)
            self._note_status(process)
            if _obs_events.is_enabled():
                _obs_events.emit(
                    "step",
                    pid=pid,
                    object=operation.target,
                    method=operation.method,
                    choice=0,
                    n_outcomes=0,
                    blocked=True,
                    **({"replay": True} if self.replaying else {}),
                )
            return record
        if not 0 <= choice < len(outcomes):
            raise SchedulingError(
                f"choice {choice} out of range for {len(outcomes)} outcomes "
                f"of {operation}"
            )
        response, new_state = outcomes[choice]
        self.object_states[operation.target] = new_state
        record = StepRecord(
            index=len(self.trace.steps),
            pid=pid,
            operation=operation,
            response=response,
            choice=choice,
            n_outcomes=len(outcomes),
        )
        self.trace.steps.append(record)
        process.deliver(response)
        if process.node.annotations:
            self._drain_annotations(process)
        # A process that stays POISED is already listed as such.
        if process.status is not ProcessStatus.POISED:
            self._note_status(process)
        if _obs_events.is_enabled():
            _obs_events.emit(
                "step",
                pid=pid,
                object=operation.target,
                method=operation.method,
                choice=choice,
                n_outcomes=len(outcomes),
                **({"replay": True} if self.replaying else {}),
            )
        return record

    def crash(self, pid: int) -> None:
        """Crash-stop process ``pid`` (no-op on already-dead processes,
        so schedulers may re-assert a crash without corrupting the
        trace's crash record)."""
        process = self.processes[pid]
        if not process.is_live:
            return
        self._identity = None
        if not self._owned >> pid & 1:
            process = self._own(pid)
        process.crash()
        self.trace.crashes.append((len(self.trace.steps), pid))
        self._note_status(process)
        if _obs_events.is_enabled():
            _obs_events.emit("crash", pid=pid, at_step=len(self.trace.steps))

    def recover(self, pid: int) -> None:
        """Revive crashed process ``pid`` with amnesia: its program
        restarts from scratch (re-primed to its first operation) while
        shared objects keep their state.  A no-op on processes that are
        not crashed, mirroring :meth:`crash`'s no-op tolerance so
        schedulers may re-assert a recovery without corrupting the
        trace's recovery record."""
        process = self.processes[pid]
        if process.status is not ProcessStatus.CRASHED:
            return
        self._identity = None
        if not self._owned >> pid & 1:
            process = self._own(pid)
        process.recover()
        self.trace.recoveries.append((len(self.trace.steps), pid))
        self._prime_and_drain(process)
        if _obs_events.is_enabled():
            _obs_events.emit("recover", pid=pid, at_step=len(self.trace.steps))

    def run(self, scheduler, max_steps: int = 100_000, budget=None) -> Execution:
        """Drive the system with ``scheduler`` until quiescence or budget.

        Returns the execution trace; final statuses and outputs are filled
        in regardless of how the run ended.  ``budget`` (default: the
        process-wide active :class:`~repro.faults.budget.Budget`, if any)
        is charged for the executed steps and consulted every 64 steps —
        an exhausted budget ends the run early with live processes still
        in the trace, which downstream verdicts report as INCONCLUSIVE
        rather than as a protocol failure.
        """
        if budget is None:
            budget = get_active_budget()
        steps = 0
        charged = 0
        interrupted = False
        # Loop invariants: the process list and the enabled list are
        # mutated in place, never replaced.
        processes = self.processes
        n_processes = len(processes)
        enabled = self._enabled
        next_pid = scheduler.next_pid
        choose = scheduler.choose
        outcomes_for = self.outcomes_for
        step = self.step
        is_enabled = _obs_events.is_enabled
        crashed = ProcessStatus.CRASHED
        poised = ProcessStatus.POISED
        while steps < max_steps:
            if budget is not None and steps - charged >= 64:
                budget.charge_steps(steps - charged)
                charged = steps
                if budget.exhausted_reason() is not None:
                    interrupted = True
                    break
            if not enabled and not any(p.status is crashed for p in processes):
                break
            # With crashed processes around the scheduler is still
            # consulted even when nothing is enabled — a crash-recovery
            # scheduler may revive someone; every bundled scheduler
            # returns None on an empty enabled set, ending the run.
            pid = next_pid(self)
            if pid is None:
                break
            # Checked after next_pid: a scheduler may crash or revive
            # processes as a side effect, shrinking or growing the set.
            if not (0 <= pid < n_processes and processes[pid].status is poised):
                raise SchedulingError(
                    f"scheduler chose disabled process {pid} "
                    f"(enabled: {enabled})"
                )
            if is_enabled():
                _obs_events.emit("decision", pid=pid, enabled=len(enabled))
            outcomes = outcomes_for(pid)
            choice = choose(self, pid, len(outcomes)) if len(outcomes) > 1 else 0
            step(pid, choice, outcomes)
            steps += 1
        if budget is not None and steps > charged:
            budget.charge_steps(steps - charged)
        if _obs_events.is_enabled():
            _obs_events.emit(
                "run_end",
                steps=steps,
                quiescent=self.is_quiescent(),
                interrupted=interrupted,
                scheduler=getattr(scheduler, "describe", lambda: type(scheduler).__name__)(),
            )
        return self.finalize()

    def finalize(
        self, decisions: Optional[List[Tuple[int, int]]] = None
    ) -> Execution:
        """Record final statuses/outputs into the trace and return it.

        ``decisions``, when given, is the full decision sequence that
        reached this configuration in the order
        :func:`~repro.runtime.execution.merge_fault_decisions` produces
        (the explorer's walk prefix); the trace keeps it as
        :attr:`~repro.runtime.execution.Execution.walk_prefix`, so
        ``full_decisions`` need not rebuild it."""
        for process in self.processes:
            self.trace.statuses[process.pid] = process.status
            if process.status is ProcessStatus.DONE:
                self.trace.outputs[process.pid] = process.output
        self.trace.walk_prefix = decisions
        return self.trace

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _record(self) -> None:
        """Start the memo recording transitions (see :meth:`fork`), with
        this system's object states made canonical."""
        memo = self.memo
        memo.record(process.node for process in self.processes)
        states = self.object_states
        for name, state in states.items():
            states[name] = memo.canonical(state)

    def _own(self, pid: int) -> Process:
        """Give this system its own copy of ``pid``'s shared record."""
        process = self.processes[pid] = self.processes[pid].fork()
        self._owned |= 1 << pid
        return process

    def _prime_and_drain(self, process: Process) -> None:
        process.prime()
        self._drain_annotations(process)
        self._note_status(process)

    def _drain_annotations(self, process: Process) -> None:
        annotations = process.node.annotations
        if annotations:
            now = len(self.trace.steps)
            self.trace.annotations.extend(
                (now, process.pid, annotation) for annotation in annotations
            )

    def _note_status(self, process: Process) -> None:
        """Record ``process``'s new status; every status change of a
        process in this system passes through here."""
        pid = process.pid
        status = process.status
        self.trace.statuses[pid] = status
        if status is ProcessStatus.DONE:
            self.trace.outputs[pid] = process.output
        enabled = self._enabled
        at = bisect_left(enabled, pid)
        listed = at < len(enabled) and enabled[at] == pid
        if status is ProcessStatus.POISED:
            if not listed:
                enabled.insert(at, pid)
        elif listed:
            del enabled[at]

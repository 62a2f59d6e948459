"""Exhaustive schedule exploration — bounded model checking.

The wait-free model quantifies over every adversary.  For small systems we
can *enumerate* that quantifier: the explorer walks the tree of all
scheduling decisions (and all nondeterministic-object outcomes), yielding
every maximal execution.  Theorem-level claims ("every execution decides at
most k values", "this implementation is linearizable in every execution")
become terminating checks.

Branching is fork-by-copy: a child configuration is its parent's
:meth:`~repro.runtime.system.System.fork` plus one applied decision, so
every tree edge executes exactly one step and a walk builds one system.
The last child of a node takes the parent's system over instead of
forking it, and forks share process records copy-on-write, so a fresh
walk forks once per execution and copies only the records it writes.
:meth:`Explorer.run`, the walk ``repro explore`` takes, adds a state
cache: a subtree it has already finished is credited, not walked again,
and looked up before the child is forked.
Python generators cannot be copied, so forking rests on a purity
assumption: programs are generators whose control state depends only on
the responses they have received — no RNG, no state shared across
processes.  A process is then a position in a per-walk
:class:`~repro.runtime.process.ProgramMemo` trie keyed by its response
sequence, a fork copies that position, and a generator resumes only the
first time a transition is taken (see DESIGN.md, "Key design decisions").

Three robustness dimensions ride on the same walk (see docs/ROBUSTNESS.md):

* **crash branching** (``max_crashes=f``): "crash pid p now" decisions are
  interleaved with scheduling decisions, so the enumeration covers every
  crash *timing*, not just crash sets dead from the start — the regime
  where recoverable-power distinctions actually live.  Recovery
  branching (``max_recoveries=r``) composes with it: "revive pid p with
  amnesia now" becomes one more adversary decision, turning the walk
  into the crash-*recovery* adversary;
* **budgets**: a :class:`~repro.faults.budget.Budget` (explicit or the
  process-wide active one) stops the walk gracefully, leaving
  :attr:`Explorer.interrupted` set instead of raising;
* **checkpointing**: the DFS frontier — the exact remaining work — is a
  small list of decision prefixes, periodically serialized to a
  :mod:`repro.faults.checkpoint` file and restorable with
  :meth:`Explorer.from_checkpoint`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ExplorationLimitError
from repro.faults.budget import Budget, get_active_budget
from repro.faults.checkpoint import Checkpoint
from repro.faults.checkpoint import write_checkpoint as _write_checkpoint_file
from repro.faults.verdict import Verdict
from repro.obs import events as _obs_events
from repro.obs.coverage import Heartbeat
from repro.runtime.execution import CRASH_CHOICE, RECOVER_CHOICE, Execution
from repro.runtime.process import ProcessStatus
from repro.runtime.system import System, SystemSpec

#: (pid, outcome choice) — CRASH_CHOICE = crash, RECOVER_CHOICE = recover
Decision = Tuple[int, int]

#: The fault sentinels, for "is this a fault decision" tests.
FAULT_CHOICES = (CRASH_CHOICE, RECOVER_CHOICE)


@dataclass
class ExplorationStatistics:
    """Counters reported by an exploration pass.

    ``steps_on_path`` counts first-time steps (one per tree edge — the
    decision appended when a node is first visited); ``steps_replayed``
    counts re-executions of already-explored prefix decisions, which only
    rebuilding a resumed checkpoint's frontier pays (a fresh walk forks
    and replays nothing).  Their sum is every simulator step the
    exploration actually executed, which matches the event-derived
    ``steps_total`` when a sink is attached.  Crash decisions are tracked
    separately (``faults_injected`` counts first-time crash branches
    taken; re-applying a crash during replay is not a step).
    ``generator_resumes`` counts program transitions computed by running
    program code and ``memo_hits`` those served by the walk's program
    memo (see :class:`~repro.runtime.process.ProgramMemo`).
    ``systems_forked`` counts :meth:`~repro.runtime.system.System.fork`
    calls on the walk's systems (a fresh unreduced walk forks once per
    execution) and ``object_applies`` the object ``apply`` calls, one per
    distinct (state, operation) the walk met; both are read from the same
    memo.

    Under :meth:`Explorer.run`'s state cache, ``cache_hits`` counts the
    nodes whose subtree was credited from the cache instead of walked.
    ``executions``, ``max_depth_seen`` and ``truncated`` still describe
    the whole tree, credited subtrees included, while the step, fault,
    fork and memo counters count only the work actually done.  A hit is
    looked up before its node is built, so it forks and steps nothing:
    every decision applied leads into a node the walk expands.
    """

    executions: int = 0
    steps_replayed: int = 0
    steps_on_path: int = 0
    max_depth_seen: int = 0
    truncated: int = 0  # executions cut off by the depth bound
    faults_injected: int = 0  # first-time crash decisions explored
    recoveries_injected: int = 0  # first-time recovery decisions explored
    generator_resumes: int = 0
    memo_hits: int = 0
    systems_forked: int = 0
    object_applies: int = 0
    cache_hits: int = 0

    @property
    def steps_total(self) -> int:
        """Every simulator step executed (replayed + on-path)."""
        return self.steps_replayed + self.steps_on_path


class _Subtree:
    """A node of a state-cached walk (see :meth:`Explorer.run`) whose
    children have not all finished: the cache entry it is building.

    An entry is one flat tuple ``(executions, height, leaf, n, leaf, n,
    ...)``: the maximal executions in the node's subtree, the subtree's
    height, and each final configuration in it, as the walk's integer
    leaf id for its identity, with the number of those executions that
    end there.  ``leaves`` becomes ``None`` when a child's subtree hit
    ``max_depth``; such a node is never stored.
    """

    __slots__ = ("key", "parent", "pending", "executions", "height", "leaves")

    def __init__(self, key: Any, parent: Optional["_Subtree"], pending: int):
        self.key = key
        self.parent = parent
        self.pending = pending
        self.executions = 0
        self.height = 0
        self.leaves: Optional[dict] = {}

    def entry(self) -> Optional[tuple]:
        if self.leaves is None:
            return None
        flat: list = [self.executions, self.height]
        for item in self.leaves.items():
            flat.extend(item)
        return tuple(flat)


def _finish(
    cache: dict, key: Any, parent: Optional[_Subtree], entry: Optional[tuple]
) -> None:
    """A node finished with ``entry`` (``None``: it hit ``max_depth``):
    cache it under ``key`` and add it to ``parent``, which finishes in
    turn when this was its last pending child."""
    while True:
        if entry is not None:
            cache[key] = entry
        if parent is None:
            return
        leaves = parent.leaves
        if entry is None:
            parent.leaves = None
        elif leaves is not None:
            parent.executions += entry[0]
            parent.height = max(parent.height, entry[1] + 1)
            for leaf, n in zip(entry[2::2], entry[3::2]):
                leaves[leaf] = leaves.get(leaf, 0) + n
        parent.pending -= 1
        if parent.pending:
            return
        key, entry, parent = parent.key, parent.entry(), parent.parent


class Explorer:
    """Depth-first enumeration of all executions of a system spec.

    Parameters
    ----------
    spec:
        The system to explore.
    max_depth:
        Hard bound on execution length.  Wait-free protocols terminate well
        below any reasonable bound; hitting the bound is recorded in
        :attr:`stats.truncated` and, with ``strict=True``, raises
        :class:`~repro.errors.ExplorationLimitError` (a truncated branch
        means the claim "in all executions" was not fully checked).
    strict:
        Whether hitting ``max_depth`` is an error (default) or merely
        counted.
    pid_filter:
        Optional callable ``(system, enabled_pids) -> pids`` restricting
        which *scheduling* branches are taken — the hook used for
        partial-order or symmetry reduction by callers that know their
        protocol's structure.  Crash branches are drawn from the raw
        enabled set, so a filter that pins the schedule still explores
        every crash timing along it.
    max_crashes:
        Crash-branching budget: at every configuration with fewer than
        this many crashes so far, a "crash pid p now" branch is explored
        for each enabled (and crashable) process, in addition to the
        scheduling branches.  Back-to-back crash decisions are canonically
        ordered by increasing pid, so each crash *set x timing* is
        enumerated once.
    crashable_pids:
        Restrict crash branches to these pids (default: all).
    max_recoveries:
        Recovery-branching budget (crash-recovery adversary): at every
        configuration with a crashed process and fewer than this many
        recoveries so far, a "recover pid p now" branch is explored in
        addition to the scheduling and crash branches.  A recovered
        process restarts its program with amnesia while shared objects
        keep their state.  Composes with ``max_crashes`` (recoveries
        only ever apply to processes a crash branch killed, so
        ``crashable_pids`` bounds them transitively).  A run of
        back-to-back fault decisions is walked in one canonical order,
        the one :func:`~repro.runtime.execution.merge_fault_decisions`
        rebuilds from the fault records (see :meth:`_branches`), so the
        enumeration is duplicate-free and every walk prefix is its
        execution's ``full_decisions``.
    budget:
        Deadline/step :class:`~repro.faults.budget.Budget`.  Defaults to
        the process-wide active budget at enumeration time.  When the
        budget runs out the walk stops, :attr:`interrupted` records the
        reason, and (if configured) a final checkpoint is written.
    checkpoint_path:
        When set, the DFS frontier is checkpointed here every
        ``checkpoint_every`` yielded executions, on budget exhaustion,
        and at the end of the walk (empty frontier = finished).
    observers:
        Parties watching the walk (e.g. :class:`~repro.obs.audit.StateAuditor`,
        :class:`~repro.obs.execset.ExecutionSetRecorder`), each with any of
        ``observe_configuration(system, depth, children)`` (every node;
        ``children`` is how many child prefixes it pushes, 0 at a leaf),
        ``observe(execution, system)`` (every maximal execution walked,
        before the checkpoint write), ``credit(identity, n)`` (``n`` more
        executions ending in the configuration named ``identity``, which
        an earlier ``observe`` saw; see :meth:`run`) and
        ``checkpoint_state()`` (entries of the checkpoint header's
        ``execset`` set so far).  Purely observational: walk order,
        executions and verdicts are identical without them.  The
        ``system`` passed to a hook is valid only
        during the call: the walk goes on to mutate it (a node's last
        child takes its system over), so a hook must copy out what it
        keeps, or :meth:`~repro.runtime.system.System.fork` it.  A walk
        started with the event bus enabled also carries a
        :class:`~repro.obs.coverage.Heartbeat`, which takes ``credit``
        and beats once more when the walk ends.
    """

    def __init__(
        self,
        spec: SystemSpec,
        max_depth: int = 200,
        strict: bool = True,
        pid_filter: Optional[Callable[[System, List[int]], List[int]]] = None,
        max_crashes: int = 0,
        crashable_pids: Optional[Iterable[int]] = None,
        max_recoveries: int = 0,
        budget: Optional[Budget] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1000,
        observers: Sequence[Any] = (),
    ):
        self.spec = spec
        self.max_depth = max_depth
        self.strict = strict
        self.pid_filter = pid_filter
        self.max_crashes = max_crashes
        self.crashable_pids = (
            None if crashable_pids is None else frozenset(crashable_pids)
        )
        self.max_recoveries = max_recoveries
        self.budget = budget
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.observers = list(observers)
        self.stats = ExplorationStatistics()
        #: Why the walk stopped early (budget, :meth:`request_stop`), or ``None``.
        self.interrupted: Optional[str] = None
        #: Executions yielded before this run started (from a checkpoint).
        self.resumed_executions = 0
        #: Run-ledger id recorded in checkpoints (set by the CLI) so a
        #: resumed run can name its parent (see :mod:`repro.obs.ledger`).
        self.run_id: Optional[str] = None
        self._initial_frontier: Optional[List[List[Decision]]] = None
        self._stack: Optional[List[List[Decision]]] = None
        self._budget: Optional[Budget] = None
        self._spec_meta: dict = {}
        self._stop_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction from a checkpoint
    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls, spec: SystemSpec, checkpoint: Checkpoint, **kwargs
    ) -> "Explorer":
        """Rebuild an explorer that visits exactly the executions the
        checkpointed run had not yet yielded.

        ``max_depth`` and ``max_crashes`` default to the checkpointed
        values; any keyword overrides them.  The spec must match the one
        the checkpoint was taken from (process count is validated here,
        deeper divergence surfaces as replay errors).  A checkpoint whose
        :meth:`~repro.faults.checkpoint.Checkpoint.resume_refusal` names a
        reason raises :class:`~repro.errors.ExplorationLimitError`.
        """
        refusal = checkpoint.resume_refusal()
        if refusal is not None:
            raise ExplorationLimitError(refusal)
        if checkpoint.n_processes and checkpoint.n_processes != spec.n_processes:
            raise ExplorationLimitError(
                f"checkpoint was taken for {checkpoint.n_processes} "
                f"processes, the spec has {spec.n_processes}"
            )
        kwargs.setdefault("max_depth", checkpoint.max_depth or 200)
        kwargs.setdefault("max_crashes", checkpoint.max_crashes)
        kwargs.setdefault("max_recoveries", checkpoint.max_recoveries)
        explorer = cls(spec, **kwargs)
        explorer._initial_frontier = [list(p) for p in checkpoint.frontier]
        explorer.resumed_executions = checkpoint.executions
        return explorer

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def executions(self) -> Iterator[Execution]:
        """Yield every maximal execution (all processes quiescent).

        Under recovery branching (``max_recoveries > 0``) a quiescent
        configuration that still holds crashed processes is yielded as a
        maximal execution *and* expanded through its recovery branches:
        reviving a dead process is the adversary's option, never its
        obligation, so the crash-stop outcome ("they stay dead") remains
        part of the enumerated space — ``max_recoveries=r`` strictly
        subsumes ``max_recoveries=0``.
        """
        yield from self._walk_frontier(self._start())

    def run(self) -> ExplorationStatistics:
        """Walk the whole tree for the observers' sake; return :attr:`stats`.

        Unlike :meth:`executions`, the walk keeps a state cache: a node
        whose key, :meth:`~repro.runtime.system.System.identity` plus the
        fault-order context :meth:`_branches` reads, names a subtree the
        walk already finished is credited instead of walked.  The key is
        computed on the edge, from the parent's configuration and the
        decision (:meth:`~repro.runtime.system.System.successor_identity`),
        so a hit forks no system and applies no decision; a miss forks,
        applies, and keeps the computed identity as the child's.  Its
        executions and height go to :attr:`stats`, and each final
        configuration under it goes to every observer's
        ``credit(identity, n)``.  Only a finished node is cached, so a
        node on the DFS path is never a hit; a subtree that hit
        ``max_depth`` is never stored, and an entry is reused only where
        it fits under the bound.  The DFS still reaches every
        configuration first along the same path, and the frontier is
        still the exact remaining work (a resumed run starts with an
        empty cache).

        With the event bus on, a hit emits one ``schedule_explored``
        event whose ``executions`` field is the credited count (a walked
        leaf's event has no such field), and the walk's
        :class:`~repro.obs.coverage.Heartbeat` takes the credit like any
        observer, so a traced walk is cached too.

        The cache applies only without a ``pid_filter`` and when every
        observer implements ``credit``.  Otherwise, e.g. under an
        auditor, which needs every node, ``run()`` walks every execution
        as :meth:`executions` does.
        """
        for _execution in self._walk_frontier(self._start(), cached=True):
            pass
        return self.stats

    def _start(self) -> List[List[Decision]]:
        """The frontier a walk starts from: the resumed checkpoint's, or
        the root."""
        if self._initial_frontier is not None:
            return self._initial_frontier
        return [[]]

    def check(self, predicate: Callable[[Execution], bool]) -> Optional[Execution]:
        """Verify ``predicate`` on every maximal execution.

        Returns ``None`` if the predicate held everywhere, otherwise the
        first counterexample execution (a replayable witness).  When the
        walk was cut short, ``None`` only means "no counterexample found
        so far" — consult :attr:`interrupted` or use :meth:`check_verdict`.

        While a :mod:`repro.obs.witness` store is active, the
        counterexample is archived as a ``repro-witness/1`` bundle
        before it is returned.
        """
        for execution in self.executions():
            if not predicate(execution):
                self._capture_witness(execution, kind="counterexample")
                return execution
        return None

    def check_verdict(
        self, predicate: Callable[[Execution], bool]
    ) -> Tuple[Verdict, Optional[Execution], str]:
        """Budget-aware :meth:`check`: ``(verdict, witness, reason)``.

        ``PROVED`` — predicate held over the complete enumeration;
        ``REFUTED`` — ``witness`` violates it (sound even under budget);
        ``INCONCLUSIVE`` — the walk was cut short first.
        """
        witness = self.check(predicate)
        if witness is not None:
            return Verdict.REFUTED, witness, "counterexample found"
        if self.interrupted is not None:
            return Verdict.INCONCLUSIVE, None, self.interrupted
        return Verdict.PROVED, None, ""

    def find(self, predicate: Callable[[Execution], bool]) -> Optional[Execution]:
        """Return the first maximal execution satisfying ``predicate``
        (an existence witness), or ``None``.

        Like :meth:`check`, archives the witness when a
        :mod:`repro.obs.witness` store is active."""
        for execution in self.executions():
            if predicate(execution):
                self._capture_witness(execution, kind="existence")
                return execution
        return None

    def _capture_witness(self, execution: Execution, kind: str) -> None:
        """Archive a deciding execution through the active witness store.

        Imported lazily: :mod:`repro.obs.witness` depends on this module's
        package, and the fast path (no store active) is a cached-module
        lookup plus one ``None`` check.
        """
        from repro.obs import witness as _obs_witness

        if _obs_witness.get_active_store() is None:
            return
        _obs_witness.capture(
            execution,
            kind=kind,
            source=f"explorer.{'check' if kind == 'counterexample' else 'find'}",
            spec=self._spec_meta or None,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def set_spec_meta(self, **meta) -> None:
        """Attach opaque spec provenance recorded in checkpoints (used by
        the CLI so ``repro explore --resume FILE`` can rebuild the spec)."""
        self._spec_meta = dict(meta)

    def write_checkpoint(self, path: Optional[str] = None) -> str:
        """Serialize the current frontier (pending decision prefixes) to
        ``path`` (default: ``checkpoint_path``), atomically.

        Callable between yields: before the walk starts the frontier is
        the root (everything pending); after it finishes, empty (done).
        """
        destination = path or self.checkpoint_path
        if destination is None:
            raise ValueError("no checkpoint path configured")
        if self._stack is not None:
            frontier = [list(p) for p in self._stack]
        elif self._initial_frontier is not None:
            frontier = [list(p) for p in self._initial_frontier]
        else:
            frontier = [[]]
        execset: dict = {}
        for observer in self.observers:
            if hasattr(observer, "checkpoint_state"):
                execset.update(observer.checkpoint_state())
        _write_checkpoint_file(
            destination,
            n_processes=self.spec.n_processes,
            frontier=frontier,
            executions=self.total_executions,
            max_depth=self.max_depth,
            max_crashes=self.max_crashes,
            max_recoveries=self.max_recoveries,
            stats=asdict(self.stats),
            spec=self._spec_meta,
            run_id=self.run_id,
            execset=execset or None,
        )
        return destination

    def request_stop(self, reason: str) -> None:
        """Stop the walk before its next node, as a spent budget does:
        :attr:`interrupted` becomes ``reason`` and, when configured, a
        final checkpoint holding the exact remaining work is written.
        Safe to call from a signal handler."""
        self._stop_reason = reason

    @property
    def total_executions(self) -> int:
        """Executions yielded across the whole exploration, including any
        checkpointed run this one resumed."""
        return self.resumed_executions + self.stats.executions

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _apply(
        self, system: System, decision: Decision, outcomes: Optional[list] = None
    ) -> None:
        """Apply a first-time (on-path) decision and count it."""
        pid, choice = decision
        system.apply(pid, choice, outcomes)
        if choice == CRASH_CHOICE:
            self.stats.faults_injected += 1
        elif choice == RECOVER_CHOICE:
            self.stats.recoveries_injected += 1
        else:
            self.stats.steps_on_path += 1
            if self._budget is not None:
                self._budget.charge_steps(1)

    def _resume(self, root: System, prefix: List[Decision]) -> System:
        """Rebuild a frontier entry that has no parent configuration on
        the stack (the walk's start, or a resumed checkpoint): fork the
        root and re-apply the already-explored ``prefix[:-1]`` as replay,
        then take its last decision on-path."""
        system = root.fork()
        if not prefix:
            return system
        replayed = 0
        system.replaying = True
        for pid, choice in prefix[:-1]:
            system.apply(pid, choice)
            if choice not in FAULT_CHOICES:
                replayed += 1
        system.replaying = False
        self.stats.steps_replayed += replayed
        if self._budget is not None:
            self._budget.charge_steps(replayed)
        self._apply(system, prefix[-1])
        return system

    def _branches(
        self, system: System, prefix: List[Decision]
    ) -> List[Tuple[Decision, Optional[list]]]:
        """The decisions leaving ``system``, each with the outcomes its
        step selects among (``None`` for fault decisions), computed once
        here and handed to the child's step."""
        enabled = system.enabled_pids()
        step_pids = enabled
        if self.pid_filter is not None:
            step_pids = self.pid_filter(system, list(enabled))
        branches: List[Tuple[Decision, Optional[list]]] = []
        for pid in step_pids:
            outcomes = system.outcomes_for(pid)
            if not outcomes:  # misuse-hang: a single blocking branch
                branches.append(((pid, 0), outcomes))
            else:
                branches.extend(((pid, c), outcomes) for c in range(len(outcomes)))
        if not (self.max_crashes or self.max_recoveries):
            return branches
        # Canonical fault order.  Fault decisions on distinct pids commute
        # when back-to-back, and a run of them between two steps leaves
        # the same (step_index, pid) crash and recovery records in any
        # order that keeps each record list's order, so one order per
        # pair of record lists is walked: the one merge_fault_decisions
        # rebuilds from them.  Within the run of fault decisions ending
        # the prefix, crash pids and recovery pids each never decrease,
        # and a recovery is followed by no crash but the re-crash of the
        # pid it revived (the merge emits a live pid's crash before any
        # recovery).  The walk prefix is thus full_decisions by
        # construction.  A crashed pid is not enabled, so crash-only
        # walks keep strictly increasing crash pids.
        last_crash, last_recovery, revived = self._fault_context(prefix)
        # Every fault decision on the prefix left one record (only enabled
        # pids are crashed, only crashed ones recovered), so the trace
        # counts them.
        if len(system.trace.crashes) < self.max_crashes:
            crashable = enabled
            if revived >= 0:
                crashable = [revived] if revived in enabled else []
            for pid in crashable:
                if pid < last_crash:
                    continue
                if self.crashable_pids is not None and pid not in self.crashable_pids:
                    continue
                branches.append(((pid, CRASH_CHOICE), None))
        if len(system.trace.recoveries) < self.max_recoveries:
            # Like crash branches, recovery branches ignore any pid_filter:
            # a pinned schedule still explores every recovery timing along
            # it.  Only crashed processes can recover, so crashable_pids
            # bounds these transitively.
            for process in system.processes:
                if process.status is not ProcessStatus.CRASHED:
                    continue
                if process.pid < last_recovery:
                    continue
                branches.append(((process.pid, RECOVER_CHOICE), None))
        return branches

    @staticmethod
    def _fault_context(prefix: List[Decision]) -> Tuple[int, int, int]:
        """``(last crash pid, last recovery pid, pid revived by the last
        decision)`` of the run of fault decisions ending ``prefix``, each
        -1 when absent: all that :meth:`_branches` reads of the prefix."""
        last_crash = last_recovery = revived = -1
        for pid, choice in reversed(prefix):
            if choice == CRASH_CHOICE:
                if last_crash < 0:
                    last_crash = pid
            elif choice == RECOVER_CHOICE:
                if last_recovery < 0:
                    last_recovery = pid
                    if last_crash < 0:
                        revived = pid
            else:
                break
        return last_crash, last_recovery, revived

    def _walk(self, prefix: Sequence[Decision]) -> Iterator[Execution]:
        yield from self._walk_frontier([list(prefix)])

    def _walk_frontier(
        self, frontier: List[List[Decision]], cached: bool = False
    ) -> Iterator[Execution]:
        """DFS over pending decision prefixes (the resumable core).

        ``frontier`` is a stack, top last; ``self._stack`` aliases the
        live stack so :meth:`write_checkpoint`, called between yields or
        between nodes, captures exactly the remaining work.
        Beside it, ``parents`` holds each entry's parent configuration,
        the outcomes its step selects among, whether the entry takes
        the parent over, and the parent's :class:`_Subtree` (state-cached
        walks only, see :meth:`run`): a child is its parent's
        :meth:`~repro.runtime.system.System.fork` plus one decision, except
        the parent's last child popped, which applies its decision to the
        parent itself (unless the parent was also yielded as an execution,
        whose trace must stay as yielded).  A state-cached walk looks the
        child up first and builds it only on a miss.
        Entries without a parent (the frontier passed in) fork the walk's
        single built root and re-apply their prefix.
        """
        stack = self._stack = [list(p) for p in frontier]
        parents: List[Optional[Tuple[System, Optional[list], bool, Optional[_Subtree]]]]
        parents = [None] * len(stack)
        root = self.spec.build() if stack else None
        stats = self.stats
        base = (
            stats.memo_hits,
            stats.generator_resumes,
            stats.systems_forked,
            stats.object_applies,
        )

        def count_memo() -> None:
            memo = root.memo
            stats.memo_hits = base[0] + memo.hits
            stats.generator_resumes = base[1] + memo.resumes
            stats.systems_forked = base[2] + memo.forks
            stats.object_applies = base[3] + memo.applies

        budget = self._budget = (
            self.budget if self.budget is not None else get_active_budget()
        )
        if budget is not None:
            budget.start()
        observers = list(self.observers)
        heartbeat = None
        if _obs_events.is_enabled():
            heartbeat = Heartbeat(self, stack)
            observers.append(heartbeat)
        on_node = [
            o.observe_configuration for o in observers if hasattr(o, "observe_configuration")
        ]
        on_execution = [o.observe for o in observers if hasattr(o, "observe")]
        cache: Optional[dict] = None
        if cached and self.pid_filter is None:
            on_credit = [getattr(o, "credit", None) for o in observers]
            if None not in on_credit:
                cache = {}
                # Entries name final configurations by per-walk leaf id,
                # so merging them up the tree hashes small ints.
                leaf_ids: dict = {}
                leaf_identities: list = []

                def leaf_id(identity: tuple) -> int:
                    found = leaf_ids.get(identity)
                    if found is None:
                        found = leaf_ids[identity] = len(leaf_identities)
                        leaf_identities.append(identity)
                    return found
        faults = bool(self.max_crashes or self.max_recoveries)
        checkpointed = stats.executions

        def checkpoint_if_due() -> None:
            nonlocal checkpointed
            if (
                self.checkpoint_path is not None
                and stats.executions - checkpointed >= self.checkpoint_every
            ):
                count_memo()
                self.write_checkpoint()
                checkpointed = stats.executions

        while stack:
            observed = _obs_events.is_enabled()
            reason = self._stop_reason
            if reason is None and budget is not None:
                reason = budget.exhausted_reason()
            if reason is not None:
                count_memo()
                if heartbeat is not None:
                    heartbeat.close()
                self._interrupt(reason, observed)
                return
            prefix = stack.pop()
            parent = parents.pop()
            depth = len(prefix)
            stats.max_depth_seen = max(stats.max_depth_seen, depth)
            if parent is None:
                system = self._resume(root, prefix)
                subtree = None
                if cache is not None:
                    identity = system.identity()
            else:
                system, outcomes, takes_over, subtree = parent
                if cache is not None:
                    # Looked up before the child exists: a hit forks and
                    # steps nothing.
                    identity = system.successor_identity(*prefix[-1], outcomes)
            if cache is not None:
                key = (identity + self._fault_context(prefix)) if faults else identity
                entry = cache.get(key)
                if entry is not None and depth + entry[1] <= self.max_depth:
                    stats.cache_hits += 1
                    stats.executions += entry[0]
                    stats.max_depth_seen = max(stats.max_depth_seen, depth + entry[1])
                    if observed:
                        count_memo()  # a credit below may beat
                        _obs_events.emit(
                            "schedule_explored", depth=depth, executions=entry[0]
                        )
                    for leaf, n in zip(entry[2::2], entry[3::2]):
                        leaf = leaf_identities[leaf]
                        for credit in on_credit:
                            credit(leaf, n)
                    _finish(cache, key, subtree, entry)
                    checkpoint_if_due()
                    continue
            if parent is not None:
                if not takes_over:
                    system = system.fork()
                self._apply(system, prefix[-1], outcomes)
                if cache is not None:
                    system._identity = identity  # built once per node
            branches = self._branches(system, prefix)
            children = branches if depth < self.max_depth else []
            for hook in on_node:
                hook(system, depth, len(children))
            if observed:
                _obs_events.emit("frontier", depth=depth, branches=len(branches))
            if children:
                # A quiescent configuration whose only branches are
                # recoveries is *also* maximal: the adversary may decline
                # to revive anyone, so the crash-stop outcome stays in
                # the enumeration.  It falls through and is yielded in
                # addition to its recovery children, which all fork it.
                maximal = all(choice == RECOVER_CHOICE for (_pid, choice), _ in branches)
                takes_over = not maximal  # the first pushed is popped last
                node = None
                if cache is not None:
                    node = _Subtree(key, subtree, len(children))
                    if maximal:
                        node.executions = 1
                        node.leaves[leaf_id(identity)] = 1
                for decision, outcomes in reversed(children):
                    stack.append(prefix + [decision])
                    parents.append((system, outcomes, takes_over, node))
                    takes_over = False
                if not maximal:
                    continue
                if observed:
                    _obs_events.emit("schedule_explored", depth=depth)
            elif branches:  # depth bound hit with work remaining
                self.stats.truncated += 1
                if observed:
                    _obs_events.emit("schedule_truncated", depth=depth)
                if self.strict:
                    raise ExplorationLimitError(
                        f"execution exceeded max_depth={self.max_depth}; "
                        "raise the bound or check for non-termination"
                    )
                if cache is not None:
                    _finish(cache, key, subtree, None)
            else:
                if observed:
                    _obs_events.emit("schedule_explored", depth=depth)
                if cache is not None:
                    _finish(cache, key, subtree, (1, 0, leaf_id(identity), 1))
            stats.executions += 1
            count_memo()
            execution = system.finalize(prefix)
            # Must precede the checkpoint write below: a checkpoint that
            # counts this execution must also carry it in its execset
            # set so far, or a crash landing between the two leaves a
            # permanent hole in the resumed run's set (the prefix is
            # already off the frontier).
            for hook in on_execution:
                hook(execution, system)
            checkpoint_if_due()
            yield execution
        if root is not None:
            count_memo()
        if heartbeat is not None:
            heartbeat.close()
        self._stack = []
        if self.checkpoint_path is not None:
            self.write_checkpoint()  # empty frontier marks completion

    def _interrupt(self, reason: str, observed: bool) -> None:
        self.interrupted = reason
        if observed:
            _obs_events.emit(
                "exploration_interrupted",
                reason=reason,
                executions=self.total_executions,
                frontier=len(self._stack or []),
            )
        if self.checkpoint_path is not None:
            self.write_checkpoint()


def explore_executions(
    spec: SystemSpec, max_depth: int = 200, strict: bool = True
) -> Iterator[Execution]:
    """Convenience wrapper: iterate all maximal executions of ``spec``."""
    yield from Explorer(spec, max_depth=max_depth, strict=strict).executions()


def check_all_executions(
    spec: SystemSpec,
    predicate: Callable[[Execution], bool],
    max_depth: int = 200,
) -> Optional[Execution]:
    """Check ``predicate`` over all executions; ``None`` means it held
    everywhere, otherwise the first counterexample is returned."""
    return Explorer(spec, max_depth=max_depth).check(predicate)


def find_execution(
    spec: SystemSpec,
    predicate: Callable[[Execution], bool],
    max_depth: int = 200,
) -> Optional[Execution]:
    """Find a witness execution satisfying ``predicate``, or ``None``."""
    return Explorer(spec, max_depth=max_depth).find(predicate)

"""Process abstraction: a sequential program advanced one step at a time.

A process runs a program produced by a *program factory* (a zero-argument
callable returning a generator).  The runtime *primes* the process —
running it up to its first yielded :class:`~repro.runtime.ops.Operation` —
so that the configuration always exposes the operation each live process
is *poised* to perform.  Valency (critical-configuration) arguments are
phrased in exactly these terms, which is why priming is part of the model
rather than an implementation detail.

Programs are memoized.  A program's control state is a pure function of
the responses delivered to it since it started (programs are generators
with no RNG and no state shared across processes), so a process is a
position in a :class:`ProgramMemo` trie keyed by that response sequence.
Copying a process copies a pointer into the trie; the generator behind a
trie node runs only the first time a transition is taken (see
:meth:`ProgramMemo.advance`).
"""

from __future__ import annotations

import enum
from itertools import chain
from typing import Any, Callable, Dict, Generator, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ProtocolError
from repro.runtime.ops import Annotation, Operation

ProgramFactory = Callable[[], Generator]

#: Children key under which a node keeps its unhashable-response children,
#: as a list of ``(response, child)`` pairs searched by equality.
_UNHASHABLE = object()


def _response_key(response: Any) -> Any:
    """Memo key of a response: its value tagged with its type, recursively
    through tuples, so ``1``, ``True`` and ``1.0`` (equal and equally
    hashed) lead to different children."""
    kind = type(response)
    if kind is tuple:
        return (kind, tuple(map(_response_key, response)))
    return (kind, response)


class ProgramNode:
    """One control state of one program: a trie node of a :class:`ProgramMemo`.

    ``operation`` is the pending operation, or ``None`` once the program
    returned ``output``.  ``annotations`` were emitted on the way here from
    the parent.  ``generator`` is the live generator poised at this node,
    until the first child taken consumes it.
    """

    __slots__ = (
        "parent",
        "response",
        "operation",
        "output",
        "annotations",
        "children",
        "generator",
    )

    def __init__(self, parent, response, operation, output, annotations, generator):
        self.parent: Optional[ProgramNode] = parent
        self.response = response
        self.operation: Optional[Operation] = operation
        self.output = output
        self.annotations: Tuple[Annotation, ...] = annotations
        #: ``response key -> child``, allocated on the first child.
        self.children: Optional[Dict[Any, ProgramNode]] = None
        self.generator: Optional[Generator] = generator

    def path(self) -> List[Any]:
        """The responses delivered from the root to this node."""
        responses: List[Any] = []
        node = self
        while node.parent is not None:
            responses.append(node.response)
            node = node.parent
        responses.reverse()
        return responses


class ProgramMemo:
    """Memo of program transitions, one trie per pid, shared by every
    copy of a system (see :meth:`repro.runtime.system.System.fork`).

    ``hits`` counts transitions served from the trie; ``resumes`` counts
    generator resumes, i.e. transitions computed by running program code
    (including the re-sends that rebuild a consumed generator).

    Objects are memoized the same way: their outcomes are a pure function
    of (state, operation), so ``transitions`` maps ``(id(state),
    id(operation))`` to ``(state, operation, outcomes)`` (the entry keeps
    both keyed objects alive, so their ids stay theirs), filled by
    :meth:`~repro.runtime.system.System.outcomes_for`.  While recording,
    every node's pending operation is interned (:meth:`intern`), so equal
    operations yielded at different nodes are one object and share their
    entries.  Every state an outcome leads to is first passed through
    :meth:`canonical`, so equal states reached along different paths are
    one object with one stored ``repr`` text.  ``forks`` counts :meth:`System.fork
    <repro.runtime.system.System.fork>` calls and ``applies`` the object
    ``apply`` calls behind table misses.

    Until a system is forked no control state can be reached twice
    (except a recovered program's root), so transitions are recorded only
    once :meth:`record` is called by the first fork: a live run that
    never forks pays for no children maps, no transition table and no
    interning, and its nodes, which point only at their parents, are
    freed by reference counting alone.
    """

    __slots__ = (
        "factories",
        "roots",
        "recording",
        "hits",
        "resumes",
        "transitions",
        "operations",
        "states",
        "texts",
        "forks",
        "applies",
    )

    def __init__(self, factories: Mapping[int, ProgramFactory]):
        self.factories: Dict[int, ProgramFactory] = dict(factories)
        self.roots: Dict[int, ProgramNode] = {}
        self.recording = False
        self.hits = 0
        self.resumes = 0
        self.transitions: Dict[Tuple[int, int], Tuple[Any, Operation, list]] = {}
        #: Type-tagged operation value -> the one interned equal operation.
        self.operations: Dict[Any, Operation] = {}
        #: ``repr`` text -> the canonical states with that text.
        self.states: Dict[str, List[Any]] = {}
        #: ``id(canonical state)`` -> its ``repr`` text (the state is kept
        #: alive by ``states``).
        self.texts: Dict[int, str] = {}
        self.forks = 0
        self.applies = 0

    def record(self, nodes: Iterable[Optional["ProgramNode"]] = ()) -> None:
        """Start recording transitions (the first fork).  Nodes made
        before it that can still be stepped from, the roots (a recovered
        program re-enters them) and ``nodes`` (the current control
        states), get their pending operations interned now."""
        if self.recording:
            return
        self.recording = True
        for node in chain(self.roots.values(), nodes):
            if node is not None and node.operation is not None:
                node.operation = self.intern(node.operation)

    def intern(self, operation: Operation) -> Operation:
        """The memo's one operation equal to ``operation``.

        The key tags every value with its type, as :func:`_response_key`
        does, because ``Operation('r', 'write', (1,))`` equals
        ``Operation('r', 'write', (True,))`` yet must not share their
        object's outcomes.  Operations of another type or with unhashable
        arguments are returned as they are (their entries key on their
        own ids)."""
        if type(operation) is not Operation:
            return operation
        try:
            key = (operation.target, operation.method, _response_key(operation.args))
            return self.operations.setdefault(key, operation)
        except TypeError:
            return operation

    def canonical(self, state: Any) -> Any:
        """The canonical object for ``state``: an earlier one with the
        same ``repr`` text, the same type and ``==`` to it, or else
        ``state`` itself, registered.  Substituting it changes no
        configuration snapshot, since the text is the same."""
        if id(state) in self.texts:
            return state
        text = repr(state)
        same = self.states.get(text)
        if same is None:
            self.states[text] = [state]
        else:
            for seen in same:
                if type(seen) is type(state) and seen == state:
                    return seen
            same.append(state)
        self.texts[id(state)] = text
        return state

    def root(self, pid: int) -> ProgramNode:
        """The control state of ``pid``'s program before any response."""
        node = self.roots.get(pid)
        if node is not None:
            self.hits += 1
            return node
        node = self.roots[pid] = self._run(pid, self._start(pid), None, None)
        return node

    def advance(self, pid: int, node: ProgramNode, response: Any) -> ProgramNode:
        """The control state after delivering ``response`` at ``node``.

        A hit returns the recorded child.  A miss resumes ``node``'s live
        generator; if an earlier child already consumed it, a fresh one is
        rebuilt by re-sending ``node``'s response path into ``factory()``
        (program code only: no objects, no system).
        """
        if not self.recording:
            generator = node.generator or self._rebuild(pid, node)
            node.generator = None
            return self._run(pid, generator, node, response)
        children = node.children
        try:
            key = _response_key(response)
            hash(key)
        except TypeError:
            key = _UNHASHABLE
        if children is not None:
            if key is _UNHASHABLE:
                for seen, child in children.get(_UNHASHABLE, ()):
                    if type(seen) is type(response) and seen == response:
                        self.hits += 1
                        return child
            else:
                child = children.get(key)
                if child is not None:
                    self.hits += 1
                    return child
        else:
            children = node.children = {}
        generator = node.generator
        if generator is None:
            generator = self._rebuild(pid, node)
        else:
            node.generator = None
        child = self._run(pid, generator, node, response)
        if key is _UNHASHABLE:
            children.setdefault(_UNHASHABLE, []).append((response, child))
        else:
            children[key] = child
        return child

    def _start(self, pid: int) -> Generator:
        generator = self.factories[pid]()
        if not hasattr(generator, "send"):
            raise ProtocolError(
                f"program factory for process {pid} did not return a "
                f"generator (got {type(generator).__name__}); "
                "programs must be generator functions"
            )
        return generator

    def _run(
        self, pid: int, generator: Generator, parent: Optional[ProgramNode], response: Any
    ) -> ProgramNode:
        """Resume ``generator`` with ``response`` up to its next operation."""
        self.resumes += 1
        annotations: Tuple[Annotation, ...] = ()
        try:
            item = generator.send(response)
            while isinstance(item, Annotation):
                annotations += (item,)
                item = generator.send(None)
        except StopIteration as stop:
            return ProgramNode(parent, response, None, stop.value, annotations, None)
        if not isinstance(item, Operation):
            raise ProtocolError(
                f"process {pid} yielded {item!r}; programs may only "
                "yield Operation or Annotation values"
            )
        if self.recording:
            item = self.intern(item)
        return ProgramNode(parent, response, item, None, annotations, generator)

    def _rebuild(self, pid: int, node: ProgramNode) -> Generator:
        """A fresh generator poised at ``node``."""
        generator = self._start(pid)
        item = None
        try:
            for response in [None] + node.path():
                self.resumes += 1
                item = generator.send(response)
                while isinstance(item, Annotation):
                    item = generator.send(None)
        except StopIteration:
            item = None
        if item != node.operation:
            raise ProtocolError(
                f"program of process {pid} is not deterministic: rebuilding "
                f"it yielded {item!r} where it first yielded {node.operation!r}"
            )
        return generator


class ProcessStatus(enum.Enum):
    """Lifecycle of a simulated process."""

    #: Created but not yet primed to its first operation.
    PENDING = "pending"
    #: Alive with a pending operation, waiting to be scheduled.
    POISED = "poised"
    #: Returned normally; ``output`` holds the returned value.
    DONE = "done"
    #: Crashed by the adversary; takes no further steps.
    CRASHED = "crashed"
    #: Parked forever after misusing an object in ``hang_on_misuse`` mode.
    BLOCKED = "blocked"

    # Members are singletons compared by identity, so the identity hash
    # agrees with ``==``, and it runs in C: ``Enum.__hash__`` is a Python
    # call, paid per process each time a configuration identity is hashed.
    __hash__ = object.__hash__


class Process:
    """A single simulated process.

    Parameters
    ----------
    pid:
        Process identifier, the index of the process in its system.
    factory:
        Zero-argument callable returning a fresh generator for the program
        (used only to give a process built without ``memo`` a private one).
    memo:
        The :class:`ProgramMemo` holding ``pid``'s program trie, shared by
        every process of a system and its copies.
    """

    __slots__ = ("pid", "memo", "status", "output", "steps_taken", "recoveries", "node")

    def __init__(self, pid: int, factory: ProgramFactory, memo: Optional[ProgramMemo] = None):
        self.pid = pid
        self.memo = memo if memo is not None else ProgramMemo({pid: factory})
        self.status = ProcessStatus.PENDING
        self.output: Any = None
        self.steps_taken = 0
        #: Amnesiac recoveries so far (see :meth:`recover`).
        self.recoveries = 0
        #: The program's control state (``None`` until primed).
        self.node: Optional[ProgramNode] = None

    def fork(self) -> "Process":
        """An independent copy at the same control state (shares the memo,
        which from now on records transitions)."""
        if not self.memo.recording:
            self.memo.record((self.node,))
        clone = Process.__new__(Process)
        clone.pid = self.pid
        clone.memo = self.memo
        clone.status = self.status
        clone.output = self.output
        clone.steps_taken = self.steps_taken
        clone.recoveries = self.recoveries
        clone.node = self.node
        return clone

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def pending_operation(self) -> Optional[Operation]:
        """The operation this process is poised to perform, if any."""
        if self.status is ProcessStatus.POISED:
            return self.node.operation
        return None

    @property
    def fresh_annotations(self) -> List[Annotation]:
        """Annotations the program emitted on its latest transition (prime,
        deliver); they cost no steps."""
        return list(self.node.annotations) if self.node is not None else []

    @property
    def is_live(self) -> bool:
        """True if the process can still take steps."""
        return self.status in (ProcessStatus.PENDING, ProcessStatus.POISED)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def prime(self) -> None:
        """Run local computation up to the first shared-memory operation.

        After priming the process is ``POISED`` (or ``DONE`` if the program
        returned without touching shared memory).
        """
        if self.status is not ProcessStatus.PENDING:
            return
        self._enter(self.memo.root(self.pid))

    def deliver(self, response: Any) -> None:
        """Complete the pending operation with ``response`` and advance to
        the next one.  One atomic step."""
        if self.status is not ProcessStatus.POISED:
            raise ProtocolError(
                f"cannot deliver a response to process {self.pid} in status "
                f"{self.status.value}"
            )
        self.steps_taken += 1
        self._enter(self.memo.advance(self.pid, self.node, response))

    def crash(self) -> None:
        """Crash-stop the process; it is never scheduled again."""
        if self.status in (ProcessStatus.PENDING, ProcessStatus.POISED):
            self.status = ProcessStatus.CRASHED

    def recover(self) -> None:
        """Revive a crashed process with amnesia: the program restarts
        from scratch (re-entering its trie root on the next prime), while
        shared objects — owned by the system, not the process — keep
        whatever state the crash left behind.

        ``steps_taken`` is deliberately *not* reset: it is a runtime
        odometer (wait-freedom metrics count every step the process ever
        took), not program state.  Only valid from ``CRASHED``.
        """
        if self.status is not ProcessStatus.CRASHED:
            raise ProtocolError(
                f"cannot recover process {self.pid} in status "
                f"{self.status.value}; only crashed processes recover"
            )
        self.status = ProcessStatus.PENDING
        self.output = None
        self.node = None
        self.recoveries += 1

    def block(self) -> None:
        """Park the process forever (object-misuse 'hang' semantics)."""
        self.status = ProcessStatus.BLOCKED

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _enter(self, node: ProgramNode) -> None:
        self.node = node
        if node.operation is None:
            self.status = ProcessStatus.DONE
            self.output = node.output
        else:
            self.status = ProcessStatus.POISED

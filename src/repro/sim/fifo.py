"""Arithmetic FIFO servers: the event-free twin of ``Resource`` + ``timeout``.

A chain of k-server FIFO stages is computed, not simulated: a unit starts
a stage at ``max(arrival, earliest free server)`` — for equal service
times, the end of the k-th earlier unit — and occupies it for its service.
That is exactly the schedule a :class:`~repro.sim.resources.Resource` of
capacity k produces for FIFO acquirers that each hold it for a timeout,
with no kernel event per unit (DESIGN.md §11.7).

A unit's path is a *step program*, a tuple of ``(op, x, y)`` steps:

``(ACQ, i, _)``  acquire server *i* (FIFO, blocks while all k are busy)
``(REL, i, _)``  release server *i*
``(WAIT, ns, _)``  hold for *ns* (a timeout)
``(CALL, fn, arg)``  run ``fn(arg)`` at that instant (counter credits)

:class:`Program` compiles one for arithmetic, :func:`advance` computes
it, :func:`frontier` finds where a computed unit stands at an instant
(the split), and :func:`run_steps` executes the rest of a program on
real resources — the per-unit reference a split hands back to.

The module also owns the one coarsening knob shared by every fast path:
:data:`COARSENING_MODES` and :func:`check_coarsening`.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import (Any, Callable, Dict, Generator, List, Optional, Sequence,
                    Tuple)

from ..errors import CoarseningError
from .core import Event, Process, Simulator, Timeout

__all__ = ["COARSENING_MODES", "check_coarsening", "FifoServer", "ACQ",
           "REL", "WAIT", "CALL", "Program", "advance", "frontier",
           "held_before", "cause_instant", "StepRecord", "run_steps", "adopt"]

#: ``"train"`` = coarsened fast paths (byte-identical, fewer events);
#: ``"per_frame"`` = the per-unit reference machinery (DESIGN.md §11)
COARSENING_MODES = ("train", "per_frame")


def check_coarsening(mode: str) -> str:
    """Return *mode* if it is a known coarsening mode, else raise."""
    if mode not in COARSENING_MODES:
        raise CoarseningError(f"unknown coarsening {mode!r}; choose from "
                              f"{sorted(COARSENING_MODES)}")
    return mode


ACQ, REL, WAIT, CALL = 0, 1, 2, 3

Step = Tuple[int, Any, Any]


class FifoServer:
    """A k-server FIFO stage computed arithmetically.

    ``grant(arrival)`` is the instant a unit arriving at *arrival* is
    served; ``release(when)`` returns its server.  Units must be granted
    in arrival order, and a holder must be released before a later unit
    can take its server — the order a FIFO ``Resource`` grants in.
    """

    __slots__ = ("_free",)

    def __init__(self, capacity: int = 1, now: int = 0,
                 held: int = 0) -> None:
        if not 0 <= held <= capacity:
            raise ValueError(f"held {held} outside [0, {capacity}]")
        #: min-heap of the instants the idle servers became free; a held
        #: server has no entry until its holder is released
        self._free: List[int] = [now] * (capacity - held)

    def grant(self, arrival: int) -> int:
        """Start of service for a unit arriving at *arrival*."""
        free = heappop(self._free)
        return arrival if arrival > free else free

    def release(self, when: int) -> None:
        """A holder frees its server at *when*."""
        heappush(self._free, when)

    def next_free(self) -> int:
        """The instant the next grant could start, arrivals aside."""
        return self._free[0]


class Program:
    """A step program compiled for arithmetic.

    Only the *blocking* steps (ACQ and WAIT) take time, so the arithmetic
    works on them alone: blocking step *j* is ``steps[blocking[j]]``;
    ``tails[j]`` are the REL and CALL steps that run right after it, in
    order; ``releases[j]`` and ``calls[j]`` split them by kind.
    """

    __slots__ = ("steps", "blocking", "ops", "tails", "releases", "calls",
                 "release_wait")

    def __init__(self, steps: Sequence[Step]) -> None:
        self.steps = tuple(steps)
        if not self.steps or self.steps[0][0] not in (ACQ, WAIT):
            raise ValueError("a program starts with a blocking step")
        self.blocking: List[int] = []
        self.ops: List[Tuple[int, Any]] = []
        self.tails: List[Tuple[Step, ...]] = []
        self.releases: List[Tuple[int, ...]] = []
        self.calls: List[Tuple[Tuple[Any, Any], ...]] = []
        #: per server: duration of the WAIT completing before its REL
        self.release_wait: Dict[Any, int] = {}
        wait = 0
        for k, (op, x, y) in enumerate(self.steps):
            if op == ACQ or op == WAIT:
                self.blocking.append(k)
                self.ops.append((op, x))
                self.tails.append(())
                self.releases.append(())
                self.calls.append(())
                if op == WAIT:
                    wait = x
                continue
            self.tails[-1] += ((op, x, y),)
            if op == REL:
                self.releases[-1] += (x,)
                self.release_wait[x] = wait
            else:
                self.calls[-1] += ((x, y),)

    def __len__(self) -> int:
        return len(self.blocking)


def advance(program: Program, servers: Sequence[FifoServer], j: int, t: int,
            times: List[int]) -> int:
    """Compute blocking steps ``j..`` of one unit from instant *t*.

    ``times[j]`` becomes the instant blocking step *j* completes: the
    grant of an ACQ, the end of a WAIT.  Returns the instant the program
    completes.  CALL steps are not run.
    """
    # FifoServer.grant/release inlined: this loop is the stream's hot path
    frees = [server._free for server in servers]
    ops, releases = program.ops, program.releases
    for j in range(j, len(ops)):
        op, x = ops[j]
        if op == WAIT:
            t += x
        else:
            free = heappop(frees[x])
            if free > t:
                t = free
        times[j] = t
        for r in releases[j]:
            heappush(frees[r], t)
    return t


def frontier(program: Program, times: Sequence[int], start: int, t: int,
             cause: int) -> int:
    """Index of the first blocking step not done at instant *t*.

    Steps completing before *t* are done, after *t* not.  A step
    completing at exactly *t* is done when the kernel event completing it
    was scheduled before *cause* — the instant the event now being
    processed was scheduled — since same-instant events run in the order
    they were scheduled.  A tie of scheduling instants counts as not
    done.  *start* is the unit's start instant; returns ``len(program)``
    when every step is done.
    """
    ops = program.ops
    for j in range(len(ops)):
        done_at = times[j]
        if done_at < t:
            continue
        if done_at > t:
            return j
        # completes at t: find when its completing event was scheduled
        k = j
        while True:
            op, x = ops[k]
            if op == WAIT:
                scheduled = t - x
                break
            arrival = times[k - 1] if k else start
            if arrival < t:
                scheduled = t - program.release_wait.get(x, 0)
                break
            if not k:
                scheduled = t
                break
            k -= 1
        if scheduled >= cause:
            return j
    return len(ops)


def held_before(program: Program, j: int) -> List[int]:
    """Servers a unit holds when it stands at blocking step *j*."""
    held: List[int] = []
    for (op, x), rels in zip(program.ops[:j], program.releases[:j]):
        if op == ACQ:
            held.append(x)
        for r in rels:
            held.remove(r)
    return held


def cause_instant(sim: Simulator) -> int:
    """The instant the kernel event being processed now was scheduled.

    Found by walking up to the scheduler's drain loop; a timeout was
    scheduled ``delay`` before it fires, any other event at the current
    instant as far as ties are concerned.  Only for rare tie-breaking
    (a split, a counter observation): it inspects interpreter frames.
    """
    now = sim.now
    frame = sys._getframe(1)
    while frame is not None:
        code = frame.f_code
        if (code is _RUN_UNTIL or code is _RUN or code is _STEP) \
                and frame.f_locals.get("self") is sim:
            ev = frame.f_locals.get(
                "popped" if code is _RUN_UNTIL else "event")
            break
        frame = frame.f_back
    else:
        return now
    if type(ev) is Timeout:
        return now - ev.delay
    return now


_RUN = Simulator.run.__code__
_RUN_UNTIL = Simulator.run_until.__code__
_STEP = Simulator.step.__code__


class StepRecord:
    """Where a unit driven by :func:`run_steps` stands.

    ``pc`` is the blocking step it is on.  When ``blocked``, the unit
    waits on ``ev`` to complete that step, and ``at`` is the instant a
    WAIT ends or an ACQ was requested; otherwise it is about to run the
    step.  Setting ``absorbed`` hands the unit back to arithmetic: its
    generator returns at its next resume without touching any resource.
    """

    __slots__ = ("pc", "at", "ev", "blocked", "absorbed", "credited")

    def __init__(self, pc: int = 0, at: int = 0, credited: int = 0) -> None:
        self.pc = pc
        self.at = at
        self.ev: Optional[Event] = None
        self.blocked = False
        self.absorbed = False
        #: the CALL steps after blocking steps below this index already ran
        self.credited = credited


def run_steps(sim: Simulator, program: Program, resources: Sequence[Any],
              rec: StepRecord, first: Optional[Event], skip_first: bool,
              on_step: Optional[Callable[[], bool]] = None,
              on_done: Optional[Callable[[], None]] = None,
              ) -> Generator[Event, Any, None]:
    """Execute blocking steps ``rec.pc..`` of *program* on real resources.

    This is the per-unit reference: the acquires, timeouts, releases and
    calls of the program in order.  *first*, if given, is awaited before
    anything else; *skip_first* says whether that wait completes step
    ``rec.pc`` (a residual WAIT or a queued ACQ) or merely precedes it (a
    zero-delay hop).  *on_step* runs before each blocking step and
    returns True when the caller took the unit back (see
    :class:`StepRecord`); *on_done* runs at the end.
    """
    ops, tails = program.ops, program.tails
    j = rec.pc
    n = len(ops)
    if first is not None:
        rec.ev = first
        rec.blocked = skip_first
        yield first
        if rec.absorbed:
            return
    else:
        skip_first = False
    while j < n:
        if not skip_first:
            rec.pc = j
            rec.ev = None
            rec.blocked = False
            if on_step is not None and on_step():
                return
            op, x = ops[j]
            if op == WAIT:
                rec.at = sim.now + x
                ev = sim.timeout(x)
            else:
                rec.at = sim.now
                ev = resources[x].acquire()
            rec.ev = ev
            rec.blocked = True
            yield ev
            if rec.absorbed:
                return
        skip_first = False
        for op, x, y in tails[j]:
            if op == REL:
                resources[x].release()
            elif j >= rec.credited:
                x(y)
        j += 1
    rec.pc = n
    if on_done is not None:
        on_done()


def adopt(sim: Simulator, gen: Generator, name: str = "") -> Process:
    """Start *gen* as a process synchronously, with no bootstrap event.

    The generator runs to its first ``yield`` right now and the process
    waits on what it yielded — for a split, whose materialized units must
    not add a kernel event in front of the waits they resume.
    """
    proc = Process.__new__(Process)
    Event.__init__(proc, sim)
    proc._gen = gen
    proc._waiting_on = None
    proc.name = name
    proc._wait_on(next(gen))
    return proc

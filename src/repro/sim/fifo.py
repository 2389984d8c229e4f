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
``(CALL, fn, arg)``  run ``fn(arg)`` at that instant (counter credits);
                   ``fn(arg, k)`` credits *k* units at once

:class:`Program` compiles one for arithmetic, :func:`advance` computes
it, :func:`frontier` finds where a computed unit stands at an instant
(the split), and :func:`run_steps` executes the rest of a program on
real resources — the per-unit reference a split hands back to.

A stream of identical units settles into a periodic regime, and
:func:`schedule` computes it in closed form: once the servers' state
relative to a unit's start repeats, every later unit is an earlier one
shifted by a fixed period, so the rest of the stream is one :class:`Run`.
:func:`follow` does the same for a one-server stage fed by such runs.

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
           "held_before", "cause_instant", "StepRecord", "run_steps", "adopt",
           "Run", "clamped_state", "schedule", "follow"]

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
    order; ``releases[j]`` and ``calls[j]`` split them by kind, and
    ``call_steps`` lists the *j* with calls.
    """

    __slots__ = ("steps", "blocking", "ops", "tails", "releases", "calls",
                 "release_wait", "call_steps")

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
        self.call_steps = tuple(j for j, c in enumerate(self.calls) if c)

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


class Run:
    """*n* computed units of one program in closed form.

    ``times`` holds *c* template units (each a list of blocking-step
    completion instants, as :func:`advance` fills them); unit *m* is
    template ``m % c`` shifted by ``(m // c) * period``.  A unit computed
    on its own is a run of one.
    """

    __slots__ = ("times", "period", "n")

    def __init__(self, times: List[List[int]], period: int = 0,
                 n: int = 1) -> None:
        self.times = times
        self.period = period
        self.n = n

    def time(self, m: int, j: int) -> int:
        """Instant step *j* of unit *m* completes."""
        q, r = divmod(m, len(self.times))
        return self.times[r][j] + q * self.period

    def unit(self, m: int) -> List[int]:
        """Every step instant of unit *m*."""
        q, r = divmod(m, len(self.times))
        shift = q * self.period
        return [t + shift for t in self.times[r]]

    def count_before(self, j: int, t: int) -> int:
        """Units whose step *j* completes before *t*; one floor division
        per template unit.  Step *j* completes in unit order, so these
        are units ``0..count-1``."""
        n, c, period = self.n, len(self.times), self.period
        total = 0
        for r in range(min(c, n)):
            v = self.times[r][j]
            if v < t:
                units = (n - r + c - 1) // c
                total += (units if not period
                          else min(units, (t - v - 1) // period + 1))
        return total

    def index_at(self, j: int, t: int) -> Optional[int]:
        """The first unit whose step *j* completes at exactly *t*."""
        n, c, period = self.n, len(self.times), self.period
        found = None
        for r in range(min(c, n)):
            d = t - self.times[r][j]
            if d < 0 or (d and not period) or (period and d % period):
                continue
            m = r + (d // period if period else 0) * c
            if m < n and (found is None or m < found):
                found = m
        return found


def clamped_state(servers: Sequence[FifoServer], t: int) -> Tuple[int, ...]:
    """The servers' free instants relative to *t*, clamped at 0.

    Every later unit of a stream that starts at *t* or after is served at
    *t* or after, so a server free before *t* is as good as free at *t*:
    this state decides every later unit (see :func:`schedule`).
    """
    out: List[int] = []
    for server in servers:
        free = server._free
        if len(free) == 1:
            out.append(free[0] - t if free[0] > t else 0)
            continue
        late = sorted([v - t for v in free if v > t])
        out.extend([0] * (len(free) - len(late)))
        out.extend(late)
    return tuple(out)


def _restore_state(servers: Sequence[FifoServer], state: Sequence[int],
                  t: int) -> None:
    """Set the servers to :func:`clamped_state` *state* taken at *t*."""
    i = 0
    for server in servers:
        k = len(server._free)
        # a sorted list is a heap
        server._free = [t + v for v in state[i:i + k]]
        i += k


def schedule(program: Program, servers: Sequence[FifoServer], arrival: int,
             count: int) -> List[Run]:
    """Compute *count* units of *program*, all arriving at *arrival*.

    Units are computed one by one with :func:`advance` until the state
    after unit *i* — :func:`clamped_state` at its start ``s_i`` — equals
    the state after an earlier unit *j*.  If the units since then started
    on a server's grant, not on their arrival, unit ``i + 1`` meets
    exactly what unit ``j + 1`` met, shifted by ``P = s_i - s_j``, and by
    induction so does every later one, as long as the arrival does not
    bind the first: the rest is one :class:`Run` of period ``c = i - j``,
    and the servers are left in the state after its last unit.  A state
    that never repeats stays per unit.  Returns the runs in order (a unit
    computed on its own is a run of one).
    """
    by_start = program.ops[0][0] == ACQ
    n = len(program)
    runs: List[Run] = []
    # the units since the last one granted on its arrival, with the state
    # each left behind; every one after the first may stand as a template
    units: List[Tuple[Tuple[int, ...], List[int]]] = []
    seen: Dict[Tuple[int, ...], int] = {}   # state -> last unit leaving it
    for i in range(count):
        times = [0] * n
        advance(program, servers, 0, arrival, times)
        runs.append(Run([times]))
        start = times[0]
        state = clamped_state(servers, start)
        if not by_start or start <= arrival:
            units, seen = [], {}    # the arrival may have decided it
        j = seen.get(state)
        seen[state] = len(units)
        units.append((state, times))
        if j is not None and i + 1 < count:
            run = _repeat(units[j:], servers, arrival, count - i - 1)
            if run is not None:
                runs.append(run)
                break
    return runs


def _repeat(units: List[Tuple[Tuple[int, ...], List[int]]],
            servers: Sequence[FifoServer], arrival: int,
            count: int) -> Optional[Run]:
    """The next *count* units as a repeat of ``units[1:]``, the units
    after ``units[0]``, which left the state the last one left; None when
    they would not repeat (no time passed, or the arrival binds)."""
    template_units = units[1:]
    period = template_units[-1][1][0] - units[0][1][0]
    if period <= 0 or template_units[0][1][0] + period < arrival:
        return None
    template = [[t + period for t in unit[1]] for unit in template_units]
    run = Run(template, period, count)
    q, r = divmod(count - 1, len(template))
    state, times = template_units[r]
    _restore_state(servers, state, times[0] + (q + 1) * period)
    return run


def follow(feed: Run, j: int, lo: int, hi: int, server: FifoServer,
           service: int, extra: int = 0) -> List[Run]:
    """A one-server FIFO stage holding each unit *service* (the first
    ``service + extra``), fed in order by step *j* of units ``lo..hi-1``
    of *feed*: their ``[start, end]`` instants, as runs.

    Unit *m* arriving at ``a_m`` waits ``W_m = max(0, free - a_m)``; that
    wait decides it and every later unit up to the shift ``a_m``.  The
    feed repeats every *c* units, so once ``W_m`` equals ``W_{m-c}`` the
    rest repeats the feed's period.  While every unit finds the server
    busy — a backlog that grows when the stage is slower than its feed —
    the units are one run of period *service* instead.
    """
    c, period = len(feed.times), feed.period
    free = server._free[0]
    runs: List[Run] = []
    seen: Dict[int, int] = {}   # wait of the last unit at each feed phase
    m = lo
    while m < hi:
        arrival = feed.time(m, j)
        if free > arrival and (m > lo or not extra) and hi - m > c:
            k = _busy(feed, j, m, hi, free, service)
            if k > c:
                runs.append(Run([[free, free + service]], service, k))
                free += k * service
                m += k
                seen.clear()
                continue
        wait = free - arrival if free > arrival else 0
        if seen.get(m % c) == wait:     # units m-c..m-1 are the template
            template = [[t + period for t in run.times[0]]
                        for run in runs[-c:]]
            rest = Run(template, period, hi - m)
            runs.append(rest)
            free = rest.time(rest.n - 1, 1)
            break
        end = arrival + wait + service
        if m == lo and extra:
            end += extra                # not a template unit
        else:
            seen[m % c] = wait
        runs.append(Run([[arrival + wait, end]]))
        free = end
        m += 1
    server._free = [free]
    return runs


def _busy(feed: Run, j: int, m: int, hi: int, free: int,
          service: int) -> int:
    """How many units from *m* on find the :func:`follow` stage busy (or
    just free) on arrival, all in a row; one floor division per phase."""
    c, period = len(feed.times), feed.period
    drift = period - c * service   # arrival lead gained per feed period
    k = hi - m
    for r in range(c):
        m1 = m + (r - m) % c        # the first unit at phase r
        if m1 - m >= k:
            continue
        lead = feed.time(m1, j) - free - (m1 - m) * service
        if lead <= 0:               # busy: until the lead turns positive
            if drift <= 0:
                continue
            m1 += (-lead // drift + 1) * c
        k = min(k, m1 - m)
    return k


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

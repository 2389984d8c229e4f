"""The coarsened NVMe write payload-fetch path (DESIGN.md §11.7).

A write command fetches its payload page by page through the controller's
shallow fetch pipeline (``data_fetch_depth`` reads in flight), and every
fetched page then passes the program engine in order.  The reference path
(:meth:`NvmeController._fetch_and_program`) runs that as one process per
page: ~18 kernel events a page.  :class:`WriteStream` computes the same
schedule with the arithmetic FIFO servers of :mod:`repro.sim.fifo`:

* **Periodic runs.**  A page acquires a fetch slot, runs the fabric's
  DMA read (:meth:`PcieFabric.read_program`) and frees the slot: one
  chain of FIFO servers, computed by :func:`repro.sim.fifo.schedule`.
  Identical pages fall into a periodic regime within a few pages, and the
  rest of a command is one closed-form run.  The program engine, the
  stage after the slot, is fed by the fetch ends and computed the same
  way (:func:`repro.sim.fifo.follow`).  A command waits on one event at
  its last page's program end.
* **Hold and split.**  While the stream is coarse it holds every
  fetch-side resource at full capacity — read tags, link directions, the
  target's read port — with a contention callback on each, so any
  outsider's ``acquire`` (SQE fetch, PRP-list read, CQE post, doorbell,
  host DMA) queues and splits the stream synchronously at that instant.
  A split hands the in-flight pages (at most ``data_fetch_depth``) to
  per-page generators (:func:`repro.sim.fifo.run_steps`), each resuming
  at its exact step with its residual wait, requeues the pages not yet
  granted a slot, and releases the held slots down to the occupancy the
  reference has at that instant, so the outsider is granted exactly when
  the reference would grant it.  The stream re-coarsens, absorbing those
  generators, as soon as every fetch-side resource is idle again apart
  from its own pages.
* **Counters** (link wire bytes, fabric traffic, target memory stats,
  ``programmed_bytes``) are credited lazily, a run at a time: every
  counter settles the stream before it is read, so a mid-run read sees
  the reference value.

A page whose read is not a FIFO program (on-board DRAM, multi-chunk spans)
runs per page inside the stream.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..sim.core import _PENDING, Event, Simulator
from ..sim.fifo import (ACQ, REL, WAIT, FifoServer, Program, Run, StepRecord,
                        adopt, advance, cause_instant, follow, frontier,
                        held_before, run_steps, schedule)
from ..units import PAGE

__all__ = ["WriteStream"]

#: a coarse stretch that completes fewer pages than this before it is
#: split doubles the number of pages fetched per page before the next
#: attempt (capped at COOLDOWN_MAX), and a longer one resets it: streams
#: contending for one link, such as two SSDs writing from one FPGA,
#: would otherwise split on nearly every page
MIN_STRETCH = 4
COOLDOWN_MAX = 256


class _Cmd:
    """One write command's wait: ``done`` fires at its last program end."""

    __slots__ = ("done", "left", "version")

    def __init__(self, sim: Simulator, units: int) -> None:
        self.done = Event(sim)
        #: units not yet admitted to the program engine; the command
        #: completes at the program end of the last one admitted
        self.left = units
        #: bumped when a scheduled completion call goes stale (a split)
        self.version = 0


class _Unit:
    """*count* identical queued payload fetches (pages, or PRP spans) of
    one command; a unit fetching per page has count 1."""

    __slots__ = ("cmd", "program", "res", "addr", "size", "npages", "extra",
                 "arrival", "count", "g", "rec")

    def __init__(self, cmd: _Cmd, program: Optional[Program], res,
                 addr: int, size: int, extra: int, arrival: int,
                 count: int = 1) -> None:
        self.cmd = cmd
        #: FIFO step program of the fetch and its resources, or None
        #: (always per page)
        self.program = program
        self.res = res
        self.addr = addr
        self.size = size
        self.npages = -(-size // PAGE)
        #: program-engine overhead of the command's first unit
        self.extra = extra
        self.arrival = arrival
        self.count = count
        self.g = 0                  # fetch start (slot grant)
        self.rec: Optional[StepRecord] = None


class _Seg:
    """A fetch run of one command's units: a :class:`Run` of the stream
    program (step 0 the slot grant, steps ``1..L`` the read program's
    blocking steps).  Units ``0..full-1`` ran every read CALL; ``part``
    holds the credited step index of later ones."""

    __slots__ = ("cmd", "program", "res", "size", "extra", "arrival", "run",
                 "full", "part")

    def __init__(self, unit: _Unit, run: Run) -> None:
        self.cmd = unit.cmd
        self.program = unit.program
        self.res = unit.res
        self.size = unit.size
        self.extra = unit.extra
        self.arrival = unit.arrival
        self.run = run
        self.full = 0
        self.part: Dict[int, int] = {}


class WriteStream:
    """Fetch-and-program pipeline of one controller's write commands."""

    def __init__(self, controller) -> None:
        self.ctl = controller
        self.sim: Simulator = controller.sim
        self.backend = controller.backend
        self.endpoint = controller.endpoint
        self.depth = controller.profile.data_fetch_depth
        self._queue: Deque[_Unit] = deque()      # waiting for a fetch slot
        self._fine: List[_Unit] = []             # fetching per page
        self._fetching: Deque[_Seg] = deque()    # fetch credits still due
        self._coarse = False
        self._held: Dict[Any, FifoServer] = {}   # resource -> arithmetic twin
        self._fetch: Optional[FifoServer] = None
        self._engine = FifoServer(1)             # the program engine
        #: program-engine ``[start, end]`` runs not yet credited, in
        #: engine order, with each unit's bytes; ``_edone`` units of the
        #: first are
        self._eng: Deque[Tuple[Run, int]] = deque()
        self._edone = 0
        self._prog_ahead = 0        # bytes admitted but not yet credited
        #: stream programs, by read program
        self._programs: Dict[Program, Program] = {}
        #: fallback / drain wake-up, made stale by bumping the version
        self._wake_version = 0
        self._wake_pending = False
        self._settling = False
        #: one bound-method object, so unwatch_contention_fn recognizes it
        self._watch = self._on_contention
        self._hook = self.settle
        #: counter owners whose reads settle this stream first
        self._sinks: List[Any] = []
        self._described: set = set()
        #: pages computed in the current coarse stretch; the per-page
        #: fetches owed after a split before the next coarsening attempt,
        #: doubling while stretches stay short
        self._stretch = 0
        self._backoff = 0
        self._cooldown = 0
        #: unit computations (an advance walk or a closed-form run) and
        #: splits, for regression tests of the stream's own cost
        self.walks = 0
        self.splits = 0
        self.backend.settle_hook = self._hook

    def detach(self) -> None:
        """Unhook from the counters (the controller stops using it)."""
        self.backend.settle_hook = None
        for sink in self._sinks:
            sink.settle_hooks.remove(self._hook)
        self._sinks.clear()

    # ------------------------------------------------------------- intake
    @property
    def active(self) -> bool:
        """True while any page is queued, fetching or programming."""
        return bool(self._queue or self._fine or self._fetching or self._eng)

    def describe(self, runs):
        """The ``(program, count)`` groups of the payload reads (program
        None where a read is not a FIFO program; see
        :meth:`PcieFabric.read_programs`)."""
        groups = self.endpoint.fabric.read_programs(self.endpoint, runs)
        for program, _ in groups:
            if program is None or program[0] in self._described:
                continue
            self._described.add(program[0])
            # every counter a program credits settles this stream first
            for calls in program[0].calls:
                for fn, _ in calls:
                    sink = fn.__self__
                    if self._hook not in sink.settle_hooks:
                        sink.settle_hooks.append(self._hook)
                        self._sinks.append(sink)
        return groups

    def write(self, runs, groups, overhead_ns: int):
        """Generator: fetch and program *runs*; returns at the last
        page's program end, as ``all_of`` over the reference's per-page
        processes does."""
        sim = self.sim
        cmd = _Cmd(sim, len(runs))
        now = sim.now
        queue = self._queue
        i = 0
        for program, count in groups:
            addr, size = runs[i]
            prog, res = program if program is not None else (None, ())
            queue.append(_Unit(cmd, prog, res, addr, size,
                               overhead_ns if i == 0 else 0, now, count))
            i += count
        if self._coarse:
            if not self._wake_pending:
                self._compute()
        elif not self._try_coarsen():
            self._fill_slots(hop=True)
        yield cmd.done

    # ------------------------------------------------------ program engine
    def _program(self, unit: _Unit) -> Program:
        """The stream program of *unit*: slot grant, read, slot free."""
        program = self._programs.get(unit.program)
        if program is None:
            steps = [(ACQ, 0, None)]
            steps += [(op, x + 1 if op in (ACQ, REL) else x, y)
                      for op, x, y in unit.program.steps]
            steps.append((REL, 0, None))
            program = self._programs[unit.program] = Program(steps)
        return program

    def _add(self, unit: _Unit, run: Run) -> _Seg:
        """Take in the computed fetch *run* of *unit*'s next units: their
        read credits fall due, and the program engine takes them in
        closed form as their fetches end, one :func:`follow` per stretch
        of equal page program time (the write phase flips every
        ``write_phase_period_bytes``; the command's first unit carries
        its overhead)."""
        seg = _Seg(unit, run)
        self._fetching.append(seg)
        backend = self.backend
        period = backend.profile.write_phase_period_bytes
        nbytes = unit.npages * PAGE
        feed, fetched = seg.run, len(unit.program)
        lo = 0
        while lo < feed.n:
            admitted = backend._programmed + self._prog_ahead
            room = -(-((admitted // period + 1) * period - admitted)
                     // nbytes)
            hi = min(feed.n, lo + room)
            runs = follow(feed, fetched, lo, hi, self._engine,
                          unit.npages * backend.page_program_ns(admitted),
                          unit.extra)
            self.walks += len(runs)
            self._eng.extend([(run, nbytes) for run in runs])
            self._prog_ahead += (hi - lo) * nbytes
            unit.extra = 0
            lo = hi
        last = self._eng[-1][0]
        self._admitted(unit.cmd, feed.n, last.time(last.n - 1, 1))
        return seg

    def _admitted(self, cmd: _Cmd, units: int, end: int) -> None:
        """*units* of *cmd* entered the program engine, the last ending
        at *end*."""
        cmd.left -= units
        if not cmd.left:
            self.sim.schedule_call(end - self.sim.now, self._complete,
                                   (cmd, cmd.version))

    def _admit(self, unit: _Unit, fetched: int) -> None:
        """Program a unit fetched per page: the one-unit case of
        :func:`follow`, written out because it runs once a page wherever
        the stream cannot coarsen (through :func:`follow` it cost the
        on-board-DRAM HBM ablation 7% more CPU time; EXPERIMENTS.md)."""
        backend = self.backend
        service = (unit.npages * backend.page_program_ns(
            backend._programmed + self._prog_ahead) + unit.extra)
        start = self._engine.grant(fetched)
        end = start + service
        self._engine.release(end)
        self._prog_ahead += unit.npages * PAGE
        self._eng.append((Run([[start, end]]), unit.npages * PAGE))
        self._admitted(unit.cmd, 1, end)

    def _complete(self, arg) -> None:
        cmd, version = arg
        if version != cmd.version:
            return
        now = self.sim.now
        self._settle(now, now + 1)
        cmd.done.succeed()

    # ---------------------------------------------------------- settlement
    def settle(self) -> None:
        """Credit every computed step done at this instant (see
        :func:`repro.sim.fifo.frontier` for ties)."""
        if not self._settling:
            sim = self.sim
            self._settle(sim.now, cause_instant(sim))

    def _settle(self, now: int, cause: int) -> None:
        """Credit the CALL steps and program ends done at (now, cause);
        ``cause > now`` credits everything completing at *now* too."""
        self._settling = True
        try:
            self._settle_engine(now, cause)
            fetching = self._fetching
            for seg in fetching:
                if seg.full < seg.run.n:
                    if seg.run.time(seg.full, 0) > now:
                        break   # so are the later segments' units
                    self._settle_fetch(seg, now, cause)
            while fetching and fetching[0].full == fetching[0].run.n:
                fetching.popleft()
        finally:
            self._settling = False

    def _settle_engine(self, now: int, cause: int) -> None:
        """Credit the program ends done at (now, cause); they come in
        engine order and strictly rise."""
        eng = self._eng
        while eng:
            run, nbytes = eng[0]
            # an end at exactly now is done if its wait was scheduled
            # before the event now running
            if run.n == 1:      # a unit on its own (per page: keep it lean)
                start, end = run.times[0]
                done = 1 if end < now or (end == now and start < cause) else 0
            else:
                done = run.count_before(1, now)
                if (run.index_at(1, now) == done
                        and run.time(done, 0) < cause):
                    done += 1
            if done > self._edone:
                credit = (done - self._edone) * nbytes
                self.backend._programmed += credit
                self._prog_ahead -= credit
                self._edone = done
            if done < run.n:
                return
            eng.popleft()
            self._edone = 0

    def _settle_fetch(self, seg: _Seg, now: int, cause: int) -> None:
        run, program = seg.run, seg.program
        n, steps = run.n, len(program)
        calls, part = program.calls, seg.part
        # units fetched before now ran every call: one credit per step
        fetched = run.count_before(steps, now)
        if fetched > seg.full:
            # less the units in flight at the last settle that credited
            # some steps already
            credited = [part.pop(m) for m in list(part) if m < fetched]
            for j in program.call_steps:
                k = fetched - seg.full
                for pc in credited:
                    if pc > j:
                        k -= 1
                if k:
                    for fn, arg in calls[j]:
                        fn(arg, k)
            seg.full = fetched
        # the few units in flight: where each stands at now
        for m in range(fetched, n):
            times = run.unit(m)
            if times[0] > now:
                break
            stop = frontier(program, times[1:steps + 1], times[0], now,
                            cause)
            k = part.get(m, 0)
            if stop > k:
                for j in range(k, stop):
                    for fn, arg in calls[j]:
                        fn(arg)
                part[m] = stop
        while seg.full < n and part.get(seg.full) == steps:
            del part[seg.full]
            seg.full += 1

    # ----------------------------------------------------------- arithmetic
    def _servers(self, unit: _Unit) -> List[FifoServer]:
        held = self._held
        return [self._fetch] + [held[r] for r in unit.res]

    def _compute(self) -> None:
        """Compute the queued units as far as the clock: every batch whose
        first unit can be granted a slot by now; wake at the next one's
        grant, or when the last fetch is over.  A split discards at most
        the batch in flight, however deep the queue."""
        queue = self._queue
        now = self.sim.now
        self._settle(now, now)
        self._wake_version += 1
        self._wake_pending = False
        while queue:
            unit = queue[0]
            grant = max(unit.arrival, self._fetch.next_free())
            if unit.program is None or not self._hold(unit.res):
                # not computable: hand back to per-page at its slot grant
                self._wake(grant, self._fallback)
                return
            if grant > now:
                self._wake(grant, self._on_grant)
                return
            queue.popleft()
            runs = schedule(self._program(unit), self._servers(unit),
                            unit.arrival, unit.count)
            self.walks += len(runs)
            self._stretch += unit.count
            for run in runs:
                self._add(unit, run)
        # release the held resources once the last fetch is over
        end = now
        if self._fetching:
            run = self._fetching[-1].run
            end = run.time(run.n - 1, -1) + 1
        self._wake(end, self._on_drained, pending=False)

    def _wake(self, when: int, fn, pending: bool = True) -> None:
        """Call *fn* at *when* unless the stream moves on before.  A
        *pending* wake-up owes the queue its computation: arrivals leave
        it to the wake-up instead of computing themselves."""
        self._wake_pending = pending
        self.sim.schedule_call(max(0, when - self.sim.now), fn,
                               self._wake_version)

    def _on_grant(self, version: int) -> None:
        if version == self._wake_version and self._coarse:
            self._compute()

    def _fallback(self, version: int) -> None:
        if version == self._wake_version and self._coarse:
            self._split(self.sim.now)
            self._fill_slots(hop=True)

    def _on_drained(self, version: int) -> None:
        if version == self._wake_version and self._coarse \
                and not self._queue:
            self._split(self.sim.now)

    def _hold(self, resources) -> bool:
        """Hold *resources* at full capacity (True), or False when one is
        in use by anything but this stream."""
        held = self._held
        for res in resources:
            if res not in held and not self._idle(res, 0, 0):
                return False
        for res in resources:
            if res not in held:
                held[res] = FifoServer(res.capacity, self.sim.now)
                self._seize(res)
        return True

    @staticmethod
    def _idle(res, holders: int, queued: int) -> bool:
        return (res._in_use == holders and len(res._waiters) == queued
                and res._contention_fn is None and res._contention is None)

    def _seize(self, res) -> None:
        res._in_use = res.capacity
        res._waiters.clear()
        res.watch_contention_fn(self._watch)

    def _on_contention(self) -> None:
        self._split()
        self._fill_slots(hop=True)

    # ---------------------------------------------------------------- split
    def _split(self, cause: Optional[int] = None) -> None:
        """An outsider queued on a held resource (or a page cannot be
        computed): hand the in-flight pages to per-page generators.

        Steps completing at exactly now are done when their kernel event
        would have run before the current one (*cause*, see
        :func:`repro.sim.fifo.frontier`); the rest resume as
        zero-residual waits that run right after the split.  Only the
        units in flight are materialized from their run.
        """
        sim = self.sim
        t = sim.now
        if cause is None:
            cause = cause_instant(sim)
        self.splits += 1
        self._coarse = False
        self._wake_version += 1
        self._wake_pending = False
        self._settle(t, cause)
        held = self._held
        for res in held:
            res.unwatch_contention_fn(self._watch)
        # where each computed unit not yet fetched stands at t
        moving: List[Tuple[_Unit, int, List[int], int]] = []
        requeue: List[_Unit] = []
        fetching = self._fetching
        for seg in fetching:
            program, run = seg.program, seg.run
            for m in range(seg.full, run.n):
                times = run.unit(m)
                g = times[0]
                times = times[1:]
                pc = 0 if g > t else frontier(program, times, g, t, cause)
                if pc == 0 and g >= t:      # its fetch slot is not granted
                    self._requeue(requeue, seg, m)
                    break
                unit = _Unit(seg.cmd, program, seg.res, 0, seg.size,
                             seg.extra if m == 0 else 0, seg.arrival)
                unit.g = g
                moving.append((unit, pc, times, seg.part.get(m, 0)))
        undone = len(moving)
        for unit in requeue:
            undone += unit.count
        if self._stretch - undone < MIN_STRETCH:
            self._backoff = min(2 * self._backoff or 1, COOLDOWN_MAX)
        else:
            self._backoff = 0
        self._cooldown = self._backoff
        # the program engine forgets every unit not fetched by t (the
        # last ones it was given)
        for seg in reversed(fetching):
            cut = seg.run.n - seg.full
            if not cut:
                break
            self._forget(cut)
            cmd = seg.cmd
            if not cmd.left:
                cmd.version += 1
            cmd.left += cut
            seg.run.n = seg.full
            if seg.full:
                break
        fetching.clear()        # fetches are done or handed to generators
        end = min(self._engine.next_free(), t)
        if self._eng:
            last = self._eng[-1][0]
            end = last.time(last.n - 1, 1)
        self._engine = FifoServer(1, end)
        self._queue.extendleft(reversed(requeue))
        # the reference occupancy of every held resource at t
        outsiders = {}
        for res in held:
            outsiders[res] = list(res._waiters)
            res._waiters.clear()
            res._in_use = 0
        for unit, pc, _, _ in moving:
            for i in held_before(unit.program, pc):
                unit.res[i]._in_use += 1
        for unit, pc, times, credited in moving:
            rec = StepRecord(pc, times[pc], credited)
            op, x = unit.program.ops[pc]
            if op == WAIT:
                first = sim.timeout(times[pc] - t)
            else:  # queued on an ACQ since the step before
                rec.at = times[pc - 1] if pc else unit.g
                first = sim.event()
                unit.res[x]._waiters.append(first)
            self._start_fine(unit, rec, first, True, adopted=True)
        for res in held:
            waiters = res._waiters
            waiters.extend(outsiders[res])
            while waiters and res._in_use < res.capacity:
                res._in_use += 1
                waiters.popleft().succeed()
        self._held = {}
        self._fetch = None

    def _forget(self, units: int) -> None:
        """Drop the last *units* units given to the program engine."""
        eng = self._eng
        while units:
            run, nbytes = eng[-1]
            k = min(units, run.n)
            self._prog_ahead -= k * nbytes
            units -= k
            if k < run.n:
                run.n -= k
            else:
                eng.pop()
        if not eng:
            self._edone = 0

    @staticmethod
    def _requeue(requeue: List[_Unit], seg: _Seg, m: int) -> None:
        """Queue units ``m..`` of *seg* again, joined to the previous
        requeued units when they are alike."""
        extra = seg.extra if m == 0 else 0
        count = seg.run.n - m
        last = requeue[-1] if requeue else None
        if (last is not None and not extra and last.cmd is seg.cmd
                and last.program is seg.program
                and last.arrival == seg.arrival):
            last.count += count
        else:
            requeue.append(_Unit(seg.cmd, seg.program, seg.res, 0, seg.size,
                                 extra, seg.arrival, count))

    # ------------------------------------------------------------ per page
    def _fill_slots(self, hop: bool) -> None:
        """Start queued pages per page while fetch slots are free."""
        sim = self.sim
        queue = self._queue
        while queue and len(self._fine) < self.depth:
            head = queue[0]
            if head.count == 1:
                unit = queue.popleft()
            else:
                head.count -= 1
                unit = _Unit(head.cmd, head.program, head.res, head.addr,
                             head.size, head.extra, head.arrival)
                head.extra = 0
            unit.g = sim.now
            if unit.program is None:
                _ = sim.process(self._legacy_fetch(unit, hop))
                self._fine.append(unit)
                continue
            first = None
            if hop:
                first = sim.event()
                first.succeed()
            self._start_fine(unit, StepRecord(0, sim.now), first, False,
                             adopted=False)

    def _start_fine(self, unit: _Unit, rec: StepRecord, first, skip: bool,
                    adopted: bool) -> None:
        unit.rec = rec
        self._fine.append(unit)
        gen = run_steps(self.sim, unit.program, unit.res, rec, first, skip,
                        on_step=self._try_coarsen,
                        on_done=lambda: self._fine_done(unit))
        name = f"{self.ctl.name}.fetch"
        _ = (adopt(self.sim, gen, name) if adopted
             else self.sim.process(gen, name=name))

    def _legacy_fetch(self, unit: _Unit, hop: bool):
        if hop:
            yield self.sim.timeout(0)
        yield from self.endpoint.dma_read(unit.addr, unit.size,
                                          functional=False)
        self._fine_done(unit)

    def _fine_done(self, unit: _Unit) -> None:
        self._fine.remove(unit)
        unit.rec = None
        if self._cooldown:
            self._cooldown -= 1
        self._admit(unit, self.sim.now)
        if not self._try_coarsen():
            self._fill_slots(hop=False)

    # ------------------------------------------------------------ re-coarsen
    def _try_coarsen(self) -> bool:
        """Absorb the per-page generators into arithmetic when every
        fetch-side resource is idle but for them.  Returns True when it
        did (the calling generator is absorbed with the rest)."""
        if self._coarse or self._cooldown or not (self._queue or self._fine):
            return False
        now = self.sim.now
        holders: Dict[Any, int] = {}
        queued: Dict[Any, int] = {}
        starts = []
        for unit in self._fine:
            rec = unit.rec
            if unit.program is None:
                return False
            pc = rec.pc
            op, x = unit.program.ops[pc]
            own = held_before(unit.program, pc)
            granted = False
            if not rec.blocked:
                start = (pc, now)               # about to run step pc
            elif op == WAIT:
                start = (pc, rec.at - x)        # the wait, from its start
            elif rec.ev._value is not _PENDING:
                own.append(x)                   # granted, resume pending
                start = (pc + 1, now)
                granted = True
            else:
                res = unit.res[x]
                queued[res] = queued.get(res, 0) + 1
                start = (pc, rec.at)
            for i in own:
                res = unit.res[i]
                holders[res] = holders.get(res, 0) + 1
            # the generator ran the calls after every step below rec.pc
            starts.append(start + (granted, max(pc, rec.credited)))
        # ordered (not a set): the checks and seizes must run in the same
        # order every run, or call counts would follow object addresses
        wanted = dict.fromkeys([res for unit in self._fine
                                for res in unit.res])
        if self._queue and self._queue[0].program is not None:
            wanted.update(dict.fromkeys(self._queue[0].res))
        for res in wanted:
            if not self._idle(res, holders.get(res, 0), queued.get(res, 0)):
                return False
        self._held = {res: FifoServer(res.capacity, now, holders.get(res, 0))
                      for res in wanted}
        self._fetch = FifoServer(self.depth, now, len(self._fine))
        fine, self._fine = self._fine, []
        self._stretch = len(fine)
        for unit, (pc, t0, granted, credited) in zip(fine, starts):
            unit.rec.absorbed = True
            unit.rec = None
            # stream-program step pc + 1 is read step pc
            program = self._program(unit)
            servers = self._servers(unit)
            if granted:  # the grant happened; its releases have not
                for r in program.releases[pc]:
                    servers[r].release(now)
            times = [-1] * len(program)
            times[0] = unit.g
            advance(program, servers, pc + 1, t0, times)
            self.walks += 1
            self._add(unit, Run([times])).part[0] = credited
        for res in self._held:
            self._seize(res)
        self._coarse = True
        self._compute()
        return True

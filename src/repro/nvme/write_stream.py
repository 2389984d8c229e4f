"""The coarsened NVMe write payload-fetch path (DESIGN.md §11.7).

A write command fetches its payload page by page through the controller's
shallow fetch pipeline (``data_fetch_depth`` reads in flight), and every
fetched page then passes the program engine in order.  The reference path
(:meth:`NvmeController._fetch_and_program`) runs that as one process per
page: ~18 kernel events a page.  :class:`WriteStream` computes the same
schedule with the arithmetic FIFO servers of :mod:`repro.sim.fifo`:

* **Fetch slots and program engine** are private to the write path, so
  they are always arithmetic: a page's fetch starts at ``max(arrival,
  earliest free slot)`` and its program at ``max(fetch end, previous
  program end)``.  A command waits on one event at its last page's
  program end.
* **The fetch itself** (the fabric's DMA read, as the step program of
  :meth:`PcieFabric.read_program`) is computed while the path is
  quiescent.  The stream then holds every fetch-side resource at full
  capacity — read tags, link directions, the target's read port — with a
  contention callback on each, so any outsider's ``acquire`` (SQE fetch,
  PRP-list read, CQE post, doorbell, host DMA) queues and splits the
  stream synchronously at that instant.
* **A split** hands the in-flight pages (at most ``data_fetch_depth``) to
  per-page generators (:func:`repro.sim.fifo.run_steps`), each resuming
  at its exact step with its residual wait, and releases the held slots
  down to the occupancy the reference has at that instant, so the
  outsider is granted exactly when the reference would grant it.  The
  stream re-coarsens, absorbing those generators, as soon as every
  fetch-side resource is idle again apart from its own pages.
* **Counters** (link wire bytes, fabric traffic, target memory stats,
  ``programmed_bytes``) are credited lazily.  Link and traffic observers
  and ``programmed_bytes`` settle the stream first, so a mid-run read
  sees the reference value; memory stats settle at splits and command
  completions.

Timing is computed only ``HORIZON`` pages ahead of the clock, so a split
discards little work.  A page whose read is not a FIFO program (on-board
DRAM, multi-chunk spans) runs per page inside the stream.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..sim.core import _PENDING, Event, Simulator
from ..sim.fifo import (WAIT, FifoServer, StepRecord, adopt, advance,
                        cause_instant, frontier, held_before, run_steps)
from ..units import PAGE

__all__ = ["WriteStream"]

#: pages computed ahead of the clock per horizon wake-up
HORIZON = 16
#: a coarse stretch that completes fewer pages than this before it is
#: split doubles the number of pages fetched per page before the next
#: attempt (capped at COOLDOWN_MAX), and a longer one resets it: streams
#: contending for one link, such as two SSDs writing from one FPGA,
#: would otherwise split on nearly every page
MIN_STRETCH = 4
COOLDOWN_MAX = 256


class _Cmd:
    """One write command's wait: ``done`` fires at its last program end."""

    __slots__ = ("done", "last", "version")

    def __init__(self, sim: Simulator) -> None:
        self.done = Event(sim)
        self.last: Optional["_Unit"] = None
        #: bumped when a scheduled completion call goes stale (a split)
        self.version = 0


class _Unit:
    """One payload fetch (a page, or a PRP span) and its program."""

    __slots__ = ("cmd", "addr", "size", "npages", "extra", "program", "res",
                 "arrival", "g", "f", "times", "credited", "rec")

    def __init__(self, cmd: _Cmd, addr: int, size: int, extra: int,
                 program, arrival: int) -> None:
        self.cmd = cmd
        self.addr = addr
        self.size = size
        self.npages = -(-size // PAGE)
        self.extra = extra
        #: FIFO step program of the fetch, or None (always per page)
        self.program, self.res = program if program is not None else (None, ())
        self.arrival = arrival
        self.g = 0                  # fetch start (slot grant)
        self.f = 0                  # fetch end
        #: completion instant of each blocking step (see repro.sim.fifo)
        self.times: List[int] = []
        #: the CALL steps after blocking steps below this index ran
        self.credited = 0
        self.rec: Optional[StepRecord] = None


class WriteStream:
    """Fetch-and-program pipeline of one controller's write commands."""

    def __init__(self, controller) -> None:
        self.ctl = controller
        self.sim: Simulator = controller.sim
        self.backend = controller.backend
        self.endpoint = controller.endpoint
        self.depth = controller.profile.data_fetch_depth
        fabric = controller.endpoint.fabric
        self._queue: Deque[_Unit] = deque()      # waiting for a fetch slot
        self._fine: List[_Unit] = []             # fetching per page
        self._computed: Deque[_Unit] = deque()   # fetch computed
        self._coarse = False
        self._held: Dict[Any, FifoServer] = {}   # resource -> arithmetic twin
        self._fetch: Optional[FifoServer] = None
        #: horizon / fallback wake-up, made stale by bumping the version
        self._wake_version = 0
        self._wake_pending = False
        #: program engine: pending (end, start, bytes, unit) credits
        self._prog: Deque[Tuple[int, int, int, _Unit]] = deque()
        self._prog_end = 0
        self._prog_ahead = 0        # bytes admitted but not yet credited
        self._settling = False
        #: one bound-method object, so unwatch_contention_fn recognizes it
        self._watch = self._on_contention
        #: pages computed in the current coarse stretch; the per-page
        #: fetches owed after a split before the next coarsening attempt,
        #: doubling while stretches stay short
        self._stretch = 0
        self._backoff = 0
        self._cooldown = 0
        self.backend.settle_hook = self.settle
        fabric.traffic.settle_hooks.append(self.settle)
        self._nlinks = 0

    def detach(self) -> None:
        """Unhook from the counters (the controller stops using it)."""
        self.backend.settle_hook = None
        self.endpoint.fabric.traffic.settle_hooks.remove(self.settle)
        for ep in self.endpoint.fabric.endpoints.values():
            if self.settle in ep.link.settle_hooks:
                ep.link.settle_hooks.remove(self.settle)

    # ------------------------------------------------------------- intake
    @property
    def active(self) -> bool:
        """True while any page is queued, fetching or programming."""
        return bool(self._queue or self._fine or self._computed or self._prog)

    def describe(self, runs):
        """The FIFO step program of each payload read (None where a read
        is not one; see :meth:`PcieFabric.read_programs`)."""
        fabric = self.endpoint.fabric
        if len(fabric.endpoints) != self._nlinks:
            # every link's counters settle this stream before a read
            self._nlinks = len(fabric.endpoints)
            for ep in fabric.endpoints.values():
                if self.settle not in ep.link.settle_hooks:
                    ep.link.settle_hooks.append(self.settle)
        return fabric.read_programs(self.endpoint, runs)

    def write(self, runs, programs, overhead_ns: int):
        """Generator: fetch and program *runs*; returns at the last
        page's program end, as ``all_of`` over the reference's per-page
        processes does."""
        sim = self.sim
        cmd = _Cmd(sim)
        now = sim.now
        for idx, ((addr, size), program) in enumerate(zip(runs, programs)):
            unit = _Unit(cmd, addr, size, overhead_ns if idx == 0 else 0,
                         program, now)
            self._queue.append(unit)
        cmd.last = self._queue[-1]
        if self._coarse:
            if not self._wake_pending:
                self._compute()
        elif not self._try_coarsen():
            self._fill_slots(hop=True)
        yield cmd.done

    # ------------------------------------------------------ program engine
    def _admit(self, unit: _Unit, fetched: int) -> None:
        start = fetched if fetched > self._prog_end else self._prog_end
        per_page = self.backend.page_program_ns(self.backend._programmed
                                                + self._prog_ahead)
        end = start + unit.npages * per_page + unit.extra
        self._prog_end = end
        nbytes = unit.npages * PAGE
        self._prog_ahead += nbytes
        self._prog.append((end, start, nbytes, unit))
        cmd = unit.cmd
        if unit is cmd.last:
            self.sim.schedule_call(end - self.sim.now, self._complete,
                                   (cmd, cmd.version))

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
            for unit in self._computed:
                if unit.g > now:
                    break
                program = unit.program
                k = unit.credited
                if k == len(program):
                    continue
                stop = (len(program) if unit.f < now
                        else frontier(program, unit.times, unit.g, now, cause))
                calls = program.calls
                for j in range(k, stop):
                    for fn, arg in calls[j]:
                        fn(arg)
                unit.credited = max(k, stop)
            prog = self._prog
            backend = self.backend
            while prog:
                end, start, nbytes, _ = prog[0]
                if end > now or (end == now and start >= cause):
                    break
                prog.popleft()
                backend._programmed += nbytes
                self._prog_ahead -= nbytes
        finally:
            self._settling = False

    # ----------------------------------------------------------- arithmetic
    def _compute(self) -> None:
        """Compute up to HORIZON queued pages; wake again at the last."""
        sim = self.sim
        queue, fetch, held = self._queue, self._fetch, self._held
        computed = self._computed
        now = sim.now
        self._settle(now, now)
        while computed and computed[0].credited == len(computed[0].program):
            computed.popleft()
        self._wake_version += 1
        self._wake_pending = False
        last_g = None
        for _ in range(HORIZON):
            if not queue:
                # release the held resources once the last fetch is over
                self._wake(computed[-1].f + 1 if computed else now,
                           self._on_drained, pending=False)
                return
            unit = queue[0]
            if unit.program is None or not self._hold(unit.res):
                # not computable: hand back to per-page at its slot grant
                grant = max(unit.arrival, fetch.next_free())
                self._wake(grant, self._fallback)
                return
            queue.popleft()
            self._stretch += 1
            g = fetch.grant(unit.arrival)
            unit.g = g
            unit.times = times = [0] * len(unit.program)
            f = advance(unit.program, [held[r] for r in unit.res], 0, g,
                        times)
            unit.f = f
            fetch.release(f)
            computed.append(unit)
            self._admit(unit, f)
            last_g = g
        if queue:
            self._wake(last_g, self._on_horizon)

    def _wake(self, when: int, fn, pending: bool = True) -> None:
        """Call *fn* at *when* unless the stream moves on before.  A
        *pending* wake-up owes the queue its computation: arrivals leave
        it to the wake-up instead of computing themselves."""
        self._wake_pending = pending
        self.sim.schedule_call(max(0, when - self.sim.now), fn,
                               self._wake_version)

    def _on_horizon(self, version: int) -> None:
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
        zero-residual waits that run right after the split.
        """
        sim = self.sim
        t = sim.now
        if cause is None:
            cause = cause_instant(sim)
        self._coarse = False
        self._wake_version += 1
        self._wake_pending = False
        self._settle(t, cause)
        held = self._held
        for res in held:
            res.unwatch_contention_fn(self._watch)
        # where each computed page stands at t
        moving: List[Tuple[_Unit, int]] = []
        requeue: List[_Unit] = []
        for unit in self._computed:
            pc = frontier(unit.program, unit.times, unit.g, t, cause)
            if pc == 0 and unit.g >= t:
                requeue.append(unit)        # its fetch slot is not granted
            elif pc < len(unit.program):
                moving.append((unit, pc))
        self._computed.clear()
        if self._stretch - len(moving) - len(requeue) < MIN_STRETCH:
            self._backoff = min(2 * self._backoff or 1, COOLDOWN_MAX)
        else:
            self._backoff = 0
        self._cooldown = self._backoff
        # the program engine forgets every page not fetched by t
        undone = {id(u) for u, _ in moving}
        undone.update(id(u) for u in requeue)
        prog = self._prog
        while prog and id(prog[-1][3]) in undone:
            _, _, nbytes, unit = prog.pop()
            self._prog_ahead -= nbytes
            if unit is unit.cmd.last:
                unit.cmd.version += 1
        self._prog_end = prog[-1][0] if prog else min(self._prog_end, t)
        self._queue.extendleft(reversed(requeue))
        # the reference occupancy of every held resource at t
        outsiders = {}
        for res in held:
            outsiders[res] = list(res._waiters)
            res._waiters.clear()
            res._in_use = 0
        for unit, pc in moving:
            for i in held_before(unit.program, pc):
                unit.res[i]._in_use += 1
        for unit, pc in moving:
            times = unit.times
            rec = StepRecord(pc, times[pc], unit.credited)
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

    # ------------------------------------------------------------ per page
    def _fill_slots(self, hop: bool) -> None:
        """Start queued pages per page while fetch slots are free."""
        sim = self.sim
        while self._queue and len(self._fine) < self.depth:
            unit = self._queue.popleft()
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
        wanted = dict.fromkeys(res for unit in self._fine for res in unit.res)
        if self._queue and self._queue[0].program is not None:
            wanted.update(dict.fromkeys(self._queue[0].res))
        for res in wanted:
            if not self._idle(res, holders.get(res, 0), queued.get(res, 0)):
                return False
        held = {res: FifoServer(res.capacity, now, holders.get(res, 0))
                for res in wanted}
        fetch = FifoServer(self.depth, now, len(self._fine))
        fine, self._fine = self._fine, []
        self._stretch = len(fine)
        for unit, (pc, t0, granted, credited) in zip(fine, starts):
            unit.rec.absorbed = True
            unit.rec = None
            servers = [held[r] for r in unit.res]
            if granted:  # the grant happened; its releases have not
                for r in unit.program.releases[pc - 1]:
                    servers[r].release(now)
            unit.times = times = [-1] * len(unit.program)
            unit.credited = credited
            unit.f = f = advance(unit.program, servers, pc, t0, times)
            fetch.release(f)
            self._computed.append(unit)
            self._admit(unit, f)
        for res in held:
            self._seize(res)
        self._held = held
        self._fetch = fetch
        self._coarse = True
        self._compute()
        return True

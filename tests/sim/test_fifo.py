"""Arithmetic FIFO servers (repro.sim.fifo) against Resource + timeout.

The coarsened NVMe write stream (DESIGN.md §11.7) rests on two claims
pinned here: the arithmetic schedule of a chain of k-server FIFO stages
equals what ``Resource`` + ``timeout`` processes produce, for capacity 1
and capacity > 1; a unit handed back to real resources at any
instant of its service (``frontier`` + ``run_steps``) finishes exactly
when the arithmetic said it would; and a closed-form periodic run
(``schedule``) equals computing every unit with ``advance``.
"""

import numpy as np
import pytest

from repro.errors import CoarseningError, ConfigError
from repro.sim import Simulator
from repro.sim.fifo import (ACQ, CALL, REL, WAIT, FifoServer, Program,
                            StepRecord, advance, check_coarsening,
                            clamped_state, frontier, held_before, run_steps,
                            schedule)
from repro.sim.resources import Resource


def _reference(steps_per_unit, arrivals, capacities):
    """Completion instant of every step, simulated with Resources."""
    sim = Simulator()
    res = [Resource(sim, c) for c in capacities]
    out = [[None] * len(s) for s in steps_per_unit]

    def unit(i, steps):
        yield sim.timeout(arrivals[i])
        for k, (op, x, _) in enumerate(steps):
            if op == ACQ:
                yield res[x].acquire()
            elif op == REL:
                res[x].release()
            elif op == WAIT:
                yield sim.timeout(x)
            out[i][k] = sim.now

    for i, steps in enumerate(steps_per_unit):
        _ = sim.process(unit(i, steps))
    sim.run()
    return out


def _arithmetic(steps_per_unit, arrivals, capacities):
    """Completion instant of every blocking step, computed."""
    servers = [FifoServer(c) for c in capacities]
    out = []
    for steps, arrival in zip(steps_per_unit, arrivals):
        program = Program(steps)
        times = [0] * len(program)
        advance(program, servers, 0, arrival, times)
        out.append(times)
    return out


def _blocking(steps_per_unit, reference):
    return [[times[k] for k in Program(steps).blocking]
            for steps, times in zip(steps_per_unit, reference)]


def _hold(server, service):
    return [(ACQ, server, None), (WAIT, service, None), (REL, server, None)]


class TestSchedule:
    @pytest.mark.parametrize("seed", range(5))
    def test_single_server_chain_with_varied_service(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        arrivals = sorted(int(a) for a in rng.integers(0, 2000, n))
        units = [_hold(0, int(rng.integers(1, 90)))
                 + [(WAIT, 75, None)]
                 + _hold(1, int(rng.integers(1, 90)))
                 for _ in range(n)]
        assert _arithmetic(units, arrivals, [1, 1]) == _blocking(
            units, _reference(units, arrivals, [1, 1]))

    @pytest.mark.parametrize("capacity", [2, 3, 5])
    def test_k_server_stage_with_varied_service(self, capacity):
        rng = np.random.default_rng(capacity)
        n = 60
        arrivals = sorted(int(a) for a in rng.integers(0, 1500, n))
        units = [_hold(0, int(rng.integers(1, 200))) for _ in range(n)]
        assert _arithmetic(units, arrivals, [capacity]) == _blocking(
            units, _reference(units, arrivals, [capacity]))

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_k_server_hold_across_a_chain(self, depth):
        # the NVMe fetch pipeline: a depth-k hold around 1-server stages
        units = [[(ACQ, 0, None)] + _hold(1, 25) + [(WAIT, 210, None)]
                 + _hold(2, 224) + _hold(3, 570) + [(WAIT, 75, None),
                                                    (REL, 0, None)]
                 for _ in range(30)]
        arrivals = [0] * 10 + [5000] * 20
        caps = [depth, 1, 1, 1]
        assert _arithmetic(units, arrivals, caps) == _blocking(
            units, _reference(units, arrivals, caps))

    def test_held_server_frees_at_its_release(self):
        server = FifoServer(2, now=100, held=1)
        assert server.grant(50) == 100
        server.release(400)
        assert server.grant(120) == 400

    def test_held_bounds(self):
        with pytest.raises(ValueError):
            FifoServer(1, held=2)


class TestSplit:
    PROGRAM = Program([(ACQ, 0, None), (WAIT, 5, None), (REL, 0, None),
                       (CALL, None, "a"), (WAIT, 3, None),
                       (ACQ, 1, None), (WAIT, 4, None), (REL, 1, None),
                       (CALL, None, "b")])
    STARTS = (0, 2)

    def _split_at(self, t):
        """Compute two contending units, hand both to real resources at
        instant *t*; returns their completion instants and the calls run
        after the split, against the arithmetic's completion instants."""
        program = self.PROGRAM
        servers = [FifoServer(1), FifoServer(1)]
        plans = []
        for start in self.STARTS:
            times = [0] * len(program)
            end = advance(program, servers, 0, start, times)
            plans.append((start, times, end))
        sim = Simulator()
        res = [Resource(sim, 1), Resource(sim, 1)]
        done, calls = {}, []

        def split():
            yield sim.timeout(t)
            moving = []
            for i, (start, times, _) in enumerate(plans):
                pc = frontier(program, times, start, t, cause=0)
                if pc == 0 and start >= t:
                    moving.append((i, 0, None))  # not started: run fresh
                elif pc == len(program):
                    done[i] = times[-1]
                else:
                    for s in held_before(program, pc):
                        res[s]._in_use += 1
                    moving.append((i, pc, times))
            for i, pc, times in moving:
                unit = Program([(op, (lambda arg, i=i: calls.append((i, arg)))
                                 if op == CALL else x, y)
                                for op, x, y in program.steps])
                if times is None:
                    first, skip = sim.timeout(plans[i][0] - t), False
                elif program.ops[pc][0] == WAIT:
                    first, skip = sim.timeout(times[pc] - t), True
                else:
                    first, skip = sim.event(), True
                    res[program.ops[pc][1]]._waiters.append(first)
                rec = StepRecord(pc, 0, credited=pc)
                _ = sim.process(run_steps(
                    sim, unit, res, rec, first, skip,
                    on_done=lambda i=i: done.__setitem__(i, sim.now)))

        _ = sim.process(split())
        sim.run()
        return [done[0], done[1]], calls, [end for _, _, end in plans]

    def test_split_is_exact_at_every_instant(self):
        _, _, ends = self._split_at(0)
        for t in range(0, max(ends) + 2):
            done, calls, expected = self._split_at(t)
            assert done == expected, t
            # each unit runs each call at most once, in program order
            for i in (0, 1):
                mine = [arg for j, arg in calls if j == i]
                assert mine in ([], ["b"], ["a", "b"]), (t, mine)


def _random_program(rng, nservers):
    """A seeded step program: a hold of server 0 around holds of the
    others and plain waits, every acquire released before the end."""
    steps = [(ACQ, 0, None)]
    for _ in range(int(rng.integers(1, 5))):
        if rng.random() < 0.3:
            steps.append((WAIT, int(rng.integers(1, 60)), None))
            continue
        server = int(rng.integers(1, nservers))
        steps += _hold(server, int(rng.integers(1, 60)))
        if rng.random() < 0.5:
            steps.append((CALL, None, server))
    steps += [(WAIT, int(rng.integers(0, 30)), None), (REL, 0, None)]
    return Program(steps)


def _units(runs):
    """Every unit's step instants, materialized from *runs*."""
    return [run.unit(m) for run in runs for m in range(run.n)]


def _per_unit(program, servers, arrival, count):
    out = []
    for _ in range(count):
        times = [0] * len(program)
        advance(program, servers, 0, arrival, times)
        out.append(times)
    return out


class TestPeriodicRun:
    """``schedule`` against repeated ``advance``."""

    @pytest.mark.parametrize("seed", range(40))
    def test_closed_form_equals_per_unit(self, seed):
        rng = np.random.default_rng(seed)
        nservers = int(rng.integers(2, 5))
        caps = [int(c) for c in rng.integers(1, 4, nservers)]
        now = [int(t) for t in rng.integers(0, 300, nservers)]
        fast = [FifoServer(c, t) for c, t in zip(caps, now)]
        slow = [FifoServer(c, t) for c, t in zip(caps, now)]
        arrival = 0
        # a few pieces in a row: programs change, arrivals move on, and a
        # late arrival binds the first units of its piece
        for _ in range(4):
            program = _random_program(rng, nservers)
            count = int(rng.integers(1, 120))
            runs = schedule(program, fast, arrival, count)
            assert _units(runs) == _per_unit(program, slow, arrival, count)
            assert len(runs) <= count
            start = runs[-1].time(runs[-1].n - 1, 0)
            assert clamped_state(fast, start) == clamped_state(slow, start)
            arrival += int(rng.integers(0, 4000))

    def test_steady_pipeline_becomes_one_run(self):
        # the NVMe fetch shape: a depth-2 slot around single servers
        program = Program([(ACQ, 0, None)] + _hold(1, 25)
                          + [(WAIT, 210, None)] + _hold(2, 224)
                          + _hold(3, 570) + [(WAIT, 75, None),
                                             (REL, 0, None)])
        servers = [FifoServer(c) for c in (2, 1, 1, 1)]
        runs = schedule(program, servers, 0, 500)
        assert sum(run.n for run in runs) == 500
        assert len(runs) < 10 and runs[-1].n > 490
        assert _units(runs) == _per_unit(
            program, [FifoServer(c) for c in (2, 1, 1, 1)], 0, 500)

    def test_arrival_bound_units_stay_per_unit(self):
        # slots to spare: every unit starts on its arrival, never on a
        # grant, so no state may stand for the next unit
        program = Program([(ACQ, 0, None), (WAIT, 10, None), (REL, 0, None)])
        runs = schedule(program, [FifoServer(64)], 5, 40)
        assert [run.n for run in runs] == [1] * 40

    def test_program_starting_with_a_wait_stays_per_unit(self):
        program = Program([(WAIT, 3, None)] + _hold(0, 10))
        servers = [FifoServer(1)]
        runs = schedule(program, servers, 0, 30)
        assert [run.n for run in runs] == [1] * 30
        assert _units(runs) == _per_unit(program, [FifoServer(1)], 0, 30)

    def test_run_counts_and_ties(self):
        program = Program(_hold(0, 10))
        runs = schedule(program, [FifoServer(1)], 0, 50)
        run = runs[-1]
        times = [run.unit(m) for m in range(run.n)]
        for t in range(0, 520, 7):
            assert run.count_before(1, t) == sum(u[1] < t for u in times)
            at = [m for m, u in enumerate(times) if u[1] == t]
            assert run.index_at(1, t) == (at[0] if at else None)


class TestSplitInsideRun:
    """A split at every instant of a run's k-th unit: the units in
    flight, materialized from the run and handed to ``run_steps``, finish
    exactly when the arithmetic said."""

    PROGRAM = Program([(ACQ, 0, None), (ACQ, 1, None), (WAIT, 5, None),
                       (REL, 1, None), (CALL, None, "a"), (WAIT, 3, None),
                       (ACQ, 2, None), (WAIT, 7, None), (REL, 2, None),
                       (CALL, None, "b"), (REL, 0, None)])
    CAPS = (2, 1, 1)
    N = 30

    def _plan(self):
        runs = schedule(self.PROGRAM, [FifoServer(c) for c in self.CAPS],
                        0, self.N)
        assert runs[-1].n > 10           # the k-th unit below is in a run
        return _units(runs)

    def _split_at(self, units, t):
        program = self.PROGRAM
        sim = Simulator()
        res = [Resource(sim, c) for c in self.CAPS]
        done, calls = {}, []
        steps = len(program)

        def unit_program(i):
            return Program([(op, (lambda arg, i=i: calls.append((i, arg)))
                             if op == CALL else x, y)
                            for op, x, y in program.steps])

        def split():
            yield sim.timeout(t)
            moving, fresh = [], []
            for i, times in enumerate(units):
                pc = frontier(program, times, 0, t, cause=0)
                if pc == 0 and times[0] >= t:
                    fresh.append(i)
                elif pc == steps:
                    done[i] = times[-1]
                else:
                    for s in held_before(program, pc):
                        res[s]._in_use += 1
                    moving.append((i, pc, times))
            for i, pc, times in moving:
                if program.ops[pc][0] == WAIT:
                    first = sim.timeout(times[pc] - t)
                else:
                    first = sim.event()
                    res[program.ops[pc][1]]._waiters.append(first)
                _ = sim.process(run_steps(
                    sim, unit_program(i), res, StepRecord(pc, 0, pc), first,
                    True, on_done=lambda i=i: done.__setitem__(i, sim.now)))
            for i in fresh:  # queued on the first acquire since 0, in order
                _ = sim.process(run_steps(
                    sim, unit_program(i), res, StepRecord(0, t), None, False,
                    on_done=lambda i=i: done.__setitem__(i, sim.now)))

        _ = sim.process(split())
        sim.run()
        return [done[i] for i in range(len(units))], calls

    def test_split_at_every_instant_of_a_run_unit(self):
        units = self._plan()
        k = self.N - 8
        expected = [times[-1] for times in units]
        for t in range(units[k][0], units[k][-1] + 2):
            done, calls = self._split_at(units, t)
            assert done == expected, t
            for i in range(self.N):
                mine = [arg for j, arg in calls if j == i]
                assert mine in ([], ["b"], ["a", "b"]), (t, i, mine)


class TestCoarseningKnob:
    def test_known_modes_pass(self):
        assert check_coarsening("train") == "train"
        assert check_coarsening("per_frame") == "per_frame"

    def test_unknown_mode_is_config_and_value_error(self):
        with pytest.raises(CoarseningError, match="unknown coarsening"):
            check_coarsening("warp")
        assert issubclass(CoarseningError, ConfigError)
        assert issubclass(CoarseningError, ValueError)

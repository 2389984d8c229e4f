"""Arithmetic FIFO servers (repro.sim.fifo) against Resource + timeout.

The coarsened NVMe write stream (DESIGN.md §11.7) rests on two claims
pinned here: the arithmetic schedule of a chain of k-server FIFO stages
equals what ``Resource`` + ``timeout`` processes produce, for capacity 1
and capacity > 1; and a unit handed back to real resources at any
instant of its service (``frontier`` + ``run_steps``) finishes exactly
when the arithmetic said it would.
"""

import numpy as np
import pytest

from repro.errors import CoarseningError, ConfigError
from repro.sim import Simulator
from repro.sim.fifo import (ACQ, CALL, REL, WAIT, FifoServer, Program,
                            StepRecord, advance, check_coarsening, frontier,
                            held_before, run_steps)
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


class TestCoarseningKnob:
    def test_known_modes_pass(self):
        assert check_coarsening("train") == "train"
        assert check_coarsening("per_frame") == "per_frame"

    def test_unknown_mode_is_config_and_value_error(self):
        with pytest.raises(CoarseningError, match="unknown coarsening"):
            check_coarsening("warp")
        assert issubclass(CoarseningError, ConfigError)
        assert issubclass(CoarseningError, ValueError)

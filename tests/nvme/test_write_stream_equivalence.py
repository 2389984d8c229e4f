"""The coarsened NVMe write stream against the per-page reference.

Every observable of a write run — per-command CQE times and order,
``ControllerStats``, the fabric's ``TrafficAccountant``, every link's
crossed bytes, memory stats, ``programmed_bytes`` sampled mid-run, and
``sim.now`` — must be equal between ``coarsening="train"`` and
``"per_frame"`` (DESIGN.md §11.7).  Outsiders are injected on the
fetch-side resources at seeded offsets, including offsets that tie
exactly with the reference's per-page stage boundaries.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import StreamerVariant, build_snacc_system
from repro.core.bench import SnaccPerf
from repro.core.config import default_config_for
from repro.faults.plan import FaultConfig
from repro.nvme.controller import NvmeController
from repro.nvme.device import NvmeDeviceConfig
from repro.nvme.profiles import SAMSUNG_990_PRO_LIKE
from repro.sim import Simulator
from repro.sim.resources import Resource
from repro.systems import HOST_MEM_BASE, HostSystemConfig
from repro.units import KiB, MiB

VARIANTS = {"uram": StreamerVariant.URAM,
            "host_dram": StreamerVariant.HOST_DRAM,
            "onboard_dram": StreamerVariant.ONBOARD_DRAM}


def _system(mode, variant="uram", scheduler="calendar", depth=2, span=1,
            faults=None, cmd_pages=None, phase_bytes=None):
    sim = Simulator(scheduler=scheduler)
    profile = replace(SAMSUNG_990_PRO_LIKE, data_fetch_depth=depth,
                      fetch_span_pages=span)
    if phase_bytes is not None:
        profile = replace(profile, write_phase_period_bytes=phase_bytes)
    host = HostSystemConfig(functional=False, coarsening=mode, faults=faults,
                            iommu_enabled=False,
                            ssd=NvmeDeviceConfig(profile=profile))
    streamer = None
    if cmd_pages is not None:
        streamer = replace(default_config_for(VARIANTS[variant]),
                           max_cmd_bytes=cmd_pages * 4 * KiB)
    system = build_snacc_system(sim, VARIANTS[variant], host, streamer)
    system.initialize()
    return sim, system


def _resources(system):
    """The fetch-side resources outsiders contend on, by role."""
    ssd_link = system.host.ssd.endpoint.link
    fpga_link = system.platform.endpoint.link
    out = {"ssd.up": ssd_link._dirs["up"], "ssd.down": ssd_link._dirs["down"],
           "fpga.up": fpga_link._dirs["up"],
           "ssd.tags": system.host.ssd.endpoint.read_tags,
           "host.rd": system.host.host_mem._ports["read"]}
    uram = getattr(system.streamer, "_uram", None)
    if uram is not None:
        out["uram.rd"] = uram._ports["read"]
    return out


def _outsider(sim, system, kind, start, arg):
    """One injected outsider process: *kind* at instant *start*."""
    fabric = system.host.fabric
    ssd_ep = system.host.ssd.endpoint
    fpga_ep = system.platform.endpoint

    def body():
        yield sim.timeout(start)
        if kind in _resources(system):
            res = _resources(system)[kind]
            yield res.acquire()
            yield sim.timeout(arg)
            res.release()
        elif kind == "ctl_dma":      # extra controller read of host memory
            yield from ssd_ep.dma_read(HOST_MEM_BASE + arg * KiB, 4 * KiB,
                                       functional=False)
        elif kind == "doorbell":     # a CQ-head style posted write (P2P)
            yield from fpga_ep.dma_write(HOST_MEM_BASE + arg * KiB,
                                         nbytes=64)
        elif kind == "host_mmio":    # CPU read of the SSD doorbell page
            yield from fabric.host_mmio_read(
                system.host.ssd.doorbell_base + 0x1000, 4)
        elif kind == "host_dma":     # FPGA DMA from host memory
            yield from fpga_ep.dma_read(HOST_MEM_BASE + arg * KiB, 4 * KiB,
                                        functional=False)
        done.append((kind, start, sim.now))

    done = _DONE.setdefault(id(sim), [])
    _ = sim.process(body())


_DONE = {}


def _observe(sim, system):
    host = system.host
    fabric = host.fabric
    links = {name: (ep.link.crossed_bytes("up"), ep.link.crossed_bytes("down"))
             for name, ep in fabric.endpoints.items()}
    mems = {"host": vars_of(host.host_mem.stats)}
    uram = getattr(system.streamer, "_uram", None)
    if uram is not None:
        mems["uram"] = vars_of(uram.stats)
    mems["dram"] = vars_of(system.platform.dram.stats)
    return {"now": sim.now,
            "programmed": host.ssd.backend.programmed_bytes,
            "traffic": fabric.traffic.snapshot(),
            "ops": {s: fabric.traffic.ops_on(s)
                    for s in ("fpga", "ssd", "host")},
            "links": links, "mems": mems,
            "stats": vars(host.ssd.controller.stats).copy()}


def vars_of(stats):
    return {k: getattr(stats, k) for k in stats.__slots__}


def _observe_mems(system):
    """The read counters of the write's source memory, read first and
    alone: nothing else settles the stream before them."""
    uram = getattr(system.streamer, "_uram", None)
    mem = uram if uram is not None else system.host.host_mem
    stats = mem.stats
    return stats.reads, stats.read_bytes


def run_world(mode, variant="uram", scheduler="calendar", depth=2, span=1,
              faults=None, nbytes=1 * MiB, outsiders=(), samples=(),
              reset_at=None, mem_samples=(), cmd_pages=None,
              phase_bytes=None):
    """Observables of one sequential write with injected outsiders."""
    sim, system = _system(mode, variant, scheduler, depth, span, faults,
                          cmd_pages, phase_bytes)
    cqes = []
    ctl = system.host.ssd.controller
    orig = ctl._post_cqe

    def post(sq, cid, status, result):
        cqes.append((sim.now, sq.qid, cid, status))
        return orig(sq, cid, status, result)

    ctl._post_cqe = post
    t0 = sim.now
    for kind, offset, arg in outsiders:
        _outsider(sim, system, kind, t0 + offset, arg)
    seen = []

    def sampler(at):
        # one observer per instant, each scheduled at the run's start
        yield sim.timeout(at)
        seen.append((at, _observe(sim, system)))
        if at == reset_at:
            system.host.fabric.traffic.reset()
            for ep in system.host.fabric.endpoints.values():
                ep.link.reset_counters()

    for at in samples:
        _ = sim.process(sampler(at))
    mems = []

    def mem_sampler(at):
        yield sim.timeout(at)
        mems.append((at, _observe_mems(system)))

    for at in mem_samples:
        _ = sim.process(mem_sampler(at))
    perf = SnaccPerf(sim, system.user)
    run = sim.run_process(perf.seq_write(nbytes))
    sim.run()  # let outsiders and samplers finish
    out = _observe(sim, system)
    out.update(cqes=cqes, samples=sorted(seen, key=lambda x: x[0]),
               mem_samples=mems, elapsed=run.elapsed_ns,
               outsiders=_DONE.pop(id(sim), []))
    return out


def _assert_equal(**kw):
    train = run_world("train", **kw)
    ref = run_world("per_frame", **kw)
    assert train == ref
    return ref


def _boundaries(variant="uram", depth=2, span=1, nbytes=512 * KiB,
                cmd_pages=None):
    """Instants the reference grants or frees a fetch-side resource."""
    sim, system = _system("per_frame", variant, depth=depth, span=span,
                          cmd_pages=cmd_pages)
    watched = set(map(id, _resources(system).values()))
    times = []
    acquire, release = Resource.acquire, Resource.release

    def acq(self):
        if id(self) in watched:
            times.append(sim.now)
        return acquire(self)

    def rel(self):
        if id(self) in watched:
            times.append(sim.now)
        return release(self)

    Resource.acquire, Resource.release = acq, rel
    try:
        t0 = sim.now
        sim.run_process(SnaccPerf(sim, system.user).seq_write(nbytes))
    finally:
        Resource.acquire, Resource.release = acquire, release
    return sorted({t - t0 for t in times if t >= t0})


class TestEquivalence:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("depth", [1, 2, 4])
    @pytest.mark.parametrize("span", [1, 8])
    def test_quiet_write(self, variant, depth, span):
        _assert_equal(variant=variant, depth=depth, span=span)

    @pytest.mark.parametrize("scheduler", ["calendar", "heap"])
    @pytest.mark.parametrize("variant", ["uram", "host_dram"])
    def test_random_outsiders(self, scheduler, variant):
        rng = np.random.default_rng(0x5EED)
        kinds = ["ssd.up", "ssd.down", "fpga.up", "ssd.tags", "host.rd",
                 "ctl_dma", "doorbell", "host_mmio", "host_dma"]
        if variant == "uram":
            kinds.append("uram.rd")
        for trial in range(3):
            outsiders = [(str(rng.choice(kinds)), int(rng.integers(0, 150_000)),
                          int(rng.integers(1, 400)))
                         for _ in range(40)]
            _assert_equal(variant=variant, scheduler=scheduler,
                          nbytes=512 * KiB, outsiders=outsiders)

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_outsiders_tied_to_stage_boundaries(self, depth):
        bounds = _boundaries(depth=depth)
        rng = np.random.default_rng(depth)
        kinds = ["ssd.up", "ssd.down", "fpga.up", "ssd.tags", "uram.rd",
                 "ctl_dma", "host_mmio", "host_dma", "doorbell"]
        picks = rng.choice(len(bounds), size=60, replace=False)
        outsiders = [(kinds[i % len(kinds)], int(bounds[p]), 1 + i % 7)
                     for i, p in enumerate(sorted(picks))]
        _assert_equal(depth=depth, nbytes=512 * KiB, outsiders=outsiders)

    def test_armed_fault_plan_falls_back(self):
        faults = FaultConfig(nvme_cqe_delay_rate=0.2, pcie_tlp_loss_rate=0.01)
        ref = _assert_equal(faults=faults, nbytes=512 * KiB)
        assert ref["stats"]["writes_completed"] > 0

    def test_stream_engages_and_cuts_events(self):
        counts = {}
        for mode in ("train", "per_frame"):
            sim, system = _system(mode)
            seq0 = sim._seq
            sim.run_process(SnaccPerf(sim, system.user).seq_write(2 * MiB))
            counts[mode] = sim._seq - seq0
        assert counts["train"] * 3 < counts["per_frame"]


def _runs(monkeypatch):
    """Record ``(c, n)`` of every closed-form fetch run the stream makes."""
    import repro.nvme.write_stream as ws
    made = []
    schedule = ws.schedule

    def spy(*args):
        runs = schedule(*args)
        made.extend((len(run.times), run.n) for run in runs if run.n > 1)
        return runs

    monkeypatch.setattr(ws, "schedule", spy)
    return made


class TestPeriodicRuns:
    """Closed-form runs (repro.sim.fifo.schedule) inside the stream."""

    @pytest.mark.parametrize("variant, period", [("uram", 2),
                                                 ("host_dram", 1)])
    @pytest.mark.parametrize("depth", [1, 2, 4])
    @pytest.mark.parametrize("cmd_pages", [64, 512])
    def test_long_commands(self, monkeypatch, variant, period, depth,
                           cmd_pages):
        made = _runs(monkeypatch)
        _assert_equal(variant=variant, depth=depth, cmd_pages=cmd_pages,
                      nbytes=2 * cmd_pages * 4 * KiB)
        assert made and max(n for _, n in made) > cmd_pages // 2
        if depth == 2:  # URAM over P2P repeats every 2 pages, host DRAM 1
            assert {c for c, _ in made} == {period}

    def test_outsider_at_every_page_of_a_run(self):
        # one 64-page command; one outsider per world, each at an exact
        # reference step boundary, about one per page of the command
        bounds = _boundaries(nbytes=256 * KiB, cmd_pages=64)
        kinds = ["ssd.up", "ssd.down", "fpga.up", "ssd.tags", "uram.rd",
                 "ctl_dma", "host_mmio", "host_dma", "doorbell"]
        for i, at in enumerate(bounds[::max(1, len(bounds) // 64)]):
            _assert_equal(nbytes=256 * KiB, cmd_pages=64,
                          outsiders=[(kinds[i % len(kinds)], int(at),
                                      1 + i % 5)])

    @pytest.mark.parametrize("variant", ["uram", "host_dram"])
    def test_write_phase_flips_inside_runs(self, variant):
        # a 37-page phase period flips the program time several times
        # inside every 256-page command's run
        rng = np.random.default_rng(11)
        samples = tuple(sorted(int(x)
                               for x in rng.integers(1, 400_000, size=15)))
        outsiders = [("ssd.tags", int(t), 50)
                     for t in rng.integers(0, 400_000, size=3)]
        ref = _assert_equal(variant=variant, nbytes=1 * MiB,
                            phase_bytes=37 * 4 * KiB, samples=samples,
                            outsiders=outsiders)
        assert ref["programmed"] == 1 * MiB


class TestStreamCost:
    def test_unit_computations_scale_with_commands_and_splits(self):
        # host-independent guard against falling back to per-page
        # arithmetic: a 32 MiB write is 8192 pages in 32 commands
        sim, system = _system("train")
        ctl = system.host.ssd.controller
        sim.run_process(SnaccPerf(sim, system.user).seq_write(32 * MiB))
        stream = ctl._stream
        commands = ctl.stats.writes_completed
        assert commands == 32
        assert stream.walks <= 16 * (commands + stream.splits)
        assert 2 * stream.walks < 32 * MiB // (4 * KiB)


class TestMidStreamObservation:
    def test_samples_and_reset_inside_stream(self, variant="uram"):
        rng = np.random.default_rng(7)
        samples = sorted(int(x) for x in rng.integers(1, 150_000, size=25))
        bounds = _boundaries(variant)
        samples += [int(b) for b in bounds[100:110]]
        _assert_equal(variant=variant, nbytes=512 * KiB,
                      samples=tuple(samples), reset_at=samples[5])

    def test_samples_and_reset_inside_host_dram_runs(self):
        self.test_samples_and_reset_inside_stream("host_dram")

    @pytest.mark.parametrize("variant", ["uram", "host_dram"])
    def test_memory_stats_settle_when_read(self, variant):
        # the source memory's read counters, read before anything else
        # could settle the stream, equal the reference mid-stream
        rng = np.random.default_rng(23)
        at = tuple(sorted(int(x) for x in rng.integers(1, 150_000, size=20)))
        ref = _assert_equal(variant=variant, nbytes=512 * KiB,
                            mem_samples=at)
        assert len({reads for _, reads in ref["mem_samples"]}) > 10

    def test_functional_controller_keeps_per_page_path(self):
        sim = Simulator()
        system = build_snacc_system(sim, StreamerVariant.URAM,
                                    HostSystemConfig(functional=True))
        assert system.host.ssd.controller._stream is None

    def test_per_frame_controller_has_no_stream(self):
        sim, system = _system("per_frame")
        assert isinstance(system.host.ssd.controller, NvmeController)
        assert system.host.ssd.controller._stream is None


class _World:
    def __init__(self, mode):
        self.mode = mode
        self.sim, self.system = _system(mode)
        self.t0 = self.sim.now


def _fork_branches():
    def make(kind, offset):
        def branch(world):
            sim = world.sim
            if kind is not None:
                _outsider(sim, world.system, kind, offset, 50)
            sim.run()
            out = _observe(sim, world.system)
            out["outsiders"] = _DONE.pop(id(sim), [])
            return out
        return branch
    return [make(None, 0), make("ssd.up", 70_000), make("uram.rd", 70_000),
            make("host_dma", 71_234)]


class TestForkInsideStream:
    """fork == replay == cold with the checkpoint inside a coarsened
    stretch, and every branch equal across modes."""

    @staticmethod
    def _engine(mode):
        from repro.sim.snapshot import ScenarioEngine

        def warm(world):
            perf = SnaccPerf(world.sim, world.system.user)
            _ = world.sim.process(perf.seq_write(512 * KiB))
            world.sim.run(until=world.t0 + 60_000)   # mid-stream

        return ScenarioEngine(lambda: _World(mode), warm)

    def test_fork_replay_cold_agree_in_both_modes(self):
        import threading
        import time

        from repro.bench.pool import shutdown_pool
        from repro.sim.snapshot import fork_available
        # the engine refuses to fork beside the warm pool's threads
        shutdown_pool(wait=True)
        for _ in range(100):
            if threading.active_count() == 1:
                break
            time.sleep(0.05)
        mechanisms = ["replay", "cold"] + (["fork"] if fork_available()
                                           else [])
        engine = self._engine("train")
        engine.prepare()
        stream = engine._world.system.host.ssd.controller._stream
        # the checkpoint falls inside a closed-form run
        assert stream._coarse and any(seg.run.n > 1
                                      for seg in stream._fetching)
        results = {}
        for mode in ("train", "per_frame"):
            for mech in mechanisms:
                results[mode, mech] = self._engine(mode).run(
                    _fork_branches(), mechanism=mech)
        first = results["per_frame", "cold"]
        for key, payload in results.items():
            assert payload == first, key


class TestContendingStreams:
    def test_two_ssds_sharing_the_fpga_link(self):
        # two streams split each other on every page; the back-off keeps
        # them per page, and the result must still match the reference
        from repro.bench.experiments.ablations import (_aggregate_seq_write,
                                                       _build_multi_ssd)
        out = {}
        for mode in ("train", "per_frame"):
            sim = Simulator()
            ports = _build_multi_ssd(sim, 2, StreamerVariant.URAM, mode)
            out[mode] = (_aggregate_seq_write(sim, ports, 1 * MiB), sim.now)
        assert out["train"] == out["per_frame"]

"""The benchmark's workloads: fixed simulated inputs, split into cells.

A cell builds its system through the reproduction's public builders, runs
one simulated experiment and checks its simulated outputs. Paper bands come
from ``repro.bench.paper``; the experiment CLI (``python -m repro.bench``)
and its result cache are never used, so every repetition simulates.

Which inputs depend on the seed:

* ``seq_write`` and ``case_study`` take no seed: one sequential transfer and
  one synthetic image stream, both fixed by the reproduction.
* ``rand_read`` draws its 4 KiB addresses from the seed.
* ``fleet`` draws which objects are hot and when requests arrive from the
  seed; the incast cell that rides along takes no seed.

Importing this module imports ``repro``, so the caller puts ``src`` on
``sys.path`` first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.apps.case_study import CaseStudyConfig, run_case_study
from repro.bench.paper import FIG4A, FIG4B, FIG6, Band
from repro.core import StreamerVariant, build_snacc_system
from repro.core.bench import SnaccPerf
from repro.fleet import FleetConfig, FleetWorkload, run_fleet, run_incast
from repro.sim.core import Simulator
from repro.spdk.bench import SpdkPerf
from repro.systems import HostSystemConfig, build_host_system
from repro.units import KiB, MiB

__all__ = ["WORKLOADS", "DEFAULT_SEEDS", "SIZES", "Cell", "CellResult",
           "build_cells"]

WORKLOADS = ("seq_write", "rand_read", "case_study", "fleet")

#: the seeds the reproduction itself uses: ``SnaccPerf``/``SpdkPerf``
#: ``rand_read(seed=1)`` and ``FleetWorkload.seed``
DEFAULT_SEEDS = {"seq_write": 0, "rand_read": 1, "case_study": 0,
                 "fleet": FleetWorkload().seed}

#: ``bench`` is what run.py times; ``tiny`` is for the self-tests.
#: rand_read uses the quick report's 16 MiB: at 4-8 MiB the SPDK cell's
#: queue fill/drain pulls it under the paper's 3.9 GB/s floor. At 8 images
#: the snacc-uram case study still carries pipeline fill and lands under
#: its band; 10 is the smallest run that does not.
SIZES: Dict[str, Dict[str, int]] = {
    "bench": dict(seq_bytes=32 * MiB, rand_bytes=16 * MiB, images=10,
                  warmup_images=2, fleet_requests=3000, incast_senders=6,
                  incast_mib=2),
    "tiny": dict(seq_bytes=2 * MiB, rand_bytes=1 * MiB, images=4,
                 warmup_images=1, fleet_requests=120, incast_senders=3,
                 incast_mib=1),
}

#: fleet shape: the quick report's skew-sweep point (4 nodes, Zipf 1.3)
_FLEET_NODES = 4
_FLEET_SKEW = 1.3
_FLEET_OBJECTS = 1024
_FLEET_GAP_NS = 4000
#: Fixed-size objects. With the default bounded-Pareto sizes, Zipf 1.3 puts
#: most requests on a few objects whose drawn sizes then set the volume:
#: 3000 requests moved 107-424 MB over seeds 101-120, and host time
#: followed. Fixed sizes move the same bytes under every seed.
_FLEET_OBJECT_BYTES = 64 * KiB

#: the model is sized-only (no payload bytes), as in the paper-band runs
_HOST = HostSystemConfig(functional=False)


@dataclass
class CellResult:
    """Simulated outputs of one cell run and what its checks found."""

    #: simulated outputs; all of them go into the cell's digest
    outputs: Dict[str, Any]
    #: payload bytes and simulated ns of the measured window
    nbytes: int
    elapsed_ns: int
    #: one line per failed check; empty when the cell is correct
    problems: List[str] = field(default_factory=list)
    #: model-side layer metrics only the cell's result object carries
    layer: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Cell:
    """One named simulated experiment of a workload."""

    name: str
    run: Callable[[], CellResult]


def _in_band(what: str, value: float, band: Band) -> List[str]:
    return [] if band.contains(value) else [
        f"{what} {value!r} outside paper band {band}"]


def _bandwidth(run: Any, band: Band) -> CellResult:
    return CellResult(
        outputs={"gbps": run.gbps, "elapsed_ns": run.elapsed_ns},
        nbytes=run.total_bytes, elapsed_ns=run.elapsed_ns,
        problems=_in_band("gbps", run.gbps, band))


def _snacc(variant: StreamerVariant) -> Tuple[Simulator, SnaccPerf]:
    sim = Simulator()
    system = build_snacc_system(sim, variant, _HOST)
    system.initialize()
    return sim, SnaccPerf(sim, system.user)


def _spdk() -> Tuple[Simulator, SpdkPerf]:
    sim = Simulator()
    host = build_host_system(sim, _HOST)
    driver = host.spdk_driver()
    sim.run_process(driver.initialize())
    return sim, SpdkPerf(driver)


def _seq_write(size: Dict[str, int], seed: int) -> List[Cell]:
    nbytes = size["seq_bytes"]

    def uram() -> CellResult:
        sim, perf = _snacc(StreamerVariant.URAM)
        run = sim.run_process(perf.seq_write(nbytes))
        return _bandwidth(run, FIG4A["seq_write"]["uram"])

    return [Cell("uram", uram)]


def _rand_read(size: Dict[str, int], seed: int) -> List[Cell]:
    nbytes = size["rand_bytes"]

    def host_dram() -> CellResult:
        sim, perf = _snacc(StreamerVariant.HOST_DRAM)
        run = sim.run_process(perf.rand_read(nbytes, seed=seed))
        return _bandwidth(run, FIG4B["rand_read"]["host_dram"])

    def spdk() -> CellResult:
        sim, perf = _spdk()
        run = sim.run_process(perf.rand_read(nbytes, seed=seed))
        return _bandwidth(run, FIG4B["rand_read"]["spdk"])

    return [Cell("host_dram", host_dram), Cell("spdk", spdk)]


def _case_study(size: Dict[str, int], seed: int) -> List[Cell]:
    config = CaseStudyConfig(n_images=size["images"],
                             warmup_images=size["warmup_images"])

    def implementation(name: str) -> Callable[[], CellResult]:
        def cell() -> CellResult:
            result = run_case_study(name, config)
            return CellResult(
                outputs=result.to_json(), nbytes=result.stored_bytes,
                elapsed_ns=result.elapsed_ns,
                problems=_in_band("gbps", result.gbps, FIG6[name]))
        return cell

    return [Cell(name, implementation(name))
            for name in ("snacc-uram", "spdk")]


def _fleet(size: Dict[str, int], seed: int) -> List[Cell]:
    workload = FleetWorkload(
        n_objects=_FLEET_OBJECTS, zipf_skew=_FLEET_SKEW,
        n_requests=size["fleet_requests"],
        mean_interarrival_ns=_FLEET_GAP_NS, seed=seed,
        min_object_bytes=_FLEET_OBJECT_BYTES,
        max_object_bytes=_FLEET_OBJECT_BYTES)

    def zipf() -> CellResult:
        result = run_fleet(FleetConfig(n_nodes=_FLEET_NODES), workload)
        problems = []
        if result.dropped_frames:
            problems.append(f"dropped {result.dropped_frames} frames")
        if result.completed != result.offered:
            problems.append(f"completed {result.completed} of "
                            f"{result.offered} requests")
        return CellResult(
            outputs=result.as_dict(), nbytes=result.total_bytes,
            elapsed_ns=result.elapsed_ns, problems=problems,
            layer={"fleet.spilled": result.spilled,
                   "fleet.p99_us": result.p99_us})

    def incast() -> CellResult:
        result = run_incast(
            FleetConfig(n_nodes=1, n_gateways=size["incast_senders"]),
            put_bytes=size["incast_mib"] * MiB)
        paused_tiers = ((result.spine_pause_frames > 0)
                        + (result.leaf_pause_frames > 0))
        problems = []
        if paused_tiers != 2:
            problems.append(f"PAUSE reached {paused_tiers} tiers, not 2")
        if result.dropped_frames:
            problems.append(f"dropped {result.dropped_frames} frames")
        return CellResult(
            outputs=result.as_dict(), nbytes=result.total_bytes,
            elapsed_ns=result.elapsed_ns, problems=problems)

    return [Cell("zipf", zipf), Cell("incast", incast)]


_BUILDERS: Dict[str, Callable[[Dict[str, int], int], List[Cell]]] = {
    "seq_write": _seq_write, "rand_read": _rand_read,
    "case_study": _case_study, "fleet": _fleet}


def build_cells(workload: str, seed: int, size: str = "bench") -> List[Cell]:
    """The cells of *workload* on the inputs *seed* draws."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](SIZES[size], seed)

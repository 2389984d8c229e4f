"""Figure 4 reproduction: NVMe bandwidth and latency (paper §5.2-§5.3).

* Fig 4a — sequential read/write bandwidth of a single large transfer;
* Fig 4b — 4 KiB random-address bandwidth at queue depth 64;
* Fig 4c — single-command latency.

``transfer_bytes`` trades fidelity for wall-clock: the paper uses 1 GB;
the default here is large enough that pipeline fill/tail amortize to the
same steady state.
"""

from __future__ import annotations

from typing import List

from ...core import StreamerVariant, build_snacc_system
from ...core.bench import SnaccPerf
from ...nvme.spec import IoOpcode
from ...sim.core import Simulator
from ...spdk.bench import SpdkPerf
from ...systems import HostSystemConfig, build_host_system
from ...units import MiB
from ..paper import FIG4A, FIG4B, FIG4C
from ..runner import ExperimentResult, ExperimentRow

__all__ = ["run_fig4a", "run_fig4b", "run_fig4c", "SYSTEMS",
           "fig4a_point", "fig4b_point", "fig4c_point"]

SYSTEMS = ("spdk", "uram", "onboard_dram", "host_dram")


def _spdk_perf(functional: bool = False, coarsening: str = "train"):
    sim = Simulator()
    system = build_host_system(sim, HostSystemConfig(
        functional=functional, coarsening=coarsening))
    driver = system.spdk_driver()
    sim.run_process(driver.initialize())
    return sim, SpdkPerf(driver), system


def _snacc_perf(variant: StreamerVariant, functional: bool = False,
                coarsening: str = "train"):
    sim = Simulator()
    system = build_snacc_system(
        sim, variant, HostSystemConfig(functional=functional,
                                       coarsening=coarsening))
    system.initialize()
    return sim, SnaccPerf(sim, system.user), system


def fig4a_point(kind: str, system_name: str, transfer_bytes: int,
                repetitions: int = 2,
                coarsening: str = "train") -> List[ExperimentRow]:
    """One (kind, system) cell of Fig 4a on a private simulator."""
    rates = []
    for rep in range(repetitions if kind == "seq_write" else 1):
        if system_name == "spdk":
            sim, perf, system = _spdk_perf(coarsening=coarsening)
            fn = (perf.seq_read if kind == "seq_read"
                  else perf.seq_write)
        else:
            sim, perf, system = _snacc_perf(StreamerVariant(system_name),
                                            coarsening=coarsening)
            fn = (perf.seq_read if kind == "seq_read"
                  else perf.seq_write)
        if kind == "seq_write" and rep:
            # successive 1 GB runs land in alternating internal
            # phases of the drive (paper: 6.24 / 5.90 GB/s)
            system.host.ssd.backend.advance_write_phase() \
                if system_name != "spdk" else \
                system.ssd.backend.advance_write_phase()
        run = sim.run_process(fn(transfer_bytes))
        rates.append(run.gbps)
    measured = sum(rates) / len(rates)
    return [ExperimentRow(kind, system_name, measured, "GB/s",
                          FIG4A[kind][system_name])]


def run_fig4a(transfer_bytes: int = 512 * MiB,
              repetitions: int = 2) -> ExperimentResult:
    """Sequential bandwidth; repetitions expose the write alternation."""
    result = ExperimentResult("fig4a", "sequential NVMe bandwidth (GB/s)")
    for kind in ("seq_read", "seq_write"):
        for name in SYSTEMS:
            result.rows.extend(
                fig4a_point(kind, name, transfer_bytes, repetitions))
    return result


def fig4b_point(kind: str, system_name: str, transfer_bytes: int,
                coarsening: str = "train") -> List[ExperimentRow]:
    """One (kind, system) cell of Fig 4b on a private simulator."""
    if system_name == "spdk":
        sim, perf, _sys = _spdk_perf(coarsening=coarsening)
        fn = perf.rand_read if kind == "rand_read" else perf.rand_write
    else:
        sim, perf, _sys = _snacc_perf(StreamerVariant(system_name),
                                      coarsening=coarsening)
        fn = perf.rand_read if kind == "rand_read" else perf.rand_write
    run = sim.run_process(fn(transfer_bytes))
    return [ExperimentRow(kind, system_name, run.gbps, "GB/s",
                          FIG4B[kind][system_name])]


def run_fig4b(transfer_bytes: int = 32 * MiB) -> ExperimentResult:
    """Random 4 KiB bandwidth at QD 64."""
    result = ExperimentResult("fig4b", "random 4 KiB NVMe bandwidth (GB/s)")
    for kind in ("rand_read", "rand_write"):
        for name in SYSTEMS:
            result.rows.extend(fig4b_point(kind, name, transfer_bytes))
    return result


def fig4c_point(system_name: str, samples: int,
                coarsening: str = "train") -> List[ExperimentRow]:
    """Read+write latency rows for one system on a private simulator."""
    if system_name == "spdk":
        sim, perf, _sys = _spdk_perf(coarsening=coarsening)
        rl = sim.run_process(perf.latency_probe(IoOpcode.READ, samples))
        wl = sim.run_process(perf.latency_probe(IoOpcode.WRITE,
                                                max(10, samples // 3)))
    else:
        sim, perf, _sys = _snacc_perf(StreamerVariant(system_name),
                                      coarsening=coarsening)
        rl = sim.run_process(perf.read_latency(samples))
        wl = sim.run_process(perf.write_latency(max(10, samples // 3)))
    return [
        ExperimentRow("read_latency_us", system_name,
                      sum(rl) / len(rl) / 1000, "us",
                      FIG4C["read_latency_us"][system_name]),
        ExperimentRow("write_latency_us", system_name,
                      sum(wl) / len(wl) / 1000, "us",
                      FIG4C["write_latency_us"][system_name]),
    ]


def run_fig4c(samples: int = 200) -> ExperimentResult:
    """Single 4 KiB access latency."""
    result = ExperimentResult("fig4c", "single 4 KiB access latency (us)")
    for name in SYSTEMS:
        result.rows.extend(fig4c_point(name, samples))
    return result

"""Fault-storm what-ifs branched from one warm prefix (checkpoint/fork).

The scenario every branchy sweep shares: a full SNAcc system boots and
streams a deterministic sequential warmup with the fault storm
*suspended* (``FaultPlan.rate_scale = 0.0`` — every site still consumes
a draw per decision, so stream positions stay aligned with any other
scale), then each branch dials in its own storm intensity and runs a
random-read burst through retries, CQE delays and TLP replays.  With
:class:`~repro.sim.snapshot.ScenarioEngine` the warmup simulates once
and N branches fork from the checkpoint; a cold run pays the full
build + warmup per branch — that ratio is the headline the perf harness
gates (``scripts/perf.py`` schema 4, ≥3x at 16 branches).

The whole sweep is ONE job in the bench plan: the shared prefix lives
in process memory, so it cannot be split across pool workers the way
independent points are.  Equivalence (fork == replay == cold, byte for
byte) is enforced by ``tests/sim/test_snapshot.py`` and the 4-branch
smoke in ``scripts/check.sh``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ...core.bench import SnaccPerf
from ...core.config import StreamerVariant
from ...core.system import SnaccSystem, build_snacc_system
from ...errors import StreamerError
from ...faults import FaultConfig
from ...sim.core import Simulator
from ...sim.snapshot import ScenarioEngine
from ...systems import HostSystemConfig
from ...units import KiB, MiB
from ..runner import ExperimentResult, ExperimentRow

__all__ = ["FORK_SWEEP_TITLE", "storm_scales", "storm_scenario",
           "fork_sweep_point", "fork_sweep"]

FORK_SWEEP_TITLE = ("fault-storm what-ifs branched from one warm prefix "
                    "(checkpoint/fork engine)")

#: base per-command storm rates; branches scale these 0x..3x, staying
#: below the ~0.1 failure rate where the default retry budget exhausts
_STORM_FAULTS = FaultConfig(
    nvme_cmd_fail_rate=0.03,
    nvme_cqe_delay_rate=0.015,
    pcie_tlp_loss_rate=0.003,
    pcie_tlp_corrupt_rate=0.003,
)


def storm_scales(n_branches: int) -> List[float]:
    """The branch intensities: *n* multipliers evenly spread over 0..3x."""
    if n_branches < 1:
        raise ValueError(f"n_branches must be >= 1, got {n_branches}")
    if n_branches == 1:
        return [1.0]
    return [round(3.0 * i / (n_branches - 1), 6) for i in range(n_branches)]


class StormWorld:
    """The scenario's world: a built SNAcc system plus direct handles.

    ``sim`` and ``fault_plan`` follow the attribute convention
    :class:`~repro.sim.snapshot.ScenarioEngine` looks for by default.
    """

    __slots__ = ("system", "sim", "fault_plan")

    def __init__(self, system: SnaccSystem) -> None:
        self.system = system
        self.sim = system.sim
        self.fault_plan = system.host.fault_plan


def storm_scenario(warm_bytes: int, branch_bytes: int, n_branches: int,
                   coarsening: str = "train") -> Tuple[Callable[[], StormWorld],
                              Callable[[StormWorld], None],
                              List[Callable[[StormWorld], Dict[str, Any]]]]:
    """The (setup, warm, branches) triple the scenario engine consumes.

    Exposed separately from :func:`fork_sweep_point` so the perf harness
    can time the exact same scenario under different mechanisms.
    """

    def setup() -> StormWorld:
        sim = Simulator()
        system = build_snacc_system(
            sim, StreamerVariant.URAM,
            HostSystemConfig(functional=False, faults=_STORM_FAULTS,
                             coarsening=coarsening))
        system.initialize()
        world = StormWorld(system)
        # storm suspended for the shared prefix; draws still consumed
        world.fault_plan.rate_scale = 0.0
        return world

    def warm(world: StormWorld) -> None:
        # The shared prefix is deliberately the expensive phase: a
        # sequential prime followed by a random-read prime over the same
        # byte budget (random 4 KiB commands dominate the event count —
        # exactly the work cold re-simulation pays once per branch).
        perf = SnaccPerf(world.sim, world.system.user)
        world.sim.run_process(perf.seq_read(warm_bytes))
        world.sim.run_process(perf.rand_read(warm_bytes))

    def make_branch(scale: float) -> Callable[[StormWorld], Dict[str, Any]]:
        def branch(world: StormWorld) -> Dict[str, Any]:
            world.fault_plan.rate_scale = scale
            perf = SnaccPerf(world.sim, world.system.user)
            try:
                run = world.sim.run_process(perf.rand_read(branch_bytes))
                gbps = run.gbps
            except StreamerError:
                # retry budget exhausted under an extreme storm: the
                # typed error is the datapoint, not a sweep failure
                gbps = 0.0
            stats = world.system.host.fault_stats
            return {
                "scale": scale,
                "gbps": gbps,
                "now": world.sim.now,
                "events": world.sim._seq,
                "faults": stats.as_dict() if stats is not None else None,
            }
        return branch

    branches = [make_branch(scale) for scale in storm_scales(n_branches)]
    return setup, warm, branches


def fork_sweep_point(n_branches: int, warm_bytes: int, branch_bytes: int,
                     mechanism: str = "auto",
                     coarsening: str = "train") -> List[ExperimentRow]:
    """Run the storm sweep once; rows are mechanism-independent.

    Payloads round-trip through JSON under every mechanism and the
    fault streams are position-stable under scaling, so the rows this
    returns are byte-identical whether the sweep forked, replayed, or
    ran cold — which is what lets the job runner cache it like any
    other point.
    """
    setup, warm, branches = storm_scenario(warm_bytes, branch_bytes,
                                           n_branches, coarsening)
    engine = ScenarioEngine(setup, warm, mechanism=mechanism)
    rows: List[ExperimentRow] = []
    for payload in engine.run(branches):
        label = f"x{payload['scale']:g}"
        faults = payload["faults"] or {}
        rows.append(ExperimentRow("storm_gbps", label,
                                  payload["gbps"], "GB/s"))
        rows.append(ExperimentRow("storm_retries", label,
                                  float(faults.get("retries", 0)), "cmds"))
        rows.append(ExperimentRow("storm_injected", label,
                                  float(faults.get("nvme_failures_injected",
                                                   0)), "cmds"))
    return rows


def fork_sweep(n_branches: int = 16, warm_bytes: int = 8 * MiB,
               branch_bytes: int = 512 * KiB,
               mechanism: str = "auto") -> ExperimentResult:
    """The standalone experiment (``python -m repro.bench`` section)."""
    result = ExperimentResult("fork_sweep", FORK_SWEEP_TITLE)
    result.rows.extend(
        fork_sweep_point(n_branches, warm_bytes, branch_bytes,
                         mechanism=mechanism))
    return result

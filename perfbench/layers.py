"""Per-layer accounting: model counters, dispatched events, host time per
package.

Nothing here edits the program. :class:`Probe` wraps the constructors of the
model classes whose public stats the benchmark reads, so the objects one
cell builds can be read after the cell returns (the case-study and fleet
entry points build their simulators internally). With ``count_events`` it
also sets each new simulator's ``trace_hook`` to count dispatched events;
that hook routes the kernel through its generic ``step()`` loop, so it is
only installed on traced repetitions.

Importing this module imports ``repro``, so the caller puts ``src`` on
``sys.path`` first.
"""

from __future__ import annotations

import os
import pstats
from typing import Any, Dict, List, Tuple

from repro.mem.timed import TimedMemory
from repro.net.mac import EthernetMac
from repro.net.switch import EthernetSwitch
from repro.nvme.controller import NvmeController
from repro.pcie.root_complex import PcieFabric
from repro.sim.core import Event, Simulator
from repro.spdk.cpu import CpuThread

__all__ = ["PACKAGES", "PCIE_SEGMENTS", "NVME_COUNTERS", "CELL_COUNTERS",
           "MAX_COUNTERS", "Probe", "counter_unit", "package_times"]

#: the packages of src/repro that host time is attributed to; the rest
#: (stdlib, numpy, builtins, repro's top-level modules, repro.bench,
#: repro.faults and this benchmark) is reported as ``other``
PACKAGES = ("sim", "pcie", "nvme", "mem", "core", "net", "fleet", "apps",
            "spdk", "fpga")

#: PCIe traffic segments the workloads cross (``TrafficAccountant`` keys)
PCIE_SEGMENTS = ("fpga", "host", "ssd")

NVME_COUNTERS = ("sqe_fetches", "prp_list_reads", "reads_completed",
                 "writes_completed", "errors")

#: counters only a cell's own result carries (0 where a cell has none)
CELL_COUNTERS = ("fleet.spilled", "fleet.p99_us")

#: counters that combine across a workload's cells by max, not by sum
MAX_COUNTERS = ("spdk.cpu_busy_frac", "fleet.p99_us")

#: (key, class) pairs whose instances a Probe records; no class here
#: derives from another, so no object is recorded twice
_TARGETS: Tuple[Tuple[str, type], ...] = (
    ("sim", Simulator), ("fabric", PcieFabric), ("nvme", NvmeController),
    ("mem", TimedMemory), ("mac", EthernetMac), ("switch", EthernetSwitch),
    ("cpu", CpuThread))


class Probe:
    """Context manager recording the model objects built inside it."""

    def __init__(self, count_events: bool = False) -> None:
        self.count_events = count_events
        self.events = 0
        self.objects: Dict[str, List[Any]] = {key: [] for key, _ in _TARGETS}
        self._saved: List[Tuple[type, Any]] = []

    def _count(self, _when: int, _event: Event) -> None:
        self.events += 1

    def __enter__(self) -> "Probe":
        for key, cls in _TARGETS:
            original = cls.__init__
            seen = self.objects[key]
            hook = self._count if key == "sim" and self.count_events \
                else None

            def init(obj: Any, *args: Any, _original: Any = original,
                     _seen: List[Any] = seen, _hook: Any = hook,
                     **kwargs: Any) -> None:
                _original(obj, *args, **kwargs)
                _seen.append(obj)
                if _hook is not None:
                    obj.trace_hook = _hook

            self._saved.append((cls, original))
            cls.__init__ = init  # type: ignore[misc]
        return self

    def __exit__(self, *exc: Any) -> None:
        for cls, original in reversed(self._saved):
            cls.__init__ = original  # type: ignore[misc]
        self._saved.clear()

    def counters(self) -> Dict[str, float]:
        """Model-side counters summed over every recorded object."""
        o = self.objects
        out: Dict[str, float] = {}
        for name in NVME_COUNTERS:
            out[f"nvme.{name}"] = sum(getattr(c.stats, name)
                                      for c in o["nvme"])
        for seg in PCIE_SEGMENTS:
            out[f"pcie.bytes.{seg}"] = sum(f.traffic.bytes_on(seg)
                                           for f in o["fabric"])
            out[f"pcie.ops.{seg}"] = sum(f.traffic.ops_on(seg)
                                         for f in o["fabric"])
        out["mem.dram_turnarounds"] = sum(m.stats.turnarounds
                                          for m in o["mem"])
        for name in ("tx_frames", "pause_frames_sent", "dropped_frames"):
            out[f"net.{name}"] = sum(getattr(m, name) for m in o["mac"])
        out["net.funnel_fuses"] = sum(s.funnel_fuses for s in o["switch"])
        # the busiest host thread: SPDK's poller where one runs
        out["spdk.cpu_busy_frac"] = max(
            (c.utilization() for c in o["cpu"]), default=0.0)
        return out

    def segments(self) -> Dict[str, int]:
        """Bytes per PCIe segment, including any outside PCIE_SEGMENTS."""
        out: Dict[str, int] = {}
        for fabric in self.objects["fabric"]:
            for seg, nbytes in fabric.traffic.snapshot().items():
                out[seg] = out.get(seg, 0) + nbytes
        return out


def counter_unit(name: str) -> str:
    """Unit of a model counter named as :meth:`Probe.counters` names it."""
    if name.startswith("pcie.bytes."):
        return "B"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def _package(filename: str) -> str:
    marker = os.sep + "repro" + os.sep
    cut = filename.rfind(marker)
    if cut < 0:
        return "other"
    pkg = filename[cut + len(marker):].split(os.sep, 1)[0]
    return pkg if pkg in PACKAGES else "other"


def package_times(stats: pstats.Stats) -> Dict[str, Tuple[float, int]]:
    """``{pkg: (self seconds, primitive calls)}`` from one cProfile run.

    A generator resume is a call to cProfile, so ``calls`` counts process
    steps too. Every package is present, ``other`` included.
    """
    out = {pkg: (0.0, 0) for pkg in PACKAGES + ("other",)}
    rows = stats.stats.items()  # type: ignore[attr-defined]
    for (filename, _line, _func), (primitive, _total, self_s, *_) in rows:
        pkg = _package(filename)
        s, c = out[pkg]
        out[pkg] = (s + self_s, c + primitive)
    return out

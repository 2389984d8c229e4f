"""PCIe traffic accounting for Figure 7.

Counts *payload* bytes crossing each segment of the hierarchy; the fabric
feeds it on every DMA and MMIO operation.  Figure 7 of the paper compares
the total PCIe data volume of the five case-study configurations —
reproduced here by summing segment counters after a run.
"""

from __future__ import annotations

from typing import Callable, Dict, List

__all__ = ["TrafficAccountant"]


class TrafficAccountant:
    """Per-segment payload byte counters ('fpga', 'ssd', 'host', ...)."""

    def __init__(self):
        self._bytes: Dict[str, int] = {}
        self._ops: Dict[str, int] = {}
        #: settle callbacks of lazy writers, run before every observation
        #: (the NVMe write stream credits its computed reads on demand)
        self.settle_hooks: List[Callable[[], None]] = []

    def _settle(self) -> None:
        for fn in self.settle_hooks:
            fn()

    def record(self, segment: str, nbytes: int, k: int = 1) -> None:
        """Add *k* operations of *nbytes* of payload crossing *segment*."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self._bytes[segment] = self._bytes.get(segment, 0) + nbytes * k
        self._ops[segment] = self._ops.get(segment, 0) + k

    def _credit(self, arg, k: int = 1) -> None:
        """:meth:`record` of ``arg = (segment, nbytes)``, in the one-argument
        form a step program's CALL takes (a lazy writer's counter credit)."""
        self.record(arg[0], arg[1], k)

    def bytes_on(self, segment: str) -> int:
        """Payload bytes seen on *segment* so far."""
        self._settle()
        return self._bytes.get(segment, 0)

    def ops_on(self, segment: str) -> int:
        """Operations recorded on *segment* so far."""
        self._settle()
        return self._ops.get(segment, 0)

    @property
    def total_bytes(self) -> int:
        """Payload bytes summed over all segments (Fig 7 metric)."""
        self._settle()
        return sum(self._bytes.values())

    def snapshot(self) -> Dict[str, int]:
        """Copy of the per-segment byte counters."""
        self._settle()
        return dict(self._bytes)

    def reset(self) -> None:
        """Zero all counters (e.g. after initialization traffic)."""
        self._settle()
        self._bytes.clear()
        self._ops.clear()

"""Shared machinery for memories with access timing.

A :class:`TimedMemory` couples a functional byte store with a timing model.
Accesses are generator methods to be driven by a simulation process::

    data = yield from mem.timed_read(addr, 4096)
    yield from mem.timed_write(addr, data)

Transfers may be *sized-only* (``data=None, nbytes=n``): the timing model is
exercised identically but no bytes are stored, which keeps large performance
benchmarks fast.  All control logic is shared between the two modes.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..sim.core import Simulator
from .base import BytesLike, Memory, SparseMemory, as_bytes_array

__all__ = ["TimedMemory", "AccessStats"]


class AccessStats:
    """Counters every timed memory keeps: accesses, bytes, per direction."""

    __slots__ = ("reads", "writes", "read_bytes", "written_bytes", "turnarounds")

    def __init__(self):
        self.reads = 0
        self.writes = 0
        self.read_bytes = 0
        self.written_bytes = 0
        self.turnarounds = 0

    @property
    def total_bytes(self) -> int:
        """Bytes moved in either direction."""
        return self.read_bytes + self.written_bytes

    def reset(self) -> None:
        """Zero all counters."""
        self.reads = self.writes = 0
        self.read_bytes = self.written_bytes = 0
        self.turnarounds = 0


class TimedMemory:
    """Base class: functional backing plus a subclass-defined timing model.

    Subclasses implement :meth:`_service` — a generator that advances
    simulation time for one access — and may override the port-contention
    structure.
    """

    def __init__(self, sim: Simulator, size: int, name: str = "",
                 sparse: bool = False):
        self.sim = sim
        self.name = name
        # Sparse backing keeps huge regions (host DRAM) cheap: pages
        # materialise only when written.
        self.backing = (SparseMemory(size, name=name) if sparse
                        else Memory(size, name=name))
        #: counters, written directly on hot paths; read through
        #: :attr:`stats`, which settles lazy writers first
        self._stats = AccessStats()
        #: settle callbacks of lazy writers (the NVMe write stream credits
        #: its computed reads when the counters are observed)
        self.settle_hooks: List[Callable[[], None]] = []

    @property
    def stats(self) -> AccessStats:
        """Access counters, exact at the current instant."""
        for fn in self.settle_hooks:
            fn()
        return self._stats

    @property
    def size(self) -> int:
        """Capacity in bytes."""
        return self.backing.size

    # -- functional (zero-time) access, for init/inspection ------------------
    def read(self, addr: int, nbytes: int) -> np.ndarray:
        """Zero-time functional read (initialisation / test inspection)."""
        return self.backing.read(addr, nbytes)

    def write(self, addr: int, data: BytesLike) -> None:
        """Zero-time functional write (initialisation / test setup)."""
        self.backing.write(addr, data)

    def fill(self, addr: int, nbytes: int, value: int) -> None:
        """Zero-time functional fill (initialisation / test setup)."""
        self.backing.fill(addr, nbytes, value)

    # -- timed access ---------------------------------------------------------
    def timed_read(self, addr: int, nbytes: int, functional: bool = True):
        """Timed read; returns the data (or ``None`` when functional=False)."""
        self.backing._check(addr, nbytes)
        yield from self._service("read", addr, nbytes)
        self._stats.reads += 1
        self._stats.read_bytes += nbytes
        if functional:
            return self.backing.read(addr, nbytes)
        return None

    def timed_write(self, addr: int, data: Optional[BytesLike] = None,
                    nbytes: Optional[int] = None):
        """Timed write of *data* (or a sized-only write of *nbytes*)."""
        if data is None and nbytes is None:
            raise ValueError("timed_write needs data or nbytes")
        arr = None
        if data is not None:
            arr = as_bytes_array(data)
            if nbytes is not None and nbytes != len(arr):
                raise ValueError(f"nbytes={nbytes} != len(data)={len(arr)}")
            nbytes = len(arr)
        self.backing._check(addr, nbytes)
        yield from self._service("write", addr, nbytes)
        self._stats.writes += 1
        self._stats.written_bytes += nbytes
        if arr is not None:
            self.backing.write(addr, arr)

    def _credit_read(self, nbytes: int, k: int = 1) -> None:
        """Count *k* completed reads (the stats tail of ``timed_read``)."""
        self._stats.reads += k
        self._stats.read_bytes += nbytes * k

    def fifo_read(self, addr: int, nbytes: int):
        """``(port, busy_ns, self)`` when ``timed_read`` is one fixed-service
        FIFO access — acquire *port*, hold it *busy_ns*, release, count —
        else None.  Coarsened DMA reads compute such accesses instead of
        simulating them (DESIGN.md §11.7); a memory with state-dependent
        service (DRAM read/write turnaround) keeps the default None.
        """
        return None

    # -- to be provided by subclasses -----------------------------------------
    def _service(self, direction: str, addr: int, nbytes: int):
        """Generator advancing time for one access (subclass hook)."""
        raise NotImplementedError
        yield  # pragma: no cover

"""The SNAcc NVMe Streamer (paper §4.2-§4.4, Fig 1).

One streamer instance orchestrates all NVMe access for a user PE:

* four AXI4-Stream user interfaces (:mod:`repro.core.stream_adapter`);
* a submission-queue FIFO exposed through the FPGA BAR — the NVMe
  controller *fetches* entries from it over PCIe P2P (arrow ② in Fig 1);
* a completion region implemented as a reorder buffer: the controller's
  CQE writes land here out of order, retirement is in order (arrow ⑤);
* on-the-fly PRP synthesis served from a BAR window (arrow ③);
* a variant-specific data buffer — URAM, on-board DRAM, or pinned host
  DRAM — that the controller reads/writes payload through (arrow ④);
* doorbell writes to the SSD issued by the FPGA itself (arrow after ①) —
  no host interaction anywhere on the data path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Tuple

import numpy as np

from ..errors import StreamerError
from ..faults.plan import FaultPlan
from ..fpga.axi import StreamFlit
from ..fpga.platform import FpgaPlatform
from ..fpga.resources import StreamerAreaModel
from ..mem.base import Memory
from ..mem.hostmem import ChunkedBuffer, PinnedAllocator
from ..nvme.command import CompletionEntry, SubmissionEntry
from ..nvme.device import NvmeDevice
from ..nvme.queues import doorbell_offset
from ..nvme.spec import CQE_BYTES, IoOpcode, SQE_BYTES, StatusCode
from ..pcie.root_complex import BarHandler
from ..sim.core import Event, Process, Simulator
from ..sim.stats import FaultStats
from ..sim.resources import Resource
from ..units import KiB, PAGE
from .buffer_mgr import ExtentAllocator
from .config import StreamerConfig, StreamerVariant
from .prp_engine import RegfilePrpEngine, UramPrpEngine
from .reorder import ReorderBuffer, RobEntry
from .splitter import split_command

__all__ = ["NvmeStreamer", "StreamerStats"]


@dataclass
class StreamerStats:
    """Counters for tests and experiment reporting."""

    user_reads: int = 0
    user_writes: int = 0
    nvme_commands: int = 0
    read_bytes: int = 0
    written_bytes: int = 0
    errors: int = 0


# --------------------------------------------------------------------- BARs
class _SqWindowHandler(BarHandler):
    """The SQ FIFO: the controller fetches SQEs from this window (②)."""

    def __init__(self, streamer: "NvmeStreamer") -> None:
        self.streamer = streamer

    def bar_read(self, offset: int, nbytes: int, functional: bool = True,
                 ) -> Generator[Event, Any, Optional[np.ndarray]]:
        yield self.streamer.sim.timeout(30)  # FIFO RAM access at 300 MHz
        return self.streamer._sq_mem.read(offset, nbytes)

    def bar_write(self, offset: int, data: Optional[np.ndarray] = None,
                  nbytes: Optional[int] = None) -> Generator[Event, Any, None]:
        raise StreamerError("SQ window is read-only for the fabric")
        yield  # pragma: no cover


class _CqWindowHandler(BarHandler):
    """The completion region: controller CQE writes feed the ROB (⑤)."""

    def __init__(self, streamer: "NvmeStreamer") -> None:
        self.streamer = streamer

    def bar_read(self, offset: int, nbytes: int, functional: bool = True,
                 ) -> Generator[Event, Any, Optional[np.ndarray]]:
        yield self.streamer.sim.timeout(30)
        return self.streamer._cq_mem.read(offset, nbytes)

    def bar_write(self, offset: int, data: Optional[np.ndarray] = None,
                  nbytes: Optional[int] = None) -> Generator[Event, Any, None]:
        if data is None:
            raise StreamerError("CQE writes must carry data")
        yield self.streamer.sim.timeout(30)
        self.streamer._cq_mem.write(offset, data)
        cqe = CompletionEntry.unpack(bytes(
            self.streamer._cq_mem.read(offset - offset % CQE_BYTES,
                                       CQE_BYTES)))
        self.streamer._on_completion(cqe)


class _UramWindowHandler(BarHandler):
    """Fig 2: lower half is the URAM data buffer, upper half the PRP mirror."""

    def __init__(self, streamer: "NvmeStreamer") -> None:
        self.streamer = streamer

    def bar_read(self, offset: int, nbytes: int, functional: bool = True,
                 ) -> Generator[Event, Any, Optional[np.ndarray]]:
        # Returns the URAM's generator directly (no delegating frame): data
        # accesses are the hot path, so each event resume walks one less
        # generator.  The PRP-mirror branch keeps its own small generator.
        st = self.streamer
        if offset >= st.config.uram_buffer_bytes:
            return self._prp_mirror_read(offset, nbytes)
        return st._uram.timed_read(offset, nbytes, functional=functional)

    def fifo_read(self, offset: int, nbytes: int):
        st = self.streamer
        if offset >= st.config.uram_buffer_bytes:
            return None
        return st._uram.fifo_read(offset, nbytes)

    def _prp_mirror_read(self, offset: int, nbytes: int,
                         ) -> Generator[Event, Any, Optional[np.ndarray]]:
        st = self.streamer
        yield st.sim.timeout(30)  # combinational synthesis + register
        raw = st._prp_uram.synth_read(
            offset - st.config.uram_buffer_bytes, nbytes)
        return np.frombuffer(raw, dtype=np.uint8).copy()

    def bar_write(self, offset: int, data: Optional[np.ndarray] = None,
                  nbytes: Optional[int] = None) -> Generator[Event, Any, None]:
        st = self.streamer
        if offset >= st.config.uram_buffer_bytes:
            raise StreamerError("PRP mirror is read-only")
        return st._uram.timed_write(offset, data=data, nbytes=nbytes)


class _DramWindowHandler(BarHandler):
    """A 64 MiB on-board-DRAM buffer window (second BAR, §4.5).

    Accesses are split at the burst-coalescer granularity: the paper's §4.3
    logic joins the controller's small PCIe reads into 4 KiB DRAM bursts.
    """

    def __init__(self, streamer: "NvmeStreamer", region_base: int) -> None:
        self.streamer = streamer
        self.region_base = region_base

    def _split(self, offset: int, nbytes: int,
               ) -> Generator[Tuple[int, int], None, None]:
        step = self.streamer.config.dram_access_bytes
        pos = 0
        while pos < nbytes:
            take = min(step, nbytes - pos)
            yield offset + pos, take
            pos += take

    def bar_read(self, offset: int, nbytes: int, functional: bool = True,
                 ) -> Generator[Event, Any, Optional[np.ndarray]]:
        # Single-burst accesses (the common case: the controller's reads are
        # already coalescer-sized) go straight to the DRAM generator with no
        # delegating frame.
        st = self.streamer
        if nbytes <= st.config.dram_access_bytes:
            return st.platform.dram.timed_read(
                self.region_base + offset, nbytes, functional=functional)
        return self._split_read(offset, nbytes, functional)

    def _split_read(self, offset: int, nbytes: int, functional: bool,
                    ) -> Generator[Event, Any, Optional[np.ndarray]]:
        st = self.streamer
        parts = []
        for off, take in self._split(offset, nbytes):
            data = yield from st.platform.dram.timed_read(
                self.region_base + off, take, functional=functional)
            if data is not None:
                parts.append(data)
        return np.concatenate(parts) if parts else None

    def bar_write(self, offset: int, data: Optional[np.ndarray] = None,
                  nbytes: Optional[int] = None) -> Generator[Event, Any, None]:
        st = self.streamer
        total = nbytes if nbytes is not None else len(data)
        if total <= st.config.dram_access_bytes:
            return st.platform.dram.timed_write(
                self.region_base + offset, data=data,
                nbytes=None if data is not None else total)
        return self._split_write(offset, data, total)

    def _split_write(self, offset: int, data: Optional[np.ndarray],
                     total: int) -> Generator[Event, Any, None]:
        st = self.streamer
        for off, take in self._split(offset, total):
            chunk = None
            if data is not None:
                start = off - offset
                chunk = data[start:start + take]
            yield from st.platform.dram.timed_write(
                self.region_base + off,
                data=chunk, nbytes=None if chunk is not None else take)


class _PrpWindowHandler(BarHandler):
    """Fig 3: synthetic PRP list window backed by the register file."""

    def __init__(self, streamer: "NvmeStreamer") -> None:
        self.streamer = streamer

    def bar_read(self, offset: int, nbytes: int, functional: bool = True,
                 ) -> Generator[Event, Any, Optional[np.ndarray]]:
        yield self.streamer.sim.timeout(30)
        raw = self.streamer._prp_rf.synth_read(offset, nbytes)
        return np.frombuffer(raw, dtype=np.uint8).copy()

    def bar_write(self, offset: int, data: Optional[np.ndarray] = None,
                  nbytes: Optional[int] = None) -> Generator[Event, Any, None]:
        raise StreamerError("PRP window is read-only")
        yield  # pragma: no cover


# ----------------------------------------------------------------- streamer
class NvmeStreamer:
    """One NVMe Streamer IP instance wired to a platform and an SSD."""

    def __init__(self, sim: Simulator, platform: FpgaPlatform,
                 ssd: NvmeDevice, config: StreamerConfig,
                 pinned_allocator: Optional[PinnedAllocator] = None,
                 host_mem_base: int = 0,
                 name: str = "snacc") -> None:
        config.validate()
        self.sim = sim
        self.platform = platform
        self.ssd = ssd
        self.config = config
        self.name = name
        self.stats = StreamerStats()
        self.lba_bytes = ssd.namespace.lba_bytes

        # -- user-facing streams (§4.1) --------------------------------------
        self.rd_cmd = platform.new_stream(f"{name}.rd_cmd")
        self.rd_data = platform.new_stream(f"{name}.rd_data",
                                           fifo_bytes=2 * config.stream_chunk_bytes)
        self.wr = platform.new_stream(f"{name}.wr",
                                      fifo_bytes=2 * config.stream_chunk_bytes)
        self.wr_resp = platform.new_stream(f"{name}.wr_resp")

        # -- SQ FIFO + completion region in the primary BAR -------------------
        depth = config.queue_depth
        #: completion region is 2x the window so CQ-head doorbell updates
        #: can be batched without ever stalling the controller
        self.cq_entries = 2 * depth
        self._sq_mem = Memory(depth * SQE_BYTES, name=f"{name}.sqmem")
        self._cq_mem = Memory(self.cq_entries * CQE_BYTES,
                              name=f"{name}.cqmem")
        self.sq_window = platform.alloc_bar_window(
            max(4 * KiB, depth * SQE_BYTES), _SqWindowHandler(self),
            name=f"{name}.sq")
        self.cq_window = platform.alloc_bar_window(
            max(4 * KiB, self.cq_entries * CQE_BYTES), _CqWindowHandler(self),
            name=f"{name}.cq")
        self._sq_tail = 0
        self._user_seq = 0
        self._cqes_seen = 0
        self._cq_db_rung = 0
        self._cq_db_active = False

        # -- reorder buffer (§4.2) ---------------------------------------------
        self.rob = ReorderBuffer(sim, depth, name=f"{name}.rob",
                                 out_of_order=config.out_of_order_retirement)

        # -- variant data buffers + PRP engine (§4.3, §4.4) ----------------------
        self._uram = None
        self._prp_uram = None
        self._prp_rf = None
        self._host_read_buf: Optional[ChunkedBuffer] = None
        self._host_write_buf: Optional[ChunkedBuffer] = None
        self._dram_read_base = 0
        self._dram_write_base = 0
        variant = config.variant
        if variant == StreamerVariant.URAM:
            from ..mem.sram import UramBuffer
            self._uram = UramBuffer(sim, config.uram_buffer_bytes,
                                    name=f"{name}.uram")
            window = platform.alloc_bar_window(
                2 * config.uram_buffer_bytes, _UramWindowHandler(self),
                name=f"{name}.data", align=2 * config.uram_buffer_bytes)
            self._prp_uram = UramPrpEngine(window, config.uram_buffer_bytes)
            shared = ExtentAllocator(sim, config.uram_buffer_bytes,
                                     name=f"{name}.buf")
            self._read_alloc = shared
            self._write_alloc = shared
            self.data_window = window
            area = StreamerAreaModel.uram_variant(
                config.uram_buffer_bytes, depth)
        elif variant == StreamerVariant.ONBOARD_DRAM:
            if platform.dram.size < 2 * config.dram_buffer_bytes:
                raise StreamerError("on-board DRAM too small for buffers")
            self._dram_read_base = 0
            self._dram_write_base = config.dram_buffer_bytes
            rd_window = platform.alloc_bar2_window(
                config.dram_buffer_bytes,
                _DramWindowHandler(self, self._dram_read_base),
                name=f"{name}.rddata")
            wr_window = platform.alloc_bar2_window(
                config.dram_buffer_bytes,
                _DramWindowHandler(self, self._dram_write_base),
                name=f"{name}.wrdata")
            prp_window = platform.alloc_bar_window(
                depth * PAGE, _PrpWindowHandler(self), name=f"{name}.prp")
            self._prp_rf = RegfilePrpEngine(prp_window, depth)
            self._read_alloc = ExtentAllocator(sim, config.dram_buffer_bytes,
                                               name=f"{name}.rdbuf")
            self._write_alloc = ExtentAllocator(sim, config.dram_buffer_bytes,
                                                name=f"{name}.wrbuf")
            self._rd_window = rd_window
            self._wr_window = wr_window
            area = StreamerAreaModel.onboard_dram_variant(
                2 * config.dram_buffer_bytes, depth)
        elif variant == StreamerVariant.HOST_DRAM:
            if pinned_allocator is None:
                raise StreamerError(
                    "host-DRAM variant needs the pinned allocator "
                    "(the TaPaSCo driver allocates the DMA buffers, §4.6)")
            self._host_mem_base = host_mem_base
            self._host_read_buf = pinned_allocator.allocate(
                config.dram_buffer_bytes)
            self._host_write_buf = pinned_allocator.allocate(
                config.dram_buffer_bytes)
            prp_window = platform.alloc_bar_window(
                depth * PAGE, _PrpWindowHandler(self), name=f"{name}.prp")
            self._prp_rf = RegfilePrpEngine(prp_window, depth)
            self._read_alloc = ExtentAllocator(sim, config.dram_buffer_bytes,
                                               name=f"{name}.rdbuf")
            self._write_alloc = ExtentAllocator(sim, config.dram_buffer_bytes,
                                                name=f"{name}.wrbuf")
            area = StreamerAreaModel.host_dram_variant(
                2 * config.dram_buffer_bytes, depth)
        else:  # pragma: no cover
            raise StreamerError(f"unknown variant {variant}")
        self.area = area
        platform.add_area(area)

        #: bounds outstanding fill writes (the fill engine's request FIFO);
        #: when full, the ingress stalls TREADY — stream backpressure
        self._fill_credits = Resource(sim, config.fill_engine_depth,
                                      name=f"{name}.fill")
        #: SSD doorbell address and queue id, programmed by the host driver
        self._db_addr: Optional[int] = None
        self.qid: Optional[int] = None
        self._started = False
        #: carry real bytes end to end (benchmarks set False for speed)
        self.functional = True
        #: fault recovery (repro.faults); None = legacy behaviour, no
        #: extra events or processes anywhere
        self._fault_plan: Optional[FaultPlan] = None
        self._fault_stats: Optional[FaultStats] = None
        self._issue_kick = Event(sim)

    # ------------------------------------------------------------- driver API
    def program_doorbell(self, qid: int) -> None:
        """Host driver: set the SSD doorbells this streamer rings."""
        self.qid = qid
        self._db_addr = (self.ssd.config.bar_base
                         + doorbell_offset(qid, is_cq=False))
        self._cq_db_addr = (self.ssd.config.bar_base
                            + doorbell_offset(qid, is_cq=True))

    def start(self) -> None:
        """Launch the streamer's engine processes (idempotent)."""
        if self._started:
            return
        if self._db_addr is None:
            raise StreamerError(
                f"{self.name}: doorbell not programmed; run the host driver")
        self._started = True
        _ = self.sim.process(self._read_ingress(), name=f"{self.name}.rd_in")
        _ = self.sim.process(self._write_ingress(), name=f"{self.name}.wr_in")
        _ = self.sim.process(self._retire(), name=f"{self.name}.retire")
        if self._fault_plan is not None:
            _ = self.sim.process(self._timeout_watchdog(),
                                 name=f"{self.name}.wdog")

    def attach_faults(self, plan: FaultPlan, stats: FaultStats) -> None:
        """Enable per-command timeout + capped-backoff retry recovery.

        Must be called before :meth:`start`.  Without a plan attached the
        streamer's behaviour (and event schedule) is untouched.
        """
        if self._started:
            raise StreamerError(
                f"{self.name}: attach_faults must precede start()")
        self._fault_plan = plan
        self._fault_stats = stats

    # --------------------------------------------------------- buffer plumbing
    def _bus_page_addr(self, kind: str, buf_offset: int) -> int:
        """Bus address PRP entries use for a buffer offset."""
        cfg = self.config
        if cfg.variant == StreamerVariant.URAM:
            return self.data_window + buf_offset
        if cfg.variant == StreamerVariant.ONBOARD_DRAM:
            window = self._rd_window if kind == "read" else self._wr_window
            return window + buf_offset
        buf = self._host_read_buf if kind == "read" else self._host_write_buf
        return buf.translate(buf_offset)

    def _prp_for(self, kind: str, buf_offset: int, npages: int,
                 slot: int) -> Tuple[int, int]:
        cfg = self.config
        if cfg.variant == StreamerVariant.URAM:
            return self._prp_uram.entries_for(buf_offset, npages)
        if cfg.variant == StreamerVariant.ONBOARD_DRAM:
            # on-board: PRPs carry bus addresses directly (identity translate)
            base = self._bus_page_addr(kind, buf_offset)
            return self._prp_rf.entries_for(base, npages, slot=slot)
        # host: logical offsets resolve through the 4 MiB-chunk table (§4.3)
        buf = self._host_read_buf if kind == "read" else self._host_write_buf
        return self._prp_rf.entries_for(buf_offset, npages, slot=slot,
                                        translate=buf.translate)

    def _fill(self, kind: str, buf_offset: int, nbytes: int,
              data: Optional[np.ndarray]) -> Generator[Event, Any, None]:
        """Move PE payload into the data buffer (write path).

        Dispatcher, not a generator: the URAM variant hands back the
        buffer's own generator so fill events skip a delegation frame.
        """
        if self.config.variant == StreamerVariant.URAM:
            return self._uram.timed_write(
                buf_offset, data=data,
                nbytes=None if data is not None else nbytes)
        return self._fill_scatter(kind, buf_offset, nbytes, data)

    def _fill_scatter(self, kind: str, buf_offset: int, nbytes: int,
                      data: Optional[np.ndarray]) -> Generator[Event, Any, None]:
        cfg = self.config
        if cfg.variant == StreamerVariant.ONBOARD_DRAM:
            base = self._dram_write_base + buf_offset
            step = cfg.dram_access_bytes
            pos = 0
            while pos < nbytes:
                take = min(step, nbytes - pos)
                chunk = data[pos:pos + take] if data is not None else None
                yield from self.platform.dram.timed_write(
                    base + pos, data=chunk,
                    nbytes=None if chunk is not None else take)
                pos += take
        else:
            pos = 0
            for span in self._host_write_buf.spans(buf_offset, nbytes):
                chunk = data[pos:pos + span.size] if data is not None else None
                yield from self.platform.endpoint.dma_write(
                    span.base, data=chunk,
                    nbytes=None if chunk is not None else span.size)
                pos += span.size

    def _drain(self, kind: str, buf_offset: int, nbytes: int,
               functional: bool) -> Generator[Event, Any, Optional[np.ndarray]]:
        """Move buffer payload toward the PE (read path).

        Dispatcher, not a generator: the URAM variant returns the buffer's
        own generator (no delegation frame); the scatter variants keep
        multiple outstanding reads in flight (like a pipelined AXI read
        master): chunk fetches are issued concurrently and gathered in
        order, so per-command fetch time approaches one round-trip plus
        serialization instead of chunks x round-trip.
        """
        if self.config.variant == StreamerVariant.URAM:
            return self._uram.timed_read(buf_offset, nbytes,
                                         functional=functional)
        return self._drain_scatter(kind, buf_offset, nbytes, functional)

    def _drain_scatter(self, kind: str, buf_offset: int, nbytes: int,
                       functional: bool,
                       ) -> Generator[Event, Any, Optional[np.ndarray]]:
        cfg = self.config
        # Build the chunk list (DRAM region offsets or host bus spans).
        chunks: List[tuple] = []
        if cfg.variant == StreamerVariant.ONBOARD_DRAM:
            base = self._dram_read_base + buf_offset
            step = cfg.stream_chunk_bytes
            pos = 0
            while pos < nbytes:
                take = min(step, nbytes - pos)
                chunks.append(("dram", base + pos, take))
                pos += take
        else:
            step = cfg.stream_chunk_bytes
            for span in self._host_read_buf.spans(buf_offset, nbytes):
                pos = 0
                while pos < span.size:
                    take = min(step, span.size - pos)
                    chunks.append(("host", span.base + pos, take))
                    pos += take
        results: List[Optional[np.ndarray]] = [None] * len(chunks)
        jobs = [self.sim.process(
                    self._drain_chunk(src, addr, take, functional, results, i))
                for i, (src, addr, take) in enumerate(chunks)]
        yield self.sim.all_of(jobs)
        if functional:
            return np.concatenate([r for r in results])
        return None

    def _drain_chunk(self, src: str, addr: int, nbytes: int,
                     functional: bool, results: List[Optional[np.ndarray]],
                     idx: int) -> Generator[Event, Any, None]:
        if src == "dram":
            data = yield from self.platform.dram.timed_read(
                addr, nbytes, functional=functional)
        else:
            data = yield from self.platform.endpoint.dma_read(
                addr, nbytes, functional=functional)
        results[idx] = data

    # ------------------------------------------------------------- submission
    def _submit(self, entry: RobEntry) -> Generator[Event, Any, None]:
        """Generator: claim a ROB slot, build the SQE, ring the doorbell."""
        yield self.sim.timeout(self.config.cmd_process_ns)
        _ = yield from self.rob.allocate(entry)
        self.stats.nvme_commands += 1
        if self._fault_plan is not None:
            # wake the timeout watchdog: there is work to watch again
            kick, self._issue_kick = self._issue_kick, Event(self.sim)
            kick.succeed()
        yield from self._push_sqe(entry)

    def _push_sqe(self, entry: RobEntry) -> Generator[Event, Any, None]:
        """Build *entry*'s SQE at the ring tail and ring the SQ doorbell
        (shared by first submission and fault-recovery resubmission)."""
        slot = entry.cid % self.config.queue_depth
        npages = -(-entry.nbytes // PAGE)
        prp1, prp2 = self._prp_for(entry.kind, entry.buf_offset, npages, slot)
        sqe = SubmissionEntry(
            opcode=IoOpcode.READ if entry.kind == "read" else IoOpcode.WRITE,
            cid=entry.cid, prp1=prp1, prp2=prp2)
        sqe.slba = entry.device_addr // self.lba_bytes
        sqe.nlb = entry.nbytes // self.lba_bytes
        # The SQE lands at the ring *tail* (== cid slot for in-order issue;
        # with out-of-order retirement or a resubmission the two diverge).
        self._sq_mem.write(self._sq_tail * SQE_BYTES, sqe.pack())
        self._sq_tail = (self._sq_tail + 1) % self.config.queue_depth
        entry.last_submit_ns = self.sim.now
        # ① -> notify the controller: posted P2P write to its doorbell.
        yield from self.platform.endpoint.dma_write(
            self._db_addr, data=self._sq_tail.to_bytes(4, "little"))

    #: retirements between CQ-head doorbell updates
    CQ_DOORBELL_BATCH = 8

    def _on_completion(self, cqe: CompletionEntry) -> None:
        """CQE landed in the completion region (out-of-order, ⑤)."""
        if self._fault_plan is not None:
            self._accept_completion(cqe)
        else:
            self.rob.complete(cqe.cid, cqe.status)
        # The streamer consumes CQEs on arrival; advance the controller's
        # view of our head in batches (a posted P2P write per batch).
        self._cqes_seen += 1
        if (not self._cq_db_active
                and self._cqes_seen - self._cq_db_rung >= self.CQ_DOORBELL_BATCH):
            self._cq_db_active = True
            _ = self.sim.process(self._ring_cq_doorbell(),
                             name=f"{self.name}.cqdb")

    def _ring_cq_doorbell(self) -> Generator[Event, Any, None]:
        while self._cqes_seen - self._cq_db_rung >= self.CQ_DOORBELL_BATCH:
            self._cq_db_rung = self._cqes_seen
            head = self._cq_db_rung % self.cq_entries
            yield from self.platform.endpoint.dma_write(
                self._cq_db_addr, data=head.to_bytes(4, "little"))
        self._cq_db_active = False

    # --------------------------------------------------------- fault recovery
    def _accept_completion(self, cqe: CompletionEntry) -> None:
        """Recovery-aware CQE handling: retry failures, tolerate stragglers.

        A CQE whose cid maps to no live, unclaimed entry is a *stale*
        completion — the answer to an attempt the timeout watchdog already
        gave up on (possible with injected CQE delays).  A stale SUCCESS
        for an entry whose retry is still in flight would be equally fine
        to accept — both attempts did identical work — but we keep the
        simple rule: whichever attempt's CQE arrives while the entry is
        unclaimed decides it; later arrivals only bump ``stale_cqes``.
        """
        assert self._fault_plan is not None and self._fault_stats is not None
        entry = self.rob.peek(cqe.cid)
        if entry is None or entry.done or entry.retry_pending:
            self._fault_stats.stale_cqes += 1
            return
        cfg = self._fault_plan.config
        if cqe.status != 0 and entry.retries < cfg.retry_limit:
            self._start_retry(entry)
            return
        if cqe.status != 0:
            self._fault_stats.retry_exhausted += 1
        self.rob.complete(cqe.cid, cqe.status)

    def _start_retry(self, entry: RobEntry) -> None:
        assert self._fault_stats is not None
        entry.retries += 1
        entry.retry_pending = True
        self._fault_stats.retries += 1
        _ = self.sim.process(self._retry_entry(entry),
                             name=f"{self.name}.retry{entry.cid}")

    def _retry_entry(self, entry: RobEntry) -> Generator[Event, Any, None]:
        """Backoff, then resubmit the command under its original cid."""
        assert self._fault_plan is not None
        yield self.sim.timeout(
            self._fault_plan.config.backoff_ns(entry.retries))
        # last_submit_ns is restamped before _push_sqe's first yield, so
        # the watchdog can never see a cleared flag with a stale stamp
        entry.retry_pending = False
        yield from self._push_sqe(entry)

    def _timeout_watchdog(self) -> Generator[Event, Any, None]:
        """Scan for commands whose attempt outlived the per-command
        deadline; retry them (or finalize with COMMAND_ABORTED once the
        budget is spent).  Parks on the issue kick while the ROB holds no
        undone entry so idle simulations can drain their event heaps.
        """
        assert self._fault_plan is not None and self._fault_stats is not None
        cfg = self._fault_plan.config
        period = max(1, cfg.command_timeout_ns // 2)
        while True:
            if not any(not e.done for e in self.rob.live_entries()):
                yield self._issue_kick
                continue
            yield self.sim.timeout(period)
            now = self.sim.now
            for entry in self.rob.live_entries():
                if (entry.done or entry.retry_pending
                        or now - entry.last_submit_ns < cfg.command_timeout_ns):
                    continue
                self._fault_stats.timeouts += 1
                if entry.retries < cfg.retry_limit:
                    self._start_retry(entry)
                else:
                    self._fault_stats.retry_exhausted += 1
                    self.rob.complete(entry.cid,
                                      int(StatusCode.COMMAND_ABORTED))

    # ---------------------------------------------------------------- ingress
    def _read_ingress(self) -> Generator[Event, Any, None]:
        while True:
            flit = yield from self.rd_cmd.recv()
            addr, length = flit.meta["addr"], flit.meta["len"]
            if length % self.lba_bytes or addr % self.lba_bytes:
                # Malformed command: report instead of wedging the pipeline.
                self.stats.errors += 1
                yield from self.rd_data.send(StreamFlit(
                    nbytes=0, last=True,
                    meta={"status": int(StatusCode.INVALID_FIELD),
                          "addr": addr}))
                continue
            self.stats.user_reads += 1
            self._user_seq += 1
            uid = self._user_seq
            for seg in split_command(addr, length, self.config.max_cmd_bytes):
                buf_off = yield from self._read_alloc.allocate(seg.nbytes)
                entry = RobEntry(kind="read", device_addr=seg.device_addr,
                                 nbytes=seg.nbytes, buf_offset=buf_off,
                                 user_last=seg.last, user_id=uid)
                yield from self._submit(entry)

    def _write_ingress(self) -> Generator[Event, Any, None]:
        # Fills are posted: the ingress hands each flit's buffer write to a
        # background process and keeps consuming the stream.  A segment's
        # NVMe command is submitted once all its fills have landed, chained
        # so submissions stay in stream order (ROB order == SQ order).
        leftover: Optional[StreamFlit] = None
        prev_submit = Event(self.sim)
        prev_submit.succeed()
        while True:
            if leftover is not None:
                raise StreamerError("stray payload without an address beat")
            cmd = yield from self.wr.recv()
            if cmd.meta.get("op") != "write":
                raise StreamerError(f"expected write address beat, got "
                                    f"{cmd.meta}")
            addr = cmd.meta["addr"]
            if addr % self.lba_bytes:
                # Consume the payload to stay frame-synchronised, then
                # report the rejection on the response stream.
                self.stats.errors += 1
                while True:
                    flit = yield from self.wr.recv()
                    if flit.last:
                        break
                yield from self.wr_resp.send(StreamFlit(
                    nbytes=4, last=True,
                    meta={"status": int(StatusCode.INVALID_FIELD),
                          "addr": addr}))
                continue
            self.stats.user_writes += 1
            self._user_seq += 1
            uid = self._user_seq
            finished = False
            while not finished:
                max_cmd = self.config.max_cmd_bytes
                seg_cap = max_cmd - (addr % max_cmd)
                buf_off = yield from self._write_alloc.allocate(seg_cap)
                filled = 0
                seg_last = False
                fills = []
                while filled < seg_cap and not seg_last:
                    if leftover is not None:
                        flit, leftover = leftover, None
                    else:
                        flit = yield from self.wr.recv()
                    take = min(flit.nbytes, seg_cap - filled)
                    chunk = flit.data[:take] if flit.data is not None else None
                    yield self._fill_credits.acquire()
                    fills.append(self.sim.process(
                        self._bounded_fill(buf_off + filled, take, chunk)))
                    filled += take
                    if take < flit.nbytes:
                        rest = (flit.data[take:] if flit.data is not None
                                else None)
                        leftover = StreamFlit(nbytes=flit.nbytes - take,
                                              data=rest, last=flit.last)
                    elif flit.last:
                        seg_last = True
                if filled % self.lba_bytes:
                    raise StreamerError(
                        f"write length {filled} not LBA aligned")
                self._write_alloc.shrink(buf_off, filled)
                finished = seg_last and leftover is None
                entry = RobEntry(kind="write", device_addr=addr,
                                 nbytes=filled, buf_offset=buf_off,
                                 user_last=finished, user_id=uid)
                token = Event(self.sim)
                _ = self.sim.process(
                    self._submit_when_filled(entry, fills, prev_submit, token),
                    name=f"{self.name}.wsub")
                prev_submit = token
                addr += filled

    def _bounded_fill(self, buf_offset: int, nbytes: int,
                      chunk: Optional[np.ndarray]) -> Generator[Event, Any, None]:
        try:
            yield from self._fill("write", buf_offset, nbytes, chunk)
        finally:
            self._fill_credits.release()

    def _submit_when_filled(self, entry: RobEntry, fills: List[Process],
                            prev_submit: Event, token: Event) -> Generator[Event, Any, None]:
        """Paper §4.2: 'Write commands ... are forwarded to the NVMe device
        as soon as all data from the user PE has been received and
        buffered'.

        For the host-DRAM variant the buffering happens over the same PCIe
        direction as the subsequent doorbell write: PCIe posted-write
        ordering guarantees the payload lands before the doorbell, so the
        submission does not wait for end-to-end fill delivery.  The on-chip
        variants wait for their (fast) local fills.
        """
        if fills and self.config.variant != StreamerVariant.HOST_DRAM:
            yield self.sim.all_of(fills)
        yield prev_submit
        yield from self._submit(entry)
        token.succeed()

    # ----------------------------------------------------------------- retire
    def _retire(self) -> Generator[Event, Any, None]:
        prev_done = Event(self.sim)
        prev_done.succeed()
        while True:
            entry = yield from self.rob.pop_next()
            # The controller is done with this command: its PRP register
            # can be reused by the command that takes over the ring slot.
            if self._prp_rf is not None:
                self._prp_rf.release(entry.cid % self.config.queue_depth)
            my_done = Event(self.sim)
            if entry.kind == "read":
                _ = self.sim.process(
                    self._finish_read(entry, prev_done, my_done),
                    name=f"{self.name}.drain{entry.cid}")
            else:
                _ = self.sim.process(
                    self._finish_write(entry, prev_done, my_done),
                    name=f"{self.name}.wres{entry.cid}")
            prev_done = my_done

    def _finish_read(self, entry: RobEntry, prev_done: Event,
                     my_done: Event) -> Generator[Event, Any, None]:
        cfg = self.config
        if not entry.ok:
            self.stats.errors += 1
            yield prev_done
            yield from self.rd_data.send(StreamFlit(
                nbytes=0, last=True, meta={"status": entry.status,
                                           "addr": entry.device_addr}))
            self._release_read(entry)
            my_done.succeed()
            return
        if cfg.drain_extra_latency_ns:
            yield self.sim.timeout(cfg.drain_extra_latency_ns)
        data = yield from self._drain("read", entry.buf_offset, entry.nbytes,
                                      functional=self.functional)
        yield prev_done
        pos = 0
        while pos < entry.nbytes:
            take = min(cfg.stream_chunk_bytes, entry.nbytes - pos)
            chunk = data[pos:pos + take] if data is not None else None
            pos += take
            is_last = entry.user_last and pos >= entry.nbytes
            yield from self.rd_data.send(StreamFlit(
                nbytes=take, data=chunk, last=is_last,
                meta={"addr": entry.device_addr}))
        self.stats.read_bytes += entry.nbytes
        self._release_read(entry)
        my_done.succeed()

    def _release_read(self, entry: RobEntry) -> None:
        self._read_alloc.free(entry.buf_offset)

    def _finish_write(self, entry: RobEntry, prev_done: Event,
                      my_done: Event) -> Generator[Event, Any, None]:
        yield prev_done
        if not entry.ok:
            self.stats.errors += 1
        else:
            self.stats.written_bytes += entry.nbytes
        self._write_alloc.free(entry.buf_offset)
        if entry.user_last:
            yield from self.wr_resp.send(StreamFlit(
                nbytes=4, last=True,
                meta={"status": entry.status,
                      "addr": entry.device_addr}))
        my_done.succeed()

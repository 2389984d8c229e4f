"""Traffic sources: stream a byte flow as Ethernet frames.

The case study's transmitter is "another FPGA" blasting an image stream at
up to line rate; :class:`FrameStreamSource` reproduces that, with optional
real payload bytes so functional tests can verify end-to-end integrity.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..errors import ConfigError
from ..sim.core import Process, Simulator
from ..sim.fifo import check_coarsening
from .frame import EthernetFrame, MAX_PAYLOAD_BYTES
from .mac import EthernetMac

__all__ = ["FrameStreamSource"]


class FrameStreamSource:
    """Sends *total_bytes* as fixed-size frames through a MAC.

    ``payload_fn(offset, nbytes)`` supplies real bytes (or None for
    sized-only runs).  The source naturally throttles under 802.3 pause —
    the MAC's ``send`` blocks while XOFF is in force.
    """

    #: frames built ahead per ``send_train`` submission in train mode
    TRAIN_BATCH = 64

    def __init__(self, sim: Simulator, mac: EthernetMac, total_bytes: int,
                 frame_payload: int = 8192,
                 payload_fn: Optional[Callable[[int, int], np.ndarray]] = None,
                 meta_fn: Optional[Callable[[int], dict]] = None,
                 coarsening: str = "train"):
        if not 1 <= frame_payload <= MAX_PAYLOAD_BYTES:
            raise ConfigError(f"frame payload {frame_payload} out of range")
        if total_bytes <= 0:
            raise ConfigError("total_bytes must be > 0")
        check_coarsening(coarsening)
        self.sim = sim
        self.mac = mac
        self.total_bytes = total_bytes
        self.frame_payload = frame_payload
        self.payload_fn = payload_fn
        self.meta_fn = meta_fn
        self.coarsening = coarsening
        self.sent_bytes = 0
        self.started_ns: Optional[int] = None
        #: when the final frame finished *serializing* at this MAC.  The
        #: frame is still on the wire for ``mac.propagation_ns`` after
        #: this stamp (``EthernetMac.send`` returns at end-of-
        #: serialization and delivers via a spawned propagation process),
        #: so source-side throughput over ``finished_ns - started_ns``
        #: over-reports versus what the receiver observes — a per-stream
        #: skew of one propagation delay that compounds across thousands
        #: of fleet streams.  Use :attr:`drained_ns` for receiver-aligned
        #: accounting.
        self.finished_ns: Optional[int] = None

    def _make_frame(self, offset: int, take: int) -> EthernetFrame:
        data = None
        if self.payload_fn is not None:
            data = self.payload_fn(offset, take)
        meta = self.meta_fn(offset) if self.meta_fn is not None else {}
        return EthernetFrame(payload_bytes=take, data=data, meta=meta)

    def run(self):
        """Generator: the transmit loop."""
        self.started_ns = self.sim.now
        offset = 0
        train = self.coarsening == "train"
        while offset < self.total_bytes:
            if train:
                # Build a batch ahead and submit it as one frame train;
                # the MAC splits it back to per-frame transmission the
                # moment any disqualifier arrives (DESIGN.md §11), so
                # batching never changes the timeline.  payload_fn /
                # meta_fn are pure functions of the offset, so building
                # frames early is observationally identical.
                frames = []
                for _ in range(self.TRAIN_BATCH):
                    if offset >= self.total_bytes:
                        break
                    take = min(self.frame_payload, self.total_bytes - offset)
                    frames.append(self._make_frame(offset, take))
                    offset += take
                yield from self.mac.send_train(frames)
            else:
                take = min(self.frame_payload, self.total_bytes - offset)
                frame = self._make_frame(offset, take)
                yield from self.mac.send(frame)
                offset += take
            self.sent_bytes = offset
        self.finished_ns = self.sim.now

    @property
    def drained_ns(self) -> Optional[int]:
        """When the last frame reaches the receiver's MAC (wire drained).

        ``finished_ns`` plus the link's propagation delay: the moment the
        peer's ``_on_frame`` runs for the final frame (absent fault
        drops).  Receiver-observed throughput spans must end here, not at
        ``finished_ns`` — ``tests/net`` pins the two agree.
        """
        if self.finished_ns is None:
            return None
        return self.finished_ns + self.mac.propagation_ns

    def start(self) -> Process:
        """Spawn the transmit loop as a process."""
        return self.sim.process(self.run(), name="framesource")

"""Leaf/spine fleet composition: N SNAcc nodes behind a switch fabric.

``build_fleet`` wires client gateways, a spine switch, leaf switches and
nodes into one simulation:

* every node hangs off a leaf port at ``link_gbps``;
* each leaf's uplink to the spine is *fat* (``link_gbps x`` nodes on the
  leaf), the usual non-blocking-leaf abstraction, so scaling studies
  measure node and incast effects rather than an artificial uplink cap;
* gateways attach to the spine, one stream shard each, so client-side
  NIC capacity scales with the fleet.

Every data path is therefore gateway ⇄ spine ⇄ leaf ⇄ node — a uniform
two-switch, three-link path at every node count, which keeps the
node-count sweep an apples-to-apples comparison and gives incast PAUSE
two tiers to propagate across.

``run_fleet`` / ``run_incast`` are the pure entry points the bench jobs
call: they build a private ``Simulator``, run to quiescence, and return
a :class:`FleetResult` whose ``as_dict`` is exact-comparable across runs
(the determinism contract: same config + seed ⇒ identical dict, at any
``--jobs`` count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ..errors import ConfigError
from ..net.mac import EthernetMac
from ..net.switch import EthernetSwitch
from ..sim.core import Simulator
from ..sim.fifo import check_coarsening
from ..sim.stats import BandwidthMeter, summarize
from ..units import KiB, MiB, gbps_for
from .node import ClientGateway, FleetNode
from .placement import ConsistentHashRing, LoadAwarePlacement
from .workload import FleetWorkload, generate_requests

__all__ = ["Fleet", "FleetConfig", "FleetResult", "build_fleet",
           "run_fleet", "run_incast"]


@dataclass(frozen=True)
class FleetConfig:
    """Shape and calibration of one fleet (hashable, spawn-safe)."""

    n_nodes: int = 2
    nodes_per_leaf: int = 4
    #: client gateways on the spine; 0 = one per node (min 2)
    n_gateways: int = 0
    link_gbps: float = 12.5
    switch_buffer_bytes: int = 256 * KiB
    egress_frames: int = 32
    #: node service calibration (see FleetNode)
    storage_gbps: float = 6.8
    base_latency_ns: int = 25_000
    queue_depth: int = 16
    frame_payload: int = 8192
    read_chunk_bytes: int = 64 * KiB
    #: placement: virtual ring points per node + spill-over threshold
    vnodes: int = 32
    spill_threshold: int = 24
    #: "train" = frame-train fast path on every MAC/switch egress while
    #: quiescent (byte-identical results, far fewer kernel events);
    #: "per_frame" = the classic one-event-per-frame reference path.
    coarsening: str = "train"

    def __post_init__(self) -> None:
        check_coarsening(self.coarsening)
        if self.n_nodes < 1 or self.nodes_per_leaf < 1:
            raise ConfigError("n_nodes and nodes_per_leaf must be >= 1")
        if self.n_gateways < 0:
            raise ConfigError("n_gateways must be >= 0")
        if self.link_gbps <= 0:
            raise ConfigError("link_gbps must be > 0")

    @property
    def gateways(self) -> int:
        """Effective gateway count (0 = one per node, min 2)."""
        return self.n_gateways or max(2, self.n_nodes)


@dataclass
class FleetResult:
    """Deterministic outcome of one fleet run (exact-comparable)."""

    n_nodes: int
    n_gateways: int
    offered: int
    completed: int
    total_bytes: int
    elapsed_ns: int
    agg_gbps: float
    p50_us: float
    p99_us: float
    p999_us: float
    spilled: int
    overflowed: int
    dropped_frames: int
    spine_pause_frames: int
    leaf_pause_frames: int
    far_sender_pause_ns: int
    frames_in: int
    frames_out: int
    frames_in_flight: int
    per_node_requests: Dict[str, int]

    def as_dict(self) -> Dict[str, Any]:
        """Plain dict for exact-stat smokes and JSON reports."""
        return dict(self.__dict__)


class Fleet:
    """One wired fleet: spine, leaves, nodes, gateways, placement."""

    def __init__(self, sim: Simulator, config: FleetConfig):
        self.sim = sim
        self.config = config
        n_leaves = -(-config.n_nodes // config.nodes_per_leaf)
        node_names = [f"n{i}" for i in range(config.n_nodes)]
        gw_names = [f"g{i}" for i in range(config.gateways)]
        leaf_nodes: List[List[str]] = [
            node_names[leaf * config.nodes_per_leaf:
                       (leaf + 1) * config.nodes_per_leaf]
            for leaf in range(n_leaves)]

        # spine: one fat port per leaf, one line-rate port per gateway
        spine_rates = ([config.link_gbps * len(members)
                        for members in leaf_nodes]
                       + [config.link_gbps] * len(gw_names))
        self.spine = EthernetSwitch(
            sim, name="spine", n_ports=len(spine_rates),
            buffer_bytes=config.switch_buffer_bytes,
            egress_frames=config.egress_frames, port_rates=spine_rates,
            coarsening=config.coarsening)

        self.leaves: List[EthernetSwitch] = []
        self.nodes: List[FleetNode] = []
        for leaf, members in enumerate(leaf_nodes):
            uplink_gbps = config.link_gbps * len(members)
            rates = [uplink_gbps] + [config.link_gbps] * len(members)
            switch = EthernetSwitch(
                sim, name=f"leaf{leaf}", n_ports=len(rates),
                buffer_bytes=config.switch_buffer_bytes,
                egress_frames=config.egress_frames, port_rates=rates,
                coarsening=config.coarsening)
            switch.ports[0].connect(self.spine.ports[leaf])
            switch.set_default_route(0)  # responses/acks go spine-ward
            for slot, name in enumerate(members):
                mac = EthernetMac(sim, name=f"{name}.nic",
                                  rate_gbps=config.link_gbps,
                                  coarsening=config.coarsening)
                mac.connect(switch.ports[1 + slot])
                switch.add_route(name, 1 + slot)
                self.spine.add_route(name, leaf)
                self.nodes.append(FleetNode(
                    sim, name, mac, storage_gbps=config.storage_gbps,
                    base_latency_ns=config.base_latency_ns,
                    queue_depth=config.queue_depth,
                    frame_payload=config.frame_payload,
                    read_chunk_bytes=config.read_chunk_bytes,
                    coarsening=config.coarsening))
            self.leaves.append(switch)

        ring = ConsistentHashRing(node_names, vnodes=config.vnodes)
        self.placement = LoadAwarePlacement(
            ring, spill_threshold=config.spill_threshold)
        self.meter = BandwidthMeter("fleet")
        self.gateways: List[ClientGateway] = []
        for g, name in enumerate(gw_names):
            mac = EthernetMac(sim, name=f"{name}.nic",
                              rate_gbps=config.link_gbps,
                              coarsening=config.coarsening)
            mac.connect(self.spine.ports[len(leaf_nodes) + g])
            self.spine.add_route(name, len(leaf_nodes) + g)
            gateway = ClientGateway(sim, name, mac,
                                    placement=self.placement,
                                    frame_payload=config.frame_payload,
                                    coarsening=config.coarsening)
            gateway.meter = self.meter
            self.gateways.append(gateway)

    def start(self) -> None:
        """Launch switches and node service loops."""
        self.spine.start()
        for leaf in self.leaves:
            leaf.start()
        for node in self.nodes:
            node.start()

    # -------------------------------------------------------------- results
    def _switch_macs(self) -> List[EthernetMac]:
        macs = list(self.spine.ports)
        for leaf in self.leaves:
            macs.extend(leaf.ports)
        return macs

    def result(self, offered: int) -> FleetResult:
        """Snapshot every counter into one exact-comparable record."""
        samples: List[float] = []
        for gateway in self.gateways:
            samples.extend(float(s) for s in gateway.latency.samples)
        if samples:
            latency = summarize(samples)
            p50, p99, p999 = latency.p50, latency.p99, latency.p999
        else:
            p50 = p99 = p999 = 0.0
        elapsed = self.meter.elapsed_ns
        total_bytes = self.meter.total_bytes
        all_macs = (self._switch_macs()
                    + [n.mac for n in self.nodes]
                    + [g.mac for g in self.gateways])
        spine_acct = self.spine.accounting()
        frames_in = spine_acct["frames_in"]
        frames_out = spine_acct["frames_out"]
        in_flight = spine_acct["in_flight"]
        for leaf in self.leaves:
            acct = leaf.accounting()
            frames_in += acct["frames_in"]
            frames_out += acct["frames_out"]
            in_flight += acct["in_flight"]
        return FleetResult(
            n_nodes=self.config.n_nodes,
            n_gateways=self.config.gateways,
            offered=offered,
            completed=sum(g.completed for g in self.gateways),
            total_bytes=total_bytes,
            elapsed_ns=elapsed,
            agg_gbps=(gbps_for(total_bytes, elapsed) if elapsed > 0 else 0.0),
            p50_us=p50 / 1000.0,
            p99_us=p99 / 1000.0,
            p999_us=p999 / 1000.0,
            spilled=self.placement.spilled,
            overflowed=self.placement.overflowed,
            dropped_frames=sum(m.dropped_frames for m in all_macs),
            spine_pause_frames=sum(p.pause_frames_sent
                                   for p in self.spine.ports),
            leaf_pause_frames=sum(p.pause_frames_sent
                                  for leaf in self.leaves
                                  for p in leaf.ports),
            far_sender_pause_ns=sum(g.mac.tx_pause_ns
                                    for g in self.gateways),
            frames_in=frames_in,
            frames_out=frames_out,
            frames_in_flight=in_flight,
            per_node_requests={n.name: n.served_requests
                               for n in self.nodes},
        )


def build_fleet(sim: Simulator, config: FleetConfig) -> Fleet:
    """Wire (but do not start) a fleet inside *sim*."""
    return Fleet(sim, config)


def run_fleet(config: FleetConfig, workload: FleetWorkload) -> FleetResult:
    """Serve one seeded GET workload on a private simulator."""
    sim = Simulator()
    fleet = build_fleet(sim, config)
    fleet.start()
    requests = generate_requests(workload)
    fleet.meter.mark_start(requests[0].issue_ns)
    shards = [requests[g::len(fleet.gateways)]
              for g in range(len(fleet.gateways))]
    for gateway, shard in zip(fleet.gateways, shards):
        gateway.start(shard)
    sim.run()
    return fleet.result(offered=len(requests))


def run_incast(config: FleetConfig, put_bytes: int = 4 * MiB) -> FleetResult:
    """All gateways push to node ``n0`` at t=0 — the incast scenario.

    Demonstrates multi-hop PAUSE: the victim node's storage-rate ingest
    backs up its leaf port, the leaf's uplink FIFO pauses the spine, and
    the spine's client-port FIFOs pause the far senders — with zero
    frame loss end to end (asserted by tests and the check.sh smoke).
    """
    if put_bytes < 1:
        raise ConfigError("put_bytes must be >= 1")
    sim = Simulator()
    fleet = build_fleet(sim, config)
    fleet.start()
    fleet.meter.mark_start(0)
    for stream, gateway in enumerate(fleet.gateways):
        gateway.start_collector()
        _ = sim.process(gateway.put("n0", stream, put_bytes),
                        name=f"{gateway.name}.put")
    sim.run()
    return fleet.result(offered=len(fleet.gateways))

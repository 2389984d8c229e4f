"""Convenience assembly of a complete NVMe device on a fabric."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..pcie.link import LinkParams
from ..pcie.root_complex import PcieEndpoint, PcieFabric
from ..sim.core import Simulator
from ..units import GiB, KiB
from .controller import NvmeController
from .namespace import Namespace
from .profiles import SAMSUNG_990_PRO_LIKE, SsdPerfProfile
from .ssd import SsdBackend

__all__ = ["NvmeDeviceConfig", "NvmeDevice", "build_nvme_device"]

#: controller BAR size (registers + doorbells)
NVME_BAR_SIZE = 16 * KiB


@dataclass(frozen=True)
class NvmeDeviceConfig:
    """Parameters of one attached NVMe SSD."""

    name: str = "ssd"
    bar_base: int = 0xF000_0000
    capacity_bytes: int = 64 * GiB  # simulated region; paper drive is 2 TB
    link: LinkParams = field(default_factory=lambda: LinkParams(
        gen=4, lanes=4, propagation_ns=75))
    profile: SsdPerfProfile = SAMSUNG_990_PRO_LIKE
    functional: bool = True


@dataclass
class NvmeDevice:
    """A fully wired NVMe SSD: endpoint + backend + controller + namespace."""

    config: NvmeDeviceConfig
    endpoint: PcieEndpoint
    backend: SsdBackend
    namespace: Namespace
    controller: NvmeController

    @property
    def doorbell_base(self) -> int:
        """Bus address of the doorbell region."""
        return self.config.bar_base


def build_nvme_device(sim: Simulator, fabric: PcieFabric,
                      config: NvmeDeviceConfig = NvmeDeviceConfig(),
                      coarsening: str = "train") -> NvmeDevice:
    """Attach a complete NVMe SSD to *fabric* and return its handles.

    *coarsening* selects the controller's write payload-fetch path
    (DESIGN.md §11.7): ``"train"`` computes it while quiescent,
    ``"per_frame"`` keeps one process per fetched page.
    """
    endpoint = fabric.attach_endpoint(config.name, config.link,
                                      max_read_tags=64)
    backend = SsdBackend(sim, config.profile)
    namespace = Namespace(config.capacity_bytes)
    controller = NvmeController(sim, endpoint, backend, namespace,
                                name=config.name, functional=config.functional,
                                coarsening=coarsening)
    fabric.add_bar(endpoint, config.bar_base, NVME_BAR_SIZE, controller,
                   name=f"{config.name}.bar0")
    return NvmeDevice(config=config, endpoint=endpoint, backend=backend,
                      namespace=namespace, controller=controller)

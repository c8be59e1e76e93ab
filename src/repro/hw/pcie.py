"""The PCIe bus between a host CPU/DRAM and its RNIC.

Three serialised paths are modelled, because the paper's results hinge
on their asymmetry (Section 3.2.2):

* **PIO** — the CPU writes WQEs into the NIC through write-combining
  buffers.  Cost is per 64-byte cacheline, which produces the stepwise
  throughput decline of inlined WRITEs at 64-byte payload intervals
  (Figure 4b).
* **DMA read** — *non-posted* transactions: the NIC must keep request
  state until the completion returns, so these are expensive.  Fetching
  a non-inlined payload costs several transactions (WQE fetch, address
  translation, payload fetch).
* **DMA write** — *posted* transactions: fire-and-forget, cheap.

Each path separates *occupancy* (which limits throughput) from
*pipeline latency* (which delays an individual transaction but is
overlapped across transactions).  A DMA read or write is one calendar
entry at the end of occupancy plus latency (``FifoServer.serve``'s
``latency``), then a zero-delay hop to the caller's event: data lands,
and becomes visible, only after the same instant's calendar work.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim import Event, FifoServer, Simulator
from repro.hw.params import HardwareProfile


class PcieBus:
    """One host's PCIe connection to its RNIC."""

    def __init__(self, sim: Simulator, profile: HardwareProfile, name: str = "pcie") -> None:
        self.sim = sim
        self.profile = profile
        self.pio = FifoServer(sim, name + ".pio")
        #: one DMA engine serves reads and writes: completion-event DMA
        #: writes steal capacity from payload DMA — the "extra overhead
        #: on the RNIC's PCIe bus" of Section 2.2.2 that makes selective
        #: signaling worth using
        self.dma = FifoServer(sim, name + ".dma")

    # -- PIO --------------------------------------------------------------

    def pio_write(self, wqe_bytes: int) -> Event:
        """Push one WQE (doorbell included) through write-combining PIO."""
        return self.pio.serve(self.profile.pio_ns(wqe_bytes))

    def doorbell(self) -> Event:
        """Ring a bare doorbell (no WQE body), e.g. for batched RECVs."""
        return self.pio.serve(self.profile.pio_base_ns)

    # -- DMA --------------------------------------------------------------

    def dma_read(self, payload_bytes: int, transactions: int = 1) -> Event:
        """NIC-initiated read of host memory (non-posted).

        ``transactions`` counts the round trips the engine must issue;
        occupancy scales with transactions and payload, while the
        pipeline latency is paid once.
        """
        p = self.profile
        occupancy = p.dma_read_ns * transactions + payload_bytes / p.pcie_bw
        done = Event(self.sim)
        self.dma.serve(occupancy, done, p.dma_read_latency_ns).callbacks.append(_land)
        return done

    def dma_write(self, payload_bytes: int) -> Event:
        """NIC-initiated write into host memory (posted)."""
        p = self.profile
        occupancy = p.dma_write_ns + payload_bytes / p.pcie_bw
        done = Event(self.sim)
        self.dma.serve(occupancy, done, p.dma_write_latency_ns).callbacks.append(_land)
        return done

    def dma_atomic(self, on_locked: Optional[Callable[[], None]] = None) -> Event:
        """A locked read-modify-write for a remote atomic (CmpSwap/FetchAdd).

        ConnectX NICs implement IB atomics as a non-posted read plus a
        posted write-back issued under an internal lock that stalls the
        DMA engine for the whole round trip — which is what makes
        atomics an order of magnitude slower than READs and, crucially,
        *serialised per device*: the single ``dma`` FifoServer never
        overlaps two occupancy periods, so two concurrent atomics
        targeting this host execute one after the other.

        ``on_locked`` runs exactly at the end of the occupancy period —
        the serialisation point — so the caller's memory mutation is
        atomic with respect to every other atomic on this bus.  The
        returned event fires after the pipeline latency, when the
        original value is available to send back.  That lock point is
        why this path keeps its end-of-occupancy calendar entry instead
        of fusing it with the latency like :meth:`dma_read`.
        """
        p = self.profile
        occupancy = (
            p.dma_read_ns
            + p.pcie_atomic_ns
            + p.dma_write_ns
            + 16 / p.pcie_bw  # one quadword each way
        )
        done = self.sim.event()
        served = self.dma.serve(occupancy)

        def _unlocked(_e: Event) -> None:
            if on_locked is not None:
                on_locked()
            self.sim.call_in(p.dma_read_latency_ns, done.succeed)

        served.add_callback(_unlocked)
        return done


def _land(fired: Event) -> None:
    """Relay a fused DMA entry to the caller's event (its value)."""
    fired._value.succeed()

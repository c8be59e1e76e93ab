"""Discrete-event simulation engine.

This package is a small, dependency-free discrete-event kernel in the
style of SimPy, specialised for the needs of the RDMA fabric models in
:mod:`repro.hw`:

* :class:`~repro.sim.engine.Simulator` — the event calendar and clock
  (simulated time is measured in nanoseconds).
* :class:`~repro.sim.engine.Process` — generator-based coroutines that
  ``yield`` events to wait for them.
* :class:`~repro.sim.resources.FifoServer` — an O(1) deterministic
  queueing server used for every serialised hardware unit (NIC engines,
  PCIe PIO bus, DMA engines, CPU cores).
* :class:`~repro.sim.resources.Store` — a FIFO mailbox used for
  completion queues and request queues.
"""

from repro.sim.engine import Event, Process, Simulator, Timeout
from repro.sim.resources import FifoServer, Resource, Store
from repro.sim.stats import LatencyRecorder, RateMeter

__all__ = [
    "Event",
    "FifoServer",
    "LatencyRecorder",
    "Process",
    "RateMeter",
    "Resource",
    "Simulator",
    "Store",
    "Timeout",
]

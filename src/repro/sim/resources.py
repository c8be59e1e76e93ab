"""Queueing resources used by the hardware models.

``FifoServer`` is the workhorse: every serialised hardware unit in the
RNIC/PCIe models (a processing engine, the PIO path of a PCIe bus, a DMA
engine, a CPU core issuing posts) is a single FIFO queue with
deterministic service times.  Because service is deterministic and FIFO,
a server does not need to be simulated with per-customer processes: its
state is just the time at which each of its ``capacity`` service slots
next becomes free, so admitting one customer is O(log capacity) and adds
a single calendar entry.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, List

from repro.sim.engine import Event, Simulator

_new_event = Event.__new__


class FifoServer:
    """A FIFO queueing station with deterministic per-job service times.

    ``serve(service)`` enqueues a job requiring ``service`` ns of work
    and returns an :class:`Event` that fires when the job completes.
    With ``capacity`` > 1 the station behaves like ``capacity`` parallel
    servers fed from a single FIFO queue.
    """

    __slots__ = (
        "sim", "name", "capacity", "_free_at", "busy_time", "jobs", "obs", "tracer",
    )

    def __init__(self, sim: Simulator, name: str, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        # Min-heap of times at which each service slot becomes free.
        self._free_at: List[float] = [0.0] * capacity
        heapq.heapify(self._free_at)
        self.busy_time = 0.0
        self.jobs = 0
        # Observability (repro.obs): when the simulator carries a
        # metrics registry, `obs` is this station's queue-delay
        # histogram; utilization/jobs are pulled at snapshot time.
        metrics = getattr(sim, "metrics", None)
        self.obs = None if metrics is None else metrics.watch_fifo_server(self)
        # Cached once: observability attaches to the simulator before any
        # resources exist (see Simulator's class docstring), so a missing
        # tracer here stays missing — and a 3-arg getattr on an absent
        # attribute costs more than the rest of a serve() admission.
        self.tracer = getattr(sim, "tracer", None)

    def serve(self, service: float, value: Any = None, latency: float = 0.0) -> Event:
        """Enqueue a job; the returned event fires at completion.

        ``latency`` delays the event past the end of service without
        holding the station: a fixed pipeline or propagation delay
        after occupancy.  The event is one calendar entry at exactly
        the instant a completion event followed by a ``latency`` timeout
        would have fired (docs/ENGINE.md, "Relay fusion").
        """
        if service < 0:
            raise ValueError("negative service time: %r" % service)
        if latency < 0:
            raise ValueError("negative latency: %r" % latency)
        sim = self.sim
        now = sim.now
        free_at = self._free_at
        # Single-slot stations (the common case: every PCIe/NIC path)
        # skip the heap; larger stations pay one pop + push.
        if len(free_at) == 1:
            start = free_at[0]
            if start < now:
                start = now
            done_at = start + service
            free_at[0] = done_at
        else:
            start = heapq.heappop(free_at)
            if start < now:
                start = now
            done_at = start + service
            heapq.heappush(free_at, done_at)
        if self.obs is not None:
            self.obs.observe(start - now)
        self.busy_time += service
        self.jobs += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.span(self.name, start, done_at)
        # Inlined pre-triggered Event construction: serve() runs once
        # per simulated hardware transaction, and the Event.__init__ /
        # succeed() round trip costs more than the whole admission.
        event = _new_event(Event)
        event.sim = sim
        event.callbacks = []
        event._value = value
        event.triggered = True
        # The same float operations as a relative schedule of the
        # completion followed by a relative ``latency`` timeout.
        sim._schedule_at((now + (done_at - now)) + latency, event)
        return event

    def delay_until_free(self) -> float:
        """How long a job arriving now would wait before service."""
        return max(0.0, self._free_at[0] - self.sim.now)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` ns this station spent busy.

        ``busy_time`` accrues a job's full service at admission, so the
        tail of a job that extends past the current instant has not
        actually been worked yet.  Clamp that overhang off before
        dividing: without it a station measured near the end of a
        bounded run can report a utilization above 1.0.
        """
        if elapsed <= 0:
            return 0.0
        now = self.sim.now
        busy = self.busy_time
        for free_at in self._free_at:
            if free_at > now:
                busy -= free_at - now
        return busy / (elapsed * self.capacity)


class Store:
    """An unbounded FIFO mailbox.

    ``put(item)`` never blocks.  ``get()`` returns an event that fires
    with the oldest item, immediately if one is queued, otherwise when
    the next ``put`` happens.  Used for completion queues, request
    queues, and inter-process handoff.
    """

    __slots__ = ("sim", "name", "_items", "_getters", "obs")

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        metrics = getattr(sim, "metrics", None)
        if metrics is None:
            self.name = name
            self.obs = None
        else:
            if not name:
                # Anonymous stores are numbered by the per-simulator
                # registry, not a process-global counter — a metric
                # name must not depend on how many simulators ran
                # earlier in the same process.
                name = metrics.anon_store_name()
            self.name = name
            # depth high-water mark: how far this mailbox backed up
            self.obs = metrics.watch_store(self, name)

    def put(self, item: Any) -> None:
        """Deposit ``item``, waking the oldest waiting getter if any."""
        getters = self._getters
        if getters:
            # Inlined Event.succeed: the getter is our own untriggered
            # event, so the double-trigger check can't fire and the
            # call frame is pure overhead on the handoff hot path.
            event = getters.popleft()
            event.triggered = True
            event._value = item
            self.sim._schedule(0.0, event)
        else:
            self._items.append(item)
            if self.obs is not None:
                self.obs.update_max(len(self._items))

    def get(self) -> Event:
        """An event firing with the next item."""
        items = self._items
        if items:
            # Inlined Event + succeed: a ready handoff is the hot path
            # of every completion queue and request mailbox.
            sim = self.sim
            event = _new_event(Event)
            event.sim = sim
            event.callbacks = []
            event._value = items.popleft()
            event.triggered = True
            sim._schedule(0.0, event)
            return event
        event = _new_event(Event)
        event.sim = self.sim
        event.callbacks = []
        event._value = None
        event.triggered = False
        self._getters.append(event)
        return event

    def try_get(self) -> Any:
        """Pop the next item without waiting, or ``None`` if empty."""
        if self._items:
            return self._items.popleft()
        return None

    def clear(self) -> int:
        """Discard all queued items; returns how many were dropped."""
        n = len(self._items)
        self._items.clear()
        return n

    def cancel(self, event: Event) -> bool:
        """Withdraw a waiting getter (e.g. its process crashed).

        Returns True if the event was still waiting; False if it was
        never queued here or has already been handed an item.
        """
        try:
            self._getters.remove(event)
            return True
        except ValueError:
            return False

    def __len__(self) -> int:
        return len(self._items)


class Resource:
    """A classic counted resource with FIFO acquisition.

    Unlike :class:`FifoServer`, the holder decides when to release, so
    this suits critical sections whose length is not known up front.
    """

    __slots__ = ("sim", "capacity", "_in_use", "_waiters")

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        """An event firing when a unit is granted to the caller."""
        event = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one unit, granting it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError("release without acquire")
        if self._waiters:
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1

    @property
    def in_use(self) -> int:
        return self._in_use

"""Event calendar, events, and generator-based processes.

The simulator dispatches events in exact ``(time, sequence)`` order:
two events scheduled for the same instant fire in the order they were
scheduled.  Simulated time is a float number of nanoseconds.

The calendar is one binary heap of ``(time, seq, event)`` entries.
Every schedule bumps the simulator-wide ``seq`` counter, so no two
entries ever compare equal and the heap pops them in exactly that
order; a delay that collapses into the current instant in float
arithmetic simply ties with ``now`` and fires after the entries
already due then.  docs/ENGINE.md has the design notes and the
measurements behind them.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    An event starts *untriggered*.  Calling :meth:`succeed` marks it
    triggered, records its value, and schedules its callbacks to run at
    the current simulation time.  Events may be triggered at most once.
    """

    __slots__ = ("sim", "callbacks", "_value", "triggered")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self.triggered = False

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed` (``None`` until then)."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, delivering ``value`` to all waiters."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self._value = value
        self.sim._schedule(0.0, self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event fires.

        If the event has already been dispatched, ``fn`` runs at the
        current simulation time (never synchronously), preserving
        deterministic ordering.  Late callbacks are batched: consecutive
        registrations with no intervening schedule share one calendar
        entry instead of allocating a proxy event each (the entries
        they saved could only ever have been adjacent, so the dispatch
        order is exactly the per-proxy order).
        """
        callbacks = self.callbacks
        if callbacks is None:
            # Already dispatched: run the callback via the calendar so
            # it still fires in deterministic order, batching with the
            # previous late callback when nothing was scheduled since.
            sim = self.sim
            flush = sim._late_flush
            if (
                flush is not None
                and sim._late_seq == sim._seq
                and flush.callbacks is not None
            ):
                flush.pairs.append((self, fn))
                return
            flush = _LateFlush.__new__(_LateFlush)
            flush.sim = sim
            flush.pairs = [(self, fn)]
            flush.callbacks = [_run_late_pairs]
            flush._value = None
            flush.triggered = True
            sim._schedule(0.0, flush)
            sim._late_flush = flush
            sim._late_seq = sim._seq
        else:
            callbacks.append(fn)


class _LateFlush(Event):
    """One calendar entry carrying a batch of late-added callbacks."""

    __slots__ = ("pairs",)


def _run_late_pairs(flush: "_LateFlush") -> None:
    for event, fn in flush.pairs:
        fn(event)


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError("negative delay: %r" % delay)
        # Inlined Event.__init__ — Timeouts are the single hottest
        # allocation in the simulator and the super() chain costs more
        # than the attribute stores themselves.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self.triggered = True
        sim._schedule(delay, self)


_new_timeout = Timeout.__new__


class Process(Event):
    """A coroutine driven by the simulator.

    The wrapped generator ``yield``s :class:`Event` instances; the
    process resumes when the yielded event fires, receiving the event's
    value as the result of the ``yield`` expression.  A process is
    itself an event that fires (with the generator's return value) when
    the generator finishes.
    """

    __slots__ = ("_gen", "_send", "_on_fire", "name")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Event, Any, Any],
        name: str = "process",
    ) -> None:
        super().__init__(sim)
        self._gen = gen
        # One bound ``send`` and one bound ``_resume`` for the whole
        # process lifetime — resuming is the hottest call chain in every
        # process-driven model and rebinding them per yield costs more
        # than the generator switch itself.
        self._send = gen.send
        self._on_fire = self._resume
        self.name = name
        # Kick off the generator via the calendar so that construction
        # order does not matter within a time step.
        start = Event(sim)
        start.callbacks.append(self._on_fire)
        start.succeed()

    def _resume(self, completed: Event) -> None:
        try:
            target = self._send(completed._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        try:
            callbacks = target.callbacks
        except AttributeError:
            raise TypeError(
                "%s yielded %r; processes must yield Event instances"
                % (self.name, target)
            ) from None
        if callbacks is None:
            target.add_callback(self._on_fire)
        else:
            callbacks.append(self._on_fire)


class Simulator:
    """The event calendar and simulated clock (nanoseconds)."""

    #: observability creation hook (see :func:`repro.obs.session.capture`):
    #: when set, called with each new simulator so an ambient capture can
    #: attach ``sim.metrics`` / ``sim.tracer`` before any resources exist
    _obs_hook: Optional[Callable[["Simulator"], None]] = None

    def __init__(self) -> None:
        self.now: float = 0.0
        #: schedules so far: the tie-break of every calendar entry
        self._seq = 0
        #: the calendar: a binary heap of (time, seq, event) entries
        self._heap: List[Tuple[float, int, Event]] = []
        #: late-callback batching state (see Event.add_callback)
        self._late_flush: Optional[_LateFlush] = None
        self._late_seq = -1
        if Simulator._obs_hook is not None:
            Simulator._obs_hook(self)

    # -- scheduling -----------------------------------------------------

    def _schedule(self, delay: float, event: Event) -> None:
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (self.now + delay, seq, event))

    def _schedule_at(self, time: float, event: Event) -> None:
        """Schedule ``event`` at the absolute instant ``time``.

        The entry point for fused relays (docs/ENGINE.md, "Relay
        fusion"): a station admission followed by a fixed latency is
        one calendar entry at ``(now + (done_at - now)) + latency``,
        the exact float a completion event plus a relative ``latency``
        timeout would fire at (re-deriving one summed delay could land
        an ulp away and reorder a tie).  ``time`` must not precede
        ``now``.
        """
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (time, seq, event))

    def quiet(self) -> bool:
        """Whether no other calendar entry is due at the current instant.

        Called from a calendar callback, True means a zero-delay event
        scheduled now would be the very next one dispatched.  A callback
        that is the sole callback of the event being dispatched, and
        whose last action would be to schedule such a relay, may then
        run the relay's work in place instead — no dispatch order can
        tell the difference (docs/ENGINE.md, "Relay fusion").  Only
        meaningful from inside a calendar callback.
        """
        heap = self._heap
        return not heap or heap[0][0] > self.now

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` ns from now.

        Allocation and scheduling are inlined: ``sim.timeout`` is the
        front door for every modelled latency, and the constructor +
        ``_schedule`` call frames would double its cost.
        """
        if delay < 0:
            raise ValueError("negative delay: %r" % delay)
        event = _new_timeout(Timeout)
        event.sim = self
        event.callbacks = []
        event._value = value
        event.triggered = True
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (self.now + delay, seq, event))
        return event

    def process(
        self, gen: Generator[Event, Any, Any], name: str = "process"
    ) -> Process:
        """Register a generator as a running process."""
        return Process(self, gen, name)

    def call_in(self, delay: float, fn: Callable[[], None]) -> None:
        """Run a plain callback ``delay`` ns from now."""
        event = self.timeout(delay)
        event.callbacks.append(lambda _e: fn())

    # -- execution ------------------------------------------------------

    def _drain(self, until: float) -> None:
        """Dispatch every event with ``time <= until`` in (time, seq) order."""
        heap = self._heap
        while heap and heap[0][0] <= until:
            self.now, _seq, event = _heappop(heap)
            callbacks, event.callbacks = event.callbacks, None
            if callbacks:
                for fn in callbacks:
                    fn(event)

    def run(self, until: float) -> None:
        """Advance the clock, dispatching events, until time ``until``.

        Events scheduled exactly at ``until`` do fire; the clock ends at
        ``until`` even if the calendar drains early.
        """
        if until < self.now:
            raise ValueError("cannot run backwards: until=%r < now=%r" % (until, self.now))
        self._drain(until)
        self.now = until

    def run_until_idle(self, limit: float = float("inf")) -> None:
        """Dispatch every pending event (bounded by ``limit``).

        With a finite ``limit`` the clock ends at ``limit`` (exactly
        like :meth:`run`), even when the calendar drains early —
        otherwise rates and utilizations computed from ``sim.now``
        after a bounded drain would be silently inflated.
        """
        if limit < self.now:
            raise ValueError(
                "cannot run backwards: limit=%r < now=%r" % (limit, self.now)
            )
        self._drain(limit)
        if limit != float("inf"):
            self.now = limit

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` when idle)."""
        heap = self._heap
        return heap[0][0] if heap else float("inf")

"""The switched fabric connecting machines.

InfiniBand/RoCE links are lossless (credit-based / priority flow
control, Section 2.2.3), so the fabric never drops packets on its own.
Each machine has one full-duplex port: a transmit-side
:class:`~repro.sim.FifoServer` models serialisation onto the wire, and a
fixed propagation + switch delay follows.  The two are one calendar
entry: delivery is scheduled at serialisation end plus propagation
(``FifoServer.serve``'s ``latency``).

Failure injection happens here.  The general mechanism is a *fault
hook* — ``fn(src, dst, packet, wire_bytes) -> Optional[LinkVerdict]`` —
installed by :mod:`repro.faults`; it can drop a packet before the wire,
corrupt it (the receiving NIC's ICRC check discards it after it has
burned wire and ingress capacity), duplicate it, or add extra delivery
delay (reordering).  The legacy knobs ``bit_error_rate`` and
``loss_filter`` are kept as thin wrappers over the same decision point:
they are consulted only when no fault hook is installed, and express
the paper's only loss source (bit errors; affected messages are simply
dropped and it is the application's job to retry).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.sim import FifoServer, Simulator
from repro.hw.params import HardwareProfile

#: A delivery callback: receives the packet object.
DeliverFn = Callable[[Any], None]


@dataclass
class LinkVerdict:
    """What the fault layer decided about one packet transmission.

    ``drop`` loses the packet before serialisation (egress bit error /
    link down).  ``corrupt`` delivers the packet with its ``corrupt``
    flag set — the receiving NIC discards it after the ICRC check, so
    the packet still consumes wire and ingress-engine capacity.
    ``duplicate`` delivers that many extra copies, each ``dup_delay_ns``
    apart.  ``extra_delay_ns`` is added to the propagation delay, which
    reorders the packet relative to later traffic.  ``tx_mult`` scales
    the serialisation time (a degraded, slow-but-alive link); 1.0 is
    neutral.
    """

    drop: bool = False
    corrupt: bool = False
    duplicate: int = 0
    extra_delay_ns: float = 0.0
    dup_delay_ns: float = 0.0
    tx_mult: float = 1.0


#: A fault hook: judges one transmission, None means "no opinion".
FaultHook = Callable[[str, str, Any, int], Optional[LinkVerdict]]


class Port:
    """One machine's full-duplex fabric port."""

    def __init__(self, sim: Simulator, profile: HardwareProfile, name: str) -> None:
        self.sim = sim
        self.profile = profile
        self.tx = FifoServer(sim, name + ".tx")
        self.deliver: DeliverFn = _unattached
        self.tx_packets = 0
        self.tx_bytes = 0
        #: calendar callback for a packet arriving at this port (the
        #: fired event's value); bound once, not per packet
        self.arrive = self._arrive

    def _arrive(self, fired: Any) -> None:
        self.deliver(fired._value)


def _unattached(packet: Any) -> None:
    raise RuntimeError("port has no delivery handler attached")


class Fabric:
    """A non-blocking crossbar switch between named machines.

    The models in this repo run client counts into the hundreds; a real
    cluster has per-link contention, but the paper's bottlenecks are all
    at the *server's* NIC and PCIe bus, so a crossbar with per-port
    serialisation captures the relevant contention (the server's own
    port is shared by all of its traffic).
    """

    def __init__(self, sim: Simulator, profile: HardwareProfile, loss_seed: int = 1) -> None:
        self.sim = sim
        self.profile = profile
        self.ports: Dict[str, Port] = {}
        #: probability that any one packet is corrupted on the wire
        #: (legacy knob: a thin wrapper over the fault layer's drop
        #: verdict, used when no fault hook is installed)
        self.bit_error_rate = 0.0
        #: optional fn(src, dst) -> loss rate, overriding the flat rate
        #: (lets failure-injection tests target one direction)
        self.loss_filter: Optional[Callable[[str, str], float]] = None
        #: the systematic fault layer (repro.faults installs this);
        #: takes precedence over the legacy knobs above
        self.fault_hook: Optional[FaultHook] = None
        self._rng = random.Random(loss_seed)
        self.dropped = 0
        self.corrupted = 0
        self.duplicated = 0
        # Cached once, as FifoServer does: observability attaches to
        # the simulator before any resources exist.
        self.tracer = getattr(sim, "tracer", None)

    @property
    def lossy(self) -> bool:
        """Whether any loss source is configured.

        Reliable transports arm their retransmission timers off this —
        in a lossless run the timers would only slow the simulator.
        """
        return (
            self.bit_error_rate > 0
            or self.loss_filter is not None
            or self.fault_hook is not None
        )

    def attach(self, name: str, deliver: DeliverFn) -> Port:
        """Register machine ``name`` and its packet-delivery handler."""
        if name in self.ports:
            raise ValueError("machine %r already attached" % name)
        port = Port(self.sim, self.profile, name)
        port.deliver = deliver
        self.ports[name] = port
        return port

    def _judge(self, src: str, dst: str, packet: Any, wire_bytes: int) -> Optional[LinkVerdict]:
        """One decision point for every loss source.

        The fault hook wins when installed; otherwise the legacy knobs
        (a flat bit-error rate, or a per-direction loss filter) roll
        against the fabric's private RNG.
        """
        if self.fault_hook is not None:
            return self.fault_hook(src, dst, packet, wire_bytes)
        rate = (
            self.loss_filter(src, dst)
            if self.loss_filter is not None
            else self.bit_error_rate
        )
        if rate and self._rng.random() < rate:
            return LinkVerdict(drop=True)
        return None

    def transmit(self, src: str, dst: str, packet: Any, wire_bytes: int) -> None:
        """Send ``packet`` from ``src`` to ``dst``.

        Serialisation happens on the source port; after the propagation
        delay the packet is handed to the destination's handler.  The
        source port must exist; a missing destination is a programming
        error surfaced at delivery time.
        """
        port = self.ports[src]
        port.tx_packets += 1
        port.tx_bytes += wire_bytes
        verdict = self._judge(src, dst, packet, wire_bytes)
        if verdict is not None and verdict.drop:
            self.dropped += 1
            return
        corrupt = verdict is not None and verdict.corrupt
        if hasattr(packet, "corrupt"):
            # The flag is re-stamped on every (re)transmission of the
            # same packet object, so a retransmit starts clean.
            packet.corrupt = corrupt
        if corrupt:
            self.corrupted += 1
        extra_delay = verdict.extra_delay_ns if verdict is not None else 0.0
        tx_time = wire_bytes / self.profile.link_bw
        if verdict is not None and verdict.tx_mult != 1.0:
            tx_time *= max(1.0, verdict.tx_mult)
        dst_port = self.ports[dst]
        delay = self.profile.wire_delay_ns + extra_delay
        tracer = self.tracer
        if tracer is not None:
            # The span starts where serialisation starts (after any
            # packets queued ahead on this port) and ends at arrival.
            start = self.sim.now + port.tx.delay_until_free()
            tracer.span(
                "wire %s->%s" % (src, dst),
                start,
                start + tx_time + delay,
                "%d bytes" % wire_bytes,
            )
        port.tx.serve(tx_time, packet, delay).callbacks.append(dst_port.arrive)
        if verdict is not None and verdict.duplicate > 0:
            # Duplicates consume wire capacity like any other packet.
            for copy in range(verdict.duplicate):
                self.duplicated += 1
                dup_delay = delay + (copy + 1) * verdict.dup_delay_ns
                port.tx.serve(tx_time, packet, dup_delay).callbacks.append(
                    dst_port.arrive
                )

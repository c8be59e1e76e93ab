"""Tests for the event tracer (Figure 1's instrumentation)."""

from repro.bench.trace import Tracer, _run_one, fig1
from repro.hw import APT, Fabric, Machine
from repro.sim import Simulator
from repro.verbs import RdmaDevice, Transport, WorkRequest, connect_pair


def test_tracer_records_spans_and_marks():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.span("stationA", 0.0, 10.0, "work")
    sim.run(until=5.0)
    tracer.mark("stationB", "tick")
    assert len(tracer.events) == 2
    assert tracer.events[1].start_ns == tracer.events[1].end_ns == 5.0


def test_render_sorts_by_time():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.span("late", 100.0, 110.0)
    tracer.span("early", 1.0, 2.0)
    out = tracer.render("t")
    assert out.index("early") < out.index("late")


def test_untraced_simulations_record_nothing():
    """Tracing is strictly opt-in: a plain Simulator has no tracer and
    the hot paths skip all instrumentation."""
    sim = Simulator()
    fabric = Fabric(sim, APT)
    server = RdmaDevice(Machine(sim, fabric, "s"))
    client = RdmaDevice(Machine(sim, fabric, "c"))
    mr = server.register_memory(128)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    client.post_send(
        cqp, WorkRequest.write(raddr=mr.addr, rkey=mr.rkey, payload=b"x", inline=True, signaled=False)
    )
    sim.run_until_idle()
    assert not hasattr(sim, "tracer")
    assert mr.read(0, 1) == b"x"


def test_traced_write_shows_pio_nic_wire_dma_order():
    out = _run_one("WRITE, inlined, unreliable, unsignaled")
    pio = out.index("requester.pcie.pio")
    nic = out.index("requester.nic.tx")
    wire = out.index("wire requester->responder")
    dma = out.index("responder.pcie.dma")
    assert pio < nic < wire < dma


def test_fig1_covers_all_four_verbs():
    out = fig1()
    for verb in ("WRITE, inlined", "WRITE (signaled, RC)", "READ", "SEND/RECV (UD)"):
        assert verb in out


def test_wire_spans_start_where_serialisation_starts():
    """Two packets queued back to back on one port: the second is not
    on the wire until the first has been serialised, so the spans'
    serialisation parts do not overlap.  Each span ends on arrival."""
    sim = Simulator()
    sim.tracer = tracer = Tracer(sim)
    fabric = Fabric(sim, APT)
    arrivals = []
    fabric.attach("a", lambda packet: None)
    fabric.attach("b", lambda packet: arrivals.append(sim.now))
    wire_bytes = 700
    fabric.transmit("a", "b", "p1", wire_bytes)
    fabric.transmit("a", "b", "p2", wire_bytes)
    sim.run_until_idle()
    tx_time = wire_bytes / APT.link_bw
    wire = [e for e in tracer.events if e.station == "wire a->b"]
    port = [e for e in tracer.events if e.station == "a.tx"]
    assert [w.start_ns for w in wire] == [p.start_ns for p in port] == [0.0, tx_time]
    assert wire[0].start_ns + tx_time <= wire[1].start_ns
    assert [w.end_ns for w in wire] == arrivals

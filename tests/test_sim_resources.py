"""Unit and property tests for FifoServer, Store, and Resource."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FifoServer, Resource, Simulator, Store


# ---------------------------------------------------------------------------
# FifoServer
# ---------------------------------------------------------------------------


def test_server_serves_immediately_when_idle():
    sim = Simulator()
    server = FifoServer(sim, "nic")
    done = []
    server.serve(10.0).add_callback(lambda e: done.append(sim.now))
    sim.run_until_idle()
    assert done == [10.0]


def test_server_queues_back_to_back_jobs():
    sim = Simulator()
    server = FifoServer(sim, "nic")
    done = []
    for _ in range(3):
        server.serve(10.0).add_callback(lambda e: done.append(sim.now))
    sim.run_until_idle()
    assert done == [10.0, 20.0, 30.0]


def test_server_idle_gap_resets_queue():
    sim = Simulator()
    server = FifoServer(sim, "nic")
    done = []
    server.serve(10.0).add_callback(lambda e: done.append(sim.now))
    sim.run(until=100.0)
    server.serve(10.0).add_callback(lambda e: done.append(sim.now))
    sim.run_until_idle()
    assert done == [10.0, 110.0]


def test_server_capacity_two_runs_jobs_in_parallel():
    sim = Simulator()
    server = FifoServer(sim, "dual", capacity=2)
    done = []
    for _ in range(4):
        server.serve(10.0).add_callback(lambda e: done.append(sim.now))
    sim.run_until_idle()
    assert done == [10.0, 10.0, 20.0, 20.0]


def test_server_delivers_value():
    sim = Simulator()
    server = FifoServer(sim, "nic")
    got = []
    server.serve(5.0, value="pkt").add_callback(lambda e: got.append(e.value))
    sim.run_until_idle()
    assert got == ["pkt"]


def test_server_rejects_negative_service():
    sim = Simulator()
    server = FifoServer(sim, "nic")
    with pytest.raises(ValueError):
        server.serve(-1.0)


def test_server_rejects_bad_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        FifoServer(sim, "nic", capacity=0)


def test_delay_until_free_tracks_backlog():
    sim = Simulator()
    server = FifoServer(sim, "nic")
    assert server.delay_until_free() == 0.0
    server.serve(40.0)
    assert server.delay_until_free() == 40.0


def test_utilization_counts_busy_fraction():
    sim = Simulator()
    server = FifoServer(sim, "nic")
    server.serve(30.0)
    sim.run(until=100.0)
    assert server.utilization(100.0) == pytest.approx(0.3)


def test_server_throughput_matches_service_rate():
    """A saturated deterministic server completes 1/service jobs per ns."""
    sim = Simulator()
    server = FifoServer(sim, "nic")
    done = []
    for _ in range(1000):
        server.serve(28.5).add_callback(lambda e: done.append(sim.now))
    sim.run_until_idle()
    assert done[-1] == pytest.approx(28.5 * 1000)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
def test_server_completions_are_fifo_and_work_conserving(services):
    """Property: completion order equals submission order, and the last
    completion equals the total work when all jobs arrive at time zero."""
    sim = Simulator()
    server = FifoServer(sim, "nic")
    completions = []
    for index, service in enumerate(services):
        server.serve(service, value=index).add_callback(
            lambda e: completions.append((sim.now, e.value))
        )
    sim.run_until_idle()
    order = [idx for _t, idx in completions]
    assert order == sorted(order)
    assert completions[-1][0] == pytest.approx(sum(services))


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_store_get_after_put():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    got = []
    store.get().add_callback(lambda e: got.append(e.value))
    sim.run_until_idle()
    assert got == ["x"]


def test_store_get_before_put_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    sim.process(consumer())
    sim.call_in(50.0, lambda: store.put("late"))
    sim.run_until_idle()
    assert got == [(50.0, "late")]


def test_store_is_fifo_for_items_and_getters():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(cid):
        item = yield store.get()
        got.append((cid, item))

    sim.process(consumer(0))
    sim.process(consumer(1))
    sim.call_in(1.0, lambda: store.put("first"))
    sim.call_in(2.0, lambda: store.put("second"))
    sim.run_until_idle()
    assert got == [(0, "first"), (1, "second")]


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put(7)
    assert store.try_get() == 7
    assert len(store) == 0


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def test_resource_mutual_exclusion():
    sim = Simulator()
    lock = Resource(sim)
    trace = []

    def holder(name, hold):
        yield lock.acquire()
        trace.append((name, "in", sim.now))
        yield sim.timeout(hold)
        trace.append((name, "out", sim.now))
        lock.release()

    sim.process(holder("a", 10.0))
    sim.process(holder("b", 10.0))
    sim.run_until_idle()
    assert trace == [
        ("a", "in", 0.0),
        ("a", "out", 10.0),
        ("b", "in", 10.0),
        ("b", "out", 20.0),
    ]


def test_resource_release_without_acquire_raises():
    sim = Simulator()
    lock = Resource(sim)
    with pytest.raises(RuntimeError):
        lock.release()


def test_resource_counted_capacity():
    sim = Simulator()
    pool = Resource(sim, capacity=2)
    entered = []

    def holder(name):
        yield pool.acquire()
        entered.append((name, sim.now))
        yield sim.timeout(10.0)
        pool.release()

    for name in "abc":
        sim.process(holder(name))
    sim.run_until_idle()
    assert entered == [("a", 0.0), ("b", 0.0), ("c", 10.0)]


def test_server_latency_delays_completion_without_holding_the_station():
    """A fixed pipeline latency after service is paid by the job, not
    the station: the next job starts when the previous one's service
    ends."""
    sim = Simulator()
    server = FifoServer(sim, "dma")
    done = []
    for _ in range(2):
        server.serve(10.0, latency=5.0).add_callback(lambda e: done.append(sim.now))
    sim.run_until_idle()
    assert done == [15.0, 25.0]
    assert server.busy_time == 20.0


def test_server_rejects_negative_latency():
    sim = Simulator()
    server = FifoServer(sim, "nic")
    with pytest.raises(ValueError):
        server.serve(1.0, latency=-1.0)


@pytest.mark.parametrize(
    "backlog, arrival, service, latency, fires_at",
    [
        # a backlog ending far past ``now``: here ``now + (done_at -
        # now)`` is an ulp away from ``done_at`` itself
        (503950.771, 125702.213617, 15.0, 250.0, 504215.77100000007),
        (251243.541, 32248.200952, 15.0, 50.0, 251308.54099999997),
        (723269.748, 191737.864505, 250.0, 600.0, 724119.7479999999),
        (0.0, 1.0 / 3.0, 0.1, 0.2, 0.6333333333333333),
    ],
)
def test_fused_latency_fires_at_the_unfused_chains_instant(
    backlog, arrival, service, latency, fires_at
):
    """``serve(s, latency=L)`` is one calendar entry standing in for a
    completion event plus an ``L`` timeout.  It must fire at the very
    float those two relative schedules produce; an ulp apart could
    reorder a tie.  ``fires_at`` pins that float as recorded before the
    calendar was last rewritten."""
    fired = []
    for fused in (False, True):
        sim = Simulator()
        server = FifoServer(sim, "s")
        times = []
        server.serve(backlog)

        def admit(sim=sim, server=server, times=times, fused=fused):
            if fused:
                done = server.serve(service, latency=latency)
                done.add_callback(lambda e: times.append(sim.now))
            else:
                # the chain spelled out: a completion ``done_at - now``
                # from now, then a relative ``latency`` timeout
                done_at = max(backlog, sim.now) + service
                sim.timeout(done_at - sim.now).add_callback(
                    lambda e: sim.call_in(latency, lambda: times.append(sim.now))
                )

        sim.call_in(arrival, admit)
        sim.run_until_idle()
        fired.append(times)
    assert fired[0] == fired[1] == [fires_at]

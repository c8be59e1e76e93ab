"""Dispatch order of the event calendar, pinned by digest.

The dispatch contract — strict (time, seq) order — is what every
deterministic fingerprint in this repo rests on.  These tests drive
:class:`~repro.sim.engine.Simulator` through adversarial cascading
schedules and compare the sha256 of ``repr(log)`` against digests
recorded on the reference heap calendar before it became the only
kernel.  A kernel change that moves one dispatch by one slot snowballs
through the RNG-driven cascade and fails here.

They also pin the regressions fixed alongside earlier kernel work: late
``add_callback`` ordering, per-simulator anonymous store names, and the
``FifoServer.utilization`` overhang clamp.
"""

import hashlib
import random

import pytest

from repro.obs import MetricsRegistry
from repro.sim import FifoServer, Simulator, Store

#: delays with deliberate repeats: same-instant ties and zero-delay
#: (immediate) events are where calendar designs usually break
DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.25, 3.0, 7.5)


def _digest(log):
    return hashlib.sha256(repr(log).encode()).hexdigest()


def _drive(sim, seed, n_seed_events=40, max_spawn=300):
    """Seed a cascading schedule; callbacks keep scheduling more events.

    Returns the dispatch log.  The RNG draws happen inside callbacks,
    so the log (and the schedule itself) is a faithful trace of the
    calendar's dispatch order — any ordering divergence snowballs and
    changes the digest.
    """
    rng = random.Random(seed)
    log = []
    budget = [max_spawn]

    def cb(event):
        log.append((sim.now, event.value))
        if budget[0] > 0:
            budget[0] -= 1
            for _ in range(rng.randrange(3)):
                tag = budget[0] * 1000 + rng.randrange(100)
                sim.timeout(rng.choice(DELAYS), tag).add_callback(cb)

    for i in range(n_seed_events):
        sim.timeout(rng.choice(DELAYS), i).add_callback(cb)
    return log


def _run_scenario(seed, steps=()):
    sim = Simulator()
    log = _drive(sim, seed)
    for until in steps:
        sim.run(until=until)
        log.append(("ran-until", until, sim.now))
    sim.run_until_idle()
    log.append(("idle", sim.now))
    return log


#: ``_run_scenario(seed)`` digests, seeds 0-9
DRIVE_DIGESTS = (
    "6bda4f7b87b50218d1c80cb4ec1acd694a4a258b4e1426a923de51670ba5936a",
    "2f1883659d488dff21e971f043db99db6b365276b7a9ad9ff6dc9eb2964b3fa3",
    "a4e79312af2edfbcca222a2a0174e4944eeda9a23425d05790fe2315348c7c71",
    "aa9f98ec7f4f95ec01317eccbf9bffa8d80b1a9566f3a768b3cd37bdec8b14f5",
    "984ad2c1c96248cdc296979ca8c7b274916c20ff8c569391c38ba58e77ccc5cb",
    "fda03baa6c0eb2549270f12b97d6eece970c32f74d23f247505b66cf066724b7",
    "10ddb1e0db5fa125264c0d77f49b6952edfb0aa6a5bbc926380c448077436635",
    "6faf7e8536df38a790130f50e47a3939f4ac4029246f0256cf6575588255bab0",
    "0ccd77189ed88d8e01db04674b060fa6ce1f990712960a3f4d10425d74c46a3f",
    "b5ee9f67e3ab2a8d4b387efd30f7879526d42c7be2bc1a903b352fbf79b55b59",
)

#: ``_run_scenario(seed, STEPS)`` digests, seeds 3-5
STEPS = (0.0, 1.0, 1.0, 2.5, 9.0)
STEPPED_DIGESTS = {
    3: "daedef472162798ca03542522067921ea75579a5ad190242533c6951c2aac20b",
    4: "ef9ebdff8fc3151be71356afc4a0b830d7ef353c000f93fa86ad808e596ad4b0",
    5: "a2c53148052fbb2866355a6bde72e069293b6cdc4e84fb1c23c3d47aa4946a43",
}


def test_dispatch_order_matches_heap_reference():
    for seed, digest in enumerate(DRIVE_DIGESTS):
        assert _digest(_run_scenario(seed)) == digest, seed


def test_dispatch_order_matches_across_stepped_runs():
    for seed, digest in STEPPED_DIGESTS.items():
        assert _digest(_run_scenario(seed, steps=STEPS)) == digest, seed


def _drive_fused(sim, seed, max_spawn=300):
    """Like :func:`_drive`, with station admissions that carry a fixed
    latency: those land through the absolute-time entry point
    (``Simulator._schedule_at``) rather than a relative delay."""
    rng = random.Random(seed)
    server = FifoServer(sim, "station")
    log = []
    budget = [max_spawn]

    def cb(event):
        log.append((sim.now, event.value))
        if budget[0] > 0:
            budget[0] -= 1
            for _ in range(rng.randrange(3)):
                tag = budget[0] * 1000 + rng.randrange(100)
                if rng.random() < 0.5:
                    sim.timeout(rng.choice(DELAYS), tag).add_callback(cb)
                else:
                    server.serve(
                        rng.choice(DELAYS), tag, latency=rng.choice(DELAYS)
                    ).add_callback(cb)

    for i in range(40):
        sim.timeout(rng.choice(DELAYS), i).add_callback(cb)
    return log


#: ``_drive_fused`` digests, seeds 0-5
FUSED_DIGESTS = (
    "318ffe4f1936375bac11002fd43b9cdbc29e0d673de300ca1aa9016ba2136440",
    "24f28d16f78826dad2509efb61241feac7ca719abec5f28b4de490245333c69f",
    "889b825a560fc27f94032846abeb6c0ed3984f6a1d01c075b77d35d425e894bc",
    "3d337961269104bc18bfbd69b99e676bd207263351044f8c593ef3ba3e5fc192",
    "9de008bcf120978fb154d8db12dacafe2b427d9262b873bf5ef8e7aaf51ec7cb",
    "b6ac5aa91c848f4984bb52a51fa231a52e77abec3b144889d6111b2f69764494",
)


def test_absolute_time_schedules_match_heap_reference():
    for seed, digest in enumerate(FUSED_DIGESTS):
        sim = Simulator()
        log = _drive_fused(sim, seed)
        sim.run_until_idle()
        assert _digest(log) == digest, seed


def _drive_quiet(sim, seed, max_spawn=300):
    """A cascade whose callbacks also log what ``quiet()`` answers."""
    rng = random.Random(seed)
    log = []
    budget = [max_spawn]

    def cb(event):
        log.append((sim.now, event.value, sim.quiet()))
        if budget[0] > 0:
            budget[0] -= 1
            for _ in range(rng.randrange(3)):
                tag = budget[0] * 1000 + rng.randrange(100)
                sim.timeout(rng.choice(DELAYS), tag).add_callback(cb)

    for i in range(40):
        sim.timeout(rng.choice(DELAYS), i).add_callback(cb)
    return log


#: ``_drive_quiet`` digests, seeds 0-5
QUIET_DIGESTS = (
    "d3058c29d041d3dbe0c1fef6c06d64e6369bd468946bbd9e09e2738ec873277d",
    "9ca06aafe1ce5aa3611d10543b2b8eb56bdd5501312c9a3daa1c9eb2b8c81c05",
    "236e29efb5962aed17ffcab4ef2a659d4531e28dd433d9a9e3f0776b03fa0b33",
    "bca52ae830bd8fd6abc06e1d8e43db451d1cee011fbf6a17f1a86f0c26672d4a",
    "b82acf6dc041627904c0f63f6c619ef223a19814ce1bce4517f67399987e40e6",
    "420146af8a2502eef9501a9f260c95e19511d2a4a81d8b8e23785b3b4e327d8b",
)


def test_quiet_matches_heap_reference():
    for seed, digest in enumerate(QUIET_DIGESTS):
        sim = Simulator()
        log = _drive_quiet(sim, seed)
        sim.run_until_idle()
        assert _digest(log) == digest, seed
        assert {q for _t, _v, q in log} == {True, False}


def test_quiet_sees_other_work_due_now():
    sim = Simulator()
    seen = []
    sim.timeout(1.0).add_callback(lambda e: seen.append(("tie", sim.quiet())))
    sim.timeout(1.0)  # a second entry at the same instant
    sim.timeout(2.0).add_callback(lambda e: seen.append(("alone", sim.quiet())))

    def schedules_zero_delay(_e):
        sim.timeout(0.0)
        seen.append(("after zero-delay", sim.quiet()))

    sim.timeout(3.0).add_callback(schedules_zero_delay)
    sim.timeout(4.0).add_callback(lambda e: sim.timeout(1.0))
    sim.timeout(4.0).add_callback(lambda e: seen.append(("later only", sim.quiet())))
    sim.run_until_idle()
    assert seen == [
        ("tie", False), ("alone", True), ("after zero-delay", False),
        ("later only", True),
    ]


def _producer_consumer():
    sim = Simulator()
    store = Store(sim)
    log = []

    def producer():
        for i in range(50):
            yield sim.timeout(1.0 if i % 3 else 0.0)
            store.put(i)

    def consumer(tag):
        while True:
            item = yield store.get()
            log.append((sim.now, tag, item))
            if item == 49:
                return

    sim.process(producer())
    sim.process(consumer("a"))
    sim.process(consumer("b"))
    sim.run_until_idle()
    return log


def test_process_and_store_handoff_matches_heap_reference():
    assert _digest(_producer_consumer()) == (
        "862bd69d90663121bf86f8fab4329fbea9618833694d4b4f3d19beb83c366ddb"
    )


def test_delay_collapsing_into_now_fires_after_entries_already_due():
    """At a clock of 2**60 ns one float ulp is 256 ns, so a 1 ns delay
    rounds to ``now`` itself.  That entry ties with everything already
    due at ``now`` and must fire after them and before anything
    scheduled later, in plain seq order."""
    sim = Simulator()
    log = []
    sim.run(until=2.0 ** 60)

    def record(e):
        log.append((sim.now, e.value))

    for i in range(3):
        sim.timeout(0.0, "due%d" % i).add_callback(record)

    def collapse(e):
        record(e)
        sim.timeout(1.0, "collapsed").add_callback(record)
        sim.timeout(0.0, "zero").add_callback(record)

    sim.timeout(1.0, "first-collapse").add_callback(collapse)
    sim.timeout(0.0, "due3").add_callback(record)
    sim.timeout(512.0, "next-ulp").add_callback(record)
    sim.run_until_idle()
    assert [value for _time, value in log] == [
        "due0", "due1", "due2", "first-collapse", "due3", "collapsed",
        "zero", "next-ulp",
    ]
    assert _digest(log) == (
        "6d7a1056293721feb86c47ebe60e3f3f973493090822caf3542ffce228384318"
    )


# ---------------------------------------------------------------------------
# late add_callback (post-dispatch) regression
# ---------------------------------------------------------------------------


def test_late_callbacks_batch_and_preserve_add_order():
    sim = Simulator()
    event = sim.event()
    event.succeed("v")
    sim.run_until_idle()
    got = []
    event.add_callback(lambda e: got.append(("a", e.value)))
    event.add_callback(lambda e: got.append(("b", e.value)))
    # both ride one deferred dispatch; neither runs synchronously
    assert got == []
    sim.run_until_idle()
    assert got == [("a", "v"), ("b", "v")]


def test_late_callback_runs_before_later_scheduled_events():
    sim = Simulator()
    event = sim.event()
    event.succeed("late")
    sim.run_until_idle()
    order = []
    sim.timeout(5.0, "future").add_callback(lambda e: order.append(e.value))
    event.add_callback(lambda e: order.append(e.value))
    sim.run_until_idle()
    assert order == ["late", "future"]


def test_late_callback_added_during_its_own_flush_still_runs():
    sim = Simulator()
    event = sim.event()
    event.succeed("x")
    sim.run_until_idle()
    got = []

    def first(e):
        got.append("first")
        e.add_callback(lambda _e: got.append("second"))

    event.add_callback(first)
    sim.run_until_idle()
    assert got == ["first", "second"]


# ---------------------------------------------------------------------------
# Store: anonymous metric names are per simulator
# ---------------------------------------------------------------------------


def test_anonymous_store_names_restart_per_simulator():
    # Pre-fix a process-global class counter kept incrementing, so the
    # metric names a run emitted depended on how many simulators had
    # already run in the same process.
    def build():
        sim = Simulator()
        sim.metrics = MetricsRegistry(sim)
        return [Store(sim).name for _ in range(3)]

    first = build()
    second = build()
    assert first == second == ["store1", "store2", "store3"]


def test_named_stores_do_not_consume_anonymous_numbers():
    sim = Simulator()
    sim.metrics = MetricsRegistry(sim)
    assert Store(sim, "cq").name == "cq"
    assert Store(sim).name == "store1"


# ---------------------------------------------------------------------------
# FifoServer.utilization: clamp service not yet performed
# ---------------------------------------------------------------------------


def test_utilization_clamps_in_flight_overhang():
    sim = Simulator()
    server = FifoServer(sim, "s")
    server.serve(100.0)
    sim.run(until=50.0)
    # 50 of the 100 ns have actually been worked; pre-fix this said 2.0
    assert server.utilization(50.0) == pytest.approx(1.0)


def test_utilization_clamps_each_busy_slot():
    sim = Simulator()
    server = FifoServer(sim, "s", capacity=2)
    server.serve(100.0)
    server.serve(60.0)
    sim.run(until=20.0)
    # each slot has worked 20 ns of its job: 40 / (20 * 2)
    assert server.utilization(20.0) == pytest.approx(1.0)


def test_utilization_unchanged_once_jobs_finish():
    sim = Simulator()
    server = FifoServer(sim, "s")
    server.serve(30.0)
    sim.run(until=60.0)
    assert server.utilization(60.0) == pytest.approx(0.5)

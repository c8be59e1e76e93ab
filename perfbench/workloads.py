"""The benchmark's four workloads: build, run and check each one.

Every workload is a closed loop: each client keeps its window of
requests outstanding and sends again only after a reply.  One call of
:func:`run_once` sets the workload up, runs it once and checks its
outputs; :mod:`run` repeats it to fill the measured time.

Set-up (cluster construction, wiring, preload) is timed apart from the
run by wrapping the cluster classes' set-up methods, so the timed run
of ``ha-kill-primary`` -- which builds its cluster inside
``run_chaos`` -- is split the same way as the others.  Set-up and run
are timed in process CPU seconds: time the process spends descheduled
on a shared host is not the program's cost.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from patching import Patches

#: workload name -> scale -> parameters.  "full" is what the benchmark
#: measures; "tiny" runs the same code paths in about a second for the
#: self-test.  ``subseeds`` is how many cluster seeds one run pools;
#: with ``pool`` the latency percentiles are taken over the samples of
#: all of them together, because one seed's window holds too few
#: samples beyond its p99.
SIZES: Dict[str, Dict[str, dict]] = {
    # The quickstart config and the paper's headline cell: server PIO
    # saturates, the QP cache always hits, PUTs are rare.
    "herd-read-uniform": {
        "full": dict(clients=51, machines=17, get_fraction=0.95, keys=4096,
                     distribution="uniform", warmup_us=50, measure_us=150,
                     drain_us=30, subseeds=20),
        "tiny": dict(clients=51, machines=17, get_fraction=0.95, keys=4096,
                     distribution="uniform", warmup_us=10, measure_us=50,
                     drain_us=30, subseeds=1),
    },
    # Figure 12 past the knee, with writes: the server's QP-context
    # cache misses about half the time and MICA PUTs and Zipf draws run
    # on every other op.  Throughput is steady from 300 us.
    "herd-write-zipf-600c": {
        "full": dict(clients=600, machines=93, get_fraction=0.5, keys=65536,
                     distribution="zipfian", warmup_us=300, measure_us=200,
                     drain_us=300, subseeds=3),
        "tiny": dict(clients=120, machines=20, get_fraction=0.5, keys=4096,
                     distribution="zipfian", warmup_us=30, measure_us=40,
                     drain_us=60, subseeds=1),
    },
    # Replication, the fault injector, lease failover and the
    # linearizability checker, none of which run in the herd-* loads.
    # Where the kill lands and what background faults the seed draws
    # move the tail a lot from seed to seed, so a run pools many short
    # horizons, and the background faults run at half their default
    # intensity.  Longer horizons hit the open retransmit-storm defect
    # in perfbench/README.md.
    "ha-kill-primary": {
        "full": dict(clients=8, items=256, horizon_us=100, intensity=0.5,
                     subseeds=24, pool=True),
        "tiny": dict(clients=8, items=256, horizon_us=100, intensity=0.5,
                     subseeds=1, pool=True),
    },
    # The one-sided alternative to HERD: RC READ, CAS and WRITE with
    # PCIe atomics under OCC, a fifth to a quarter of attempts aborting.
    # Three quarters of the transactions are read-only, so the median
    # latency lies inside the read-only mode: at the TxnConfig default
    # of half, it sits between the two modes and jumps from seed to seed.
    # Throughput depends on each seed's contention pattern more than on
    # the window's length, so a run pools many short windows.
    "txn-onesided": {
        "full": dict(clients=24, machines=6, partitions=2, keys=512,
                     hot_fraction=0.1, read_only_fraction=0.75, warmup_us=20,
                     measure_us=120, subseeds=48, pool=True),
        "tiny": dict(clients=24, machines=6, partitions=2, keys=512,
                     hot_fraction=0.1, read_only_fraction=0.75, warmup_us=20,
                     measure_us=100, subseeds=1, pool=True),
    },
}

WORKLOADS = tuple(SIZES)


@dataclass
class Outcome:
    """What one set-up-and-run of a workload measured and proved."""

    workload: str
    seed: int
    params: dict
    clients: int
    #: process CPU seconds of set-up
    setup_s: float
    #: process CPU seconds of everything after set-up: the simulation,
    #: its drain and the workload's own checker
    run_s: float
    #: wall seconds of the same span, the clock the tracer's spans use
    run_wall_s: float
    #: completed ops over the whole run (txn: committed transactions)
    ops: int
    attempted: int
    failed: int
    #: simulated results; identical for one seed on every run
    sim: Dict[str, float]
    #: latencies (ns) of the ops completing in the measured window, kept
    #: where percentiles are taken over the samples of all seeds pooled;
    #: None where ``sim`` holds the seed's own percentiles
    latencies: Optional[List[float]]
    #: events the simulator scheduled
    events: int
    #: everything that must repeat exactly for one seed
    fingerprint: Tuple
    #: failed correctness checks, one line each (empty = correct)
    problems: List[str]
    #: share of partition-time with a serving primary (1.0 where no
    #: fault takes a server down)
    availability: float = 1.0
    #: CPU seconds of the set-up steps the per-layer metrics report
    setup_steps: Dict[str, float] = field(default_factory=dict)
    #: the host's speed measured just before the run (``run.host_speed``)
    speed: float = 1.0
    #: the simulator and program objects the per-layer metrics read
    sim_obj: object = None
    report: object = None
    client_retries: int = 0


class SetupClock:
    """Times the cluster set-up methods while installed.

    Only the outermost call is added to the total (``preload`` wires
    the cluster itself when needed); wiring and preload also keep their
    own totals.  ``on_phase`` is told when set-up starts and ends so a
    tracer can keep set-up calls out of the run's layer shares.
    """

    def __init__(self, on_phase: Optional[Callable[[str], None]] = None) -> None:
        #: CPU seconds of set-up, and wall seconds of the same calls
        self.total = 0.0
        self.total_wall = 0.0
        self.steps: Dict[str, float] = {}
        self.clusters: List[object] = []
        self._depth = 0
        self._on_phase = on_phase

    def install(self, patches: Patches) -> None:
        from repro.herd import HerdCluster
        from repro.txn import TxnCluster

        for owner, attr, step in (
            (HerdCluster, "__init__", None),
            (HerdCluster, "add_clients", None),
            (HerdCluster, "wire", "herd.setup_wire_s"),
            (HerdCluster, "preload", "herd.setup_preload_s"),
            (TxnCluster, "__init__", None),
        ):
            patches.wrap(owner, attr, self._timed(step, attr == "__init__"))

    def _timed(self, step: Optional[str], records_cluster: bool):
        def make(fn):
            def timed(obj, *args, **kwargs):
                self._depth += 1
                if self._depth == 1 and self._on_phase is not None:
                    self._on_phase("setup")
                t0, wall0 = time.process_time(), time.perf_counter()
                try:
                    return fn(obj, *args, **kwargs)
                finally:
                    elapsed = time.process_time() - t0
                    if step is not None:
                        self.steps[step] = self.steps.get(step, 0.0) + elapsed
                    self._depth -= 1
                    if self._depth == 0:
                        self.total += elapsed
                        self.total_wall += time.perf_counter() - wall0
                        if self._on_phase is not None:
                            self._on_phase("run")
                    if records_cluster:
                        self.clusters.append(obj)

            return timed

        return make


class ClientProbe:
    """Checks HERD GET bytes and records op latencies, from outside.

    Installed by wrapping the client classes' ``start``: the hooks the
    harness set are kept and called first, so the probe sees exactly
    what the program reports and changes nothing it does.  Latencies are
    recorded only with ``keep_latencies``: for the workloads whose runs
    pool their samples across seeds (see ``SIZES``).
    """

    def __init__(self, value_size: Optional[int], keep_latencies: bool) -> None:
        #: check GET bytes against the deterministic value function
        #: (None: the harness checks values itself, as run_chaos does)
        self.value_size = value_size
        self.keep_latencies = keep_latencies
        #: (completion time, latency) of every op, both in ns
        self.samples: List[Tuple[float, float]] = []
        self.wrong_values = 0

    def install(self, patches: Patches) -> None:
        from repro.herd.client import HerdClientProcess
        from repro.txn.client import TxnClientProcess

        patches.wrap(HerdClientProcess, "start", self._herd_start)
        patches.wrap(TxnClientProcess, "start", self._txn_start)

    def _herd_start(self, fn):
        from repro.workloads.ycsb import OpType, value_for

        probe = self

        def start(client):
            prev_payload = client.payload_hook
            prev_response = client.response_hook

            def on_payload(op, success, value, now):
                if prev_payload is not None:
                    prev_payload(op, success, value, now)
                if (op.op is OpType.GET and success
                        and value != value_for(op.item, probe.value_size)):
                    probe.wrong_values += 1

            def on_response(op, latency, success, now):
                if prev_response is not None:
                    prev_response(op, latency, success, now)
                probe.samples.append((now, latency))

            if probe.value_size is not None:
                client.payload_hook = on_payload
            if probe.keep_latencies:
                client.response_hook = on_response
            return fn(client)

        return start

    def _txn_start(self, fn):
        probe = self

        def start(client):
            prev = client.completed_hook

            def on_commit(now, latency):
                if prev is not None:
                    prev(now, latency)
                probe.samples.append((now, latency))

            if probe.keep_latencies:
                client.completed_hook = on_commit
            return fn(client)

        return start

    def window(self, start_ns: float, end_ns: float) -> List[float]:
        """Latencies (ns) of ops completing in ``[start_ns, end_ns)``."""
        return [lat for now, lat in self.samples if start_ns <= now < end_ns]


def beyond_p99(samples: int) -> int:
    """How many of ``samples`` values lie above their 99th percentile."""
    return samples - math.ceil(samples * 0.99)


def counted(latencies_ns: List[float]) -> Dict[str, float]:
    """The sample counts of one seed whose percentiles are pooled."""
    return {
        "sim_latency_samples": float(len(latencies_ns)),
        "sim_p99_beyond": float(beyond_p99(len(latencies_ns))),
    }


def from_result(result) -> Dict[str, float]:
    """The simulated metrics of one seed, from the program's RunResult."""
    return {
        "sim_mops": result.mops,
        "sim_p50_us": result.latency["p50_us"],
        "sim_p99_us": result.latency["p99_us"],
        "sim_latency_samples": float(result.ops),
        "sim_p99_beyond": float(beyond_p99(result.ops)),
    }


def pooled(latencies_ns: List[float]) -> Dict[str, float]:
    """Latency percentiles over samples pooled from several seeds,
    computed as the program computes its own (``numpy.percentile``)."""
    import numpy as np

    arr = np.asarray(latencies_ns, dtype=float)
    return dict(counted(latencies_ns),
                sim_p50_us=float(np.percentile(arr, 50)) / 1e3,
                sim_p99_us=float(np.percentile(arr, 99)) / 1e3)


def events_scheduled(sim) -> int:
    """Events the simulator has scheduled (its sequence counter)."""
    return sim._seq


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------


def _run_herd(p: dict, seed: int, probe: ClientProbe, clock: SetupClock,
              problems: List[str]):
    from repro.herd import HerdCluster, HerdConfig
    from repro.workloads import Workload

    cluster = HerdCluster(
        HerdConfig(n_server_processes=6, window=4),
        n_client_machines=p["machines"],
        seed=seed,
    )
    cluster.add_clients(
        p["clients"],
        Workload(get_fraction=p["get_fraction"], value_size=32,
                 n_keys=p["keys"], distribution=p["distribution"]),
    )
    cluster.wire()
    cluster.preload(range(p["keys"]), 32)
    result = cluster.run(warmup_ns=p["warmup_us"] * 1e3, measure_ns=p["measure_us"] * 1e3)
    # Drain: no new ops after the window; every op in flight must finish.
    end = cluster.sim.now
    for client in cluster.clients:
        client.stop_after = end
    cluster.sim.run(until=end + p["drain_us"] * 1e3)
    clients = cluster.clients
    issued = sum(c.issued for c in clients)
    completed = sum(c.completed for c in clients)
    undrained = sum(c.outstanding for c in clients)
    get_misses = sum(c.get_misses for c in clients)
    put_failures = sum(c.failures for c in clients)
    if undrained:
        problems.append("%d ops never drained" % undrained)
    if probe.wrong_values:
        problems.append("%d GETs returned bytes no write produced" % probe.wrong_values)
    if get_misses:
        problems.append("%d GETs missed a preloaded key" % get_misses)
    if put_failures:
        problems.append("%d PUTs failed" % put_failures)
    return dict(
        sim=cluster.sim,
        ops=completed,
        attempted=issued,
        failed=undrained + probe.wrong_values + get_misses + put_failures,
        simulated=from_result(result),
        latencies=None,
        retries=sum(c.retries for c in clients),
        report=None,
        fingerprint=(issued, completed),
    )


def _run_ha(p: dict, seed: int, probe: ClientProbe, clock: SetupClock,
            problems: List[str]):
    from repro.faults import run_chaos

    horizon = p["horizon_us"] * 1e3
    report = run_chaos(
        seed=seed,
        scenario="kill-primary",
        horizon_ns=horizon,
        n_clients=p["clients"],
        n_items=p["items"],
        intensity=p["intensity"],
        replication_factor=3,
        ack_policy="majority",
    )
    problems.extend("ChaosReport: " + v for v in report.violations)
    # The window is the horizon, the kill included.
    latencies = probe.window(0.0, horizon)
    # Undrained and abandoned ops both leave issued > completed.
    return dict(
        sim=clock.clusters[-1].sim,
        ops=report.completed,
        attempted=report.issued,
        failed=report.issued - report.completed,
        simulated=dict(counted(latencies), sim_mops=len(latencies) / horizon * 1e3),
        latencies=latencies,
        retries=report.retries,
        report=report,
        fingerprint=(report.issued, report.completed, report.fingerprint, len(probe.samples)),
    )


def _run_txn(p: dict, seed: int, probe: ClientProbe, clock: SetupClock,
             problems: List[str]):
    from repro.txn import TxnCluster, TxnConfig

    cluster = TxnCluster(
        TxnConfig(dataplane="onesided", n_partitions=p["partitions"],
                  n_keys=p["keys"], hot_fraction=p["hot_fraction"],
                  read_only_fraction=p["read_only_fraction"]),
        n_clients=p["clients"],
        n_client_machines=p["machines"],
        seed=seed,
    )
    warmup, measure = p["warmup_us"] * 1e3, p["measure_us"] * 1e3
    report = cluster.run(warmup_ns=warmup, measure_ns=measure)
    latencies = probe.window(warmup, warmup + measure)
    if report.violation is not None:
        problems.append("TxnReport: not strictly serializable: %s" % report.violation)
    if report.torn_writes:
        problems.append("TxnReport: %d torn writes" % report.torn_writes)
    return dict(
        sim=cluster.sim,
        ops=report.commits,
        attempted=report.commits + report.aborts,
        failed=report.torn_writes,
        simulated=dict(counted(latencies), sim_mops=report.result.mops),
        latencies=latencies,
        retries=report.retries,
        report=report,
        fingerprint=(report.commits, report.aborts, report.fingerprint),
    )


_RUNNERS = {
    "herd-read-uniform": _run_herd,
    "herd-write-zipf-600c": _run_herd,
    "ha-kill-primary": _run_ha,
    "txn-onesided": _run_txn,
}


def run_once(workload: str, seed: int, scale: str = "full",
             instruments: Optional[Callable[[Patches], None]] = None,
             on_phase: Optional[Callable[[str], None]] = None) -> Outcome:
    """Set up, run and check ``workload`` once.

    ``instruments(patches)`` may install more wrappers (the per-layer
    tracer) before set-up, and ``on_phase`` hears when set-up starts and
    ends; every wrapper is removed on return.
    """
    params = SIZES[workload][scale]
    problems: List[str] = []
    probe = ClientProbe(32 if workload.startswith("herd-") else None,
                        keep_latencies="pool" in params)
    clock = SetupClock(on_phase)
    gc.collect()
    with Patches() as patches:
        probe.install(patches)
        clock.install(patches)
        if instruments is not None:
            instruments(patches)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        out = _RUNNERS[workload](params, seed, probe, clock, problems)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    sim = out["simulated"]
    events = events_scheduled(out["sim"])
    return Outcome(
        workload=workload,
        seed=seed,
        params=params,
        clients=params["clients"],
        setup_s=clock.total,
        run_s=cpu - clock.total,
        run_wall_s=wall - clock.total_wall,
        ops=out["ops"],
        attempted=out["attempted"],
        failed=out["failed"],
        sim=sim,
        latencies=out["latencies"],
        events=events,
        fingerprint=out["fingerprint"] + (events,) + tuple(sorted(sim.items()))
        + tuple(out["latencies"] or ()),
        problems=problems,
        setup_steps=dict(clock.steps),
        sim_obj=out["sim"],
        report=out["report"],
        client_retries=out["retries"],
        availability=getattr(out["report"], "availability", 1.0),
    )

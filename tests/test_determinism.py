"""Determinism and seed robustness of whole-system experiments."""

import pytest

from repro.bench.microbench import inbound_throughput, tune_window
from repro.herd import HerdCluster, HerdConfig
from repro.verbs import Transport
from repro.workloads import Workload


def run_herd_cell(seed: int) -> float:
    cluster = HerdCluster(
        HerdConfig(n_server_processes=4, window=4), n_client_machines=6, seed=seed
    )
    cluster.add_clients(12, Workload(get_fraction=0.9, value_size=32, n_keys=1 << 10))
    cluster.preload(range(1 << 10), 32)
    return cluster.run(warmup_ns=20_000, measure_ns=80_000).mops


def test_identical_seeds_reproduce_bit_identical_results():
    """The whole stack — RNGs, event ordering, caches — is
    deterministic given a seed."""
    assert run_herd_cell(seed=42) == run_herd_cell(seed=42)


def test_different_seeds_agree_within_noise():
    """No result in this repo hinges on a lucky seed."""
    results = [run_herd_cell(seed=s) for s in (1, 2, 3)]
    assert max(results) - min(results) < 0.1 * max(results)


def test_fault_injection_does_not_perturb_workload_streams():
    """Satellite of the fault-injection PR: every randomness source has
    a named child stream of the cluster seed, so turning faults on must
    not change which keys the workload draws — only how many draws fit
    in the horizon.  The faulty run's key sequence per client must be a
    prefix-compatible match of the clean run's."""
    from repro.faults import FaultPlan

    def record_keys(with_faults: bool):
        cluster = HerdCluster(
            HerdConfig(
                n_server_processes=2, window=4, retry_timeout_ns=30_000.0
            ),
            n_client_machines=2,
            seed=77,
        )
        cluster.add_clients(4, Workload(get_fraction=0.5, value_size=32, n_keys=256))
        cluster.preload(range(256), 32)
        if with_faults:
            cluster.install_faults(
                FaultPlan(seed=77).drop(rate=0.05).duplicate(rate=0.02)
            )
        keys = [[] for _ in cluster.clients]
        for client in cluster.clients:
            def next_op(_orig=client.stream.next_op, _log=keys[client.client_id]):
                op = _orig()
                _log.append(op.key)
                return op

            client.stream.next_op = next_op
        cluster.run(warmup_ns=0, measure_ns=150_000)
        return keys

    clean = record_keys(with_faults=False)
    faulty = record_keys(with_faults=True)
    for c_keys, f_keys in zip(clean, faulty):
        n = min(len(c_keys), len(f_keys))
        assert n > 20
        assert c_keys[:n] == f_keys[:n]


def test_microbenchmarks_are_deterministic():
    a = inbound_throughput("WRITE", Transport.UC, 32)
    b = inbound_throughput("WRITE", Transport.UC, 32)
    assert a == b


def test_tune_window_finds_the_saturating_window():
    """Section 3.1: windows are tuned per experiment.  Tiny windows
    cannot cover the round trip; tuning finds one that can."""
    def measure(window):
        return inbound_throughput("WRITE", Transport.UC, 32, n_clients=2, window=window)

    best_window, best_mops = tune_window(measure, candidates=(1, 4, 16, 48))
    assert best_window >= 16
    assert best_mops > measure(1)


# ---------------------------------------------------------------------------
# Pinned lossless datapath digests
# ---------------------------------------------------------------------------
#
# The chaos/HA/elastic fingerprints pin fault-injection runs.  These two
# pin the lossless datapath itself — the closed-form relay fusion in
# the PCIe, fabric and send-order paths (docs/ENGINE.md, "Relay
# fusion") must reproduce every simulated figure byte for byte.


def _digest(parts) -> str:
    import hashlib

    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _station_rows(stations):
    return [(s.name, s.jobs, repr(s.busy_time)) for s in stations]


def quickstart_digest() -> str:
    """The quickstart HERD cell: seed 1, 51 clients on 17 machines, six
    server processes, window 4."""
    cluster = HerdCluster(
        HerdConfig(n_server_processes=6, window=4), n_client_machines=17, seed=1
    )
    cluster.add_clients(51, Workload(get_fraction=0.95, value_size=32, n_keys=4096))
    cluster.preload(range(4096), value_size=32)
    result = cluster.run(warmup_ns=50_000, measure_ns=200_000)
    machine = cluster.server_device.machine
    stations = [
        machine.pcie.pio,
        machine.pcie.dma,
        machine.nic_ingress,
        machine.nic_egress,
        machine.port.tx,
    ]
    return _digest(
        (
            result.ops,
            repr(result.mops),
            repr(result.latency["p50_us"]),
            repr(result.latency["p99_us"]),
            _station_rows(stations),
        )
    )


def rc_verbs_digest() -> str:
    """One RC connection carrying non-inlined WRITEs (payload DMA
    fetch) interleaved with inlined ones, READs and CASes, posted
    back to back so later WQEs queue behind a fetching one."""
    from repro.hw import APT, Fabric, Machine
    from repro.sim import Simulator
    from repro.verbs import RdmaDevice, WorkRequest, connect_pair

    sim = Simulator()
    fabric = Fabric(sim, APT)
    server = RdmaDevice(Machine(sim, fabric, "server"))
    client = RdmaDevice(Machine(sim, fabric, "c0"))
    remote = server.register_memory(4096)
    local = client.register_memory(4096)
    _sqp, qp = connect_pair(server, client, Transport.RC)
    local.write(0, bytes(range(200)))
    remote.write(2048, (5).to_bytes(8, "little"))
    wrs = []
    for i in range(4):
        wrs.append(WorkRequest.write(
            raddr=remote.addr + 256 * i, rkey=remote.rkey,
            local=(local, 0, 200), wr_id=10 * i))
        wrs.append(WorkRequest.write(
            raddr=remote.addr + 1024 + 8 * i, rkey=remote.rkey,
            payload=b"inl%05d" % i, inline=True, wr_id=10 * i + 1))
        wrs.append(WorkRequest.read(
            raddr=remote.addr + 256 * i, rkey=remote.rkey,
            local=(local, 1024 + 64 * i, 64), wr_id=10 * i + 2))
        wrs.append(WorkRequest.cmp_swap(
            raddr=remote.addr + 2048, rkey=remote.rkey, compare=5 + i,
            swap=6 + i, local=(local, 2048 + 8 * i, 8), wr_id=10 * i + 3))

    def poster():
        for wr in wrs:
            yield from client.post_send_timed(qp, wr)

    sim.process(poster())
    sim.run_until_idle()
    cqes = [(c.wr_id, c.opcode.value, c.byte_len, repr(c.timestamp))
            for c in qp.send_cq.poll(64)]
    stations = []
    for device in (client, server):
        m = device.machine
        stations += [m.pcie.pio, m.pcie.dma, m.nic_ingress, m.nic_egress, m.port.tx]
    return _digest(
        (
            cqes,
            remote.read(0, 4096),
            local.read(0, 4096),
            repr(sim.now),
            _station_rows(stations),
        )
    )


def test_quickstart_herd_digest_is_pinned():
    """Ops, Mops, p50/p99 and every server station's jobs and busy
    time for the quickstart cell, byte for byte."""
    assert quickstart_digest() == (
        "dbd1a11b86e0ee58bf7f8426015dbdd0eb1263e3647874471647cd7452afa4f6"
    )


def test_rc_verbs_digest_is_pinned():
    """CQE order and timestamps, landed bytes and every station's jobs
    and busy time for a mixed RC WRITE/READ/CAS run, byte for byte."""
    assert rc_verbs_digest() == (
        "3c9fcc2ff05c069fe0ae677bc8fdf81bb341330b35b9c4fc350b292e91807708"
    )

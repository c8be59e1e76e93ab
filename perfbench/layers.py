"""The traced run: host time per layer, from outside the program.

The tracer wraps the calls into each layer (one package under
``src/repro``) and records one span per call: a name, a start, an end
and the span it ran inside.  Spans stay in memory; :func:`write_spans`
writes the last traced run's spans out when the benchmark ends.  A
span's *self time* is its duration minus its child spans.

What the wrappers cannot see: simulator callbacks and process bodies
run from the event kernel without passing a wrapped call, so their
time stays in the kernel span (``sim.residual_share``).  Splitting it
needs spans inside the program, with an op id threaded through.

Simulated station counters come from the program's own registry,
attached with :func:`repro.obs.capture`.
"""

from __future__ import annotations

import importlib
import inspect
import time
from typing import Dict, List, Optional, Tuple

from patching import Patches


def _codec(module) -> List[str]:
    return sorted(
        name for name, value in vars(module).items()
        if name.startswith(("encode_", "decode_")) and inspect.isfunction(value)
    )


#: (layer, module, class or None for module functions, attributes).
#: The faults and verbs entries include the hooks the hardware layer
#: calls into them through (the fabric's fault hook, the NIC's packet
#: handler): those are the layers' entry points on the datapath.
BOUNDARIES = [
    ("sim", "repro.sim.engine", "Simulator", ["run", "run_until_idle"]),
    ("sim", "repro.sim.resources", "FifoServer", ["serve"]),
    ("hw", "repro.hw.pcie", "PcieBus",
     ["pio_write", "doorbell", "dma_read", "dma_write", "dma_atomic"]),
    ("hw", "repro.hw.link", "Fabric", ["transmit"]),
    ("hw", "repro.hw.machine", "Machine", ["transmit"]),
    ("hw", "repro.hw.qpcache", "QpContextCache", ["access"]),
    ("verbs", "repro.verbs.device", "RdmaDevice",
     ["post_send", "post_recv", "_on_packet"]),
    ("verbs", "repro.verbs.cq", "CompletionQueue", ["push", "pop", "poll", "try_pop"]),
    ("kv", "repro.kv.mica", "MicaCache", ["get", "put", "delete"]),
    ("herd", "repro.herd.region", "RequestRegion",
     ["slot_index", "slot_offset", "slot_addr", "locate", "read_slot",
      "clear_slot", "scan_partition"]),
    ("herd", "repro.herd.wire", None, _codec),
    ("workloads", "repro.workloads.ycsb", "WorkloadStream", ["next_op"]),
    ("workloads", "repro.workloads.zipf", "ZipfianGenerator", ["next_item", "next_items"]),
    ("faults", "repro.faults.injector", "FaultInjector",
     ["_judge_link", "_judge_rnr", "count"]),
    ("ha", "repro.ha.replication", "ReplicaRole",
     ["defer_get", "on_update", "on_ack", "check_commits",
      "on_catchup", "on_config", "serving_verdict"]),
    ("ha", "repro.ha.checker", None,
     ["check_histories", "lost_acked_writes", "split_brain"]),
    ("txn", "repro.ha.checker", None, ["check_serializable"]),
]

#: the kernel's own spans: their self time is the residual
KERNEL = ("Simulator.run", "Simulator.run_until_idle")
HA_CHECKER = ("checker.check_histories", "checker.lost_acked_writes",
              "checker.split_brain")
TXN_CHECKER = ("checker.check_serializable",)


class LayerTracer:
    """Spans for every wrapped call of one traced run."""

    def __init__(self) -> None:
        #: (name, start_ns, end_ns, parent span index or -1)
        self.spans: List[Optional[Tuple[str, int, int, int]]] = []
        self.layer_of: Dict[str, str] = {}
        #: span indices where set-up started and ended, in order
        self._phase_marks: List[Tuple[int, str]] = []
        #: indices of the spans now open, innermost last
        self._stack: List[int] = []

    def on_phase(self, phase: str) -> None:
        self._phase_marks.append((len(self.spans), phase))

    def install(self, patches: Patches) -> None:
        for layer, module_name, owner_name, attrs in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            if callable(attrs):
                attrs = attrs(module)
            prefix = owner_name or module_name.rsplit(".", 1)[1]
            for attr in attrs:
                name = "%s.%s" % (prefix, attr)
                self.layer_of[name] = layer
                patches.wrap(owner, attr, self._traced(name))

    def _traced(self, name: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def make(fn):
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                stack.append(index)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[index] = (name, t0, t1, stack[-1] if stack else -1)

            return traced

        return make

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name, over the run (set-up calls excluded) and over
        every call: calls, total ns and self ns."""
        spans = self.spans
        child = [0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        in_setup = [False] * len(spans)
        marks = self._phase_marks + [(len(spans), "run")]
        for (start, phase), (end, _next) in zip(marks, marks[1:]):
            if phase == "setup":
                for i in range(start, end):
                    in_setup[i] = True
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, t0, t1, _parent) in enumerate(spans):
            row = out.get(name)
            if row is None:
                row = out[name] = dict.fromkeys(
                    ("calls", "total_ns", "self_ns", "all_calls", "all_total_ns"), 0
                )
            dur = t1 - t0
            row["all_calls"] += 1
            row["all_total_ns"] += dur
            if not in_setup[i]:
                row["calls"] += 1
                row["total_ns"] += dur
                row["self_ns"] += dur - child[i]
        return out

    def write_spans(self, path: str) -> None:
        """All spans as JSON lines: a header naming the fields, then one
        ``[id, name, start_ns, end_ns, parent]`` array per span."""
        with open(path, "w") as fh:
            fh.write('{"fields": ["id", "name", "start_ns", "end_ns", "parent"]}\n')
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write('[%d, "%s", %d, %d, %d]\n' % (i, name, t0, t1, parent))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _server_stations(snapshot) -> Dict[str, dict]:
    stations = snapshot["stations"]
    names = {"pio": "server.pcie.pio", "dma": "server.pcie.dma",
             "nic_rx": "server.nic.rx", "nic_tx": "server.nic.tx"}
    return {short: stations[full] for short, full in names.items()}


#: simulated server station -> the BottleneckModel resource it models
_MODEL_STATION = {"pio": "pio", "dma": "dma", "nic_rx": "nic_ingress",
                  "nic_tx": "nic_egress"}

#: fault counters that are not lost packets
_NOT_DROPS = {"link.corrupt", "link.duplicate", "link.delayed", "link.degraded"}


def layer_metrics(outcome, untraced, summary: Dict[str, Dict[str, float]],
                  layer_of, registry) -> Dict[str, float]:
    """Every per-layer metric of one traced run, against the untraced
    run of the same seed (0 where a layer does not run on this
    workload)."""
    from repro.analysis import BottleneckModel
    from repro.faults.chaos import ChaosReport
    from repro.txn import TxnReport

    ops = max(outcome.ops, 1)
    # spans are timed on the wall clock, so shares are of the wall time
    traced_run_s = outcome.run_wall_s

    def calls(*names):
        return sum(summary.get(n, {}).get("calls", 0) for n in names)

    def share(layer):
        return sum(row["self_ns"] for name, row in summary.items()
                   if layer_of[name] == layer and name not in KERNEL) / 1e9 / traced_run_s

    def mean_us(name):
        row = summary.get(name)
        if not row or not row["all_calls"]:
            return 0.0
        return row["all_total_ns"] / row["all_calls"] / 1e3

    def total_s(names):
        return sum(summary.get(n, {}).get("all_total_ns", 0) for n in names) / 1e9

    m: Dict[str, float] = {}
    m["sim.events_per_op"] = outcome.events / ops
    m["sim.residual_share"] = sum(
        summary.get(n, {}).get("self_ns", 0) for n in KERNEL) / 1e9 / traced_run_s
    m["sim.fifo_serve_per_op"] = calls("FifoServer.serve") / ops
    m["sim.fifo_serve_share"] = summary.get("FifoServer.serve", {}).get(
        "self_ns", 0) / 1e9 / traced_run_s
    # the run's latency samples, filled in over all its seeds
    m["sim.latency_samples"] = m["sim.p99_samples_beyond"] = 0.0

    m["hw.host_share"] = share("hw")
    m["hw.transmits_per_op"] = calls("Fabric.transmit") / ops
    snapshot = registry.snapshot()
    stations = _server_stations(snapshot)
    for short in ("pio", "nic_rx", "nic_tx", "dma"):
        m["hw.server.%s.util" % short] = stations[short]["utilization"]
    for short in ("pio", "nic_rx"):
        delay = stations[short]["queue_delay_ns"]
        m["hw.server.%s.wait_us" % short] = (delay["mean"] if delay else 0.0) / 1e3
    gauges = snapshot["gauges"]
    m["hw.server.qpcache.hit_rate"] = gauges["qpcache.server.hit_rate"]
    m["hw.server.qpcache.misses_per_op"] = gauges["qpcache.server.misses"] / ops

    m["verbs.host_share"] = share("verbs")
    m["verbs.post_send_per_op"] = calls("RdmaDevice.post_send") / ops
    m["verbs.post_recv_per_op"] = calls("RdmaDevice.post_recv") / ops
    m["verbs.cqe_per_op"] = calls("CompletionQueue.push") / ops
    counters = snapshot["counters"]
    rc_wqes = sum(v for k, v in counters.items()
                  if k.startswith("verbs.") and ".wqe." in k and k.endswith(".RC"))
    report = outcome.report
    is_txn = isinstance(report, TxnReport)
    m["verbs.wqe_per_commit"] = rc_wqes / ops if is_txn else 0.0

    m["kv.host_share"] = share("kv")
    m["kv.get_us"] = mean_us("MicaCache.get")
    m["kv.put_us"] = mean_us("MicaCache.put")

    m["herd.host_share"] = share("herd")
    m["herd.setup_wire_s"] = untraced.setup_steps.get("herd.setup_wire_s", 0.0)
    m["herd.setup_preload_s"] = untraced.setup_steps.get("herd.setup_preload_s", 0.0)
    m["herd.retries_per_op"] = 0.0 if is_txn else outcome.client_retries / ops

    m["workloads.host_share"] = share("workloads")
    m["workloads.next_op_us"] = mean_us("WorkloadStream.next_op")
    m["workloads.clients"] = float(outcome.clients)

    is_ha = isinstance(report, ChaosReport)
    m["faults.host_share"] = share("faults")
    drops = 0
    if is_ha:
        drops = sum(n for k, n in report.fault_counts.items()
                    if k == "rnr_drop" or (k.startswith("link.") and k not in _NOT_DROPS))
    m["faults.drops_per_op"] = drops / ops

    m["ha.checker_s"] = total_s(HA_CHECKER)
    m["ha.failover_us"] = report.failover_latency_ns / 1e3 if is_ha else 0.0
    m["ha.updates_per_op"] = calls("ReplicaRole.on_update") / ops

    m["txn.abort_rate"] = report.abort_rate if is_txn else 0.0
    m["txn.checker_s"] = total_s(TXN_CHECKER)

    if outcome.workload.startswith("herd-"):
        model = BottleneckModel().herd(
            value_size=32, get_fraction=outcome.params["get_fraction"]
        )
        mops = outcome.sim["sim_mops"]
        m["analysis.model_err_pct"] = abs(mops - model.mops) / model.mops * 100.0
        busiest = max(stations, key=lambda s: stations[s]["utilization"])
        m["analysis.bottleneck_match"] = float(_MODEL_STATION[busiest] == model.bottleneck)
    else:
        m["analysis.model_err_pct"] = 0.0
        m["analysis.bottleneck_match"] = 0.0

    m["obs.trace_overhead_pct"] = (outcome.run_s / untraced.run_s - 1.0) * 100.0
    return m

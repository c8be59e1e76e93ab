#!/usr/bin/env python3
"""The HERD reproduction's benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload herd-read-uniform --seed 1 \\
        --seconds 20 --trace 0

Runs from the root of a checkout and imports the program from its
``src`` directory.  The workload is set up and run again and again
until ``--seconds`` are used; host-time metrics are medians over those
repeats, in process CPU seconds scaled to a reference host speed (see
:func:`host_speed`), and every repeat of one seed must give the same
simulated results.  Every output is checked; the last line printed is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``, and
the exit code is 1 when any check failed (the sample is still printed).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced runs.  ``--trace 1`` first repeats the untraced run, then
traced runs that time every call into each layer; it reports the
per-layer metrics, checks that tracing left the simulated results
unchanged, and writes the last traced run's spans to
``perfbench/out/<workload>.spans.jsonl``.  ``--workload all`` runs the
four workloads in turn, one process each.  ``--scale tiny`` is the
self-test's size.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import pkgutil
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: the paper's HERD peak for 48 B items, read-intensive (Figure 9 and
#: EXPERIMENTS.md); ``paper_err_pct`` is the distance of ``sim_mops``
#: from it on every workload
PAPER_HERD_MOPS = 26.0

#: the reported p99 must have at least this many samples beyond it
MIN_TAIL_SAMPLES = 10

#: CPU seconds :func:`reference` takes at the speed host time is
#: normalized to (its median on a 2-vCPU Intel Xeon VM, Python 3.11)
REFERENCE_S = 0.030

#: host time is scaled by the host's speed to this power.  The
#: reference is more sensitive to the host's load than the program: over
#: ten runs of each workload on a shared 2-vCPU VM, a run's host ops/s
#: moved as the reference's speed to the power 0.38-0.71 (correlation
#: 0.83-0.99), and the square root halved the runs' quartile spread.
SPEED_EXPONENT = 0.5


def load_program() -> None:
    """Import every module of the program from this checkout's ``src``.

    Importing all of them up front means no module binds a traced
    wrapper by importing it while a traced run is in progress.
    """
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit("perfbench: cannot import the program from %s: %s" % (src, exc))
    if Path(repro.__file__).resolve().parent.parent != src:
        raise SystemExit(
            "perfbench: imported repro from %s, not from %s" % (repro.__file__, src)
        )
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        __import__(info.name)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit("perfbench: cannot read %s: %s" % (path, exc))


def subseeds(workload: str, seed: int, scale: str) -> list:
    """The cluster seeds one run of ``seed`` measures.

    Simulated latency percentiles depend on the cluster seed itself
    (a deterministic closed loop settles into a seed-specific pattern),
    so one run pools a fixed number of seeds: the same ``--seed``
    always gives the same simulated results, on any host.
    """
    from workloads import SIZES

    return [seed + 1000 * i for i in range(SIZES[workload][scale]["subseeds"])]


def reference(events: int = 40000) -> int:
    """Fixed pure-Python work shaped like the simulator's hot path: a
    heap of timed events resuming generators that write a dict.

    It is not the program, so no change to the program moves its time:
    its CPU time measures only how fast the shared host is running.
    """
    heap = []
    table = {}

    def process(i):
        t = 0
        while True:
            t = yield (i * 7919 + t) % 1031

    processes = [process(i) for i in range(64)]
    for i, p in enumerate(processes):
        heapq.heappush(heap, (next(p), i))
    for k in range(events):
        t, i = heapq.heappop(heap)
        table[(i, t & 255)] = (t, k)
        heapq.heappush(heap, (t + processes[i].send(k) + 1, i))
    return len(table)


def host_speed() -> float:
    """How fast the host runs now, against the speed host time is
    normalized to: REFERENCE_S over the reference's CPU seconds."""
    gc.disable()  # the program's heap must not move the reference's time
    try:
        t0 = time.process_time()
        reference()
        return REFERENCE_S / (time.process_time() - t0)
    finally:
        gc.enable()


def measure(run, seeds: list, seconds: float, minimum: int) -> list:
    """Call ``run(seed)`` over ``seeds`` in turn, cycling, at least
    ``minimum`` times and until ``seconds`` are used; never start a
    call that the mean so far says would overrun."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run(seeds[len(results) % len(seeds)]))
        elapsed = time.perf_counter() - start
        if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def check_repeats(outcomes, problems: list, what: str) -> None:
    """Every run of one seed must give the same simulated results."""
    first = {}
    for o in outcomes:
        if first.setdefault(o.seed, o.fingerprint) != o.fingerprint:
            problems.append("simulated results differ between %s of seed %d"
                            % (what, o.seed))


def latency_tail(outcomes) -> dict:
    """The latency percentiles over one outcome per seed, and the
    samples behind them: the median of each seed's own, or, where the
    workload keeps its samples, percentiles of all seeds' samples pooled
    (its seeds alone have too few samples beyond their p99)."""
    from workloads import pooled

    if outcomes[0].latencies is not None:
        tail = pooled([lat for o in outcomes for lat in o.latencies])
        tail["how"] = "pooled over %d seeds" % len(outcomes)
    else:
        tail = {name: statistics.median(o.sim[name] for o in outcomes)
                for name in ("sim_p50_us", "sim_p99_us", "sim_latency_samples",
                             "sim_p99_beyond")}
        tail["how"] = "median of %d seeds' own, per seed" % len(outcomes)
    return tail


def end_to_end(outcomes, n_seeds: int, problems: list, require_tail: bool) -> tuple:
    """The end-to-end metrics: host time as medians over every run,
    simulated results over the first pass through the seeds.  Returns
    them with the latency tail they rest on."""
    first_pass = outcomes[:n_seeds]
    tail = latency_tail(first_pass)
    if require_tail and tail["sim_p99_beyond"] < MIN_TAIL_SAMPLES:
        problems.append("p99 has %.1f samples beyond it (< %d): window too short"
                        % (tail["sim_p99_beyond"], MIN_TAIL_SAMPLES))
    mops = statistics.mean(o.sim["sim_mops"] for o in first_pass)
    # scale the medians: one repeat's speed reading is noisier than its time
    scale = statistics.median(o.speed for o in outcomes) ** SPEED_EXPONENT
    return {
        "host_ops_per_s": statistics.median(o.ops / o.run_s for o in outcomes) / scale,
        "setup_s": statistics.median(o.setup_s for o in outcomes) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_mops": mops,
        "sim_p50_us": tail["sim_p50_us"],
        "sim_p99_us": tail["sim_p99_us"],
        "completion_rate": 1.0 - sum(o.failed for o in outcomes) / sum(
            o.attempted for o in outcomes),
        "availability": statistics.mean(o.availability for o in first_pass),
        "paper_err_pct": abs(mops - PAPER_HERD_MOPS) / PAPER_HERD_MOPS * 100.0,
    }, tail


def slim(outcome):
    """Drop the program objects an outcome holds once they are read."""
    outcome.sim_obj = None
    outcome.report = None
    return outcome


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str) -> tuple:
    """Measure one workload; returns (metrics, outcomes, problems, the
    latency tail)."""
    from layers import LayerTracer, layer_metrics
    from repro import obs
    from workloads import run_once

    seeds = subseeds(workload, seed, scale)
    problems: list = []

    def untraced_once(s):
        speed = host_speed()
        outcome = slim(run_once(workload, s, scale))
        outcome.speed = speed
        return outcome

    if not trace:
        # one more run than seeds, so at least one seed runs twice
        outcomes = measure(untraced_once, seeds, seconds, len(seeds) + 1)
        check_repeats(outcomes, problems, "repeats")
        for o in outcomes:
            problems.extend(p for p in o.problems if p not in problems)
        metrics, tail = end_to_end(outcomes, len(seeds), problems, scale == "full")
        return metrics, outcomes, problems, tail

    start = time.perf_counter()
    untraced = measure(untraced_once, seeds, 0.35 * seconds, 1)
    by_seed = {o.seed: o for o in untraced}
    budget = seconds - (time.perf_counter() - start)
    rows = []
    last = {}

    def traced_once(s):
        tracer = LayerTracer()

        def instruments(patches):
            last["session"] = patches.enter_context(obs.capture(metrics=True))
            tracer.install(patches)

        outcome = run_once(workload, s, scale, instruments, tracer.on_phase)
        registry = next(run.registry for run in last["session"].runs
                        if run.sim is outcome.sim_obj)
        rows.append(layer_metrics(outcome, by_seed[s], tracer.summary(),
                                  tracer.layer_of, registry))
        last["tracer"] = tracer
        return slim(outcome)

    traced = measure(traced_once, sorted(by_seed, key=seeds.index), budget, 1)
    check_repeats(untraced + traced, problems, "traced and untraced runs")
    for o in untraced + traced:
        problems.extend(p for p in o.problems if p not in problems)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    last["tracer"].write_spans(str(out_dir / ("%s.spans.jsonl" % workload)))
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    # the samples behind the percentiles of every seed measured
    tail = latency_tail(list({o.seed: o for o in untraced + traced}.values()))
    metrics["sim.latency_samples"] = tail["sim_latency_samples"]
    metrics["sim.p99_samples_beyond"] = tail["sim_p99_beyond"]
    return metrics, untraced + traced, problems, tail


def report(workload: str, seed: int, trace: bool, spec: dict, metrics: dict,
           outcomes: list, problems: list, tail: dict) -> dict:
    """Print the workload's metrics by name and unit, and the samples
    behind the latency percentiles (``tail``); return the result."""
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        problems.append("metrics %s do not match BENCHMARK.json %s"
                        % (sorted(metrics), sorted(units)))
    print("%s seed=%d %s: %d runs, %d closed-loop clients"
          % (workload, seed, "traced" if trace else "untraced", len(outcomes),
             outcomes[0].clients))
    for name in sorted(metrics):
        print("  %-34s %14.6g %s" % (name, metrics[name], units.get(name, "?")))
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print("  error_rate %.6g (%d failed of %d attempted)"
          % (failed / attempted, failed, attempted))
    if not trace:
        print("  host speed %.4g x reference; unscaled: host_ops_per_s %.6g, setup_s %.6g"
              % (statistics.median(o.speed for o in outcomes),
                 statistics.median(o.ops / o.run_s for o in outcomes),
                 statistics.median(o.setup_s for o in outcomes)))
    print("  latency percentiles %s: %d samples, %d beyond p99"
          % (tail["how"], tail["sim_latency_samples"], tail["sim_p99_beyond"]))
    for problem in problems:
        print("  CHECK FAILED: %s" % problem)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units.get(name, "?")}
                    for name in metrics},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        # one process per workload, so each reports its own peak memory
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace), "--scale", args.scale]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    spec = load_spec()
    load_program()
    metrics, outcomes, problems, tail = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    result = report(args.workload, args.seed, bool(args.trace), spec, metrics,
                    outcomes, problems, tail)
    print(json.dumps(result))
    return 0 if result["correct"] else 1

if __name__ == "__main__":
    sys.exit(main())

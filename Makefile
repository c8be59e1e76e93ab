# Convenience targets for the HERD reproduction.

.PHONY: install test bench figures figures-full examples metrics-smoke chaos-smoke ha-smoke lab-smoke elastic-smoke perfbench-smoke qos-smoke txn-smoke nemesis-smoke clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

test-fast:
	pytest tests/ -m "not slow"

bench:
	pytest benchmarks/ --benchmark-only

figures:
	python -m repro.bench.cli all --scale bench

figures-full:
	python -m repro.bench.cli all --scale full

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

# One small figure with full observability on; both artifacts must parse.
metrics-smoke:
	python -m repro.bench.cli fig2 --metrics /tmp/herd-metrics.json \
		--trace /tmp/herd-trace.json
	python -c "import json; m = json.load(open('/tmp/herd-metrics.json')); \
		assert m['runs'] and all(r['stations'] for r in m['runs']), 'no station metrics'; \
		t = json.load(open('/tmp/herd-trace.json')); \
		assert any(e['ph'] == 'X' for e in t['traceEvents']), 'no trace spans'; \
		print('metrics-smoke ok: %d runs, %d trace events' \
		% (len(m['runs']), len(t['traceEvents'])))"

# Two seeded chaos runs (loss + corruption + duplication + reordering +
# NIC stall + RNR + one server crash); the harness exits non-zero if any
# safety invariant is violated, and the same seed twice must yield the
# same fingerprint (checked inside the test suite too).
chaos-smoke:
	python -m repro.bench.cli --chaos --chaos-seed 7 --chaos-runs 2 \
		--metrics /tmp/herd-chaos-metrics.json
	python -c "import json; m = json.load(open('/tmp/herd-chaos-metrics.json')); \
		counters = [k for r in m['runs'] for k in r.get('counters', {}) \
		if k.startswith('faults.')]; \
		assert counters, 'no faults.* counters exported'; \
		print('chaos-smoke ok: %d runs, %d fault counters' \
		% (len(m['runs']), len(counters)))"

# A replicated cluster loses its primary mid-load: every acked write
# must survive, the history must check out linearizable, availability
# must stay above 99%, and the same seed twice must yield the same
# fingerprint (which pins failover timing, not just op counts).
ha-smoke:
	python -c "from repro.faults import run_chaos; \
		kw = dict(seed=11, scenario='kill-primary', horizon_ns=300000.0, \
		n_clients=4, n_items=64, value_size=24, n_server_processes=2, \
		intensity=0.5, replication_factor=3, ack_policy='majority'); \
		a = run_chaos(**kw); b = run_chaos(**kw); \
		print(a.summary()); \
		assert a.ok, a.violations; \
		assert a.checker == 'linearizable', a.checker; \
		assert a.ops_lost == 0, '%d acked writes lost' % a.ops_lost; \
		assert a.availability > 0.99, 'availability %.4f' % a.availability; \
		assert a.fingerprint == b.fingerprint, 'nondeterministic fingerprint'; \
		print('ha-smoke ok: %d acked, 0 lost, availability %.4f, fingerprint %s' \
		% (a.ops_acked, a.availability, a.fingerprint[:16]))"

# A spare partition joins a live replicated cluster while a kill-primary
# fault lands on the migration source: the reshard must complete (after
# an abort + restart), lose zero acked writes, keep the history
# linearizable, and reproduce bit-for-bit; then the elasticity sweep is
# gated against its committed baseline (tail throughput must track the
# born-full reference cluster), folding into BENCH_lab.json.
elastic-smoke:
	python -c "from repro.faults import run_chaos; \
		kw = dict(seed=11, scenario='migrate-under-kill', horizon_ns=300000.0, \
		n_clients=4, n_items=64, value_size=24, n_server_processes=3, \
		intensity=0.5, replication_factor=3, ack_policy='majority'); \
		a = run_chaos(**kw); b = run_chaos(**kw); \
		print(a.summary()); \
		assert a.ok, a.violations; \
		assert a.checker == 'linearizable', a.checker; \
		assert a.ops_lost == 0, '%d acked writes lost' % a.ops_lost; \
		assert a.migrations_done >= 1, 'no migration completed'; \
		assert a.migrations_aborted >= 1, 'the kill never hit a live migration'; \
		assert a.fingerprint == b.fingerprint, 'nondeterministic fingerprint'; \
		print('elastic-smoke ok: map v%d, %d migrations done (%d aborted), ' \
		'%d reroutes, fingerprint %s' \
		% (a.map_version, a.migrations_done, a.migrations_aborted, \
		a.reroutes, a.fingerprint[:16]))"
	python -m repro.lab.cli run elasticity --workers 2 --timeout 600
	python -m repro.lab.cli gate elasticity \
		--baseline benchmarks/baselines/elasticity.json

# A 10x flash crowd hits the same cluster twice: with admission control
# (shedding) the in-SLO goodput must hold at >= 70% of the pre-burst
# level with zero lost acked writes and a reproducible fingerprint;
# without it the same crowd must demonstrably collapse — that contrast
# is the whole point of repro.qos (docs/QOS.md).  Then the overload
# sweep is gated against its committed baseline, folding into
# BENCH_lab.json.
qos-smoke:
	python -c "from repro.faults import run_chaos; \
		kw = dict(seed=7, scenario='flash-crowd'); \
		a = run_chaos(shedding=True, **kw); \
		b = run_chaos(shedding=True, **kw); \
		off = run_chaos(shedding=False, **kw); \
		print(a.summary()); \
		assert a.ok, a.violations; \
		assert a.goodput_ratio >= 0.7, 'goodput ratio %.2f' % a.goodput_ratio; \
		assert a.ops_lost == 0, '%d acked writes lost' % a.ops_lost; \
		assert a.shed > 0 and a.retry_after_nacks > 0, 'shedding never engaged'; \
		assert off.goodput_ratio <= 0.2, \
		'unprotected run failed to collapse (%.2f)' % off.goodput_ratio; \
		assert a.fingerprint == b.fingerprint, 'nondeterministic fingerprint'; \
		print('qos-smoke ok: goodput ratio %.2f shed=%d (unprotected %.2f), ' \
		'0 lost, fingerprint %s' \
		% (a.goodput_ratio, a.shed, off.goodput_ratio, a.fingerprint[:16]))"
	python -m repro.lab.cli run overload --workers 2 --timeout 600
	python -m repro.lab.cli gate overload \
		--baseline benchmarks/baselines/overload.json

# perfbench's own self-test: its harness reaches into event-kernel
# names (Simulator._seq for the event count, Simulator.run and
# run_until_idle for wall-share attribution, FifoServer.serve), so a
# refactor that renames one must fail here rather than in the benchmark.
perfbench-smoke:
	python3 -m pytest -q perfbench

# Multi-key transactions, both commit dataplanes (docs/TXN.md): every
# run must pass the strict-serializability checker with zero torn
# writes and a reproducible fingerprint; the contention sweep must
# reproduce the RPC-vs-one-sided crossover; a crash-paused partition
# must tear nothing while one-sided commits keep landing (CPU bypass);
# the remote FIFO queue must conserve items on all three designs.
# Then the txn sweep is gated against its committed baseline, folding
# into BENCH_lab.json.
txn-smoke:
	python -c "from repro.bench.figures import run_txn; \
		a = run_txn(dataplane='rpc', seed=7); b = run_txn(dataplane='rpc', seed=7); \
		c = run_txn(dataplane='onesided', seed=7); d = run_txn(dataplane='onesided', seed=7); \
		assert a.ok and c.ok, (a.violation, c.violation); \
		assert a.fingerprint == b.fingerprint, 'rpc nondeterministic'; \
		assert c.fingerprint == d.fingerprint, 'onesided nondeterministic'; \
		print('txn-smoke dataplanes ok:'); print(' ', a.summary()); print(' ', c.summary())"
	python -c "from repro.bench.figures import run_txn; \
		cold_rpc = run_txn(dataplane='rpc', hot_fraction=0.0); \
		cold_one = run_txn(dataplane='onesided', hot_fraction=0.0); \
		hot_rpc = run_txn(dataplane='rpc', hot_fraction=0.9); \
		hot_one = run_txn(dataplane='onesided', hot_fraction=0.9); \
		assert all(r.ok for r in (cold_rpc, cold_one, hot_rpc, hot_one)); \
		assert cold_one.result.mops > cold_rpc.result.mops, 'no uncontended one-sided win'; \
		assert hot_rpc.result.mops > 2 * hot_one.result.mops, 'no contended RPC win'; \
		print('txn-smoke crossover ok: cold %.2f < %.2f, hot %.2f > %.2f Mops' \
		% (cold_rpc.result.mops, cold_one.result.mops, \
		hot_rpc.result.mops, hot_one.result.mops))"
	python -c "from repro.txn import TxnCluster, TxnConfig; \
		crash = (0, 40000.0, 60000.0); \
		rpc = TxnCluster(TxnConfig(dataplane='rpc', crash=crash), n_clients=8, seed=3).run(); \
		one = TxnCluster(TxnConfig(dataplane='onesided', crash=crash), n_clients=8, seed=3).run(); \
		assert rpc.ok and rpc.torn_writes == 0, (rpc.violation, rpc.torn_writes); \
		assert one.ok and one.commits_in_outage > 0, 'no CPU-bypass progress'; \
		print('txn-smoke crash ok: commits in outage rpc=%d onesided=%d, zero torn' \
		% (rpc.commits_in_outage, one.commits_in_outage))"
	python -c "from repro.txn import TxnQueueCluster, QueueConfig; \
		r = TxnQueueCluster(QueueConfig(dataplane='rpc')).run(); \
		c = TxnQueueCluster(QueueConfig(dataplane='onesided', ticket_mode='cas')).run(); \
		f = TxnQueueCluster(QueueConfig(dataplane='onesided', ticket_mode='faa')).run(); \
		assert r.ok and c.ok and f.ok, (r.violations, c.violations, f.violations); \
		assert f.enq_retries == 0 and c.enq_retries > 0, 'FAA/CAS retry contrast missing'; \
		print(r.summary()); print(c.summary()); print(f.summary())"
	python -m repro.lab.cli run txn --workers 2 --timeout 600
	python -m repro.lab.cli gate txn \
		--baseline benchmarks/baselines/txn.json

# The nemesis gate (docs/NEMESIS.md): a bounded random-schedule search
# across every dataplane must find zero invariant violations on
# healthy configs; the planted-bug arm must find its failure, shrink
# it to the single crash atom (deterministically — same seed, same
# reproducer), and the frozen artifact must replay byte-identically
# end to end through the CLI; then the nemesis sweep is gated against
# its committed baseline, folding into BENCH_lab.json.
nemesis-smoke:
	python -m repro.bench.cli --nemesis 12 --nemesis-seed 7
	python -c "from repro.nemesis import generate, run_schedule, shrink_schedule, resolve; \
		from repro.faults.rng import derive_seed; \
		oracles = resolve(('planted-no-crash',)); \
		hits = [s for s in (generate(derive_seed(7, 'nemesis.planted.%d' % i), 'herd') \
		for i in range(24)) if s.plan.crashes]; \
		assert hits, 'no planted crash schedule in 24 draws'; \
		found = hits[0]; \
		assert not run_schedule(found, oracles).ok, 'planted bug not detected'; \
		a = shrink_schedule(found, oracles); b = shrink_schedule(found, oracles); \
		assert a.atoms_after == 1 and a.minimal, (a.atoms_after, a.minimal); \
		assert a.fingerprint == b.fingerprint, 'nondeterministic shrink'; \
		r = run_schedule(a.schedule, oracles); \
		assert r.fingerprint == a.fingerprint and r.violations == a.violations; \
		print('nemesis-smoke planted ok: %d -> %d atoms in %d tests, ' \
		'minimal, replayed fingerprint %s' \
		% (a.atoms_before, a.atoms_after, a.tests, a.fingerprint[:16]))"
	python -c "from repro.nemesis import generate, run_schedule, shrink_schedule, \
		resolve, build_artifact, save_artifact; \
		from repro.faults.rng import derive_seed; \
		oracles = ('planted-no-crash',); \
		hits = [s for s in (generate(derive_seed(7, 'nemesis.planted.%d' % i), 'herd') \
		for i in range(24)) if s.plan.crashes]; \
		sh = shrink_schedule(hits[0], resolve(oracles)); \
		save_artifact('/tmp/herd-nemesis-repro.json', \
		build_artifact(run_schedule(sh.schedule, resolve(oracles)), oracles=oracles))"
	python -m repro.bench.cli --nemesis-replay /tmp/herd-nemesis-repro.json
	python -m repro.lab.cli run nemesis --workers 2 --timeout 600
	python -m repro.lab.cli gate nemesis \
		--baseline benchmarks/baselines/nemesis.json

# The lab gate, end to end: a 4-point parallel sweep lands in the
# result store, a re-run must be served entirely from cache, the
# committed baseline must pass (writing BENCH_lab.json, the repo's
# perf trajectory), and a deliberately perturbed baseline must fail.
lab-smoke:
	python -m repro.lab.cli run smoke --workers 2 --timeout 300
	python -m repro.lab.cli run smoke --workers 2 --quiet \
		| grep -q "(4 cached, 0 ran, 0 failed)"
	python -m repro.lab.cli gate smoke \
		--baseline benchmarks/baselines/lab-smoke.json
	python -c "import json; b = json.load(open('benchmarks/baselines/lab-smoke.json')); \
		label = sorted(b['points'])[0]; b['points'][label]['mops'] *= 1.5; \
		json.dump(b, open('/tmp/herd-lab-perturbed.json', 'w'))"
	! python -m repro.lab.cli gate smoke \
		--baseline /tmp/herd-lab-perturbed.json \
		--bench-json /tmp/herd-lab-perturbed-bench.json
	@echo "lab-smoke ok: gate passed on committed baseline, failed on perturbed"

clean:
	rm -rf benchmarks/out .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +

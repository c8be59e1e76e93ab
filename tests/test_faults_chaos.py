"""The chaos harness: seeded runs, invariants, and the CLI gate."""

import pytest

from repro.bench.cli import main
from repro.faults import FaultPlan, run_chaos
from repro.herd import HerdConfig


# Short horizons keep each run in the low hundreds of milliseconds of
# wall clock while still exercising loss, duplication, and a crash.
HORIZON = 150_000.0


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_chaos_runs_end_green_across_seeds(seed):
    report = run_chaos(seed=seed, horizon_ns=HORIZON)
    assert report.ok, report.violations
    assert report.issued == report.completed + report.abandoned
    assert report.completed > 0
    assert report.fingerprint


def test_chaos_same_seed_reproduces_the_fingerprint():
    a = run_chaos(seed=11, horizon_ns=HORIZON)
    b = run_chaos(seed=11, horizon_ns=HORIZON)
    assert a.ok and b.ok
    assert a.fingerprint == b.fingerprint
    assert (a.issued, a.completed, a.retries) == (b.issued, b.completed, b.retries)
    assert a.fault_counts == b.fault_counts


def test_chaos_different_seeds_diverge():
    a = run_chaos(seed=1, horizon_ns=HORIZON)
    b = run_chaos(seed=2, horizon_ns=HORIZON)
    assert a.fingerprint != b.fingerprint


def test_chaos_with_a_crash_records_the_recovery():
    plan = (
        FaultPlan(seed=5)
        .drop(dst="server", rate=0.02)
        .crash_server(0, at_ns=40_000.0, down_ns=40_000.0)
    )
    report = run_chaos(seed=5, horizon_ns=HORIZON, plan=plan)
    assert report.ok, report.violations
    assert report.server_crashes == 1
    assert report.server_recoveries == 1


def test_chaos_requires_retries():
    with pytest.raises(ValueError):
        run_chaos(config=HerdConfig(retry_timeout_ns=None))


def test_chaos_report_summary_mentions_the_verdict():
    report = run_chaos(seed=3, horizon_ns=HORIZON)
    text = report.summary()
    assert "OK" in text or "VIOLATED" in text
    assert str(report.issued) in text


def test_cli_chaos_smoke(capsys):
    rc = main(
        [
            "--chaos",
            "--chaos-seed",
            "7",
            "--chaos-runs",
            "1",
            "--chaos-horizon",
            str(HORIZON),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "chaos" in out.lower()


def test_outcome_table_aligns_columns():
    from repro.bench.cli import _outcome_table

    rows = [
        {
            "scenario": "kill-primary",
            "seed": 7,
            "ops_acked": 930,
            "ops_lost": 0,
            "availability": 0.9907,
            "p999_us": 42.7,
            "checker": "linearizable",
            "verdict": "OK",
        },
        {
            "scenario": "randomized",
            "seed": 8,
            "ops_acked": 12,
            "ops_lost": 3,
            "availability": 1.0,
            "p999_us": 3.1,
            "checker": "n/a",
            "verdict": "FAILED",
        },
    ]
    table = _outcome_table(rows)
    lines = table.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == [
        "scenario", "seed", "acked", "lost", "availability", "p99.9_us",
        "checker", "verdict",
    ]
    # every row puts the verdict in the same column
    col = lines[0].index("verdict")
    assert lines[1][col:].strip() == "OK"
    assert lines[2][col:].strip() == "FAILED"


def test_cli_chaos_scenario_prints_the_outcome_table(capsys):
    rc = main(
        [
            "--chaos",
            "--chaos-seed",
            "11",
            "--chaos-runs",
            "1",
            "--chaos-scenario",
            "kill-primary",
            "--chaos-horizon",
            str(HORIZON),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # the per-scenario outcome table, plus the HA lines of the summary
    assert "scenario" in out and "verdict" in out
    assert "kill-primary" in out and "OK" in out


def test_chaos_fingerprint_is_pinned():
    """The seed-7 default-horizon fingerprint, pinned byte for byte.

    This hash was recorded on the single-heap calendar, and every
    engine optimisation since must keep reproducing it exactly.  If an
    engine change breaks this, it changed dispatch order — see
    tests/test_engine_calendar.py for the pinned dispatch digests.
    """
    report = run_chaos(seed=7)
    assert report.ok, report.violations
    assert report.fingerprint == (
        "71024d25ada3bfcad98d34f5f0d0261a993296d46f8d11f527871ca0eff29e62"
    )

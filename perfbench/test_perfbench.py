"""Self-test of the benchmark: every workload at a tiny size, through the
same command, code paths and checks as a measured run.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_checks(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


def test_workloads_in_benchmark_json_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_wrong_get_bytes_fail_the_run():
    """A GET that returns bytes no write produced must fail the check."""
    run.load_program()
    from workloads import run_once

    def corrupt(patches):
        import repro.herd.wire as wire

        def make(decode):
            def bad(op, payload):
                success, value = decode(op, payload)
                return success, (b"\xff" + value[1:]) if value else value

            return bad

        patches.wrap(wire, "decode_response", make)

    outcome = run_once("herd-read-uniform", 1, "tiny", corrupt)
    assert any("bytes no write produced" in p for p in outcome.problems)
    assert outcome.failed > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    """A checkout holding only BENCHMARK.json and perfbench/ cannot run."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

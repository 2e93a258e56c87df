"""The tools: the in-process A/B runner and the BENCH_<pr>.json recorder."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_on_one_tree_twice_finds_equal_checked_outputs():
    # this checkout as both sides: the tool loads it under two package
    # names, and every output must match and pass perfbench's checks
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--workload", "solve-restart",
         "--parent", str(ROOT), "--seed", "1", "--batches", "2"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].startswith("B/A median ") and "95 % CI [" in lines[1]
    assert lines[-1] == "outputs equal and checked: True (16 ops per side)"


def test_bench_record_writes_the_summary_of_its_runs(tmp_path):
    # one short exact-small run at one seed, tier-1 timing left out: the
    # file names the tree and environment, the bytecode state, each
    # end-to-end metric's median and quartiles, and each run's checks
    out = tmp_path / "BENCH_0.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), "--pr", "0",
         "--workloads", "exact-small", "--seeds", "1", "--seconds", "1", "--skip-tier1",
         "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(out.read_text())
    assert set(record) == {"pr", "git_sha", "env", "bytecode", "perfbench", "workloads", "tier1"}
    assert record["env"].startswith(f"env git {record['git_sha']} ")
    assert record["perfbench"] == {"seconds": 1.0, "trace": 0, "seeds": [1]}
    assert record["tier1"] is None and "PYTHONDONTWRITEBYTECODE=1" in record["bytecode"]
    (workload,) = record["workloads"].values()
    assert set(workload["metrics"]) == {"batch_s", "setup_s", "peak_rss_mb"}
    for metric in workload["metrics"].values():
        assert set(metric) == {"unit", "median", "q1", "q3", "runs"} and metric["runs"] == 1
        assert metric["q1"] <= metric["median"] <= metric["q3"]
    (run,) = workload["runs"]
    assert set(run) == {"seed", "correct", "failed", "attempted", "counts", "metrics"}
    assert run["correct"] is True and run["failed"] == 0 and run["attempted"] == 56
    assert set(run["counts"]) == {"ops", "attempts", "mono_rejects", "mc_trials"}

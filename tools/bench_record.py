"""Record perfbench's end-to-end metrics and the tier-1 suite's time as BENCH_<pr>.json.

    python3 tools/bench_record.py --pr 57

Runs ``perfbench/run.py`` as a subprocess on every workload at every seed
(fixed by ``--seeds`` before any run; the default list keeps seed 21, whose
exact-small run fails 4 checks on correct code), with ``--trace 0``,
``PYTHONDONTWRITEBYTECODE=1`` and no ``__pycache__`` under ``src/`` (any
found is removed first), so ``setup_s`` includes compiling every module.
Each run's last line is perfbench's JSON, and its ``env`` line names the
tree and the environment.  Then it runs the tier-1 suite once with ``--durations=15``
and CI's warning flags, unless ``--skip-tier1``.

The file holds the git SHA and perfbench's environment line, the bytecode
state, and per workload the median and quartiles (inclusive method) of each
end-to-end metric over its runs, with every run's ``correct``, ``failed``,
``attempted`` and ``counts``; then the tier-1 wall time, its summary line
and its 15 slowest tests, marked as one run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve-sparse", "solve-restart", "mc-scale", "exact-small")
SEEDS = (1, 11, 21, 31, 41)
# pytest prints "12.41s call     tests/test_x.py::test_name" per slow phase
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (call|setup|teardown)\s+(\S.*)$")


def _env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def _clear_bytecode() -> None:
    for cache in sorted((ROOT / "src").rglob("__pycache__")):
        shutil.rmtree(cache)


def run_perfbench(workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its JSON line, its environment line and its counts."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    env = next(line for line in lines if line.startswith("env "))
    counts = json.loads(next(line for line in lines if line.startswith("counts "))[len("counts "):])
    return {
        "seed": seed,
        "env": env,
        "correct": out["correct"],
        "failed": out["failed"],
        "attempted": out["attempted"],
        "counts": counts,
        "metrics": {name: m["value"] for name, m in out["metrics"].items()},
        "units": {name: m["unit"] for name, m in out["metrics"].items()},
    }


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric over the runs."""
    out = {}
    for name, unit in runs[0]["units"].items():
        values = sorted(r["metrics"][name] for r in runs)
        q1 = q3 = values[0]
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        median = statistics.median(values)
        out[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3, "runs": len(values)}
    return out


def run_tier1() -> dict:
    """One run of the tier-1 suite with CI's flags: wall time, summary, slowest tests."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=15",
         "-p", "no:cacheprovider", "-W", "error::DeprecationWarning", "-W", "error::FutureWarning"],
        cwd=ROOT, env=_env(), capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    slowest = [
        {"seconds": float(m[1]), "phase": m[2], "test": m[3]}
        for m in map(DURATION.match, lines) if m
    ]
    return {
        "single_run": True,
        "exit_code": proc.returncode,
        "wall_s": wall,
        "summary": lines[-1].strip("= ") if lines else "",
        "slowest": slowest,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True, type=int, help="number in the file name BENCH_<pr>.json")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--skip-tier1", action="store_true", help="leave out the tier-1 timing")
    ap.add_argument("--out", type=Path, help="output path (default BENCH_<pr>.json at the root)")
    args = ap.parse_args(argv)

    _clear_bytecode()
    workloads, env = {}, None
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            run = run_perfbench(workload, seed, args.seconds)
            env = env or run["env"]
            print(f"{workload} seed {seed}: {json.dumps(run['metrics'])} failed {run['failed']}")
            runs.append(run)
        workloads[workload] = {
            "metrics": summarize(runs),
            "runs": [
                {k: r[k] for k in ("seed", "correct", "failed", "attempted", "counts", "metrics")}
                for r in runs
            ],
        }
    record = {
        "pr": args.pr,
        "git_sha": env.split()[2],
        "env": env,
        "bytecode": "PYTHONDONTWRITEBYTECODE=1, no __pycache__ under src/",
        "perfbench": {"seconds": args.seconds, "trace": 0, "seeds": args.seeds},
        "workloads": workloads,
        "tier1": None if args.skip_tier1 else run_tier1(),
    }
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The in-process A/B tool runs perfbench's operations on two trees."""

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

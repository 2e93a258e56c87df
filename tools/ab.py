"""In-process A/B timing of two eqcolor trees on one perfbench workload.

    python3 tools/ab.py --workload solve-restart --parent ../parent --seed 11 --batches 40

Loads the parent tree's ``src/eqcolor`` as package ``eqcolor_a`` (A) and
this checkout's as ``eqcolor_b`` (B); every import inside the package is
relative, so both live in one process.  The operations are perfbench's own:
``perfbench/workloads.py`` builds them and ``perfbench/run.py`` runs them,
imported, not copied.  Batch j runs on A then B for even j and on B then A
for odd j (A B B A ...), so warm-up drift hits both sides alike, and each
batch's CPU time is taken as perfbench takes it.

Prints the median of the per-batch ratios B / A, the share of batches in
which B was faster, and a bootstrap 95 % interval of the median ratio.
Then it checks the outputs: every operation's JSON form must be equal on
both sides (a solve report with ``explain=True``), and both sides' records
go through perfbench's independent checks.  Exits 1 when an output differs
or a check fails.  The interval covers batch-to-batch noise only: both
packages share numpy's allocator and the CPU caches.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  perfbench's op runner and output checks
import workloads  # noqa: E402


def load(name: str, tree: Path):
    """Import ``tree/src/eqcolor`` as the top-level package ``name``."""
    pkg = tree / "src" / "eqcolor"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    if spec is None:
        sys.exit(f"ab: no package at {pkg}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def as_json(out):
    """The comparable form of one operation's output."""
    if out is None:
        return None
    if hasattr(out, "outcome"):
        return out.to_json_dict(explain=True)
    return out.to_json_dict()


def bootstrap(ratios: list[float], rounds: int = 2000) -> tuple[float, float]:
    """2.5 % and 97.5 % quantiles of the median over resampled batches."""
    rng = np.random.default_rng(0)
    values = np.asarray(ratios)
    medians = np.median(values[rng.integers(0, len(values), (rounds, len(values)))], axis=1)
    return float(np.quantile(medians, 0.025)), float(np.quantile(medians, 0.975))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--parent", required=True, type=Path, help="root of the tree to run as A")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--batches", type=int, default=40)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.batches < 2:
        ap.error("--seed must be non-negative and --batches at least 2")

    wl = workloads.build(args.workload, args.seed, args.batches)
    sides = {}
    for label, name, tree in (("A", "eqcolor_a", args.parent), ("B", "eqcolor_b", ROOT)):
        eq = load(name, tree.resolve())
        graphs = [eq.parse_hypergraph(inst.text) for inst in wl.instances]
        sides[label] = (eq, graphs, [])

    def run_batch(label: str, j: int) -> float:
        eq, graphs, records = sides[label]
        total = 0.0
        for op in wl.batches[j]:
            t0 = time.process_time()
            try:
                out, error = run.run_op(eq, op, graphs[op.inst]), None
            except Exception as exc:  # counted as a failed check, as perfbench does
                out, error = None, f"{type(exc).__name__}: {exc}"
            cpu = time.process_time() - t0
            total += cpu
            records.append(run.Record(op, out, cpu, cpu, cpu, len(records), j, error))
        return total

    # one untimed pass over the first batch on each side
    for label in "AB":
        run_batch(label, 0)
        sides[label][2].clear()
    times = {"A": [], "B": []}
    for j in range(args.batches):
        for label in "AB" if j % 2 == 0 else "BA":
            times[label].append(run_batch(label, j))

    ratios = [b / a for a, b in zip(times["A"], times["B"])]
    faster = sum(b < a for a, b in zip(times["A"], times["B"])) / len(ratios)
    lo, hi = bootstrap(ratios)
    median = statistics.median(ratios)
    print(
        f"workload {args.workload} seed {args.seed} batches {args.batches}: "
        f"A median {statistics.median(times['A']):.5f} s, "
        f"B median {statistics.median(times['B']):.5f} s"
    )
    print(
        f"B/A median {median:.4f} ({100 * (median - 1):+.1f} %), 95 % CI [{lo:.4f}, {hi:.4f}], "
        f"B faster in {faster:.0%} of batches"
    )

    problems = []
    rec_a, rec_b = sides["A"][2], sides["B"][2]
    for i, (a, b) in enumerate(zip(rec_a, rec_b)):
        if a.error != b.error or as_json(a.out) != as_json(b.out):
            problems.append(f"op {i} ({a.op.kind} on instance {a.op.inst}): outputs differ")
    for label, (eq, graphs, records) in sides.items():
        failures = run.check_records(eq, wl, graphs, records, args.seed)
        problems += [f"{label}: {line}" for line in failures]
    for line in problems:
        print(f"note {line}")
    print(f"outputs equal and checked: {not problems} ({len(rec_a)} ops per side)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

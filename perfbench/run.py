"""eqcolor benchmark: one workload, one seed, one process, one operation at a time.

    python3 perfbench/run.py --workload solve-sparse --seed 7 --seconds 15 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout and driven through the public API the CLI subcommands call
(``parse_hypergraph``, ``solve_equitable``, ``mc_estimate``,
``brute_force_equitable``).  The loop is closed: one client sends the next
operation only when the last one has returned.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced pass over the first half of the batches.  The lines before it
report the environment, the per-kind times, the exact counts and every
failed check.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Every time is CPU time of this process, scaled to a reference machine
# speed measured in the same run (see speed.py).  The loop is
# single-threaded and does no I/O, so CPU time is the time the program
# needs; wall time on a shared virtual machine also counts the time the host
# kept the process off a core.
clock = time.process_time


class Record(NamedTuple):
    op: workloads.Op
    out: object
    cpu: float  # CPU seconds
    seconds: float  # CPU seconds scaled to the reference speed, once known
    wall: float
    seq: int  # position in the Speedometer's sequence
    batch: int
    error: str | None


def import_program():
    """Import eqcolor afresh from the checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "eqcolor" or n.startswith("eqcolor.")]:
        del sys.modules[name]
    eq = importlib.import_module("eqcolor")
    if not Path(eq.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: eqcolor was imported from {eq.__file__}, not from {SRC}")
    return eq


def setup(texts):
    """Import, then parse every instance text: at least 3 times, and up to
    7 while the set-ups so far took under 2 s.  Each set-up is bracketed by
    reference loops.

    Returns the last import, its hypergraphs, and the median scaled set-up
    and parse times."""
    meter = speed.Speedometer()
    total, parse = [], []
    while len(total) < 3 or (len(total) < 7 and sum(total) < 2.0):
        meter.before_op(force=True)
        t0 = clock()
        eq = import_program()
        t1 = clock()
        graphs = [eq.parse_hypergraph(t) for t in texts]
        t2 = clock()
        total.append(t2 - t0)
        parse.append(t2 - t1)
    factors = meter.factors()
    return (
        eq,
        graphs,
        statistics.median(t * f for t, f in zip(total, factors)),
        statistics.median(t * f for t, f in zip(parse, factors)),
    )


def run_op(eq, op, h):
    if op.kind == "solve":
        return eq.solve_equitable(h, op.r, eq.SolveConfig(seed=op.seed))
    if op.kind == "mc":
        return eq.mc_estimate(op.quantity, h, op.r, dict(op.params), trials=op.trials, seed=op.seed)
    return eq.brute_force_equitable(h, op.r)


def run_batch(eq, graphs, wl, j, meter, tracer=None):
    """Run batch j, one operation at a time; return its records."""
    records = []
    for op in wl.batches[j]:
        seq = meter.before_op()
        if tracer is not None:
            tracer.op = seq
            span = tracer.open(f"op.{op.kind}")
        t0, w0 = clock(), time.perf_counter()
        try:
            out, error = run_op(eq, op, graphs[op.inst]), None
        except Exception as exc:  # a failing operation is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds, wall = clock() - t0, time.perf_counter() - w0
        if tracer is not None:
            tracer.close(span)
        records.append(Record(op, out, seconds, seconds, wall, seq, j, error))
    return records


def run_traced(eq, graphs, wl, batches, meter):
    """Run every batch untraced and traced.  The order alternates from batch
    to batch, so drift in machine speed and warm caches hit both sides of
    trace.overhead_share alike.  Hooks are restored after each traced batch.

    Returns the untraced records, the traced records, the tracer and the
    hooked names not found."""
    tracer = tracing.Tracer()
    modules = {name: sys.modules.get(name) for name in ("eqcolor.solver", "eqcolor.montecarlo")}
    plain, traced, missing = [], [], []
    for j in range(batches):
        for hooked in (False, True) if j % 2 == 0 else (True, False):
            if hooked:
                restore, missing = tracing.install(modules, tracer)
                try:
                    traced += run_batch(eq, graphs, wl, j, meter, tracer)
                finally:
                    restore()
            else:
                plain += run_batch(eq, graphs, wl, j, meter)
    return plain, traced, tracer, missing


def per_batch(records, value=lambda r: r.seconds) -> list[float]:
    """Sum of ``value`` over the records of each batch, in batch order."""
    sums: dict[int, float] = {}
    for r in records:
        sums[r.batch] = sums.get(r.batch, 0.0) + value(r)
    return [sums[j] for j in sorted(sums)]


def scale(records, factors):
    return [r._replace(seconds=r.cpu * factors[r.seq]) for r in records]


def check_records(eq, wl, graphs, records, seed):
    """Check every output independently; return one line per failure."""
    failures, refs = [], {}
    for i, rec in enumerate(records):
        op, error = rec.op, rec.error
        inst = wl.instances[op.inst]
        if error is None and op.kind == "solve":
            error = checks.solve_error(inst, op, rec.out)
        elif error is None and op.kind == "oracle":
            error = checks.oracle_error(inst, op, rec.out)
        elif error is None:
            if op.check == "reference" and (op.inst, op.r) not in refs:
                refs[op.inst, op.r] = checks.reference_mono_edge(
                    eq, graphs[op.inst], inst, op.r, op.trials, (seed, op.inst)
                )
            error = checks.mc_error(op, rec.out, refs.get((op.inst, op.r)))
        if error is not None:
            failures.append(f"op {i} ({op.kind} on instance {op.inst}, r={op.r}): {error}")
    return failures


def exact_counts(records) -> dict:
    """Counts that must repeat exactly for the same code, seed and batch count."""
    solves = [r.out for r in records if r.op.kind == "solve" and r.out is not None]
    return {
        "ops": len(records),
        "attempts": sum(s.attempts for s in solves),
        "mono_rejects": sum(s.diagnostics.get("mono-edge", 0) for s in solves),
        "mc_trials": sum(r.out.trials for r in records if r.op.kind == "mc" and r.out is not None),
    }


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "none" when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def compare_with_earlier(counts: dict, key: str) -> str | None:
    """Store the counts of this run; flag a difference from an earlier run
    of the same code, workload, seed, batch count and trace mode."""
    path = OUT / "counts" / f"{key}.json"
    earlier = json.loads(path.read_text()) if path.is_file() else None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    if earlier is not None and earlier != counts:
        return f"counts differ from an earlier run of the same code: {earlier} vs {counts}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "eqcolor" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'eqcolor'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    batches = workloads.batch_count(args.workload, args.seconds)
    if args.trace:
        batches = max(2, math.ceil(batches / 2))
    wl = workloads.build(args.workload, args.seed, batches)
    eq, graphs, setup_s, parse_s = setup([inst.text for inst in wl.instances])

    meter = speed.Speedometer()
    traced = []
    if args.trace:
        records, traced, tracer, missing = run_traced(eq, graphs, wl, batches, meter)
    else:
        records = [r for j in range(batches) for r in run_batch(eq, graphs, wl, j, meter)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factors = meter.factors()
    records, traced = scale(records, factors), scale(traced, factors)
    counts = exact_counts(records)
    notes, mismatches = [], []
    if args.trace:
        span_scale = sum(r.seconds for r in traced) / sum(r.cpu for r in traced)
        layer, notes, call_counts = tracing.layer_metrics(
            tracer, traced, records, wl.instances, batches, missing, span_scale
        )
        layer["hypergraph.parse_s"] = parse_s
        layer["trace.overhead_share"] = (
            statistics.median(t / u for t, u in zip(per_batch(traced), per_batch(records))) - 1.0
        )
        if exact_counts(traced) != counts:
            mismatches.append(f"traced pass counts {exact_counts(traced)} differ from untraced {counts}")
        counts.update(call_counts)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")

    failures = check_records(eq, wl, graphs, records + traced, args.seed)
    key = f"{source_hash()}-{args.workload}-seed{args.seed}-batches{batches}-trace{args.trace}"
    mismatch = compare_with_earlier(counts, key)
    if mismatch is not None:
        mismatches.append(mismatch)
    correct = not failures and not mismatches

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace} batches {batches}")
    print(
        f"env git {git_sha()} source {source_hash()} python {platform.python_version()} "
        f"numpy {np.__version__} nproc {os.cpu_count()} machine {platform.machine()}"
    )
    kinds = {op.kind for op in wl.batches[0]}
    report = {
        "batch_s": statistics.median(per_batch(records)),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "batch_cpu_s": statistics.median(per_batch(records, lambda r: r.cpu)),
        "batch_wall_s": statistics.median(per_batch(records, lambda r: r.wall)),
    }
    units = dict.fromkeys(report, "s")
    units["peak_rss_mb"] = "MB"
    for kind, name in (("solve", "solve_s"), ("mc", "mc_s"), ("oracle", "oracle_s")):
        if kind in kinds:
            report[name] = statistics.median(per_batch(records, lambda r: r.seconds if r.op.kind == kind else 0.0))
            units[name] = "s"
    if "mc" in kinds:
        mc_time = sum(r.seconds for r in records if r.op.kind == "mc")
        report["mc_trials_per_s"] = counts["mc_trials"] / mc_time
        units["mc_trials_per_s"] = "1/s"
    attempted = len(records) + len(traced)
    report["ops_failed_share"] = len(failures) / attempted
    units["ops_failed_share"] = "share"
    for name, value in report.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(f"counts {json.dumps(counts, sort_keys=True)}")
    for line in notes + mismatches + failures:
        print(f"note {line}")

    if args.trace:
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": report[name], "unit": units[name]} for name in ("batch_s", "setup_s", "peak_rss_mb")}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


LAYER_UNITS = {
    "hypergraph.parse_s": "s",
    "hypergraph.verify_s": "s",
    "hypergraph.verify_calls": "count",
    "hypergraph.brute_force_s": "s",
    "hypergraph.brute_force_calls": "count",
    "seeding.derive_s": "s",
    "seeding.derive_calls": "count",
    "intervals.sample_weights_s": "s",
    "intervals.two_stage_s": "s",
    "intervals.two_stage_calls": "count",
    "intervals.two_stage_ns_per_vertex": "ns",
    "chains.extract_s": "s",
    "chains.extract_calls": "count",
    "chains.mean_k": "edges",
    "rebalance.plan_s": "s",
    "rebalance.plan_calls": "count",
    "rebalance.feasible_share": "share",
    "rebalance.apply_s": "s",
    "solver.self_s": "s",
    "solver.attempts": "count",
    "solver.attempts_per_solve": "count",
    "solver.mono_reject_share": "share",
    "solver.us_per_attempt": "us",
    "solver.repair_s": "s",
    "solver.repair_calls": "count",
    "solver.repair_success_share": "share",
    "montecarlo.kernel_s": "s",
    "montecarlo.ns_per_trial_vertex": "ns",
    "montecarlo.trials": "count",
    "montecarlo.oracle_s": "s",
    "montecarlo.oracle_calls": "count",
    "trace.overhead_share": "share",
}


if __name__ == "__main__":
    sys.exit(main())

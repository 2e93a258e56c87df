"""Spans around the program's public functions, recorded from outside it.

``install`` replaces each hooked name in the module that looks it up with a
wrapper that records a span (name, start, end, parent span, operation id,
note) and returns a function that puts every original back.  A hooked name
that a later refactor removed is skipped and reported, never fatal: the
metrics that depend only on it come out null.
"""

from __future__ import annotations

import functools
import gzip
import json
import time

# (module, attribute, span name, note taken from the call)
HOOKS = (
    ("eqcolor.solver", "derive", "seeding.derive", None),
    ("eqcolor.solver", "sample_weights", "intervals.sample_weights", None),
    ("eqcolor.solver", "run_interval_coloring", "intervals.two_stage", lambda a, out: a[0].m),
    ("eqcolor.solver", "extract_chain", "chains.extract", None),
    ("eqcolor.solver", "build_rebalance_plan", "rebalance.plan", lambda a, out: out.feasible),
    ("eqcolor.solver", "apply_recolor", "rebalance.apply", None),
    ("eqcolor.solver", "greedy_repair", "solver.repair", lambda a, out: out is not None),
    ("eqcolor.solver", "is_proper", "hypergraph.verify", None),
    ("eqcolor.solver", "is_equitable", "hypergraph.verify", None),
    ("eqcolor.solver", "brute_force_equitable", "hypergraph.brute_force", None),
    ("eqcolor.montecarlo", "exact_c0_event_prob", "montecarlo.oracle", None),
    ("eqcolor.montecarlo", "derive", "seeding.derive", None),
)

NAME, START, END, PARENT, OP, NOTE = range(6)


class Tracer:
    """Spans kept in memory as lists [name, start_ns, end_ns, parent, op, note].

    Times are CPU nanoseconds of the process, like every time of the run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.process_time_ns(), 0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, note=None) -> None:
        span = self.spans[idx]
        span[END] = time.process_time_ns()
        span[NOTE] = note
        self._stack.pop()

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(("name", "start_ns", "end_ns", "parent", "op", "note"), s))))
                fh.write("\n")


def _wrap(tracer: Tracer, name: str, fn, note):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx, "raised")
            raise
        tracer.close(idx, note(args, out) if note else None)
        return out

    return traced


def install(modules: dict, tracer: Tracer):
    """Hook every name of HOOKS found in ``modules`` (module name -> module).

    Returns (restore, missing): calling ``restore()`` puts the originals
    back; ``missing`` lists the "module.attribute" names that were absent.
    """
    saved, missing = [], []
    for mod_name, attr, span, note in HOOKS:
        mod = modules.get(mod_name)
        if mod is None or not callable(getattr(mod, attr, None)):
            missing.append(f"{mod_name}.{attr}")
            continue
        original = getattr(mod, attr)
        saved.append((mod, attr, original))
        setattr(mod, attr, _wrap(tracer, span, original, note))

    def restore():
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)

    return restore, missing


def layer_metrics(tracer: Tracer, traced, untraced, instances, batches: int, missing: list, scale: float):
    """Per-layer metrics, each per batch, from the spans of the traced pass.

    ``traced`` and ``untraced`` are the records of the same batches run
    with and without hooks.  Span times are multiplied by ``scale``, the
    traced pass's ratio of scaled to raw CPU time.  Returns (metrics, notes,
    call_counts), the last holding the exact call totals of the traced pass.
    """
    spans = tracer.spans
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    notes_of: dict[str, list] = {}
    child_s = [0.0] * len(spans)
    for s in spans:
        dur = (s[END] - s[START]) * 1e-9 * scale
        busy[s[NAME]] = busy.get(s[NAME], 0.0) + dur
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        notes_of.setdefault(s[NAME], []).append(s[NOTE])
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += dur

    def self_s(op_name):
        return sum(
            (s[END] - s[START]) * 1e-9 * scale - child_s[i] for i, s in enumerate(spans) if s[NAME] == op_name
        )

    # a layer all of whose hooks are gone yields null metrics, not a crash
    hooked: dict[str, bool] = {}
    for mod, attr, span, _ in HOOKS:
        hooked[span] = hooked.get(span, False) or f"{mod}.{attr}" not in missing
    notes = [f"hook {name} not found" for name in missing]
    out: dict = {}

    def put(key, span, value):
        out[key] = value if hooked.get(span, True) else None

    def per_batch(value):
        return value / batches

    def true_share(values):
        return sum(1 for v in values if v is True) / len(values) if values else 0.0

    for span in (
        "hypergraph.verify",
        "seeding.derive",
        "intervals.two_stage",
        "chains.extract",
        "rebalance.plan",
        "solver.repair",
        "montecarlo.oracle",
    ):
        put(f"{span}_s", span, per_batch(busy.get(span, 0.0)))
        put(f"{span}_calls", span, per_batch(calls.get(span, 0)))
    for span in ("intervals.sample_weights", "rebalance.apply"):
        put(f"{span}_s", span, per_batch(busy.get(span, 0.0)))

    # brute force runs inside the solver and as the benchmark's own oracle calls
    bf_s = busy.get("hypergraph.brute_force", 0.0) + busy.get("op.oracle", 0.0)
    bf_n = calls.get("hypergraph.brute_force", 0) + calls.get("op.oracle", 0)
    out["hypergraph.brute_force_s"] = per_batch(bf_s)
    out["hypergraph.brute_force_calls"] = per_batch(bf_n)

    vertices = sum(n for n in notes_of.get("intervals.two_stage", []) if isinstance(n, int))
    put("intervals.two_stage_ns_per_vertex", "intervals.two_stage",
        busy.get("intervals.two_stage", 0.0) / vertices * 1e9 if vertices else 0.0)
    put("rebalance.feasible_share", "rebalance.plan", true_share(notes_of.get("rebalance.plan", [])))
    put("solver.repair_success_share", "solver.repair", true_share(notes_of.get("solver.repair", [])))

    reports = [rec.out for rec in traced if rec.op.kind == "solve" and rec.out is not None]
    attempts = sum(r.attempts for r in reports)
    mono = sum(r.diagnostics.get("mono-edge", 0) for r in reports)
    chains = [c.k for r in reports for c in r.chains]
    untraced_solve_s = sum(rec.seconds for rec in untraced if rec.op.kind == "solve")
    out["chains.mean_k"] = sum(chains) / len(chains) if chains else 0.0
    out["solver.self_s"] = per_batch(self_s("op.solve"))
    out["solver.attempts"] = per_batch(attempts)
    out["solver.attempts_per_solve"] = attempts / len(reports) if reports else 0.0
    out["solver.mono_reject_share"] = mono / attempts if attempts else 0.0
    out["solver.us_per_attempt"] = untraced_solve_s / attempts * 1e6 if attempts else 0.0

    mc = [(rec.op, rec.out) for rec in traced if rec.op.kind == "mc" and rec.out is not None]
    trials = sum(o.trials for _, o in mc)
    trial_vertices = sum(o.trials * instances[op.inst].m for op, o in mc)
    kernel_s = self_s("op.mc")
    out["montecarlo.kernel_s"] = per_batch(kernel_s)
    out["montecarlo.ns_per_trial_vertex"] = kernel_s / trial_vertices * 1e9 if trial_vertices else 0.0
    out["montecarlo.trials"] = per_batch(trials)

    call_counts = {
        f"{span}_calls": calls.get(span, 0) if hooked[span] else None
        for span in ("seeding.derive", "chains.extract", "rebalance.plan")
    }
    return out, notes, call_counts

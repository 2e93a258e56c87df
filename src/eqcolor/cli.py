"""Command-line surface.

Subcommands: gen (random instance), solve (construct an equitable
coloring), verify (check a coloring against an instance), oracle
(brute-force feasibility), mc (Monte Carlo estimates), bounds (closed-form
threshold and bound values).

Exit codes: 0 on success; 2 when the requested object exists but the
verdict is negative (solver exhausted or infeasible, verification failed,
oracle found no coloring); 1 on usage or input errors.  Instances are read
from a file or stdin, as JSON when the first character is '{' and as the
plain text format otherwise.  solve, oracle and mc refuse an instance with
more than MAX_VERTICES vertices, and the library refuses -r above the
vertex count for all three.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .chains import (
    chain_probability_bound,
    dangerous_count_bound,
    expected_deflections_bound,
    mono_edge_probability_bound,
)
from .hypergraph import (
    BudgetExceeded,
    Coloring,
    FormatError,
    Hypergraph,
    brute_force_equitable,
    class_targets,
    edge_threshold,
    generate_random,
    is_equitable,
    is_proper,
    parse_hypergraph,
)
from .intervals import choose_p
from .montecarlo import _SPECS, QUANTITIES, mc_estimate
from .rebalance import compute_p_tilde, compute_q
from .solver import (
    AUTO,
    BALANCED_ONLY,
    SUCCESS,
    TWO_STAGE_ONLY,
    SolveConfig,
    solve_equitable,
)

__all__ = ["main", "run_cli"]

# solve and mc hold O(m) values per batch row however few edges there are,
# and oracle -r 1 an O(m) coloring, so a header can ask for any memory.  Peak
# RSS grew by about 90 bytes per vertex from m = 10^5 to 4 * 10^5 (header-only
# solve at r = 4; mc at 20 trials: 13 for mono-edge, 38 for dangerous-count),
# so this cap keeps them near 1 GB.  The library takes m up to 2^31.
MAX_VERTICES = 10**7


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json(text: str):
    # json recurses once per nesting level, so a deep file is a RecursionError
    try:
        return json.loads(text)
    except RecursionError:
        raise FormatError("JSON nested too deeply") from None


def _read_instance(path: str) -> Hypergraph:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    if text.lstrip().startswith("{"):
        return Hypergraph.from_json_dict(_load_json(text))
    return parse_hypergraph(text)


def _read_bounded_instance(path: str) -> Hypergraph:
    h = _read_instance(path)
    if h.m > MAX_VERTICES:
        raise ValueError(f"{h.m} vertices exceed the {MAX_VERTICES} that solve, oracle and mc take")
    return h


def _read_coloring(path: str) -> Coloring:
    with open(path, "r", encoding="utf-8") as fh:
        return Coloring.from_json_dict(_load_json(fh.read()))


def _emit(obj: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(obj))
    else:
        for line in text_lines:
            print(line)


def _build_parser() -> _Parser:
    parser = _Parser(prog="eqcolor", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a random instance to stdout")
    gen.set_defaults(handler=_cmd_gen)
    gen.add_argument("-m", type=int, required=True, help="number of vertices")
    gen.add_argument("-n", type=int, required=True, help="edge size")
    gen.add_argument("--edges", type=int, required=True, help="number of edges")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=["text", "json"], default="text")

    solve = sub.add_parser("solve", help="construct an equitable coloring")
    solve.set_defaults(handler=_cmd_solve)
    solve.add_argument("instance", nargs="?", default="-", help="file or - for stdin")
    solve.add_argument("-r", type=int, default=2, help="number of colors")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--restarts",
        type=int,
        default=10_000,
        help="most attempts to make (default 10000); each costs time linear in m, "
        "about 0.011 s per 10^6 vertices at n = 8, |E| = m/10, r = 4 on a 2-core VM, "
        "so a solve may take up to this many times that; 'eqcolor bounds' prints "
        "the edge threshold under which the paper's construction is meant to work",
    )
    solve.add_argument(
        "--force-path", choices=[AUTO, BALANCED_ONLY, TWO_STAGE_ONLY], default=AUTO
    )
    solve.add_argument("--strict-divisibility", action="store_true")
    solve.add_argument("--no-repair", action="store_true", help="disable greedy repair")
    solve.add_argument("--explain", action="store_true", help="include chains and plan")
    solve.add_argument("--format", choices=["text", "json"], default="json")

    verify = sub.add_parser("verify", help="check a coloring against an instance")
    verify.set_defaults(handler=_cmd_verify)
    verify.add_argument("instance")
    verify.add_argument("coloring", help="coloring JSON file")
    verify.add_argument("--format", choices=["text", "json"], default="text")

    oracle = sub.add_parser("oracle", help="brute-force equitable feasibility")
    oracle.set_defaults(handler=_cmd_oracle)
    oracle.add_argument("instance", nargs="?", default="-")
    oracle.add_argument("-r", type=int, default=2)
    oracle.add_argument("--budget", type=int, default=10**8)
    oracle.add_argument("--format", choices=["text", "json"], default="text")

    mc = sub.add_parser("mc", help="Monte Carlo estimate of a process quantity")
    mc.set_defaults(handler=_cmd_mc)
    mc.add_argument("instance", nargs="?", default="-")
    mc.add_argument("-r", type=int, default=2)
    mc.add_argument("--quantity", choices=list(QUANTITIES), required=True)
    mc.add_argument("--trials", type=int, default=10**5)
    mc.add_argument("--seed", type=int, default=0)
    takers = {}  # one flag per param name, with the quantities that take it
    for quantity, spec in _SPECS.items():
        for prm in spec.params:
            takers.setdefault(prm.name, (prm, []))[1].append(quantity)
    for prm, quantities in takers.values():
        help_text = f"{prm.help} ({', '.join(quantities)})"
        mc.add_argument("--" + prm.name.replace("_", "-"), type=prm.type, help=help_text)
    mc.add_argument("--no-compare", action="store_true")
    mc.add_argument("--format", choices=["text", "json", "csv"], default="text")

    bounds = sub.add_parser("bounds", help="threshold and bound values for n, r, k")
    bounds.set_defaults(handler=_cmd_bounds)
    bounds.add_argument("-n", type=int, required=True)
    bounds.add_argument("-r", type=int, required=True)
    bounds.add_argument("-k", type=int, default=1)
    bounds.add_argument("-m", type=int, help="include q and p-tilde for this m")
    bounds.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def _cmd_gen(args) -> int:
    h = generate_random(args.m, args.n, args.edges, args.seed)
    if args.format == "json":
        print(json.dumps(h.to_json_dict()))
    else:
        print(h.to_text(), end="")
    return 0


def _cmd_solve(args) -> int:
    h = _read_bounded_instance(args.instance)
    cfg = SolveConfig(
        seed=args.seed,
        max_restarts=args.restarts,
        force_path=args.force_path,
        allow_fallback_repair=not args.no_repair,
        strict_divisibility=args.strict_divisibility,
    )
    report = solve_equitable(h, args.r, cfg)
    if report.outcome == SUCCESS and not args.explain:
        payload = report.coloring.to_json_dict()
        lines = [
            f"outcome: {report.outcome} after {report.attempts} attempts ({report.path})",
            "colors: " + " ".join(map(str, report.coloring.colors)),
            "sizes: " + " ".join(map(str, report.coloring.sizes)),
        ]
    else:
        payload = report.to_json_dict(explain=args.explain)
        lines = [
            f"outcome: {report.outcome} after {report.attempts} attempts ({report.path})",
            f"diagnostics: {report.diagnostics}",
        ]
        if report.coloring is not None:
            lines.insert(1, "colors: " + " ".join(map(str, report.coloring.colors)))
    _emit(payload, args.format, lines)
    return 0 if report.outcome == SUCCESS else 2


def _cmd_verify(args) -> int:
    h = _read_instance(args.instance)
    coloring = _read_coloring(args.coloring)
    if coloring.m != h.m:
        raise ValueError(f"coloring covers {coloring.m} vertices, instance has {h.m}")
    # an equitable coloring is proper, so its edges are scanned only once
    equitable = is_equitable(h, coloring)
    proper = equitable or is_proper(h, coloring)
    verdict = {
        "proper": proper,
        "equitable": equitable,
        "sizes": list(coloring.sizes),
        "targets": class_targets(h.m, coloring.r),
    }
    _emit(
        verdict,
        args.format,
        [
            f"proper: {proper}",
            f"equitable: {equitable}",
            "sizes: " + " ".join(map(str, coloring.sizes)),
        ],
    )
    return 0 if equitable else 2


def _cmd_oracle(args) -> int:
    h = _read_bounded_instance(args.instance)
    found = brute_force_equitable(h, args.r, budget=args.budget)
    payload = {
        "feasible": found is not None,
        "coloring": None if found is None else found.to_json_dict(),
    }
    lines = [f"feasible: {found is not None}"]
    if found is not None:
        lines.append("colors: " + " ".join(map(str, found.colors)))
    _emit(payload, args.format, lines)
    return 0 if found is not None else 2


def _cmd_mc(args) -> int:
    h = _read_bounded_instance(args.instance)
    names = {prm.name for spec in _SPECS.values() for prm in spec.params}
    params = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    report = mc_estimate(
        args.quantity,
        h,
        args.r,
        params=params,
        trials=args.trials,
        seed=args.seed,
        compare=not args.no_compare,
    )
    obj = report.to_json_dict()
    if args.format == "csv":
        comp = report.comparison
        print("quantity,trials,estimate,half_width,comparison_kind,comparison_value")
        print(
            f"{report.quantity},{report.trials},{report.estimate!r},{report.half_width!r},"
            + (f"{comp.kind},{comp.value!r}" if comp else ",")
        )
        return 0
    lines = [
        f"{report.quantity}: {report.estimate:.6g} +/- {report.half_width:.3g} "
        f"({report.trials} trials)"
    ]
    if report.comparison:
        lines.append(f"{report.comparison.kind}: {report.comparison.value:.6g}")
    _emit(obj, args.format, lines)
    return 0


def _cmd_bounds(args) -> int:
    n, r, k = args.n, args.r, args.k
    thr = edge_threshold(n, r)
    obj = {
        "n": n,
        "r": r,
        "k": k,
        "edge-threshold": thr.value,
        "edge-threshold-log": thr.log_value,
        "asymptotic-regime": thr.asymptotic_regime,
        "p": choose_p(n, r),
        "chain-probability": chain_probability_bound(n, r, k),
        "mono-edge-probability": mono_edge_probability_bound(),
        "expected-deflections": expected_deflections_bound(n, r),
        "dangerous-count": dangerous_count_bound(n, r),
    }
    if args.m is not None:
        p = obj["p"]
        obj["q"] = compute_q(args.m, n, r, p)
        try:
            obj["p-tilde"] = compute_p_tilde(args.m, n, r, p)
        except ValueError as exc:
            obj["p-tilde"] = None
            obj["p-tilde-error"] = str(exc)
    lines = [f"{key}: {val}" for key, val in obj.items()]
    _emit(obj, args.format, lines)
    return 0


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 1
    except (BudgetExceeded, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""The package's exports agree with the ``__all__`` of the modules it
imports them from, and their numeric parameters follow one rule per kind,
entry by entry in a sequence."""

import ast
import dataclasses
import importlib
import inspect
import types
import typing
from pathlib import Path

import numpy as np
import pytest

import eqcolor


def test_package_exports_are_the_union_of_module_all_lists():
    # a name a caller compares against (a quantity, a path choice, an
    # outcome) is public in its module and reachable from the package, and
    # the package exports nothing its module keeps private
    tree = ast.parse(Path(eqcolor.__file__).read_text())
    modules = {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level}
    assert modules
    declared = set().union(*(importlib.import_module(f"eqcolor.{m}").__all__ for m in modules))
    exported = {
        name
        for name, value in vars(eqcolor).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == declared, (sorted(exported - declared), sorted(declared - exported))


# ---------------------------------------------------------------------------
# one argument rule per numeric kind, walked over every public signature

TRI_PAIR = eqcolor.Hypergraph(6, 3, [(0, 1, 2), (2, 3, 4), (1, 4, 5)])
PART = eqcolor.IntervalPartition(0.3, 2)
# vertices 0, 1 and 2 in large_1, the rest in large_2: edge 0 is
# monochromatic in color 1, a chain of one edge
INIT = eqcolor.run_interval_coloring(TRI_PAIR, 2, PART, [0.1, 0.2, 0.3, 0.9, 0.8, 0.7])
MONO = eqcolor.MonoEdge(0, 1)
PROPER = eqcolor.Coloring(6, 2, [1, 1, 2, 2, 1, 2])

# one valid call per public callable or input class, as keyword arguments
VALID_CALLS = {
    "ChainEventSpec": dict(edges=(0, 1), color=2),
    "Coloring": dict(m=6, r=2, colors=[1, 1, 1, 2, 2, 2]),
    "DangerousEdge": dict(edge=0, u_vertices=(0,)),
    "Deflected": dict(vertex=2, interval=1),
    "Hypergraph": dict(m=6, n=3, edges=[(0, 1, 2)]),
    "IntervalPartition": dict(p=0.3, r=2),
    "MonoEdge": dict(edge=0, color=1),
    "MonoEdgeExists": dict(),
    "SolveConfig": dict(),
    "apply_recolor": dict(coloring=PROPER, wsets=[[0]]),
    "balanced_mono_prob": dict(m=6, n=3, r=2),
    "brute_force_equitable": dict(h=TRI_PAIR, r=2),
    "build_rebalance_plan": dict(h=TRI_PAIR, init=INIT, targets=[3, 3], seed=0, p_tilde=0.5),
    "chain_probability_bound": dict(n=8, r=3, k=2),
    "choose_p": dict(n=8, r=3),
    "class_targets": dict(m=10, r=3),
    "compute_p_tilde": dict(m=10**6, n=8, r=3, p=0.1),
    "compute_q": dict(m=1000, n=8, r=3, p=0.1),
    "dangerous_count_bound": dict(n=8, r=3),
    "edge_threshold": dict(n=8, r=3),
    "exact_c0_event_prob": dict(h=TRI_PAIR, r=2, event=eqcolor.MonoEdgeExists()),
    "excess_shortage": dict(coloring=PROPER, targets=[3, 3]),
    "expected_deflections_bound": dict(n=8, r=3),
    "extract_chain": dict(h=TRI_PAIR, init=INIT, failure=MONO),
    "generate_random": dict(m=8, n=3, num_edges=4, seed=7),
    "greedy_repair": dict(h=TRI_PAIR, coloring=PROPER, targets=[3, 3]),
    "is_equitable": dict(h=TRI_PAIR, coloring=PROPER),
    "is_proper": dict(h=TRI_PAIR, coloring=PROPER),
    "mc_estimate": dict(quantity="mono-edge", h=TRI_PAIR, r=2, trials=10, compare=False),
    "mono_edge_probability_bound": dict(),
    "parse_hypergraph": dict(text="6 3 1\n0 1 2\n"),
    "run_interval_coloring": dict(h=TRI_PAIR, r=2, partition=PART, weights=INIT.weights),
    "sample_weights": dict(m=6, seed=0, rows=2),
    "solve_equitable": dict(h=TRI_PAIR, r=2),
    "validate_chain": dict(
        h=TRI_PAIR, init=INIT, record=eqcolor.extract_chain(TRI_PAIR, INIT, MONO)
    ),
}
# not walked: exceptions, which take a message; parameters annotated bool;
# and these
NOT_WALKED = {
    # records the package builds and returns
    "ChainLink", "ChainRecord", "Comparison", "EstimateReport", "InitialColoring",
    "InitialColoringBatch", "MonoProbability", "RebalancePlan", "SolveReport",
    "ThresholdBound",
}
# what a parameter of each numeric kind must refuse
REFUSED = {int: (2.5, True, "2"), float: ("0.1", True)}


# a run with a chain of every kind: edge 0 deflects vertex 1 out of
# small_1, and edge 1 comes out monochromatic in color 2
PATH = eqcolor.Hypergraph(3, 2, [(0, 1), (1, 2)])
PATH_RUN = eqcolor.run_interval_coloring(PATH, 2, eqcolor.IntervalPartition(0.2, 2), [0.1, 0.45, 0.7])
TWO_CHAIN, TERMINAL, COMPLEX = (
    dict(h=PATH, init=PATH_RUN, record=eqcolor.extract_chain(PATH, PATH_RUN, event))
    for event in (
        eqcolor.MonoEdge(1, 2), eqcolor.Deflected(1, 1), eqcolor.DangerousEdge(0, (0,))
    )
)
TEXT_WEIGHTS = ["0.1", "0.2", "0.3", "0.9", "0.8", "0.7"]
FALSE_WEIGHT = [False, 0.2, 0.3, 0.9, 0.8, 0.7]


def _chain(valid, **fields):
    """validate_chain's call ``valid`` with its record's ``fields`` changed."""
    return "validate_chain", valid, dict(record=dataclasses.replace(valid["record"], **fields))


# (name, a valid call, a change to one sequence parameter in it), which the
# parameter must refuse entry by entry, or an array by its dtype: without
# the rule each is read as a number (a float id as an index, True as 1, "0"
# as 0, a text weight sorted as text) or fails deep inside with an
# IndexError or an OverflowError
SEQUENCE_REFUSED = [
    *(
        ("apply_recolor", VALID_CALLS["apply_recolor"], dict(wsets=bad))
        for bad in ([[0.7]], [[True]], [["0"]], [np.zeros(1)], [[2**64]])
    ),
    *(
        (name, VALID_CALLS[name], dict(weights=bad))
        for name in ("greedy_repair", "run_interval_coloring")
        for bad in (TEXT_WEIGHTS, FALSE_WEIGHT, np.zeros(6, dtype=bool), np.zeros(6, dtype=object))
    ),
    _chain(VALID_CALLS["validate_chain"], color=True),
    _chain(TWO_CHAIN, edges=(0.0, 1)),
    _chain(TWO_CHAIN, links=(eqcolor.ChainLink(1.0, 0.45),)),
    _chain(TERMINAL, terminal_vertex=1.0),
    _chain(COMPLEX, reduced_edge=(1.0,)),
    _chain(COMPLEX, candidate_vertices=(0.0,)),
]


def _numeric_kind(annotation):
    """int or float when the annotation is that type, or a union holding it
    (Optional included); None otherwise."""
    union = typing.get_origin(annotation) in (typing.Union, types.UnionType)
    options = typing.get_args(annotation) if union else (annotation,)
    return next((kind for kind in REFUSED if kind in options), None)


def test_every_public_callable_has_a_valid_call_or_a_reason():
    public = {
        name
        for name, value in vars(eqcolor).items()
        if not name.startswith("_")
        and callable(value)
        and not (inspect.isclass(value) and issubclass(value, BaseException))
    }
    assert public == set(VALID_CALLS) | NOT_WALKED, (
        sorted(public - set(VALID_CALLS) - NOT_WALKED),
        sorted(set(VALID_CALLS) - public),
    )


@pytest.mark.parametrize("name", sorted(VALID_CALLS))
def test_numeric_parameters_refuse_what_they_would_misread(name):
    # a float where an integer belongs was truncated or compared as a
    # number, True read as 1 and a string failed deep inside with a
    # TypeError; each is now a ValueError from its kind's rule
    call, valid = getattr(eqcolor, name), VALID_CALLS[name]
    call(**valid)
    for param in inspect.signature(call, eval_str=True).parameters.values():
        for bad in REFUSED.get(_numeric_kind(param.annotation), ()):
            with pytest.raises(ValueError):
                call(**{**valid, param.name: bad})


@pytest.mark.parametrize("name, valid, change", SEQUENCE_REFUSED)
def test_sequence_parameters_refuse_what_they_would_misread_entry_by_entry(name, valid, change):
    call = getattr(eqcolor, name)
    call(**valid)
    with pytest.raises(ValueError):
        call(**{**valid, **change})

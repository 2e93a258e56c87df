"""The package's exports agree with the ``__all__`` of the modules it
imports them from, and their numeric parameters follow one rule per kind,
entry by entry in a sequence, and give the same verdict at every numpy
dtype."""

import ast
import dataclasses
import importlib
import inspect
import itertools
import re
import types
import typing
from fractions import Fraction
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


def test_real_parameters_refuse_an_integer_past_the_float_range():
    # float() of such an integer raised OverflowError, not the rule's ValueError
    for name, valid in VALID_CALLS.items():
        call = getattr(eqcolor, name)
        for param in inspect.signature(call, eval_str=True).parameters.values():
            if _numeric_kind(param.annotation) is float:
                with pytest.raises(ValueError, match="no exact float64 value"):
                    call(**{**valid, param.name: 10**400})


@pytest.mark.parametrize("name, valid, change", SEQUENCE_REFUSED)
def test_sequence_parameters_refuse_what_they_would_misread_entry_by_entry(name, valid, change):
    call = getattr(eqcolor, name)
    call(**valid)
    with pytest.raises(ValueError):
        call(**{**valid, **change})


# ---------------------------------------------------------------------------
# the same verdict at every numpy dtype: an array reads as its equal list

INTEGER_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
FLOAT_DTYPES = (np.float16, np.float32, np.float64, np.longdouble)
MATRIX_DTYPES = (*INTEGER_DTYPES, *FLOAT_DTYPES, np.bool_, np.complex128, object)


def _matrix_values(dtype):
    """Pairs of values as read-only arrays of ``dtype``, so that a reader
    that writes into its argument fails: 0 and 1, 1 and 2, the dtype's two
    ends (past int64 both ways for object), and for a float dtype 0 and
    the largest value below 1."""
    pairs = [[0, 1], [1, 2]]
    if dtype in INTEGER_DTYPES:
        pairs.append([np.iinfo(dtype).min, np.iinfo(dtype).max])
    elif dtype in FLOAT_DTYPES:
        info = np.finfo(dtype)
        pairs += [[info.min, info.max], [dtype(0), dtype(1) - info.epsneg]]
    elif dtype is object:
        pairs.append([-(2**64), 2**64])
    arrays = [np.array(pair, dtype=dtype) for pair in pairs]
    for a in arrays:
        a.flags.writeable = False
    return arrays


SMALL = eqcolor.Hypergraph(2, 2, [(0, 1)])


def _record(valid, **fields):
    return dataclasses.replace(valid["record"], **fields)


# argument: (its rule, the shape a pair takes, the call); shape () takes
# each entry of a pair on its own.  "ids" are integers within int64,
# "integer" any integer, and "real" an integer or a float
DTYPE_ARGUMENTS = {
    "edge rows": ("ids", (1, 2), lambda v: eqcolor.Hypergraph(4, 2, v)),
    "colors": ("ids", (2,), lambda v: eqcolor.Coloring(2, 2, v)),
    "W_i": (
        "ids", (2,), lambda v: eqcolor.apply_recolor(eqcolor.Coloring(4, 2, [1, 1, 2, 2]), [v])
    ),
    "ChainRecord.edges": (
        "ids", (2,), lambda v: eqcolor.validate_chain(PATH, PATH_RUN, _record(TWO_CHAIN, edges=v))
    ),
    "ChainRecord.reduced_edge": (
        "ids",
        (2,),
        lambda v: eqcolor.validate_chain(PATH, PATH_RUN, _record(COMPLEX, reduced_edge=v)),
    ),
    "ChainRecord.candidate_vertices": (
        "ids",
        (2,),
        lambda v: eqcolor.validate_chain(PATH, PATH_RUN, _record(COMPLEX, candidate_vertices=v)),
    ),
    "ChainRecord.color": (
        "integer", (), lambda x: eqcolor.validate_chain(PATH, PATH_RUN, _record(TWO_CHAIN, color=x))
    ),
    "ChainRecord.terminal_vertex": (
        "integer",
        (),
        lambda x: eqcolor.validate_chain(PATH, PATH_RUN, _record(TERMINAL, terminal_vertex=x)),
    ),
    "kernel weights": ("real", (2,), lambda v: eqcolor.run_interval_coloring(SMALL, 2, PART, v)),
    "repair weights": (
        "real",
        (2,),
        lambda v: eqcolor.greedy_repair(SMALL, eqcolor.Coloring(2, 2, [1, 2]), [1, 1], v),
    ),
    "slot_of": ("real", (), PART.slot_of),
}


def _outcome(call, value):
    """What ``call(value)`` gives, in plain values, or the ValueError it
    raises as (type, message); any other exception fails the test."""
    try:
        out = call(value)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(out, eqcolor.Hypergraph):
        return "read", out.edge_array.tolist()
    if isinstance(out, eqcolor.Coloring):
        return "read", out.colors.tolist(), out.sizes
    if isinstance(out, eqcolor.InitialColoring):
        return "read", out.coloring.colors.tolist(), out.slots.tolist()
    return "read", out


def _equal_list(a):
    """``a`` as nested lists of its own entries, numpy scalars kept."""
    return [_equal_list(x) for x in a] if a.ndim > 1 else list(a)


def _python_equal(x, rule):
    """The Python number equal to ``x`` that ``rule`` takes: an int, within
    int64 for ids, or an int or a float that float64 holds exactly for the
    real rule; None when there is none."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        v = int(x)
        fits = {"ids": -(2**63) <= v < 2**63, "integer": True, "real": float(v) == v}
        return v if fits[rule] else None
    if rule == "real" and isinstance(x, (float, np.floating)) and float(x) == x:
        return float(x)
    return None


def _exact(x):
    """The exact value of an integer or a finite float, as a Fraction;
    None for anything else."""
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, (float, np.floating)) and np.isfinite(x):
        return Fraction(*x.as_integer_ratio())
    return None


# the bounds a message states, which are not values it was given
RULE_TEXT = re.compile(r"\[0, 1\)|\d+\.\.(?:\d+|r)")
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:e[-+]?\d+)?(?![\w.])")


def _names_an_entry(outcome, entries):
    """Whether ``outcome`` is a ValueError quoting one of ``entries`` as
    given: a number of exactly its value, or the repr of an entry that is
    not an integer."""
    if outcome[0] == "read":
        return False
    text = RULE_TEXT.sub("", outcome[1])
    quoted = {Fraction(token) for token in NUMBER.findall(text)}
    return any(
        _exact(x) in quoted or not isinstance(x, (int, np.integer)) and repr(x) in text
        for x in entries
    )


@pytest.mark.filterwarnings("error")
def test_every_integer_and_real_argument_gives_one_verdict_at_every_dtype():
    # an id array was read by its dtype and a list entry by entry, so a
    # uint64 id of 2^63 wrapped to a negative one, an object array was
    # refused although its list was read, and a longdouble weight just
    # below 1 was refused as 1.0: each reader named a value it computed.
    # Now an argument reads as the Python numbers equal to it, or, where
    # its rule takes none, is refused with an entry named as given
    for argument, (rule, shape, call) in DTYPE_ARGUMENTS.items():
        for pair in itertools.chain.from_iterable(map(_matrix_values, MATRIX_DTYPES)):
            case = (argument, pair.dtype.name, pair)
            if not shape:
                for x in pair:
                    got, equal = _outcome(call, x), _python_equal(x, rule)
                    if equal is None:
                        assert _names_an_entry(got, [x]), (case, got)
                    else:
                        assert got == _outcome(call, equal), (case, got)
                continue
            values = pair.reshape(shape)
            got, listed = _outcome(call, values), _outcome(call, _equal_list(values))
            # an array reads as its equal list, or a real one is refused by its dtype
            by_dtype = rule == "real" and got[0] != "read" and f"dtype {values.dtype} " in got[1]
            assert got == listed or by_dtype, (case, got, listed)
            equals = [_python_equal(x, rule) for x in pair]
            if None in equals:
                refused = [x for x, equal in zip(pair, equals) if equal is None]
                assert _names_an_entry(listed, refused), (case, listed)
            else:
                plain = _equal_list(np.array(equals, dtype=object).reshape(shape))
                assert listed == _outcome(call, plain), (case, listed)

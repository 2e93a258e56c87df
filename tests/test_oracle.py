"""The exact oracle's independence from the production code, its run cap,
and its invariance under relabeling."""

from pathlib import Path

import numpy as np
import pytest

from eqcolor import (
    ChainEventSpec,
    Deflected,
    Hypergraph,
    MonoEdgeExists,
    exact_c0_event_prob,
    generate_random,
)
from eqcolor import oracle

from _reference import package_imports

# the workhorse calibration instance of the Monte Carlo tests
TRI_PAIR = Hypergraph(6, 3, [(0, 1, 2), (2, 3, 4), (1, 4, 5)])

# what the oracle may import from the package: the instance type and its
# budget error, the argument rules for integers, r and p, the derived p
# and the event type it shares with the chain layer; no kernel, predicate
# or shared helper
ALLOWED = {
    ("hypergraph", "BudgetExceeded"),
    ("hypergraph", "Hypergraph"),
    ("hypergraph", "_check_colors"),
    ("hypergraph", "_integer"),
    ("intervals", "_check_p"),
    ("intervals", "choose_p"),
    ("chains", "Deflected"),
}


def test_oracle_imports_only_data_types_and_argument_rules():
    # the oracle checks the Monte Carlo route only while it shares no code
    # with it: a kernel, a predicate or a helper imported here would let one
    # fault pass both
    found = package_imports(Path(oracle.__file__).read_text())
    assert found and set(found) <= ALLOWED, sorted(set(found) - ALLOWED)


@pytest.mark.parametrize(
    "line, name",
    [
        ("from .intervals import _stage_colors", ("intervals", "_stage_colors")),
        ("from eqcolor.chains import _conflicting", ("chains", "_conflicting")),
        ("from . import montecarlo", ("montecarlo", "*")),
        ("import eqcolor.rebalance", ("rebalance", "*")),
        ("from .hypergraph import Hypergraph as H, _mono_edges", ("hypergraph", "_mono_edges")),
    ],
)
def test_import_reader_sees_every_form_of_package_import(line, name):
    assert name in package_imports(f"import math\nimport numpy as np\n{line}\n")
    assert name not in ALLOWED


@pytest.mark.parametrize("r", [2, 3])
def test_oracle_run_cap_changes_no_value(monkeypatch, r):
    # a cap of 1 runs every group of slot vectors alone, 2^24 puts them all
    # in one run; each event's group sums add in group order either way
    events = [MonoEdgeExists(), ChainEventSpec((0, 1), 2)] + [Deflected(v, 1) for v in range(6)]
    runs, values = [], []
    visit = oracle._visit_states

    def counted(*args, **kwargs):
        runs[-1] += 1
        return visit(*args, **kwargs)

    monkeypatch.setattr(oracle, "_visit_states", counted)
    for cells in (1, 1 << 18, 1 << 24):
        monkeypatch.setattr(oracle, "_RUN_CELLS", cells)
        runs.append(0)
        values.append(exact_c0_event_prob(TRI_PAIR, r, events))
    assert values[0] == values[1] == values[2]
    assert len(values[0]) == len(events) and all(0.0 < value < 1.0 for value in values[0])
    assert runs[0] > runs[1] == runs[2]


def test_event_records_and_the_oracle_refuse_what_they_would_misread():
    # on two disjoint triangles, Deflected(0, -1) read class r,
    # ChainEventSpec((0, -1), 2) read edge -1 as edge 1, Deflected(7, 1)
    # gave 0.0 on m = 6 and Deflected(True, 1) read vertex 1; the others
    # died with an IndexError from inside the oracle
    h = Hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)])
    built = [
        lambda: Deflected(0, -1),
        lambda: Deflected(-1, 1),
        lambda: Deflected(True, 1),
        lambda: Deflected(1.5, 1),
        lambda: Deflected(0, 1.0),
        lambda: ChainEventSpec((0, -1), 2),
        lambda: ChainEventSpec((), 2),
        lambda: ChainEventSpec([0, 1], 2),
        lambda: ChainEventSpec((0.0, 1), 2),
        lambda: ChainEventSpec((True, 1), 2),
        lambda: ChainEventSpec((0, 1), 0),
        lambda: ChainEventSpec((0, 1), 2.0),
    ]
    for build in built:
        with pytest.raises(ValueError):
            build()
    for event in (Deflected(7, 1), Deflected(6, None), Deflected(0, 2), ChainEventSpec((0, 9), 2)):
        with pytest.raises(ValueError, match="outside"):
            exact_c0_event_prob(h, 2, event)
        with pytest.raises(ValueError, match="outside"):
            exact_c0_event_prob(h, 2, [Deflected(0, 1), event])
    # the fields read as plain ints, so equal events stay equal
    assert Deflected(np.int64(5), np.int8(1)) == Deflected(5, 1)
    assert ChainEventSpec((np.int32(0),), 1) == ChainEventSpec((0,), 1)
    one, either = exact_c0_event_prob(h, 2, [Deflected(5, 1), Deflected(5, None)])
    assert one == either


@pytest.mark.parametrize("shape, r", [((10, 3, 8), 2), ((10, 2, 12), 2), ((8, 3, 6), 3), ((7, 2, 8), 3)])
def test_oracle_is_invariant_under_relabeling(shape, r):
    # the process reads ids only through ties of weight, which have measure
    # zero: moving the instance along a vertex permutation pi, with the edge
    # order kept, moves every event with it, and the oracle's value must
    # not change in the last bit; each event has its own value, so no
    # summation order can hide a difference
    m = shape[0]
    h = generate_random(*shape, seed=1)
    pi = np.random.default_rng([*shape, r]).permutation(m)
    relabeled = Hypergraph(m, h.n, pi[h.edge_array])
    # edge j of the relabeled instance is edge j moved, so a chain's edge
    # indices map to themselves
    assert np.array_equal(relabeled.edge_array, np.sort(pi[h.edge_array], axis=1))
    rows = [set(e) for e in h.edge_array.tolist()]
    chain = next(
        (a, b) for a in range(len(rows)) for b in range(len(rows)) if len(rows[a] & rows[b]) == 1
    )
    events = [MonoEdgeExists(), ChainEventSpec(chain, 2)]
    moved = events + [Deflected(int(pi[v]), None) for v in range(m)]
    events += [Deflected(v, None) for v in range(m)]
    values = exact_c0_event_prob(h, r, events, p=0.3, budget=10**8)
    assert exact_c0_event_prob(relabeled, r, moved, p=0.3, budget=10**8) == values
    # the chain and some deflection occur, so the values are not all zeros
    assert values[1] > 0 and max(values[2:]) > 0

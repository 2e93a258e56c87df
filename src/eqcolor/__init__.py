"""Randomized equitable colorings of n-uniform hypergraphs.

The package builds equitable r-colorings two ways: uniform draws over
balanced colorings for small vertex counts, and a two-stage interval
coloring with rebalancing for larger ones.  Failures of the second route
are certified by chains of edges linked through deflected vertices.  Exact
brute-force oracles and Monte Carlo estimators cross-check every quantity
the construction relies on.
"""

from .chains import (
    COMPLEX,
    IMPROPER,
    ORDERED,
    ChainInvalid,
    ChainLink,
    ChainRecord,
    DangerousEdge,
    Deflected,
    MonoEdge,
    chain_probability_bound,
    dangerous_count_bound,
    expected_deflections_bound,
    extract_chain,
    mono_edge_probability_bound,
    validate_chain,
)
from .hypergraph import (
    BudgetExceeded,
    Coloring,
    FormatError,
    Hypergraph,
    ThresholdBound,
    brute_force_equitable,
    class_targets,
    edge_threshold,
    generate_random,
    is_equitable,
    is_proper,
    parse_hypergraph,
)
from .intervals import (
    InitialColoring,
    InitialColoringBatch,
    IntervalPartition,
    MonoProbability,
    balanced_mono_prob,
    choose_p,
    run_interval_coloring,
    sample_weights,
)
from .montecarlo import QUANTITIES, Comparison, EstimateReport, mc_estimate
from .oracle import ChainEventSpec, MonoEdgeExists, exact_c0_event_prob
from .rebalance import (
    RebalancePlan,
    RegimeViolation,
    apply_recolor,
    build_rebalance_plan,
    compute_p_tilde,
    compute_q,
    excess_shortage,
)
from .solver import (
    AUTO,
    BALANCED_ONLY,
    EXHAUSTED,
    INFEASIBLE,
    SUCCESS,
    TWO_STAGE_ONLY,
    SolveConfig,
    SolveReport,
    greedy_repair,
    solve_equitable,
)

__version__ = "0.1.0"

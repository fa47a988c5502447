"""Neighbour sum distinguishing total colourings.

Library for constructing, verifying, and exactly solving proper total
colourings in which adjacent vertices get distinct weighted degrees
(own colour plus incident edge colours).
"""

from .graph import (
    Graph,
    GraphError,
    GraphParseError,
    GenerationError,
    parse_graph,
    write_graph,
    load_graph,
    save_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    regular_graph,
    generate,
    connected_components,
    is_connected,
    enumerate_labelled_graphs,
    enumerate_connected_graphs,
)
from .colouring import (
    TotalColouring,
    Violation,
    ColouringError,
    ColouringParseError,
    weighted_degrees,
    check_proper,
    check_nsd,
    is_valid,
    write_colouring,
    parse_colouring,
    load_colouring,
    save_colouring,
)
from .exact import (
    SolveResult,
    EnumerationGuardError,
    brute_force_chi,
    solve_exact,
    conjecture_sweep,
)
from .lemma import (
    LemmaParams,
    LemmaState,
    PropertyReport,
    ResampleResult,
    Stage2Result,
    InfeasibleStrictError,
    sample_stage_one,
    s_of,
    interval_index,
    check_properties,
    event_scope,
    resample_event,
    resample_until_valid,
    stage_two,
    STAGE_ONE_PROPERTIES,
    ALL_PROPERTIES,
)
from .construct import (
    ConstructConfig,
    ConstructionState,
    RiskParams,
    RunReport,
    ClassWidthError,
    HSelection,
    reference_span_bound,
    properize,
    compute_risky,
    select_H,
    recolour_H,
    repair_small_degree,
    greedy_nsd,
    construct,
)
from .experiment import (
    ExperimentSpec,
    RunRecord,
    run_experiment,
    run_sweep,
    parse_family,
    split_seed,
)

__version__ = "0.1.0"

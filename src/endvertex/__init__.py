"""Graph searches, end-vertex deciders, 3-SAT end-vertex gadgets, and an
exhaustive small-instance oracle."""

from .chordal import (
    chordal_hole,
    clique_tree,
    maximal_cliques_chordal,
    mcs_order,
    peo_violation,
    recognize_chordal,
)
from .deciders import (
    DispatchResult,
    Verdict,
    decide_dfs_claw_net_free,
    decide_dfs_interval,
    decide_mcs_split,
    decide_mns_chordal,
    decide_unit_interval,
    dispatch_endvertex,
    hamiltonian_path,
    mcs_interval_sufficient,
)
from .errors import (
    ClassMismatchError,
    DisconnectedGraphError,
    GuardExceededError,
    NotChordalError,
)
from .graph import (
    Graph,
    complement,
    cut_vertices,
    induced_subgraph,
    is_connected,
    is_inclusion_chain,
    is_simplicial,
)
from .oracle import (
    endvertex_set_exhaustive,
    is_endvertex_exhaustive,
    randomized_endvertex_probe,
)
from .recognize import (
    CliqueOrder,
    SplitPartition,
    check_unit_interval_order,
    is_claw_net_free,
    is_split,
    recognize_interval,
    recognize_split,
    recognize_unit_interval,
    unit_interval_order_ending_at,
    validate_clique_order,
    validate_split_partition,
)
from .reduction import (
    CnfFormula,
    GadgetArtifact,
    assignment_satisfies,
    build_mcs_gadget,
    build_mns_gadget,
    mcs_gadget_edge_count,
    mns_gadget_edge_count,
    parse_dimacs,
    role_to_str,
    sat_bruteforce,
    to_dimacs,
    witness_order_mcs,
    witness_order_mns,
)
from .search import (
    HIGHEST_ID,
    LOWEST_ID,
    FixedPreference,
    HighestId,
    LowestId,
    SearchKind,
    SearchReplay,
    SeededRandom,
    TieBreakPolicy,
    eligible_set,
    run_search,
    validate_order,
)

__version__ = "0.1.0"

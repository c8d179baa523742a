"""domlab: exact solvers and certified instance generators for domination
variants (multiple/tuple domination, dominating cliques, independent sets,
induced matchings, and generic patterns)."""

from .graph import (
    Graph,
    GraphFormatError,
    heavy_vertices,
    load_graph,
    save_graph,
)
from .multidom import (
    CandidateFamily,
    KPartiteGraph,
    Problem,
    Solution,
    build_candidate_families,
    diagnose_solution,
    list_2_dominating_sets,
    solve_multidom_fast,
    solve_multidom_kminus1,
    verify_solution,
)
from .oracles import (
    OracleBudgetError,
    oracle_multidom,
    oracle_pattern,
    oracle_unbalanced_clique,
)
from .patterndom import (
    Pattern,
    PatternTooLargeError,
    enumerate_cliques,
    list_dominating_ksets,
    load_pattern,
    solve,
    solve_dominating_clique,
    solve_dominating_indepset,
    solve_dominating_induced_matching,
    solve_pattern_domination,
)
from .reductions import (
    OVInstance,
    ReductionOutput,
    indepset_to_multidom,
    load_ov,
    ov_to_hdom,
    ov_to_induced_matching,
    ov_to_multidom,
    save_ov,
    solve_ov_bruteforce,
    verify_reduction,
)

__version__ = "0.1.0"

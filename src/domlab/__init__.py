"""domlab: exact solvers and certified instance generators for domination
variants (multiple/tuple domination, dominating cliques, independent sets,
induced matchings, and generic patterns)."""

from .graph import Graph, GraphFormatError, load_graph, save_graph
from .multidom import KPartiteGraph, Problem, Solution, diagnose_solution, verify_solution
from .oracles import OracleBudgetError, oracle_unbalanced_clique
from .patterndom import Pattern, PatternTooLargeError, load_pattern, solve
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

"""Product scans of the two source deciders, kept as test-side references.

`oracles.oracle_unbalanced_clique` and `reductions.solve_ov_bruteforce`
search with cuts; these try every transversal in `itertools.product` order,
with no cut and no bit rows beyond `has_edge`, and no budget. The
differential tests and `bench/bench_generate.py` compare the two, answer and
first transversal alike.
"""

from __future__ import annotations

import itertools

from domlab.multidom import KPartiteGraph
from domlab.reductions import OVInstance


def ov_product_scan(inst: OVInstance, r: int) -> bool:
    """True iff some transversal a_1,...,a_k has >= r zeros in every coordinate."""
    for choice in itertools.product(*inst.sets):
        if all(sum(1 for vec in choice if vec[t] == 0) >= r for t in range(inst.d)):
            return True
    return False


def clique_product_scan(kp: KPartiteGraph) -> tuple[tuple[int, int], ...] | None:
    """The first one-vertex-per-part clique in product order, or None."""
    for choice in itertools.product(*(range(s) for s in kp.sizes)):
        trans = tuple((i, a) for i, a in enumerate(choice))
        if all(kp.has_edge(i, a, j, b)
               for (i, a), (j, b) in itertools.combinations(trans, 2)):
            return trans
    return None

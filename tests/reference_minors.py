"""Reference Hadwiger oracle by contraction recursion over canonical forms.

This is the original implementation of ``minors.hadwiger_number``: the
maximum over every contraction sequence, memoised per isomorphism class.  The
package answers the same question by a pruned decision search; the tests
check that both agree.
"""

from __future__ import annotations

from linkgraphs.canon import canonical_key
from linkgraphs.errors import OracleTooLarge
from linkgraphs.minors import DEFAULT_HADWIGER_CAP, _contract_pair, _max_clique_vertices


def hadwiger_number(G, cap=DEFAULT_HADWIGER_CAP):
    """Largest clique minor order, by contraction recursion with memoised
    canonical forms.  Parallel edges are collapsed first."""
    simp = G.underlying_simple()
    if cap is not None and simp.n > cap:
        raise OracleTooLarge(simp.n, cap)
    _, pairs = simp.simple_index_graph()
    memo = {}

    def rec(n, edges):
        if n <= 1:
            return n
        key = canonical_key(n, {e: 1 for e in edges})
        if key in memo:
            return memo[key]
        best = len(_max_clique_vertices(n, edges))
        for i, j in sorted(edges):
            if n - 1 <= best:
                break
            best = max(best, rec(*_contract_pair(n, edges, i, j)))
        memo[key] = best
        return best

    return rec(simp.n, frozenset(pairs))

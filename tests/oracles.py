"""Test oracles that share nothing with the library's factor routes."""

from kflab.graphs import Graph


def regular_subgraph_exists(g: Graph, k: int) -> bool:
    """Direct backtracking over edge sub-multisets: take each row up to its
    multiplicity, most copies first, pruning on over/under-full vertices.
    Loops are unusable (one adds 2 to a single vertex).  On a simple graph
    each row is taken at most once, take before skip.  Independent of all
    library counting, usable up to a few dozen edges."""
    edges = list(g.edge_tuples())
    mult = [1] * len(edges) if g.mult is None else g.mult.tolist()
    need = [k] * g.n
    # remaining[i][v] = how much degree v can still gain from rows >= i
    remaining = [[0] * g.n for _ in range(len(edges) + 1)]
    for i in range(len(edges) - 1, -1, -1):
        u, v = edges[i]
        row = remaining[i + 1][:]
        row[u] += mult[i]
        row[v] += mult[i]
        remaining[i] = row

    def rec(i, need):
        if any(need[v] > remaining[i][v] for v in range(g.n)):
            return False
        if i == len(edges):
            return all(x == 0 for x in need)
        u, v = edges[i]
        for take in range(min(mult[i], need[u], need[v]), -1, -1):
            need[u] -= take
            need[v] -= take
            if rec(i + 1, need):
                return True
            need[u] += take
            need[v] += take
        return False

    return rec(0, need)

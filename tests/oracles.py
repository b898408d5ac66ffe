"""Test oracles that share nothing with the library's factor routes."""

from kflab.graphs import Graph


def regular_subgraph_exists(g: Graph, k: int) -> bool:
    """Direct backtracking over edge subsets: keep or drop each edge,
    pruning on over/under-full vertices.  Independent of all library
    counting, usable up to a few dozen edges."""
    edges = list(g.edge_tuples())
    need = [k] * g.n
    # remaining[i][v] = how much degree v can still gain from edges >= i
    remaining = [[0] * g.n for _ in range(len(edges) + 1)]
    for i in range(len(edges) - 1, -1, -1):
        u, v = edges[i]
        row = remaining[i + 1][:]
        row[u] += 1
        row[v] += 1
        remaining[i] = row

    def rec(i, need):
        if any(need[v] > remaining[i][v] for v in range(g.n)):
            return False
        if i == len(edges):
            return all(x == 0 for x in need)
        u, v = edges[i]
        if need[u] > 0 and need[v] > 0:
            need[u] -= 1
            need[v] -= 1
            if rec(i + 1, need):
                return True
            need[u] += 1
            need[v] += 1
        return rec(i + 1, need)

    return rec(0, need)

"""Matching engine tests against brute force and networkx oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kflab import matching
from kflab.errors import DomainError
from kflab.graphs import Graph
from kflab.matching import maximum_matching, perfect_matching_exists


def matched_pairs(mate) -> list[tuple[int, int]]:
    """Canonical (u < v) sorted edge list of a mate array."""
    return [(v, int(mate[v])) for v in range(len(mate)) if v < mate[v]]


def brute_max_size(n: int, edges) -> int:
    """Exact maximum matching size by branch and bound."""
    es = sorted({(min(u, v), max(u, v)) for u, v in edges if u != v})
    best = 0

    def rec(i: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if i == len(es) or size + (len(es) - i) <= best:
            return
        u, v = es[i]
        if not (used >> u) & 1 and not (used >> v) & 1:
            rec(i + 1, used | (1 << u) | (1 << v), size + 1)
        rec(i + 1, used, size)

    rec(0, 0, 0)
    return best


def size_of(mate) -> int:
    return sum(1 for v in range(len(mate)) if mate[v] >= 0) // 2


def assert_valid(mate, n, edges) -> None:
    eset = {(min(u, v), max(u, v)) for u, v in edges}
    for v in range(n):
        w = int(mate[v])
        if w >= 0:
            assert int(mate[w]) == v and w != v
            assert (min(v, w), max(v, w)) in eset


def random_graph(rng, n, p):
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]


def test_trivial_cases():
    assert maximum_matching(0, []).tolist() == []
    assert maximum_matching(3, []).tolist() == [-1, -1, -1]
    assert maximum_matching(2, [(0, 1)]).tolist() == [1, 0]
    # loops and duplicates are ignored
    assert maximum_matching(2, [(0, 0), (0, 1), (1, 0)]).tolist() == [1, 0]
    # the same edges as an (m, 2) array, and with every pair reversed
    arr = np.array([(0, 0), (0, 1), (1, 0)], dtype=np.int64)
    assert maximum_matching(2, arr).tolist() == [1, 0]
    assert maximum_matching(2, arr[:, ::-1]).tolist() == [1, 0]


def test_path_and_cycles():
    assert size_of(maximum_matching(3, [(0, 1), (1, 2)])) == 1
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    mate = maximum_matching(5, c5)
    assert size_of(mate) == 2
    assert not perfect_matching_exists(mate)
    c6 = [(i, (i + 1) % 6) for i in range(6)]
    assert perfect_matching_exists(maximum_matching(6, c6))


def test_two_triangles_bridge():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    mate = maximum_matching(6, edges)
    assert perfect_matching_exists(mate)
    assert_valid(mate, 6, edges)


def test_bowtie_not_perfect():
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]
    assert size_of(maximum_matching(5, edges)) == 2


def test_petersen_has_perfect_matching():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    edges = outer + inner + spokes
    mate = maximum_matching(10, edges)
    assert perfect_matching_exists(mate)
    assert_valid(mate, 10, edges)
    assert len(matched_pairs(mate)) == 5


def test_complete_graphs():
    for n in range(2, 9):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert size_of(maximum_matching(n, edges)) == n // 2


def test_brute_force_agreement_small():
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        n = int(rng.integers(2, 11))
        p = float(rng.uniform(0.1, 0.9))
        edges = random_graph(rng, n, p)
        mate = maximum_matching(n, edges)
        assert_valid(mate, n, edges)
        assert size_of(mate) == brute_max_size(n, edges)


def test_networkx_agreement_medium():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(99)
    for _ in range(40):
        n = int(rng.integers(20, 61))
        p = float(rng.uniform(0.03, 0.25))
        edges = random_graph(rng, n, p)
        mate = maximum_matching(n, edges)
        assert_valid(mate, n, edges)
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        oracle = nx.max_weight_matching(g, maxcardinality=True)
        assert size_of(mate) == len(oracle)
        # every other matched pair as a seed: grown to the same size, and
        # every seeded vertex stays matched
        seed = [-1] * n
        for u, v in matched_pairs(mate)[::2]:
            seed[u], seed[v] = v, u
        again = maximum_matching(n, edges, seed_mate=seed)
        assert_valid(again, n, edges)
        assert size_of(again) == len(oracle)
        assert all(again[v] >= 0 for v in range(n) if seed[v] >= 0)


def test_seed_mate_is_grown():
    # path of 4: seeding the middle edge forces two augmentations through it
    edges = [(0, 1), (1, 2), (2, 3)]
    seed = [-1, 2, 1, -1]
    mate = maximum_matching(4, edges, seed_mate=seed)
    assert perfect_matching_exists(mate)
    # every seeded vertex stays matched (though possibly to a new partner)
    assert mate[1] >= 0 and mate[2] >= 0


def test_seed_mate_validation():
    with pytest.raises(DomainError):
        maximum_matching(2, [(0, 1)], seed_mate=[1, -1])  # asymmetric
    with pytest.raises(DomainError):
        maximum_matching(3, [(0, 1)], seed_mate=[1, 0, 2])  # self pair
    with pytest.raises(DomainError):
        maximum_matching(4, [(0, 1), (2, 3)], seed_mate=[2, -1, 0, -1])
    with pytest.raises(DomainError):
        maximum_matching(2, [(0, 1)], seed_mate=[1, 0, -1])  # wrong length
    with pytest.raises(DomainError):
        maximum_matching(2, [(0, 5)])  # edge out of range
    with pytest.raises(DomainError):
        maximum_matching(2, [(5, 5)])  # loop out of range
    with pytest.raises(DomainError):
        maximum_matching(2, [(0, 1)], seed_mate=[5, -1])  # mate out of range
    with pytest.raises(DomainError):
        maximum_matching(2, [(0, 1)], seed_mate=[-3, -1])  # negative, not -1
    with pytest.raises(DomainError):
        maximum_matching(2, [(0, 1)], seed_mate=np.array([1.0, 0.9]))  # not integral
    with pytest.raises(DomainError):
        maximum_matching(3, np.array([[0, 1.7]]))  # endpoint not integral
    with pytest.raises(DomainError):
        maximum_matching(3, [(0, 1), (2,)])  # ragged, not pairs
    with pytest.raises(DomainError):
        maximum_matching(2.5, [(0, 1)])  # vertex count not integral
    # integral floats are vertex ids
    assert maximum_matching(2, [(0.0, 1.0)], seed_mate=[1.0, 0.0]).tolist() == [1, 0]
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DomainError):
        maximum_matching(4, g, seed_mate=[2, -1, 0, -1])  # non-edge, Graph input
    with pytest.raises(DomainError):
        maximum_matching(5, g)  # a Graph whose size is not n


def test_graph_input_equals_pairs():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        g = Graph.from_pairs(n, pairs)  # parallel edges and loops ignored
        mate = maximum_matching(n, g)
        assert mate.tolist() == maximum_matching(n, g.edge_array).tolist()
        seed = [-1] * n
        for u, v in matched_pairs(mate)[::2]:
            seed[u], seed[v] = v, u
        assert (maximum_matching(n, g, seed_mate=seed).tolist()
                == maximum_matching(n, g.edge_array, seed_mate=seed).tolist())


def test_phase_reads_graph_csr_without_copy(monkeypatch):
    # the engine walks the Graph's cached CSR arrays, not copies of them
    seen = []
    real_phase = matching._phase

    def spy(xadj, nbr, mate):
        seen.append((xadj, nbr))
        return real_phase(xadj, nbr, mate)

    monkeypatch.setattr(matching, "_phase", spy)
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    mate = maximum_matching(g.n, g)
    assert perfect_matching_exists(mate)
    xadj, nbr, _ = g.csr()
    assert len(seen) >= 2
    for view_xadj, view_nbr in seen:
        assert np.shares_memory(np.asarray(view_xadj), xadj)
        assert np.shares_memory(np.asarray(view_nbr), nbr)
        assert list(view_xadj) == xadj.tolist()
        assert list(view_nbr) == nbr.tolist()


def test_seeded_equals_unseeded_cardinality():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(4, 12))
        edges = random_graph(rng, n, 0.5)
        base = maximum_matching(n, edges)
        # corrupt-free partial seed: keep every other matched pair
        seed = [-1] * n
        for u, v in matched_pairs(base)[::2]:
            seed[u] = v
            seed[v] = u
        again = maximum_matching(n, edges, seed_mate=seed)
        assert size_of(again) == size_of(base)
        for v in range(n):
            if seed[v] >= 0:
                assert again[v] >= 0


def test_determinism():
    rng = np.random.default_rng(5)
    edges = random_graph(rng, 30, 0.2)
    a = maximum_matching(30, edges)
    b = maximum_matching(30, edges)
    assert a.tolist() == b.tolist()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(0.05, 0.95),
)
def test_validity_and_optimality_property(n, seed, p):
    rng = np.random.default_rng(seed)
    edges = random_graph(rng, n, p)
    mate = maximum_matching(n, edges)
    assert_valid(mate, n, edges)
    assert size_of(mate) == brute_max_size(n, edges)

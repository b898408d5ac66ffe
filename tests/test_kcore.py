"""Peeling tests: hand cores, order invariance, and the structure audit."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kflab.analytics import c_k_threshold, core_law
from kflab.errors import DomainError
from kflab.graphs import Graph, format_edge_text, parse_edge_text
from kflab.kcore import audit_lw0, k_core
from kflab.randgraph import gen_gnp
from kflab.rng import spawn_seed

HOUSE = Graph(5, [(0, 1), (0, 2), (0, 4), (1, 2), (2, 3), (3, 4)])


def random_tree(n: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    return Graph(n, edges)


def reference_core_set(g: Graph, k: int, seed: int) -> frozenset:
    """Naive peel deleting a uniformly random low vertex each round."""
    rng = np.random.default_rng(seed)
    adj = g.adjacency()
    alive = set(range(g.n))
    deg = {v: int(g.degrees[v]) for v in range(g.n)}
    while True:
        low = [v for v in alive if deg[v] < k]
        if not low:
            return frozenset(alive)
        v = low[int(rng.integers(0, len(low)))]
        alive.remove(v)
        for u in adj[v]:
            if u in alive:
                deg[u] -= 1


def naive_rounds(g: Graph, k: int) -> tuple:
    """Round-by-round peel recomputing every live degree from scratch."""
    adj = g.adjacency()
    alive = set(range(g.n))
    order = []
    while True:
        low = sorted(
            v for v in alive
            if sum(u in alive for u in adj[v]) < k
        )
        if not low:
            return tuple(order)
        order.extend(low)
        alive.difference_update(low)


def test_tree_has_empty_two_core():
    for seed in (1, 2, 3):
        res = k_core(random_tree(30, seed), 2)
        assert res.core.n == 0
        assert res.core.m == 0
        assert sorted(res.peel_order) == list(range(30))
        assert not res.membership.any()


def test_k4_is_its_own_three_core():
    g = gen_gnp(4, 4.0, 0)  # K_4
    res = k_core(g, 3)
    assert res.core == g
    assert res.peel_order == ()
    assert res.vertex_map.tolist() == [0, 1, 2, 3]


def test_pendant_peels_to_the_cycle():
    # C_5 on 0..4 plus a pendant vertex 5 hanging off vertex 0
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)])
    res = k_core(g, 2)
    assert res.peel_order == (5,)
    assert res.vertex_map.tolist() == [0, 1, 2, 3, 4]
    assert res.core == Graph(5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)])
    assert np.bincount(res.core.degrees).tolist() == [0, 0, 5]


def test_path_peels_in_rounds_from_both_ends():
    path = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert k_core(path, 2).peel_order == (0, 4, 1, 3, 2)


def test_long_chain_off_a_clique_peels_one_vertex_per_round():
    # K_6 on 0..5 with the path 5-6-...-45 hanging off vertex 5
    clique = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    g = Graph(46, clique + [(v, v + 1) for v in range(5, 45)])
    res = k_core(g, 2)
    assert res.peel_order == tuple(range(45, 5, -1))
    assert res.core == Graph(6, clique)
    assert res.vertex_map.tolist() == list(range(6))
    assert res.peel_order == naive_rounds(g, 2)


def test_rounds_match_oracles_below_near_and_above_threshold():
    for k in range(1, 7):
        c_k = 1.0 if k < 3 else c_k_threshold(k)[0]
        for j, c in enumerate((max(c_k - 1.0, 0.5), c_k, c_k + 1.0)):
            g = gen_gnp(300, c, spawn_seed(606, "rounds", k, j))
            res = k_core(g, k)
            expect = reference_core_set(g, k, seed=j)
            assert frozenset(np.flatnonzero(res.membership).tolist()) == expect
            assert res.vertex_map.tolist() == sorted(expect)
            keep = np.zeros(g.n, dtype=bool)
            keep[sorted(expect)] = True
            assert res.core == g.induced_subgraph(keep)[0]
            assert res.peel_order == naive_rounds(g, k)


def test_rejects_nonpositive_k():
    with pytest.raises(DomainError):
        k_core(HOUSE, 0)


def test_audit_lw0_rejects_a_non_core_result():
    # both once raised a bare AttributeError on result.core
    for bad in (None, "x"):
        with pytest.raises(DomainError, match="CoreResult"):
            audit_lw0(bad, 2)


def test_k_must_be_an_integer():
    # 2.5 used to peel the 3-core; audit_lw0 once reported on it, and
    # divided by zero at k = 0
    for k in (2.5, float("nan"), "2", None):
        with pytest.raises(DomainError):
            k_core(HOUSE, k)
        with pytest.raises(DomainError):
            audit_lw0(k_core(HOUSE, 2), k)
    with pytest.raises(DomainError):
        audit_lw0(k_core(HOUSE, 2), 0)
    assert audit_lw0(k_core(HOUSE, 2), 2.0) == audit_lw0(k_core(HOUSE, 2), 2)
    res = k_core(HOUSE, 2.0)
    assert res.core == HOUSE and res.peel_order == ()


def test_rejects_multigraph():
    # peeling decrements one degree per distinct neighbor
    with pytest.raises(DomainError):
        k_core(Graph.from_pairs(3, [(0, 1), (0, 1), (1, 2)]), 1)
    # an edge list is not a Graph: once a bare AttributeError
    with pytest.raises(DomainError):
        k_core([(0, 1)], 1)


def test_core_is_maximal_fixed_point():
    for seed in range(5):
        g = gen_gnp(400, 6.0, spawn_seed(88, "fix", seed))
        res = k_core(g, 4)
        again = k_core(res.core, 4)
        assert again.core == res.core
        assert again.peel_order == ()
        # no peeled vertex could rejoin: each has < k neighbors in the core
        member = res.membership
        adj = g.adjacency()
        for v in np.flatnonzero(~member):
            inside = int(np.sum(member[adj[v]]))
            assert inside < 4


def test_peel_order_invariance_hundred_orders():
    k = 3
    g = gen_gnp(1000, 2.0 * k, 1234)
    expect = frozenset(res_v for res_v in np.flatnonzero(k_core(g, k).membership).tolist())
    for trial in range(100):
        assert reference_core_set(g, k, trial) == expect


def test_core_independent_of_edge_permutation():
    g = gen_gnp(300, 5.0, 77)
    rng = np.random.default_rng(0)
    edges = g.edge_tuples()
    rng.shuffle(edges)
    g2 = Graph(300, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
    assert g2 == g
    assert k_core(g2, 3).core == k_core(g, 3).core


def test_sidecar_round_trip():
    res = k_core(HOUSE, 2)
    assert res.ambient_n == 5
    assert res.membership.astype(int).tolist() == [1, 1, 1, 1, 1]
    assert np.bincount(res.core.degrees).tolist() == [0, 0, 3, 2]
    assert parse_edge_text(format_edge_text(res.core)) == res.core


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 60),
    c=st.floats(0.5, 8.0),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**62),
)
def test_core_minimum_degree_property(n, c, k, seed):
    res = k_core(gen_gnp(n, c, seed), k)
    if res.core.n:
        assert int(res.core.degrees.min()) >= k
    assert res.core.n + len(res.peel_order) == n


# ----------------------------------------------------------------- the audit

def test_audit_empty_core_flags_size():
    res = k_core(random_tree(40, 9), 2)
    rep = audit_lw0(res, 2)
    assert res.core.n == 0
    assert not rep.part("a").ok
    for label in "cdefgh":
        assert rep.part(label).measured == 0.0
    assert rep.part("c").ok and rep.part("g").ok  # vacuous upper bounds


def test_audit_house_graph_hand_counts():
    rep = audit_lw0(k_core(HOUSE, 2), 2)
    by = {p.label: p for p in rep.parts}
    assert by["a"].measured == 5 and by["a"].ok
    assert by["b"].measured == 3  # W0 = {1, 3, 4}
    assert by["c"].measured == 0
    assert by["d"].measured == 1  # edge (3,4)
    assert by["e"].measured == 4
    assert by["f"].measured == 1  # edge (0,2)
    assert by["g"].measured == 4  # all but vertex 1 touch W0
    assert by["h"].measured == 0
    parsed = json.loads(rep.to_json())
    assert [p["label"] for p in parsed] == list("abcdefgh")


def _cycle(length: int) -> list:
    return [(i, (i + 1) % length) for i in range(length)]


def _hub_with_triangles() -> list:
    # K4 on 0-3; 1, 2 and 3 each close a triangle through two degree-2
    # vertices, so vertex 0 is the one R vertex with no W0 neighbor
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for j, v in enumerate((1, 2, 3)):
        a, b = 4 + 2 * j, 5 + 2 * j
        pairs += [(v, a), (a, b), (b, v)]
    return pairs


# (name, n, core pairs, part on its bound, every part's ok), k = 2; each
# core is padded with isolated vertices up to n, and each bound is an
# exact float: 0.99 n = 99, 0.99 n/k = 99, 1.01 n/k = 101, n/(5k) = 10,
# n/2 = 50, kn/3 = 80 and n/200 = 1.  a and b are strict, the rest not.
LW0_BOUNDARY_CASES = [
    ("a", 100, _cycle(99), "a", "FFTTFFFF"),
    ("b-low", 200, _cycle(99), "b", "FFTTFFTF"),
    ("b-high", 200, _cycle(101), "b", "FFTTFFTF"),
    ("d", 100, _cycle(10), "d", "FFTTFFTF"),
    ("e", 100, [(r, 2 + i) for r in (0, 1) for i in range(25)], "e",
     "FFTFTFTF"),
    ("f", 120, [(i, (i + s) % 40) for i in range(40) for s in (1, 2)], "f",
     "FFTFFTTT"),
    ("h", 200, _hub_with_triangles(), "h", "FFTFFFTT"),
]
# sha256 over the seven reports' to_json, in the order above
LW0_BOUNDARY_DIGEST = (
    "9e4873e101a90e70c3e6135c076829ae1c11ff8586436119873fd8f725c3e860"
)


def test_audit_parts_on_their_bounds():
    h = hashlib.sha256()
    for name, n, pairs, label, oks in LW0_BOUNDARY_CASES:
        rep = audit_lw0(k_core(Graph.from_pairs(n, pairs), 2), 2)
        part = rep.part(label)
        assert part.measured in (part.lower, part.upper), name
        assert "".join("FT"[p.ok] for p in rep.parts) == oks, name
        assert all(type(p.ok) is bool for p in rep.parts), name
        h.update(rep.to_json().encode())
    assert h.hexdigest() == LW0_BOUNDARY_DIGEST


def test_audit_tracks_core_law_at_moderate_scale():
    # one sampled instance against the limit laws; the acceptance harness
    # repeats this at n = 10^5 over five seeds with tighter tolerance
    k = 5
    c = c_k_threshold(k)[0] + 0.5
    n = 30000
    g = gen_gnp(n, c, spawn_seed(3141, "law", 0))
    res = k_core(g, k)
    law = core_law(c, k, i_max=k + 5)
    assert abs(res.core.n / n - law.zeta) < 0.015
    rep = audit_lw0(res, k)
    assert abs(rep.part("b").measured / n - law.lambda_of(k)) < 0.015

"""Factor-existence tests: deficiency counting, brute-force search over
vertex-set pairs, the matching gadget, constructed certificates, and the
expansion-property audits.

Hand-checkable graphs (bowtie, small cycles, complete graphs) pin exact
witnesses and certificates; randomized runs cross-check the constructive
route against the exhaustive one and against a direct edge-subset search.
"""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kflab import kfactor
from kflab.analytics import c_k_threshold
from kflab.errors import DomainError, InfeasibleError
from kflab.graphs import Graph
from kflab.harness import _strip_loops
from kflab.kcore import k_core
from kflab.kfactor import (
    BRUTE_FORCE_CAP,
    FactorCertificate,
    TutteWitness,
    _greedy_degree_saturation,
    _host_instances,
    _seed_mate,
    audit_properties,
    brute_force_tutte,
    find_k_factor,
    gadget_reduce,
    tutte_check,
    tutte_q,
    verify_k_factor,
)
from kflab.matching import maximum_matching
from kflab.randgraph import gen_gnp, sample_configuration, to_multigraph
from kflab.rng import make_rng

# two triangles sharing vertex 0: its only deg >= 2 obstruction is the cut
# vertex, which cannot serve both triangles in a 2-regular subgraph
BOWTIE = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
K4 = Graph(4, list(itertools.combinations(range(4), 2)))
K5 = Graph(5, list(itertools.combinations(range(5), 2)))
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
P3 = Graph(3, [(0, 1), (1, 2)])


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def regular_subgraph_exists(g: Graph, k: int) -> bool:
    """Direct backtracking over edge subsets: keep or drop each edge,
    pruning on over/under-full vertices.  Independent of all library
    counting, usable up to a few dozen edges."""
    edges = list(g.edge_tuples())
    need = [k] * g.n
    # remcap[i] = how much degree vertex v can still gain from edges >= i
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


# ------------------------------------------------------------ tutte_q


def test_q_hand_values():
    assert tutte_q(BOWTIE, 2, {0}, {1}) == 1
    # P3 minus nothing: the lone component {1} has k|Q| = 1 vs e = 2
    assert tutte_q(P3, 1, set(), {0, 2}) == 1
    assert tutte_q(P3, 2, set(), {0, 2}) == 0
    # whole graph as one component: 5k odd iff k odd
    assert tutte_q(C5, 1, set(), set()) == 1
    assert tutte_q(C5, 2, set(), set()) == 0


def test_q_domain_errors():
    with pytest.raises(DomainError):
        tutte_q(C4, 2, {0}, {0})
    with pytest.raises(DomainError):
        tutte_q(C4, 2, {9}, set())
    with pytest.raises(DomainError):
        tutte_q(C4, 0, set(), set())


# --------------------------------------------------------- tutte_check


def test_check_bowtie_witness():
    w = tutte_check(BOWTIE, 2, {0}, {1, 2, 3, 4})
    assert w == TutteWitness(S=(0,), T=(1, 2, 3, 4), q=0, e_st=4,
                             lhs=2, rhs=4, violated=True)
    assert json.loads(w.to_json()) == {
        "S": [0], "T": [1, 2, 3, 4], "q": 0, "e_st": 4,
        "lhs": 2, "rhs": 4, "violated": True,
    }


def test_check_counts_t_surplus_in_lhs():
    w = tutte_check(K5, 2, {0}, {1, 2, 3, 4})
    # every T vertex has degree 4 = k + 2: surplus 2 each, plus k|S| = 2
    assert w.lhs == 10 and not w.violated
    assert (w.q, w.e_st) == (0, 4)


def test_check_requires_min_degree():
    with pytest.raises(DomainError):
        tutte_check(P3, 2, set(), set())


def test_check_rejects_multigraph():
    mg = Graph.from_pairs(2, [(0, 1), (0, 1)])
    with pytest.raises(DomainError):
        tutte_check(mg, 2, set(), set())


# ---------------------------------------------------- brute_force_tutte


# sha256 of tutte_check(...).to_json() for seeded (S, T) pairs, sizes
# (|S|, |T|), of the 4-core of G(600, (c_4 + 0.2)/n), seed 3.
GOLDEN_TUTTE = [
    (0, 0, "d28f0edc95c71f3648501757197c599f3c34b4d0f3fbd683888ec0bb6910b24a"),
    (0, 40, "7c771c012deafe205e685525acd4ba258ed4f6a365cc77630af6b5c6201fe6f6"),
    (30, 0, "39f39c2c84727066f9450b089b7992b6d33f6334366037c36346e4a699f53c66"),
    (20, 60, "b963f51d846cbad02ab0b089ee6c4d12cdfebfef070ee5dfa9e77c1705c845c8"),
    (100, 200, "b6aa39058ad6b827a8b94c2f881e88b6db203a2cdfb5ecda77600384275ef49a"),
]


def test_check_golden_witnesses():
    core = k_core(gen_gnp(600, c_k_threshold(4)[0] + 0.2, seed=3), 4).core
    rng = make_rng(5)
    for ns, nt, digest in GOLDEN_TUTTE:
        perm = rng.permutation(core.n)
        w = tutte_check(core, 4, perm[:ns], perm[ns:ns + nt])
        assert hashlib.sha256(w.to_json().encode()).hexdigest() == digest, (ns, nt)


def test_brute_hand_verdicts():
    assert brute_force_tutte(K4, 3) is None
    assert brute_force_tutte(K4, 2) is None
    assert brute_force_tutte(C5, 2) is None
    w = brute_force_tutte(BOWTIE, 2)
    assert w == TutteWitness(S=(0,), T=(1, 2, 3, 4), q=0, e_st=4,
                             lhs=2, rhs=4, violated=True)


def test_brute_parity_obstruction():
    # 5 vertices, k odd: the empty pair already fails (one odd component)
    w = brute_force_tutte(C5, 1)
    assert w == TutteWitness(S=(), T=(), q=1, e_st=0, lhs=0, rhs=1,
                             violated=True)


def test_brute_guards():
    big = Graph(BRUTE_FORCE_CAP + 1,
                [(i, (i + 1) % (BRUTE_FORCE_CAP + 1))
                 for i in range(BRUTE_FORCE_CAP + 1)])
    with pytest.raises(DomainError):
        brute_force_tutte(big, 2)
    with pytest.raises(DomainError):
        brute_force_tutte(P3, 2)
    with pytest.raises(DomainError):
        brute_force_tutte(C4, 0)


def test_brute_restricted_verdicts_agree():
    rng = make_rng(99)
    eligible = 0
    for _ in range(120):
        n = int(rng.integers(5, 9))
        k = int(rng.integers(1, 4))
        g = random_graph(rng, n, 0.35 + 0.45 * rng.random())
        if g.n and int(g.degrees.min()) < k:
            continue
        full = brute_force_tutte(g, k)
        restricted = brute_force_tutte(g, k, restrict_m1m2=True)
        assert (full is None) == (restricted is None)
        eligible += 1
    assert eligible > 40


# ------------------------------------------------------------- gadget


def test_gadget_counts_k4():
    gad = gadget_reduce(K4, 2)
    # 4 vertices, degree 3, k = 2: 3 externals + 1 slack each
    assert gad.n_nodes == 16
    assert np.array_equal(gad.base, [0, 4, 8, 12])
    assert gad.pair_edges.shape == (6, 2)
    assert gad.edges.shape == (18, 2)  # 6 pair + 4 * (3 externals x 1 slack)
    assert np.array_equal(gad.host_degrees, [3, 3, 3, 3])
    for arr in (gad.base, gad.pair_edges, gad.edges, gad.host_degrees):
        assert arr.dtype == np.int64


def test_gadget_zero_slack_cycle():
    gad = gadget_reduce(C4, 2)
    assert gad.n_nodes == 8
    assert np.array_equal(gad.base, [0, 2, 4, 6])
    # degree == k leaves no slack nodes: gadget is exactly the pair edges
    assert np.array_equal(gad.edges, gad.pair_edges)
    assert gad.edges.shape == (4, 2)


def test_gadget_errors():
    with pytest.raises(InfeasibleError):
        gadget_reduce(Graph(3, [(0, 1), (1, 2), (2, 0)]), 3)
    with pytest.raises(DomainError):
        gadget_reduce(Graph.from_pairs(1, [(0, 0)]), 1)
    with pytest.raises(DomainError):
        gadget_reduce(C4, 0)


def reference_gadget(g, k):
    """The gadget built one edge end at a time: (n_nodes, base, degrees,
    pair_edges, edges), all plain lists."""
    rows = g.edge_array if g.mult is None else np.repeat(g.edge_array, g.mult, axis=0)
    deg = g.degrees.tolist()
    base = [0] * g.n
    off = 0
    for v in range(g.n):
        base[v] = off
        off += 2 * deg[v] - k  # d(v) externals + d(v) - k slacks
    pair_edges = []
    cursor = [0] * g.n
    for u, v in rows.tolist():
        pair_edges.append([base[u] + cursor[u], base[v] + cursor[v]])
        cursor[u] += 1
        cursor[v] += 1
    edges = list(pair_edges)
    for v in range(g.n):
        d = deg[v]
        for ei in range(d):
            for si in range(d - k):
                edges.append([base[v] + ei, base[v] + d + si])
    return off, base, deg, pair_edges, edges


def reference_seed_mate(n_nodes, base, deg, k, pair_edges, chosen):
    """Chosen pairs matched, then each vertex's first d(v) - k free
    externals matched to its slacks in order, one node at a time."""
    mate = [-1] * n_nodes
    for j, (eu, ev) in enumerate(pair_edges):
        if chosen[j]:
            mate[eu] = ev
            mate[ev] = eu
    for v in range(len(base)):
        b, d = base[v], deg[v]
        free_exts = [b + i for i in range(d) if mate[b + i] == -1]
        for offset, ext in enumerate(free_exts[: d - k]):
            mate[ext] = b + d + offset
            mate[b + d + offset] = ext
    return mate


def gadget_hosts():
    """(k, host) pairs: seeded k-cores and multigraphs with parallel edges."""
    for s in range(6):
        yield 4, k_core(gen_gnp(600, c_k_threshold(4)[0] + 0.2, s), 4).core
    for s in range(4):
        yield 5, k_core(gen_gnp(300, c_k_threshold(5)[0] + 1.5, s), 5).core
    rng = make_rng(12)
    for i in range(8):
        k = 2 + i % 3
        n = int(rng.integers(3, 40))
        # k // 2 + 1 random Hamilton cycles give every vertex degree > k
        cycles = [rng.permutation(n) for _ in range(k // 2 + 1)]
        pairs = np.concatenate([np.column_stack([c, np.roll(c, 1)]) for c in cycles])
        g = Graph.from_pairs(n, np.concatenate([pairs, pairs[: 1 + i]]))
        assert g.mult is not None and g.loops is None
        yield k, g


def test_gadget_matches_reference_construction():
    for k, g in gadget_hosts():
        n_nodes, base, deg, pair_edges, edges = reference_gadget(g, k)
        gad = gadget_reduce(g, k)
        assert (gad.n_host, gad.k, gad.n_nodes) == (g.n, k, n_nodes)
        assert gad.base.tolist() == base
        assert gad.host_degrees.tolist() == deg
        assert gad.pair_edges.tolist() == pair_edges
        assert sorted(gad.edges.tolist()) == sorted(edges)
        rng = make_rng(g.n)
        m = len(pair_edges)
        greedy = _greedy_degree_saturation(g.n, _host_instances(g), k)
        for chosen in (greedy, [False] * m, (rng.random(m) < 0.2).tolist()):
            want = reference_seed_mate(n_nodes, base, deg, k, pair_edges, chosen)
            assert _seed_mate(gad, chosen).tolist() == want


def test_gadget_graph_is_the_canonical_gadget():
    # the CSR written by construction equals the one Graph.from_pairs sorts
    # out of the reference construction's edges: seeded cores, multigraphs
    # with parallel edges, cores with every degree equal to k (no slack
    # nodes) and n = 0
    hosts = [*gadget_hosts(), (4, K5), (2, C5), (3, K4), (2, Graph(0, []))]
    for k, g in hosts:
        gad = gadget_reduce(g, k)
        ref_edges = reference_gadget(g, k)[4]
        want = Graph.from_pairs(gad.n_nodes, ref_edges)
        assert gad.graph == want
        got_xadj, got_adjv, got_mult = gad.graph.csr()
        want_xadj, want_adjv, want_mult = want.csr()
        assert got_xadj.tolist() == want_xadj.tolist()
        assert got_adjv.tolist() == want_adjv.tolist()
        assert got_mult is None and want_mult is None
        assert gad.graph.n == gad.n_nodes and gad.graph.m == len(ref_edges)


# sha256 of the int64 bytes of the seed mate find_k_factor hands to
# maximum_matching followed by the mate it gets back, on 4-cores of
# G(600, (c_4 + 0.2)/n) by gen_gnp seed; recorded before the gadget route
# moved to arrays, so both mates are pinned to the loop-based build.
GOLDEN_MATES = [
    (3, False, "638f49fa884640cfecf2fb2c17761ead9214d1ba770bfb41464872152d1a0cc5"),
    (5, False, "f70cb4fd017a2352c70578e3f74f6b80945357cf770b586d2c98feb1414b4a33"),
    (8, True, "fededb3c9e71b60bd31fc8b9d52aacf04f9ea27cd7ce16b826f0bc13496fdcb3"),
    (13, False, "ec87b4cf729c830f5bef0bded7844ed9a4d99446960d59ee4f981e3d578083b5"),
    (21, False, "b467bdca1d59ae6d4d975c32abd20c855df6d6910927d0205cd2514868d4327a"),
    (34, False, "a3d81a856b6c70bd6801d57a882ffe1c59b62249bee2048cd9c8fe95491e2534"),
    (55, False, "6bf0b839b291743b0c2e353c1b8dc386aaaf9aa9f40685da1c44f6fee768b619"),
    (236, True, "d56638bfd587c0d7ab64c8e2c8d9fe6ad6f9f1a72c2d088e5881a0fdf3a066b0"),
]


def test_factor_golden_mates(monkeypatch):
    calls = []

    def spy(n, edges, seed_mate=None):
        mate = maximum_matching(n, edges, seed_mate=seed_mate)
        calls.append(np.asarray(seed_mate, dtype=np.int64).tobytes()
                     + np.asarray(mate, dtype=np.int64).tobytes())
        return mate

    monkeypatch.setattr(kfactor, "maximum_matching", spy)
    for seed, found, digest in GOLDEN_MATES:
        core = k_core(gen_gnp(600, c_k_threshold(4)[0] + 0.2, seed), 4).core
        calls.clear()
        assert (find_k_factor(core, 4) is not None) == found, seed
        assert len(calls) == 1
        assert hashlib.sha256(calls[0]).hexdigest() == digest, seed


# The same digest on more hosts, recorded before the engine read the
# gadget's CSR directly.  "config": configuration multigraphs with parallel
# edges, pairing the degrees of the 4-core of G(300, (c_4 + 0.2)/n) by
# sample_configuration with the same seed, loops stripped as a scan strips
# them.  "gnp": 4-cores as in GOLDEN_MATES whose search reaches an outer
# node through the first node labelled inner, so a p-validity test that
# drops the search's first label changes their mates.
GOLDEN_MORE_MATES = [
    ("config", 1, False, "7b0780150d85fd2273bdfd09910f46c600ba5633a5bf383b8496de9b21732e89"),
    ("config", 4, False, "3eb460dae01d5744f15e11b332c6e42cf206242358537e62c9c26131a7f9bedb"),
    ("config", 7, False, "c85f31b0ba4321580d8192935a8cb53c1f48ff39865dfdae503c5e17583b3fd8"),
    ("config", 8, True, "cf2ac2e491629de632d1ce79f82b456026ebac4c4693187f5700d3dabc0476a0"),
    ("config", 11, True, "211f6cfa13229f2e7d9c157f366fc2d43f1089e23752b4a82cef97234cd4485c"),
    ("config", 12, False, "7926b45b6fc54adc108a720ee420c92848a6199d75aa6a5fff66b032d08625f9"),
    ("config", 13, True, "4e78c0e52b2d76669b652a4e3d986d421990bb13428223c140ccc3edb9af1925"),
    ("config", 14, False, "dceca32ea8b4e1cb2dd81823bf40b64d02aa4b25166dccc9a9127d3d1df74df5"),
    ("gnp", 29, False, "4e2ce2401aa25dcb6a339eb52bccfd8f9eaaa8d95d9b89685f09a96c2f955806"),
    ("gnp", 60, False, "2bfa2198e46364982d8869a84414b9b01ea1e63feee1c40c2b0264ac5d24160a"),
]


def test_factor_golden_more_mates(monkeypatch):
    calls = []

    def spy(n, edges, seed_mate=None):
        mate = maximum_matching(n, edges, seed_mate=seed_mate)
        calls.append(np.asarray(seed_mate, dtype=np.int64).tobytes()
                     + np.asarray(mate, dtype=np.int64).tobytes())
        return mate

    monkeypatch.setattr(kfactor, "maximum_matching", spy)
    for kind, seed, found, digest in GOLDEN_MORE_MATES:
        if kind == "config":
            degrees = k_core(gen_gnp(300, c_k_threshold(4)[0] + 0.2, seed), 4).core.degrees
            host = _strip_loops(to_multigraph(sample_configuration(degrees, seed)))
            assert host.mult is not None and np.any(host.mult > 1), seed
        else:
            host = k_core(gen_gnp(600, c_k_threshold(4)[0] + 0.2, seed), 4).core
        calls.clear()
        assert (find_k_factor(host, 4) is not None) == found, (kind, seed)
        assert len(calls) == 1
        assert hashlib.sha256(calls[0]).hexdigest() == digest, (kind, seed)


def count_perfect_matchings(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    used = [False] * n

    def rec():
        try:
            u = used.index(False)
        except ValueError:
            return 1
        used[u] = True
        total = 0
        for w in adj[u]:
            if not used[w]:
                used[w] = True
                total += rec()
                used[w] = False
        used[u] = False
        return total

    return rec()


def test_gadget_matchings_biject_with_factors():
    # K4 has exactly three 2-factors (its three hamilton cycles); with one
    # slack per vertex the slack assignment is forced, so the gadget has
    # exactly three perfect matchings
    gad = gadget_reduce(K4, 2)
    assert count_perfect_matchings(gad.n_nodes, gad.edges) == 3


# ------------------------------------------------------- find_k_factor


def test_factor_cycle_is_its_own():
    cert = find_k_factor(C4, 2)
    assert cert == FactorCertificate(
        k=2, edges=((0, 1), (0, 3), (1, 2), (2, 3)), degrees=(2, 2, 2, 2))
    assert json.loads(cert.to_json()) == {
        "k": 2,
        "edges": [[0, 1], [0, 3], [1, 2], [2, 3]],
        "degrees": [2, 2, 2, 2],
    }


def test_factor_forced_four_cycle():
    # K4 minus (0,1): using (2,3) would starve vertex 1, so the unique
    # 2-factor is the 4-cycle through the missing edge's endpoints
    k4e = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    cert = find_k_factor(k4e, 2)
    assert cert.edges == ((0, 2), (0, 3), (1, 2), (1, 3))


def test_factor_immediate_nones():
    assert find_k_factor(K5, 3) is None  # k * n odd
    assert find_k_factor(BOWTIE, 2) is None  # cut vertex obstruction
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert find_k_factor(star, 2) is None  # leaves have degree < k


def test_factor_empty_graph():
    cert = find_k_factor(Graph(0, []), 2)
    assert cert == FactorCertificate(k=2, edges=(), degrees=())


def test_factor_k4_both_ks():
    c3 = find_k_factor(K4, 3)
    assert c3.edges == tuple(sorted(itertools.combinations(range(4), 2)))
    c2 = find_k_factor(K4, 2)
    assert verify_k_factor(K4, c2.edges, 2)
    assert len(c2.edges) == 4


def test_factor_multigraph_parallel_edges():
    mg = Graph.from_pairs(2, [(0, 1), (0, 1)])
    cert = find_k_factor(mg, 2)
    assert cert.edges == ((0, 1), (0, 1))
    assert cert.degrees == (2, 2)
    assert verify_k_factor(mg, cert.edges, 2)


def test_factor_rejects_loops():
    with pytest.raises(DomainError):
        find_k_factor(Graph.from_pairs(1, [(0, 0)]), 2)


def test_factor_k_guard():
    with pytest.raises(DomainError):
        find_k_factor(C4, 0)


# Seeded k-cores of G(n, (c_k + offset)/n) whose greedy seed leaves exposed
# gadget nodes, so each certificate depends on the blossom engine's search
# order; seeds 236, 253 (k=4) and 30 (k=5) change if a contracted
# blossom's inner vertices are queued out of discovery order.  Pinned as
# the sha256 of to_json().
GOLDEN_CERTIFICATES = [
    # (k, n, offset, gen_gnp seed, sha256)
    (4, 600, 0.2, 8, "67a716aab89338f3a1b21a32873b92d06aea93b476586698b3f0829c804d5136"),
    (4, 600, 0.2, 32, "031aebb566847486cfafba15036d647d919896cba5f0d8a5309882c089d91051"),
    (4, 600, 0.2, 236, "82ca69f4276e4d37dc86cde13c463c4e987ac1b93b12e2393a4282d19dc3e158"),
    (4, 600, 0.2, 253, "4656aa86273e826efe388a39f0186544307748d608cc94d13ae62b81975b55f6"),
    (5, 300, 1.5, 3, "0288e2fe4ea8007dcedcfdef639f5e291cd632ecc48db2389ed991565799862d"),
    (5, 300, 1.5, 11, "b7471ce6e1d3161eff4ab948466cc74b01bd928d94fd48592ca38d82428659e0"),
    (5, 300, 1.5, 22, "de213a205c314e7ff4d01d80c69c19940eb175c6ba5dc6b2f038af4480e8309f"),
    (5, 300, 1.5, 30, "3d8992c8fb000ba56f9b7221120bd48eeb1c53536bbe0aa6ac39c9183c1470f3"),
]


def test_factor_golden_certificates():
    for k, n, offset, seed, digest in GOLDEN_CERTIFICATES:
        core = k_core(gen_gnp(n, c_k_threshold(k)[0] + offset, seed), k).core
        cert = find_k_factor(core, k)
        assert cert is not None, (k, seed)
        assert hashlib.sha256(cert.to_json().encode()).hexdigest() == digest, (k, seed)


# ----------------------------------------------------- verify_k_factor


def test_verify_accepts_and_rejects():
    assert verify_k_factor(C4, [(0, 1), (1, 2), (2, 3), (3, 0)], 2)
    assert verify_k_factor(C4, [(1, 0), (2, 1), (3, 2), (0, 3)], 2)
    # triangle on K4 leaves vertex 3 at degree 0
    assert not verify_k_factor(K4, [(0, 1), (1, 2), (0, 2)], 2)
    # edge absent from the host
    assert not verify_k_factor(C4, [(0, 2), (1, 3), (0, 1), (2, 3)], 2)
    # one host edge used twice
    assert not verify_k_factor(C4, [(0, 1), (0, 1), (2, 3), (2, 3)], 2)
    # self-loops never belong to a factor
    assert not verify_k_factor(C4, [(0, 0), (1, 2), (2, 3), (3, 0)], 2)
    # wrong k
    assert not verify_k_factor(C4, [(0, 1), (1, 2), (2, 3), (3, 0)], 1)
    assert verify_k_factor(Graph(0, []), [], 3)
    # F as an (m, 2) int64 array
    cycle = np.array([(0, 1), (1, 2), (2, 3), (3, 0)], dtype=np.int64)
    assert verify_k_factor(C4, cycle, 2)
    assert verify_k_factor(C4, cycle[:, ::-1], 2)
    assert not verify_k_factor(C4, cycle[:3], 2)
    assert verify_k_factor(C4, np.empty((0, 2), dtype=np.int64), 0)
    # endpoints out of range and malformed rows are rejected, not raised
    assert not verify_k_factor(C4, [(0, 1), (1, 2), (2, 3), (3, 4)], 2)
    assert not verify_k_factor(C4, [(-1, 0), (1, 2), (2, 3), (3, 0)], 2)
    assert not verify_k_factor(C4, [(0, 1, 2)], 2)
    # a host that is not a Graph
    assert not verify_k_factor([(0, 1), (1, 2), (2, 3), (3, 0)], cycle, 2)
    assert not verify_k_factor(None, [], 2)
    # no vertices but a non-empty F
    assert not verify_k_factor(Graph(0, []), [(0, 1)], 3)


def test_verify_multigraph_multiplicity():
    mg = Graph.from_pairs(2, [(0, 1), (0, 1)])
    assert verify_k_factor(mg, [(0, 1), (0, 1)], 2)
    assert not verify_k_factor(mg, [(0, 1), (0, 1), (0, 1)], 3)
    # loops in the host are ignorable, not disqualifying
    loopy = Graph.from_pairs(2, [(0, 1), (0, 0)])
    assert verify_k_factor(loopy, [(0, 1)], 1)
    assert not verify_k_factor(loopy, [(0, 0)], 1)
    # F as an (m, 2) int64 array, the parallel pair in either orientation
    assert verify_k_factor(mg, np.array([[0, 1], [1, 0]], dtype=np.int64), 2)
    assert not verify_k_factor(mg, np.array([[0, 1]] * 3, dtype=np.int64), 3)
    # every degree right, but (2, 3) used twice where the host has it once
    two = Graph.from_pairs(4, [(0, 1), (0, 1), (2, 3)])
    assert not verify_k_factor(two, [(0, 1), (1, 0), (2, 3), (3, 2)], 2)
    assert verify_k_factor(two, [(0, 1), (2, 3)], 1)
    # out of range, a non-Graph host and n = 0 with a non-empty F
    assert not verify_k_factor(mg, [(0, 1), (0, 2)], 2)
    assert not verify_k_factor([(0, 1), (0, 1)], [(0, 1), (0, 1)], 2)
    assert not verify_k_factor(Graph.from_pairs(0, []), [(0, 0)], 2)


# ---------------------------------------------------- route agreement


def test_constructive_matches_brute_existence():
    rng = make_rng(4242)
    eligible = 0
    for _ in range(200):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(1, 5))
        g = random_graph(rng, n, 0.3 + 0.6 * rng.random())
        if g.n == 0 or int(g.degrees.min()) < k:
            continue
        witness = brute_force_tutte(g, k)
        cert = find_k_factor(g, k)
        assert (witness is None) == (cert is not None), (n, k)
        eligible += 1
    assert eligible > 60


def test_constructive_matches_edge_subset_search():
    rng = make_rng(777)
    for _ in range(60):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, 4))
        g = random_graph(rng, n, 0.4 + 0.4 * rng.random())
        cert = find_k_factor(g, k)
        assert (cert is not None) == regular_subgraph_exists(g, k), (n, k)


def test_certificates_always_verify():
    rng = make_rng(31337)
    found = 0
    for _ in range(150):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, 5))
        g = random_graph(rng, n, 0.2 + 0.6 * rng.random())
        cert = find_k_factor(g, k)
        if cert is None:
            continue
        found += 1
        assert verify_k_factor(g, cert.edges, k)
        assert cert.degrees == (k,) * n
        assert list(cert.edges) == sorted(cert.edges)
        host = set(g.edge_tuples())
        assert all(e in host for e in cert.edges)
    assert found > 30


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 12), st.integers(1, 3), st.data())
def test_factor_certificate_property(n, k, data):
    pairs = list(itertools.combinations(range(n), 2))
    picks = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                               max_size=len(pairs)))
    g = Graph(n, picks)
    cert = find_k_factor(g, k)
    if cert is not None:
        assert verify_k_factor(g, cert.edges, k)
        assert cert.degrees == (k,) * n
    elif g.n <= BRUTE_FORCE_CAP and g.n and int(g.degrees.min()) >= k:
        assert brute_force_tutte(g, k) is not None


# -------------------------------------------------------------- audits


def test_audit_empty_graph_vacuous():
    rep = audit_properties(Graph(0, []), 3)
    assert rep.all_clear and rep.exhaustive
    for r in rep.results:
        assert (r.mode, r.checked, r.violations) == ("vacuous", 0, 0)
        assert r.worst_margin is None


def test_audit_exact_complete_graph():
    K12 = Graph(12, list(itertools.combinations(range(12), 2)))
    rep = audit_properties(K12, 3, epsilon0=0.5, gamma=0.1)
    assert rep.exhaustive and not rep.all_clear
    p1 = rep.result("P1")
    # worst Y is everything: 3 * 12 / 6000 bound vs 66 internal edges
    assert (p1.mode, p1.checked, p1.violations) == ("exact", 4095, 4083)
    assert p1.worst_margin == pytest.approx(3 * 12 / 6000 - 66)
    assert p1.witness == (tuple(range(12)),)
    with pytest.raises(KeyError):
        rep.result("P9")


def test_audit_exact_cycle_degree_clause():
    # a 2-regular graph can never satisfy the degree-surplus clause: every
    # vertex sits exactly at k, so each (S, T) pair reports a violation
    C12 = Graph(12, [(i, (i + 1) % 12) for i in range(12)])
    rep = audit_properties(C12, 2, epsilon0=0.01, gamma=0.1)
    assert rep.exhaustive and not rep.all_clear
    for name, violations in (("P1", 0), ("P2", 0)):
        r = rep.result(name)
        assert r.mode == "exact" and r.violations == violations
    for name in ("P3", "P4", "P5"):
        assert rep.result(name).mode == "vacuous"
    p6 = rep.result("P6")
    # nonempty disjoint (S, T) pairs: 3^12 - 2 * 2^12 + 1
    assert p6.checked == 3 ** 12 - 2 ** 13 + 1 == 523250
    assert p6.violations == p6.checked
    # S nonempty caps |T| at 11; margin is the pure degree shortfall
    surplus = 0.875 * math.sqrt(2 * math.log(2))
    assert p6.worst_margin == pytest.approx(-surplus * 11)


def test_audit_sampled_deterministic():
    K40 = Graph(40, list(itertools.combinations(range(40), 2)))
    kw = dict(epsilon0=0.5, gamma=0.1, sample_budget=600)
    a = audit_properties(K40, 3, seed=5, **kw)
    b = audit_properties(K40, 3, seed=5, **kw)
    c = audit_properties(K40, 3, seed=6, **kw)
    assert a.to_json() == b.to_json()
    assert a.to_json() != c.to_json()
    assert not a.exhaustive
    assert all(r.mode == "sampled" for r in a.results)
    assert a.result("P1").violations > 0


def test_audit_guards():
    with pytest.raises(DomainError):
        audit_properties(C4, 0)
    with pytest.raises(DomainError):
        audit_properties(C4, 2, epsilon0=0.0)
    with pytest.raises(DomainError):
        audit_properties(C4, 2, gamma=1.5)
    with pytest.raises(DomainError):
        audit_properties(Graph.from_pairs(2, [(0, 1), (0, 1)]), 1)


def test_audit_rejects_sample_budget_below_one():
    # checked on every graph, not only where the sampled audit runs
    for g in (C4, Graph(40, list(itertools.combinations(range(40), 2)))):
        for budget in (0, -5):
            with pytest.raises(DomainError, match="sample_budget"):
                audit_properties(g, 2, sample_budget=budget)


def test_audit_report_json_shape():
    rep = audit_properties(C4, 2, epsilon0=0.5, gamma=0.1)
    d = json.loads(rep.to_json())
    assert sorted(d.keys()) == [
        "all_clear", "epsilon0", "exhaustive", "gamma", "results"]
    assert len(d["results"]) == 6
    assert [r["name"] for r in d["results"]] == [
        "P1", "P2", "P3", "P4", "P5", "P6"]
    for r in d["results"]:
        assert sorted(r.keys()) == [
            "checked", "mode", "name", "violations", "witness",
            "worst_margin"]


# sha256 of the concatenated audit_properties(...).to_json() over seeded
# random graphs, one digest per n, for k in (1, 2, 3, 5) and each
# (epsilon0, gamma) in AUDIT_PARAMS: n <= 12 takes the exact path, the rest
# the sampled one.  Recorded before P1-P6 moved into one table.
AUDIT_PARAMS = [(0.01, 0.1), (0.1, 0.5), (0.3, 0.05), (0.5, 0.1), (1.0, 1.0)]
GOLDEN_AUDIT_CORPUS = {
    0: "083839b3fb2b3203fd9532c12456ff4ec7fa4ebc3a2530aacc67104d4df09365",
    1: "0ad15c0cb21177e003b1fe5ded235f28ce5edbc8a358954a7924fd435816a1bf",
    2: "0f40f7097bc6a8a8812c8e96bf16b03f2bfdf9b4cfd2f3d9e1edf6faaead4c88",
    3: "877b31ec24a0101b4d3395d475d50969cfc2f8c5d7c8e1238dc346fccdac8a27",
    4: "f9820b582372f428fcb2c438208fe43d916959780b7cb71535583e9a243e55c6",
    5: "ac9fed16d5726b7741cb88543b9de0aacf8dcd186b79426dbe261daa7f601813",
    6: "920137f644b2638960e4bd4c24cf954bd65cc03a58e4a5f39f98d27961d8d14f",
    7: "58297e94f81e9de3fdcdd76546f06d53b3c3752385cc127230299cf280eadafb",
    8: "ce7981e40c267af4b7a0d0638e79e44c1b5d1063e6f33bb30fd99c45b897b0a6",
    9: "ef1188dbb8dba98043b06289768d8412a1d5972e1fdd1f7b382b5e075c28791d",
    10: "78645dbacf99d7b58a0a0934ce5894688975398ee76a7ad438244c747188691d",
    11: "8395d3f528b81420c42d1696c1faed0eac206834bb502ba0a40817cda7de33ca",
    12: "5252647bc4b5b2c42db528b7b397f6a1fde0dcc5265abf59aef1116ab543bf10",
    13: "e80124250508061511a83aff1e4b5107c0278ed55a6d971116c480ef7d101136",
    20: "59108e60b6c68cb76716a91e25795c7a53f7dc15bcfe695e07c97b0a2a71a292",
    40: "171d00f727bb7ef49cd26e61231d02eaeb824652b606b7f9ca5f811b4377ac82",
    90: "6594eeb68d011adecb7c166b07b72759a81b7d00b306492ad904a1bcc89c95b1",
}


def audit_corpus(n):
    """(graph, k, epsilon0, gamma, seed) for each corpus audit at size n."""
    for k in (1, 2, 3, 5):
        for i, (eps0, gamma) in enumerate(AUDIT_PARAMS):
            rng = np.random.default_rng([n, k, i])
            yield random_graph(rng, n, rng.uniform(0.1, 0.9)), k, eps0, gamma, i


def test_audit_golden_corpus():
    for n, digest in GOLDEN_AUDIT_CORPUS.items():
        h = hashlib.sha256()
        for g, k, eps0, gamma, seed in audit_corpus(n):
            rep = audit_properties(g, k, epsilon0=eps0, gamma=gamma, seed=seed)
            assert rep.exhaustive == (n <= kfactor.EXACT_AUDIT_CAP)
            h.update(rep.to_json().encode())
        assert h.hexdigest() == digest, n


def test_audit_sampled_never_beats_exact():
    # on P1-P5 the sampled audit draws only pairs the exact one enumerates,
    # so its worst margin cannot undercut the exhaustive minimum.  P6 is
    # left out: only the sampled audit admits an empty S there
    for n in (5, 9, 12):
        for g, k, eps0, gamma, seed in audit_corpus(n):
            exact = kfactor._audit_exact(g, k, eps0, gamma)
            sampled = kfactor._audit_sampled(g, k, eps0, gamma, 600, seed)
            for e, s in zip(exact[:5], sampled[:5]):
                assert e.name == s.name
                if s.mode == "vacuous":
                    continue
                assert e.mode == "exact"
                assert s.worst_margin >= e.worst_margin, (n, k, eps0, e.name)
                assert s.violations == 0 or e.violations > 0

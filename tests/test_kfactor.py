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
from kflab.kcore import k_core
from kflab.kfactor import (
    BRUTE_FORCE_CAP,
    FactorCertificate,
    TutteWitness,
    _greedy_degree_saturation,
    _host_degrees,
    _host_instances,
    _seed_mate,
    audit_properties,
    brute_force_tutte,
    find_k_factor,
    gadget_reduce,
    tutte_check,
    verify_k_factor,
)
from kflab.matching import maximum_matching
from kflab.randgraph import gen_gnp, sample_configuration, to_multigraph
from kflab.rng import make_rng
from oracles import regular_subgraph_exists

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


# ---------------------------------------------------------- tutte_check q


def test_q_hand_values():
    assert tutte_check(BOWTIE, 2, {0}, {1}).q == 1
    # P3 minus nothing: the lone component {1} has k|Q| = 1 vs e = 2
    assert tutte_check(P3, 1, set(), {0, 2}).q == 1
    assert tutte_check(P3, 2, set(), {0, 2}).q == 0
    # whole graph as one component: 5k odd iff k odd
    assert tutte_check(C5, 1, set(), set()).q == 1
    assert tutte_check(C5, 2, set(), set()).q == 0


def test_q_domain_errors():
    with pytest.raises(DomainError):
        tutte_check(C4, 2, {0}, {0}).q
    with pytest.raises(DomainError):
        tutte_check(C4, 2, {9}, set()).q
    with pytest.raises(DomainError):
        tutte_check(C4, 0, set(), set()).q
    # vertex ids are integers: 0.5 once evaluated S = {0}, a string raised
    # a bare ValueError, and a mask was read as ids, this one, meaning
    # {1, 2}, as {0, 1}
    for bad in ([0.5], [math.nan], ["a"], "0", [[0, 1]], 3,
                np.array([False, True, True, False]), [True]):
        with pytest.raises(DomainError):
            tutte_check(C4, 2, bad, set())
        with pytest.raises(DomainError):
            tutte_check(C4, 2, set(), bad)
    want = tutte_check(C4, 2, {0}, {1, 3})
    assert tutte_check(C4, 2, [np.int64(0)], np.array([3.0, 1.0])) == want
    assert tutte_check(C4, 2, (0.0,), frozenset({1, 3})) == want


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


def test_check_low_degree_vertex_is_a_witness():
    # P3's end 0 has degree 1 < k = 2: lhs = d(0) - k = -1; the rest {1, 2}
    # has k|Q| = 4 and e(Q, T) = 1, so q = rhs = 1
    w = tutte_check(P3, 2, (), (0,))
    assert (w.lhs, w.q, w.rhs, w.violated) == (-1, 1, 1, True)
    # every vertex of degree < k gives the violated pair ({}, {v})
    rng = make_rng(11)
    low_seen = 0
    for trial in range(40):
        n = int(rng.integers(3, 14))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.6)))
        for k in (1, 2, 3, 4):
            for v in np.flatnonzero(g.degrees < k).tolist():
                w = tutte_check(g, k, (), (v,))
                assert w.lhs == int(g.degrees[v]) - k, (trial, k, v)
                assert w.violated, (trial, k, v)
                low_seen += 1
    assert low_seen > 100


def test_check_multigraph_hand_pair():
    # the host counts both copies of 0-1 and of 1-2 and leaves 2's loop out:
    # d = (2, 4, 2), so lhs = 2 * 1 + 0 + 0 = 2 against e(S, T) = 4; read
    # simply, or with the loop's 2, the pair would hold
    g = Graph.from_pairs(3, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 2)])
    want = TutteWitness(S=(1,), T=(0, 2), q=0, e_st=4, lhs=2, rhs=4,
                        violated=True)
    assert tutte_check(g, 2, {1}, {0, 2}) == want
    assert brute_force_tutte(g, 2) == want
    assert brute_force_tutte(g, 2, restrict_m1m2=True) == want
    assert find_k_factor(g, 2) is None


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


def test_brute_at_cap_agrees_with_factor():
    # a 3-factor exists, so all 3^16 (S, T) pairs are scored
    rng = make_rng(16)
    g = random_graph(rng, BRUTE_FORCE_CAP, 0.3)
    while int(g.degrees.min()) < 3:
        g = random_graph(rng, BRUTE_FORCE_CAP, 0.3)
    cert = find_k_factor(g, 3)
    assert cert is not None and verify_k_factor(g, cert.edges, 3)
    assert brute_force_tutte(g, 3) is None


def brute_corpus():
    """The hand graphs, then up to three seeded G(n, p) per n = 0..12 and
    k = 1..4, each with minimum degree >= k."""
    for g in (BOWTIE, C5, K4, K5):
        for k in range(1, int(g.degrees.min()) + 1):
            yield g, k
    rng = make_rng(1952)
    for n in range(13):
        for k in range(1, 5):
            drawn = 0
            for _ in range(40):
                g = random_graph(rng, n, 0.3 + 0.65 * rng.random())
                if g.n and int(g.degrees.min()) < k:
                    continue
                yield g, k
                drawn += 1
                if drawn == 3:
                    break


# sha256 over brute_corpus's lines "n k full restricted", each verdict the
# witness's to_json() or "none"; 137 cases, 32 without a k-factor
BRUTE_DIGEST = "3512213c6b4ccc45e122936631d3b11446abe7a8ff947679d8bb749b7ca084c0"


def test_brute_witness_digest():
    lines = []
    for g, k in brute_corpus():
        found = [brute_force_tutte(g, k, restrict_m1m2=r) for r in (False, True)]
        lines.append(" ".join([str(g.n), str(k)]
                              + ["none" if w is None else w.to_json() for w in found]))
    assert len(lines) == 137
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BRUTE_DIGEST


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
# maximum_matching, then of the mate it gets back, on 4-cores of
# G(600, (c_4 + 0.2)/n) by gen_gnp seed.  The seed half is fixed by the
# gadget and the greedy seed alone; the returned half is one maximum
# matching, so it pins the engine's tie-breaking.
GOLDEN_MATES = [
    (3, False, "91d0b51da4e404b89378eca1db7d51ff63c48a89a9f1d0e4d24d226676cf5ab5",
     "1d99250357123bc277fb75a743a43f11d54cb6d5410ec8001e9f90e503b23cba"),
    (5, False, "64bbf4a54923af6fea8cfd9f5609bdcfccff59727cd63f55a663f28172fbc1d7",
     "64bbf4a54923af6fea8cfd9f5609bdcfccff59727cd63f55a663f28172fbc1d7"),
    (8, True, "59145e5c4afd6a2e1cc29e9d6323c5cf368ee6a1677f722607e23b159ec6ef12",
     "7efa7772ef11d165548edde0317cb95166a39bdc4385ad675e39a559931fc990"),
    (13, False, "f6d0b87f2d67a7d724272aa669cd56ad8803bb6b0f6f67ffe7dc88940f591647",
     "d64297f324c7e6cf38523b999b25317116d232f2d400d8257f60a0883c6f9397"),
    (21, False, "dc0a7cb7e3f35ca68bef3328e682c74599f2a7d425cc808c386fb4cf6da1261b",
     "4ebb03d045d2b381ad11597345925d94b766edb5ee7652d5a1cf357c6ec2c157"),
    (34, False, "48709e9084d08d8bcb9b86021663b963645951676a3579594e856c7288af0c0f",
     "48709e9084d08d8bcb9b86021663b963645951676a3579594e856c7288af0c0f"),
    (55, False, "31d6368555b7bacde3338266014aafeda8e26bf78933b26da929dc2159c9bf45",
     "748b8d20f75f106780ce32b5f31150bacf27c5756dfa4bf871d08c82940f4168"),
    (236, True, "8b9e35b19de98d30f28feeff428e8dd8afa32506c5cf028feabd1a445b3d2099",
     "20cac676c120443a7ad9f7dc3b59fc1c4bb8e51f13ff32b2974513fcf38397df"),
]


def spy_on_matching(monkeypatch):
    """Record (seed mate, returned mate) of every maximum_matching call
    find_k_factor makes, as int64 bytes."""
    calls = []

    def spy(n, edges, seed_mate=None):
        mate = maximum_matching(n, edges, seed_mate=seed_mate)
        calls.append((np.asarray(seed_mate, dtype=np.int64).tobytes(),
                      np.asarray(mate, dtype=np.int64).tobytes()))
        return mate

    monkeypatch.setattr(kfactor, "maximum_matching", spy)
    return calls


def check_golden_mates(calls, host, found, seed_digest, mate_digest, tag):
    calls.clear()
    cert = find_k_factor(host, 4)
    assert (cert is not None) == found, tag
    assert cert is None or verify_k_factor(host, cert.edges, 4), tag
    assert len(calls) == 1
    assert hashlib.sha256(calls[0][0]).hexdigest() == seed_digest, tag
    assert hashlib.sha256(calls[0][1]).hexdigest() == mate_digest, tag


def test_factor_golden_mates(monkeypatch):
    calls = spy_on_matching(monkeypatch)
    for seed, found, seed_digest, mate_digest in GOLDEN_MATES:
        core = k_core(gen_gnp(600, c_k_threshold(4)[0] + 0.2, seed), 4).core
        check_golden_mates(calls, core, found, seed_digest, mate_digest, seed)


# The same digests on more hosts.  "config": configuration multigraphs
# with parallel edges, pairing the degrees of the 4-core of
# G(300, (c_4 + 0.2)/n) by sample_configuration with the same seed, loops
# and all, as a scan hands them over.  "gnp": two more 4-cores as in
# GOLDEN_MATES.
GOLDEN_MORE_MATES = [
    ("config", 1, False, "5ad7dad0170603409e6be21127c189ca955533513ddc95550fc33706dc148d35",
     "e93cb26cfe40ca57b7b6b7fe449f7998df908d9b252de04aaf6d2d835d5ec210"),
    ("config", 4, False, "fb8a3d04a6125acfd075df752d29586712f9a0f1267ed9fde42f26c8f4bded2b",
     "0f9a40605aa55e743ef0008ca6c9b28c3538310bce5074e431caf288f9447dae"),
    ("config", 7, False, "307a5913f21491829c6d7c50b65d62e11cc4f0010e1f8110cbdbec708e80e322",
     "6b0df56bc83b238ae2fb422be153d54cb65854f680ef1af365f9bd93c0df7cfe"),
    ("config", 8, True, "e489599421898170900ea95341b9073f564b2cb8505079cd92cef019fe2205c9",
     "55c66e14d3cd8f1a4e00df84e5f3e3a2db95d4dd057367dfcb62582eeee3a17d"),
    ("config", 11, True, "5a8f20328267ac1ce19a9ba1f2a25982707ae492f7727c900d4dac4a426c3d6a",
     "6c6b2f6842805295406df8e8e3acc1a9b742939a46085267eb939696295bad2d"),
    ("config", 12, False, "292ba6ef979d62f3146eb0bd79933d2a761c86fc6311962f76132e97b559df82",
     "33b279738630ae8af3a3a1082e035bbecf2fef61770149f79d8bf6726200e86b"),
    ("config", 13, True, "8068c3f84a99261ce5ac4e87d78e14708910ae5abc69e983604e526356d1164d",
     "4fde2a2d41e051fecf30578da75acdd5b538bebba25b102e823451a9df80b26f"),
    ("config", 14, False, "215c401485c496b45cd1adaac9459a1fd117033be1c21859c4455632e6fcc180",
     "712364ec99ebb0b8983d6c34abd589b75995bcbc2a36ba76c7471cd4a12e8520"),
    ("gnp", 29, False, "bbc76cf18c9b6f4af5686f567652b66a06391079cc253fd1ac171faac2e6989c",
     "bf2dc42647ab9bd10b24a0a65ecf7d84308015923b2b76e4ff7db29c55c4c68d"),
    ("gnp", 60, False, "14901f02b90c99751c9939cb891bd564fe4b86c8eaa1749be399047123c60d44",
     "5af681c75746f722d007010da9459e39e4e711a74ac9486731f5f3f989746aa6"),
]


def test_factor_golden_more_mates(monkeypatch):
    calls = spy_on_matching(monkeypatch)
    for kind, seed, found, seed_digest, mate_digest in GOLDEN_MORE_MATES:
        if kind == "config":
            degrees = k_core(gen_gnp(300, c_k_threshold(4)[0] + 0.2, seed), 4).core.degrees
            host = to_multigraph(sample_configuration(degrees, seed))
            assert host.mult is not None and np.any(host.mult > 1), seed
        else:
            host = k_core(gen_gnp(600, c_k_threshold(4)[0] + 0.2, seed), 4).core
        check_golden_mates(calls, host, found, seed_digest, mate_digest, (kind, seed))


# sha256 over the chosen masks _greedy_degree_saturation returns, as bytes
# of one '0'/'1' per host edge instance and a ';' after each host: 4-cores
# of G(600, (c_4 + 0.2)/n) by gen_gnp seed (the factor_none workload's
# hosts), then configuration multigraphs pairing the degrees of 4-cores of
# G(300, (c_4 + 0.2)/n), loops and all, as a scan hands them over.
GREEDY_DIGEST = "ffbfbe4248945e13c970b21b72b857239db2c83d02e72e380cb2d83e50fbb823"


def greedy_hosts():
    c = c_k_threshold(4)[0] + 0.2
    for seed in range(40):
        yield k_core(gen_gnp(600, c, seed), 4).core
    for seed in range(20):
        degrees = k_core(gen_gnp(300, c, seed), 4).core.degrees
        yield to_multigraph(sample_configuration(degrees, seed))


def test_greedy_digest():
    h = hashlib.sha256()
    chosen_total = 0
    for host in greedy_hosts():
        chosen = _greedy_degree_saturation(host.n, _host_instances(host), 4)
        chosen_total += sum(chosen)
        h.update("".join("01"[c] for c in chosen).encode() + b";")
    assert chosen_total > 0
    assert h.hexdigest() == GREEDY_DIGEST


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


def test_factor_leaves_loops_out():
    # a host with loops has the certificate, or the None, and the gadget of
    # its loop-free part, built here as the reference
    hosts = [(2, Graph.from_pairs(1, [(0, 0)])),
             (2, Graph.from_pairs(3, [(0, 1), (1, 2), (2, 0), (1, 1)]))]
    for seed in range(8, 14):  # GOLDEN_MORE_MATES's "config" hosts, loops kept
        degrees = k_core(gen_gnp(300, c_k_threshold(4)[0] + 0.2, seed), 4).core.degrees
        hosts.append((4, to_multigraph(sample_configuration(degrees, seed))))
    loopy = 0
    for k, g in hosts:
        part = Graph(g.n, g.edge_array, _canonical=True, mult=g.mult)
        loopy += g.loops is not None
        assert find_k_factor(g, k) == find_k_factor(part, k), (k, g)
        try:
            want = gadget_reduce(part, k)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                gadget_reduce(g, k)
            continue
        got = gadget_reduce(g, k)
        assert (got.n_host, got.k, got.n_nodes) == (want.n_host, want.k, want.n_nodes)
        for name in ("pair_edges", "base", "host_degrees", "edges"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert loopy >= 5


def test_factor_k_guard():
    with pytest.raises(DomainError):
        find_k_factor(C4, 0)
    # a host that is not a Graph
    with pytest.raises(DomainError):
        find_k_factor("x", 2)


def test_k_must_be_an_integer():
    calls = (lambda k: tutte_check(K5, k, set(), set()).q,
             lambda k: tutte_check(K5, k, set(), set()),
             lambda k: brute_force_tutte(BOWTIE, k),
             lambda k: gadget_reduce(K5, k).k,
             lambda k: find_k_factor(K5, k),
             lambda k: audit_properties(K5, k))
    for call in calls:
        for k in (2.5, math.nan, "2", None, True):  # True once ran as k = 1
            with pytest.raises(DomainError):
                call(k)
        assert call(2.0) == call(2)


# Seeded k-cores of G(n, (c_k + offset)/n) whose greedy seed leaves exposed
# gadget nodes, so each certificate depends on the matching engine's
# tie-breaking.  Pinned as the sha256 of to_json().
GOLDEN_CERTIFICATES = [
    # (k, n, offset, gen_gnp seed, sha256)
    (4, 600, 0.2, 8, "cbd656f491f1c36ace14975053997e4532f1f174f9ebf2e24d1624123c82a8a2"),
    (4, 600, 0.2, 32, "1e9ce6ea46e7fa98787a5676c26e2a3a79d8420347fae908d26e189cbe28e56c"),
    (4, 600, 0.2, 236, "31a7b41d408cc987d5cfbfa1305db33c540fee62ee9149437bc9ebdf83a613cb"),
    (4, 600, 0.2, 253, "3bc58a95237fd0e40e79b4a4577955933b657b113e2e6cbac8b0c7cb6e92975e"),
    (5, 300, 1.5, 3, "8b23d94863edbd242504201e580008f0d9ebf019a80cbcdc6db9c8216772d5a8"),
    (5, 300, 1.5, 11, "b7471ce6e1d3161eff4ab948466cc74b01bd928d94fd48592ca38d82428659e0"),
    (5, 300, 1.5, 22, "de213a205c314e7ff4d01d80c69c19940eb175c6ba5dc6b2f038af4480e8309f"),
    (5, 300, 1.5, 30, "315de525279eba430cb8e6f17a0dcc7f6a8069096ad5165a34724f071cc092ca"),
]


def test_factor_golden_certificates():
    for k, n, offset, seed, digest in GOLDEN_CERTIFICATES:
        core = k_core(gen_gnp(n, c_k_threshold(k)[0] + offset, seed), k).core
        cert = find_k_factor(core, k)
        assert cert is not None, (k, seed)
        assert verify_k_factor(core, cert.edges, k), (k, seed)
        assert hashlib.sha256(cert.to_json().encode()).hexdigest() == digest, (k, seed)


def corpus_hosts():
    """k-cores of G(n, (c_k + delta)/n), k = 3..6, n <= 300, each followed
    by a configuration multigraph on its degrees, loops and all, as a scan
    hands them over."""
    for k in (3, 4, 5, 6):
        c = c_k_threshold(k)[0]
        for seed in range(230):
            n = (100, 150, 200, 300)[seed % 4]
            core = k_core(gen_gnp(n, c + (0.3, 1.0, 2.0)[seed % 3], seed), k).core
            yield k, core
            yield k, to_multigraph(sample_configuration(core.degrees, seed))


# sha256 over "found,exposed;" per corpus host, exposed being the gadget
# nodes maximum_matching leaves exposed (-1 when find_k_factor decides
# without it).  Any maximum matching leaves the same number exposed, so
# this pins the verdicts and the matching's size, not its tie-breaking.
CORPUS_DIGEST = "ecad6a734c07d009f6c7141f81daac16cce2075b9b37014a18c2a491e8ad5b21"


def test_factor_corpus_verdicts_and_exposed(monkeypatch):
    calls = spy_on_matching(monkeypatch)
    h = hashlib.sha256()
    matched = 0
    for k, host in corpus_hosts():
        calls.clear()
        cert = find_k_factor(host, k)
        exposed = np.count_nonzero(np.frombuffer(calls[0][1], np.int64) == -1) if calls else -1
        matched += bool(calls)
        h.update(f"{int(cert is not None)},{exposed};".encode())
    assert matched >= 1000
    assert h.hexdigest() == CORPUS_DIGEST


@pytest.mark.parametrize("seed", [1, 2])
def test_factor_scan_size_core_leaves_ten_exposed(monkeypatch, seed):
    # the 5-cores of G(50000, (c_5 + 0.5)/n), 38,744 and 38,550 vertices:
    # the greedy seed leaves dozens of gadget nodes exposed, and the
    # matching augments across a large part of the gadget before ten are left
    calls = spy_on_matching(monkeypatch)
    core = k_core(gen_gnp(50000, c_k_threshold(5)[0] + 0.5, seed), 5).core
    assert find_k_factor(core, 5) is None
    assert len(calls) == 1
    assert np.count_nonzero(np.frombuffer(calls[0][1], np.int64) == -1) == 10


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


def configuration_hosts():
    """(k, host) pairs: configuration multigraphs on n = 3..9 vertices with
    every degree in [k, k + 3], loops and parallel edges kept, so a host's
    minimum degree may fall below k once its loops are left out."""
    rng = make_rng(27)
    for seed in range(900):
        n, k = int(rng.integers(3, 10)), int(rng.integers(1, 4))
        degrees = rng.integers(k, k + 4, size=n)
        degrees[0] += degrees.sum() % 2
        yield k, to_multigraph(sample_configuration(degrees, seed))


def test_multigraph_routes_agree():
    # on the loopless multigraph host, the constructive route, the
    # exhaustive Tutte search in both modes and the edge-multiset oracle
    # give one verdict; each certificate and each witness checks
    eligible = non_simple = loopy = found = 0
    for k, g in configuration_hosts():
        if int(_host_degrees(g).min()) < k:
            continue
        eligible += 1
        non_simple += not g.is_simple()
        loopy += g.loops is not None
        cert = find_k_factor(g, k)
        exists = regular_subgraph_exists(g, k)
        assert (cert is not None) == exists, (k, g)
        for restrict in (False, True):
            w = brute_force_tutte(g, k, restrict_m1m2=restrict)
            assert (w is None) == exists, (k, g, restrict)
            if w is not None:
                assert w.violated and tutte_check(g, k, w.S, w.T) == w
        if cert is not None:
            found += 1
            assert verify_k_factor(g, cert.edges, k)
    assert eligible >= 500 and non_simple > eligible // 2 and loopy >= 100
    assert 100 <= found <= eligible - 100


def test_multigraph_early_nones_have_trivial_witnesses():
    # find_k_factor answers None at once on odd k * n, where ({}, {}) is
    # violated, and on a vertex of host degree < k, where ({}, {v}) is,
    # also when v's loops alone lift its degree to k or more
    odd = low = lifted = 0
    for k, g in configuration_hosts():
        low_ids = np.flatnonzero(_host_degrees(g) < k).tolist()
        if (k * g.n) % 2 or low_ids:
            assert find_k_factor(g, k) is None, (k, g)
        if (k * g.n) % 2:
            assert tutte_check(g, k, (), ()).violated, (k, g)
            odd += 1
        for v in low_ids:
            w = tutte_check(g, k, (), (v,))
            assert w.violated and w.lhs == int(_host_degrees(g)[v]) - k, (k, g, v)
            low += 1
            lifted += int(g.degrees[v]) >= k
    assert odd >= 100 and low >= 100 and lifted >= 100


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
    # disjoint (S, T) pairs with T nonempty, S empty included: 3^12 - 2^12
    assert p6.checked == 3 ** 12 - 2 ** 12 == 527345
    assert p6.violations == p6.checked
    # S empty admits T = V; margin is the pure degree shortfall
    surplus = 0.875 * math.sqrt(2 * math.log(2))
    assert p6.worst_margin == pytest.approx(-surplus * 12)
    assert p6.witness == ((), tuple(range(12)))


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
    with pytest.raises(DomainError, match="sample_budget"):
        audit_properties(C4, 2, sample_budget=200.5)
    with pytest.raises(DomainError, match="seed"):
        audit_properties(C4, 2, seed=1.5)
    # a string once raised a bare TypeError; both are stored as floats, so
    # a numpy float32 report writes its JSON
    for bad in ({"epsilon0": "0.5"}, {"gamma": "0.1"}, {"gamma": None}):
        with pytest.raises(DomainError):
            audit_properties(C4, 2, **bad)
    rep = audit_properties(C4, 2, epsilon0=np.float32(0.5), gamma=np.float32(0.1))
    assert json.loads(rep.to_json())["gamma"] == float(np.float32(0.1))
    # seeds of any sign and up to 64 unsigned bits pass
    for seed in (-1, 2**64 - 1):
        audit_properties(C4, 2, seed=seed)


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
# the sampled one.  Recorded before P1-P6 moved into one table, and
# re-recorded when both audits began to apply each size range as stated:
# the exact one reaches P6's empty S, the sampled one caps each part at
# the vertices the parts before it left.
AUDIT_PARAMS = [(0.01, 0.1), (0.1, 0.5), (0.3, 0.05), (0.5, 0.1), (1.0, 1.0)]
GOLDEN_AUDIT_CORPUS = {
    0: "083839b3fb2b3203fd9532c12456ff4ec7fa4ebc3a2530aacc67104d4df09365",
    1: "94350806693712cb91d852f8f6f7f4ef64b81d4fdf18bb37db28efdc13167fdc",
    2: "db9ff9a1fed2a216fc7f2bed428a7b5f98a1469b9fb6b771324882c1bc6fb4c0",
    3: "bca6f2d9c5211984d8a0ca90b1d929c8dc8c070b0e9b19fa244854a3d148f68e",
    4: "4142c0fb0ec38216e64ac7833737b3daf78a2573efb56043510c4a10887b141d",
    5: "cdfd0bea84f474aeeba8c54f236bfcb36e9e21413ccd2606330a1ff5257df303",
    6: "fb6f5e361adc5316d38a020f158c10c70185b3345ceda0d00279b822a01388df",
    7: "45c1faa218d1d5c8a5264a8d018b4194a4300126989076b6ef4ac7b1c859ff9f",
    8: "2e99a63d41ee2ea008cef80aa12237b000593599951071a049e61ddec954f268",
    9: "7051c053c5c6bc4763900854193fce3279000ef3c4031f6113851b18d58a3346",
    10: "19ab471bf34461bf54987f6f88028620c64326006e0c4b9ce8ab7d5a5fa2f5cf",
    11: "0567918398528fda2bcd28818640b1f6bc1b723659fe4bef83c6b5d8faacc622",
    12: "233333418408b4728e80dc81b6b151423d759732aaf0286ebfa701caebdab1cf",
    13: "877a37fdc42165a28fed0116efb650b7575ebf65219562ffde8d8e636b643fdf",
    20: "7c05ce3f67f06c30d9af9fa67b546048459ed44019f78d8a4b52bd19c0c28999",
    40: "d14b1f1a3bc315d075900ce14dbe0560b58f140104d440d0ad61dbac26200254",
    90: "9b56e6425a89a3431b2951aac3214e7fedca170956c099385b94a1458322f0ac",
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
    # the sampled audit draws only pairs the exact one enumerates, so its
    # worst margin cannot undercut the exhaustive minimum
    compared = 0
    for n in (5, 9, 12):
        for g, k, eps0, gamma, seed in audit_corpus(n):
            exact = kfactor._audit_exact(g, k, eps0, gamma)
            sampled = kfactor._audit_sampled(g, k, eps0, gamma, 600, seed)
            for e, s in zip(exact, sampled, strict=True):
                assert e.name == s.name
                if s.mode == "vacuous":
                    continue
                assert e.mode == "exact"
                assert s.worst_margin >= e.worst_margin, (n, k, eps0, e.name)
                assert s.violations == 0 or e.violations > 0
                compared += 1
    assert compared == 248


def test_audit_sampled_caps_each_part_at_the_vertices_left():
    # P1's |Y| range runs to 10 eps0 n = 2000, past n = 200: capped at n,
    # every draw is eligible, as for P2, whose range ends at n / 2
    rep = audit_properties(gen_gnp(200, 6.0, 1), 3, epsilon0=1.0)
    assert rep.result("P1").checked == rep.result("P2").checked == 333

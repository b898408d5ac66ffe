"""Sampling layer tests: G(n,p), configurations, and the class re-sampler.

Oracles: brute-force enumeration of all pairings on up to 12 copies for
exact simple fractions and re-sampler supports, binomial moments for
edge counts, and hand-built configurations for split-degree extraction.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from kflab.analytics import c_k_threshold
from kflab.errors import DomainError, InfeasibleError, ParityError
from kflab.graphs import Graph, format_edge_text, parse_edge_text
from kflab import randgraph
from kflab.kcore import k_core
from kflab.randgraph import (
    R,
    W0,
    W1,
    Configuration,
    RWInfo,
    _decode_pair_index,
    gen_gnp,
    rw_extract,
    sample_configuration,
    sample_from_rw,
    to_multigraph,
)
from kflab.rng import make_rng, spawn_seed


def all_pairings(copies):
    """Yield every perfect matching on the given copy ids."""
    if not copies:
        yield []
        return
    a = copies[0]
    for i in range(1, len(copies)):
        b = copies[i]
        rest = copies[1:i] + copies[i + 1 :]
        for tail in all_pairings(rest):
            yield [(a, b)] + tail


def config_from_pairs(degrees, pairs):
    total = int(np.sum(degrees))
    mate = np.full(total, -1, dtype=np.int64)
    for a, b in pairs:
        mate[a], mate[b] = b, a
    return Configuration(degrees=np.asarray(degrees, dtype=np.int64), mate=mate)


def multigraph_counts(cfg):
    """cfg's multigraph with its loop count and surplus edge multiplicity."""
    mg = to_multigraph(cfg)
    loops = 0 if mg.loops is None else int(mg.loops.sum())
    multis = 0 if mg.mult is None else int((mg.mult - 1).sum())
    return mg, loops, multis


# --------------------------------------------------------------------- gen_gnp

def test_gnp_zero_density_is_empty():
    for seed in (0, 1, 99):
        g = gen_gnp(5, 0.0, seed)
        assert g.n == 5 and g.m == 0


def test_gnp_full_density_is_complete():
    for seed in (0, 7, 123):
        g = gen_gnp(4, 4.0, seed)
        assert g.m == 6
        assert g.edge_tuples() == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]


def test_gnp_rejects_bad_arguments():
    with pytest.raises(DomainError):
        gen_gnp(0, 1.0, 0)
    with pytest.raises(DomainError):
        gen_gnp(5, -0.1, 0)
    # each of these once raised a bare TypeError
    for args in (("10", 5.0, 0), (10, "5", 0), (10, 5.0, 1.5), (10, None, 0)):
        with pytest.raises(DomainError):
            gen_gnp(*args)
    assert gen_gnp(10.0, np.float32(5.0), np.int64(3)) == gen_gnp(10, 5.0, 3)


def test_seeds_must_be_integers():
    # a float seed once raised a bare TypeError from the 64-bit mask
    for call in (lambda s: make_rng(s), lambda s: spawn_seed(s, "x"),
                 lambda s: spawn_seed(0, "x", s),
                 lambda s: sample_configuration([1, 1], s)):
        for bad in (1.5, "1", None):
            with pytest.raises(DomainError):
                call(bad)
    assert spawn_seed(np.int64(-1), "x", np.uint8(2)) == spawn_seed(2**64 - 1, "x", 2)
    assert make_rng(np.int64(-1)).random() == make_rng(2**64 - 1).random()


def test_pair_index_decode_exhaustive():
    # the skip sampler stands on this decode; check every index directly
    for n in (2, 3, 5, 17, 40):
        expect = np.array(
            list(itertools.combinations(range(n), 2)), dtype=np.int64
        )
        got = _decode_pair_index(np.arange(len(expect)), n)
        assert np.array_equal(got, expect)


def test_pair_index_decode_row_boundaries_large_n():
    # the first and last index of each row must decode exactly at n = 10^6
    n = 10**6
    rng = np.random.default_rng(5)
    us = np.concatenate([[0, 1, n - 3, n - 2], rng.integers(0, n - 1, 50)])
    ts = []
    for u in us:
        start = u * (2 * n - u - 1) // 2
        ts.extend([start, start + (n - 1 - u) - 1])
    decoded = _decode_pair_index(np.array(sorted(set(ts))), n)
    for t, (u, v) in zip(sorted(set(ts)), decoded.tolist()):
        assert 0 <= u < v < n
        assert u * (2 * n - u - 1) // 2 + (v - u - 1) == t


def test_gnp_second_batch_continues_at_the_boundary(monkeypatch):
    # with every uniform at 0 each gap is 1, so the first batch of 1,056
    # gaps stops short of the 1,770 pairs of K60 and a second batch follows
    class ZeroRng:
        def random(self, size):
            return np.zeros(size)

    monkeypatch.setattr(randgraph, "make_rng", lambda seed: ZeroRng())
    g = gen_gnp(60, 1.0, 0)
    assert np.array_equal(
        g.edge_array, np.array(list(itertools.combinations(range(60), 2)))
    )


def test_gnp_edge_count_near_binomial_mean():
    n, c = 10**5, 12.0
    g = gen_gnp(n, c, 7)
    p = c / n
    pairs = n * (n - 1) // 2
    mean = pairs * p
    sd = (pairs * p * (1 - p)) ** 0.5
    assert abs(g.m - mean) < 4 * sd


def test_gnp_deterministic_and_byte_stable():
    a = gen_gnp(500, 3.0, 42)
    b = gen_gnp(500, 3.0, 42)
    assert a == b
    assert format_edge_text(a) == format_edge_text(b)
    assert parse_edge_text(format_edge_text(a)) == a
    assert gen_gnp(500, 3.0, 43) != a


def test_gnp_outcome_distribution_uniform_chi2():
    # at n=4, p=1/2 all 64 labelled graphs are equally likely; a chi-square
    # over full outcomes checks pair independence, not just the marginals
    counts = np.zeros(64, dtype=np.int64)
    trials = 20000
    for s in range(trials):
        g = gen_gnp(4, 2.0, spawn_seed(8001, "gnp-dist", s))
        code = 0
        for u, v in g.edge_tuples():
            code |= 1 << (u * 4 + v)
        counts[hash_code(code)] += 1
    chi2 = float(np.sum((counts - trials / 64) ** 2 / (trials / 64)))
    p_value = stats.chi2.sf(chi2, df=63)
    assert p_value > 0.01


def hash_code(code: int) -> int:
    # compress the 16-bit adjacency code of a 4-vertex graph to 6 pair bits
    bits = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    out = 0
    for i, (u, v) in enumerate(bits):
        if code & (1 << (u * 4 + v)):
            out |= 1 << i
    return out


# sha256 over gen_gnp's edge_array bytes on a grid of n, c and seeds; c = n
# is p = 1, skipped at n = 50,000 where it would hold 1.25e9 edges.  Pins
# the skip sampler and the pair decode byte for byte.
GNP_GRID_DIGEST = "3efe68b2fe3881ce10d899a0604d9c418200f82e0f4e73825e3a43f08c9713cb"


def test_gnp_grid_digest():
    h = hashlib.sha256()
    for n in (2, 3, 17, 600, 50000):
        for c in (0.0, 1.2, c_k_threshold(5)[0] + 0.5, float(n)):
            if c == n == 50000:
                continue
            for seed in (0, 1, 2):
                g = gen_gnp(n, c, spawn_seed(61, "gnp-grid", n, seed))
                h.update(f"{n},{c!r},{seed}:{g.m};".encode())
                h.update(np.ascontiguousarray(g.edge_array, dtype=np.int64).tobytes())
    assert h.hexdigest() == GNP_GRID_DIGEST


# -------------------------------------------------------------- configurations

def test_sample_configuration_single_pairing():
    cfg = sample_configuration([1, 1], 3)
    assert cfg.pairs() == [(0, 1)]
    mg, loops, multis = multigraph_counts(cfg)
    assert mg.edge_tuples() == [(0, 1)] and loops == 0 and multis == 0


def test_sample_configuration_forced_loop():
    cfg = sample_configuration([2], 11)
    assert cfg.pairs() == [(0, 1)]
    mg, loops, multis = multigraph_counts(cfg)
    assert mg.m == 0 and loops == 1 and multis == 0


# sha256 over sample_configuration's mate bytes for three seeds on each
# case: the k-cores of G(n, (c_k + delta)/n) for k = 3..6, plus hand
# degree sequences with zero degrees and forced loops.  Pins the single
# permutation draw behind every multigraph scan row.
CONFIG_DRAWS_DIGEST = "9aed9d8f31ab6baccdd6998bd456e04c15e2f22234acd750cb6f958210cbb9f3"


def test_sample_configuration_draws_digest():
    cases = [[0], [2], [0, 0, 2], [4, 0], [2, 0, 2], [0, 1, 0, 1], [6, 1, 1, 0]]
    for k in (3, 4, 5, 6):
        for n, delta in ((60, 0.5), (400, 0.2), (3000, 1.0)):
            g = gen_gnp(n, c_k_threshold(k)[0] + delta, spawn_seed(18, "cfg", k, n))
            cases.append(k_core(g, k).core.degrees)
    h = hashlib.sha256()
    for i, degrees in enumerate(cases):
        for s in range(3):
            cfg = sample_configuration(degrees, spawn_seed(18, "cfg-draw", i, s))
            h.update(f"{len(cfg.mate)}:".encode() + cfg.mate.astype(np.int64).tobytes())
    assert h.hexdigest() == CONFIG_DRAWS_DIGEST


def test_sample_configuration_odd_sum_raises():
    with pytest.raises(ParityError):
        sample_configuration([3, 3, 1], 0)


def test_configuration_validate_rejects_broken_pairings():
    degrees = np.array([2, 2], dtype=np.int64)
    bad = Configuration(degrees=degrees, mate=np.array([0, 1, 3, 2]))
    with pytest.raises(DomainError):
        bad.validate()  # fixed point at copy 0
    bad = Configuration(degrees=degrees, mate=np.array([1, 2, 3, 0]))
    with pytest.raises(DomainError):
        bad.validate()  # 4-cycle, not an involution
    bad = Configuration(degrees=degrees, mate=np.array([1, 0]))
    with pytest.raises(DomainError):
        bad.validate()  # does not cover all copies
    bad = Configuration(degrees=np.array([1, 1]), mate=np.array([5, 0]))
    with pytest.raises(DomainError):
        bad.validate()  # names a copy that does not exist
    bad = Configuration(degrees=np.array([1]), mate=np.array([0]))
    with pytest.raises(ParityError):
        bad.validate()  # one copy cannot be paired


def test_sampling_rejects_non_integral_degrees():
    # an int64 cast would sample degrees [1, 1, 2, 0]
    with pytest.raises(DomainError):
        sample_configuration(np.array([1.5, 1.0, 2.9, 0.2]), 1)
    # not a 1-D integer sequence: each of these once gave a Configuration
    # that failed later, a bare TypeError or ValueError, or a ComplexWarning
    for bad in ([[1, 1]], 2, [None, 1], [1 + 0j, 1], ["a", 1], [[1], [1, 1]]):
        with pytest.raises(DomainError):
            sample_configuration(bad, 0)
    cfg = sample_configuration(np.array([3.0, 1.0, 2.0, 0.0]), 1)
    assert np.array_equal(cfg.mate, sample_configuration([3, 1, 2, 0], 1).mate)


def test_projection_degree_conservation():
    rng = np.random.default_rng(21)
    for trial in range(50):
        degrees = rng.integers(0, 6, size=rng.integers(1, 8))
        if degrees.sum() % 2:
            degrees[0] += 1
        cfg = sample_configuration(degrees, spawn_seed(52, "proj", trial))
        mg, loops, multis = multigraph_counts(cfg)
        assert mg.degrees.tolist() == degrees.tolist()
        g = Graph(mg.n, mg.edge_array)  # the simple projection
        assert all(
            g.degrees[v] <= degrees[v] for v in range(len(degrees))
        )
        assert g.m + loops + multis == int(degrees.sum()) // 2
        assert mg.is_simple() == (loops == 0 and multis == 0)


def test_multigraph_from_pairs():
    mg = Graph.from_pairs(4, [(1, 0), (0, 1), (2, 2), (3, 1), (2, 2)])
    assert mg.edge_array.tolist() == [[0, 1], [1, 3]]
    assert mg.mult.tolist() == [2, 1]
    assert mg.loops.tolist() == [0, 0, 2, 0]
    assert mg.degrees.tolist() == [2, 3, 4, 1]
    assert mg.adjacency() == [[1], [0, 3], [], [1]]
    assert mg.csr()[2].tolist() == [2, 2, 1, 1]  # aligned with adjacency()
    assert not mg.is_simple()
    with pytest.raises(DomainError):
        format_edge_text(mg)  # the text format has no multiplicities
    sub, old_ids = mg.induced_subgraph(np.array([True, True, True, False]))
    assert old_ids.tolist() == [0, 1, 2]
    assert sub == Graph.from_pairs(3, [(0, 1), (0, 1), (2, 2), (2, 2)])
    assert sub != Graph(3, [(0, 1)])
    # without repeats or loops a multiset is the simple graph
    assert Graph.from_pairs(3, [(2, 1), (0, 1)]) == Graph(3, [(1, 2), (0, 1)])
    assert Graph.from_pairs(3, [(2, 1)]).is_simple()
    # neighbors_in counts distinct neighbors, or edges with weights=mult
    in_01 = np.array([True, True, False, False])
    assert mg.neighbors_in(in_01).tolist() == [1, 1, 0, 1]
    assert mg.neighbors_in(in_01, mg.mult).tolist() == [2, 2, 0, 1]
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert path.neighbors_in(in_01).tolist() == [1, 1, 1, 0]
    assert path.neighbors_in(~in_01).tolist() == [0, 1, 1, 1]
    assert Graph(0, []).neighbors_in(np.zeros(0, dtype=bool)).tolist() == []
    with pytest.raises(DomainError):
        Graph.from_pairs(2, [(0, 2)])
    with pytest.raises(DomainError):
        Graph.from_pairs(2, [(0, 1, 1)])
    with pytest.raises(DomainError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(DomainError):
        Graph(2, [(1, 1)])
    # endpoints must be integers, not values an int64 cast would truncate
    with pytest.raises(DomainError):
        Graph(3, np.array([[0, 1.7]]))
    with pytest.raises(DomainError):
        Graph.from_pairs(3, np.array([[0, 1.7]]))
    # ragged, object, complex, string or oversized endpoints once raised a
    # bare ValueError or TypeError, or were cast with a ComplexWarning
    for bad in ([(0, 1), (2,)], [(0, None)], [(0, 1 + 0j)], [("0", "1")], [(0, 2**70)]):
        with pytest.raises(DomainError):
            Graph(3, bad)
        with pytest.raises(DomainError):
            Graph.from_pairs(3, bad)
    assert Graph(3, np.array([[0.0, 1.0]])) == Graph(3, [(0, 1)])
    # mult and loops only ride on canonical rows, one per row and per vertex;
    # unsorted rows once gave (0, 1) multiplicity 2 and degrees [2, 3, 1]
    with pytest.raises(DomainError):
        Graph(3, [(1, 2), (0, 1)], mult=[2, 1])
    with pytest.raises(DomainError):
        Graph(3, [(0, 1)], loops=[0, 0, 1])
    rows = np.array([[0, 1], [1, 2]])
    with pytest.raises(DomainError):
        Graph(3, rows, _canonical=True, mult=[2])
    with pytest.raises(DomainError):
        Graph(3, rows, _canonical=True, loops=[1, 0])
    assert Graph(3, rows, _canonical=True, mult=[2, 1]).degrees.tolist() == [2, 3, 1]


def test_simple_graph_equals_from_pairs_on_shuffled_flipped_rows():
    # Graph(n, pairs) is the canonical graph from_pairs builds, byte for
    # byte, whatever the row order and orientation; a loop or a repeated
    # pair is not a simple graph
    rng = np.random.default_rng(24)
    for _ in range(60):
        n = int(rng.integers(1, 25))
        every = np.array(list(itertools.combinations(range(n), 2)),
                         dtype=np.int64).reshape(-1, 2)
        pairs = every[rng.permutation(len(every))[:int(rng.integers(0, len(every) + 1))]]
        flip = rng.random(len(pairs)) < 0.5
        pairs[flip] = pairs[flip][:, ::-1]
        g, ref = Graph(n, pairs), Graph.from_pairs(n, pairs)
        assert g == ref and g.is_simple()
        assert g.edge_array.tobytes() == ref.edge_array.tobytes()
        v = int(rng.integers(0, n))
        extras = [(v, v)] + ([pairs[int(rng.integers(0, len(pairs)))][::-1]]
                             if len(pairs) else [])
        for extra in extras:
            at = int(rng.integers(0, len(pairs) + 1))
            with pytest.raises(DomainError):
                Graph(n, np.insert(pairs, at, extra, axis=0))


def test_vertex_count_must_be_an_integer():
    # Graph(10.5, [(0, 10)]) once had n = 10, an edge at vertex 10, 11 degrees
    for make in (
        lambda: Graph(10.5, [(0, 10)]),
        lambda: Graph(10.5, np.array([[0, 10]]), _canonical=True),
        lambda: Graph.from_pairs(10.5, [(0, 10)]),
        lambda: gen_gnp(10.5, 5.0, 0),
        lambda: Graph(-1, []),
        lambda: Graph(-1, [], _canonical=True),
        lambda: Graph([3], []),
        lambda: Graph(None, []),
        lambda: Graph(float("nan"), []),
    ):
        with pytest.raises(DomainError):
            make()
    g = Graph(10.0, [(0, 9)])
    assert g == Graph(10, [(0, 9)]) and type(g.n) is int and len(g.degrees) == 10
    assert Graph.from_pairs(np.float64(3.0), [(2, 2)]).n == 3
    assert gen_gnp(10.0, 5.0, 0) == gen_gnp(10, 5.0, 0)


def test_rows_of():
    mg = Graph.from_pairs(5, [(3, 4), (0, 1), (1, 0), (1, 3), (2, 2)])
    assert mg.edge_array.tolist() == [[0, 1], [1, 3], [3, 4]]
    pairs = np.array([[1, 3], [0, 1], [3, 4], [0, 2], [2, 2], [4, 4], [0, 0]])
    assert mg.rows_of(pairs).tolist() == [1, 0, 2, -1, -1, -1, -1]
    assert mg.rows_of(np.empty((0, 2), dtype=np.int64)).tolist() == []
    assert Graph(3, []).rows_of(np.array([[0, 1]])).tolist() == [-1]


def lexsort_adjacency(g: Graph) -> tuple[list, list]:
    """adjacency() and the per-row multiplicities of the CSR rebuilt by a
    lexsort of both orientations of every edge row."""
    e = g.edge_array
    mult = np.ones(g.m, dtype=np.int64) if g.mult is None else g.mult
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    order = np.lexsort((dst, src))
    adj = [[] for _ in range(g.n)]
    amult = [[] for _ in range(g.n)]
    for s, d, w in zip(src[order].tolist(), dst[order].tolist(),
                       np.concatenate([mult, mult])[order].tolist()):
        adj[s].append(d)
        amult[s].append(w)
    return adj, amult


def test_csr_order_matches_lexsort_reference():
    graphs = [Graph(0, []), Graph(1, []), Graph.from_pairs(1, [(0, 0)])]
    for i, (n, c) in enumerate([(2, 1.0), (50, 1.5), (400, 6.0), (30, 30.0)]):
        graphs.append(gen_gnp(n, c, spawn_seed(17, "csr", n, i)))
    rng = np.random.default_rng(17)
    for n in (3, 20, 200):
        # repeats and loops on the first half only, so the rest is isolated
        pairs = rng.integers(0, max(n // 2, 1), size=(3 * n, 2))
        graphs.append(Graph.from_pairs(n, pairs))
    assert not graphs[-1].is_simple() and graphs[-1].degrees[-1] == 0
    for g in graphs:
        adj, amult = lexsort_adjacency(g)
        assert g.adjacency() == adj
        adjm = g.csr()[2]
        assert (adjm is None) == (g.mult is None)
        assert [m for row in amult for m in row] == (
            [1] * sum(map(len, adj)) if adjm is None else adjm.tolist()
        )
        vs = np.arange(g.n)[::-1]
        assert g.neighbors_of(vs).tolist() == [u for v in vs.tolist() for u in adj[v]]
    assert graphs[-1].neighbors_of(np.array([], dtype=np.int64)).tolist() == []


def test_simple_fraction_matches_enumeration():
    # all 11!! = 10395 pairings of 12 copies, exactly 1296 project simple
    degrees = [3, 3, 3, 3]
    total = simple = 0
    for pairs in all_pairings(list(range(12))):
        _, loops, multis = multigraph_counts(config_from_pairs(degrees, pairs))
        total += 1
        simple += loops == 0 and multis == 0
    assert total == 10395 and simple == 1296
    exact = simple / total
    trials = 20000
    hits = 0
    for s in range(trials):
        _, loops, multis = multigraph_counts(
            sample_configuration(degrees, spawn_seed(9009, "simple", s))
        )
        hits += loops == 0 and multis == 0
    assert abs(hits / trials - exact) < 0.02


def test_pairing_uniform_on_four_single_copies():
    # three possible pairings, each must appear with frequency 1/3 +- 0.01
    trials = 10**5
    counts = {1: 0, 2: 0, 3: 0}
    for s in range(trials):
        cfg = sample_configuration([1, 1, 1, 1], spawn_seed(31, "uni", s))
        counts[int(cfg.mate[0])] += 1
    for mate0, cnt in counts.items():
        assert abs(cnt / trials - 1 / 3) < 0.01, (mate0, cnt / trials)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_configuration_involution_property(data):
    n = data.draw(st.integers(1, 8))
    degrees = data.draw(
        st.lists(st.integers(0, 5), min_size=n, max_size=n)
    )
    if sum(degrees) % 2:
        degrees[0] += 1
    seed = data.draw(st.integers(0, 2**63 - 1))
    cfg = sample_configuration(degrees, seed)
    cfg.validate()
    ids = np.arange(cfg.copy_count)
    assert np.array_equal(cfg.mate[cfg.mate], ids)
    assert not np.any(cfg.mate == ids)
    assert np.array_equal(
        sample_configuration(degrees, seed).mate, cfg.mate
    )


# ------------------------------------------------------------------ RW machinery

def test_rw_extract_all_w0():
    cfg = sample_configuration([2, 3, 3], 9)
    info = rw_extract(cfg, [W0, W0, W0])
    assert info.w1_pairs == ()
    assert info.splits == ((2, 0), (3, 0), (3, 0))


def test_rw_extract_without_w1_has_no_pinned_pairs():
    cfg = sample_configuration([2, 2, 4], 14)
    info = rw_extract(cfg, [W0, R, R])
    assert info.w1_pairs == ()
    for v in (1, 2):
        assert info.splits[v][1] == 0  # deg_W1 = 0 when W1 is empty


def test_rw_extract_hand_built_six_vertices():
    # copies: v0 {0,1}, v1 {2,3}, v2 {4,5}, v3 {6,7}, v4 {8,9}, v5 {10,11}
    # pairing: (0,2) W0-W0, (1,4) W0-W1, (3,8) W0-R,
    #          (5,6) W1-W1, (7,10) W1-R, (9,11) R-R
    classes = [W0, W0, W1, W1, R, R]
    cfg = config_from_pairs(
        [2] * 6, [(0, 2), (1, 4), (3, 8), (5, 6), (7, 10), (9, 11)]
    )
    cfg.validate()
    info = rw_extract(cfg, classes)
    assert info.splits == (
        (1, 1),        # v0: one partner in W0, one outside
        (1, 1),        # v1
        (1, 1, 0),     # v2: W0, W1, R partner counts
        (0, 1, 1),     # v3
        (1, 0, 1),     # v4
        (0, 1, 1),     # v5
    )
    assert info.w1_pairs == ((5, 6), (7, 10))
    assert [sum(split) for split in info.splits] == [2] * 6


def test_rw_extract_rejects_bad_classes():
    cfg = sample_configuration([1, 1], 0)
    with pytest.raises(DomainError):
        rw_extract(cfg, [W0])
    with pytest.raises(DomainError):
        rw_extract(cfg, [W0, 5])
    with pytest.raises(DomainError):
        rw_extract(cfg, [0.5, 1.2])  # an int64 cast would read (0, 1)
    assert rw_extract(cfg, [0.0, 2.0]) == rw_extract(cfg, [W0, R])


def test_sample_from_rw_round_trip_small_instances():
    rng = np.random.default_rng(17)
    for trial in range(1000):
        n = int(rng.integers(2, 7))
        degrees = rng.integers(0, 5, size=n)
        if degrees.sum() % 2:
            degrees[0] += 1
        cfg = sample_configuration(degrees, spawn_seed(73, "rt-base", trial))
        classes = rng.integers(0, 3, size=n)
        info = rw_extract(cfg, classes)
        out = sample_from_rw(info, spawn_seed(73, "rt-draw", trial))
        assert rw_extract(out, classes) == info


# sha256 over sample_from_rw's mate bytes, or "raise:<type>" when a draw is
# refused, for three seeds on each of 400 instances: degrees 0..6 on
# n <= 60 vertices and uniform classes, so W1 pairs are pinned often.
# Every fourth instance has one split entry raised by one, which no
# pairing can meet.  Pins the draw order of every permutation.
RW_DRAWS_DIGEST = "699fd56630e9c822552a6c7da301636d9d01c92c0d2d6114bb6f99d5a66be173"


def test_sample_from_rw_draws_digest():
    rng = np.random.default_rng(404)
    h = hashlib.sha256()
    for i in range(400):
        n = int(rng.integers(1, 61))
        degrees = rng.integers(0, 7, size=n)
        if degrees.sum() % 2:
            degrees[0] += 1
        cfg = sample_configuration(degrees, spawn_seed(404, "guard-base", i))
        info = rw_extract(cfg, rng.integers(0, 3, size=n))
        if i % 4 == 3:
            v = int(rng.integers(n))
            split = list(info.splits[v])
            split[int(rng.integers(len(split)))] += 1
            splits = info.splits[:v] + (tuple(split),) + info.splits[v + 1 :]
            info = RWInfo(info.classes, splits, info.w1_pairs)
        for s in range(3):
            try:
                out = sample_from_rw(info, spawn_seed(404, "guard-draw", i, s))
            except Exception as exc:  # the marker pins which error type
                h.update(f"raise:{type(exc).__name__};".encode())
            else:
                h.update(out.mate.astype(np.int64).tobytes() + b";")
    assert h.hexdigest() == RW_DRAWS_DIGEST


def test_sample_from_rw_without_w1_is_plain_matching():
    # W1 empty and no outward degrees: steps 1, 2 and 5 are vacuous and the
    # draw reduces to a uniform matching inside the W0 pool
    info = RWInfo(
        classes=(W0, W0), splits=((2, 0), (2, 0)), w1_pairs=()
    )
    cfg = sample_from_rw(info, 4)
    cfg.validate()
    assert rw_extract(cfg, [W0, W0]) == info


def test_sample_from_rw_pins_listed_pairs_verbatim():
    base = sample_configuration([4, 4, 2, 2], 5)
    classes = [W0, R, R, W1]
    info = rw_extract(base, classes)
    assert info.w1_pairs  # instance chosen to have at least one pinned pair
    for s in range(25):
        out = sample_from_rw(info, s)
        for a, b in info.w1_pairs:
            assert out.mate[a] == b and out.mate[b] == a


def test_sample_from_rw_infeasible_inputs():
    with pytest.raises(InfeasibleError):
        # odd number of copies inside the W0 pool
        sample_from_rw(
            RWInfo(classes=(W0, W0), splits=((1, 0), (2, 0)), w1_pairs=()), 0
        )
    with pytest.raises(InfeasibleError):
        # one outward W0 copy but nothing designated toward W0
        sample_from_rw(
            RWInfo(classes=(W0, R), splits=((0, 1), (0, 0, 1)), w1_pairs=()), 0
        )
    with pytest.raises(InfeasibleError):
        # listed pair must join W1 to W1 u R
        sample_from_rw(
            RWInfo(
                classes=(W0, W1),
                splits=((0, 1), (1, 0, 0)),
                w1_pairs=((0, 1),),
            ),
            0,
        )
    with pytest.raises(InfeasibleError):
        # the splits give two copies, so copy 5 does not exist
        sample_from_rw(
            RWInfo(
                classes=(W1, W1),
                splits=((0, 1, 0), (0, 1, 0)),
                w1_pairs=((0, 5),),
            ),
            0,
        )
    with pytest.raises(InfeasibleError):
        # copy 0 is pinned to both 2 and 3
        sample_from_rw(
            RWInfo(
                classes=(W1, W1),
                splits=((0, 2, 0), (0, 2, 0)),
                w1_pairs=((0, 2), (0, 3)),
            ),
            0,
        )
    with pytest.raises(InfeasibleError):
        # split degrees disagree with the pinned pair list
        sample_from_rw(
            RWInfo(
                classes=(W1, W1),
                splits=((0, 1, 0), (0, 0, 1)),
                w1_pairs=((0, 1),),
            ),
            0,
        )


def test_sample_from_rw_rejects_malformed_input():
    bad_infos = [
        # negative split entries; the old draw returned degrees [0, 0]
        RWInfo(classes=(W0, W0), splits=((-1, 1), (1, -1)), w1_pairs=()),
        # split arity must be 2 for W0 and 3 otherwise
        RWInfo(classes=(R,), splits=((2,),), w1_pairs=()),
        RWInfo(classes=(W0,), splits=((2, 0, 0),), w1_pairs=()),
        RWInfo(classes=(W0, W0), splits=((2, 0),), w1_pairs=()),
        # non-integral classes, splits and pinned pairs
        RWInfo(classes=(0.5, 0.0), splits=((1, 0), (1, 0)), w1_pairs=()),
        RWInfo(classes=(W0, W0), splits=((1.5, 0), (0.5, 0)), w1_pairs=()),
        RWInfo(classes=(W1, W1), splits=((0, 1, 0), (0, 1, 0)), w1_pairs=((0, 1.5),)),
        RWInfo(classes=(W1, W1), splits=((0, 1, 0), (0, 1, 0)), w1_pairs=((0, 1, 1),)),
        RWInfo(classes=(W0, 3), splits=((1, 0), (1, 0, 0)), w1_pairs=()),
        # ragged pinned pairs and splits once raised a bare ValueError
        RWInfo(classes=(W1, W1), splits=((0, 1, 0), (0, 1, 0)), w1_pairs=((0,),)),
        RWInfo(classes=(W0, W0), splits=((1, [0, 1]), (1, 0)), w1_pairs=()),
    ]
    for info in bad_infos:
        with pytest.raises(DomainError):
            sample_from_rw(info, 0)
    # integral floats are accepted
    info = RWInfo(classes=(W0, W1, R), splits=((2, 0), (0, 0, 2), (0, 2, 0)),
                  w1_pairs=((2, 4), (3, 5)))
    floats = RWInfo(classes=(0.0, 1.0, 2.0),
                    splits=((2.0, 0), (0, 0.0, 2), (0, 2.0, 0)),
                    w1_pairs=((2.0, 4), (3, 5.0)))
    assert sample_from_rw(floats, 0).mate.tolist() == [1, 0, 4, 5, 2, 3]
    assert sample_from_rw(info, 0).mate.tolist() == [1, 0, 4, 5, 2, 3]


def enumerate_support(degrees, classes, info):
    """Brute-force the set of pairings sharing the given split information."""
    total = int(np.sum(degrees))
    support = []
    for pairs in all_pairings(list(range(total))):
        cfg = config_from_pairs(degrees, pairs)
        if rw_extract(cfg, classes) == info:
            support.append(tuple(sorted((min(a, b), max(a, b)) for a, b in pairs)))
    return support


def test_sample_from_rw_uniform_over_support_chi2():
    # 4-vertex instance whose support has 144 pairings and exercises every
    # step: pinned pair, W0-internal and R-internal matchings, bipartite part
    degrees = [4, 4, 2, 2]
    classes = [W0, R, R, W1]
    base = sample_configuration(degrees, 5)
    info = rw_extract(base, classes)
    support = enumerate_support(degrees, classes, info)
    assert len(support) == 144
    index = {key: i for i, key in enumerate(support)}
    trials = 20000
    counts = np.zeros(len(support), dtype=np.int64)
    for s in range(trials):
        out = sample_from_rw(info, spawn_seed(555, "chi2", s))
        key = tuple(out.pairs())
        counts[index[key]] += 1  # KeyError here would mean leaving the support
    expected = trials / len(support)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    p_value = stats.chi2.sf(chi2, df=len(support) - 1)
    assert p_value > 0.01, (chi2, p_value)

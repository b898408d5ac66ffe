"""Top-level acceptance checks, one per headline guarantee.

Each test prints a single PASS/FAIL line (visible with -s) and asserts it.
The asymptotic-gap check in test_ac04b records an expectation that the
closed-form expansion does not meet at reachable k: the measured gaps grow
instead of shrinking.  It is kept failing on purpose rather than loosened;
see the line it prints for the measured values.
"""

import itertools
import math
import time

import numpy as np
import pytest

from kflab.analytics import (
    c_k_asymptotic,
    c_k_threshold,
    core_law,
    g_branching,
)
from kflab.graphs import Graph
from kflab.harness import ScanConfig, run_pipeline, scan
from kflab.kcore import k_core
from kflab.kfactor import brute_force_tutte, find_k_factor, verify_k_factor
from kflab.randgraph import (
    R,
    W0,
    W1,
    Configuration,
    gen_gnp,
    rw_extract,
    sample_configuration,
    sample_from_rw,
)
from kflab.rng import make_rng, spawn_seed
from kflab.strip import run_strip, verify_K
from oracles import regular_subgraph_exists


def report(name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def three_way_agree(g: Graph, k: int) -> bool:
    cert = find_k_factor(g, k)
    witness = brute_force_tutte(g, k)
    direct = regular_subgraph_exists(g, k)
    if cert is not None and not verify_k_factor(g, cert.edges, k):
        return False
    return (cert is not None) == (witness is None) == direct


def test_ac01_factor_oracle_triangle():
    nx = pytest.importorskip("networkx")
    t0 = time.perf_counter()
    disagreements = 0
    atlas_cases = 0
    for G in nx.graph_atlas_g()[1:]:
        n = G.number_of_nodes()
        if n > 6 or not nx.is_connected(G):
            continue
        mind = min(d for _, d in G.degree()) if n else 0
        g = Graph(n, sorted((min(u, v), max(u, v)) for u, v in G.edges()))
        for k in (2, 3):
            if mind < k:
                continue
            atlas_cases += 1
            disagreements += not three_way_agree(g, k)

    rng = make_rng(20260815)
    random_cases = 0
    while random_cases < 10_000:
        n = 7 + int(rng.integers(0, 2))
        k = 2 + int(rng.integers(0, 2))
        p = 0.3 + 0.6 * rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        g = Graph(n, edges)
        if int(g.degrees.min()) < k:
            continue
        random_cases += 1
        disagreements += not three_way_agree(g, k)
    elapsed = time.perf_counter() - t0
    report(
        "AC1",
        disagreements == 0 and elapsed < 300,
        f"{atlas_cases} atlas + {random_cases} random cases, "
        f"{disagreements} disagreements, {elapsed:.1f}s",
    )


def test_ac02_restricted_search_sound():
    rng = make_rng(508)
    cases = 0
    mismatches = 0
    while cases < 500:
        n = int(rng.integers(5, 10))
        k = int(rng.integers(1, 4))
        p = 0.3 + 0.6 * rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        g = Graph(n, edges)
        if g.n == 0 or int(g.degrees.min()) < k:
            continue
        cases += 1
        full = brute_force_tutte(g, k)
        restricted = brute_force_tutte(g, k, restrict_m1m2=True)
        mismatches += (full is None) != (restricted is None)
    report("AC2", mismatches == 0, f"{cases} instances, {mismatches} mismatches")


def test_ac03_branching_ratio_unit_at_threshold():
    worst = 0.0
    for k in range(3, 201):
        _, x_k = c_k_threshold(k)
        worst = max(worst, abs(g_branching(x_k, k) - 1.0))
    report("AC3", worst < 1e-6, f"k in [3,200], max |g(x_k)-1| = {worst:.2e}")


def test_ac04a_threshold_matches_independent_oracle():
    # self-contained minimizer of x / P(Po(x) >= 2): coarse grid, then
    # ternary refinement
    def f3(x: float) -> float:
        return x / (1.0 - math.exp(-x) * (1.0 + x))

    grid = [i / 1000.0 for i in range(200, 6000)]
    x_best = min(grid, key=f3)
    lo, hi = x_best - 0.002, x_best + 0.002
    for _ in range(120):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f3(m1) < f3(m2):
            hi = m2
        else:
            lo = m1
    oracle = f3((lo + hi) / 2)
    library = c_k_threshold(3)[0]
    diff = abs(oracle - library)
    report("AC4a", diff < 1e-6, f"c_3 oracle {oracle:.9f} vs {library:.9f}")


def test_ac04b_asymptotic_gap_direction():
    ks = (100, 200, 400, 800)
    gaps = [abs(c_k_threshold(k)[0] - c_k_asymptotic(k)) for k in ks]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    report(
        "AC4b",
        decreasing,
        "|c_k - closed form| over k=100,200,400,800: "
        + ", ".join(f"{gap:.4f}" for gap in gaps),
    )


def test_ac05_core_law_fractions():
    t0 = time.perf_counter()
    k = 5
    n = 100_000
    c = c_k_threshold(k)[0] + 0.5
    law = core_law(c, k, k + 5)
    sizes = []
    deg_fracs = np.zeros(6)
    for s in range(5):
        core = k_core(gen_gnp(n, c, seed=spawn_seed(505, "law", s)), k).core
        sizes.append(core.n / n)
        deg = core.degrees
        for j, i in enumerate(range(k, k + 6)):
            deg_fracs[j] += np.sum(deg == i) / n
    deg_fracs /= 5
    zeta_err = abs(np.mean(sizes) - law.zeta)
    lam_err = max(
        abs(deg_fracs[j] - law.lambda_of(i))
        for j, i in enumerate(range(k, k + 6))
    )
    elapsed = time.perf_counter() - t0
    report(
        "AC5",
        zeta_err < 0.01 and lam_err < 0.01 and elapsed < 120,
        f"zeta err {zeta_err:.4f}, max lambda err {lam_err:.4f}, "
        f"{elapsed:.1f}s",
    )


def test_ac06_strip_structural_guarantees():
    rng = make_rng(606)
    violations = 0
    q_empty_halts = 0
    rows = 0
    runs = 0

    def check_run(res, k):
        nonlocal violations, rows, q_empty_halts
        for row in res.trace.rows:
            rows += 1
            if row.deleted >= 0 and row.enqueued > 4 * k * k:
                violations += 1
            if row.X != row.A + k * row.B + k**7 * res.beta_eff * row.D:
                violations += 1
        if res.halted_reason == "Q_empty":
            q_empty_halts += 1
            rep = verify_K(res.K, k)
            if not (rep.k1 and rep.k2):
                violations += 1

    while runs < 1000:
        k = int(rng.integers(2, 5))
        n = int(rng.integers(10, 70))
        c = k + 0.5 + 2.5 * rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < c / n]
        core = k_core(Graph(n, edges), k).core
        if core.n == 0:
            continue
        runs += 1
        # debug mode re-derives the queue/class/potential state as it goes
        check_run(run_strip(core, k, debug=True), k)

    for trial in range(20):
        k = (3, 5)[trial % 2]
        c = c_k_threshold(k)[0] + 0.3 + 0.1 * trial
        g = gen_gnp(20_000, c, seed=spawn_seed(606, "large", trial))
        core = k_core(g, k).core
        check_run(run_strip(core, k, beta_override=0.1, debug=True), k)
    report(
        "AC6",
        violations == 0 and q_empty_halts > 100,
        f"{runs} fuzzed + 20 large runs, {rows} trace rows, "
        f"{q_empty_halts} Q_empty halts, {violations} violations",
    )


def test_ac07_peel_order_invariance():
    g = gen_gnp(300, 5.5, seed=7)
    base = k_core(g, 3)
    base_members = set(np.flatnonzero(base.membership).tolist())
    rng = make_rng(707)
    mismatches = 0
    for _ in range(100):
        perm = rng.permutation(g.n)
        edges = sorted(
            (min(int(perm[u]), int(perm[v])), max(int(perm[u]), int(perm[v])))
            for u, v in g.edge_tuples()
        )
        shuffled = k_core(Graph(g.n, edges), 3)
        members = {int(v) for v in np.flatnonzero(shuffled.membership)}
        if members != {int(perm[v]) for v in base_members}:
            mismatches += 1
    report("AC7", mismatches == 0, f"100 relabelings, {mismatches} mismatches")


def all_pairings(copies):
    if not copies:
        yield []
        return
    first, rest = copies[0], copies[1:]
    for i, other in enumerate(rest):
        for tail in all_pairings(rest[:i] + rest[i + 1 :]):
            yield [(first, other)] + tail


def test_ac08_configuration_uniformity():
    stats = pytest.importorskip("scipy.stats")
    # involution + chi-square on the three pairings of four single copies
    buckets: dict = {}
    involution_ok = True
    for i in range(100_000):
        cfg = sample_configuration([1, 1, 1, 1], spawn_seed(303, "quad", i))
        involution_ok &= bool(np.all(cfg.mate[cfg.mate] == np.arange(4)))
        key = tuple(cfg.pairs())
        buckets[key] = buckets.get(key, 0) + 1
    quad_p = stats.chisquare(np.array(list(buckets.values()))).pvalue

    # one pinned-pair re-sampling instance against exhaustive enumeration
    degrees = np.array([3, 2, 2, 1])
    classes = [W0, W1, R, W1]
    info = rw_extract(sample_configuration(degrees, 11), classes)
    assert info.w1_pairs
    omega = set()
    for pairs in all_pairings(list(range(8))):
        mate = np.empty(8, dtype=np.int64)
        for a, b in pairs:
            mate[a], mate[b] = b, a
        cand = Configuration(degrees=degrees, mate=mate)
        if rw_extract(cand, classes) == info:
            omega.add(tuple(cand.pairs()))
    counts = {key: 0 for key in omega}
    stray = 0
    for i in range(20_000):
        out = sample_from_rw(info, spawn_seed(202, "omega", i))
        key = tuple(out.pairs())
        if key in counts:
            counts[key] += 1
        else:
            stray += 1
    omega_p = stats.chisquare(np.array(list(counts.values()))).pvalue
    report(
        "AC8",
        involution_ok and stray == 0 and quad_p > 0.01 and omega_p > 0.01,
        f"1e5 involutions ok={involution_ok}, quad p={quad_p:.3f}, "
        f"|Omega|={len(omega)} p={omega_p:.3f}, {stray} strays",
    )


def test_ac09_scan_trend():
    t0 = time.perf_counter()
    k = 5
    c_k = c_k_threshold(k)[0]
    cfg = ScanConfig(
        k=k,
        n=50_000,
        c_from=c_k - 0.5,
        c_to=c_k + 1.5,
        steps=8,
        trials=10,
        base_seed=905,
    )
    records, summary = scan(cfg)
    rates = [p["factor_found_rate"] for p in summary["points"]]
    inversions = sum(1 for a, b in zip(rates, rates[1:]) if b < a)
    below = [r for r in records if r.c == cfg.c_grid()[0]]
    empty_cores = sum(r.core_size == 0 for r in below)
    elapsed = time.perf_counter() - t0
    report(
        "AC9",
        inversions <= 2 and empty_cores >= 9 and elapsed < 1800,
        f"rates {rates}, {inversions} inversions, "
        f"below-threshold empty cores {empty_cores}/10, {elapsed:.0f}s",
    )


def test_ac10_determinism_across_threads():
    direct = [
        run_pipeline(1500, 5.0, 3, seed=42, beta_override=0.1).to_csv_row()
        .rsplit(",", 1)[0]
        for _ in range(2)
    ]
    cfg = ScanConfig(
        k=3, n=1500, c_from=4.0, c_to=6.0, steps=3, trials=4, base_seed=1001
    )
    variants = []
    for threads in (1, 4, 8):
        records, _ = scan(cfg, threads=threads)
        variants.append(
            [r.to_csv_row().rsplit(",", 1)[0] for r in records]
        )
    report(
        "AC10",
        direct[0] == direct[1]
        and variants[0] == variants[1] == variants[2],
        f"repeat identical={direct[0] == direct[1]}, "
        f"threads 1/4/8 identical={variants[0] == variants[1] == variants[2]}",
    )

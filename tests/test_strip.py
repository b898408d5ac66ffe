"""Deletion-procedure tests: hand cascades, rule semantics, invariants.

The house graph (C_5 plus one chord) is small enough to simulate by hand;
its init classification, potential values, and full deletion cascade are
frozen here.  Randomized runs are verified step by step against the
from-scratch invariant checker.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kflab.analytics import c_k_threshold
from kflab.errors import DomainError
from kflab.graphs import Graph
from kflab.kcore import k_core
from kflab.randgraph import (
    R,
    W0,
    W1,
    gen_gnp,
    sample_configuration,
    to_multigraph,
)
from kflab.rng import spawn_seed
from kflab.strip import (
    StripResult,
    StripState,
    StripTrace,
    TraceRow,
    check_state_invariants,
    enforce_parity,
    run_strip,
    strip_step,
    verify_K,
)

HOUSE = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
K5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


def queue_ids(state) -> list[int]:
    return [v for v, queued in enumerate(state.in_q) if queued]


def random_core(seed: int, k: int, lo: int = 10, hi: int = 60):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(lo, hi))
    c = float(rng.uniform(k + 0.5, 3.0 * k))
    return k_core(gen_gnp(n, c, spawn_seed(404, "fuzz", seed)), k).core


def stepwise_run(core, k, **kwargs):
    """Run to completion, re-deriving all bookkeeping from scratch after
    every deletion; returns the state."""
    state = StripState(core, k, **kwargs)
    check_state_invariants(state)
    while not state.q_empty and state.iteration < state.cap:
        strip_step(state)
        check_state_invariants(state)
    return state


# -------------------------------------------------------------- hand oracles

def test_house_init_classification_and_potential():
    st_ = StripState(HOUSE, 2, beta_override=1.0)
    assert st_.class_of == [R, W0, R, W0, W0]
    assert queue_ids(st_) == [0, 2]  # both via D2, one degree-2 neighbor
    assert (st_.A, st_.B, st_.D) == (0, 4, 2)
    row0 = st_.trace_rows[0]
    assert (row0.A, row0.B, row0.D) == (0, 4, 2)
    assert row0.X == 0 + 2 * 4 + 2**7 * 1.0 * 2
    assert row0.enqueued == 2


def test_house_first_step_moves_and_enqueues():
    st_ = StripState(HOUSE, 2, beta_override=1.0)
    row = strip_step(st_)
    assert row.deleted == 0
    # vertex 2 (degree 3 -> 2) moved from R to W1; 1 and 4 dropped below k
    assert st_.class_of[2] == W1
    assert row.enqueued == 2
    assert queue_ids(st_) == [1, 2, 4]
    check_state_invariants(st_)


def test_house_full_cascade_deletes_everything():
    res = run_strip(HOUSE, 2, beta_override=1.0, debug=True)
    assert res.halted_reason == "Q_empty"
    assert res.K.n == 0 and res.K.m == 0
    assert [r.deleted for r in res.trace.rows] == [-1, 0, 1, 2, 3, 4]
    assert [r.X for r in res.trace.rows] == [264.0, 133.0, 3.0, 2.0, 0.0, 0.0]
    assert res.trace.to_csv() == (
        "iteration,deleted,q_size,w0,w1,r,A,B,D,X,enqueued\n"
        "0,-1,2,3,0,2,0,4,2,264,2\n"
        "1,0,3,3,1,0,1,2,1,133,2\n"
        "2,1,2,2,1,0,1,1,0,3,0\n"
        "3,2,2,2,0,0,2,0,0,2,1\n"
        "4,3,1,1,0,0,0,0,0,0,0\n"
        "5,4,0,0,0,0,0,0,0,0,0\n"
    )


def test_c4_is_untouched():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    res = run_strip(c4, 2, beta_override=1.0, debug=True)
    assert res.halted_reason == "Q_empty"
    assert res.iterations == 0
    assert res.K == c4
    assert res.kept.tolist() == [0, 1, 2, 3]


def test_k5_with_k2_has_empty_queue():
    st_ = StripState(K5, 2, beta_override=1.0)
    assert st_.n_w0 == 0  # every degree is 4 = 2k, nobody is low
    assert queue_ids(st_) == []


def test_step_on_empty_queue_is_a_no_op_row():
    c8 = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
    st_ = StripState(c8, 2, beta_override=1.0)
    assert st_.q_empty
    before = (st_.iteration, list(st_.trace_rows), bytes(st_.alive))
    assert strip_step(st_) == TraceRow(0, -1, 0, 8, 0, 0, 0, 0, 0, 0.0, 0)
    assert (st_.iteration, list(st_.trace_rows), bytes(st_.alive)) == before


def test_step_after_a_run_repeats_the_last_row_as_a_no_op():
    # only a step changes the state and every step logs a row, so the
    # no-op row is the last logged row with deleted = -1 and no enqueues
    stepped = set()
    for seed in range(30):
        k = 2 + seed % 3
        host = random_core(seed, k)
        if seed % 2:
            degs = np.random.default_rng(seed).integers(k, 2 * k + 3, size=12)
            degs[0] += degs.sum() % 2
            host = to_multigraph(sample_configuration(degs, seed))
        st_ = StripState(host, k, beta_override=1.0)
        while not st_.q_empty:
            strip_step(st_)
        rows = list(st_.trace_rows)
        assert strip_step(st_) == rows[-1]._replace(deleted=-1, enqueued=0)
        assert st_.trace_rows == rows
        if st_.iteration:
            stepped.add("multigraph" if seed % 2 else "simple")
    assert stepped == {"simple", "multigraph"}


def test_zero_degree_deletion_leaves_x_unchanged():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    res = run_strip(star, 1, beta_override=1.0, debug=True)
    assert res.halted_reason == "Q_empty"
    assert [r.deleted for r in res.trace.rows] == [-1, 0, 1, 2, 3]
    # once the center is gone the leaves are isolated; deleting them cannot
    # move the potential
    tail = [r.X for r in res.trace.rows[1:]]
    assert tail == [0.0, 0.0, 0.0, 0.0]
    assert all(r.enqueued == 0 for r in res.trace.rows[2:])


def test_rejects_degree_below_k():
    with pytest.raises(DomainError):
        StripState(Graph(3, [(0, 1), (1, 2)]), 2)
    with pytest.raises(DomainError):
        run_strip(HOUSE, 0)
    # a host that is not a Graph
    with pytest.raises(DomainError):
        StripState("x", 3)


def test_k_must_be_an_integer():
    for k in (2.5, float("nan"), "2", None):
        with pytest.raises(DomainError):
            StripState(K5, k)
    assert StripState(K5, 4.0).k == 4


def test_cap_reached_halts_early():
    res = run_strip(HOUSE, 2, beta_override=0.2, debug=True)
    # cap = ceil(0.2 * 5) = 1: one deletion, queue still nonempty
    assert res.cap == 1
    assert res.iterations == 1
    assert res.halted_reason == "cap_reached"
    assert res.K.n == 4


def test_cap_uses_ambient_n():
    res = run_strip(HOUSE, 2, beta_override=0.2, ambient_n=50)
    assert res.cap == 10
    assert run_strip(HOUSE, 2, beta_override=0.2, ambient_n=50.0).cap == 10
    # the ambient graph holds the core, so it has at least core.n vertices;
    # 2.5 once capped at ceil(0.2 * 2) and -5 at -4
    for bad in (2.5, -5, 4, "x", math.nan, [50]):
        with pytest.raises(DomainError):
            run_strip(HOUSE, 2, beta_override=0.2, ambient_n=bad)


# --------------------------------------------------------- randomized checks

def test_stepwise_invariants_simple_mode():
    ran = 0
    for seed in range(40):
        for k in (2, 3, 4):
            core = random_core(seed * 3 + k, k)
            if core.n == 0:
                continue
            state = stepwise_run(core, k, beta_override=1.0)
            ran += 1
            if state.q_empty:
                res = run_strip(core, k, beta_override=1.0)
                rep = verify_K(res.K, k)
                assert rep.k1 and rep.k2
    assert ran >= 60


def test_q_empty_implies_k1_k2_with_debug():
    violations = 0
    runs = 0
    for seed in range(150):
        k = 2 + seed % 4
        core = random_core(seed, k)
        if core.n == 0:
            continue
        res = run_strip(core, k, beta_override=1.0, debug=True)
        runs += 1
        if res.halted_reason == "Q_empty":
            rep = verify_K(res.K, k)
            if not (rep.k1 and rep.k2):
                violations += 1
        for row in res.trace.rows:
            if row.deleted >= 0:  # row 0 logs the initial seeding instead
                assert row.enqueued <= 4 * k * k
            assert row.X == row.A + k * row.B + k**7 * res.beta_eff * row.D
    assert runs >= 100
    assert violations == 0


def test_debug_step_catches_broken_closure():
    # above 2000 vertices the full recomputation runs only every 200th
    # step, so the per-step closure check on the touched vertices is what
    # must catch this
    core = k_core(gen_gnp(3000, 5.0, 1), 3).core
    assert core.n > 2000
    state = StripState(core, 3, beta_override=1.0, debug=True)
    for _ in range(3):
        strip_step(state)
    # next to be deleted is v; make a neighbor y of v and a neighbor z of y
    # unqueued W1 vertices, so y ends the step with an unqueued W1 neighbor
    v = state.heap[0]
    y = next(u for u, _ in state._live_neighbors(v) if not state.in_q[u])
    z = next(u for u, _ in state._live_neighbors(y)
             if u != v and not state.in_q[u])
    state.class_of[y] = state.class_of[z] = W1
    with pytest.raises(AssertionError, match="unqueued W1 neighbor"):
        strip_step(state)


def test_debug_step_catches_unqueued_low_degree_vertex():
    # a W0 neighbor y of the next deletion v, unqueued at degree k, falls
    # to k - 1; inflating its tracked degree hides that from D3, and the
    # closure check, which recounts degrees from scratch, must catch it
    core = k_core(gen_gnp(3000, 5.0, 1), 3).core
    assert core.n > 2000
    state = StripState(core, 3, beta_override=1.0, debug=True)
    while True:
        strip_step(state)
        v = state.heap[0]
        y = next((u for u, _ in state._live_neighbors(v)
                  if state.class_of[u] == W0 and not state.in_q[u]), None)
        # the full recomputation at every 200th step would catch it first
        if y is not None and state.iteration % 200:
            break
    assert state.deg[y] == 3
    state.deg[y] += 1
    with pytest.raises(AssertionError, match="degree below k"):
        strip_step(state)


def test_queue_flags_are_sticky():
    core = random_core(7, 3)
    state = StripState(core, 3, beta_override=1.0)

    def flags():
        return [q or not live for q, live in zip(state.in_q, state.alive)]

    prev = flags()
    while not state.q_empty:
        strip_step(state)
        # a vertex leaves Q only by deletion: no True -> False transition,
        # vertex by vertex
        now = flags()
        assert all(after or not before for before, after in zip(prev, now))
        prev = now


def test_run_is_deterministic():
    core = random_core(11, 3, lo=40, hi=80)
    a = run_strip(core, 3, beta_override=1.0)
    b = run_strip(core, 3, beta_override=1.0)
    assert a.trace == b.trace
    assert a.K == b.K
    assert a.kept.tolist() == b.kept.tolist()
    assert a.trace.to_csv() == b.trace.to_csv()
    assert a.summary() == b.summary()


def test_moderate_scale_run_with_default_beta():
    k = 5
    c = c_k_threshold(k)[0] + 0.3
    g = gen_gnp(3000, c, 2024)
    core = k_core(g, k).core
    assert core.n > 0
    res = run_strip(core, k, ambient_n=3000, debug=True)
    assert res.halted_reason in ("Q_empty", "cap_reached")
    if res.halted_reason == "Q_empty":
        rep = verify_K(res.K, k, ambient_n=3000)
        assert rep.k1 and rep.k2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), k=st.integers(2, 5))
def test_strip_output_subgraph_property(seed, k):
    core = random_core(seed % 1000, k)
    if core.n == 0:
        return
    res = run_strip(core, k, beta_override=1.0)
    # K is an induced subgraph of the core on the kept vertices
    keep = np.zeros(core.n, dtype=bool)
    keep[res.kept] = True
    expect, _ = core.induced_subgraph(keep)
    assert res.K == expect
    assert res.iterations + res.K.n == core.n


# ------------------------------------------------------------- golden traces

def golden_cases(sizes=(300, 3000, 20000)):
    """Seeded k-cores of G(n, (c_k+0.5)/n) and configuration multigraphs on
    their degree sequences, each stripped with beta 0.1 (halts at
    cap_reached) and 1.0 (halts at Q_empty)."""
    for k in (3, 4, 5, 6):
        for n in sizes:
            seed = spawn_seed(8, "golden", k, n)
            core = k_core(gen_gnp(n, c_k_threshold(k)[0] + 0.5, seed), k).core
            multi = to_multigraph(
                sample_configuration(core.degrees, spawn_seed(seed, "config"))
            )
            for mode, host in (("simple", core), ("multigraph", multi)):
                for beta in (0.1, 1.0):
                    yield f"k{k}-n{n}-{mode}-b{beta}", host, k, n, beta


def strip_digest(res) -> str:
    """sha256 over the trace CSV, K's edge rows, multiplicities and loops,
    the kept ids and the halt reason."""
    h = hashlib.sha256()
    for part in (
        res.trace.to_csv().encode(),
        res.K.edge_array.tobytes(),
        b"-" if res.K.mult is None else res.K.mult.tobytes(),
        b"-" if res.K.loops is None else res.K.loops.tobytes(),
        res.kept.tobytes(),
        res.halted_reason.encode(),
    ):
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()[:16]


GOLDEN_STRIP_DIGESTS = {
    "k3-n300-simple-b0.1": "5fdc147c0fdf8888",
    "k3-n300-simple-b1.0": "ba344a736fdf0ba7",
    "k3-n300-multigraph-b0.1": "a188eae3392f2f10",
    "k3-n300-multigraph-b1.0": "3edff374e6ef13eb",
    "k3-n3000-simple-b0.1": "619b516fa8fdea47",
    "k3-n3000-simple-b1.0": "98355784e791e589",
    "k3-n3000-multigraph-b0.1": "3b19eff13fe44098",
    "k3-n3000-multigraph-b1.0": "b1add589b73300c1",
    "k3-n20000-simple-b0.1": "9204d71f85d7076d",
    "k3-n20000-simple-b1.0": "cdcf1bcd30d3bf83",
    "k3-n20000-multigraph-b0.1": "e7fe262cb0e6b5e1",
    "k3-n20000-multigraph-b1.0": "3d7c921878072ad6",
    "k4-n300-simple-b0.1": "2d0dce6317a5ed41",
    "k4-n300-simple-b1.0": "cd99503cae202068",
    "k4-n300-multigraph-b0.1": "fd30382790617069",
    "k4-n300-multigraph-b1.0": "ece27572c2b8e9be",
    "k4-n3000-simple-b0.1": "911f39e1414209db",
    "k4-n3000-simple-b1.0": "d5b7de0cfd987bd4",
    "k4-n3000-multigraph-b0.1": "3b0456ba709aea3a",
    "k4-n3000-multigraph-b1.0": "854a29b1e5d54a14",
    "k4-n20000-simple-b0.1": "9104ac4d32fb35a0",
    "k4-n20000-simple-b1.0": "1b7e59d955838801",
    "k4-n20000-multigraph-b0.1": "079d61fe72434d94",
    "k4-n20000-multigraph-b1.0": "3bf55dbb7e9f0e21",
    "k5-n300-simple-b0.1": "3e627f2f4cec6914",
    "k5-n300-simple-b1.0": "41df527721e6a04f",
    "k5-n300-multigraph-b0.1": "cd2ffad22e99ff35",
    "k5-n300-multigraph-b1.0": "36683b72cf9f8163",
    "k5-n3000-simple-b0.1": "d96b9a77ce528353",
    "k5-n3000-simple-b1.0": "a5338807c19818b7",
    "k5-n3000-multigraph-b0.1": "a5da6ce190563dc3",
    "k5-n3000-multigraph-b1.0": "904ba7a73b49d95e",
    "k5-n20000-simple-b0.1": "1f34f81958aefcb3",
    "k5-n20000-simple-b1.0": "e9c22da6df426a33",
    "k5-n20000-multigraph-b0.1": "99e1d25439628358",
    "k5-n20000-multigraph-b1.0": "6e3bbfc341ea1b9b",
    "k6-n300-simple-b0.1": "53c44a01fac00fb1",
    "k6-n300-simple-b1.0": "ccb7c8647063b548",
    "k6-n300-multigraph-b0.1": "1583a3447a673183",
    "k6-n300-multigraph-b1.0": "ec84e1011878a344",
    "k6-n3000-simple-b0.1": "adfbe1d0b72634bb",
    "k6-n3000-simple-b1.0": "7a0dbb545826fe6a",
    "k6-n3000-multigraph-b0.1": "53e6d514b3a4c554",
    "k6-n3000-multigraph-b1.0": "703fdc2fb3eb547a",
    "k6-n20000-simple-b0.1": "dd79c3178575f365",
    "k6-n20000-simple-b1.0": "51c4ec4ceb46f8cb",
    "k6-n20000-multigraph-b0.1": "5c4ad2e60cc36f91",
    "k6-n20000-multigraph-b1.0": "b111d4816c5b278f",
}


def test_golden_strip_traces():
    digests, reasons = {}, set()
    for name, host, k, n, beta in golden_cases():
        res = run_strip(host, k, beta_override=beta, ambient_n=n)
        digests[name] = strip_digest(res)
        reasons.add(res.halted_reason)
    assert reasons == {"Q_empty", "cap_reached"}
    assert digests == GOLDEN_STRIP_DIGESTS


def test_golden_strip_traces_with_debug():
    # the debug checks read the same state as the deletion loop and must
    # leave the run unchanged
    ran = 0
    for name, host, k, n, beta in golden_cases(sizes=(300, 3000)):
        res = run_strip(host, k, beta_override=beta, ambient_n=n, debug=True)
        assert strip_digest(res) == GOLDEN_STRIP_DIGESTS[name], name
        ran += 1
    assert ran == 32


def queue_set_digest(host, k, beta) -> str:
    """sha256 over the queued set after each step of a run."""
    state = StripState(host, k, beta_override=beta)
    h = hashlib.sha256()
    while not state.q_empty and state.iteration < state.cap:
        strip_step(state)
        queued = np.frombuffer(state.in_q, dtype=bool) & np.frombuffer(
            state.alive, dtype=bool)
        h.update(hashlib.sha256(np.flatnonzero(queued).tobytes()).digest())
    return h.hexdigest()[:16]


# simple k-cores of G(n, (c_k+0.5)/n) and configuration multigraphs on
# their degree sequences, which carry parallel edges and loops
QUEUE_SET_DIGESTS = {
    "k3-n400-simple-b0.1": "b51c3ac1a44b4e4e",
    "k3-n400-simple-b1.0": "1865ab2e2ce3bf67",
    "k3-n400-multigraph-b0.1": "e2dac5fe7b24bde9",
    "k3-n400-multigraph-b1.0": "c34787f68859768a",
    "k3-n3000-simple-b0.1": "cc2a99464677b4f9",
    "k3-n3000-simple-b1.0": "6d383663ea155303",
    "k3-n3000-multigraph-b0.1": "a85945314560caea",
    "k3-n3000-multigraph-b1.0": "03d34d6951bf2db0",
    "k3-n20000-simple-b0.1": "d676e58e489099dc",
    "k3-n20000-simple-b1.0": "9124727c2bb090e8",
    "k3-n20000-multigraph-b0.1": "32541cee643539b6",
    "k3-n20000-multigraph-b1.0": "4fcccce12c27657c",
    "k5-n400-simple-b0.1": "043b5489585a9317",
    "k5-n400-simple-b1.0": "6e569d3509763049",
    "k5-n400-multigraph-b0.1": "a26393f40e55e8ae",
    "k5-n400-multigraph-b1.0": "eff4a6d6775838f3",
    "k5-n3000-simple-b0.1": "d61dcd3a87879e51",
    "k5-n3000-simple-b1.0": "9ee16f68b1a260e8",
    "k5-n3000-multigraph-b0.1": "c031e609c2f97f64",
    "k5-n3000-multigraph-b1.0": "83a1d38f6b263b8f",
    "k5-n20000-simple-b0.1": "cd90e46418f2ca38",
    "k5-n20000-simple-b1.0": "ed21f0b5f27989d4",
    "k5-n20000-multigraph-b0.1": "06786dbbc2c0aa19",
    "k5-n20000-multigraph-b1.0": "eaf530f534394864",
    "k8-n400-simple-b0.1": "608863be1820edcf",
    "k8-n400-simple-b1.0": "ea522df4d8811bd2",
    "k8-n400-multigraph-b0.1": "04087ec33f35192e",
    "k8-n400-multigraph-b1.0": "b0e781985b4a763b",
    "k8-n3000-simple-b0.1": "28b6c55d427c015b",
    "k8-n3000-simple-b1.0": "fcc2f727a14be999",
    "k8-n3000-multigraph-b0.1": "ed0e9a70fe03aab2",
    "k8-n3000-multigraph-b1.0": "5c557285e6789cc7",
    "k8-n20000-simple-b0.1": "fb2c64c7c7a40964",
    "k8-n20000-simple-b1.0": "607c6b765918d6a4",
    "k8-n20000-multigraph-b0.1": "905b5295e9a11f2d",
    "k8-n20000-multigraph-b1.0": "c73ae9ee9415f7a8",
}


def test_queue_sets_per_step():
    digests = {}
    for k in (3, 5, 8):
        for n in (400, 3000, 20000):
            seed = spawn_seed(26, "queue", k, n)
            core = k_core(gen_gnp(n, c_k_threshold(k)[0] + 0.5, seed), k).core
            multi = to_multigraph(
                sample_configuration(core.degrees, spawn_seed(seed, "config"))
            )
            assert multi.mult is not None and multi.loops is not None
            for mode, host in (("simple", core), ("multigraph", multi)):
                for beta in (0.1, 1.0):
                    name = f"k{k}-n{n}-{mode}-b{beta}"
                    digests[name] = queue_set_digest(host, k, beta)
    assert digests == QUEUE_SET_DIGESTS


# the 5-core of G(50000, (c_5+0.5)/n) with gen_gnp seed 1 or 2, and the
# configuration multigraph on its degree sequence: the scan's own size
SCAN_SIZE_STRIP_DIGESTS = {
    "seed1-simple": "842ad39be73c104a",
    "seed1-multigraph": "1f6d034c134d7217",
    "seed2-simple": "e977f1c3251fe2f4",
    "seed2-multigraph": "0bc5bb567805611e",
}


def test_scan_size_strip_digests():
    k, n = 5, 50000
    digests = {}
    for seed in (1, 2):
        core = k_core(gen_gnp(n, c_k_threshold(k)[0] + 0.5, seed), k).core
        multi = to_multigraph(
            sample_configuration(core.degrees, spawn_seed(seed, "config"))
        )
        for mode, host in (("simple", core), ("multigraph", multi)):
            res = run_strip(host, k, beta_override=0.1, ambient_n=n)
            assert res.halted_reason == "cap_reached"
            digests[f"seed{seed}-{mode}"] = strip_digest(res)
    assert digests == SCAN_SIZE_STRIP_DIGESTS


def test_state_reads_host_csr_without_copy():
    core = random_core(3, 3, lo=40, hi=80)
    multi = to_multigraph(
        sample_configuration(core.degrees, spawn_seed(3, "config"))
    )
    assert multi.mult is not None
    for host in (core, multi):
        state = StripState(host, 3, beta_override=1.0)
        xadj, adjv, adjm = host.csr()
        views = [(state.xadj, xadj), (state.nbr, adjv)]
        if adjm is not None:
            views.append((state.nmult, adjm))
        for view, array in views:
            assert np.shares_memory(np.asarray(view), array)
            assert list(view) == array.tolist()
        if adjm is None:
            assert list(state.nmult) == [1] * len(adjv)


# ------------------------------------------------------------ multigraph mode

def hand_multigraph():
    # 0 =2= 1, 0 - 2, 1 - 2, loop at 2: degrees 3, 3, 4
    return Graph.from_pairs(3, [(0, 1), (1, 0), (0, 2), (1, 2), (2, 2)])


def test_multigraph_hand_cascade():
    mg = hand_multigraph()
    assert mg.degrees.tolist() == [3, 3, 4]
    st_ = StripState(mg, 3, beta_override=1.0)
    assert st_.class_of == [W0, W0, R]
    # D2 at vertex 2: two distinct W0 neighbors but multiplicity-counted
    # degree into W0 is 2, and 2*2 >= 3
    assert queue_ids(st_) == [2]
    # 0 and 1 see each other (multiplicity 2); 2's loop does not count
    # because 2 is not in W0, its two single edges into W0 do
    assert st_.deg_w0 == [2, 2, 2]
    res = run_strip(mg, 3, beta_override=1.0, debug=True)
    assert res.halted_reason == "Q_empty"
    assert res.K.n == 0
    assert [r.deleted for r in res.trace.rows] == [-1, 2, 0, 1]


def test_multigraph_loop_counts_toward_own_w0_degree():
    # two vertices joined by a double edge plus a loop at each: degrees 4, 4
    mg = Graph.from_pairs(2, [(0, 1), (0, 1), (0, 0), (1, 1)])
    st_ = StripState(mg, 4, beta_override=1.0)
    assert st_.class_of == [W0, W0]
    assert st_.deg_w0 == [4, 4]  # 2 from the loop + 2 to the other
    check_state_invariants(st_)


def test_multigraph_stepwise_invariants():
    ran = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        n = int(rng.integers(4, 12))
        degs = rng.integers(k, 2 * k + 2, size=n)
        if degs.sum() % 2:
            degs[0] += 1
        mg = to_multigraph(
            sample_configuration(degs, spawn_seed(777, "mg", seed))
        )
        state = stepwise_run(mg, k, beta_override=1.0)
        ran += 1
        live_deg = [d for d, live in zip(state.deg, state.alive) if live]
        if state.q_empty and live_deg:
            assert min(live_deg) >= k
            assert max(live_deg) <= 2 * k
    assert ran == 40


# ------------------------------------------------------------- verify and K4

def test_verify_k_reports():
    k4graph = gen_gnp(4, 4.0, 0)
    rep = verify_K(k4graph, 3)
    assert rep.k1 and rep.k2 and rep.k4 and rep.k3 is None
    star = Graph(6, [(0, i) for i in range(1, 6)])
    rep = verify_K(star, 1)
    assert not rep.k1  # center degree 5 > 2k
    rep = verify_K(k4graph, 3, ambient_n=13)
    assert rep.k3 is False
    rep = verify_K(k4graph, 3, ambient_n=12)
    assert rep.k3 is True
    empty = Graph(0, [])
    rep = verify_K(empty, 3, ambient_n=9)
    assert rep.k1 and rep.k2 and rep.k4 and rep.k3 is False
    assert verify_K(k4graph, 3, ambient_n=12.0) == verify_K(k4graph, 3, ambient_n=12)
    # 'x' once raised a bare TypeError; an ambient graph holds K
    for bad in ("x", 2.5, 3, -1):
        with pytest.raises(DomainError):
            verify_K(k4graph, 3, ambient_n=bad)
    # k = 2.5 once tested degrees against [2.5, 5]; '3' raised UFuncTypeError
    for bad in (2.5, "3"):
        with pytest.raises(DomainError):
            verify_K(k4graph, bad)
    assert verify_K(k4graph, 3.0) == verify_K(k4graph, 3)
    # K must be a Graph: each once raised a bare AttributeError
    for bad in (None, "abc"):
        with pytest.raises(DomainError):
            verify_K(bad, 3)


def test_enforce_parity_none_when_even():
    res = run_strip(K5, 2, beta_override=1.0)
    out = enforce_parity(res)  # 2 * 5 = 10 even
    assert out.k4_action == "none" and out.K.n == 5


def test_enforce_parity_deletes_from_k5():
    res = run_strip(K5, 3, beta_override=1.0)
    assert res.K.n == 5  # 3 * 5 = 15 odd
    # None once raised a bare AttributeError
    with pytest.raises(DomainError):
        enforce_parity(None)
    out = enforce_parity(res)
    assert out.k4_action == "deleted"
    assert out.k4_vertex == 0
    assert out.K.n == 4
    assert out.K.degrees.tolist() == [3, 3, 3, 3]
    rep = verify_K(out.K, 3)
    assert rep.k1 and rep.k2 and rep.k4


def test_enforce_parity_failure_case():
    # K_5 minus one edge with k = 3: |K| odd, every high vertex keeps a
    # degree-3 neighbor, so no vertex is eligible
    g = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)
                  if (i, j) != (3, 4)])
    rep = verify_K(g, 3)
    assert rep.k1 and rep.k2 and not rep.k4
    res = run_strip(g, 3, beta_override=1e-9)
    assert res.cap == 1
    fake = dataclasses.replace(res, K=g, kept=np.arange(5))
    out = enforce_parity(fake)
    assert out.k4_action == "failed"
    assert out.K.n == 5


def test_enforce_parity_matches_vertex_scan():
    # reference: the least-id vertex of degree > k whose neighbors all have
    # degree > k, found by scanning vertices in order
    outcomes = set()
    for seed in range(60):
        k = 2 + seed % 3
        core = random_core(seed, k, lo=5, hi=30)
        if seed % 2:
            degs = np.random.default_rng(seed).integers(k, 2 * k + 3, size=9)
            degs[0] += degs.sum() % 2
            core = to_multigraph(sample_configuration(degs, seed))
        if core.n == 0:
            continue
        res = run_strip(core, k, beta_override=1e-9)
        assert res.cap == 1
        deg = res.K.degrees
        adj = res.K.adjacency()
        expect = next(
            (v for v in range(res.K.n)
             if deg[v] > k and all(deg[u] > k for u in adj[v])),
            None,
        )
        out = enforce_parity(res)
        if (k * res.K.n) % 2 == 0:
            assert out.k4_action == "none"
        elif expect is None:
            assert out.k4_action == "failed"
        else:
            keep = np.ones(res.K.n, dtype=bool)
            keep[expect] = False
            assert out.k4_action == "deleted"
            assert out.k4_vertex == int(res.kept[expect])
            assert out.K == res.K.induced_subgraph(keep)[0]
        outcomes.add(out.k4_action)
    # the "failed" branch is pinned by test_enforce_parity_failure_case
    assert {"none", "deleted"} <= outcomes

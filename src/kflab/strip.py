"""Queue-driven deletion on a k-core with class tracking and a potential trace.

Vertices are partitioned into W0 (initial degree exactly k), W1 (fell to
degree <= k later), and R (current degree > k).  A sticky rule system
decides queue membership:

  D1  initial degree > 2k
  D2  not in W0 and at least k/2 initial neighbors in W0
  D3  current degree < k
  D4  in R with at least two distinct W1 neighbors
  D5  in W1 with a neighbor that is W1, or R-and-flagged
  D6  a vertex leaves Q only by deletion

Each iteration deletes the least-id queued vertex, moves R neighbors whose
degree fell to <= k into W1, and re-evaluates D3-D5 on the affected
neighborhood (D5 after all moves of the iteration).  The trace logs the
weighted queue potential X = A + k B + k^7 beta D per iteration.

On a multigraph (a Graph with multiplicities and loops) a loop adds 2 to
its vertex's degree and never makes a vertex its own neighbor; parallel
edges count with multiplicity in degrees and in the D2 threshold, while the
W1-neighbor counts of D4/D5 are over distinct vertices.  The remainder K
keeps the multiplicities and loops of its part of the input.

The deletion loop reads the host's cached CSR arrays through memoryviews
and keeps the per-vertex state in Python lists and bytearrays (layout in
StripState); numpy seeds the D1/D2 queue and its potential in one masked
pass, and serves _finalize and the from-scratch checker.

Debug runs assert the three queue-closure properties (a W1 vertex, and a
queued R vertex, has no unqueued W1 neighbor; an unqueued R vertex has at
most one W1 neighbor) after every deletion, recomputed from scratch on
each live vertex whose closure the deletion could have broken.  They hold
trivially after init, where W1 is empty.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .analytics import default_beta
from .errors import DomainError
from .graphs import Graph, _graph, _integer, _real
from .randgraph import R, W0, W1

__all__ = [
    "StripState",
    "strip_cap",
    "TraceRow",
    "StripTrace",
    "StripResult",
    "KReport",
    "strip_step",
    "run_strip",
    "verify_K",
    "enforce_parity",
    "check_state_invariants",
]

class TraceRow(NamedTuple):
    """One iteration; the fields, in order, are the trace CSV columns."""

    iteration: int
    deleted: int  # vertex id, -1 for the initial row / no-op
    q_size: int
    w0: int
    w1: int
    r: int
    A: int
    B: int
    D: int
    X: float
    enqueued: int


def _csv_cell(value) -> str:
    """One CSV cell: a bool as 0 or 1, a float to 10 significant digits."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


@dataclass(frozen=True)
class StripTrace:
    rows: tuple[TraceRow, ...]

    def to_csv(self) -> str:
        lines = [",".join(TraceRow._fields)]
        lines.extend(",".join(map(_csv_cell, row)) for row in self.rows)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class KReport:
    k1: bool
    k2: bool
    k3: bool | None
    k4: bool


@dataclass(frozen=True)
class StripResult:
    K: Graph
    kept: np.ndarray  # input-space ids of the vertices of K (ascending)
    halted_reason: str  # Q_empty | cap_reached
    trace: StripTrace
    iterations: int
    cap: int
    beta_eff: float
    k: int
    k4_action: str = "none"  # none | deleted | failed
    k4_vertex: int | None = None

    def summary(self) -> dict:
        """The run's outcome as JSON-ready values, in kflab strip's order."""
        return {
            "k": self.k,
            "halted_reason": self.halted_reason,
            "iterations": self.iterations,
            "cap": self.cap,
            "beta_eff": self.beta_eff,
            "k_size": int(self.K.n),
            "k_edges": int(self.K.m),
            "k4_action": self.k4_action,
            "k4_vertex": self.k4_vertex,
        }


def strip_cap(
    k: int,
    n: int,
    beta_override: float | None = None,
) -> tuple[float, int]:
    """(beta_eff, cap) of a run whose ambient graph has n vertices.

    beta_eff is beta_override if given, else e^(-k/200), and must be a
    positive and finite number.  cap = ceil(beta_eff * n).
    """
    if beta_override is None:
        beta = default_beta(k)
    else:
        beta = _real(beta_override, "beta_override")
    if not 0 < beta < math.inf:
        raise DomainError(f"beta must be positive and finite, got {beta}")
    if not beta * n < math.inf:
        raise DomainError(f"beta * n must be finite, got {beta} * {n}")
    return beta, int(math.ceil(beta * n))


class StripState:
    """Mutable engine state; single-owner, stepped by strip_step.

    The per-vertex counts are Python lists: deg and deg_w0 (edge ends,
    and those into W0), class_of and w1n (distinct live W1 neighbors).
    alive and in_q are bytearrays; in_q is the one queue flag, set when a
    rule first fires and cleared only by deletion.  The heap holds the
    queued ids.  xadj, nbr (neighbor ids) and nmult (their multiplicities)
    are memoryviews of the host's cached csr() arrays, not copies; on a
    simple host nmult views a single 1 repeated.  numpy is used only to
    build the state, in _finalize and in check_state_invariants.

    __init__ logs trace row 0 and each strip_step its own row: |Q| is the
    heap's length (a vertex leaves it only by deletion), and |R| is
    |core| - iteration - |W0| - |W1|, as each iteration deletes one vertex.
    """

    def __init__(
        self,
        core: Graph,
        k: int,
        beta_override: float | None = None,
        ambient_n: int | None = None,
        debug: bool = False,
    ):
        k = _integer(k, 1, "k")
        _graph(core, "core")
        n = core.n
        deg = core.degrees
        if n and int(deg.min()) < k:
            raise DomainError(
                f"strip requires minimum degree >= k={k}, found {int(deg.min())}"
            )

        self.core = core
        self.k = k
        self.n = n
        # the ambient graph holds the core
        self.ambient_n = n if ambient_n is None else _integer(ambient_n, n, "ambient_n")
        self.beta_eff, self.cap = strip_cap(k, self.ambient_n, beta_override)
        self.k7b = float(k) ** 7 * self.beta_eff
        self.debug = debug

        xadj, adjv, adjm = core.csr()
        if adjm is None:
            adjm = np.broadcast_to(np.int64(1), adjv.shape)
        self.xadj = memoryview(xadj)
        self.nbr = memoryview(adjv)
        self.nmult = memoryview(adjm)

        # edge ends from each vertex into W0, a loop inside W0 counting 2
        w0 = deg == k
        deg_w0 = core.neighbors_in(w0, core.mult)
        if core.loops is not None:
            deg_w0 += 2 * core.loops * w0
        # D1 and D2 over the initial core; W1 is empty so no other rule
        # fires.  Ascending ids already form a heap.
        q = (deg > 2 * k) | (~w0 & (2 * deg_w0 >= k))
        self.heap: list[int] = np.flatnonzero(q).tolist()
        self.A = int(deg_w0[q & w0].sum())
        self.B = int(deg_w0[q & ~w0].sum())
        self.D = int((deg - deg_w0)[q].sum())
        self.n_w0 = int(w0.sum())
        self.n_w1 = 0

        self.deg = deg.tolist()
        self.deg_w0 = deg_w0.tolist()
        self.class_of = np.where(w0, W0, R).tolist()
        self.alive = bytearray(b"\x01") * n
        self.w1n = [0] * n
        self.in_q = bytearray(q.tobytes())
        self.iteration = 0
        x = self.A + k * self.B + self.k7b * self.D
        self.trace_rows = [TraceRow(0, -1, len(self.heap), self.n_w0, 0,
                                    n - self.n_w0, self.A, self.B, self.D, x,
                                    len(self.heap))]

    # ------------------------------------------------------------- internals

    def _live_neighbors(self, v: int) -> list[tuple[int, int]]:
        """(neighbor, multiplicity) over live distinct neighbors of v."""
        a, b = self.xadj[v], self.xadj[v + 1]
        alive = self.alive
        return [
            (u, m) for u, m in zip(self.nbr[a:b], self.nmult[a:b]) if alive[u]
        ]

    @property
    def q_empty(self) -> bool:
        return not self.heap


def strip_step(state: StripState) -> TraceRow:
    """Delete the least-id queued vertex and propagate rule re-evaluation.

    Returns the logged iteration row; a no-op row (deleted = -1, nothing
    mutated or logged) if the queue is empty.
    """
    s = state
    # the full recomputation is O(n + m), so large debug runs stride it
    if s.debug and s.iteration % (1 if s.n <= 2000 else 200) == 0:
        check_state_invariants(s)
    heap = s.heap
    if not heap:
        # only a step changes the state, and each step logs its row
        return s.trace_rows[-1]._replace(deleted=-1, enqueued=0)
    v = heapq.heappop(heap)
    s.iteration += 1
    k, xadj, nbr, nmult = s.k, s.xadj, s.nbr, s.nmult
    deg, deg_w0, class_of = s.deg, s.deg_w0, s.class_of
    alive, in_q, w1n = s.alive, s.in_q, s.w1n
    A, B, D = s.A, s.B, s.D
    n_w0, n_w1 = s.n_w0, s.n_w1

    # 2a: remove v from the graph and the queue, with its potential share
    v_cls = class_of[v]
    alive[v] = in_q[v] = 0
    if v_cls == W0:
        A -= deg_w0[v]
        n_w0 -= 1
    else:
        B -= deg_w0[v]
        if v_cls == W1:
            n_w1 -= 1
    D -= deg[v] - deg_w0[v]

    # flag(w) is the step's one enqueue; each caller has checked that w is
    # not yet in Q, and w joins Q (in_q) as it is found
    flagged: list[int] = []

    def flag(w: int) -> None:
        in_q[w] = 1
        flagged.append(w)

    # one walk over v's live neighbors: their degrees and potential shares,
    # then D3 on each
    neighbors: list[int] = []
    a, b = xadj[v], xadj[v + 1]
    for u, m in zip(nbr[a:b], nmult[a:b]):
        if not alive[u]:
            continue
        neighbors.append(u)
        deg[u] -= m
        if v_cls == W0:
            deg_w0[u] -= m
            if in_q[u]:
                if class_of[u] == W0:
                    A -= m
                else:
                    B -= m
        elif in_q[u]:
            D -= m
        if v_cls == W1:
            w1n[u] -= 1
        if deg[u] < k and not in_q[u]:
            flag(u)

    # 2b: R neighbors whose degree fell to at most k move to W1, each with
    # its live neighbor ids, read once
    moved = []
    for u in neighbors:
        if class_of[u] == R and deg[u] <= k:
            class_of[u] = W1
            a, b = xadj[u], xadj[u + 1]
            u_neighbors = [z for z in nbr[a:b] if alive[z]]
            for z in u_neighbors:
                w1n[z] += 1
            moved.append((u, u_neighbors))
    n_w1 += len(moved)

    # 2c phase 1: D5 on movers and D4/D5 around them, reading the post-move
    # state.  A mover may so see an R vertex that D4 flagged earlier in
    # this loop; phase 2 would flag that mover from it anyway.
    for u, u_neighbors in moved:
        if not in_q[u] and (
            w1n[u] >= 1 or any(class_of[z] == R and in_q[z] for z in u_neighbors)
        ):
            flag(u)
        for z in u_neighbors:
            cls = class_of[z]  # D5: a W1 z gained the W1 neighbor u; or D4
            if (cls == W1 or (cls == R and w1n[z] >= 2)) and not in_q[z]:
                flag(z)

    # 2c phase 2: push each flagged vertex with its potential share; a
    # flagged R vertex flags its W1 neighbors (D5), which this same loop
    # then reaches at the end of the list
    for z in flagged:
        heapq.heappush(heap, z)
        cls = class_of[z]
        if cls == W0:
            A += deg_w0[z]
        else:
            B += deg_w0[z]
        D += deg[z] - deg_w0[z]
        if cls == R:
            a, b = xadj[z], xadj[z + 1]
            for w in nbr[a:b]:
                if alive[w] and class_of[w] == W1 and not in_q[w]:
                    flag(w)

    s.A, s.B, s.D = A, B, D
    s.n_w0, s.n_w1 = n_w0, n_w1
    enqueued = len(flagged)
    if s.debug:
        assert enqueued <= 4 * k * k, (
            f"iteration {s.iteration}: {enqueued} enqueues exceed 4k^2"
        )
        # deleting v, moving movers to W1 and enqueueing can break closure
        # only at these vertices; enqueueing never breaks it at a neighbor
        touched = neighbors + flagged
        for _, u_neighbors in moved:
            touched.extend(u_neighbors)
        _check_closure(s, set(touched))
    row = TraceRow(s.iteration, v, len(heap), n_w0, n_w1,
                   s.n - s.iteration - n_w0 - n_w1, A, B, D,
                   A + k * B + s.k7b * D, enqueued)
    s.trace_rows.append(row)
    return row


def _finalize(state: StripState, halted_reason: str) -> StripResult:
    s = state
    if s.debug:
        check_state_invariants(s)
    K, kept = s.core.induced_subgraph(np.frombuffer(s.alive, dtype=bool))
    return StripResult(
        K=K,
        kept=kept,
        halted_reason=halted_reason,
        trace=StripTrace(rows=tuple(s.trace_rows)),
        iterations=s.iteration,
        cap=s.cap,
        beta_eff=s.beta_eff,
        k=s.k,
    )


def run_strip(
    core,
    k: int,
    beta_override: float | None = None,
    ambient_n: int | None = None,
    debug: bool = False,
) -> StripResult:
    """Iterate deletions until the queue empties or the iteration cap hits.

    The cap is strip_cap's, with n the ambient vertex count (defaulting to
    the core size).  Identical inputs give identical results, trace
    included.
    """
    state = StripState(
        core,
        k,
        beta_override=beta_override,
        ambient_n=ambient_n,
        debug=debug,
    )
    while True:
        if state.q_empty:
            return _finalize(state, "Q_empty")
        if state.iteration >= state.cap:
            return _finalize(state, "cap_reached")
        strip_step(state)


def verify_K(K: Graph, k: int, ambient_n: int | None = None) -> KReport:
    """Check the target properties of a stripped remainder.

    K1: every degree in [k, 2k].  K2: every vertex of degree >= k+1 has at
    most floor(9k/10) distinct neighbors of degree exactly k.  K3: |K| >=
    n/3 when the ambient n is supplied (None otherwise).  K4: k|K| even.
    Degrees count multiplicity, and loops twice.
    """
    _graph(K, "K")
    k = _integer(k, 1, "k")
    if ambient_n is not None:
        ambient_n = _integer(ambient_n, K.n, "ambient_n")
    deg = K.degrees
    k1 = bool(np.all((deg >= k) & (deg <= 2 * k)))
    low_nbrs = K.neighbors_in(deg == k)
    k2 = bool(np.all(low_nbrs[deg >= k + 1] <= (9 * k) // 10))
    k3 = None if ambient_n is None else bool(K.n >= ambient_n / 3)
    k4 = (k * K.n) % 2 == 0
    return KReport(k1=k1, k2=k2, k3=k3, k4=k4)


def enforce_parity(result: StripResult, k: int) -> StripResult:
    """Delete one vertex to make k|K| even, if needed and possible.

    The vertex chosen is the least-id one with degree > k all of whose
    neighbors also have degree > k; removing it keeps every degree >= k.
    """
    if not isinstance(result, StripResult):
        raise DomainError(f"result must be a StripResult, got {type(result).__name__}")
    k = _integer(k, 1, "k")
    if (k * result.K.n) % 2 == 0:
        return replace(result, k4_action="none", k4_vertex=None)
    deg = result.K.degrees
    eligible = np.flatnonzero((deg > k) & (result.K.neighbors_in(deg <= k) == 0))
    if len(eligible) == 0:
        return replace(result, k4_action="failed", k4_vertex=None)
    v = int(eligible[0])
    keep = np.ones(result.K.n, dtype=bool)
    keep[v] = False
    new_K, _ = result.K.induced_subgraph(keep)
    return replace(
        result,
        K=new_K,
        kept=result.kept[keep],
        k4_action="deleted",
        k4_vertex=int(result.kept[v]),
    )


def check_state_invariants(state: StripState) -> None:
    """From-scratch recomputation of every maintained quantity; raises on
    any mismatch.  Cost O(n + m); used by debug runs and tests."""
    s = state
    loops = [0] * s.n if s.core.loops is None else s.core.loops.tolist()
    deg = np.zeros(s.n, dtype=np.int64)
    deg_w0 = np.zeros(s.n, dtype=np.int64)
    w1n = np.zeros(s.n, dtype=np.int64)
    for v in range(s.n):
        if not s.alive[v]:
            continue
        deg[v] += 2 * loops[v]
        if s.class_of[v] == W0:
            deg_w0[v] += 2 * loops[v]
        for u, m in s._live_neighbors(v):
            deg[v] += m
            if s.class_of[u] == W0:
                deg_w0[v] += m
            if s.class_of[u] == W1:
                w1n[v] += 1
    live = np.frombuffer(s.alive, dtype=bool)
    for scratch, tracked, what in (
        (deg, s.deg, "degree bookkeeping"),
        (deg_w0, s.deg_w0, "deg_w0 bookkeeping"),
        (w1n, s.w1n, "W1-neighbor counts"),
    ):
        assert np.array_equal(scratch[live], np.array(tracked)[live]), f"{what} drifted"

    cls = np.array(s.class_of)
    assert np.all((cls[live] == R) == (deg[live] > s.k)), "R must be exactly degree > k"
    assert s.n_w0 == int(np.sum(live & (cls == W0)))
    assert s.n_w1 == int(np.sum(live & (cls == W1)))
    assert s.n - s.iteration - s.n_w0 - s.n_w1 == int(np.sum(live & (cls == R)))

    q = live & np.frombuffer(s.in_q, dtype=bool)
    A = int(np.sum(deg_w0[q & (cls == W0)]))
    B = int(np.sum(deg_w0[q & (cls != W0)]))
    D = int(np.sum((deg - deg_w0)[q]))
    assert (A, B, D) == (s.A, s.B, s.D), (
        f"potential drifted: scratch {(A, B, D)} vs tracked {(s.A, s.B, s.D)}"
    )

    _check_closure(s, np.flatnonzero(live).tolist())


def _check_closure(state: StripState, vertices) -> None:
    """Assert the three queue-closure properties at each live vertex given,
    from its current neighborhood."""
    s = state
    for v in vertices:
        if not s.alive[v] or s.class_of[v] == W0:
            continue
        w1 = [u for u, _ in s._live_neighbors(v) if s.class_of[u] == W1]
        unqueued = sum(1 for u in w1 if not s.in_q[u])
        if s.class_of[v] == W1:
            assert unqueued == 0, f"W1 vertex {v} keeps an unqueued W1 neighbor"
        elif s.in_q[v]:
            assert unqueued == 0, f"queued R vertex {v} keeps an unqueued W1 neighbor"
        else:
            assert len(w1) <= 1, f"unqueued R vertex {v} has two W1 neighbors"

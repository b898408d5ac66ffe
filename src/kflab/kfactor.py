"""k-regular spanning subgraph search, verification, and diagnostics.

Tutte's f-factor theorem, specialized to constant k on graphs of minimum
degree >= k, says a k-factor exists iff for every disjoint S, T:

    k|S| + sum_{v in T, d(v) > k} (d(v) - k) >= q(S,T) + e(S,T)

where q(S,T) counts components Q of the rest with k|Q| and e(Q,T) of
different parity.  This module provides both routes to a verdict:

* brute_force_tutte enumerates all disjoint (S, T) pairs (3^n states,
  capped at n = 16) and returns a violating witness if one exists,
  optionally restricted to pairs with S all-high and every counted
  component containing a high vertex, which preserves the verdict;
* find_k_factor constructs a factor outright through the classical
  reduction to perfect matching (per vertex: one external node per edge
  end, d(v) - k slack nodes, complete bipartite between them), seeded by
  a forced-move greedy subgraph so the blossom engine only repairs the
  residual deficiency.

audit_properties measures the expansion-style properties P1-P6 that a
stripped remainder is expected to satisfy: exact subset enumeration up to
12 vertices, randomized search with greedy worsening beyond that, always
reported as margins rather than asserted.
"""

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError, KflabError
from .graphs import Graph
from .matching import maximum_matching, perfect_matching_exists
from .rng import make_rng, spawn_seed

__all__ = [
    "TutteWitness",
    "FactorCertificate",
    "GadgetReduction",
    "tutte_q",
    "tutte_check",
    "brute_force_tutte",
    "gadget_reduce",
    "find_k_factor",
    "verify_k_factor",
    "PropertyResult",
    "PropertyReport",
    "audit_properties",
]

BRUTE_FORCE_CAP = 16


# ---------------------------------------------------------------- witnesses

@dataclass(frozen=True)
class TutteWitness:
    """One evaluated (S, T) pair of the factor inequality."""

    S: tuple[int, ...]
    T: tuple[int, ...]
    q: int
    e_st: int
    lhs: int
    rhs: int
    violated: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "S": sorted(int(v) for v in self.S),
                "T": sorted(int(v) for v in self.T),
                "q": self.q,
                "e_st": self.e_st,
                "lhs": self.lhs,
                "rhs": self.rhs,
                "violated": self.violated,
            },
            separators=(",", ":"),
        )


@dataclass(frozen=True)
class FactorCertificate:
    """A spanning k-regular edge subset with its per-vertex degrees."""

    k: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "edges": [[int(u), int(v)] for u, v in sorted(self.edges)],
                "degrees": [int(d) for d in self.degrees],
            },
            separators=(",", ":"),
        )


def _check_sets(g: Graph, S, T) -> tuple[set[int], set[int]]:
    s = {int(v) for v in S}
    t = {int(v) for v in T}
    if s & t:
        raise DomainError(f"S and T overlap: {sorted(s & t)}")
    for v in s | t:
        if not 0 <= v < g.n:
            raise DomainError(f"vertex {v} out of range for n = {g.n}")
    return s, t


def _mask(g: Graph, vertices: set[int]) -> np.ndarray:
    out = np.zeros(g.n, dtype=bool)
    out[list(vertices)] = True
    return out


def _adjmask(g: Graph) -> list[int]:
    """Per-vertex neighbour sets as int bitmasks."""
    adjmask = [0] * g.n
    for u, v in g.edge_tuples():
        adjmask[u] |= 1 << v
        adjmask[v] |= 1 << u
    return adjmask


def _require_simple(g) -> Graph:
    if not isinstance(g, Graph) or not g.is_simple():
        raise DomainError("expected a simple Graph, without parallel edges or loops")
    return g


def tutte_q(g: Graph, k: int, S, T) -> int:
    """Count components Q of g minus (S u T) with k|Q| and e(Q,T) of
    different parity."""
    _require_simple(g)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    s, t = _check_sets(g, S, T)
    return _odd_components(g, k, s | t, g.neighbors_in(_mask(g, t)))


def _odd_components(g: Graph, k: int, removed: set[int], t_nbrs) -> int:
    """tutte_q on checked sets, given each vertex's neighbour count in T."""
    xadj, nbr, _ = g.csr()
    xadj, nbr = xadj.tolist(), nbr.tolist()
    # removed vertices read as seen, so no walk enters them
    seen = [False] * g.n
    for v in removed:
        seen[v] = True
    count = 0
    for start in range(g.n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in nbr[xadj[v]:xadj[v + 1]]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        e_qt = int(t_nbrs[comp].sum())
        if (k * len(comp)) % 2 != e_qt % 2:
            count += 1
    return count


def tutte_check(g: Graph, k: int, S, T) -> TutteWitness:
    """Evaluate the factor inequality for one (S, T) pair."""
    _require_simple(g)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    deg = g.degrees
    if g.n and int(deg.min()) < k:
        raise DomainError("tutte_check requires minimum degree >= k")
    s, t = _check_sets(g, S, T)
    t_nbrs = g.neighbors_in(_mask(g, t))
    q = _odd_components(g, k, s | t, t_nbrs)
    e_st = int(t_nbrs[_mask(g, s)].sum())
    lhs = k * len(s) + sum(int(deg[v]) - k for v in t if int(deg[v]) > k)
    rhs = q + e_st
    return TutteWitness(
        S=tuple(sorted(s)),
        T=tuple(sorted(t)),
        q=q,
        e_st=e_st,
        lhs=lhs,
        rhs=rhs,
        violated=lhs < rhs,
    )


def brute_force_tutte(g: Graph, k: int, restrict_m1m2: bool = False):
    """Exhaust all disjoint (S, T) pairs; return the first violating
    witness in deterministic order, or None when the inequality always
    holds (equivalently: a k-factor exists).

    restrict_m1m2 skips pairs where S contains a degree-k vertex (M1) or
    where some component counted by q has no vertex of degree >= k+1 (M2);
    the existence verdict is unchanged.
    """
    _require_simple(g)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    n = g.n
    if n > BRUTE_FORCE_CAP:
        raise DomainError(f"brute force capped at n = {BRUTE_FORCE_CAP}, got {n}")
    deg = [int(d) for d in g.degrees]
    if n and min(deg) < k:
        raise DomainError("brute_force_tutte requires minimum degree >= k")

    adjmask = _adjmask(g)
    high_mask = 0
    for v in range(n):
        if deg[v] >= k + 1:
            high_mask |= 1 << v
    full = (1 << n) - 1

    for u_mask in range(full + 1):
        w_mask = full ^ u_mask
        wbits = [v for v in range(n) if (w_mask >> v) & 1]
        w = len(wbits)
        # components of the untouched set, with the data the inner loop
        # needs: parity of k|Q|, the W-vertices with odd edge count into Q,
        # and whether Q has any high vertex (for M2)
        comps = []
        rest = u_mask
        while rest:
            seed = rest & -rest
            comp = seed
            frontier = seed
            while frontier:
                grow = 0
                f = frontier
                while f:
                    b = f & -f
                    grow |= adjmask[b.bit_length() - 1]
                    f ^= b
                frontier = grow & u_mask & ~comp
                comp |= frontier
            rest ^= comp
            kq_odd = (k * comp.bit_count()) & 1
            odd_w = 0
            for v in wbits:
                if (adjmask[v] & comp).bit_count() & 1:
                    odd_w |= 1 << v
            comps.append((kq_odd, odd_w, (comp & high_mask) == 0))

        # subset DP over T <= W on local indices; S = W minus T
        size = 1 << w
        vmask = [0] * size
        e_in = [0] * size
        th_sum = [0] * size
        for t_local in range(1, size):
            lb = t_local & -t_local
            i = lb.bit_length() - 1
            prev = t_local ^ lb
            v = wbits[i]
            vm = vmask[prev]
            vmask[t_local] = vm | (1 << v)
            e_in[t_local] = e_in[prev] + (adjmask[v] & vm).bit_count()
            th_sum[t_local] = th_sum[prev] + (deg[v] - k if deg[v] > k else 0)
        e_w = e_in[size - 1]

        for t_local in range(size):
            s_local = (size - 1) ^ t_local
            t_mask = vmask[t_local]
            s_mask = vmask[s_local]
            if restrict_m1m2 and s_mask & ~high_mask:
                continue  # M1: S must avoid degree-k vertices
            q = 0
            m2_fail = False
            for kq_odd, odd_w, all_low in comps:
                if ((odd_w & t_mask).bit_count() & 1) != kq_odd:
                    q += 1
                    if all_low:
                        m2_fail = True
            if restrict_m1m2 and m2_fail:
                continue
            e_st = e_w - e_in[t_local] - e_in[s_local]
            lhs = k * s_local.bit_count() + th_sum[t_local]
            rhs = q + e_st
            if lhs < rhs:
                return TutteWitness(
                    S=tuple(v for v in wbits if (s_mask >> v) & 1),
                    T=tuple(v for v in wbits if (t_mask >> v) & 1),
                    q=q,
                    e_st=e_st,
                    lhs=lhs,
                    rhs=rhs,
                    violated=True,
                )
    return None


# ----------------------------------------------------------- gadget route

@dataclass(frozen=True)
class GadgetReduction:
    """Perfect-matching encoding of the degree-k subgraph problem.

    Per host vertex v: one external node per incident edge end and
    d(v) - k slack nodes, completely joined; per host edge instance one
    external-external edge.  Perfect matchings biject with k-factors via
    the matched external-external pairs.

    int64 arrays, over the m host edge instances (rows repeated by
    multiplicity, in canonical order): host_degrees (n_host,) is d(v);
    base (n_host,) is v's first node, its externals base[v] + [0, d(v))
    and its slacks next; pair_edges (m, 2) row j joins the externals of
    instance j, external i of v being v's i-th end in instance order.

    graph is the gadget as a simple Graph on n_nodes, its CSR written by
    construction with every row ascending: a slack node's row is its
    vertex's externals; an external's row is its vertex's slacks, with the
    external's pair partner before them when the partner's id is smaller
    and after them otherwise.  edges is graph.edge_array, not a copy: the
    m + sum_v d(v)(d(v) - k) gadget edges as canonical rows, the pair
    edges and every (external, slack) pair of each vertex.
    """

    n_host: int
    k: int
    n_nodes: int
    pair_edges: np.ndarray
    base: np.ndarray
    host_degrees: np.ndarray
    graph: Graph

    @property
    def edges(self) -> np.ndarray:
        return self.graph.edge_array


def _host_instances(g) -> np.ndarray:
    """g's edge rows repeated by multiplicity: an (m, 2) canonical array."""
    if not isinstance(g, Graph):
        raise DomainError(f"expected a Graph, got {type(g).__name__}")
    if g.loops is not None:
        raise DomainError("loops cannot participate in a k-factor; "
                          "strip or reject them first")
    return g.edge_array if g.mult is None else np.repeat(g.edge_array, g.mult, axis=0)


def gadget_reduce(g, k: int) -> GadgetReduction:
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    rows = _host_instances(g)
    n, deg = g.n, g.degrees
    low = np.flatnonzero(deg < k)
    if len(low):
        v = int(low[0])
        raise InfeasibleError(f"vertex {v} has degree {deg[v]} < k = {k}: no k-factor")
    slack = deg - k
    size = deg + slack  # d(v) externals + d(v) - k slacks
    base = np.cumsum(size) - size

    # external i of v is v's i-th end in instance order: its position in
    # the stably sorted ends, plus the slack nodes of the vertices before v
    order = np.argsort(rows.ravel(), kind="stable")
    ext = np.empty_like(order)
    ext[order] = np.arange(len(order)) + np.repeat(np.cumsum(slack) - slack, deg)
    pair_edges = ext.reshape(-1, 2)
    # slack block of v: external i joins slack j, i-major
    block = deg * slack
    owner = np.repeat(np.arange(n), block)
    local = np.arange(len(owner)) - np.repeat(np.cumsum(block) - block, block)
    i, j = np.divmod(local, slack[owner])
    block_ext = base[owner] + i
    block_slack = base[owner] + deg[owner] + j

    # CSR rows: v's externals hold 1 + slack(v) entries, its slacks d(v).
    # A pair row (lo, hi) has lo < hi, so hi's partner comes first in its
    # row and lo's comes last
    row_len = np.repeat(np.column_stack([1 + slack, deg]).ravel(),
                        np.column_stack([deg, slack]).ravel())
    xadj = np.concatenate([[0], np.cumsum(row_len)])
    lo, hi = pair_edges.T
    nbr = np.empty(xadj[-1], dtype=np.int64)
    nbr[xadj[lo + 1] - 1] = hi
    nbr[xadj[hi]] = lo
    partner_first = np.zeros(len(row_len), dtype=np.int64)
    partner_first[hi] = 1
    nbr[xadj[block_ext] + partner_first[block_ext] + j] = block_slack
    nbr[xadj[block_slack] + i] = block_ext
    return GadgetReduction(
        n_host=n,
        k=k,
        n_nodes=len(row_len),
        pair_edges=pair_edges,
        base=base,
        host_degrees=deg,
        graph=Graph._from_csr(xadj, nbr),
    )


def _greedy_degree_saturation(n, rows, k) -> list[bool]:
    """Forced-move greedy subgraph with all degrees <= k, aiming for = k.

    A vertex whose undecided incident edges barely cover its remaining
    requirement must take them all; otherwise edges are taken in input
    order.  Deterministic; linear in the instance count.
    """
    instances = rows.tolist()
    m = len(instances)
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j, (u, v) in enumerate(instances):
        incident[u].append((j, v))
        incident[v].append((j, u))
    need = [k] * n
    rem = [len(inc) for inc in incident]
    chosen = [False] * m
    undecided = [True] * m
    forced = deque(v for v in range(n) if 0 < need[v] >= rem[v])

    def waste(v: int) -> None:
        for j, u in incident[v]:
            if undecided[j]:
                undecided[j] = False
                rem[v] -= 1
                rem[u] -= 1
                if 0 < need[u] >= rem[u]:
                    forced.append(u)

    def take(j: int, u: int, v: int) -> None:
        undecided[j] = False
        chosen[j] = True
        rem[u] -= 1
        rem[v] -= 1
        need[u] -= 1
        need[v] -= 1
        for w in (u, v):
            if need[w] == 0:
                waste(w)
            elif 0 < need[w] >= rem[w]:
                forced.append(w)

    cursor = 0
    while True:
        while forced:
            v = forced.popleft()
            if need[v] <= 0:
                continue
            for j, u in incident[v]:
                if undecided[j] and need[v] > 0 and need[u] > 0:
                    take(j, v, u)
        while cursor < m:
            u, v = instances[cursor]
            if undecided[cursor] and need[u] > 0 and need[v] > 0:
                break
            cursor += 1
        if cursor == m:
            break
        take(cursor, *instances[cursor])
    return chosen


def _seed_mate(gadget: GadgetReduction, chosen) -> np.ndarray:
    """The chosen pairs matched, then v's first d(v) - k free externals
    matched to its slacks in order."""
    chosen = np.asarray(chosen, dtype=bool)
    mate = np.full(gadget.n_nodes, -1, dtype=np.int64)
    eu, ev = gadget.pair_edges[chosen].T
    mate[eu], mate[ev] = ev, eu
    free = np.sort(gadget.pair_edges[~chosen].ravel())
    owner = np.searchsorted(gadget.base, free, side="right") - 1
    rank = np.arange(len(free)) - np.searchsorted(owner, owner)
    deg = gadget.host_degrees[owner]
    take = rank < deg - gadget.k
    slack = (gadget.base[owner] + deg + rank)[take]
    mate[free[take]], mate[slack] = slack, free[take]
    return mate


def find_k_factor(g, k: int):
    """Construct a k-factor, or return None when none exists.

    Immediate Nones: odd k * n (parity makes a factor impossible) and any
    vertex of degree < k.  Otherwise the gadget is built, seeded from the
    greedy subgraph, and completed by the matching engine; the resulting
    certificate is re-verified before it is returned.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    rows = _host_instances(g)
    if (k * g.n) % 2 == 1 or np.any(g.degrees < k):
        return None
    if g.n == 0:
        return FactorCertificate(k=k, edges=(), degrees=())

    gadget = gadget_reduce(g, k)
    seed = _seed_mate(gadget, _greedy_degree_saturation(g.n, rows, k))
    mate = maximum_matching(gadget.n_nodes, gadget.graph, seed_mate=seed)
    if not perfect_matching_exists(mate):
        return None
    # rows are canonical, so the factor comes out sorted
    factor = rows[mate[gadget.pair_edges[:, 0]] == gadget.pair_edges[:, 1]]
    cert = FactorCertificate(
        k=k,
        edges=tuple(map(tuple, factor.tolist())),
        degrees=tuple(np.bincount(factor.ravel(), minlength=g.n).tolist()),
    )
    if not verify_k_factor(g, cert.edges, k):
        raise KflabError("internal error: constructed factor failed verification")
    return cert


def verify_k_factor(g, F, k: int) -> bool:
    """True iff F is a sub-multiset of g's edges giving every vertex k.

    Loops in a multigraph host are simply not usable by F (they would add
    2 to one vertex), so they do not block verification.
    """
    if not isinstance(g, Graph):
        return False
    try:
        f = Graph.from_pairs(g.n, F)
    except DomainError:
        return False
    row = g.rows_of(f.edge_array)
    if f.loops is not None or np.any(row < 0):
        return False
    if f.mult is not None and np.any(f.mult > (1 if g.mult is None else g.mult[row])):
        return False
    return bool(np.all(f.degrees == k))


# ------------------------------------------------------------ P1-P6 audits

@dataclass(frozen=True)
class PropertyResult:
    name: str
    mode: str  # exact | sampled | vacuous
    checked: int
    violations: int
    worst_margin: float | None
    witness: tuple[tuple[int, ...], ...] | None

    def to_json_dict(self):
        return {
            "name": self.name,
            "mode": self.mode,
            "checked": self.checked,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "witness": None
            if self.witness is None
            else [sorted(int(v) for v in part) for part in self.witness],
        }


@dataclass(frozen=True)
class PropertyReport:
    results: tuple[PropertyResult, ...]
    epsilon0: float
    gamma: float
    exhaustive: bool

    def result(self, name: str) -> PropertyResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def all_clear(self) -> bool:
        return all(r.violations == 0 for r in self.results)

    def to_json(self) -> str:
        return json.dumps(
            {
                "epsilon0": self.epsilon0,
                "gamma": self.gamma,
                "exhaustive": self.exhaustive,
                "all_clear": self.all_clear,
                "results": [r.to_json_dict() for r in self.results],
            },
            separators=(",", ":"),
        )


EXACT_AUDIT_CAP = 12


def _p6_terms(k: int) -> tuple[float, float]:
    root = math.sqrt(k * math.log(k)) if k > 1 else 0.0
    return 0.75 * root, 0.875 * root


def _audit_exact(g: Graph, k, eps0, gamma) -> list[PropertyResult]:
    n = g.n
    deg = [int(d) for d in g.degrees]
    adjmask = _adjmask(g)
    size = 1 << n
    e_in = [0] * size
    nbr = [0] * size
    dsum = [0] * size
    cnt = [0] * size
    for m in range(1, size):
        lb = m & -m
        v = lb.bit_length() - 1
        prev = m ^ lb
        e_in[m] = e_in[prev] + (adjmask[v] & prev).bit_count()
        nbr[m] = nbr[prev] | adjmask[v]
        dsum[m] = dsum[prev] + deg[v]
        cnt[m] = cnt[prev] + 1
    total_edges = e_in[size - 1]

    track: dict[str, list] = {
        name: [0, 0, None, None] for name in ("P1", "P2", "P3", "P4", "P5", "P6")
    }

    def record(name, margin, violated, witness):
        t = track[name]
        t[0] += 1
        t[1] += int(violated)
        if t[2] is None or margin < t[2]:
            t[2] = margin
            t[3] = witness
    p1_cap = 10.0 * eps0 * n
    p34_cap = eps0 * n
    p56_cut = eps0 * n / 10.0
    p5_floor = 9.0 * eps0 * n / 10.0
    c6a, c6b = _p6_terms(k)

    bits_cache = [tuple(v for v in range(n) if (m >> v) & 1) for m in range(size)]

    for y in range(1, size):
        ny = cnt[y]
        if ny <= p1_cap:
            margin = k * ny / 6000.0 - e_in[y]
            record("P1", margin, margin <= 0, (bits_cache[y],))
        if 2 * ny <= n:
            cut = total_edges - e_in[y] - e_in[(size - 1) ^ y]
            margin = cut - gamma * k * ny
            record("P2", margin, margin < 0, (bits_cache[y],))

    for x in range(1, size):
        nx = cnt[x]
        comp = (size - 1) ^ x
        y = comp
        while y:
            ny = cnt[y]
            e_xy = e_in[x | y] - e_in[x] - e_in[y]
            if 200 * nx >= ny and ny <= p34_cap:
                margin = 0.5 * gamma * k * nx - e_xy
                record("P3", margin, margin <= 0, (bits_cache[x], bits_cache[y]))
            if nx + ny <= p34_cap:
                common = (nbr[x] & y).bit_count()
                margin = (1 + 1 / 2000.0) * common + k * nx / 100.0 - e_xy
                record("P4", margin, margin <= 0, (bits_cache[x], bits_cache[y]))
            # (S, T) role: x plays S, y plays T
            if ny < p56_cut and nx > p5_floor:
                margin = 0.75 * k * nx - e_xy
                record("P5", margin, margin <= 0, (bits_cache[x], bits_cache[y]))
            if ny >= p56_cut:
                m1 = k * nx + c6a * ny - e_xy
                m2 = dsum[y] - (k + c6b) * ny
                margin = min(m1, m2)
                record("P6", margin, m1 < 0 or m2 <= 0,
                       (bits_cache[x], bits_cache[y]))
            y = (y - 1) & comp

    out = []
    for name, (checked, viol, worst, witness) in track.items():
        out.append(
            PropertyResult(
                name=name,
                mode="exact" if checked else "vacuous",
                checked=checked,
                violations=viol,
                worst_margin=None if worst is None else float(worst),
                witness=witness,
            )
        )
    return out


def _audit_sampled(g: Graph, k, eps0, gamma, budget, seed) -> list[PropertyResult]:
    n = g.n
    deg = g.degrees.astype(np.float64)
    c6a, c6b = _p6_terms(k)
    local_moves = 8
    draws = max(1, budget // (6 * (1 + local_moves)))

    p1_cap = int(10 * eps0 * n)
    p34_cap = int(eps0 * n)
    p6_floor = max(1, math.ceil(eps0 * n / 10))
    p5_cap = math.ceil(eps0 * n / 10) - 1  # |T| < eps0 n / 10
    p5_floor = int(9 * eps0 * n / 10) + 1  # |S| > 9 eps0 n / 10

    # each spec: eligibility over sizes, evaluator -> (margin, violated)
    def ok_p1(ny):
        return 1 <= ny <= p1_cap

    def eval_p1(in_y):
        ny = int(in_y.sum())
        m = k * ny / 6000.0 - g.neighbors_in(in_y)[in_y].sum() // 2
        return m, m <= 0

    def ok_p2(ny):
        return 1 <= ny and 2 * ny <= n

    def eval_p2(in_y):
        ny = int(in_y.sum())
        cut = g.neighbors_in(~in_y)[in_y].sum()
        m = cut - gamma * k * ny
        return m, m < 0

    def ok_p3(nx, ny):
        return nx >= 1 and ny >= 1 and 200 * nx >= ny and ny <= p34_cap

    def eval_p3(in_x, in_y):
        nx = int(in_x.sum())
        m = 0.5 * gamma * k * nx - g.neighbors_in(in_y)[in_x].sum()
        return m, m <= 0

    def ok_p4(nx, ny):
        return nx >= 1 and ny >= 1 and nx + ny <= p34_cap

    def eval_p4(in_x, in_y):
        nx = int(in_x.sum())
        common = int(np.sum((g.neighbors_in(in_x) > 0) & in_y))
        m = (1 + 1 / 2000.0) * common + k * nx / 100.0 - g.neighbors_in(in_y)[in_x].sum()
        return m, m <= 0

    def ok_p5(ns, nt):
        return ns >= p5_floor and 1 <= nt <= p5_cap

    def eval_p5(in_s, in_t):
        ns = int(in_s.sum())
        m = 0.75 * k * ns - g.neighbors_in(in_t)[in_s].sum()
        return m, m <= 0

    def ok_p6(ns, nt):
        return nt >= p6_floor

    def eval_p6(in_s, in_t):
        ns = int(in_s.sum())
        nt = int(in_t.sum())
        m1 = k * ns + c6a * nt - g.neighbors_in(in_t)[in_s].sum()
        m2 = float(deg[in_t].sum()) - (k + c6b) * nt
        return min(m1, m2), (m1 < 0 or m2 <= 0)

    # draw ranges: (x or y size low/high per part); eligibility re-filters
    specs = [
        ("P1", [(1, p1_cap)], ok_p1, eval_p1),
        ("P2", [(1, n // 2)], ok_p2, eval_p2),
        ("P3", [(1, n), (1, min(p34_cap, 200 * n))], ok_p3, eval_p3),
        ("P4", [(1, p34_cap), (1, p34_cap)], ok_p4, eval_p4),
        ("P5", [(p5_floor, n), (1, p5_cap)], ok_p5, eval_p5),
        ("P6", [(0, n), (p6_floor, n)], ok_p6, eval_p6),
    ]
    results = []
    for idx, (name, ranges, ok, ev) in enumerate(specs):
        rng = make_rng(spawn_seed(seed, "audit", idx))
        checked = 0
        viol = 0
        worst = None
        witness = None
        for _ in range(draws):
            sizes = [int(rng.integers(lo, hi + 1)) if hi >= lo else -1
                     for lo, hi in ranges]
            if any(s < 0 for s in sizes) or sum(sizes) > n or not ok(*sizes):
                continue
            perm = rng.permutation(n)
            state = []
            at = 0
            for s in sizes:
                part = np.zeros(n, dtype=bool)
                part[perm[at:at + s]] = True
                state.append(part)
                at += s
            m, bad = ev(*state)
            checked += 1
            for _ in range(local_moves):
                side = int(rng.integers(0, len(state)))
                part = state[side]
                v = int(rng.integers(0, n))
                if not part[v] and any(s[v] for s in state):
                    continue  # keep the parts disjoint
                part[v] = not part[v]
                new_sizes = [int(s.sum()) for s in state]
                if not ok(*new_sizes):
                    part[v] = not part[v]
                    continue
                m2, bad2 = ev(*state)
                checked += 1
                if m2 < m:
                    m, bad = m2, bad2
                else:
                    part[v] = not part[v]
            viol += int(bad)
            if worst is None or m < worst:
                worst = m
                witness = tuple(
                    tuple(int(i) for i in np.flatnonzero(s)) for s in state
                )
        results.append(
            PropertyResult(
                name=name,
                mode="sampled" if checked else "vacuous",
                checked=checked,
                violations=viol,
                worst_margin=None if worst is None else float(worst),
                witness=witness,
            )
        )
    return results


def audit_properties(
    K: Graph,
    k: int,
    epsilon0: float = 0.01,
    gamma: float = 0.1,
    sample_budget: int = 2000,
    seed: int = 0,
) -> PropertyReport:
    """Measure the expansion properties P1-P6 of a remainder graph.

    Up to 12 vertices every subset pair is enumerated, so a clean report
    is a proof; beyond that, sample_budget randomized draws with greedy
    local worsening only search for violations, and the report says so.
    Margins are slack against each property's bound: negative (or zero,
    for strict bounds) means violated.
    """
    _require_simple(K)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if not 0 < epsilon0 <= 1 or not 0 < gamma <= 1:
        raise DomainError("epsilon0 and gamma must be in (0, 1]")
    if K.n <= EXACT_AUDIT_CAP:
        results = _audit_exact(K, k, epsilon0, gamma)
        exhaustive = True
    else:
        results = _audit_sampled(K, k, epsilon0, gamma, sample_budget, seed)
        exhaustive = False
    return PropertyReport(
        results=tuple(results),
        epsilon0=epsilon0,
        gamma=gamma,
        exhaustive=exhaustive,
    )

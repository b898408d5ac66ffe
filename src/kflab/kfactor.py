"""k-regular spanning subgraph search, verification, and diagnostics.

Tutte's f-factor theorem, specialized to constant k, says a k-factor
exists iff for every disjoint S, T:

    k|S| + sum_{v in T} (d(v) - k) >= q(S,T) + e(S,T)

where q(S,T) counts components Q of the rest with k|Q| and e(Q,T) of
different parity.  tutte_check evaluates it for one pair; a vertex v of
degree < k alone violates it, as (S, T) = ({}, {v}).  This module provides
both routes to a verdict:

* brute_force_tutte enumerates all disjoint (S, T) pairs (3^n of them,
  capped at n = 16): per rest U = V - (S u T), in ascending mask order, it
  finds U's components, then scores every T at once as array arithmetic
  over the subset tables the exact audit also reads.  It returns
  tutte_check's witness for the first violating pair, if one exists,
  optionally restricted to pairs with S all-high and every counted
  component containing a high vertex, which preserves the verdict;
* find_k_factor constructs a factor outright through the classical
  reduction to perfect matching (per vertex: one external node per edge
  end, d(v) - k slack nodes, complete bipartite between them), seeded by
  a forced-move greedy subgraph so the blossom engine only repairs the
  residual deficiency.

audit_properties measures the expansion-style properties P1-P6 that a
stripped remainder is expected to satisfy, always reported as margins
rather than asserted.  Each property's size test, margin and violation
rule is written once, in one table that both audits apply: up to 12
vertices to every subset pair at once, as array arithmetic over vertex
bitmasks; beyond that to a randomized search with greedy worsening.
"""

import json
import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, InfeasibleError, KflabError
from .graphs import Graph, _graph, _int64, _integer, _real
from .matching import maximum_matching, perfect_matching_exists
from .rng import _seed, make_rng, spawn_seed

__all__ = [
    "TutteWitness",
    "FactorCertificate",
    "GadgetReduction",
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
    """One evaluated (S, T) pair of the factor inequality.

    S and T are ascending Python ints, as tutte_check builds them.  to_json
    writes the fields as they are, in order: json.dumps reaches a record's
    fields through vars, which skips asdict's deep copy.
    """

    S: tuple[int, ...]
    T: tuple[int, ...]
    q: int
    e_st: int
    lhs: int
    rhs: int
    violated: bool

    def to_json(self) -> str:
        return json.dumps(self, default=vars, separators=(",", ":"))


@dataclass(frozen=True)
class FactorCertificate:
    """A spanning k-regular edge subset with its per-vertex degrees.

    edges are ascending pairs of Python ints, as find_k_factor builds them;
    to_json writes the fields as they are.
    """

    k: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]

    def to_json(self) -> str:
        return json.dumps(self, default=vars, separators=(",", ":"))


def _vertex_set(values, what: str) -> set[int]:
    """values as a set of ints; DomainError unless they are a collection of
    integers (integral floats pass, 0.5 and nan do not)."""
    try:
        values = list(values)
    except TypeError:
        raise DomainError(f"{what} must be a collection of vertex ids") from None
    ids = _int64(values, what)
    if ids.ndim != 1:
        raise DomainError(f"{what} must be a flat collection of vertex ids")
    return set(ids.tolist())


def _check_sets(g: Graph, S, T) -> tuple[set[int], set[int]]:
    s, t = _vertex_set(S, "S"), _vertex_set(T, "T")
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


def _subset_tables(g: Graph):
    """Tables over every vertex bitmask m of g, as numpy arrays indexed by
    m: bits[m], m's members as a boolean row; size[m] = |m|; into[m], each
    vertex's neighbour count in m; e_in[m] = e(m); nbr[m] = N(m) as a mask.
    Both exhaustive searches, the Tutte pairs and the P1-P6 audit, read them.
    """
    n = g.n
    adj = np.zeros((n, n), dtype=np.int64)
    u, v = g.edge_array.T
    adj[u, v] = adj[v, u] = 1
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    into = bits @ adj
    return (bits, bits.sum(axis=1), into, (into * bits).sum(axis=1) // 2,
            (into > 0) @ (1 << np.arange(n)))


def tutte_check(g: Graph, k: int, S, T) -> TutteWitness:
    """Evaluate the factor inequality for one (S, T) pair.

    lhs is Tutte's full sum k|S| + sum_{v in T} (d(v) - k), with no
    degree precondition, so a T vertex of degree < k lowers it; rhs is
    q + e(S, T), q counting the components Q of g minus (S u T) with k|Q|
    and e(Q, T) of different parity.
    """
    _graph(g, "g", simple=True)
    k = _integer(k, 1, "k")
    s, t = _check_sets(g, S, T)
    t_nbrs = g.neighbors_in(_mask(g, t))
    xadj, nbr, _ = g.csr()
    xadj, nbr = xadj.tolist(), nbr.tolist()
    # S and T read as seen, so no walk enters them
    seen = _mask(g, s | t).tolist()
    q = 0
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
            q += 1
    e_st = int(t_nbrs[_mask(g, s)].sum())
    deg = g.degrees
    lhs = k * len(s) + sum(int(deg[v]) - k for v in t)
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
    """Exhaust all disjoint (S, T) pairs; return tutte_check's witness for
    the first violating pair in deterministic order, or None when the
    inequality always holds (equivalently: a k-factor exists).

    restrict_m1m2 skips pairs where S contains a degree-k vertex (M1) or
    where some component counted by q has no vertex of degree >= k+1 (M2);
    the existence verdict is unchanged.  That soundness argument assumes
    minimum degree >= k, so g must have it.
    """
    _graph(g, "g", simple=True)
    k = _integer(k, 1, "k")
    n = g.n
    if n > BRUTE_FORCE_CAP:
        raise DomainError(f"brute force capped at n = {BRUTE_FORCE_CAP}, got {n}")
    deg = g.degrees
    if n and int(deg.min()) < k:
        raise DomainError("brute_force_tutte requires minimum degree >= k")

    bits, size, into, e_in, nbr = _subset_tables(g)
    pw = 1 << np.arange(n)
    surplus = bits @ (deg - k)
    # lhs - e(S, T) = k|S| + e(S) + surplus[T] + e(T) - e(W), as S u T = W
    s_part, t_part = k * size + e_in, surplus + e_in
    parity = size & 1
    nbr = nbr.tolist()
    odd = ((into & 1) @ pw).tolist()  # odd[m]: vertices with odd count in m
    high = int(pw[deg > k].sum())
    full = (1 << n) - 1

    # U ascending, then T ascending within W = V - U, S = W - T.  Under M1
    # only T containing W's degree-k vertices are drawn: T = fixed | free part
    for u_mask in range(full + 1):
        w_mask = full ^ u_mask
        free = w_mask & high if restrict_m1m2 else w_mask
        at = pw[bits[free]]
        t = (w_mask ^ free) | bits[:1 << len(at), :len(at)] @ at
        s = w_mask ^ t
        slack = s_part[s] + t_part[t] - e_in[w_mask]
        q = np.zeros(len(t), dtype=np.int64)
        m2_fail = np.False_
        rest = u_mask
        while rest:  # each component of U, grown to its fixpoint
            comp = rest & -rest
            while (grown := comp | (nbr[comp] & u_mask)) != comp:
                comp = grown
            rest ^= comp
            counted = parity[t & odd[comp]] != (k * comp.bit_count()) & 1
            q += counted
            if restrict_m1m2 and not comp & high:
                m2_fail = m2_fail | counted
        bad = (slack < q) & ~m2_fail
        i = int(bad.argmax())
        if bad[i]:
            return tutte_check(g, k, np.flatnonzero(bits[s[i]]),
                               np.flatnonzero(bits[t[i]]))
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
    multiplicity, in canonical order, loops left out): host_degrees
    (n_host,) is d(v), v's ends among them;
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
    """g's edge rows repeated by multiplicity, loops left out (a loop adds
    2 to one vertex, so no k-factor uses one): an (m, 2) canonical array."""
    _graph(g, "g")
    return g.edge_array if g.mult is None else np.repeat(g.edge_array, g.mult, axis=0)


def _host_degrees(g: Graph) -> np.ndarray:
    """Each vertex's ends in _host_instances(g): its degree less its loops."""
    return g.degrees if g.loops is None else g.degrees - 2 * g.loops


def gadget_reduce(g, k: int) -> GadgetReduction:
    """g's gadget, loops left out; InfeasibleError if some d(v) < k."""
    k = _integer(k, 1, "k")
    rows = _host_instances(g)
    n, deg = g.n, _host_degrees(g)
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
    # the slack block's index arrays are as long as its edges; free them
    # before the edge array is built
    del owner, local, i, j, block_ext, block_slack
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
    m = len(rows)
    ends = rows.ravel()
    # the ends of instance j sit at positions 2j and 2j + 1; sorted stably
    # by vertex, v's ends are start[v]:start[v + 1], in instance order
    order = np.argsort(ends, kind="stable")
    deg = np.bincount(ends, minlength=n)
    start = memoryview(np.concatenate([[0], np.cumsum(deg)]))
    inst = memoryview(order >> 1)
    other = memoryview(ends[order ^ 1])
    ends = memoryview(ends)
    need = [k] * n
    rem = deg.tolist()
    chosen = [False] * m
    undecided = [True] * m
    forced = deque(v for v in range(n) if 0 < need[v] >= rem[v])

    def waste(v: int) -> None:
        for e in range(start[v], start[v + 1]):
            j = inst[e]
            if undecided[j]:
                u = other[e]
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
            for e in range(start[v], start[v + 1]):
                j, u = inst[e], other[e]
                if undecided[j] and need[v] > 0 and need[u] > 0:
                    take(j, v, u)
        while cursor < m:
            u, v = ends[2 * cursor], ends[2 * cursor + 1]
            if undecided[cursor] and need[u] > 0 and need[v] > 0:
                break
            cursor += 1
        if cursor == m:
            break
        take(cursor, u, v)
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

    Loops are left out, as no factor uses one.  Immediate Nones: odd k * n
    (parity makes a factor impossible) and any vertex with fewer than k
    other edge ends.  Otherwise the gadget is built, seeded from the
    greedy subgraph, and completed by the matching engine; the resulting
    certificate is re-verified before it is returned.
    """
    k = _integer(k, 1, "k")
    rows = _host_instances(g)
    if (k * g.n) % 2 == 1 or np.any(_host_degrees(g) < k):
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
    """One property's audit; each witness part is ascending Python ints,
    as both audits build them."""

    name: str
    mode: str  # exact | sampled | vacuous
    checked: int
    violations: int
    worst_margin: float | None
    witness: tuple[tuple[int, ...], ...] | None


@dataclass(frozen=True)
class PropertyReport:
    """P1-P6 results; to_json writes the fields as they are, in order."""

    epsilon0: float
    gamma: float
    exhaustive: bool
    all_clear: bool  # no property has a violation
    results: tuple[PropertyResult, ...]

    def result(self, name: str) -> PropertyResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_json(self) -> str:
        return json.dumps(self, default=vars, separators=(",", ":"))


EXACT_AUDIT_CAP = 12


@dataclass(frozen=True)
class _Property:
    name: str
    ranges: tuple  # inclusive (lo, hi) size of each part: (Y,) or (X, Y)
    margin: Callable  # (nx, ny, stats) -> (margin, violated)
    joint: Callable | None = None  # (nx, ny) -> the size test ranges cannot state

    def eligible(self, nx, ny):
        """The size test: the joint one, and each part in its range."""
        ok = True if self.joint is None else self.joint(nx, ny)
        for (lo, hi), size in zip(self.ranges[::-1], (ny, nx)):
            ok = ok & (lo <= size) & (size <= hi)
        return ok


def _nonpositive(m):
    return m, m <= 0


def _negative(m):
    return m, m < 0


def _properties(n: int, k: int, eps0: float, gamma: float) -> tuple[_Property, ...]:
    """P1-P6 on a graph of n vertices: the one definition both audits apply.

    Each part's size range is stated once, as integer bounds: the exact
    audit tests sizes against them and the sampled audit draws from them.
    A property has one range (Y alone, nx = 0) or two (X, Y); joint holds
    the one test on both sizes that ranges cannot state.

    stats holds e_y = e(Y), cut_y = e(Y, V - Y), e_xy = e(X, Y),
    common = |N(X) & Y| and dsum_y, the degree sum of Y.  Sizes, stats and
    results are Python numbers or, elementwise, numpy arrays.  A margin is
    slack against the bound: P2 is violated below zero, P6 when its edge
    clause is below zero or its degree clause at most zero, the rest at
    zero or below.  In P5 and P6, X plays S and Y plays T.

    P6 is the one size range that admits an empty X (S).  The exact audit
    enumerates nonempty X only and the sampled one draws |X| from [0, n];
    tests pin both, so the two audits differ there.
    """
    root = math.sqrt(k * math.log(k)) if k > 1 else 0.0
    c6a, c6b = 0.75 * root, 0.875 * root
    # |Y| <= eps0 n, |Y| < eps0 n / 10 and |Y| >= eps0 n / 10 on integers
    small, tenth = int(eps0 * n), math.ceil(eps0 * n / 10)

    def p6(nx, ny, s):
        m1 = k * nx + c6a * ny - s.e_xy
        m2 = s.dsum_y - (k + c6b) * ny
        return np.minimum(m1, m2), (m1 < 0) | (m2 <= 0)

    return (
        _Property("P1", ((1, int(10 * eps0 * n)),),
                  lambda nx, ny, s: _nonpositive(k * ny / 6000.0 - s.e_y)),
        _Property("P2", ((1, n // 2),),
                  lambda nx, ny, s: _negative(s.cut_y - gamma * k * ny)),
        _Property("P3", ((1, n), (1, small)),
                  lambda nx, ny, s: _nonpositive(0.5 * gamma * k * nx - s.e_xy),
                  joint=lambda nx, ny: 200 * nx >= ny),
        _Property("P4", ((1, small), (1, small)),
                  lambda nx, ny, s: _nonpositive(
                      (1 + 1 / 2000.0) * s.common + k * nx / 100.0 - s.e_xy),
                  joint=lambda nx, ny: nx + ny <= eps0 * n),
        _Property("P5", ((int(9 * eps0 * n / 10) + 1, n), (1, tenth - 1)),
                  lambda nx, ny, s: _nonpositive(0.75 * k * nx - s.e_xy)),
        _Property("P6", ((0, n), (max(1, tenth), n)), p6),
    )


def _result(name, mode, checked, violations, worst, witness) -> PropertyResult:
    """One property's result: vacuous when nothing was checked, the worst
    margin a float."""
    return PropertyResult(
        name=name,
        mode=mode if checked else "vacuous",
        checked=checked,
        violations=violations,
        worst_margin=None if worst is None else float(worst),
        witness=witness,
    )


def _audit_exact(g: Graph, k, eps0, gamma) -> list[PropertyResult]:
    """Apply the table to every nonempty Y, then to every nonempty X with
    every nonempty Y disjoint from it.  A property's witness is its first
    least margin in that order: Y ascending; X ascending, then Y
    descending."""
    n = g.n
    props = _properties(n, k, eps0, gamma)
    masks = np.arange(1 << n)
    bits, size, _, e_in, nbr = _subset_tables(g)
    dsum = bits @ g.degrees

    def blocks():
        ys = masks[:0:-1]
        yield 1, np.zeros_like(ys), masks[1:]
        # 64 X at a time against every Y: row-major order keeps X
        # ascending, then Y descending
        for first in range(1, 1 << n, 64):
            xs, grid_y = np.broadcast_arrays(masks[first:first + 64, None], ys)
            disjoint = (xs & grid_y) == 0
            yield 2, xs[disjoint], grid_y[disjoint]

    tally = {p.name: [0, 0, None, None] for p in props}
    for parts, x, y in blocks():
        nx, ny = size[x], size[y]
        stats = SimpleNamespace(
            e_y=e_in[y], cut_y=dsum[y] - 2 * e_in[y],
            e_xy=e_in[x | y] - e_in[x] - e_in[y], common=size[nbr[x] & y],
            dsum_y=dsum[y])
        for p in props:
            if len(p.ranges) != parts:
                continue
            ok = p.eligible(nx, ny)
            if not ok.any():
                continue
            margin, violated = p.margin(nx, ny, stats)
            t = tally[p.name]
            t[0] += int(np.count_nonzero(ok))
            t[1] += int(np.count_nonzero(violated & ok))
            i = int(np.argmin(np.where(ok, margin, np.inf)))
            if t[2] is None or margin[i] < t[2]:
                t[2] = margin[i]
                t[3] = tuple(tuple(np.flatnonzero(bits[part[i]]).tolist())
                             for part in (x, y)[-parts:])
    return [_result(name, "exact", *t) for name, t in tally.items()]


class _SampledStats:
    """The stats of one sampled (X, Y), each computed when a margin reads it."""

    def __init__(self, g: Graph, in_x, in_y):
        self.g, self.in_x, self.in_y = g, in_x, in_y

    @property
    def e_y(self):
        return self.g.neighbors_in(self.in_y)[self.in_y].sum() // 2

    @property
    def cut_y(self):
        return self.g.neighbors_in(~self.in_y)[self.in_y].sum()

    @property
    def e_xy(self):
        return self.g.neighbors_in(self.in_y)[self.in_x].sum()

    @property
    def common(self):
        return np.count_nonzero((self.g.neighbors_in(self.in_x) > 0) & self.in_y)

    @property
    def dsum_y(self):
        return self.g.degrees[self.in_y].sum()


def _audit_sampled(g: Graph, k, eps0, gamma, budget, seed) -> list[PropertyResult]:
    """Per property, draw part sizes and random parts, then try local moves
    that lower the margin; each draw's final margin is one sample."""
    n = g.n
    local_moves = 8
    draws = max(1, budget // (6 * (1 + local_moves)))
    results = []
    for idx, prop in enumerate(_properties(n, k, eps0, gamma)):
        rng = make_rng(spawn_seed(seed, "audit", idx))

        # a one-set property's one part is Y: nx is 0 and its margin reads no X
        def measure(state, sizes):
            stats = _SampledStats(g, *(None, *state)[-2:])
            return prop.margin(*(0, *sizes)[-2:], stats)

        checked = viol = 0
        worst = witness = None
        for _ in range(draws):
            # an empty range gives lo - 1, which eligible rejects
            sizes = [int(rng.integers(lo, hi + 1)) if hi >= lo else lo - 1
                     for lo, hi in prop.ranges]
            if sum(sizes) > n or not prop.eligible(*(0, *sizes)[-2:]):
                continue
            perm, state = rng.permutation(n), []
            for s in sizes:
                state.append(np.zeros(n, dtype=bool))
                state[-1][perm[:s]] = True
                perm = perm[s:]
            m, bad = measure(state, sizes)
            checked += 1
            for _ in range(local_moves):
                part = state[int(rng.integers(0, len(state)))]
                v = int(rng.integers(0, n))
                if not part[v] and any(s[v] for s in state):
                    continue  # keep the parts disjoint
                part[v] = not part[v]
                new_sizes = [int(s.sum()) for s in state]
                if prop.eligible(*(0, *new_sizes)[-2:]):
                    m2, bad2 = measure(state, new_sizes)
                    checked += 1
                    if m2 < m:
                        m, bad = m2, bad2
                        continue
                part[v] = not part[v]  # undo: ineligible, or the margin did not fall
            viol += int(bad)
            if worst is None or m < worst:
                worst = m
                witness = tuple(
                    tuple(int(i) for i in np.flatnonzero(s)) for s in state
                )
        results.append(_result(prop.name, "sampled", checked, viol, worst, witness))
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
    is a proof; beyond that, a randomized search only looks for
    violations, and the report says so.  sample_budget (>= 1) bounds its
    evaluations: each property gets max(1, sample_budget // 54) random
    draws, each followed by 8 local moves that keep a lower margin.
    Margins are slack against each property's bound: negative (or zero,
    for strict bounds) means violated.
    """
    _graph(K, "K", simple=True)
    k = _integer(k, 1, "k")
    epsilon0, gamma = _real(epsilon0, "epsilon0"), _real(gamma, "gamma")
    if not 0 < epsilon0 <= 1 or not 0 < gamma <= 1:
        raise DomainError("epsilon0 and gamma must be in (0, 1]")
    sample_budget = _integer(sample_budget, 1, "sample_budget")
    seed = _seed(seed, "seed")
    exhaustive = K.n <= EXACT_AUDIT_CAP
    if exhaustive:
        results = _audit_exact(K, k, epsilon0, gamma)
    else:
        results = _audit_sampled(K, k, epsilon0, gamma, sample_budget, seed)
    return PropertyReport(
        epsilon0=epsilon0,
        gamma=gamma,
        exhaustive=exhaustive,
        all_clear=all(r.violations == 0 for r in results),
        results=tuple(results),
    )

"""Maximum cardinality matching in general graphs.

Edmonds' blossom algorithm ("Paths, trees, and flowers", 1965) in phases,
as Hopcroft and Karp phase bipartite matching (SIAM J. Comput. 2, 1973).
Each phase grows one alternating forest from every exposed vertex at
once, each such vertex the outer root of its own tree, scanning outer
vertices in FIFO order.  An unlabelled neighbour is matched, so it joins
the tree as inner and its mate as outer.  An edge between two outer
vertices of one tree closes an odd cycle, which is contracted: blossom
bases form a union-find (Gabow, JACM 23, 1976), the bases along the cycle
are linked to the one nearest the root, and the cycle's inner vertices
join the queue as outer.  An edge between outer vertices of two live
trees closes an augmenting path: both root paths flip and the edge is
matched.  Both trees are then dead for the rest of the phase: the queue
skips their vertices and their vertices stop every edge that reaches
them.  Phases repeat until one augments nothing; in that last phase every
tree grew to completion with no edge joining two of them, which is
Edmonds' proof that the matching is maximum.

Every phase but the last augments, so there are at most n/2 + 1 phases.
A phase's state (parent pointers p, union-find bases, outer labels and
the root of each labelled vertex) is a handful of plain lists allocated
fresh when the phase starts.  A phase scans each edge at most twice, but a
contraction's walk steps through the interior of the nested blossoms on
its cycle, so a phase is O(V^2) in the worst case and the whole O(V^3).

A seed matching is grown, never torn down: augmenting paths only add
matched vertices.  Unseeded calls start from the empty matching, and the
first phase pairs exposed neighbours, which is all a greedy pre-pass
would do.  Ties are broken by vertex id: roots are queued ascending and
rows are scanned in CSR order.

The engine walks a CSR: the rows of a Graph's csr(), each ascending, read
through memoryviews of its cached int64 arrays, so no copy of them is
made; only the mate array is a Python list.  Edges given as pairs are
canonicalised with Graph.from_pairs first; a Graph is used as is, so a
caller that already holds its CSR (the k-factor gadget) pays for no sort.
"""

from collections import deque

import numpy as np

from .errors import DomainError
from .graphs import Graph, _int64

__all__ = ["maximum_matching", "perfect_matching_exists"]


def _base(base, v):
    """Base of the outermost blossom holding v: its union-find root."""
    root = v
    while base[root] != root:
        root = base[root]
    while v != root:
        base[v], v = root, base[v]
    return root


def _lca(base, mate, p, a, b):
    """Base of the blossom that an edge between outer vertices a and b of
    one tree closes: climb from each end in turn, one base per step along
    v, mate[v], p[mate[v]], ..., until a base is reached from both."""
    seen = set()
    while True:
        if a != -1:
            a = _base(base, a)
            if a in seen:
                return a
            seen.add(a)
            a = -1 if mate[a] == -1 else p[mate[a]]
        a, b = b, a


def _mark_path(base, mate, p, v, b, child, bases, inner):
    """Walk from v up to base b, pointing p back along the cycle; collects
    the bases passed and the mates (inner side) of each step.  Bases are
    linked only after both walks, which stop on reaching b."""
    while (v_base := _base(base, v)) != b:
        w = mate[v]
        bases.append(v_base)
        bases.append(_base(base, w))
        inner.append(w)
        p[v] = child
        child = w
        v = p[w]


def _flip(mate, p, v, partner):
    """Match outer v to partner and flip the alternating path from v to
    its root: v, mate[v], p[mate[v]], ..."""
    while True:
        w = mate[v]
        mate[v] = partner
        if w == -1:
            return
        v, partner = p[w], w
        mate[w] = v


def _phase(xadj, nbr, mate) -> bool:
    """Grow one forest from every exposed vertex with a nonempty row,
    augmenting between live trees; True iff the matching grew."""
    n = len(mate)
    p = [-1] * n
    base = list(range(n))
    outer = [False] * n
    root = [-1] * n
    dead = [False] * n
    queue = deque(v for v in range(n) if mate[v] == -1 and xadj[v] != xadj[v + 1])
    for v in queue:
        outer[v] = True
        root[v] = v
    grew = False
    while queue:
        v = queue.popleft()
        r = root[v]
        if dead[r]:
            continue
        v_base = _base(base, v)
        for to in nbr[xadj[v]:xadj[v + 1]]:
            to_root = root[to]
            if to_root == -1:
                # unlabelled, so matched (every exposed vertex is a root),
                # and its mate is unlabelled too: both join v's tree
                w = mate[to]
                p[to] = v
                root[to] = root[w] = r
                outer[w] = True
                queue.append(w)
            elif not outer[to] or dead[to_root]:
                continue
            elif to_root != r:
                # outer vertices of two live trees: an augmenting path
                _flip(mate, p, v, to)
                _flip(mate, p, to, v)
                dead[r] = dead[to_root] = True
                grew = True
                break
            elif _base(base, to) != v_base:
                # outer vertices of one tree: the edge closes a blossom
                b = _lca(base, mate, p, v, to)
                bases: list[int] = []
                inner: list[int] = []
                _mark_path(base, mate, p, v, b, to, bases, inner)
                _mark_path(base, mate, p, to, b, v, bases, inner)
                for x in bases:
                    base[x] = b
                for i in inner:
                    if not outer[i]:
                        outer[i] = True
                        queue.append(i)
                v_base = b
    return grew


def maximum_matching(n: int, edges, seed_mate=None) -> np.ndarray:
    """Return a maximum matching as a mate array (-1 for exposed vertices).

    edges is a sequence of (u, v) pairs or an (m, 2) array; duplicates and
    loops are ignored.  edges may also be a Graph on n vertices, whose CSR
    is used as is, multiplicities and loops ignored.  seed_mate, when
    given, must be a valid matching over the edges; it is grown, never
    torn down, so committed pairs stay matched.
    Deterministic: no randomness, ties broken by vertex id.
    """
    if isinstance(edges, Graph):
        if edges.n != n:
            raise DomainError(f"graph has {edges.n} vertices, not n = {n}")
        g = edges
    else:
        g = Graph.from_pairs(n, edges)
    seed = _int64(np.full(n, -1) if seed_mate is None else seed_mate, "seed_mate")
    if seed.shape != (n,):
        raise DomainError("seed_mate length must equal n")
    v = np.flatnonzero(seed != -1)
    w = seed[v]
    bad = v[(w < 0) | (w >= n)]
    if len(bad):
        raise DomainError(
            f"seed_mate[{bad[0]}] = {seed[bad[0]]} is neither -1 nor a vertex")
    if np.any(w == v) or np.any(seed[w] != v):
        raise DomainError("seed_mate is not a symmetric matching")
    # symmetric, so each seeded pair is looked up once, from its lower end
    lower = v < w
    if np.any(g.rows_of(np.column_stack([v[lower], w[lower]])) < 0):
        raise DomainError("seed_mate uses a non-edge")

    xadj, nbr, _ = g.csr()
    xadj, nbr = memoryview(xadj), memoryview(nbr)
    mate = seed.tolist()
    while _phase(xadj, nbr, mate):
        pass
    return np.array(mate, dtype=np.int64)


def perfect_matching_exists(mate) -> bool:
    return len(mate) % 2 == 0 and bool(np.all(np.asarray(mate) >= 0))

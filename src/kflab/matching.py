"""Maximum cardinality matching in general graphs.

Edmonds blossom contraction in its array form: one alternating BFS tree
per free vertex, grown until it reaches another free vertex (augment) or
runs out.  Blossom bases form a union-find (Gabow, JACM 23, 1976): an odd
cycle is contracted by linking the bases of the blossoms along it to the
base closest to the root, and its inner vertices, in the order the search
first reached them, join the queue as outer vertices.  Finding the cycle's
base climbs from one end all the way to the root, then from the other end
to the first base that climb marked, so a contraction costs the depth of
that first end in the tree, not just the length of the cycle it relinks.
A single pass over the free vertices suffices for maximality; the worst
case stays O(V^3), since a walk still steps through the interior of
nested blossoms.

A seed matching is grown, never torn down.  Unseeded calls start from the
empty matching: the search from a root with a free neighbor matches it to
the first one, which is all a greedy pre-pass would do.  All per-search
bookkeeping resets lazily through stamps, so a search costs time
proportional to the subgraph it explores, not to the whole graph.

The engine walks a CSR: the rows of a Graph's csr(), each ascending, held
as two flat Python lists.  Edges given as pairs are canonicalised with
Graph.from_pairs first; a Graph is used as is, so a caller that already
holds its CSR (the k-factor gadget) pays for no sort.
"""

from collections import deque

import numpy as np

from .errors import DomainError
from .graphs import Graph

__all__ = ["maximum_matching", "perfect_matching_exists"]


class _Blossom:
    """One-pass Edmonds search state over a fixed CSR: the row of v is
    nbr[xadj[v]:xadj[v + 1]], both flat Python lists."""

    __slots__ = (
        "xadj", "nbr", "mate", "stamp", "bstamp", "clock", "start",
        "used_at", "p_at", "p", "base_at", "base", "lca_at",
    )

    def __init__(self, xadj, nbr, mate):
        n = len(mate)
        self.xadj = xadj
        self.nbr = nbr
        self.mate = mate
        self.stamp = 0
        self.bstamp = 0
        # p_at holds the clock at each p assignment, so a valid entry is one
        # made since the search started, and an inner vertex (given p once)
        # carries the order in which the search reached it
        self.clock = 0
        self.start = 1
        self.used_at = [0] * n
        self.p_at = [0] * n
        self.p = [-1] * n
        self.base_at = [0] * n
        self.base = list(range(n))
        self.lca_at = [0] * n

    # stamped accessors: state from older searches reads as pristine
    def _get_base(self, v):
        """Base of the outermost blossom holding v: its union-find root."""
        base = self.base
        base_at = self.base_at
        stamp = self.stamp
        root = v
        while base_at[root] == stamp:
            root = base[root]
        while v != root:
            base[v], v = root, base[v]
        return root

    def _get_p(self, v):
        return self.p[v] if self.p_at[v] >= self.start else -1

    def _set_p(self, v, parent):
        self.clock += 1
        self.p[v] = parent
        self.p_at[v] = self.clock

    def _lca(self, a, b):
        # walks use their own mark array: the a-side climb marks bases all
        # the way to the root, which must not read as blossom membership
        self.bstamp += 1
        stamp = self.bstamp
        mark = self.lca_at
        mate = self.mate
        while True:
            a = self._get_base(a)
            mark[a] = stamp
            if mate[a] == -1:
                break
            a = self._get_base(self._get_p(mate[a]))
        while True:
            b = self._get_base(b)
            if mark[b] == stamp:
                return b
            b = self._get_base(self._get_p(mate[b]))

    def _mark_path(self, v, b, child, bases, inner):
        """Walk from v up to base b, pointing p back along the cycle;
        collects the bases passed and the mates (inner side) of each step.
        Bases are linked only after both walks, which stop on reaching b."""
        mate = self.mate
        while self._get_base(v) != b:
            bases.append(self._get_base(v))
            bases.append(self._get_base(mate[v]))
            inner.append(mate[v])
            self._set_p(v, child)
            child = mate[v]
            v = self._get_p(child)

    def search(self, root) -> bool:
        """Grow an alternating tree from a free root; augment if a free
        vertex is reached.  True iff the matching grew."""
        self.stamp += 1
        stamp = self.stamp
        start = self.start = self.clock + 1
        xadj = self.xadj
        nbr = self.nbr
        mate = self.mate
        base = self.base
        base_at = self.base_at
        p_at = self.p_at
        used_at = self.used_at
        used_at[root] = stamp
        queue = deque([root])
        while queue:
            v = queue.popleft()
            mate_v = mate[v]
            # only a contraction moves v's base: look it up now and after one
            v_base = self._get_base(v)
            for to in nbr[xadj[v]:xadj[v + 1]]:
                # the stamped checks inline: a node outside every blossom
                # of this search is its own base, and p[x] counts only
                # when p_at[x] >= start
                if base_at[to] == stamp:
                    if v_base == self._get_base(to):
                        continue
                elif v_base == to:
                    continue
                if mate_v == to:
                    continue
                w = mate[to]
                if to == root or (w != -1 and p_at[w] >= start):
                    # to is outer: the edge closes an odd cycle (blossom)
                    cur_base = self._lca(v, to)
                    bases: list[int] = []
                    inner: list[int] = []
                    self._mark_path(v, cur_base, to, bases, inner)
                    self._mark_path(to, cur_base, v, bases, inner)
                    for b in bases:
                        base[b] = cur_base
                        base_at[b] = stamp
                    # the cycle's inner vertices become outer, queued in the
                    # order the search reached them: queue order decides
                    # which augmenting path is found, and so the mates
                    for i in sorted(inner, key=p_at.__getitem__):
                        if used_at[i] != stamp:
                            used_at[i] = stamp
                            queue.append(i)
                    v_base = self._get_base(v)
                elif p_at[to] < start:
                    self._set_p(to, v)
                    if w == -1:
                        # augment: flip matched status back to the root
                        while to != -1:
                            pv = self._get_p(to)
                            ppv = mate[pv]
                            mate[to] = pv
                            mate[pv] = to
                            to = ppv
                        return True
                    used_at[w] = stamp
                    queue.append(w)
        return False


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
    seed = np.asarray(np.full(n, -1) if seed_mate is None else seed_mate, dtype=np.int64)
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
    if np.any(g.rows_of(np.column_stack([np.minimum(v, w), np.maximum(v, w)])) < 0):
        raise DomainError("seed_mate uses a non-edge")

    xadj, nbr, _ = g.csr()
    xadj, nbr = xadj.tolist(), nbr.tolist()
    mate = seed.tolist()
    engine = _Blossom(xadj, nbr, mate)
    for root in range(n):
        if mate[root] == -1 and xadj[root] != xadj[root + 1]:
            engine.search(root)
    return np.array(mate, dtype=np.int64)


def perfect_matching_exists(mate) -> bool:
    return len(mate) % 2 == 0 and bool(np.all(np.asarray(mate) >= 0))

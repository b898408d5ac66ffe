"""The graph container plus the edge-list text format.

Graph is a canonicalized undirected graph: rows of its edge array are
distinct, satisfy u < v and are sorted lexicographically, so equal graphs
serialize to identical bytes.  A multigraph (what configuration
projections feed into the stripping machinery) is the same container with
per-row multiplicities `mult` and per-vertex loop counts `loops`; both are
None when every edge is single and there are no loops, so a multiset
without repeats is an ordinary simple graph.  Degrees count multiplicity,
and a loop adds 2 to its vertex's degree without making the vertex its own
neighbor.

Edge-list text format: first line "n m", then m lines "u v", 0-indexed,
u < v, sorted lexicographically.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DomainError

__all__ = ["Graph", "parse_edge_text", "format_edge_text"]


def _int64(values, what: str) -> np.ndarray:
    """values as an int64 array; DomainError unless they form a rectangular
    array of integers (integral floats pass; bools and truncations do not)."""
    try:
        raw = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise DomainError(f"{what} must be a rectangular array") from exc
    if raw.dtype.kind not in "iuf":  # bool, object, complex, string, ...
        raise DomainError(f"{what} must be integers")
    with np.errstate(invalid="ignore"):  # nan and inf cast to values caught below
        arr = raw.astype(np.int64, copy=False)
    if arr is not raw and np.any(arr != raw):
        raise DomainError(f"{what} must be integers")
    return arr


def _integer(value, least: int, what: str) -> int:
    """value as an int; DomainError unless it is an integer >= least.
    Integral floats pass; 2.5, nan and non-numbers do not."""
    try:
        arr = _int64(value, what)
    except DomainError:
        arr = None
    if arr is None or arr.ndim != 0 or arr < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(arr)


def _real(value, what: str) -> float:
    """value as a float; DomainError unless it is a real number.  nan and
    inf pass, for the caller's range check; strings and booleans do not."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _graph(value, what: str, *, simple: bool = False) -> Graph:
    """value itself; DomainError unless it is a Graph, and with simple set
    a Graph without parallel edges or loops."""
    if not isinstance(value, Graph):
        raise DomainError(f"{what} must be a Graph, got {type(value).__name__}")
    if simple and not value.is_simple():
        raise DomainError(f"{what} must be a simple Graph: no parallel edges or loops")
    return value


def _bool_mask(value, n: int, what: str) -> np.ndarray:
    """value itself; DomainError unless it is a boolean array of length n."""
    if not (isinstance(value, np.ndarray) and value.dtype == bool
            and value.shape == (n,)):
        raise DomainError(f"{what} must be a boolean array of length {n}")
    return value


def _int_pairs(values, what: str) -> np.ndarray:
    """values as a (p, 2) int64 array; DomainError if they are not integer pairs."""
    arr = _int64(values, what)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError(f"{what} must be pairs")
    return arr


def _pairs(n: int, edges) -> np.ndarray:
    """Edges as an (m, 2) int64 array with every endpoint in [0, n)."""
    arr = _int_pairs(edges, "edges")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise DomainError("edge endpoint out of range")
    return arr


class Graph:
    """Immutable undirected graph with canonical edge order.

    Graph(n, edges) accepts only simple graphs; Graph.from_pairs builds a
    multigraph.  m counts distinct edges (rows), not multiplicities.
    """

    __slots__ = (
        "n", "edge_array", "mult", "loops", "_xadj", "_adjv", "_adjm", "_degrees"
    )

    def __init__(self, n: int, edges, *, _canonical: bool = False,
                 mult=None, loops=None):
        """Simple graph from distinct non-loop pairs.  With _canonical the
        pairs are trusted to be in canonical order already, and mult and
        loops may give a multigraph's multiplicities (one per row) and loop
        counts (one per vertex); Graph.from_pairs is the public way to them."""
        if not _canonical:
            if mult is not None or loops is not None:
                raise DomainError("mult and loops need _canonical; use from_pairs")
            g = Graph.from_pairs(n, edges)
            if not g.is_simple():
                raise DomainError("a simple graph has no self-loops or repeated pairs")
            n, edges = g.n, g.edge_array
        n = _integer(n, 0, "vertex count")
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if (mult is not None and np.shape(mult) != (len(arr),)
                or loops is not None and np.shape(loops) != (n,)):
            raise DomainError("mult needs one entry per edge row, loops one per vertex")
        self.n = n
        self.edge_array = arr
        # normalized so that a multiset without repeats or loops is simple
        if mult is not None and np.all(mult == 1):
            mult = None
        if loops is not None and not np.any(loops):
            loops = None
        self.mult = None if mult is None else np.asarray(mult, dtype=np.int64)
        self.loops = None if loops is None else np.asarray(loops, dtype=np.int64)
        self._xadj = None
        self._adjv = None
        self._adjm = None
        self._degrees = None

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Graph":
        """A multigraph on unordered pairs; a pair may repeat or be a loop."""
        n = _integer(n, 0, "vertex count")
        arr = _pairs(n, pairs)
        lo, hi = np.minimum(*arr.T), np.maximum(*arr.T)
        is_loop = lo == hi
        keys, mult = np.unique(lo[~is_loop] * n + hi[~is_loop], return_counts=True)
        return cls(
            n,
            np.column_stack([keys // n, keys % n]),
            _canonical=True,
            mult=mult,
            loops=np.bincount(lo[is_loop], minlength=n),
        )

    @classmethod
    def _from_csr(cls, xadj: np.ndarray, adjv: np.ndarray) -> "Graph":
        """Simple graph from a trusted CSR: symmetric, loop-free, each row
        ascending.  Its canonical rows are the entries above the diagonal."""
        n = len(xadj) - 1
        src = np.repeat(np.arange(n), np.diff(xadj))
        upper = adjv > src
        g = cls(n, np.column_stack([src[upper], adjv[upper]]), _canonical=True)
        g._xadj, g._adjv = xadj, adjv
        return g

    @property
    def m(self) -> int:
        return len(self.edge_array)

    def is_simple(self) -> bool:
        return self.mult is None and self.loops is None

    @property
    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            weights = None if self.mult is None else np.repeat(self.mult, 2)
            deg = np.bincount(
                self.edge_array.ravel(), weights=weights, minlength=self.n
            ).astype(np.int64)
            if self.loops is not None:
                deg += 2 * self.loops
            self._degrees = deg
        return self._degrees

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(xadj, neighbor ids, multiplicities or None when every edge is
        single), built once; each vertex's neighbors are ascending."""
        if self._xadj is None:
            e = self.edge_array
            src = np.concatenate([e[:, 0], e[:, 1]])
            dst = np.concatenate([e[:, 1], e[:, 0]])
            # distinct rows make the key unique; int64 holds it while n**2 < 2**63
            order = np.argsort(src * self.n + dst)
            self._adjv = dst[order]
            if self.mult is not None:
                self._adjm = np.concatenate([self.mult, self.mult])[order]
            counts = np.bincount(src, minlength=self.n)
            self._xadj = np.concatenate([[0], np.cumsum(counts)])
        return self._xadj, self._adjv, self._adjm

    def neighbors_of(self, vs: np.ndarray) -> np.ndarray:
        """Sorted neighbor ids of each v in the id array vs, concatenated."""
        xadj, adjv, _ = self.csr()
        counts = xadj[vs + 1] - xadj[vs]
        offset = xadj[vs] - (np.cumsum(counts) - counts)
        return adjv[np.repeat(offset, counts) + np.arange(counts.sum())]

    def adjacency(self) -> list[list[int]]:
        """Sorted distinct neighbor ids of every vertex, as Python lists."""
        xadj, adjv, _ = self.csr()
        bounds, values = xadj.tolist(), adjv.tolist()
        return [values[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def neighbors_in(self, mask: np.ndarray, weights=None) -> np.ndarray:
        """Per-vertex count of neighbors inside the boolean mask, each edge
        row weighted by weights: None (1 per row) counts distinct
        neighbors, mult counts edges.  Loops are not counted.  On disjoint
        X, Y the edge count e(X, Y) is neighbors_in(in_y)[in_x].sum()."""
        mask, e = _bool_mask(mask, self.n, "mask"), self.edge_array
        w = 1 if weights is None else weights
        out = np.bincount(e[:, 0], weights=w * mask[e[:, 1]], minlength=self.n)
        out += np.bincount(e[:, 1], weights=w * mask[e[:, 0]], minlength=self.n)
        return out.astype(np.int64)

    def rows_of(self, pairs: np.ndarray) -> np.ndarray:
        """Row of edge_array holding each canonical (u < v) pair of the
        (p, 2) array pairs, or -1 where the graph has no such edge."""
        keys = self.edge_array[:, 0] * self.n + self.edge_array[:, 1]
        want = pairs[:, 0] * self.n + pairs[:, 1]
        pos = np.searchsorted(keys, want)
        found = pos < len(keys)
        found[found] = keys[pos[found]] == want[found]
        return np.where(found, pos, -1)

    def edge_tuples(self) -> list[tuple[int, int]]:
        return [(int(u), int(v)) for u, v in self.edge_array]

    def induced_subgraph(self, keep: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Subgraph on the kept vertices, compacted; returns (graph, old_ids).

        keep is a boolean mask over the current vertex ids; old_ids[i] is the
        original id of new vertex i (ascending, so relabeling is canonical).
        Multiplicities and loops of the kept part carry over.
        """
        keep = _bool_mask(keep, self.n, "keep")
        old_ids = np.flatnonzero(keep)
        new_id = np.full(self.n, -1, dtype=np.int64)
        new_id[old_ids] = np.arange(len(old_ids))
        e = self.edge_array
        sel = keep[e[:, 0]] & keep[e[:, 1]]
        sub = new_id[e[sel]]
        return Graph(
            len(old_ids),
            sub,
            _canonical=True,
            mult=None if self.mult is None else self.mult[sel],
            loops=None if self.loops is None else self.loops[old_ids],
        ), old_ids

    def _key(self) -> tuple:
        return (
            self.n,
            self.edge_array.tobytes(),
            None if self.mult is None else self.mult.tobytes(),
            None if self.loops is None else self.loops.tobytes(),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._key() == other._key()

    def __hash__(self):  # pragma: no cover - graphs are not dict keys in hot paths
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def format_edge_text(g: Graph) -> str:
    if not g.is_simple():
        raise DomainError("the edge-list format holds simple graphs only")
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_array)
    return "\n".join(lines) + "\n"


def parse_edge_text(text: str) -> Graph:
    rows = text.strip().split("\n") if text.strip() else []
    if not rows:
        raise DomainError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise DomainError("first line must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise DomainError(f"bad header: {rows[0]!r}") from exc
    if m != len(rows) - 1:
        raise DomainError(f"header claims {m} edges, found {len(rows) - 1}")
    try:
        edges = np.array([row.split() for row in rows[1:]], dtype=np.int64).reshape(m, 2)
    except (ValueError, OverflowError) as exc:
        raise DomainError("each edge line must be two integers 'u v'") from exc
    g = Graph(n, edges)
    if not np.array_equal(g.edge_array, edges):
        raise DomainError("edge lines must be listed in canonical order: u < v, sorted")
    return g

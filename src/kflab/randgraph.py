"""Random graph and configuration sampling.

Covers G(n, p = c/n) generation by geometric skips, uniform configurations
on a degree sequence, simplicity resampling, and the class-respecting
re-sampler that draws a fresh configuration uniformly among all those
sharing the same split-degree information.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ExhaustionError, InfeasibleError, ParityError
from .graphs import Graph
from .rng import make_rng

__all__ = [
    "W0",
    "W1",
    "R",
    "Configuration",
    "RWInfo",
    "gen_gnp",
    "sample_configuration",
    "project_multigraph",
    "to_multigraph",
    "sample_simple_with_degrees",
    "rw_extract",
    "sample_from_rw",
]

# vertex classes used by the stripping machinery and the re-sampler
W0, W1, R = 0, 1, 2


# ------------------------------------------------------------- configurations

@dataclass
class Configuration:
    """A perfect pairing on degree-many copies of each vertex.

    Copy ids are laid out contiguously per vertex, in vertex order (owner
    maps each copy to its vertex).  mate is a fixed-point-free involution.
    """

    degrees: np.ndarray
    mate: np.ndarray
    attempts: int = 1
    _owner: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def copy_count(self) -> int:
        return len(self.mate)

    @property
    def owner(self) -> np.ndarray:
        if self._owner is None:
            self._owner = np.repeat(
                np.arange(self.n, dtype=np.int64), self.degrees
            )
        return self._owner

    def validate(self) -> None:
        m = self.mate
        if len(m) != int(self.degrees.sum()):
            raise DomainError("mate array does not cover all copies")
        if len(m) % 2 != 0:
            raise ParityError("odd copy count cannot be perfectly paired")
        if np.any(m == np.arange(len(m))):
            raise DomainError("pairing has a fixed point")
        if np.any(m[m] != np.arange(len(m))):
            raise DomainError("pairing is not an involution")

    def pairs(self) -> list[tuple[int, int]]:
        """Canonical pair list: smaller copy id first, sorted."""
        ids = np.arange(len(self.mate))
        sel = ids < self.mate
        return list(zip(ids[sel].tolist(), self.mate[sel].tolist()))

    def to_json(self) -> str:
        return json.dumps(
            {"degrees": self.degrees.tolist(), "pairing": self.pairs()},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Configuration":
        obj = json.loads(text)
        degrees = np.asarray(obj["degrees"], dtype=np.int64)
        total = int(degrees.sum())
        mate = np.full(total, -1, dtype=np.int64)
        for a, b in obj["pairing"]:
            if not (0 <= a < total and 0 <= b < total) or a == b:
                raise DomainError(f"bad pair ({a},{b})")
            if mate[a] != -1 or mate[b] != -1:
                raise DomainError(f"copy paired twice in ({a},{b})")
            mate[a], mate[b] = b, a
        if np.any(mate < 0):
            raise DomainError("pairing does not cover all copies")
        cfg = cls(degrees=degrees, mate=mate)
        cfg.validate()
        return cfg


def _decode_pair_index(t: np.ndarray, n: int) -> np.ndarray:
    """Map linear indices over the C(n,2) pairs (u < v, lexicographic) to rows.

    Row u starts at S(u) = u(2n-u-1)/2; invert with a float sqrt and fix up
    rounding exactly with integer arithmetic.
    """
    t = np.asarray(t, dtype=np.int64)
    tw = 2.0 * n - 1.0
    u = np.floor((tw - np.sqrt(tw * tw - 8.0 * t)) / 2.0).astype(np.int64)
    u = np.clip(u, 0, n - 2)
    for _ in range(2):
        s_u = u * (2 * n - u - 1) // 2
        u -= (s_u > t).astype(np.int64)
        u = np.clip(u, 0, n - 2)
        s_next = (u + 1) * (2 * n - u - 2) // 2
        u += (t >= s_next).astype(np.int64)
        u = np.clip(u, 0, n - 2)
    s_u = u * (2 * n - u - 1) // 2
    v = t - s_u + u + 1
    return np.column_stack([u, v])


def gen_gnp(n: int, c: float, seed: int) -> Graph:
    """G(n, p=c/n) by geometric gap skipping over the C(n,2) pair space.

    Deterministic per (n, c, seed); p is clamped to [0, 1].
    """
    if n < 1:
        raise DomainError(f"gen_gnp needs n >= 1, got {n}")
    if not c >= 0:
        raise DomainError(f"gen_gnp needs c >= 0, got {c}")
    p = min(c / n, 1.0)
    total = n * (n - 1) // 2
    if p == 0.0 or total == 0:
        return Graph(n, np.empty((0, 2), dtype=np.int64), _canonical=True)
    if p == 1.0:
        u, v = np.triu_indices(n, k=1)  # row-major, so already canonical
        return Graph(n, np.column_stack([u, v]), _canonical=True)

    rng = make_rng(seed)
    log1mp = math.log1p(-p)
    batch = int(total * p * 1.1) + 1024
    hits: list[np.ndarray] = []
    pos = -1  # last selected linear index
    while pos < total:
        u01 = 1.0 - rng.random(batch)  # in (0, 1], so the log is finite
        gaps = np.floor(np.log(u01) / log1mp).astype(np.int64) + 1
        idx = pos + np.cumsum(gaps)
        hits.append(idx[idx < total])
        if idx[-1] >= total:
            break
        pos = int(idx[-1])
    t = np.concatenate(hits)
    edges = _decode_pair_index(t, n)
    return Graph(n, edges, _canonical=True)


def _pairings(degrees, seed: int):
    """Uniform pairings of the copies, one per attempt from one seeded
    stream: shuffle all copies and pair consecutive ones.  The degrees are
    checked on the first draw."""
    degrees = np.asarray(degrees, dtype=np.int64)
    if np.any(degrees < 0):
        raise DomainError("degrees must be >= 0")
    total = int(degrees.sum())
    if total % 2 != 0:
        raise ParityError(f"degree sum {total} is odd, no pairing exists")
    rng = make_rng(seed)
    for attempt in itertools.count(1):
        perm = rng.permutation(total)
        mate = np.empty(total, dtype=np.int64)
        mate[perm[0::2]] = perm[1::2]
        mate[perm[1::2]] = perm[0::2]
        cfg = Configuration(degrees=degrees, mate=mate, attempts=attempt)
        cfg.validate()
        yield cfg


def sample_configuration(degrees, seed: int) -> Configuration:
    """Uniform pairing of the copies: shuffle and pair consecutive."""
    return next(_pairings(degrees, seed))


def project_multigraph(cfg: Configuration) -> tuple[Graph, int, int]:
    """Collapse to a simple Graph plus (loop_count, multi_edge_count)."""
    mg = to_multigraph(cfg)
    loop_count = 0 if mg.loops is None else int(mg.loops.sum())
    multi_edge_count = 0 if mg.mult is None else int(np.sum(mg.mult - 1))
    return Graph(cfg.n, mg.edge_array, _canonical=True), loop_count, multi_edge_count


def to_multigraph(cfg: Configuration) -> Graph:
    """Full multiplicity-preserving projection: one edge per pair of copies."""
    ids = np.flatnonzero(np.arange(cfg.copy_count) < cfg.mate)
    owners = np.column_stack([cfg.owner[ids], cfg.owner[cfg.mate[ids]]])
    return Graph.from_pairs(cfg.n, owners)


def sample_simple_with_degrees(
    degrees, seed: int, max_attempts: int = 1000
) -> Configuration:
    """Resample configurations until the projection is simple.

    The returned Configuration records how many attempts were used; after
    max_attempts failures an exhaustion error is raised and the caller may
    fall back to multigraph mode.
    """
    for cfg in itertools.islice(_pairings(degrees, seed), max_attempts):
        if to_multigraph(cfg).is_simple():
            return cfg
    raise ExhaustionError(
        f"no simple configuration within {max_attempts} attempts"
    )


# ------------------------------------------------------------ RW information

@dataclass(frozen=True)
class RWInfo:
    """Split-degree summary of a configuration under a W0/W1/R classing.

    splits[v] is (deg_W0, deg_W1R) when classes[v] == W0 and
    (deg_W0, deg_W1, deg_R) otherwise.  w1_pairs lists, with smaller copy
    id first and sorted, exactly the pairs with one copy owned by a W1
    vertex and the other by a W1-or-R vertex; those pairs are pinned and
    survive re-sampling verbatim.
    """

    classes: tuple[int, ...]
    splits: tuple[tuple[int, ...], ...]
    w1_pairs: tuple[tuple[int, int], ...]

    def degree_of(self, v: int) -> int:
        return sum(self.splits[v])

    @property
    def degrees(self) -> np.ndarray:
        return np.array([self.degree_of(v) for v in range(len(self.classes))])


def rw_extract(cfg: Configuration, classes) -> RWInfo:
    """Read the split degrees and pinned pair list off a configuration."""
    classes = np.asarray(classes, dtype=np.int64)
    if len(classes) != cfg.n:
        raise DomainError("classes must cover every vertex")
    if classes.size and not np.all((classes >= W0) & (classes <= R)):
        raise DomainError("classes must be W0, W1 or R")
    owner = cfg.owner
    mate_class = classes[owner[cfg.mate]]
    # per-vertex counts of partners in each class
    cnt = np.zeros((cfg.n, 3), dtype=np.int64)
    np.add.at(cnt, (owner, mate_class), 1)
    splits: list[tuple[int, ...]] = []
    for v in range(cfg.n):
        if classes[v] == W0:
            splits.append((int(cnt[v, W0]), int(cnt[v, W1] + cnt[v, R])))
        else:
            splits.append((int(cnt[v, W0]), int(cnt[v, W1]), int(cnt[v, R])))
    ids = np.arange(cfg.copy_count)
    own_class = classes[owner]
    sel = ids < cfg.mate
    a_cls = own_class[sel]
    b_cls = mate_class[sel]
    listed = ((a_cls == W1) & (b_cls != W0)) | ((b_cls == W1) & (a_cls != W0))
    pair_a = ids[sel][listed]
    pair_b = cfg.mate[sel][listed]
    w1_pairs = tuple(sorted(zip(pair_a.tolist(), pair_b.tolist())))
    return RWInfo(
        classes=tuple(int(x) for x in classes),
        splits=tuple(splits),
        w1_pairs=w1_pairs,
    )


def sample_from_rw(info: RWInfo, seed: int) -> Configuration:
    """Uniform configuration among those sharing the given RW-information.

    Five-step decomposition: (1) split each R vertex's unpinned copies
    between W0-targets and R-targets, (2) split each W0 vertex's copies
    between W0-targets and (W1 u R)-targets, (3) uniform matching inside
    the W0-selected pool, (4) uniform matching inside the R-selected pool,
    (5) uniform bipartite matching of W0's outward copies against the
    W0-designated copies of W1 and R.  Pinned W1 pairs are installed
    verbatim.
    """
    n = len(info.classes)
    degrees = np.array([info.degree_of(v) for v in range(n)], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(degrees)])
    total = int(degrees.sum())
    owner = np.repeat(np.arange(n, dtype=np.int64), degrees)
    classes = np.asarray(info.classes, dtype=np.int64)

    mate = np.full(total, -1, dtype=np.int64)
    pinned = np.zeros(total, dtype=bool)
    listed_partners: list[list[int]] = [[] for _ in range(n)]
    for a, b in info.w1_pairs:
        if not (0 <= a < total and 0 <= b < total) or a == b:
            raise InfeasibleError(f"pair ({a},{b}) references missing copies")
        if pinned[a] or pinned[b]:
            raise InfeasibleError(f"copy reused by pair ({a},{b})")
        ca, cb = classes[owner[a]], classes[owner[b]]
        if not ((ca == W1 and cb != W0) or (cb == W1 and ca != W0)):
            raise InfeasibleError(
                f"pair ({a},{b}) lacks the W1 x (W1 u R) class pattern"
            )
        pinned[a] = pinned[b] = True
        mate[a], mate[b] = b, a
        listed_partners[owner[a]].append(int(classes[owner[b]]))
        listed_partners[owner[b]].append(int(classes[owner[a]]))

    rng = make_rng(seed)
    w0_pool: list[int] = []      # step 3 participants
    r_pool: list[int] = []       # step 4 participants
    side_w0_out: list[int] = []  # step 5: W0 copies designated outward
    side_to_w0: list[int] = []   # step 5: W1/R copies designated toward W0

    for v in range(n):
        free = [c for c in range(offsets[v], offsets[v + 1]) if not pinned[c]]
        listed = listed_partners[v]
        cls = classes[v]
        if cls == W0:
            d_w0, d_out = info.splits[v]
            if listed:
                raise InfeasibleError(f"W0 vertex {v} appears in the pinned pair list")
            if len(free) != d_w0 + d_out:
                raise InfeasibleError(f"vertex {v}: copies do not match split degrees")
            chosen = rng.permutation(len(free))
            w0_pool.extend(free[i] for i in chosen[:d_w0])
            side_w0_out.extend(free[i] for i in chosen[d_w0:])
        elif cls == R:
            d_w0, d_w1, d_r = info.splits[v]
            if len(listed) != d_w1 or any(c != W1 for c in listed):
                raise InfeasibleError(f"R vertex {v}: pinned pairs disagree with deg_W1")
            if len(free) != d_w0 + d_r:
                raise InfeasibleError(f"vertex {v}: copies do not match split degrees")
            chosen = rng.permutation(len(free))
            side_to_w0.extend(free[i] for i in chosen[:d_w0])
            r_pool.extend(free[i] for i in chosen[d_w0:])
        else:  # W1
            d_w0, d_w1, d_r = info.splits[v]
            if len(listed) != d_w1 + d_r:
                raise InfeasibleError(f"W1 vertex {v}: pinned pairs disagree with splits")
            if sum(1 for c in listed if c == W1) != d_w1 or sum(
                1 for c in listed if c == R
            ) != d_r:
                raise InfeasibleError(
                    f"W1 vertex {v}: pinned partner classes disagree with splits"
                )
            if len(free) != d_w0:
                raise InfeasibleError(f"vertex {v}: copies do not match split degrees")
            side_to_w0.extend(free)

    if len(w0_pool) % 2 != 0:
        raise InfeasibleError("odd number of copies in the W0-internal pool")
    if len(r_pool) % 2 != 0:
        raise InfeasibleError("odd number of copies in the R-internal pool")
    if len(side_w0_out) != len(side_to_w0):
        raise InfeasibleError(
            f"bipartite sides differ: {len(side_w0_out)} vs {len(side_to_w0)}"
        )

    for pool in (w0_pool, r_pool):
        order = rng.permutation(len(pool))
        for i in range(0, len(pool), 2):
            a, b = pool[order[i]], pool[order[i + 1]]
            mate[a], mate[b] = b, a
    order = rng.permutation(len(side_to_w0))
    for a, j in zip(side_w0_out, order):
        b = side_to_w0[j]
        mate[a], mate[b] = b, a

    if np.any(mate < 0):
        raise InfeasibleError("incomplete pairing after the five steps")
    cfg = Configuration(degrees=degrees, mate=mate)
    cfg.validate()
    return cfg

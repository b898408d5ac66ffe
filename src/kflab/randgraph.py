"""Random graph and configuration sampling.

Covers G(n, p = c/n) by geometric skips over the C(n, 2) pair indices,
uniform configurations on a degree sequence and their multigraphs, and
the class-respecting re-sampler that draws a configuration uniformly
among all those sharing the same split-degree information.  Each uniform
pairing shuffles copies and pairs consecutive ones.  Degrees, classes,
splits and pairs must be integers: DomainError, never a truncating cast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InfeasibleError, ParityError
from .graphs import Graph, _int64, _int_pairs, _integer, _real
from .rng import _seed, make_rng

__all__ = [
    "W0",
    "W1",
    "R",
    "Configuration",
    "RWInfo",
    "gen_gnp",
    "sample_configuration",
    "to_multigraph",
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
        if len(m) and (m.min() < 0 or m.max() >= len(m)):
            raise DomainError("mate entries must be copy ids in [0, copy_count)")
        ids = np.arange(len(m))
        if np.any(m == ids) or np.any(m[m] != ids):
            raise DomainError("pairing is not a fixed-point-free involution")

    def pairs(self) -> list[tuple[int, int]]:
        """Canonical pair list: smaller copy id first, sorted."""
        ids = np.arange(len(self.mate))
        sel = ids < self.mate
        return list(zip(ids[sel].tolist(), self.mate[sel].tolist()))


def _degrees(values) -> np.ndarray:
    degrees = _int64(values, "degrees")
    if degrees.ndim != 1 or np.any(degrees < 0):
        raise DomainError("degrees must be a 1-D sequence of integers >= 0")
    return degrees


def _classes(values, n: int) -> np.ndarray:
    classes = _int64(values, "classes")
    if classes.shape != (n,) or np.any((classes < W0) | (classes > R)):
        raise DomainError("classes must give W0, W1 or R for every vertex")
    return classes


def _pair_consecutive(mate: np.ndarray, copies: np.ndarray) -> None:
    """Pair copies[0] with copies[1], copies[2] with copies[3], ... in mate;
    on a uniformly shuffled copy array this is a uniform pairing."""
    mate[copies[0::2]] = copies[1::2]
    mate[copies[1::2]] = copies[0::2]


def _decode_pair_index(t: np.ndarray, n: int) -> np.ndarray:
    """Map linear indices over the C(n,2) pairs (u < v, lexicographic) to rows.

    Row u starts at S(u) = u(2n-u-1)/2, so u is the last row starting at or
    before t, found exactly by a search over the n-1 row starts.
    """
    t = np.asarray(t, dtype=np.int64)
    rows = np.arange(n - 1, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    u = np.searchsorted(starts, t, side="right") - 1
    return np.column_stack([u, t - starts[u] + u + 1])


def gen_gnp(n: int, c: float, seed: int) -> Graph:
    """G(n, p=c/n) by geometric gap skipping over the C(n,2) pair space.

    Deterministic per (n, c, seed); p is clamped to [0, 1].
    """
    n, c, seed = _integer(n, 1, "n"), _real(c, "c"), _seed(seed, "seed")
    if not c >= 0:
        raise DomainError(f"gen_gnp needs c >= 0, got {c}")
    p = min(c / n, 1.0)
    total = n * (n - 1) // 2
    if p == 0.0 or total == 0:
        return Graph(n, np.empty((0, 2), dtype=np.int64), _canonical=True)
    if p == 1.0:
        return Graph(n, _decode_pair_index(np.arange(total), n), _canonical=True)

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
    return Graph(n, _decode_pair_index(np.concatenate(hits), n), _canonical=True)


def sample_configuration(degrees, seed: int) -> Configuration:
    """Uniform pairing of the copies: shuffle and pair consecutive."""
    degrees = _degrees(degrees)
    total = int(degrees.sum())
    if total % 2 != 0:
        raise ParityError(f"degree sum {total} is odd, no pairing exists")
    mate = np.empty(total, dtype=np.int64)
    _pair_consecutive(mate, make_rng(seed).permutation(total))
    cfg = Configuration(degrees=degrees, mate=mate)
    cfg.validate()
    return cfg


def to_multigraph(cfg: Configuration) -> Graph:
    """Full multiplicity-preserving projection: one edge per pair of copies."""
    ids = np.flatnonzero(np.arange(cfg.copy_count) < cfg.mate)
    owners = np.column_stack([cfg.owner[ids], cfg.owner[cfg.mate[ids]]])
    return Graph.from_pairs(cfg.n, owners)


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


def rw_extract(cfg: Configuration, classes) -> RWInfo:
    """Read the split degrees and pinned pair list off a configuration."""
    classes = _classes(classes, cfg.n)
    owner = cfg.owner
    # per-vertex counts of partners in each class
    cnt = np.bincount(3 * owner + classes[owner[cfg.mate]], minlength=3 * cfg.n)
    splits = tuple(
        (w0, w1 + r) if c == W0 else (w0, w1, r)
        for c, (w0, w1, r) in zip(classes.tolist(), cnt.reshape(cfg.n, 3).tolist())
    )
    # pairs (a, mate[a]) with a < mate[a], in ascending a, so already sorted
    ids = np.flatnonzero(np.arange(cfg.copy_count) < cfg.mate)
    pairs = np.column_stack([ids, cfg.mate[ids]])
    ends = classes[owner[pairs]]
    pairs = pairs[(ends != W0).all(axis=1) & (ends == W1).any(axis=1)]
    return RWInfo(
        classes=tuple(classes.tolist()),
        splits=splits,
        w1_pairs=tuple(map(tuple, pairs.tolist())),
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

    Steps 1 and 2 draw one permutation of each W0 and R vertex's unpinned
    copies, in vertex order, and take the first deg_W0 as W0-targets; steps
    3 to 5 draw one permutation each.  A non-integral or negative entry or
    a split of the wrong arity raises DomainError; splits, pinned pairs and
    pools that no pairing can meet raise InfeasibleError.
    """
    n = len(info.classes)
    classes = _classes(info.classes, n)
    if [len(s) for s in info.splits] != (3 - (classes == W0)).tolist():
        raise DomainError("splits need arity 2 for W0 vertices and 3 for the others")
    # W0 rows are padded to (deg_W0, deg_W1R, 0)
    split = _degrees([d for s in info.splits for d in (*s, 0)[:3]]).reshape(n, 3)
    degrees = split.sum(axis=1)
    total = int(degrees.sum())
    owner = np.repeat(np.arange(n, dtype=np.int64), degrees)

    pairs = _int_pairs(info.w1_pairs, "w1_pairs")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= total):
        raise InfeasibleError("a pinned pair names a copy the splits do not have")
    mate = np.full(total, -1, dtype=np.int64)
    _pair_consecutive(mate, pairs.ravel())
    free = np.flatnonzero(mate < 0)
    if len(free) != total - pairs.size:
        raise InfeasibleError("a copy is used twice by the pinned pairs")
    # pinned partners of each vertex by class, against what the splits allow:
    # none for W0, deg_W1 W1-partners for R, deg_W1 and deg_R for W1.  So a
    # pair with a W0 end or joining R to R fails here, and the unpinned copies
    # number deg_W0 + deg_W1R, deg_W0 + deg_R and deg_W0 for W0, R and W1.
    uv = owner[pairs]  # the vertices each pinned pair joins
    partners = np.bincount((3 * uv + classes[uv[:, ::-1]]).ravel(), minlength=3 * n)
    allowed = split * np.array([[0, 0, 0], [0, 1, 1], [0, 1, 0]])[classes]
    if np.any(partners != allowed.ravel()):
        raise InfeasibleError("pinned pairs disagree with the split degrees")

    rng = make_rng(seed)
    free_owner = owner[free]
    starts = np.searchsorted(free_owner, np.arange(n + 1))
    order = np.arange(len(free))
    for v in np.flatnonzero(classes != W1).tolist():
        a, b = starts[v], starts[v + 1]
        order[a:b] = a + rng.permutation(b - a)
    to_w0 = np.arange(len(free)) - starts[free_owner] < split[free_owner, W0]
    free, free_cls = free[order], classes[free_owner]
    w0_pool = free[to_w0 & (free_cls == W0)]
    r_pool = free[~to_w0 & (free_cls == R)]
    w0_out = free[~to_w0 & (free_cls == W0)]
    toward_w0 = free[to_w0 & (free_cls != W0)]
    if len(w0_pool) % 2 or len(r_pool) % 2 or len(w0_out) != len(toward_w0):
        raise InfeasibleError("W0 and R pools must be even, bipartite sides equal")

    for pool in (w0_pool, r_pool):
        _pair_consecutive(mate, pool[rng.permutation(len(pool))])
    toward_w0 = toward_w0[rng.permutation(len(toward_w0))]
    mate[w0_out] = toward_w0
    mate[toward_w0] = w0_out
    cfg = Configuration(degrees=degrees, mate=mate)
    cfg.validate()
    return cfg

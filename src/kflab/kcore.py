"""k-core extraction by peeling, plus first-iteration structure audits.

The peel runs in rounds: each round deletes every remaining vertex of
degree below k at once.  The resulting vertex set is order-independent;
the recorded peel order is the rounds, ascending id within a round.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .graphs import Graph, _integer

__all__ = [
    "CoreResult",
    "Lw0Part",
    "Lw0Report",
    "k_core",
    "audit_lw0",
]


@dataclass(frozen=True, eq=False)
class CoreResult:
    """Maximal induced subgraph of minimum degree >= k, with provenance.

    core is compacted; vertex_map[i] is the ambient id of core vertex i
    (ascending).  membership and peel_order use ambient ids; peel_order
    lists the peel's rounds, ascending id within a round.
    """

    core: Graph
    membership: np.ndarray
    peel_order: tuple[int, ...]
    vertex_map: np.ndarray
    ambient_n: int


def k_core(g: Graph, k: int) -> CoreResult:
    """Peel to the maximal induced subgraph with minimum degree >= k."""
    k = _integer(k, 1, "k")
    if not isinstance(g, Graph) or not g.is_simple():
        raise DomainError("k_core peels simple Graphs only")
    deg = g.degrees.copy()
    alive = np.ones(g.n, dtype=bool)
    frontier = np.flatnonzero(deg < k)
    peel_order: list[int] = []
    while frontier.size:
        alive[frontier] = False
        peel_order.extend(frontier.tolist())
        nbrs = g.neighbors_of(frontier)
        hit, drop = np.unique(nbrs[alive[nbrs]], return_counts=True)
        deg[hit] -= drop
        # every survivor had degree >= k, so these just crossed below k
        frontier = hit[deg[hit] < k]
    core, old_ids = g.induced_subgraph(alive)
    return CoreResult(
        core=core,
        membership=alive,
        peel_order=tuple(peel_order),
        vertex_map=old_ids,
        ambient_n=g.n,
    )


# ----------------------------------------------------------------- lw0 audits

@dataclass(frozen=True)
class Lw0Part:
    """One measured quantity next to its reference line; never asserted."""

    label: str
    description: str
    measured: float
    lower: float | None
    upper: float | None
    ok: bool


@dataclass(frozen=True)
class Lw0Report:
    """The eight parts; to_json writes them as a list of their fields."""

    parts: tuple[Lw0Part, ...]

    def part(self, label: str) -> Lw0Part:
        for p in self.parts:
            if p.label == label:
                return p
        raise KeyError(label)

    def to_json(self) -> str:
        return json.dumps(self.parts, default=vars, separators=(",", ":"))


def audit_lw0(result: CoreResult, k: int) -> Lw0Report:
    """Measure the eight pre-deletion structure quantities against their
    large-k reference bounds (fractions of the ambient vertex count).

    W0 is the set of core vertices of degree exactly k, R the rest.
    """
    k = _integer(k, 1, "k")
    core = result.core
    n = float(result.ambient_n)
    deg = core.degrees
    w0 = deg == k

    w0_nbrs = core.neighbors_in(w0)
    e_w0w0 = int(w0_nbrs[w0].sum()) // 2
    e_w0r = int(w0_nbrs[~w0].sum())
    e_rr = core.m - e_w0w0 - e_w0r

    heavy = deg > 2 * k
    heavy_total_degree = int(deg[heavy].sum())
    crowded = int(np.sum((deg <= 2 * k) & (2 * w0_nbrs >= k)))
    lonely_r = int(np.sum(~w0 & (w0_nbrs == 0)))

    parts = (
        Lw0Part(
            "a", "core size vs 0.99 n",
            float(core.n), 0.99 * n, None, core.n > 0.99 * n,
        ),
        Lw0Part(
            "b", "|W0| inside (0.99 n/k, 1.01 n/k)",
            float(np.sum(w0)), 0.99 * n / k, 1.01 * n / k,
            bool(0.99 * n / k < np.sum(w0) < 1.01 * n / k),
        ),
        Lw0Part(
            "c", "total degree of vertices of degree > 2k vs e^(-k/6) n",
            float(heavy_total_degree), None, math.exp(-k / 6) * n,
            heavy_total_degree <= math.exp(-k / 6) * n,
        ),
        Lw0Part(
            "d", "edges inside W0 vs n/(5k)",
            float(e_w0w0), n / (5 * k), None, e_w0w0 >= n / (5 * k),
        ),
        Lw0Part(
            "e", "edges between W0 and R vs n/2",
            float(e_w0r), n / 2, None, e_w0r >= n / 2,
        ),
        Lw0Part(
            "f", "edges inside R vs kn/3",
            float(e_rr), k * n / 3, None, e_rr >= k * n / 3,
        ),
        Lw0Part(
            "g",
            "vertices of degree <= 2k with >= k/2 neighbors in W0 "
            "vs e^(-k/3) n",
            float(crowded), None, math.exp(-k / 3) * n,
            crowded <= math.exp(-k / 3) * n,
        ),
        Lw0Part(
            "h", "R vertices with no W0 neighbor vs n/200",
            float(lonely_r), n / 200, None, lonely_r >= n / 200,
        ),
    )
    return Lw0Report(parts=parts)


"""k-core extraction by peeling, plus first-iteration structure audits.

The peel runs in rounds: each round deletes every remaining vertex of
degree below k at once.  The resulting vertex set is order-independent;
the recorded peel order is the rounds, ascending id within a round.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .graphs import Graph, _graph, _integer

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
    _graph(g, "g", simple=True)
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

    W0 is the set of core vertices of degree exactly k, R the rest.  Each
    part's ok tests its measured value against the lower and upper bounds
    it reports: strictly for a and b, inclusively for c-h.
    """
    if not isinstance(result, CoreResult):
        raise DomainError(f"result must be a CoreResult, got {type(result).__name__}")
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

    def part(label, description, measured, lower=None, upper=None, strict=False):
        x = float(measured)
        below = operator.lt if strict else operator.le
        ok = (lower is None or below(lower, x)) and (upper is None or below(x, upper))
        return Lw0Part(label, description, x, lower, upper, ok)

    parts = (
        part("a", "core size vs 0.99 n", core.n, lower=0.99 * n, strict=True),
        part(
            "b", "|W0| inside (0.99 n/k, 1.01 n/k)",
            np.sum(w0), 0.99 * n / k, 1.01 * n / k, strict=True,
        ),
        part(
            "c", "total degree of vertices of degree > 2k vs e^(-k/6) n",
            heavy_total_degree, upper=math.exp(-k / 6) * n,
        ),
        part("d", "edges inside W0 vs n/(5k)", e_w0w0, lower=n / (5 * k)),
        part("e", "edges between W0 and R vs n/2", e_w0r, lower=n / 2),
        part("f", "edges inside R vs kn/3", e_rr, lower=k * n / 3),
        part(
            "g",
            "vertices of degree <= 2k with >= k/2 neighbors in W0 "
            "vs e^(-k/3) n",
            crowded, upper=math.exp(-k / 3) * n,
        ),
        part("h", "R vertices with no W0 neighbor vs n/200", lonely_r, lower=n / 200),
    )
    return Lw0Report(parts=parts)


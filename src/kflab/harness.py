"""End-to-end experiment drivers.

run_pipeline chains generation, core extraction, the deletion procedure,
parity repair, remainder checks, and factor construction into one record;
scan fans pipeline runs over a density grid with per-trial derived seeds,
so any thread count and execution order produce the same rows.  audit_graph
dispatches the measurement-style reports (pre-deletion structure, the
expansion properties, the degree-k branching ratio, or a deletion trace).
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .analytics import (
    c_k_asymptotic,
    c_k_threshold,
    core_law,
    g_branching,
    threshold_params,
    x_of_c,
)
from .errors import DomainError
from .graphs import Graph
from .kcore import audit_lw0, k_core
from .kfactor import audit_properties, find_k_factor
from .randgraph import gen_gnp, sample_configuration, to_multigraph
from .rng import spawn_seed
from .strip import enforce_parity, run_strip, strip_cap, verify_K

__all__ = [
    "ScanConfig",
    "ScanRecord",
    "CSV_HEADER",
    "run_pipeline",
    "scan",
    "records_to_csv",
    "audit_graph",
    "elbr_report",
    "law_report",
]

MODES = ("simple", "multigraph")

CSV_HEADER = (
    "c,trial,seed,core_size,strip_halted_reason,k_size,"
    "k1,k2,k3,k4,factor_found,iterations,error,wall_time"
)


@dataclass(frozen=True)
class ScanRecord:
    """One pipeline run; every stage outcome in a flat, CSV-ready row."""

    c: float
    trial: int
    seed: int
    core_size: int
    strip_halted_reason: str  # empty_core | Q_empty | cap_reached | error
    k_size: int
    k1: bool
    k2: bool
    k3: bool
    k4: bool
    factor_found: bool
    iterations: int
    error: str
    wall_time: float

    def to_csv_row(self) -> str:
        return (
            f"{self.c:.10g},{self.trial},{self.seed},{self.core_size},"
            f"{self.strip_halted_reason},{self.k_size},"
            f"{int(self.k1)},{int(self.k2)},{int(self.k3)},{int(self.k4)},"
            f"{int(self.factor_found)},{self.iterations},{self.error},"
            f"{self.wall_time:.10g}"
        )


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.to_csv_row() for r in records)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ScanConfig:
    """Grid experiment description.

    The cap policy is run_strip's (strip.strip_cap), checked by validate
    before any trial runs.  The desk-scale default beta_override = 0.1
    caps deletions at n/10.
    """

    k: int
    n: int
    c_from: float
    c_to: float
    steps: int
    trials: int
    base_seed: int
    mode: str = "simple"
    beta_override: float | None = 0.1
    cap_multiplier: float | None = None
    out_csv: str | None = None
    out_summary: str | None = None
    emit_certificate: bool = False
    certificate_dir: str | None = None

    def validate(self) -> None:
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if not math.isfinite(self.c_from) or not math.isfinite(self.c_to):
            raise DomainError("c_from and c_to must be finite")
        if not self.c_from < self.c_to:
            raise DomainError("c_from must be < c_to")
        if self.steps < 1 or self.trials < 1:
            raise DomainError("steps and trials must be >= 1")
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")
        strip_cap(self.k, self.n, self.beta_override, self.cap_multiplier)
        if self.emit_certificate and not (self.certificate_dir or self.out_csv):
            raise DomainError(
                "emit_certificate needs certificate_dir or out_csv to "
                "derive a location"
            )

    def c_grid(self) -> list[float]:
        return [float(c) for c in np.linspace(self.c_from, self.c_to, self.steps)]


def _strip_loops(g: Graph) -> Graph:
    """Loops cannot carry factor degree; drop them before the search."""
    return Graph(g.n, g.edge_array, _canonical=True, mult=g.mult)


def _pipeline(n, c, k, seed, mode, beta_override, cap_multiplier):
    """Full chain; returns (ScanRecord, certificate-or-None)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if c < 0:
        raise DomainError(f"c must be >= 0, got {c}")
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    t0 = time.perf_counter()
    core_size = 0
    reason = "error"
    k_size = 0
    rep = None
    factor_found = False
    iterations = 0
    cert = None
    error = ""
    stage = "gen"
    try:
        g = gen_gnp(n, c, seed)
        stage = "core"
        cr = k_core(g, k)
        del g  # the ambient edges and CSR are not needed past the peel
        core_size = cr.core.n
        if core_size == 0:
            reason = "empty_core"
            rep = verify_K(Graph(0, []), k, ambient_n=n)
        else:
            stage = "strip"
            if mode == "multigraph":
                cfg = sample_configuration(
                    cr.core.degrees, spawn_seed(seed, "config")
                )
                host = to_multigraph(cfg)
            else:
                host = cr.core
            res = run_strip(
                host,
                k,
                cap_multiplier=cap_multiplier,
                beta_override=beta_override,
                ambient_n=n,
            )
            stage = "parity"
            res = enforce_parity(res, k)
            reason = res.halted_reason
            iterations = res.iterations
            k_size = res.K.n
            stage = "verify"
            rep = verify_K(res.K, k, ambient_n=n)
            # the theorem's route needs the degree window and the parity
            # to hold before a factor is even plausible; outside it the
            # run already counts as a miss
            if k_size > 0 and rep.k1 and rep.k4:
                stage = "factor"
                cert = find_k_factor(_strip_loops(res.K), k)
                factor_found = cert is not None
    except Exception as exc:  # noqa: BLE001 - scans must never panic
        error = f"{stage}:{type(exc).__name__}:{exc}".replace(",", ";")
        cert = None
        factor_found = False
    wall = time.perf_counter() - t0
    if rep is None:
        k1 = k2 = k3 = k4 = False
    else:
        k1, k2, k4 = rep.k1, rep.k2, rep.k4
        k3 = bool(rep.k3)
    record = ScanRecord(
        c=float(c),
        trial=0,
        seed=int(seed),
        core_size=int(core_size),
        strip_halted_reason=reason,
        k_size=int(k_size),
        k1=k1,
        k2=k2,
        k3=k3,
        k4=k4,
        factor_found=factor_found,
        iterations=int(iterations),
        error=error,
        wall_time=wall,
    )
    assert not record.factor_found or (record.k1 and record.k4)
    return record, cert


def run_pipeline(
    n: int,
    c: float,
    k: int,
    seed: int,
    mode: str = "simple",
    beta_override: float | None = None,
    cap_multiplier: float | None = None,
) -> ScanRecord:
    """One generation-to-factor run; deterministic per seed.

    Stage failures land in the record's error field instead of raising.
    The factor search runs on the remainder (loops dropped, parallel edges
    kept in multigraph mode) only when its degrees sit in [k, 2k] and k|K| is
    even, so factor_found = True implies those checks passed.
    """
    record, _ = _pipeline(n, c, k, seed, mode, beta_override, cap_multiplier)
    return record


def _scan_worker(args):
    (ci, trial, n, c, k, seed, mode, beta_override, cap_multiplier) = args
    record, cert = _pipeline(n, c, k, seed, mode, beta_override, cap_multiplier)
    record = replace(record, trial=trial)
    cert_json = cert.to_json() if record.factor_found and cert else None
    return ci, trial, record, cert_json


def _constants_block(k: int):
    try:
        c_k, x_k = c_k_threshold(k)
    except DomainError:
        return None
    params = threshold_params(k)
    asym = c_k_asymptotic(k)
    return {
        "c_k": c_k,
        "x_k": x_k,
        # NaN when k sits outside the asymptotic domain; null keeps the
        # summary valid JSON
        "c_k_asymptotic": asym if math.isfinite(asym) else None,
        "beta": params.beta,
        "alpha": params.alpha,
        "c_min": params.c_min,
        "c_max": params.c_max,
    }


def scan(config: ScanConfig, threads: int = 1):
    """Run the grid; return (records, summary dict) and write any outputs.

    Trials are independent: seeds derive from (base_seed, point index,
    trial), results are collected into one sink and sorted by grid point
    and trial, so the output is identical for any thread count.
    """
    config.validate()
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    grid = config.c_grid()
    tasks = [
        (
            ci,
            trial,
            config.n,
            grid[ci],
            config.k,
            spawn_seed(config.base_seed, "trial", ci, trial),
            config.mode,
            config.beta_override,
            config.cap_multiplier,
        )
        for ci in range(len(grid))
        for trial in range(config.trials)
    ]
    if threads == 1:
        raw = [_scan_worker(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            raw = list(pool.map(_scan_worker, tasks))
    raw.sort(key=lambda item: (item[0], item[1]))
    records = [item[2] for item in raw]

    cert_dir = config.certificate_dir
    if config.emit_certificate and cert_dir is None:
        cert_dir = config.out_csv + ".certs"
    if config.emit_certificate:
        os.makedirs(cert_dir, exist_ok=True)
        for ci, trial, record, cert_json in raw:
            if cert_json is not None:
                path = os.path.join(cert_dir, f"c{ci:03d}_t{trial:03d}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(cert_json + "\n")

    points = []
    for ci, c in enumerate(grid):
        rows = [r for (i, _, r, _) in raw if i == ci]
        points.append(
            {
                "c": c,
                "factor_found_rate": sum(r.factor_found for r in rows)
                / len(rows),
                "q_empty_rate": sum(
                    r.strip_halted_reason == "Q_empty" for r in rows
                )
                / len(rows),
            }
        )
    summary = {
        "k": config.k,
        "n": config.n,
        "mode": config.mode,
        "steps": config.steps,
        "trials": config.trials,
        "base_seed": config.base_seed,
        "beta_override": config.beta_override,
        "cap_multiplier": config.cap_multiplier,
        "constants": _constants_block(config.k),
        "points": points,
    }
    if config.out_csv:
        with open(config.out_csv, "w", encoding="utf-8") as fh:
            fh.write(records_to_csv(records))
    if config.out_summary:
        with open(config.out_summary, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return records, summary


# ------------------------------------------------------------- audits


def elbr_report(g: Graph, k: int, c: float | None = None) -> dict:
    """Empirical branching ratio of the degree-k set of g's k-core.

    Ratio = sum of d(d-1) over sum of d, d being the within-set degree;
    the reference line is 1 - alpha, the analytic prediction g(x).
    """
    core = k_core(g, k).core
    w0 = core.degrees == k
    d = core.neighbors_in(w0)[w0]
    num = int(np.sum(d * (d - 1)))
    den = int(np.sum(d))
    ratio = num / den if den else 0.0
    try:
        alpha = threshold_params(k).alpha
    except DomainError:
        alpha = None
    g_x = None
    if c is not None:
        g_x = g_branching(x_of_c(c, k), k)
    return {
        "k": k,
        "core_size": int(core.n),
        "w0_size": int(np.sum(w0)),
        "w0_pair_degree_total": den,
        "ratio": ratio,
        "one_minus_alpha": None if alpha is None else 1.0 - alpha,
        "subcritical": ratio < 1.0,
        "g_x": g_x,
    }


AUDIT_KINDS = ("lw0", "P", "elbr", "trace")


def audit_graph(
    g: Graph,
    k: int,
    which: str,
    c: float | None = None,
    beta_override: float | None = None,
    cap_multiplier: float | None = None,
    epsilon0: float = 0.01,
    gamma: float = 0.1,
    sample_budget: int = 2000,
    seed: int = 0,
) -> str:
    """Dispatch one measurement report; returns JSON (CSV for trace)."""
    if which == "lw0":
        return audit_lw0(k_core(g, k), k).to_json()
    if which == "P":
        return audit_properties(
            g,
            k,
            epsilon0=epsilon0,
            gamma=gamma,
            sample_budget=sample_budget,
            seed=seed,
        ).to_json()
    if which == "elbr":
        return json.dumps(elbr_report(g, k, c=c), separators=(",", ":"))
    if which == "trace":
        core = k_core(g, k).core
        return run_strip(
            core, k, cap_multiplier=cap_multiplier, beta_override=beta_override
        ).trace.to_csv()
    raise DomainError(f"unknown audit kind {which!r}; expected {AUDIT_KINDS}")


def law_report(k: int, c: float | None = None, i_max: int | None = None) -> dict:
    """Analytic constants for k, plus the core law at c when given."""
    c_k, x_k = c_k_threshold(k)
    constants = _constants_block(k)
    out = {
        "k": k,
        "c_k": c_k,
        "x_k": x_k,
        "c_k_asymptotic": constants["c_k_asymptotic"],
        "constants": constants,
    }
    if c is not None:
        hi = i_max if i_max is not None else k + 10
        law = core_law(c, k, hi)
        out["at_c"] = {
            "c": c,
            "x": law.x,
            "zeta": law.zeta,
            "lam": list(law.lam),
            "g_x": g_branching(law.x, k),
        }
    return out

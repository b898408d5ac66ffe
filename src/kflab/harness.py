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
from dataclasses import dataclass, fields

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


@dataclass(frozen=True)
class ScanRecord:
    """One pipeline run; every stage outcome in a flat, CSV-ready row.

    The fields, in order, are the CSV columns.  Each stage column defaults
    to its value for a run that never reached that stage.
    """

    c: float
    trial: int
    seed: int
    core_size: int = 0
    strip_halted_reason: str = "error"  # empty_core | Q_empty | cap_reached | error
    k_size: int = 0
    k1: bool = False
    k2: bool = False
    k3: bool = False
    k4: bool = False
    factor_found: bool = False
    iterations: int = 0
    error: str = ""
    wall_time: float = 0.0

    def to_csv_row(self) -> str:
        return ",".join(_csv_cell(getattr(self, f.name)) for f in fields(self))


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


CSV_HEADER = ",".join(f.name for f in fields(ScanRecord))


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


def _pipeline(n, c, k, seed, trial, mode, beta_override, cap_multiplier):
    """Full chain; returns (ScanRecord, certificate-or-None).

    Each stage adds its columns to one row as it completes, so a run that
    fails keeps what the earlier stages found and the defaults after.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if c < 0:
        raise DomainError(f"c must be >= 0, got {c}")
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    t0 = time.perf_counter()
    row = {}
    cert = None
    stage = "gen"
    try:
        g = gen_gnp(n, c, seed)
        stage = "core"
        cr = k_core(g, k)
        del g  # the ambient edges and CSR are not needed past the peel
        row["core_size"] = cr.core.n
        if cr.core.n == 0:
            row["strip_halted_reason"] = "empty_core"
            K = cr.core
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
            K = res.K
            row.update(
                strip_halted_reason=res.halted_reason,
                k_size=K.n,
                iterations=res.iterations,
            )
        stage = "verify"
        rep = verify_K(K, k, ambient_n=n)
        row.update(k1=rep.k1, k2=rep.k2, k3=rep.k3, k4=rep.k4)
        # the theorem's route needs the degree window and the parity
        # to hold before a factor is even plausible; outside it the
        # run already counts as a miss
        if K.n > 0 and rep.k1 and rep.k4:
            stage = "factor"
            cert = find_k_factor(_strip_loops(K), k)
            row["factor_found"] = cert is not None
    except Exception as exc:  # noqa: BLE001 - scans must never panic
        row["error"] = f"{stage}:{type(exc).__name__}:{exc}".replace(",", ";")
    row["wall_time"] = time.perf_counter() - t0
    record = ScanRecord(c=float(c), trial=trial, seed=int(seed), **row)
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
    record, _ = _pipeline(n, c, k, seed, 0, mode, beta_override, cap_multiplier)
    return record


def _scan_worker(task):
    record, cert = _pipeline(*task)
    return record, None if cert is None else cert.to_json()


def _constants_block(k: int):
    try:
        c_k, x_k = c_k_threshold(k)
    except DomainError:
        return None
    params = threshold_params(k)
    return {
        "c_k": c_k,
        "x_k": x_k,
        # the expansion needs q_k = log k - log 2 pi > 0, which holds
        # exactly from k = 7 on
        "c_k_asymptotic": c_k_asymptotic(k) if k >= 7 else None,
        "beta": params.beta,
        "alpha": params.alpha,
        "c_min": params.c_min,
        "c_max": params.c_max,
    }


def scan(config: ScanConfig, threads: int = 1):
    """Run the grid; return (records, summary dict) and write any outputs.

    Trials are independent: seeds derive from (base_seed, point index,
    trial), and results come back in task order (grid point, then trial),
    so the output is identical for any thread count.
    """
    config.validate()
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    grid = config.c_grid()
    tasks = [
        (
            config.n,
            c,
            config.k,
            spawn_seed(config.base_seed, "trial", ci, trial),
            trial,
            config.mode,
            config.beta_override,
            config.cap_multiplier,
        )
        for ci, c in enumerate(grid)
        for trial in range(config.trials)
    ]
    if threads == 1:
        results = [_scan_worker(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_scan_worker, tasks))
    records = [record for record, _ in results]

    if config.emit_certificate:
        cert_dir = config.certificate_dir
        if cert_dir is None:
            cert_dir = config.out_csv + ".certs"
        os.makedirs(cert_dir, exist_ok=True)
        for i, (record, cert_json) in enumerate(results):
            if cert_json is not None:
                ci = i // config.trials
                path = os.path.join(cert_dir, f"c{ci:03d}_t{record.trial:03d}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(cert_json + "\n")

    points = []
    for ci, c in enumerate(grid):
        rows = records[ci * config.trials : (ci + 1) * config.trials]
        found = sum(r.factor_found for r in rows) / len(rows)
        q_empty = sum(r.strip_halted_reason == "Q_empty" for r in rows) / len(rows)
        points.append({"c": c, "factor_found_rate": found, "q_empty_rate": q_empty})
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

"""End-to-end experiment drivers.

run_pipeline chains generation, core extraction, the deletion procedure,
parity repair, remainder checks, and factor construction into one record;
scan fans pipeline runs over a density grid with per-trial derived seeds,
so any thread count and execution order produce the same rows.  elbr_report
measures the degree-k branching ratio of a core and law_report gathers the
analytic constants; the other audits are kcore.audit_lw0,
kfactor.audit_properties and strip.run_strip's trace, which kflab audit
calls directly.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

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
from .graphs import Graph, _integer, _real
from .kcore import k_core
from .kfactor import find_k_factor
from .randgraph import gen_gnp, sample_configuration, to_multigraph
from .rng import _seed, spawn_seed
from .strip import _csv_cell, enforce_parity, run_strip, strip_cap, verify_K

__all__ = [
    "ScanConfig",
    "ScanRecord",
    "CSV_HEADER",
    "run_pipeline",
    "scan",
    "records_to_csv",
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
    caps deletions at n/10.  A certificate_dir receives one JSON file per
    factor found, named by grid index and trial.
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
    out_csv: str | None = None
    out_summary: str | None = None
    certificate_dir: str | None = None

    def validate(self) -> "ScanConfig":
        """Check every field; return the config with k, n, steps, trials
        and base_seed as ints (integral floats pass, except as the seed)
        and c_from, c_to and any beta_override as floats."""
        n, k = _check_run(self.n, self.k, self.mode, self.beta_override)
        c_from, c_to = _real(self.c_from, "c_from"), _real(self.c_to, "c_to")
        if not 0 <= c_from < c_to < math.inf:
            raise DomainError(
                f"need 0 <= c_from < c_to, both finite; got {c_from}, {c_to}"
            )
        beta = self.beta_override
        return replace(
            self,
            k=k,
            n=n,
            c_from=c_from,
            c_to=c_to,
            beta_override=beta if beta is None else float(beta),
            steps=_integer(self.steps, 1, "steps"),
            trials=_integer(self.trials, 1, "trials"),
            base_seed=_seed(self.base_seed, "base_seed"),
        )

    def c_grid(self) -> list[float]:
        return [float(c) for c in np.linspace(self.c_from, self.c_to, self.steps)]


def _check_run(n, k, mode, beta_override) -> tuple[int, int]:
    """Check the inputs every run shares and return n and k as ints: n and
    k integers >= 1, a known mode, and a beta that strip_cap accepts."""
    n = _integer(n, 1, "n")
    k = _integer(k, 1, "k")
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    strip_cap(k, n, beta_override)
    return n, k


def _pipeline(n, c, k, seed, trial, mode, beta_override):
    """Full chain on checked inputs; returns (ScanRecord, certificate-or-None).

    Each stage adds its columns to one row as it completes, so a run that
    fails keeps what the earlier stages found and the defaults after.
    """
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
                # the multigraph reads only the core's degrees, which the
                # configuration holds, so the core is freed before it is built
                cfg = sample_configuration(cr.core.degrees, spawn_seed(seed, "config"))
                del cr
                host = to_multigraph(cfg)
                del cfg
            else:
                host = cr.core
                del cr
            res = run_strip(
                host,
                k,
                beta_override=beta_override,
                ambient_n=n,
            )
            del host  # K is a compacted copy of what the deletions kept
            stage = "parity"
            res = enforce_parity(res)
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
            cert = find_k_factor(K, k)
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
    mode: str = ScanConfig.mode,
    beta_override: float | None = ScanConfig.beta_override,
) -> ScanRecord:
    """One generation-to-factor run; deterministic per seed.

    The defaults are ScanConfig's, so a default scan row replays from its
    seed.  The inputs pass ScanConfig.validate's checks before any stage
    runs (c finite and >= 0); stage failures then land in the record's
    error field instead of raising.  find_k_factor, which leaves loops
    out, runs on the remainder only when its degrees sit in [k, 2k] and
    k|K| is even, so factor_found = True implies those checks passed.
    """
    n, k = _check_run(n, k, mode, beta_override)
    c = _real(c, "c")
    if not 0 <= c < math.inf:
        raise DomainError(f"c must be finite and >= 0, got {c}")
    record, _ = _pipeline(n, c, k, _seed(seed, "seed"), 0, mode, beta_override)
    return record


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
    config = config.validate()
    threads = _integer(threads, 1, "threads")
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
        )
        for ci, c in enumerate(grid)
        for trial in range(config.trials)
    ]
    columns = zip(*tasks)
    if threads == 1:
        results = list(map(_pipeline, *columns))
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_pipeline, *columns))
    records = [record for record, _ in results]

    cert_dir = config.certificate_dir
    if cert_dir:
        os.makedirs(cert_dir, exist_ok=True)
        for i, (record, cert) in enumerate(results):
            if cert is not None:
                ci = i // config.trials
                path = os.path.join(cert_dir, f"c{ci:03d}_t{record.trial:03d}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(cert.to_json() + "\n")

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


def law_report(k: int, c: float | None = None, i_max: int | None = None) -> dict:
    """Analytic constants for k, plus the core law at c when given; k is
    reported as an int (integral floats pass)."""
    k = _integer(k, 3, "k")
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
            "c": law.c,
            "x": law.x,
            "zeta": law.zeta,
            "lam": list(law.lam),
            "g_x": g_branching(law.x, k),
        }
    return out

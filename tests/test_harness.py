"""Pipeline and scan tests: record schema, determinism, seed derivation,
thread invariance, golden rows, and the measurement dispatch.

Scans must produce byte-identical rows (wall time aside) for any thread
count and any execution order; the pinned n=200 scan below is the frozen
reference for the CSV schema.
"""

import hashlib
import json
import os

import pytest

from kflab.analytics import c_k_threshold, g_branching, x_of_c
from kflab.errors import DomainError
from kflab.graphs import Graph, format_edge_text, parse_edge_text
from kflab.harness import (
    CSV_HEADER,
    ScanConfig,
    ScanRecord,
    audit_graph,
    elbr_report,
    law_report,
    records_to_csv,
    run_pipeline,
    scan,
)
from kflab.kcore import k_core
from kflab.kfactor import verify_k_factor
from kflab.randgraph import gen_gnp
from kflab.rng import spawn_seed
from kflab.strip import enforce_parity, run_strip


def rows_without_wall(records) -> list[str]:
    return [r.to_csv_row().rsplit(",", 1)[0] for r in records]


# -------------------------------------------------------- run_pipeline


def test_empty_core_short_circuit():
    r = run_pipeline(100, 0.5, 3, seed=7)
    assert r.core_size == 0
    assert r.strip_halted_reason == "empty_core"
    assert r.k_size == 0 and r.iterations == 0
    assert not r.factor_found
    # the empty remainder is vacuously inside the degree window and even
    assert (r.k1, r.k2, r.k3, r.k4) == (True, True, False, True)
    assert r.error == ""
    assert r.to_csv_row().rsplit(",", 1)[0] == "0.5,0,7,0,empty_core,0,1,1,0,1,0,0,"


def test_replay_identity():
    a = run_pipeline(500, 5.0, 3, seed=13, beta_override=0.1)
    b = run_pipeline(500, 5.0, 3, seed=13, beta_override=0.1)
    assert a.to_csv_row().rsplit(",", 1)[0] == b.to_csv_row().rsplit(",", 1)[0]
    assert a.wall_time > 0 and b.wall_time > 0


def test_golden_reference_run():
    # single pinned run: 3-core of G(10^4, (c_3+3)/10^4), desk-scale cap
    c = c_k_threshold(3)[0] + 3
    r = run_pipeline(10_000, c, 3, seed=1, beta_override=0.1)
    assert r.to_csv_row().rsplit(",", 1)[0] == (
        "6.350918872,0,1,9484,cap_reached,8484,0,0,1,1,0,1000,"
    )


def test_factor_success_is_reachable():
    # sparse 2-cores are unions of cycles: nothing is deletable and the
    # cycle cover is its own 2-factor
    r = run_pipeline(60, 1.2, 2, seed=2, beta_override=1.0)
    assert r.strip_halted_reason == "Q_empty"
    assert r.factor_found
    assert r.k1 and r.k4


# rows without wall time when the named stage raises: the stages before it
# keep their columns, every later column keeps its not-reached default
STAGE_ERROR_ROWS = [
    ("find_k_factor", (60, 1.2, 2), dict(seed=2, beta_override=1.0),
     "1.2,0,2,5,Q_empty,5,1,1,0,1,0,0,factor:RuntimeError:x"),
    ("verify_K", (60, 1.2, 2), dict(seed=2, beta_override=1.0),
     "1.2,0,2,5,Q_empty,5,0,0,0,0,0,0,verify:RuntimeError:x"),
    ("enforce_parity", (500, 5.0, 3), dict(seed=13, beta_override=1.0),
     "5,0,13,440,error,0,0,0,0,0,0,0,parity:RuntimeError:x"),
    ("run_strip", (200, 6.0, 3), dict(seed=2),
     "6,0,2,189,error,0,0,0,0,0,0,0,strip:RuntimeError:x"),
    ("k_core", (500, 5.0, 3), dict(seed=13, beta_override=1.0),
     "5,0,13,0,error,0,0,0,0,0,0,0,core:RuntimeError:x"),
    ("to_multigraph", (500, 5.0, 3),
     dict(seed=13, beta_override=1.0, mode="multigraph"),
     "5,0,13,440,error,0,0,0,0,0,0,0,strip:RuntimeError:x"),
]


@pytest.mark.parametrize(
    "stage,args,kwargs,row", STAGE_ERROR_ROWS, ids=[s[0] for s in STAGE_ERROR_ROWS]
)
def test_stage_error_is_recorded(monkeypatch, stage, args, kwargs, row):
    def boom(*args, **kwargs):
        raise RuntimeError("x")

    monkeypatch.setattr(f"kflab.harness.{stage}", boom)
    r = run_pipeline(*args, **kwargs)
    assert r.to_csv_row().rsplit(",", 1)[0] == row
    assert not r.factor_found


def test_pipeline_precondition_errors():
    with pytest.raises(DomainError):
        run_pipeline(0, 1.0, 3, seed=0)
    with pytest.raises(DomainError):
        run_pipeline(10, -1.0, 3, seed=0)
    with pytest.raises(DomainError):
        run_pipeline(10, 1.0, 3, seed=0, mode="bogus")


def test_multigraph_mode_runs():
    c = c_k_threshold(3)[0] + 1
    r = run_pipeline(800, c, 3, seed=3, mode="multigraph", beta_override=0.1)
    assert r.core_size > 0
    assert r.strip_halted_reason in ("Q_empty", "cap_reached")
    assert r.error == ""
    r2 = run_pipeline(800, c, 3, seed=3, mode="multigraph", beta_override=0.1)
    assert r.to_csv_row().rsplit(",", 1)[0] == r2.to_csv_row().rsplit(",", 1)[0]


# ---------------------------------------------------------------- scan


GOLDEN_SCAN = ScanConfig(
    k=3, n=200, c_from=1.0, c_to=8.0, steps=4, trials=3, base_seed=11
)

GOLDEN_ROWS = [
    "c,trial,seed,core_size,strip_halted_reason,k_size,"
    "k1,k2,k3,k4,factor_found,iterations,error",
    "1,0,4559771461524105010,0,empty_core,0,1,1,0,1,0,0,",
    "1,1,5842060236858903905,0,empty_core,0,1,1,0,1,0,0,",
    "1,2,15502044372291618612,0,empty_core,0,1,1,0,1,0,0,",
    "3.333333333,0,12461657955819696239,75,cap_reached,55,0,0,0,0,0,20,",
    "3.333333333,1,16845206782305640661,73,cap_reached,53,0,0,0,0,0,20,",
    "3.333333333,2,15525124996888288590,71,cap_reached,51,0,1,0,0,0,20,",
    "5.666666667,0,4017943756366084190,189,cap_reached,168,0,0,1,1,0,20,",
    "5.666666667,1,6634065614634738295,184,cap_reached,164,0,0,1,1,0,20,",
    "5.666666667,2,7453729954469483821,182,cap_reached,162,0,0,1,1,0,20,",
    "8,0,6463082298020455216,197,cap_reached,176,0,1,1,1,0,20,",
    "8,1,14207877148552459931,200,cap_reached,180,0,1,1,1,0,20,",
    "8,2,3659994138459347299,198,cap_reached,178,0,1,1,1,0,20,",
]


def test_golden_scan_rows():
    records, _ = scan(GOLDEN_SCAN)
    got = records_to_csv(records).splitlines()
    assert [line.rsplit(",", 1)[0] for line in got] == GOLDEN_ROWS


GOLDEN_MULTIGRAPH_SCANS = [
    (
        ScanConfig(k=2, n=60, c_from=0.8, c_to=2.0, steps=4, trials=3,
                   base_seed=21, mode="multigraph", beta_override=1.0),
        [
            "0.8,0,17076149498773675891,0,empty_core,0,1,1,0,1,0,0,",
            "0.8,1,14855821441859969410,0,empty_core,0,1,1,0,1,0,0,",
            "0.8,2,10119332261046213656,0,empty_core,0,1,1,0,1,0,0,",
            # the remainder keeps its parallel edges and has a 2-factor
            "1.2,0,12913448566099626428,3,Q_empty,3,1,1,0,1,1,0,",
            "1.2,1,13617027659225686266,0,empty_core,0,1,1,0,1,0,0,",
            "1.2,2,13130584078869959765,0,empty_core,0,1,1,0,1,0,0,",
            "1.6,0,71939142248993456,13,Q_empty,0,1,1,0,1,0,13,",
            "1.6,1,17315053065253184469,13,Q_empty,0,1,1,0,1,0,13,",
            "1.6,2,5878462509955338135,14,Q_empty,0,1,1,0,1,0,14,",
            # a lone vertex whose degree 2 is one loop: the loop is dropped
            # before the factor search, which then finds no 2-factor
            "2,0,17587681014715595140,25,Q_empty,1,1,1,0,1,0,24,",
            "2,1,5344029031281629611,30,Q_empty,0,1,1,0,1,0,30,",
            "2,2,14875307670190041236,32,Q_empty,0,1,1,0,1,0,32,",
        ],
    ),
    (
        ScanConfig(k=3, n=400, c_from=3.5, c_to=8.0, steps=3, trials=2,
                   base_seed=11, mode="multigraph"),
        [
            "3.5,0,4559771461524105010,0,empty_core,0,1,1,0,1,0,0,",
            "3.5,1,5842060236858903905,162,cap_reached,122,0,0,0,1,0,40,",
            "5.75,0,12461657955819696239,371,cap_reached,330,0,0,1,1,0,40,",
            "5.75,1,16845206782305640661,378,cap_reached,338,0,0,1,1,0,40,",
            "8,0,4017943756366084190,395,cap_reached,354,0,1,1,1,0,40,",
            "8,1,6634065614634738295,396,cap_reached,356,0,0,1,1,0,40,",
        ],
    ),
]


def test_golden_multigraph_scan_rows():
    for cfg, rows in GOLDEN_MULTIGRAPH_SCANS:
        records, _ = scan(cfg)
        got = records_to_csv(records).splitlines()
        assert [line.rsplit(",", 1)[0] for line in got] == [GOLDEN_ROWS[0]] + rows


def test_scan_thread_invariance(tmp_path):
    seq, _ = scan(GOLDEN_SCAN, threads=1)
    par, _ = scan(GOLDEN_SCAN, threads=4)
    assert rows_without_wall(seq) == rows_without_wall(par)
    # certificate names take the grid index from the row's position; this
    # k = 2 scan writes three certificates
    certs = []
    for threads in (1, 2):
        cert_dir = tmp_path / f"certs{threads}"
        scan(ScanConfig(k=2, n=60, c_from=0.6, c_to=1.4, steps=3, trials=10,
                        base_seed=21, beta_override=1.0, emit_certificate=True,
                        certificate_dir=str(cert_dir)), threads=threads)
        certs.append({p.name: p.read_bytes() for p in cert_dir.iterdir()})
    assert len(certs[0]) == 3
    assert certs[0] == certs[1]


def test_scan_sorted_and_rates():
    cfg = ScanConfig(k=2, n=60, c_from=0.6, c_to=1.4, steps=3, trials=10,
                     base_seed=21, beta_override=1.0)
    records, summary = scan(cfg)
    keys = [(r.c, r.trial) for r in records]
    assert keys == sorted(keys)
    assert len(records) == 30
    grid = cfg.c_grid()
    for point in summary["points"]:
        rows = [r for r in records if r.c == point["c"]]
        assert len(rows) == 10
        assert point["factor_found_rate"] == pytest.approx(
            sum(r.factor_found for r in rows) / 10)
        assert point["q_empty_rate"] == pytest.approx(
            sum(r.strip_halted_reason == "Q_empty" for r in rows) / 10)
    assert [p["c"] for p in summary["points"]] == grid
    assert sum(r.factor_found for r in records) > 0
    assert summary["constants"] is None  # k = 2 has no tabulated threshold


def test_scan_single_point_matches_run_pipeline():
    cfg = ScanConfig(k=3, n=300, c_from=5.0, c_to=6.0, steps=1, trials=1,
                     base_seed=77)
    records, _ = scan(cfg)
    assert len(records) == 1
    seed = spawn_seed(77, "trial", 0, 0)
    direct = run_pipeline(300, 5.0, 3, seed=seed, beta_override=0.1)
    assert records[0].to_csv_row().rsplit(",", 1)[0] == (
        direct.to_csv_row().rsplit(",", 1)[0])


def test_scan_writes_outputs_and_certificates(tmp_path):
    out = tmp_path / "scan.csv"
    summ = tmp_path / "scan.json"
    certs = tmp_path / "certs"
    cfg = ScanConfig(k=2, n=60, c_from=0.6, c_to=1.4, steps=3, trials=10,
                     base_seed=21, beta_override=1.0,
                     out_csv=str(out), out_summary=str(summ),
                     emit_certificate=True, certificate_dir=str(certs))
    records, summary = scan(cfg)
    text = out.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 31
    loaded = json.loads(summ.read_text())
    assert loaded["points"] == summary["points"]

    found = [r for r in records if r.factor_found]
    assert found
    names = sorted(os.listdir(certs))
    assert len(names) == len(found)
    grid = cfg.c_grid()
    for name in names:
        ci = int(name[1:4])
        trial = int(name[6:9])
        cert = json.loads((certs / name).read_text())
        rec = next(r for r in records if r.c == grid[ci] and r.trial == trial)
        assert rec.factor_found
        # certificates are factors of the remainder K: replay the stages
        # up to it and verify against that host
        g = gen_gnp(60, grid[ci], rec.seed)
        res = run_strip(k_core(g, 2).core, 2, beta_override=1.0, ambient_n=60)
        res = enforce_parity(res, 2)
        assert res.K.n == rec.k_size
        assert verify_k_factor(res.K, [tuple(e) for e in cert["edges"]], 2)
        assert len(cert["edges"]) == rec.k_size  # k = 2: |F| = |K|


def test_scan_validation():
    base = dict(k=3, n=50, c_from=1.0, c_to=2.0, steps=2, trials=2,
                base_seed=0)
    with pytest.raises(DomainError):
        scan(ScanConfig(**{**base, "c_from": 2.0, "c_to": 1.0}))
    with pytest.raises(DomainError):
        scan(ScanConfig(**{**base, "trials": 0}))
    with pytest.raises(DomainError):
        scan(ScanConfig(**{**base, "steps": 0}))
    with pytest.raises(DomainError):
        scan(ScanConfig(**{**base, "mode": "nope"}))
    with pytest.raises(DomainError):
        scan(ScanConfig(**{**base, "emit_certificate": True}))
    with pytest.raises(DomainError):
        scan(ScanConfig(**base), threads=0)


# -------------------------------------------------------------- audits


def test_audit_dispatch():
    g = gen_gnp(2000, c_k_threshold(5)[0] + 0.5, seed=2)
    lw0 = json.loads(audit_graph(g, 5, "lw0"))
    assert [p["label"] for p in lw0] == list("abcdefgh")
    prop = json.loads(audit_graph(g, 5, "P", sample_budget=200, seed=1))
    assert [r["name"] for r in prop["results"]] == [
        "P1", "P2", "P3", "P4", "P5", "P6"]
    elbr = json.loads(audit_graph(g, 5, "elbr", c=c_k_threshold(5)[0] + 0.5))
    assert set(elbr) == {
        "k", "core_size", "w0_size", "w0_pair_degree_total", "ratio",
        "one_minus_alpha", "subcritical", "g_x"}
    trace = audit_graph(g, 5, "trace", beta_override=0.01)
    assert trace.splitlines()[0] == (
        "iteration,deleted,q_size,w0,w1,r,A,B,D,X,enqueued")
    with pytest.raises(DomainError):
        audit_graph(g, 5, "nope")

    text = format_edge_text(g)
    assert audit_graph(parse_edge_text(text), 5, "elbr") == audit_graph(g, 5, "elbr")


# sha256 of each audit report on one seeded G(n, c/n) near c_5 (the P
# audit samples, since n > 12), recorded before the neighbour counts moved
# onto Graph.neighbors_in.
GOLDEN_AUDITS = {
    "lw0": "c0514d45eb43eb5f17a8a4cf51d84f2225f1f0654634ea8da53f393c581af716",
    "P": "dec8b6abcdca1fc3cee74d0a56c15fd91a232b7fe1d0c0cd5352e2e010cfe656",
    "elbr": "ea4e2e22553083cf6720ce259c0194364bac656c3de2b2f7e08077d94a795903",
}


def test_audit_golden_outputs():
    g = gen_gnp(3000, c_k_threshold(5)[0] + 0.2, seed=7)
    for which, digest in GOLDEN_AUDITS.items():
        out = audit_graph(g, 5, which)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, which


def test_audit_empty_graph_file():
    g = parse_edge_text("0 0\n")
    elbr = json.loads(audit_graph(g, 5, "elbr"))
    assert elbr["core_size"] == 0 and elbr["ratio"] == 0.0
    prop = json.loads(audit_graph(g, 5, "P"))
    assert all(r["mode"] == "vacuous" for r in prop["results"])
    trace = audit_graph(g, 5, "trace")
    assert trace.splitlines()[1].startswith("0,-1,0,")


def test_elbr_matches_analytic_prediction():
    k = 5
    c = c_k_threshold(k)[0] + 0.5
    g = gen_gnp(30_000, c, seed=4)
    rep = elbr_report(g, k, c=c)
    assert rep["subcritical"]
    assert rep["g_x"] == pytest.approx(g_branching(x_of_c(c, k), k))
    assert abs(rep["ratio"] - rep["g_x"]) < 0.05


def test_law_report_shape():
    k = 5
    c_k, x_k = c_k_threshold(k)
    rep = law_report(k, c=c_k, i_max=k + 4)
    assert rep["c_k"] == pytest.approx(c_k)
    assert rep["constants"]["alpha"] == pytest.approx(k**9 * rep["constants"]["beta"])
    at = rep["at_c"]
    assert at["x"] == pytest.approx(x_k)
    assert at["g_x"] == pytest.approx(1.0, abs=1e-6)
    assert len(at["lam"]) == 5
    assert json.dumps(rep)  # JSON-safe, including any non-finite fields

    bare = law_report(k)
    assert "at_c" not in bare

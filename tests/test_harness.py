"""Pipeline and scan tests: record schema, determinism, seed derivation,
thread invariance, golden rows, and the audit reports kflab audit prints.

Scans must produce byte-identical rows (wall time aside) for any thread
count and any execution order; the pinned n=200 scan below is the frozen
reference for the CSV schema.
"""

import gc
import hashlib
import json
import os
import weakref

import numpy as np
import pytest

from kflab import harness
from kflab.analytics import c_k_threshold, core_law, g_branching, x_of_c
from kflab.cli import main
from kflab.errors import DomainError
from kflab.graphs import Graph, format_edge_text
from kflab.harness import (
    CSV_HEADER,
    ScanConfig,
    ScanRecord,
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
from kflab.strip import enforce_parity, run_strip, strip_cap


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
    # the checks ScanConfig.validate makes, before any stage runs
    for args, what in (((10, float("nan"), 3), "c"), ((10.5, 1.0, 3), "n"),
                       ((10, 1.0, 2.5), "k"), ((10, float("inf"), 3), "c")):
        with pytest.raises(DomainError, match=what):
            run_pipeline(*args, seed=0)
    with pytest.raises(DomainError, match="seed"):
        run_pipeline(10, 1.0, 3, seed=1.5)
    for beta in (float("nan"), "0.1"):
        with pytest.raises(DomainError, match="beta"):
            run_pipeline(10, 1.0, 3, seed=0, beta_override=beta)
    with pytest.raises(DomainError, match="c"):
        run_pipeline(10, "1.0", 3, seed=0)
    # seeds of any sign and up to 64 unsigned bits run
    for seed in (-1, 2**64 - 1):
        assert run_pipeline(10, 1.0, 3, seed=seed).error == ""


def test_multigraph_mode_runs():
    c = c_k_threshold(3)[0] + 1
    r = run_pipeline(800, c, 3, seed=3, mode="multigraph", beta_override=0.1)
    assert r.core_size > 0
    assert r.strip_halted_reason in ("Q_empty", "cap_reached")
    assert r.error == ""
    r2 = run_pipeline(800, c, 3, seed=3, mode="multigraph", beta_override=0.1)
    assert r.to_csv_row().rsplit(",", 1)[0] == r2.to_csv_row().rsplit(",", 1)[0]


@pytest.mark.parametrize("mode", ["simple", "multigraph"])
def test_pipeline_releases_stage_inputs(monkeypatch, mode):
    # each stage's input is freed once no later stage reads it: the
    # configuration and the core result before the deletion procedure
    # starts, and the host's edges before parity repair starts
    refs, alive = {}, {}

    def spy(name, record=None, check=()):
        fn = getattr(harness, name)

        def wrapper(*args, **kwargs):
            if check:
                gc.collect()
                alive[name] = [ref for ref in check if refs[ref]() is not None]
            out = fn(*args, **kwargs)
            for ref, part in (record or {}).items():
                refs[ref] = weakref.ref(part(out))
            return out

        monkeypatch.setattr(harness, name, wrapper)

    # in simple mode the host is the core itself
    spy("k_core", {"core result": lambda cr: cr,
                   "host edges": lambda cr: cr.core.edge_array})
    spy("sample_configuration", {"configuration": lambda cfg: cfg})
    spy("to_multigraph", {"host edges": lambda g: g.edge_array})
    before_strip = ["core result"]
    if mode == "multigraph":
        before_strip.append("configuration")
    spy("run_strip", check=before_strip)
    spy("enforce_parity", check=["host edges"])
    r = run_pipeline(2000, c_k_threshold(3)[0] + 1, 3, seed=4, mode=mode,
                     beta_override=0.1)
    assert r.error == "" and r.core_size > 0
    assert alive == {"run_strip": [], "enforce_parity": []}


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


# A multigraph scan whose remainders mostly carry loops: 17 reach the
# factor stage, 15 of them with loops, and 2 have a factor.  Pinned as the
# sha256 of its CSV lines without wall_time, and the sha256 of each
# certificate file by name.
LOOPY_SCAN = dict(k=2, n=30, c_from=1.5, c_to=4.0, steps=6, trials=8,
                  base_seed=7, mode="multigraph", beta_override=1.0)
LOOPY_SCAN_DIGEST = "3d32b00b38b12ef23233147fe278556fa764a3d1db6b47376a653d745d52f89f"
LOOPY_SCAN_CERTIFICATES = {
    "c000_t007.json": "01f418ac8a34bb3b6f337aa5f58bb48387366925859161afc5aad7e94aaac0cb",
    "c001_t006.json": "bc7ca7f1cfe96589a4b3b96ce4cf3a413464bd67deb4923837234af9d8de327b",
}


def test_golden_loopy_multigraph_scan(tmp_path):
    records, _ = scan(ScanConfig(**LOOPY_SCAN, certificate_dir=str(tmp_path)))
    rows = [line.rsplit(",", 1)[0] for line in records_to_csv(records).splitlines()]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == LOOPY_SCAN_DIGEST
    certs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in tmp_path.iterdir()}
    assert certs == LOOPY_SCAN_CERTIFICATES


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
                        base_seed=21, beta_override=1.0,
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
    # run_pipeline's defaults are ScanConfig's, so a default row replays
    # from its seed alone
    default = run_pipeline(300, 5.0, 3, seed=seed)
    assert records[0].to_csv_row().rsplit(",", 1)[0] == (
        default.to_csv_row().rsplit(",", 1)[0])


def test_scan_writes_outputs_and_certificates(tmp_path):
    out = tmp_path / "scan.csv"
    summ = tmp_path / "scan.json"
    certs = tmp_path / "certs"
    cfg = ScanConfig(k=2, n=60, c_from=0.6, c_to=1.4, steps=3, trials=10,
                     base_seed=21, beta_override=1.0,
                     out_csv=str(out), out_summary=str(summ),
                     certificate_dir=str(certs))
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
        res = enforce_parity(res)
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
        scan(ScanConfig(**base), threads=0)
    for n in (50.5, float("nan"), 0):
        with pytest.raises(DomainError):
            scan(ScanConfig(**{**base, "n": n}))
    for k in (2.5, float("nan"), 0):
        with pytest.raises(DomainError):
            scan(ScanConfig(**{**base, "k": k}))
    # densities and beta must be numbers, not strings that look like them
    for field, value in (("c_from", "1"), ("c_to", "2.0"),
                         ("beta_override", "0.1")):
        with pytest.raises(DomainError, match=field):
            scan(ScanConfig(**{**base, field: value}))
    with pytest.raises(DomainError, match="beta"):
        strip_cap(3, 50, beta_override="0.1")
    # a finite beta whose cap beta * n is not: once a bare OverflowError
    with pytest.raises(DomainError, match="beta"):
        strip_cap(5, 50000, 1e308)
    # a numpy beta runs as a float, so the summary stays JSON-safe
    _, summary = scan(ScanConfig(**{**base, "beta_override": np.float32(0.5)}))
    assert json.dumps(summary) == json.dumps(
        scan(ScanConfig(**{**base, "beta_override": 0.5}))[1])


def test_scan_validation_integer_fields():
    base = dict(k=3, n=50, c_from=1.0, c_to=2.0, steps=2, trials=2,
                base_seed=0)
    for field, value in (("steps", 2.5), ("trials", 1.5), ("n", "50"),
                         ("steps", "2"), ("trials", None),
                         ("base_seed", 1.5)):
        with pytest.raises(DomainError, match=field):
            scan(ScanConfig(**{**base, field: value}))
    with pytest.raises(DomainError, match="threads"):
        scan(ScanConfig(**base), threads=1.5)
    # integral floats pass and run as their integers
    records, summary = scan(ScanConfig(**base))
    as_floats = {**base, "k": 3.0, "n": 50.0, "steps": 2.0, "trials": 2.0}
    float_records, float_summary = scan(ScanConfig(**as_floats))
    assert rows_without_wall(float_records) == rows_without_wall(records)
    assert json.dumps(float_summary) == json.dumps(summary)


# -------------------------------------------------------------- audits


def cli_audit(capsys, path, which, *flags):
    """stdout of `kflab audit --k 5 --which WHICH` on the graph file."""
    assert main(["audit", str(path), "--k", "5", "--which", which, *flags]) == 0
    return capsys.readouterr().out


def test_audit_dispatch(capsys, tmp_path):
    g = gen_gnp(2000, c_k_threshold(5)[0] + 0.5, seed=2)
    path = tmp_path / "g.txt"
    path.write_text(format_edge_text(g))
    lw0 = json.loads(cli_audit(capsys, path, "lw0"))
    assert [p["label"] for p in lw0] == list("abcdefgh")
    prop = json.loads(cli_audit(capsys, path, "P", "--sample-budget", "200",
                                "--seed", "1"))
    assert [r["name"] for r in prop["results"]] == [
        "P1", "P2", "P3", "P4", "P5", "P6"]
    elbr = json.loads(cli_audit(capsys, path, "elbr", "--c",
                                str(c_k_threshold(5)[0] + 0.5)))
    assert set(elbr) == {
        "k", "core_size", "w0_size", "w0_pair_degree_total", "ratio",
        "one_minus_alpha", "subcritical", "g_x"}
    trace = cli_audit(capsys, path, "trace", "--beta-override", "0.01")
    assert trace.splitlines()[0] == (
        "iteration,deleted,q_size,w0,w1,r,A,B,D,X,enqueued")
    with pytest.raises(SystemExit):
        main(["audit", str(path), "--k", "5", "--which", "nope"])

    # the report on the file is the library's on the graph written to it
    assert cli_audit(capsys, path, "elbr") == (
        json.dumps(elbr_report(g, 5), separators=(",", ":")) + "\n")


# sha256 of each audit report on one seeded G(n, c/n) near c_5 (the P
# audit samples, since n > 12), recorded before the neighbour counts moved
# onto Graph.neighbors_in; "P" was re-recorded when the sampled audit began
# to cap each part at the vertices the parts before it left.  Each is taken
# over `kflab audit`'s stdout without the newline the CLI appends to a JSON
# report.
GOLDEN_AUDITS = {
    "lw0": "c0514d45eb43eb5f17a8a4cf51d84f2225f1f0654634ea8da53f393c581af716",
    "P": "3a9a7201c7cecd33a6064e787c260bbee5b5125942b62ef980836afe37fc2fc6",
    "elbr": "ea4e2e22553083cf6720ce259c0194364bac656c3de2b2f7e08077d94a795903",
}
# sha256 of `kflab audit --which trace` on the same graph: the whole
# stdout, since the trace CSV ends in its own newline.
GOLDEN_TRACE_AUDIT = (
    "03fc31b70b8ec26f2cf5fcc63f5ab0a998cf9081223d849e6bbe47774f724d2e"
)


def test_audit_golden_outputs(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(format_edge_text(gen_gnp(3000, c_k_threshold(5)[0] + 0.2, seed=7)))

    for which, digest in GOLDEN_AUDITS.items():
        out = cli_audit(capsys, path, which).removesuffix("\n")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, which
    trace = cli_audit(capsys, path, "trace")
    assert hashlib.sha256(trace.encode()).hexdigest() == GOLDEN_TRACE_AUDIT


def test_audit_trace_caps_at_the_file_size(capsys, tmp_path):
    # a scan trial caps its strip at ceil(beta * n) of the whole graph, not
    # of its 5-core, and the trace audit of the same file must too
    g = gen_gnp(600, c_k_threshold(5)[0] + 0.5, seed=3)
    core = k_core(g, 5).core
    path = tmp_path / "g.txt"
    path.write_text(format_edge_text(g))
    beta = 0.1
    cap = strip_cap(5, g.n, beta)[1]
    assert cap != strip_cap(5, core.n, beta)[1]
    res = run_strip(core, 5, beta_override=beta, ambient_n=g.n)
    assert (res.halted_reason, res.iterations) == ("cap_reached", cap)
    trace = cli_audit(capsys, path, "trace", "--beta-override", str(beta))
    assert trace == res.trace.to_csv()


def test_audit_empty_graph_file(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    elbr = json.loads(cli_audit(capsys, path, "elbr"))
    assert elbr["core_size"] == 0 and elbr["ratio"] == 0.0
    prop = json.loads(cli_audit(capsys, path, "P"))
    assert all(r["mode"] == "vacuous" for r in prop["results"])
    trace = cli_audit(capsys, path, "trace")
    assert trace.splitlines()[1].startswith("0,-1,0,")


def test_elbr_matches_analytic_prediction():
    k = 5
    c = c_k_threshold(k)[0] + 0.5
    g = gen_gnp(30_000, c, seed=4)
    rep = elbr_report(g, k, c=c)
    assert rep["subcritical"]
    assert rep["g_x"] == pytest.approx(g_branching(x_of_c(c, k), k))
    assert abs(rep["ratio"] - rep["g_x"]) < 0.05


def test_elbr_has_no_alpha_below_k3():
    # threshold_params needs k >= 3, so the reference line is absent
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    rep = elbr_report(c5, 2)
    assert rep["one_minus_alpha"] is None
    assert (rep["core_size"], rep["w0_size"], rep["ratio"]) == (5, 5, 1.0)


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
    # an integral-float k runs as its integer, and is reported as one
    assert core_law(7.5, 5.0, 9) == core_law(7.5, 5, 9)
    assert json.dumps(law_report(5.0, c=7.5)) == json.dumps(law_report(5, c=7.5))
    with pytest.raises(DomainError, match="i_max"):
        law_report(k, c=7.5, i_max=9.5)
    # a string density once raised a bare TypeError inside x_of_c
    with pytest.raises(DomainError):
        law_report(k, c="7")
    # a numpy c was once stored as given, and json.dumps raised TypeError
    law = core_law(np.float32(7.5), 5, 9)
    assert type(law.c) is float and law == core_law(7.5, 5, 9)
    assert json.dumps(law_report(5, c=np.float32(7.5))) == json.dumps(law_report(5, c=7.5))
    with pytest.raises(DomainError):
        elbr_report(gen_gnp(50, 8.0, 0), k, c="7")

"""Command-line behavior: subcommand outputs, exit codes, file writing,
thread-count invariance, scan certificates, and the README's flag list."""

import argparse
import hashlib
import json
import pathlib
import re

import pytest

from kflab import cli
from kflab.cli import build_parser, main
from kflab.errors import DomainError, InfeasibleError, KflabError
from kflab.graphs import parse_edge_text
from kflab.harness import ScanConfig, scan
from kflab.kfactor import verify_k_factor
from kflab.randgraph import gen_gnp


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    code = main(["gen", "--n", "400", "--c", "7.0", "--seed", "3",
                 "--out", str(path)])
    assert code == 0
    return path


def test_gen_stdout_matches_library(capsys):
    code, out, _ = run(capsys, "gen", "--n", "50", "--c", "2.0", "--seed", "1")
    assert code == 0
    g = parse_edge_text(out)
    ref = gen_gnp(50, 2.0, 1)
    assert g.n == ref.n and g.m == ref.m


def test_core_writes_file_and_summary(capsys, graph_file, tmp_path):
    core_path = tmp_path / "core.txt"
    code, out, _ = run(capsys, "core", str(graph_file), "--k", "3",
                       "--out", str(core_path))
    assert code == 0
    info = json.loads(out)
    core = parse_edge_text(core_path.read_text())
    assert info["core_size"] == core.n
    assert info["ambient_n"] == 400
    assert int(core.degrees.min()) >= 3


def test_strip_prints_summary(capsys, graph_file, tmp_path):
    core_path = tmp_path / "core.txt"
    run(capsys, "core", str(graph_file), "--k", "3", "--out", str(core_path))
    k_path = tmp_path / "K.txt"
    code, out, _ = run(capsys, "strip", str(core_path), "--k", "3",
                       "--beta-override", "0.1", "--out", str(k_path))
    assert code == 0
    summary = json.loads(out)
    K = parse_edge_text(k_path.read_text())
    assert summary["k_size"] == K.n
    assert summary["halted_reason"] in ("Q_empty", "cap_reached")
    assert set(summary) >= {"iterations", "cap", "k1", "k2", "k3", "k4"}


def test_strip_bad_cap_and_beta_are_input_errors(capsys, graph_file, tmp_path):
    core_path = tmp_path / "core.txt"
    run(capsys, "core", str(graph_file), "--k", "3", "--out", str(core_path))
    # 1e308 is finite, but its cap beta * n is not
    for flag in ("--beta-override=nan", "--beta-override=inf",
                 "--beta-override=1e308"):
        code, out, err = run(capsys, "strip", str(core_path), "--k", "3", flag)
        assert code == 2 and out == "" and "error:" in err, flag


def test_nan_density_is_input_error(capsys):
    for argv in (("gen", "--n", "50", "--c", "nan"),
                 ("law", "--k", "5", "--c", "nan"),
                 ("law", "--k", "5", "--c", "inf")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error:" in err, argv


def test_factor_certificate_roundtrip(capsys, graph_file, tmp_path):
    core_path = tmp_path / "core.txt"
    run(capsys, "core", str(graph_file), "--k", "3", "--out", str(core_path))
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "factor", str(core_path), "--k", "2",
                       "--emit-certificate", "--out", str(cert_path))
    assert code == 0
    assert json.loads(out) == {"found": True, "k": 2,
                               "edges": json.loads(out)["edges"]}
    cert = json.loads(cert_path.read_text())
    host = parse_edge_text(core_path.read_text())
    assert verify_k_factor(host, [tuple(e) for e in cert["edges"]], 2)


def test_factor_infeasible_exit_code(capsys, graph_file, tmp_path):
    core_path = tmp_path / "core.txt"
    run(capsys, "core", str(graph_file), "--k", "3", "--out", str(core_path))
    # this 3-core has odd size: k * n parity rules a 3-factor out
    code, out, _ = run(capsys, "factor", str(core_path), "--k", "3")
    assert code == 3
    assert json.loads(out) == {"found": False, "k": 3}


def test_infeasible_and_internal_errors_exit_3_and_1(capsys, graph_file,
                                                    monkeypatch):
    for error, code, prefix in ((InfeasibleError, 3, "infeasible:"),
                                (KflabError, 1, "error:")):
        def fail(g, k, error=error):
            raise error("stubbed")

        monkeypatch.setattr(cli, "find_k_factor", fail)
        got, out, err = run(capsys, "factor", str(graph_file), "--k", "2")
        assert (got, out, err) == (code, "", f"{prefix} stubbed\n"), error


# sha256 of the full stdout of each command on the 3-core of the fixture
# graph, with its exit code: the strip summaries, the bare certificate and
# the "not found" line, byte for byte
CLI_STDOUT_DIGESTS = [
    (("strip", "--k", "3", "--beta-override", "0.1"), 0,
     "22e73283c6f69554554b3e617043b01ad93b5069fcebdea66a9054dc0f64190c"),
    (("strip", "--k", "3"), 0,
     "5ce28073b9b09231e5b787badf971b7dcb37cc8d50c3567d375814659118bad5"),
    (("factor", "--k", "2", "--emit-certificate"), 0,
     "e510c7aeb96675311741045b583b131a104f130262621a3ca59f29d1a220363b"),
    (("factor", "--k", "3"), 3,
     "69b5a8989743b7aa496f6048cc66a2b5b34dd778c45e84de8d20381953de3d0a"),
]


def test_cli_stdout_digests(capsys, graph_file, tmp_path):
    core_path = tmp_path / "core.txt"
    run(capsys, "core", str(graph_file), "--k", "3", "--out", str(core_path))
    for (cmd, *flags), exit_code, digest in CLI_STDOUT_DIGESTS:
        code, out, _ = run(capsys, cmd, str(core_path), *flags)
        assert code == exit_code, (cmd, *flags)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (cmd, *flags)


def test_factor_out_needs_emit_certificate(capsys, graph_file, tmp_path):
    # on this 3-core, which has a 2-factor, --out alone once exited 0 and
    # wrote nothing; the rule is checked before the graph is read, so a
    # missing file gives the same error
    core_path = tmp_path / "core.txt"
    run(capsys, "core", str(graph_file), "--k", "3", "--out", str(core_path))
    cert_path = tmp_path / "cert.json"
    for path in (core_path, tmp_path / "no-such-file.txt"):
        code, out, err = run(capsys, "factor", str(path), "--k", "2",
                             "--out", str(cert_path))
        assert (code, out) == (2, ""), path
        assert err == "error: --out needs --emit-certificate\n", path
        assert not cert_path.exists()


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "factor", "no-such-file.txt", "--k", "2")
    assert code == 2
    assert "error:" in err


def test_audit_missing_file_is_input_error(capsys, tmp_path):
    missing = tmp_path / "no-such-file.txt"
    code, _, err = run(capsys, "audit", str(missing), "--k", "5",
                       "--which", "lw0")
    assert code == 2
    assert "cannot read" in err


def test_non_integer_edge_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n0 x\n")
    code, _, err = run(capsys, "factor", str(path), "--k", "2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text", [
    "",  # empty
    "\n \n",  # blank
    "3\n",  # header without m
    "3 1 0\n0 1\n",  # header with a third field
    "3 x\n0 1\n",  # header that is not a number
    "3 2\n0 1\n",  # m says 2 edges, one follows
    "3 0\n0 1\n",  # m says none, one follows
    "3 1\n1 0\n",  # u > v
    "3 1\n1 1\n",  # u = v
    "3 1\n0 3\n",  # endpoint = n
    "3 1\n-1 0\n",  # negative endpoint
    "3 2\n1 2\n0 1\n",  # rows out of order
    "3 2\n0 1\n0 1\n",  # repeated row
    "3 1\n0 1 2\n",  # three endpoints
    "3 1\n0 99999999999999999999\n",  # endpoint beyond int64
    "3 1\n0 1.5\n",  # endpoint that is not an integer
])
def test_malformed_edge_list_is_input_error(capsys, tmp_path, text):
    with pytest.raises(DomainError):
        parse_edge_text(text)
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, "factor", str(path), "--k", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_bad_n_is_input_error(capsys):
    code, _, err = run(capsys, "gen", "--n", "-5", "--c", "1.0")
    assert code == 2
    assert "error:" in err


def test_scan_stdout_csv(capsys):
    code, out, _ = run(capsys, "scan", "--n", "120", "--k", "3",
                       "--c-from", "2", "--c-to", "5", "--steps", "2",
                       "--trials", "2", "--seed", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("c,trial,seed,")
    assert len(lines) == 5


def test_scan_bad_density_and_cap_are_input_errors(capsys):
    args = ("scan", "--n", "50", "--k", "3", "--c-from", "4", "--steps", "2",
            "--trials", "1")
    for extra in (("--c-to", "inf"),
                  ("--c-to", "5", "--beta-override", "nan"),
                  ("--c-to", "5", "--beta-override", "1e308")):
        code, out, err = run(capsys, *args, *extra)
        assert code == 2 and out == "" and "error:" in err, extra


def test_scan_files_and_summary(capsys, tmp_path):
    out_csv = tmp_path / "s.csv"
    out_sum = tmp_path / "s.json"
    code, out, _ = run(capsys, "scan", "--n", "120", "--k", "3",
                       "--c-from", "2", "--c-to", "5", "--steps", "2",
                       "--trials", "2", "--seed", "9",
                       "--out", str(out_csv), "--summary-out", str(out_sum))
    assert code == 0
    assert json.loads(out)["points"] == json.loads(out_sum.read_text())["points"]
    assert len(out_csv.read_text().splitlines()) == 5


def test_scan_threads_flag(capsys):
    args = ("scan", "--n", "120", "--k", "3", "--c-from", "2",
            "--c-to", "5", "--steps", "2", "--trials", "2", "--seed", "9")
    code, seq, _ = run(capsys, *args)
    code2, par, _ = run(capsys, *args, "--threads", "2")
    assert code == code2 == 0
    strip = lambda text: [l.rsplit(",", 1)[0] for l in text.splitlines()]
    assert strip(seq) == strip(par)


def test_scan_cert_dir_matches_library(capsys, tmp_path):
    # the k = 2 grid of the library's certificate test, which finds factors
    scan(ScanConfig(k=2, n=60, c_from=0.6, c_to=1.4, steps=3, trials=10,
                    base_seed=21, beta_override=1.0,
                    certificate_dir=str(tmp_path / "lib")))
    code, _, _ = run(capsys, "scan", "--n", "60", "--k", "2", "--c-from", "0.6",
                     "--c-to", "1.4", "--steps", "3", "--trials", "10",
                     "--seed", "21", "--beta-override", "1.0",
                     "--cert-dir", str(tmp_path / "cli"))
    assert code == 0
    files = lambda d: {p.name: p.read_bytes() for p in d.iterdir()}
    lib = files(tmp_path / "lib")
    assert lib
    assert files(tmp_path / "cli") == lib


def test_readme_cli_flags_match_parser():
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for usage in re.findall(r"^- `(kflab [^`]+)`", section, flags=re.M):
        documented[usage.split()[1]] = set(re.findall(r"--[a-z0-9-]+", usage))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    actual = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in subparsers.choices.items()
    }
    assert documented == actual


def test_audit_and_law(capsys, graph_file, tmp_path):
    code, out, _ = run(capsys, "audit", str(graph_file), "--k", "3",
                       "--which", "elbr", "--c", "7.0")
    assert code == 0
    rep = json.loads(out)
    assert rep["subcritical"] in (True, False)
    assert rep["g_x"] is not None

    code, out, _ = run(capsys, "audit", str(graph_file), "--k", "3",
                       "--which", "trace", "--beta-override", "0.05")
    assert code == 0
    assert out.splitlines()[0].startswith("iteration,deleted,")

    out_path = tmp_path / "law.json"
    code, _, _ = run(capsys, "law", "--k", "5", "--c", "7.3",
                     "--out", str(out_path))
    assert code == 0
    law = json.loads(out_path.read_text())
    assert law["at_c"]["g_x"] < 1


def test_law_bad_k_exit(capsys):
    code, _, err = run(capsys, "law", "--k", "2")
    assert code == 2 and "error:" in err


def test_audit_bad_sample_budget_exit(capsys, graph_file):
    code, out, err = run(capsys, "audit", str(graph_file), "--k", "3",
                         "--which", "P", "--sample-budget", "-5")
    assert code == 2 and out == ""
    assert "sample_budget" in err

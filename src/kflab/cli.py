"""Command-line front end.

Subcommands mirror the library stages: gen, core, strip, factor, scan,
audit, law.  Primary output goes to stdout unless --out is given.  Exit
codes: 0 success, 2 bad input, 3 infeasible (no factor, parity failure).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, InfeasibleError, KflabError
from .graphs import format_edge_text, parse_edge_text
from .harness import MODES, ScanConfig, elbr_report, law_report, records_to_csv, scan
from .kcore import audit_lw0, k_core
from .kfactor import audit_properties, find_k_factor
from .randgraph import gen_gnp
from .strip import enforce_parity, run_strip, verify_K


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_graph(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    return parse_edge_text(text)


def _cmd_gen(args) -> int:
    g = gen_gnp(args.n, args.c, args.seed)
    _emit(format_edge_text(g), args.out)
    return 0


def _cmd_core(args) -> int:
    g = _read_graph(args.path)
    result = k_core(g, args.k)
    _emit(format_edge_text(result.core), args.out)
    if args.out:
        print(
            json.dumps(
                {
                    "ambient_n": result.ambient_n,
                    "core_size": result.core.n,
                    "core_edges": result.core.m,
                    "peeled": result.ambient_n - result.core.n,
                }
            )
        )
    return 0


def _cmd_strip(args) -> int:
    g = _read_graph(args.path)
    res = run_strip(
        g,
        args.k,
        beta_override=args.beta_override,
    )
    res = enforce_parity(res)
    rep = verify_K(res.K, args.k, ambient_n=g.n)
    if args.out:
        _emit(format_edge_text(res.K), args.out)
    print(json.dumps({**res.summary(), **vars(rep)}))
    return 0


def _cmd_factor(args) -> int:
    if args.out is not None and not args.emit_certificate:
        raise DomainError("--out needs --emit-certificate")
    g = _read_graph(args.path)
    cert = find_k_factor(g, args.k)
    if cert is None:
        print(json.dumps({"found": False, "k": args.k}))
        return 3
    if args.emit_certificate:
        _emit(cert.to_json() + "\n", args.out)
    if not (args.emit_certificate and args.out is None):
        # the bare certificate is the whole stdout story otherwise
        print(
            json.dumps(
                {"found": True, "k": args.k, "edges": len(cert.edges)}
            )
        )
    return 0


def _cmd_scan(args) -> int:
    config = ScanConfig(
        k=args.k,
        n=args.n,
        c_from=args.c_from,
        c_to=args.c_to,
        steps=args.steps,
        trials=args.trials,
        base_seed=args.seed,
        mode=args.mode,
        beta_override=args.beta_override,
        out_csv=args.out,
        out_summary=args.summary_out,
        certificate_dir=args.cert_dir,
    )
    records, summary = scan(config, threads=args.threads)
    if args.out:
        print(json.dumps(summary, sort_keys=True))
    else:
        sys.stdout.write(records_to_csv(records))
    return 0


def _cmd_audit(args) -> int:
    g = _read_graph(args.path)
    if args.which == "lw0":
        report = audit_lw0(k_core(g, args.k), args.k).to_json()
    elif args.which == "P":
        report = audit_properties(
            g,
            args.k,
            epsilon0=args.epsilon0,
            gamma=args.gamma,
            sample_budget=args.sample_budget,
            seed=args.seed,
        ).to_json()
    elif args.which == "elbr":
        report = json.dumps(elbr_report(g, args.k, c=args.c), separators=(",", ":"))
    else:  # trace
        core = k_core(g, args.k).core
        res = run_strip(core, args.k, beta_override=args.beta_override,
                        ambient_n=g.n)
        report = res.trace.to_csv()
    if not report.endswith("\n"):
        report += "\n"
    _emit(report, args.out)
    return 0


def _cmd_law(args) -> int:
    out = law_report(args.k, c=args.c, i_max=args.i_max)
    _emit(json.dumps(out, sort_keys=True) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kflab",
        description="random-graph k-factor experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a G(n, c/n) edge list")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("core", help="extract the k-core of a graph file")
    p.add_argument("path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("strip", help="run the deletion procedure on a core")
    p.add_argument("path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--beta-override", type=float, default=None,
                   help="replace e^(-k/200) in the deletion cap")
    p.add_argument("--out", default=None, help="write the remainder graph")
    p.set_defaults(func=_cmd_strip)

    p = sub.add_parser("factor", help="construct a k-factor of a graph file")
    p.add_argument("path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit-certificate", action="store_true")
    p.add_argument("--out", default=None, help="certificate destination")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("scan", help="grid of pipeline runs around c_k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c-from", type=float, required=True)
    p.add_argument("--c-to", type=float, required=True)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=MODES, default=ScanConfig.mode)
    p.add_argument("--beta-override", type=float, default=ScanConfig.beta_override,
                   help="replace e^(-k/200) in the deletion cap")
    p.add_argument("--out", default=None, help="CSV destination")
    p.add_argument("--summary-out", default=None)
    p.add_argument("--cert-dir", default=None,
                   help="write each factor found here as a JSON certificate")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("audit", help="measurement reports on a graph file")
    p.add_argument("path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--which", choices=("lw0", "P", "elbr", "trace"), required=True)
    p.add_argument("--c", type=float, default=None,
                   help="density for the analytic reference lines")
    p.add_argument("--beta-override", type=float, default=None,
                   help="replace e^(-k/200) in the deletion cap")
    p.add_argument("--epsilon0", type=float, default=0.01)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--sample-budget", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("law", help="analytic constants and the core law")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--i-max", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_law)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except KflabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

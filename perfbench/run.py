"""kflab benchmark: seeded scan and k-factor workloads, end to end or traced.

    python3 perfbench/run.py --workload scan_simple --seed 0 --seconds 55 --trace 0

Run from the repository root.  kflab is imported from ./src, never from an
installed copy.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it holds
the run metadata.  With --trace 0 the metrics are the end-to-end ones.
With --trace 1 every unit of work runs twice on the same inputs, untraced
and traced, and the metrics are the per-layer ones plus the tracing
overhead.  Per-item times and spans go to perfbench/results/.
"""

import time

# set-up time starts here, before every other import
PROCESS_T0 = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference.json"

# the one seed with recorded outputs; every seed runs the invariant checks
DEFAULT_SEED = 0
# set-up runs this many times per run and its median is reported
SETUP_REPEATS = 3


def import_library():
    """Put ./src first on the path; returns the error text, or None."""
    if not (SRC / "kflab" / "__init__.py").is_file():
        return f"kflab sources not found under {SRC}"
    sys.path.insert(0, str(SRC))
    import kflab

    if not Path(kflab.__file__).resolve().is_relative_to(SRC):
        return f"kflab imported from {kflab.__file__}, not from {SRC}"
    return None


def run_unit(workload, u, tracer):
    """One unit of work; a call that raises becomes one failed item."""
    from workloads import Item, Unit  # importable once import_library ran

    t0 = time.perf_counter()
    try:
        return workload.run_unit(u, tracer)
    except Exception as exc:  # noqa: BLE001 - a failed call must not end the run
        traceback.print_exc()
        seconds = time.perf_counter() - t0
        problem = f"{type(exc).__name__}: {exc}"
        return Unit(seconds, [Item(f"unit{u}", seconds, "", problem)], problem, ("", ""))


def run_units(workload, seconds, tracer):
    """Run units for `seconds` of wall time: a unit starts only if, at the
    mean pace so far, it ends in time.  With a tracer, each unit runs
    untraced and traced, alternating which goes first, and the two must
    produce the same outputs."""
    plain, traced = [], []
    start = time.perf_counter()
    u = 0
    while u == 0 or (time.perf_counter() - start) * (u + 1) / u <= seconds:
        if tracer is None:
            plain.append(run_unit(workload, u, None))
        else:
            for with_trace in ((False, True) if u % 2 == 0 else (True, False)):
                if with_trace:
                    with tracer.installed():
                        traced.append(run_unit(workload, u, tracer))
                else:
                    plain.append(run_unit(workload, u, None))
            if plain[-1].output != traced[-1].output:
                for it in traced[-1].items:
                    it.problem = it.problem or "traced output differs from untraced"
        u += 1
    return plain, traced


def check_reference(units, recorded):
    """Mark the items of every unit whose output differs from the recording;
    returns the number of units compared."""
    compared = 0
    for unit in units:
        key, value = unit.reference
        if key not in recorded:
            continue
        compared += 1
        if value != recorded[key]:
            for it in unit.items:
                it.problem = it.problem or f"differs from the recorded output {recorded[key]}"
    return compared


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def rate(units):
    """Items completed per second of library time."""
    return sum(len(u.items) for u in units) / sum(u.seconds for u in units)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = import_library()
    if error:
        print(error, file=sys.stderr)
        return 2
    import numpy
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    import_s = time.perf_counter() - PROCESS_T0
    load_start = os.getloadavg()

    workload = WORKLOADS[args.workload]
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.prepare(args.seed)
        prepare_s.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(prepare_s)

    tracer = Tracer() if args.trace else None
    plain, traced = run_units(workload, args.seconds, tracer)
    measured = traced if args.trace else plain

    recorded = None
    if args.seed == DEFAULT_SEED:
        recorded = json.loads(REFERENCE.read_text())[workload.name]
        compared = check_reference(plain + traced, recorded)

    items = [it for u in plain + traced for it in u.items]
    failed = [it for it in items if it.problem]

    if args.trace:
        metrics = tracer.layer_metrics(sum(len(u.items) for u in traced))
        metrics["trace.items_per_s"] = (rate(traced), "1/s")
        metrics["trace.untraced_items_per_s"] = (rate(plain), "1/s")
        metrics["trace.overhead_pct"] = (100.0 * (rate(plain) / rate(traced) - 1.0), "%")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (rate(plain), "1/s"),
            "item_p50_s": (statistics.median(it.seconds for u in plain for it in u.items), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }

    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "import_s": import_s,
        "prepare_s": prepare_s,
        "reference_checks": (
            f"ran on {compared} units" if recorded is not None
            else f"did not run: outputs are recorded for seed {DEFAULT_SEED} only"
        ),
        "failed_fraction": len(failed) / len(items),
        "failures": [[it.id, it.problem] for it in failed[:20]],
    }
    RESULTS.mkdir(exist_ok=True)
    detail = {
        "meta": meta,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "items": [[it.id, it.seconds, it.verdict, it.problem]
                  for u in measured for it in u.items],
        "spans": tracer.span_rows() if tracer else [],
    }
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail) + "\n")

    print(json.dumps(meta))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

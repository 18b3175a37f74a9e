#!/usr/bin/env python3
"""The perf ledger's one command.

Two ways in, one code path:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` runs one
  workload in this process and prints every metric by name with its
  unit, then one JSON object as the last line of stdout (``--trace 0``:
  the end-to-end metrics, ``--trace 1``: the per-layer ones). This is
  the form ``BENCHMARK.json``'s ``command`` is run in.
* without ``--trace`` it runs the suite: each workload (all, or the one
  named) in a fresh subprocess of the first form, end to end and — with
  ``--traced`` — per layer too, and writes the numbers to
  ``out/ledger.json``. ``--check-stability`` runs the end-to-end suite
  as two sets of ten seeds and holds every spread and drift to the
  bounds.

``BENCHMARK.json`` at the repo root is the single declaration of the
workload and metric names, units, directions and bounds; this program
emits exactly what it declares and refuses to emit anything else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
OUT_DIR = LEDGER_DIR / "out"
# Where the suite's numbers go, as the document's ``results`` or
# ``stability`` section; BASELINE.json beside this file is a committed copy.
REPORT = OUT_DIR / "ledger.json"
SERVICE = "service_durable"
# Runs (seeds) per set of --check-stability: what the benchmark's
# acceptance makes.
STABILITY_RUNS = 10


def _import_paths() -> None:
    """Make ``repro`` and the ``ledger`` package importable.

    Run as a script, ``sys.path[0]`` is this directory, where
    ``trace.py`` would shadow the standard library's ``trace``; it is
    dropped in favour of the parent, so the modules here are only
    reachable as ``ledger.*``.
    """
    sys.path[:] = [
        p for p in sys.path if not p or Path(p).resolve() != LEDGER_DIR
    ]
    sys.path[:0] = [str(ROOT / "src"), str(LEDGER_DIR.parent)]


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace, declaration: dict) -> int:
    _import_paths()
    declared = declaration["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.workload == SERVICE:
        from ledger import micro
        from ledger.service import run_service

        outcome = run_service(
            str(ROOT / "src"), str(OUT_DIR), args.seed, args.seconds,
            traced=bool(args.trace), quick=args.quick,
        )
        if args.trace:
            outcome.metrics.update(micro.service_micros(str(OUT_DIR)))
            outcome.metrics["calibration.kernel_ms"] = (
                micro.calibration_kernel_ms()
            )
    elif args.trace:
        from ledger.layers import run_layers
        from ledger.workloads import SPECS

        outcome = run_layers(
            SPECS[args.workload], args.seed, args.quick, str(OUT_DIR)
        )
    else:
        from ledger.workloads import SPECS, run_end_to_end

        outcome = run_end_to_end(
            SPECS[args.workload], args.seed, args.seconds, args.quick
        )
        outcome.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    metrics, attempted, failed = (
        outcome.metrics, outcome.attempted, outcome.failed
    )
    correct = outcome.correct and not failed

    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        print(f"ledger: undeclared metrics {undeclared}", file=sys.stderr)
        return 2
    missing = sorted(set(units) - set(metrics))
    if missing and not args.trace:
        print(f"ledger: metrics not measured {missing}", file=sys.stderr)
        return 2
    # A per-layer name this workload does not exercise reads 0.
    metrics.update({name: 0.0 for name in missing})

    for note in outcome.notes:
        print(f"ledger: {note}", file=sys.stderr)
    for name in units:
        print(f"{name:<48} {metrics[name]:>16.6g} {units[name]}")
    print(
        f"{'failed_fraction':<48} {failed / max(1, attempted):>16.6g} ratio"
        f"   ({failed} of {attempted}, correct={correct})"
    )
    print(json.dumps({
        "correct": bool(correct),
        "attempted": max(1, int(attempted)),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# the suite: one subprocess per workload and pass
# ----------------------------------------------------------------------
def run_child(
    workload: str, seed: int, seconds: int, trace: int, quick: bool
) -> Optional[dict]:
    """Run one workload in a fresh process; its result object, or None."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=900, check=False
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        print(f"ledger: {workload} printed no result", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(f"ledger: {workload}: bad result line", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(
            f"ledger: {workload} exited {done.returncode}", file=sys.stderr
        )
        result["correct"] = False
    return result


def machine() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run_suite(args: argparse.Namespace, declaration: dict) -> int:
    names = [w["name"] for w in declaration["workloads"]]
    workloads = [args.workload] if args.workload else names
    report: Dict[str, object] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        **machine(),
        "end_to_end": {},
        "per_layer": {},
    }
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        if trace and not args.traced:
            continue
        for workload in workloads:
            print(
                f"== {workload} · {key.replace('_', ' ')} · seed {args.seed}",
                flush=True,
            )
            result = run_child(
                workload, args.seed, args.seconds, trace, args.quick
            )
            if result is None or not result["correct"] or result["failed"]:
                ok = False
            if result is not None:
                report[key][workload] = {
                    name: m["value"] for name, m in result["metrics"].items()
                }
    write_report("results", report)
    return 0 if ok else 1


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_stability(args: argparse.Namespace, declaration: dict) -> int:
    """Two sets of ``STABILITY_RUNS`` end-to-end runs per workload, on
    seeds ``seed``, ``seed + 1``, ...

    Fails if any metric's spread within a set (``setup_s`` excepted)
    exceeds its bound, or the second set's median is worse than the
    first's by more than the bound.
    """
    declared = declaration["end_to_end"]
    names = [w["name"] for w in declaration["workloads"]]
    workloads = [args.workload] if args.workload else names
    ok = True
    stability: Dict[str, dict] = {}
    for workload in workloads:
        sets: List[Dict[str, List[float]]] = []
        for which in (1, 2):
            values: Dict[str, List[float]] = {m["name"]: [] for m in declared}
            for i in range(STABILITY_RUNS):
                print(
                    f"== {workload} · set {which} · seed {args.seed + i}",
                    flush=True,
                )
                result = run_child(
                    workload, args.seed + i, args.seconds, 0, args.quick
                )
                if result is None or not result["correct"] or result["failed"]:
                    ok = False
                    continue
                for name, m in result["metrics"].items():
                    values[name].append(m["value"])
            sets.append(values)
        stability[workload] = {}
        for m in declared:
            name, bound = m["name"], m["bound"]
            first, second = sets[0][name], sets[1][name]
            if len(first) < 2 or len(second) < 2:
                ok = False
                continue
            medians = [statistics.median(first), statistics.median(second)]
            drift = (medians[1] - medians[0]) / medians[0]
            worse = -drift if m["better"] == "higher" else drift
            spreads = [spread(first), spread(second)]
            verdict = "ok"
            if worse > bound or (
                name != "setup_s" and max(spreads) > bound
            ):
                verdict = "OUT OF BOUND"
                ok = False
            stability[workload][name] = {
                "medians": medians,
                "spreads": spreads,
                "drift": drift,
                "bound": bound,
            }
            print(
                f"{workload:<16} {name:<24} median {medians[0]:>12.6g} -> "
                f"{medians[1]:>12.6g} ({drift:+.2%})  spread "
                f"{spreads[0]:.2%} / {spreads[1]:.2%}  bound {bound:.0%}  "
                f"{verdict}"
            )
    write_report("stability", {
        "seed": args.seed,
        "runs": STABILITY_RUNS,
        "seconds": args.seconds,
        "quick": args.quick,
        **machine(),
        "workloads": stability,
    })
    return 0 if ok else 1


def write_report(section: str, report: dict) -> None:
    """Put ``report`` under ``section`` of the JSON document at
    ``REPORT``, keeping the file's other section."""
    document = {}
    if REPORT.exists():
        with open(REPORT, encoding="utf-8") as handle:
            document = json.load(handle)
    document[section] = report
    OUT_DIR.mkdir(exist_ok=True)
    with open(REPORT, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"ledger: wrote {section} to {REPORT}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    declaration = load_declaration()
    names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--seconds", type=int, default=declaration["run_seconds"],
        help="timed seconds per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="run --workload in this process: 0 end to end, 1 per layer",
    )
    parser.add_argument(
        "--traced", action="store_true",
        help="suite: also run the per-layer pass of every workload",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="1 repeat on 1/20 of each update list, 2 s service phases",
    )
    parser.add_argument(
        "--check-stability", action="store_true",
        help="the end-to-end suite as two sets of ten seeds, held to the "
             "bounds",
    )
    args = parser.parse_args(argv)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_one(args, declaration)
    if args.check_stability:
        return check_stability(args, declaration)
    return run_suite(args, declaration)


if __name__ == "__main__":
    sys.exit(main())

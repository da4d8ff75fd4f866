"""Paper-run and serving benchmark for the repro toolkit.

    python3 paperbench/run.py --workload report-paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads: ``report-paper``,
``report-cold`` and ``serve-mix`` (see ``paperbench/README.md``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before
it list every figure with its unit and what it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalogue  # noqa: E402
import proc  # noqa: E402
import reports  # noqa: E402
import serve_mix  # noqa: E402

RUNNERS = {
    "report-paper": reports.report_paper,
    "report-cold": reports.report_cold,
    "serve-mix": serve_mix.serve_mix,
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _terminate(signum, frame) -> None:
    # Unwind through every finally block, which stops child processes.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("paperbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    # Byte-compile the program once, as an install would, so the first
    # timed process of a fresh checkout does not pay for compilation.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(root, "src")],
        check=True, stdout=subprocess.DEVNULL,
    )
    work = os.path.join(root, ".paperbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = reports.Context(
        workload=args.workload,
        root=root,
        env=proc.program_env(root),
        seed=args.seed % 2**31,
        seconds=args.seconds,
        trace=bool(args.trace),
        work=reports.Workdir(work),
    )
    try:
        outcome = RUNNERS[args.workload](ctx)
    except Exception as exc:  # report a broken run as a failed check
        outcome = reports.Outcome()
        outcome.problem(args.workload, "benchmark", f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  ({catalogue.WORKLOADS[args.workload]})")
    print("end-to-end:")
    for name, (unit, _, meaning) in catalogue.END_TO_END.items():
        value = outcome.metrics.get(name)
        shown = "missing" if value is None else _fmt(value)
        print(f"  {name:<24s} {shown:>12s} {unit:<6s} {meaning}")
    if args.trace:
        print("per-layer (value unit  <- should move):")
        for name, (unit, _, moves) in catalogue.PER_LAYER.items():
            value = outcome.layer.get(name)
            shown = "missing" if value is None else _fmt(value)
            print(f"  {name:<24s} {shown:>12s} {unit:<6s} <- {moves}")
    for note in outcome.notes:
        print(note)
    print(f"operations: {outcome.attempted} attempted, {outcome.failed} failed")

    wanted = catalogue.PER_LAYER if args.trace else catalogue.END_TO_END
    source = outcome.layer if args.trace else outcome.metrics
    missing = [name for name in wanted if name not in source]
    for name in missing:
        outcome.problems.append(f"{args.workload}: metrics: {name} was not measured")
    correct = not outcome.problems and outcome.attempted > 0
    print("checks: " + ("pass" if correct else "FAIL"))
    for problem in outcome.problems:
        print(f"  {problem}")
    metrics: Dict[str, Dict[str, object]] = {
        name: {"value": float(source.get(name, 0.0)), "unit": unit}
        for name, (unit, _, _) in wanted.items()
    }
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""End-to-end benchmark of the served, durable path.

One command builds each workload's durable directory, serves it from a
separate ``python -m repro serve --threads 1`` process, drives it
closed-loop from this one thread over at most two sockets, checks every
reply against the numpy oracle and prints every metric with its unit::

    PYTHONPATH=src python bench_e2e/run.py --seed 0
    python3 bench_e2e/run.py --workload point_reads --seed 3 --seconds 12 --trace 0

``--trace 1`` runs the separate, shorter per-layer pass (``tracing.py``).
See ``README.md`` for every metric's definition.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

try:
    import repro  # noqa: F401 - probed here so a bare checkout fails before any work
except ImportError as error:  # a checkout without the engine has nothing to measure
    print(f"bench_e2e: cannot import repro from src/: {error}", file=sys.stderr)
    sys.exit(2)

import harness
import workloads

def run_untraced(classes, seed: int, seconds: float, scale: float, root: Path):
    """Set up every workload, then visit them round-robin (A1 B1 .. A2 B2 ..)
    so a noisy spell costs each workload one round, not one workload all."""
    runs = [harness.WorkloadRun(cls, seed, seconds, scale, root) for cls in classes]
    results = {}
    try:
        harness.warm_interpreter(root)
        for run in runs:
            for slot in range(harness.SETUP_REPEATS):
                run.set_up(slot)
        for index in range(workloads.ROUNDS):
            for run in runs:
                run.round(index)
        for run in runs:
            results[run.workload.name] = {
                "metrics": run.finish(),
                "attempted": run.attempted,
                "failed": run.failed,
                "statements_per_round": run.statements,
                "live_rows": run.workload.live_rows(),
                "repeats": run.repeats,
            }
    finally:
        for run in runs:
            run.close()
    return results


def print_result(name: str, result: dict) -> None:
    print(
        f"workload {name}: attempted={result['attempted']} "
        f"failed={result['failed']}"
    )
    for metric, value in result["metrics"].items():
        print(f"  {metric:<44} {value:>16.6f} {harness.UNITS[metric]}")


def contract_line(result: dict) -> str:
    """The driver's result object: exactly correct/attempted/failed/metrics."""
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric: {"value": value, "unit": harness.UNITS[metric]}
                for metric, value in result["metrics"].items()
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    names = [cls.name for cls in workloads.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=harness.MANIFEST["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="tiny tables and rounds (smoke test)"
    )
    args = parser.parse_args(argv)
    classes = [
        cls
        for cls in workloads.WORKLOADS
        if args.workload in (None, cls.name)
    ]
    scale, seconds = (0.05, 0.6) if args.quick else (1.0, args.seconds)

    # One CPU for the whole closed loop: client and server only ever
    # alternate, and cross-CPU wake-ups are this VM's largest noise source.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    harness.OUT.mkdir(exist_ok=True)
    root = harness.OUT / f"data-{os.getpid()}"
    # No process outlives the run, on any way out but SIGKILL (and then
    # the servers die with this process, see harness._die_with_parent).
    harness.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    document = {}
    try:
        if args.trace:
            import tracing

            output = "trace.json"
            results, document["spans"] = tracing.run_traced(
                classes, args.seed, seconds, scale, root
            )
        else:
            output = "result.json"
            results = run_untraced(classes, args.seed, seconds, scale, root)
    finally:
        harness.stop_descendants()
        shutil.rmtree(root, ignore_errors=True)

    header = harness.environment_header(
        args.seed,
        seconds,
        {name: result["statements_per_round"] for name, result in results.items()},
    )
    document = {"environment": header, "workloads": results} | document
    (harness.OUT / output).write_text(json.dumps(document, indent=1))
    print("environment: " + json.dumps(header))
    for name, result in results.items():
        print_result(name, result)
        print(contract_line(result))
    return 1 if any(result["failed"] for result in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())

"""A/A check: does the benchmark agree with itself on this box?

Runs the untraced suite the way the driver does — one process per
workload and seed — as two interleaved sets (A1 B1 A2 B2 ...) of the
same code, then prints for every workload x end-to-end metric each
set's median and quartiles, its spread (interquartile range over
median, ``statistics.quantiles(values, n=4)``), how much worse set B's
median is than set A's, and the bound declared in ``BENCHMARK.json``.
Exits non-zero when the two medians disagree by more than the bound —
half the bound for ``ops_per_s`` and ``p50_ms``.  A metric whose spread
is wider than its bound is marked ``unresolved``: on this box the
benchmark cannot tell a regression of that size from noise.  A second
table gives the same timings as measured, before the division by the
speed factor, from each run's ``out/result.json``.

    python3 bench_e2e/aa_check.py --runs 10 --output bench_e2e/NOISE.md
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent


#: End-to-end timing -> the repeats behind it in ``out/result.json``.
AS_MEASURED = {
    "setup_s": "setup_s",
    "ops_per_s": "round_ops_per_s",
    "p50_ms": "round_p50_ms",
    "recovery_s": "recovery_s",
}
#: The issue asks these two to agree within half their bound.
HALF_BOUND = ("ops_per_s", "p50_ms")


def steal_ticks() -> int:
    """Cumulative steal time of all CPUs, in clock ticks (/proc/stat)."""
    fields = Path("/proc/stat").read_text().splitlines()[0].split()
    return int(fields[8])


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    before = steal_ticks()
    load = os.getloadavg()[0]
    started = time.perf_counter()
    completed = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"],
        cwd=str(REPO), capture_output=True, text=True, timeout=180,
    )
    wall = time.perf_counter() - started
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    result = json.loads(completed.stdout.splitlines()[-1])
    document = json.loads((BENCH_DIR / "out" / "result.json").read_text())
    repeats = document["workloads"][workload]["repeats"]
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "as_measured": {
            name: statistics.median(repeats[f"{repeat}_as_measured"])
            for name, repeat in AS_MEASURED.items()
        }
        | {"speed factor": statistics.median(repeats["round_factor"])},
        "environment": document["environment"],
        "wall_s": wall,
        "load_1m": load,
        "steal_ticks": steal_ticks() - before,
    }


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """median, first quartile, third quartile, spread."""
    first, median, third = statistics.quantiles(values, n=4)
    return median, first, third, (third - first) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 5)")
    parser.add_argument("--workload", action="append", help="default: all")
    parser.add_argument("--output", type=Path, help="also write the report here")
    args = parser.parse_args()
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in manifest["workloads"]]
    seconds = manifest["run_seconds"]
    runs: dict[tuple[str, str], list[dict]] = {}
    started = time.perf_counter()
    for seed in range(1, args.runs + 1):
        for label in "AB":
            for name in names:
                outcome = run_once(manifest["command"], name, seed, seconds)
                runs.setdefault((name, label), []).append(outcome)
                print(
                    f"{label}{seed} {name}: wall {outcome['wall_s']:.1f}s "
                    f"load {outcome['load_1m']:.2f} steal {outcome['steal_ticks']}",
                    file=sys.stderr,
                )

    environment = outcome["environment"]
    lines = [
        "# A/A noise check",
        "",
        f"Two interleaved sets of {args.runs} runs of the same code per workload "
        f"(seeds 1..{args.runs}, `--seconds {seconds}`), one process per run as "
        "the driver does.  `spread` = (Q3 - Q1) / median of a set; `B worse` = "
        "how much worse set B's median is than set A's (negative: better); "
        "`limit` = the bound in `BENCHMARK.json`, halved for `ops_per_s` and "
        "`p50_ms`; `agree` = |B worse| <= limit; `resolved` = both spreads <= "
        "bound.",
        "",
        f"- `nproc`: {os.cpu_count()}",
        f"- environment of the last run: `{json.dumps(environment)}`",
        f"- load average at the end: {os.getloadavg()}",
        f"- total wall time: {time.perf_counter() - started:.0f} s",
        "",
        "| workload | metric | A median [Q1, Q3] | B median [Q1, Q3] "
        "| spread A | spread B | B worse | bound | limit | agree | resolved |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    failures = unresolved = 0
    for name in names:
        for metric in manifest["end_to_end"]:
            stats = {
                label: summarize(
                    [run["metrics"][metric["name"]] for run in runs[(name, label)]]
                )
                for label in "AB"
            }
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (stats["B"][0] - stats["A"][0]) / stats["A"][0]
            spreads = [stats["A"][3], stats["B"][3]]
            bound = metric["bound"]
            limit = bound / 2 if metric["name"] in HALF_BOUND else bound
            agree = abs(worse) <= limit
            resolved = max(spreads) <= bound
            failures += not agree
            unresolved += not resolved
            cells = [
                f"{stats[label][0]:.4g} [{stats[label][1]:.4g}, {stats[label][2]:.4g}]"
                for label in "AB"
            ]
            lines.append(
                f"| {name} | {metric['name']} ({metric['unit']}) | {cells[0]} "
                f"| {cells[1]} | {spreads[0]:.3f} | {spreads[1]:.3f} "
                f"| {worse:+.3f} | {bound} | {limit:g} | {'yes' if agree else 'NO'} "
                f"| {'yes' if resolved else 'unresolved'} |"
            )
    lines += [
        "",
        f"{failures} disagreements beyond their limit, {unresolved} unresolved, "
        f"of {len(names) * len(manifest['end_to_end'])} workload x metric pairs.",
        "",
        "## The same timings as measured",
        "",
        "Medians of the same runs' repeats before the division by the speed "
        "factor (`speed factor`: median over the rounds; 1 = reference speed).",
        "",
        "| workload | timing | A median | B median | spread A | spread B |",
        "|---|---|---|---|---|---|",
    ]
    for name in names:
        for timing in [*AS_MEASURED, "speed factor"]:
            stats = {
                label: summarize(
                    [run["as_measured"][timing] for run in runs[(name, label)]]
                )
                for label in "AB"
            }
            lines.append(
                f"| {name} | {timing} | {stats['A'][0]:.4g} | {stats['B'][0]:.4g} "
                f"| {stats['A'][3]:.3f} | {stats['B'][3]:.3f} |"
            )
    lines += [
        "",
        "## Per-run conditions",
        "",
        "| workload | set | wall s (median, max) | load 1m (max) "
        "| steal ticks per run (median, max) |",
        "|---|---|---|---|---|",
    ]
    for (name, label), outcomes in sorted(runs.items()):
        walls = [o["wall_s"] for o in outcomes]
        steals = [o["steal_ticks"] for o in outcomes]
        lines.append(
            f"| {name} | {label} | {statistics.median(walls):.1f}, {max(walls):.1f} "
            f"| {max(o['load_1m'] for o in outcomes):.2f} "
            f"| {statistics.median(steals):.0f}, {max(steals)} |"
        )
    report = "\n".join(lines) + "\n"
    print(report)
    if args.output:
        args.output.write_text(report)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

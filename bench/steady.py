#!/usr/bin/env python3
"""Steadiness check: run one workload repeatedly and report each metric's
median, quartiles and spread against its bound from ``BENCHMARK.json``.

    python3 bench/steady.py --workload cli-queries --runs 10 --sets 2

Each run is ``bench/run.py`` in its own process with the next seed.  The
spread is (Q3 - Q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  With ``--sets 2`` the
second set's median is also compared with the first's: ``drift`` is how
much worse it is, as a share of the first median.  Seeds count up from
1 across the sets.  The exit code is 1 when a run fails, a spread exceeds
its bound, or a drift exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    metrics = spec["end_to_end"]
    sets = []
    seed = 1
    for s in range(args.sets):
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        for _ in range(args.runs):
            result = run_once(args.workload, seed, args.seconds)
            if not result["correct"]:
                print(f"seed {seed}: incorrect answers", file=sys.stderr)
                return 1
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"set {s + 1} seed {seed}: " + "  ".join(
                f"{m['name']}={values[m['name']][-1]:.6g}" for m in metrics),
                flush=True)
            seed += 1
        sets.append(values)

    failed = False
    print(f"\n{args.workload}: {args.runs} runs x {args.sets} sets, "
          f"{args.seconds} s each")
    print(f"{'metric':36s} {'set':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s} {'drift':>8s}")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        first = summarize(sets[0][name])[0]
        for i, values in enumerate(sets):
            med, q1, q3, spread = summarize(values[name])
            drift = None
            if i and first:
                sign = 1 if m["better"] == "lower" else -1
                drift = sign * (med - first) / abs(first)
            flag = ""
            if spread > bound:
                flag, failed = "SPREAD", True
            elif spread > bound / 3:
                flag = "spread>bound/3"
            if drift is not None and drift > bound:
                flag, failed = flag + " DRIFT", True
            print(f"{name:36s} {i + 1:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:>6} "
                  f"{'' if drift is None else f'{drift:8.4f}':>8s} {flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

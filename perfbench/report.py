#!/usr/bin/env python3
"""Run every workload (each run in a fresh process) and print its metrics.

    python3 perfbench/report.py                       # one seed, every workload
    python3 perfbench/report.py --seeds 10 --workloads lines,cli
    python3 perfbench/report.py --trace 1             # per-layer metrics

Each run lasts BENCHMARK.json's ``run_seconds``.  For each workload and
metric it prints the median over the seeds and, with more than one seed, the
spread: the distance between the first and third quartile as a share of the
median, next to the metric's bound from BENCHMARK.json.  A spread above a third of the bound is flagged, as is any
failed output.  The exit code is 1 when an output failed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=1, help="seeds 1..N (default 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    any_failed = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(done.stdout.splitlines()[-1]))
            sys.stderr.write(done.stderr)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        any_failed |= failed > 0
        print(f"== {workload}: {len(runs)} run(s), attempted={attempted} failed={failed} "
              f"fail_ratio={failed / attempted:g}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            line = f"  {m['name']:<42} {med:>12.6g} {m['unit']:<6}"
            if len(values) > 1 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                line += f" spread {spread:6.1%}"
                if "bound" in m:
                    flag = "" if spread < m["bound"] / 3 else "  WIDE"
                    line += f" (bound {m['bound']:.0%}){flag}"
            print(line, flush=True)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())

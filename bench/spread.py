"""Repeat the benchmark over seeds and summarise each metric.

    python3 bench/spread.py --runs 10 --seconds 20 [workload ...]

Runs bench/run.py once per seed (1 .. --runs) for each workload, one
run at a time, and prints per metric the median and the spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median.  This regenerates
the reference figures in README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("graph_fine", "profile_families", "graph_small_batch")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        results = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=RUN.parents[1], capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if not results:
            continue
        correct = all(r["correct"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        ok = ok and correct
        print(f"{workload}: {len(results)} runs, correct {correct}, failed shares {shares}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            spread = float("nan")
            if len(vals) > 1 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
            print(f"  {name:40s} {med:14.6g} {unit:6s} spread {spread:6.3f}  "
                  f"[{min(vals):.6g} .. {max(vals):.6g}]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

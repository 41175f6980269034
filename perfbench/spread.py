"""Run the benchmark k times per workload and print each end-to-end metric's spread.

    python3 perfbench/spread.py [-k 10] [--workload W ...] [--first-seed 1]

Run k times per workload, each with its own seed (first-seed, first-seed+1,
...), and print per workload and metric the median, the quartiles
(statistics.quantiles with n=4), the quartile spread as a share of the median,
and the metric's bound from BENCHMARK.json. A spread above a third of the
bound is flagged: at that width a change of one bound cannot be told from
noise. Also prints the share of failed operations, which must be the same in
every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-k", type=int, default=10, help="runs per workload")
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in args.workload or workloads:
        runs = []
        for i in range(args.k):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            values = ", ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items())
            print(f"{workload} seed {seed}: {values}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: correct={correct}, failed share {sorted(shares)}")
        status |= (not correct) or len(shares) != 1
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
            print(f"  {name:12s} median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
                  f"spread {spread:.3f}  bound {bound}{flag}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())

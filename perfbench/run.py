"""qmdl benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--seed N]

Run from the root of a checkout. Each run starts fresh worker processes with
the checkout's `src/` on PYTHONPATH and BLAS/OpenMP pinned to one thread.
With `--trace 0` it reports the end-to-end metrics (setup_s, batch_s,
peak_rss_mb); with `--trace 1` the per-layer metrics of a traced run. The
last stdout line is one JSON object; a report with the environment and the
operation counts goes to perfbench/out/.

`--smoke` runs every workload once at reduced size with all checks on and
exits non-zero on any failed check other than the known faults.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("exact-typeclass", "mc-estimate", "dense-operator")
# one BLAS/OpenMP thread: the plain single-threaded baseline; no matrix here
# is larger than 1024 x 1024
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5      # set-up is timed in this many fresh processes; the median is reported
DEADLINE_S = 170       # a whole run, all processes included

PER_LAYER_UNITS = {"opcore.max_dense_dim": "dim"}


class WorkerFailed(Exception):
    pass


def worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PERFBENCH_T0"] = repr(time.time())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer_metrics(result: dict) -> dict:
    metrics = {}
    for name, value in result["per_layer"].items():
        unit = PER_LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")
        metrics[name] = metric(value, unit)
    traced = statistics.median(result["traced_ref_s"])
    plain = statistics.median(result["batch_ref_s"])
    metrics["trace.batch_s"] = metric(traced, "s")
    metrics["trace.overhead_s"] = metric(traced - plain, "s")
    return metrics


def write_report(name: str, report: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setup = []
    if not trace:
        setup = [worker(common + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    result = worker(common + ["--trace", str(trace)], deadline)
    setup.append(result)
    if trace:
        metrics = per_layer_metrics(result)
    else:
        metrics = {
            "setup_s": metric(statistics.median(r["setup_s"] for r in setup), "s"),
            "batch_s": metric(statistics.median(result["batch_ref_s"]), "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        }
    summary = {
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    write_report(f"{workload}-seed{seed}-trace{trace}.json", {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": result["environment"],
        "batches": result["batches"], "ops_per_batch": len(result["ops"]), "ops": result["ops"],
        "failures": result["failures"], "unexpected": result["unexpected"],
        "known_faults": result["known_faults"],
        "setup_ref_s": [r["setup_s"] for r in setup],
        "setup_wall_s": [r["setup_wall_s"] for r in setup],
        "warmup_wall_s": result["warmup_s"],
        "batch_ref_s": result["batch_ref_s"],
        "batch_wall_s": result["batch_wall_s"],
        "traced_ref_s": result.get("traced_ref_s"),
        "traced_wall_s": result.get("traced_wall_s"),
        **summary,
    })
    return summary


def smoke(seed: int) -> int:
    status = 0
    report = {}
    for workload in WORKLOADS:
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = worker(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--smoke"], deadline)
        except WorkerFailed as exc:
            print(f"{workload}: {exc}")
            status = 1
            continue
        known = sorted(f["known_fault"] for f in result["failures"] if f["known_fault"])
        print(f"{workload}: {result['attempted']} operations, {result['failed']} failed "
              f"(known faults: {', '.join(known) or 'none'})")
        for failure in result["unexpected"]:
            print(f"  FAILED {failure['op']}: {failure['message']}")
            status = 1
        report[workload] = result
    write_report(f"smoke-seed{seed}.json", report)
    print("smoke: " + ("ok" if status == 0 else "FAILED"))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "qmdl", "__init__.py")):
        print(f"no qmdl sources under {os.path.join(ROOT, 'src')}; run from a qmdl checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        summary = measure(args.workload, args.seed, args.seconds, args.trace)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

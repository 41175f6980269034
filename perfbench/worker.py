"""One workload in one fresh process: set-up, a warm-up batch, timed batches.

Started by run.py with the checkout's `src/` on PYTHONPATH, BLAS pinned to
one thread, and PERFBENCH_T0 set to the wall time of the spawn, so set-up is
measured from process start. Prints one JSON object as its last stdout line.

Outputs of the warm-up batch are checked against references computed apart
from qmdl; every timed batch must reproduce them. The checks run after the
timed batches, so neither their time nor their memory is measured.
"""

import os
import time

T0 = float(os.environ.get("PERFBENCH_T0") or time.time())

import calibrate  # noqa: E402  (stdlib only until a LAPACK kernel runs)

SETUP_SLOWDOWN_BEFORE = calibrate.slowdown("interpreter")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import qmdl  # noqa: E402
from ops import CheckFailed, CliRunner, Raised, same  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = {
    "exact-typeclass": "exact_typeclass",
    "mc-estimate": "mc_estimate",
    "dense-operator": "dense_operator",
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_BATCHES = 3


def run_batch(ops, kernel: str | None = None):
    """Runs the operations in order; returns (outputs, wall seconds, reference seconds).

    With a kernel, each operation's time is divided by the mean slowdown of
    the kernel timed right before and right after it.
    """
    results = {}
    wall = ref = 0.0
    before = calibrate.slowdown(kernel) if kernel else 1.0
    for op in ops:
        t = time.perf_counter()
        try:
            results[op.name] = op.run(results)
        except Exception as exc:  # an operation that fails is counted, not fatal
            results[op.name] = Raised(type(exc).__name__, str(exc))
        elapsed = time.perf_counter() - t
        after = calibrate.slowdown(kernel) if kernel else 1.0
        wall += elapsed
        ref += elapsed / ((before + after) / 2)
        before = after
    return results, wall, ref


def timed_batches(ops, warm: dict, seconds: float, min_batches: int, kernel: str, tracer=None) -> dict:
    """Batches until the next one would end past `seconds`; at least `min_batches`.

    Returns per batch the wall and reference seconds, the tracer snapshot, and
    the operations whose output differs from the warm-up batch.
    """
    out = {"wall": [], "ref": [], "snapshots": [], "mismatches": []}
    start = time.perf_counter()
    while len(out["wall"]) < min_batches or (
        time.perf_counter() - start + statistics.median(out["wall"]) <= seconds
    ):
        if tracer is not None:
            tracer.reset()
        results, wall, ref = run_batch(ops, kernel)
        out["wall"].append(wall)
        out["ref"].append(ref)
        if tracer is not None:
            # per-layer times at the reference speed of this batch
            snap = tracer.snapshot()
            out["snapshots"].append({k: v * ref / wall if k.endswith("_s") else v for k, v in snap.items()})
        out["mismatches"].append([op.name for op in ops if not same(results[op.name], warm[op.name])])
        del results
    return out


def check_outputs(ops, warm: dict) -> list[dict]:
    failures = []
    for op in ops:
        out = warm[op.name]
        message = None
        if isinstance(out, Raised):
            message = f"raised {out.kind}: {out.message}"
        else:
            try:
                op.check(out, warm)
            except CheckFailed as exc:
                message = str(exc)
            except Exception as exc:  # a malformed output is a failed check
                message = f"check raised {type(exc).__name__}: {exc}"
        if message is not None:
            failures.append({"op": op.name, "known_fault": op.known_fault, "message": message})
    return failures


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, one timed batch")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = parser.parse_args()

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(qmdl.__file__).startswith(src + os.sep):
        raise SystemExit(f"qmdl was imported from {qmdl.__file__}, not from {src}")

    module = importlib.import_module(WORKLOADS[args.workload])
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        ops = module.build(args.seed, args.smoke, CliRunner(workdir))
        # the kernel timed before the imports ran inside the set-up interval
        setup_wall_s = time.time() - T0 - SETUP_SLOWDOWN_BEFORE * calibrate.NOMINAL_S["interpreter"]
        # import work is interpreter work
        setup_slowdown = (SETUP_SLOWDOWN_BEFORE + calibrate.slowdown("interpreter")) / 2
        result = {"setup_wall_s": setup_wall_s, "setup_s": setup_wall_s / setup_slowdown}
        if args.setup_only:
            print(json.dumps(result))
            return

        warm, warmup_s, _ = run_batch(ops)
        seconds, min_batches = (0.0, 1) if args.smoke else (args.seconds, MIN_BATCHES)
        if args.trace:
            seconds /= 2
        plain = timed_batches(ops, warm, seconds, min_batches, module.SPEED_KERNEL)
        mismatches = plain["mismatches"]
        result.update(
            warmup_s=warmup_s,
            batch_wall_s=plain["wall"],
            batch_ref_s=plain["ref"],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if args.trace:
            import spans

            traced = timed_batches(ops, warm, seconds, min_batches, module.SPEED_KERNEL, spans.install())
            mismatches = mismatches + traced["mismatches"]
            result.update(traced_wall_s=traced["wall"], traced_ref_s=traced["ref"])
            result["per_layer"] = {
                name: statistics.median(s[name] for s in traced["snapshots"]) for name in traced["snapshots"][0]
            }

        failures = check_outputs(ops, warm)
        failed_ops = {f["op"] for f in failures}
        batches = 1 + len(mismatches)
        failed = len(failures) * batches + sum(len(set(m) - failed_ops) for m in mismatches)
        unexpected = [f for f in failures if f["known_fault"] is None]
        unexpected += [
            {"op": name, "known_fault": None, "message": "output differs from the warm-up batch"}
            for name in sorted({n for m in mismatches for n in m} - failed_ops)
        ]
        result.update(
            ops=[op.name for op in ops],
            batches=batches,
            attempted=len(ops) * batches,
            failed=failed,
            failures=failures,
            unexpected=unexpected,
            known_faults=getattr(module, "KNOWN_FAULTS", {}),
            environment=environment(),
        )
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()

"""Fixed reference kernels that measure how fast the CPU runs right now.

On a shared host the speed of one core moves by up to 2x within seconds as
co-tenants come and go: a fixed Python loop took 22 ms to 37 ms per call over
one minute on the 2-core reference host, with CPU time equal to wall time, so
no descheduling was involved. A median over batches cannot remove that when a
slow spell lasts a whole run. The benchmark therefore times a fixed kernel
right before and after each operation and divides the operation's time by the
kernel's slowdown against its nominal time: the result is the operation's time
at the reference speed ("reference seconds").

Two kernels, one per kind of code that dominates a workload: Python-level code
(interpreter loops and small numpy calls, as in the type-class and
per-member loops) and LAPACK (dense eigendecompositions). Their slowdowns
differ under contention, so each workload is normalised by the kernel of its
own kind. Set-up is normalised by the interpreter loop alone, which runs
before numpy is imported.
"""

import functools
import math
import time

NOMINAL_S = {"interpreter": 0.001, "python": 0.002, "lapack": 0.002}


@functools.cache
def _operands():
    import numpy as np  # on first use, so the interpreter loop can run before numpy loads

    a = np.random.default_rng(20260101).standard_normal((96, 96))
    q = np.diag([1.0, 0.0]).astype(complex)
    r = np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex)
    return np, a + a.T, q, r


def _interpreter() -> None:
    s = 0.0
    for i in range(12500):
        s += math.sqrt(i + 0.5)


def _python() -> None:
    _interpreter()
    np, _, q, r = _operands()
    for _ in range(180):
        np.trace(q @ r).real


def _lapack() -> None:
    np, a, _, _ = _operands()
    for _ in range(5):
        np.linalg.eigvalsh(a)


KERNELS = {"interpreter": _interpreter, "python": _python, "lapack": _lapack}


def slowdown(kernel: str) -> float:
    """Time of one kernel call over its nominal time."""
    t = time.perf_counter()
    KERNELS[kernel]()
    return (time.perf_counter() - t) / NOMINAL_S[kernel]

"""Dense complex-matrix kernel.

Operators are plain complex numpy arrays. Validators enforce the invariant ladder
(square/finite -> Hermitian -> PSD with trace <= 1 -> unit trace), on a matrix or a stack,
and every eigen-solve of the library runs here; everything downstream works on validated
arrays and stays pure.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from typing import Callable

import numpy as np

from .config import TOL, admit
from .errors import DimensionMismatch, InvalidOperator, ZeroTrace

__all__ = [
    "as_operator",
    "check_semi_density",
    "check_density",
    "tensor_power",
    "sym_powers",
    "partial_trace",
    "eigh",
    "herm_sqrt",
    "op_norm",
    "norm_exceeds",
    "trace_inner_norm",
    "normalize",
    "pinv_sqrt",
]


def as_operator(t: np.ndarray) -> np.ndarray:
    """Validate and return a dense square complex operator."""
    t = np.asarray(t, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise InvalidOperator(f"expected a square matrix, got shape {t.shape}")
    if not np.all(np.isfinite(t.real)) or not np.all(np.isfinite(t.imag)):
        raise InvalidOperator("operator entries must be finite")
    return t


def _hermitian_gap(t: np.ndarray):
    """max |T - T^dagger| of a matrix, or of each matrix of a stack, and whether T - T^dagger is
    +0.0 in every entry: then (T + T^dagger) / 2 is T bit for bit, signed zeros included."""
    gap = t - t.conj().swapaxes(-1, -2)
    return np.abs(gap).max(axis=(-2, -1), initial=0.0), not gap.view(np.uint64).any()


def check_semi_density(t: np.ndarray) -> np.ndarray:
    """t if it is a semi-density matrix, or a square [N, d, d] stack of them; else InvalidOperator.

    Each matrix is tested Hermitian within TOL.herm, then PSD within TOL.psd (the Gershgorin bound
    min_i (2 Re t_ii - sum_j (|t_ij| + |t_ji|) / 2) of its Hermitian part decides unless open), then
    trace <= 1; a stack's error names its first failing matrix as "component i:"."""
    t = np.asarray(t, dtype=complex)
    many = t.ndim == 3 and t.shape[1] == t.shape[2]
    stack = t if many else as_operator(t)[None]
    if many and not np.isfinite(t).all():
        raise InvalidOperator("operator entries must be finite")
    dev, diag = _hermitian_gap(stack)[0], stack.diagonal(axis1=1, axis2=2)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves the bound open
        size = np.abs(stack)
        low = (2 * diag.real - (size + size.swapaxes(1, 2)).sum(axis=2) / 2).min(axis=1, initial=math.inf)
    undecided = ~(low >= -TOL.psd)  # a NaN bound stays open
    if undecided.any():
        low[undecided] = _eigvalsh(stack[undecided])[:, 0]
    tr = diag.sum(axis=1)
    herm, psd = dev > TOL.herm, low < -TOL.psd
    bad = herm | psd | (tr.real > 1 + TOL.trace) | (np.abs(tr.imag) > TOL.trace)
    if bad.any():
        i = int(bad.argmax())
        message = (f"not Hermitian: max deviation {dev[i]:.3e} > {TOL.herm:.1e}" if herm[i] else
                   f"not PSD: min eigenvalue {low[i]:.3e}" if psd[i] else f"trace {tr[i]} exceeds semi-density bound")
        raise InvalidOperator(f"component {i}: {message}" if many else message)
    return t


def check_density(t: np.ndarray) -> np.ndarray:
    t = check_semi_density(as_operator(t))
    if abs(np.trace(t) - 1) > TOL.trace:
        raise InvalidOperator(f"trace {np.trace(t)} != 1")
    return t


def tensor_power(a: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power; n = 0 gives the 1x1 identity, and a 1 x 1 operator [[a^n]] in one step."""
    if n < 0:
        raise ValueError("tensor power requires n >= 0")
    a = as_operator(a)
    d = a.shape[0]
    admit("tensor power", (d, n), (d, n), itemsize=16, top=(n, "power of a 1 x 1 operator"))
    if d == 1:
        return a ** np.int64(n)
    out = np.eye(1, dtype=complex)
    for _ in range(n):
        out = np.kron(out, a)
    return out


def sym_powers(a: np.ndarray, top: int):
    """Yield Sym^m(A) for m = 0 .. top, for each matrix of a [N, 2, 2] stack.

    Sym^m(A) is A^(x)m restricted to the symmetric subspace: an [N, m+1, m+1]
    stack in the orthonormal Dicke basis, state j being the normalized sum of
    the C(m, j) products with j factors |1>. Read as polynomials (|0> -> x,
    |1> -> y), A^(x)m sends x^(m-j) y^j to (a00 x + a10 y)^(m-j) (a01 x + a11 y)^j.
    Column j of `mono` holds those coefficients, so each power follows from the
    one before by one multiplication with a linear form; the Dicke entries are
    mono[i, j] sqrt(C(m, j) / C(m, i)).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 3 or a.shape[1:] != (2, 2):
        raise InvalidOperator(f"expected a [N, 2, 2] stack, got shape {a.shape}")
    a00, a01, a10, a11 = (a[:, i, j, None, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    mono = np.ones((len(a), 1, 1), dtype=complex)
    for m in range(top + 1):
        if m:
            prev, mono = mono, np.zeros((len(a), m + 1, m + 1), dtype=complex)
            mono[:, :-1, :-1] = a00 * prev
            mono[:, 1:, :-1] += a10 * prev
            mono[:, :-1, -1:] = a01 * prev[:, :, -1:]
            mono[:, 1:, -1:] += a11 * prev[:, :, -1:]
        scale = np.sqrt([float(math.comb(m, j)) for j in range(m + 1)])
        yield mono * (scale[None, :] / scale[:, None])


def partial_trace(t: np.ndarray, dims: list[int], site: int) -> np.ndarray:
    """Trace out the factor `site` (0-based) of a product-space operator."""
    t = as_operator(t)
    total = int(np.prod(dims))
    if total != t.shape[0]:
        raise DimensionMismatch(
            f"factor dims {dims} give {total}, operator has dim {t.shape[0]}"
        )
    if not 0 <= site < len(dims):
        raise DimensionMismatch(f"site {site} out of range for {len(dims)} factors")
    k = len(dims)
    tens = t.reshape(*dims, *dims)
    out = np.trace(tens, axis1=site, axis2=k + site)
    kept = total // dims[site]
    return out.reshape(kept, kept)


def eigh(t: np.ndarray):
    """Ascending eigenvalues and orthonormal eigenvector columns."""
    return _eigvalsh(as_operator(t), True, check=True)


def _eigvalsh(t: np.ndarray, vectors: bool = False, check: bool = False):
    """LAPACK's ascending eigenvalues (vectors: and eigenvector columns) of (T + T^dagger) / 2, for a
    matrix or each matrix of an [N, d, d] stack; check: refuse a matrix not Hermitian within TOL.herm.
    T goes to LAPACK as it is where T - T^dagger is +0.0 in every entry; else the gap is freed first."""
    dev, exact = _hermitian_gap(t)
    if check and np.any(dev > TOL.herm):
        check_semi_density(t)  # raises the rule's "not Hermitian" error
    if not exact:
        t = t + t.conj().swapaxes(-1, -2)
        t /= 2
    return (np.linalg.eigh if vectors else np.linalg.eigvalsh)(t)


# Width from which _spectra shares its solves with a second thread: at 64 wide one eigh takes
# about ten times as long as starting and joining a thread (0.9 ms against 80 us, one BLAS
# thread on a 2-CPU x86-64 virtual machine)
_SPLIT_WIDTH = 64


# The variables that set BLAS's thread count; OpenBLAS and MKL read their own before OMP_NUM_THREADS
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _cpus() -> int:
    """CPUs _spectra may spread its solves over: the affinity mask's (else the machine's count)
    where BLAS runs one thread, else 1. With those variables unset BLAS runs a thread per CPU, so
    one solve already uses them all, and two callers contend for its one thread pool."""
    if next((os.environ[name] for name in _BLAS_THREADS if name in os.environ), "").strip() != "1":
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _other_cpus():
    """The CPUs of this thread's affinity mask other than the one it runs on, or None where that is unknown."""
    try:
        with open("/proc/thread-self/stat") as f:
            here = int(f.read().rsplit(")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {here}
    except (OSError, AttributeError):
        return None


def _spectra(ts, vectors) -> list:
    """[_eigvalsh(t, v, check=True) for t, v in zip(ts, vectors)], the solves run at the same time.

    ts is a sequence of complex arrays, each a matrix or a stack. When the widest is at least
    _SPLIT_WIDTH wide and _cpus() is two or more, the calling thread solves ts[0], ts[2],
    ... and one thread started and joined here solves ts[1], ts[3], ...; LAPACK releases the GIL
    while it solves. That thread moves off the calling thread's CPU first: in a cpuset without load
    balancing a new thread stays on its creator's CPU, and the two would take turns there. Each
    solve is the same call either way, so the results are the same bits, and an error is the first
    one in argument order, as the in-order loop raises it.
    """
    if max(t.shape[-1] for t in ts) < _SPLIT_WIDTH or _cpus() < 2:
        return [_eigvalsh(t, v, check=True) for t, v in zip(ts, vectors)]
    out: list = [None] * len(ts)

    def solve(first: int, cpus=None) -> None:
        if cpus:
            with contextlib.suppress(OSError):  # the mask changed since it was read: stay put
                os.sched_setaffinity(0, cpus)
        for i in range(first, len(ts), 2):
            try:
                out[i] = _eigvalsh(ts[i], vectors[i], check=True)
            except Exception as exc:  # raised below, in argument order, on the calling thread
                out[i] = exc

    helper = threading.Thread(target=solve, args=(1, _other_cpus()))
    helper.start()
    try:
        solve(0)
    finally:
        helper.join()
    for r in out:
        if isinstance(r, Exception):
            raise r
    return out


def _below_support(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The part of eigh's (w, v) at or below TOL.support, which the support convention reads as 0."""
    k = int(np.count_nonzero(w <= TOL.support))
    return (v[:, :k] * w[:k]) @ v[:, :k].conj().T


def _on_support(t: np.ndarray, g: Callable[[np.ndarray], np.ndarray], cutoff: float) -> np.ndarray:
    """Apply g to the eigenvalues above cutoff; every other eigenvalue maps to 0."""
    w, v = eigh(t)
    fw = np.zeros_like(w)
    keep = w > cutoff
    fw[keep] = g(w[keep])
    return (v * fw) @ v.conj().T


# Mass of r1 on the kernel of r2 above which S(r1 || r2) is +inf
_LEAK_TOL = 1e-9


def _rel_entropy_nats(r1: np.ndarray, w1: np.ndarray, w2: np.ndarray, v2: np.ndarray) -> tuple[float, float]:
    """Tr r1 log r1 - Tr r1 log r2 in nats on the support of r2, and r1's mass on r2's kernel.

    w1 holds the eigenvalues of r1 and (w2, v2) = eigh(r2), so w2 ascends and
    r2's kernel is its first k eigenvectors. Eigenvalues at or below
    TOL.support count as zeros. The relative entropy is +inf when the mass
    exceeds _LEAK_TOL; the caller applies that rule, so that a block-diagonal
    pair can sum the mass over its blocks first.
    """
    k = int(np.count_nonzero(w2 <= TOL.support))
    mass = np.einsum("ij,ij->j", v2.conj(), r1 @ v2).real  # on each eigenvector of r2
    w1 = w1[w1 > TOL.support]
    return float(np.sum(w1 * np.log(w1))) - float(mass[k:] @ np.log(w2[k:])), float(mass[:k].sum())


def herm_sqrt(t: np.ndarray) -> np.ndarray:
    """Square root of a PSD operator under the support convention."""
    return _on_support(t, np.sqrt, TOL.support)


def op_norm(t: np.ndarray) -> float:
    """Operator (largest-singular-value) norm."""
    t = as_operator(t)
    if t.size == 0:
        return 0.0
    return float(np.linalg.norm(t, 2))


# Relative widening of the band in which norm_exceeds runs an SVD. It exceeds
# the round-off of both bounds and of an SVD's largest singular value (about
# d * 1e-16), so a decision taken on a bound equals the SVD's.
_GATE_SLACK = 1e-9


def norm_exceeds(t: np.ndarray, tol: float):
    """Exactly `op_norm(t) > tol`: a bool for a [d, d] matrix, a bool array for a [k, d, d] stack.

    max|t_ij| <= ||t||_2 <= ||t||_F decide almost every matrix; an SVD runs only
    for those whose tolerance lies between the two bounds.
    """
    t = np.asarray(t, dtype=complex)
    stack = t[None] if t.ndim == 2 else t
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise InvalidOperator(f"expected finite square matrices, got shape {t.shape}")
    k, d = stack.shape[:2]
    # real and imaginary parts side by side: max |part| <= max |t_ij|, taken as the larger of each
    # row's max and -min, the same float, with no |parts| copy; NaN or inf exactly where a part is
    parts = np.ascontiguousarray(stack).view(np.float64).reshape(k, 2 * d * d)
    largest = np.maximum(parts.max(axis=1, initial=0.0), -parts.min(axis=1, initial=0.0))
    if not np.isfinite(largest).all():
        raise InvalidOperator(f"expected finite square matrices, got shape {t.shape}")
    out = largest * (1 - _GATE_SLACK) > tol
    frobenius = np.sqrt(np.einsum("ki,ki->k", parts, parts))
    between = ~out & (frobenius * (1 + _GATE_SLACK) > tol)
    for i in np.flatnonzero(between):
        out[i] = op_norm(stack[i]) > tol
    return bool(out[0]) if t.ndim == 2 else out


def trace_inner_norm(t: np.ndarray) -> float:
    """Hilbert-Schmidt norm sqrt(Tr(T^dagger T))."""
    t = as_operator(t)
    return float(np.sqrt(np.sum(np.abs(t) ** 2)))


def normalize(t: np.ndarray) -> np.ndarray:
    """Send a nonzero semi-density matrix to its unit-trace companion."""
    t = as_operator(t)
    tr = np.trace(t).real
    if tr <= TOL.norm:
        raise ZeroTrace(f"trace {tr:.3e} below {TOL.norm:.1e}; normalization undefined")
    return t / tr


def pinv_sqrt(t: np.ndarray) -> np.ndarray:
    """T^(-1/2) on the support: eigenvalues > TOL.rank invert, others map to 0."""
    return _on_support(t, lambda w: w**-0.5, TOL.rank)

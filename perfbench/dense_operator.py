"""Workload `dense-operator`: projection systems, pinching and dense levels.

`opcore` and `projlat` do the work: Haar-random ProjSystems and their
coarse-grainings, join/meet, pinching and classification, matrix- and
expected-sense universality on dense levels up to dimension 2^10, and operator
divergences. Library functions are called through their modules, so a traced
run sees every call. Type classes are not enumerated.
"""

from __future__ import annotations

import math

import numpy as np

from qmdl import infodist, projlat
from qmdl.models import example_state
from qmdl.serial import matrix_to_json

from ops import CliRunner, Op, close, json_out, require

LN2 = math.log(2.0)
SPEED_KERNEL = "lapack"  # see calibrate.py
LATTICE_TOL = 1e-8  # the library's operator-norm gate for lattice predicates

# the three-component source of acceptance criterion 6
SOURCE_THETAS = (0.2, 0.5, 0.8)
SOURCE_WEIGHTS = (0.5, 0.25, 0.25)
EPSILON = 0.5

FULL = {"haar": (64, 48), "lattice_dim": 32, "matrix_n": 10, "expected_n": 8, "divergence_dims": (128, 256)}
SMOKE = {"haar": (24, 20), "lattice_dim": 16, "matrix_n": 7, "expected_n": 6, "divergence_dims": (32, 64)}


def _random_density(rng, d: int) -> np.ndarray:
    # a d x 2d Gaussian factor keeps the spectrum well inside the support tolerance
    g = rng.standard_normal((d, 2 * d)) + 1j * rng.standard_normal((d, 2 * d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_blocks(rng, items, lo: int, hi: int) -> list[list[int]]:
    items = list(items)
    blocks = []
    while items:
        size = int(rng.integers(lo, hi + 1))
        blocks.append(items[:size])
        items = items[size:]
    return blocks


def build(seed: int, smoke: bool, cli: CliRunner) -> list:
    size = SMOKE if smoke else FULL
    rng = np.random.default_rng([seed, 3])
    ops = []

    big, mid = size["haar"]
    for d in (big, mid):
        blocks = _random_blocks(rng, rng.permutation(d), 2, 6)
        ops.append(Op(f"haar-{d}", _haar(d, [seed, 3, d]), _check_system(d, [1] * d)))
        ops.append(Op(f"coarse-{d}", _coarse(f"haar-{d}", blocks), _check_coarse(f"haar-{d}", blocks)))

    t = _random_density(rng, big)
    ops.append(Op(f"pinch-{big}", _pinch(t, f"haar-{big}", f"coarse-{big}"),
                  _check_pinch(t, f"haar-{big}", f"coarse-{big}")))
    ops.append(Op(f"classify-{big}", _classify(t, f"haar-{big}"), _check_classify(t, f"haar-{big}")))

    # join/meet: units of one or two basis vectors are the join atoms; groups
    # of units are the meet atoms; A and B split each group into chained pairs
    d = size["lattice_dim"]
    units = _random_blocks(rng, rng.permutation(d), 1, 2)
    groups = _random_blocks(rng, range(len(units)), 3, 5)
    split_a = [g[i:i + 2] for g in groups for i in range(0, len(g), 2)]
    split_b = [g[:1] for g in groups] + [g[i:i + 2] for g in groups for i in range(1, len(g), 2)]

    def to_basis(parts):
        return [[b for u in part for b in units[u]] for part in parts]

    blocks_a, blocks_b = to_basis(split_a), to_basis(split_b)
    ops.append(Op(f"haar-{d}", _haar(d, [seed, 3, d]), _check_system(d, [1] * d)))
    ops.append(Op(f"coarse-{d}-ab", _coarse_pair(f"haar-{d}", blocks_a, blocks_b),
                  _check_pair(f"haar-{d}", blocks_a, blocks_b)))
    ops.append(Op(f"join-{d}", _lattice(projlat.join, d), _check_lattice(d, units, f"coarse-{d}-ab", "join")))
    ops.append(Op(f"meet-{d}", _lattice(projlat.meet, d),
                  _check_lattice(d, to_basis(groups), f"coarse-{d}-ab", "meet")))

    source = {"components": [
        {"weight": w, "matrix": matrix_to_json(example_state(t, 1.0))}
        for w, t in zip(SOURCE_WEIGHTS, SOURCE_THETAS)
    ]}
    model = [matrix_to_json(example_state(t, 1.0)) for t in SOURCE_THETAS]
    for mode, top in (("matrix", size["matrix_n"]), ("expected", size["expected_n"])):
        config = {"source": source, "model": model, "epsilon": EPSILON,
                  "n_range": list(range(1, top + 1)), "mode": mode}
        ops.append(cli.op(f"universality-{mode}", "universality-check", config, _check_universality(mode, top)))

    lam = float(rng.uniform(0.3, 0.7))
    for d in size["divergence_dims"]:
        a, b = _random_density(rng, d), _random_density(rng, d)
        ops.append(Op(f"rel-entropy-{d}", lambda _, a=a, b=b: infodist.rel_entropy(a, b), _check_rel_entropy(a, b)))
        ops.append(Op(f"renyi-{d}", lambda _, a=a, b=b: infodist.renyi(lam, a, b), _check_renyi(lam, a, b)))
        ops.append(Op(f"hellinger-{d}", lambda _, a=a, b=b: infodist.hellinger_sq(a, b), _check_hellinger(a, b)))
    d = size["divergence_dims"][0]
    p, q = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
    ops.append(Op(f"rel-entropy-diag-{d}", lambda _: infodist.rel_entropy(np.diag(p), np.diag(q)),
                  _check_classical_kl(p, q)))
    return ops


# --- operations ----------------------------------------------------------


def _haar(d: int, seed):
    return lambda _: projlat.haar_random_system(d, np.random.default_rng(seed))


def _coarse(source: str, blocks):
    return lambda results: projlat.ProjSystem(
        [sum(results[source].projectors[i] for i in block) for block in blocks]
    )


def _coarse_pair(source: str, blocks_a, blocks_b):
    def run(results):
        fine = results[source].projectors
        return tuple(projlat.ProjSystem([sum(fine[i] for i in block) for block in blocks])
                     for blocks in (blocks_a, blocks_b))
    return run


def _lattice(operation, d: int):
    return lambda results: operation(list(results[f"coarse-{d}-ab"])).system


def _pinch(t, fine: str, coarse: str):
    return lambda results: (projlat.q_project(t, results[fine]), projlat.q_project(t, results[coarse]))


def _classify(t, fine: str):
    return lambda results: projlat.classify(t, results[fine])


# --- checks --------------------------------------------------------------


def _stack(system) -> np.ndarray:
    return np.stack(system.projectors)


def _check_system(d: int, ranks):
    """Hermitian, idempotent, pairwise orthogonal, complete, with the given ranks."""
    def check(system, _results=None) -> None:
        p = _stack(system)
        ranks_ = np.asarray(ranks, dtype=float)
        require(system.dim == d and len(p) == len(ranks_), f"{len(p)} projectors on C^{system.dim}")
        require(np.allclose(p, p.conj().transpose(0, 2, 1), atol=1e-12), "not Hermitian")
        require(np.allclose(p @ p, p, atol=1e-10), "not idempotent")
        gram = np.einsum("aij,bji->ab", p, p).real       # Tr(P_a P_b) = rank_a delta_ab
        require(np.allclose(gram, np.diag(ranks_), atol=1e-9), "not pairwise orthogonal")
        require(np.allclose(p.sum(axis=0), np.eye(d), atol=1e-10), "does not sum to the identity")
        require(system.minimal == bool(np.all(ranks_ == 1)), f"minimal flag {system.minimal}")
    return check


def _block_sums(fine, blocks) -> np.ndarray:
    p = _stack(fine)
    return np.stack([p[list(block)].sum(axis=0) for block in blocks])


def _same_atoms(system, expected: np.ndarray) -> bool:
    """The system's projectors equal `expected` up to order."""
    got = _stack(system)
    if len(got) != len(expected):
        return False
    dist = np.linalg.norm(got[:, None] - expected[None], axis=(2, 3))
    return bool(np.all(np.sort(dist, axis=1)[:, 0] < LATTICE_TOL)
                and len(set(np.argmin(dist, axis=1).tolist())) == len(expected))


def _refines(fine: np.ndarray, coarse: np.ndarray) -> bool:
    """Every PQ equals P or 0."""
    prod = np.einsum("aij,bjk->abik", fine, coarse)
    to_p = np.linalg.norm(prod - fine[:, None], axis=(2, 3))
    to_0 = np.linalg.norm(prod, axis=(2, 3))
    return bool(np.all(np.minimum(to_p, to_0) < LATTICE_TOL))


def _check_coarse(source: str, blocks):
    structure = _check_system(sum(len(b) for b in blocks), [len(b) for b in blocks])

    def check(system, results) -> None:
        structure(system)
        require(_same_atoms(system, _block_sums(results[source], blocks)), "blocks are not sums of the fine projectors")
    return check


def _check_pair(source: str, blocks_a, blocks_b):
    checks = [_check_coarse(source, blocks) for blocks in (blocks_a, blocks_b)]

    def check(pair, results) -> None:
        for system, one in zip(pair, checks):
            one(system, results)
    return check


def _pinching(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    return (p @ t @ p).sum(axis=0)


def _check_pinch(t: np.ndarray, fine: str, coarse: str):
    norm_t = np.linalg.norm(t, 2)

    def check(out, results) -> None:
        for pinched, name in zip(out, (fine, coarse)):
            p = _stack(results[name])
            require(np.allclose(pinched, _pinching(t, p), atol=1e-12), f"{name}: differs from sum_q qTq")
            require(np.allclose(_pinching(pinched, p), pinched, atol=1e-12), f"{name}: pinching not idempotent")
            require(abs(np.trace(pinched) - np.trace(t)) < 1e-12, f"{name}: trace changed")
            require(np.linalg.norm(pinched, 2) <= norm_t + 1e-12, f"{name}: norm increased")
    return check


def _check_classify(t: np.ndarray, fine: str):
    def check(cls, results) -> None:
        pinched = _pinching(t, _stack(results[fine]))
        nu = np.linalg.norm(t - pinched, 2)
        require(close(cls.nu, nu, rel=1e-9), f"nu {cls.nu!r} vs numpy {nu!r}")
        # a generic full-rank state is neither diagonal in the basis nor killed by pinching
        require(cls.tag == "intermediate" and nu > LATTICE_TOL, f"tag {cls.tag}")
    return check


def _check_lattice(d: int, atoms, inputs: str, operation: str):
    structure = _check_system(d, [len(a) for a in atoms])

    def check(system, results) -> None:
        structure(system)
        require(_same_atoms(system, _block_sums(results[f"haar-{d}"], atoms)), f"{operation} atoms differ")
        got = _stack(system)
        for given in results[inputs]:
            fine, coarse = (got, _stack(given)) if operation == "join" else (_stack(given), got)
            require(_refines(fine, coarse), f"{operation}: refinement fails against an input")
    return check


def _levels(n: int):
    """Dense level of the source and the member powers, built with numpy."""
    members = [example_state(t, 1.0) for t in SOURCE_THETAS]
    powers = []
    for rho in members:
        out = np.eye(1, dtype=complex)
        for _ in range(n):
            out = np.kron(out, rho)
        powers.append(out)
    return sum(w * p for w, p in zip(SOURCE_WEIGHTS, powers)), powers


def _rel_entropy_bits(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr rho (log2 rho - log2 sigma), logs taken on the support (eigenvalues > 1e-10)."""
    w1 = np.linalg.eigvalsh(rho)
    w1 = w1[w1 > 1e-10]
    w2, v2 = np.linalg.eigh(sigma)
    keep = w2 > 1e-10
    overlap = np.real(np.einsum("ia,ij,ja->a", v2[:, keep].conj(), rho, v2[:, keep]))
    return float(np.sum(w1 * np.log2(w1)) - overlap @ np.log2(w2[keep]))


def _check_universality(mode: str, top: int):
    def check(out) -> None:
        result = json_out(out)
        matrix, expected = [], []
        for n in range(1, top + 1):
            level, powers = _levels(n)
            matrix.append(min(float(np.linalg.eigvalsh(level - 2.0 ** (-n * EPSILON) * p)[0]) for p in powers))
            if mode == "expected":
                expected.append(n * EPSILON - max(_rel_entropy_bits(p, level) for p in powers))
        reference = matrix if mode == "matrix" else expected
        for (n, margin), ref in zip(result["per_level"], reference):
            require(close(margin, ref, rel=1e-9, abs_=1e-9), f"n={n}: margin {margin!r} vs numpy {ref!r}")
        require(len(result["per_level"]) == top, f"{len(result['per_level'])} levels")
        n0 = next(n for n in range(1, top + 1) if all(m >= -1e-9 for m in matrix[n - 1:]))
        if mode == "matrix":
            require(result["n0"] == n0 and n0 <= 4, f"matrix-mode n0 {result['n0']} (numpy {n0})")
        else:
            # matrix-sense domination implies the expected sense
            require(all(m >= -1e-7 for m in expected[n0 - 1:]), f"expected margins {expected} from n0={n0}")
        require(result["pass"] and out.code == 0, f"exit {out.code}")
    return check


def _check_rel_entropy(a, b):
    def check(dv, _results) -> None:
        from scipy.linalg import logm

        ref = float(np.trace(a @ (logm(a) - logm(b))).real) / LN2
        require(dv.base == "bits" and close(dv.value, ref, rel=1e-8), f"S = {dv.value!r}, logm gives {ref!r}")
    return check


def _check_renyi(lam: float, a, b):
    def check(dv, _results) -> None:
        from scipy.linalg import fractional_matrix_power as fmp

        affinity = float(np.trace(fmp(a, lam) @ fmp(b, 1 - lam)).real)
        ref = -math.log(affinity) / (1 - lam)
        require(dv.base == "nats" and close(dv.value, ref, rel=1e-8), f"D_{lam} = {dv.value!r}, scipy gives {ref!r}")
    return check


def _check_hellinger(a, b):
    def check(dv, _results) -> None:
        from scipy.linalg import sqrtm

        ref = float(np.sum(np.abs(sqrtm(a) - sqrtm(b)) ** 2))
        require(close(dv.value, ref, rel=1e-8), f"He2 = {dv.value!r}, sqrtm gives {ref!r}")
    return check


def _check_classical_kl(p, q):
    def check(dv, _results) -> None:
        ref = float(np.sum(p * np.log2(p / q)))
        require(dv.base == "bits" and close(dv.value, ref, rel=1e-9), f"S = {dv.value!r}, classical KL {ref!r}")
    return check

"""Complete systems of mutually orthogonal projections and the pinching map.

A ProjSystem is the operational face of a projective measurement: projectors
that square to themselves, kill each other pairwise, and sum to the identity.
The refinement order, join/meet lattice, Q-projection (pinching) and the
quantum-complexity classifier all live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, InconsistentFamily, InvalidOperator, NonMinimalSystem
from .opcore import as_operator, check_cap, op_norm

__all__ = [
    "ProjSystem",
    "computational_basis",
    "system_from_unitary",
    "haar_random_system",
    "finer",
    "consistent",
    "LatticeResult",
    "join",
    "meet",
    "q_project",
    "Classification",
    "classify",
    "tensor_system",
    "WeakEqualityResult",
    "weakly_equal",
]


@dataclass(frozen=True)
class ProjSystem:
    """A complete set of mutually orthogonal projectors on C^dim."""

    projectors: tuple[np.ndarray, ...]
    dim: int = field(init=False)
    minimal: bool = field(init=False)

    def __init__(self, projectors):
        projs = tuple(as_operator(p) for p in projectors)
        if not projs:
            raise InvalidOperator("a projection system needs at least one projector")
        dim = projs[0].shape[0]
        tol = TOL.projector
        total = np.zeros((dim, dim), dtype=complex)
        minimal = True
        for i, p in enumerate(projs):
            if p.shape[0] != dim:
                raise DimensionMismatch("projectors live on different spaces")
            if np.max(np.abs(p - p.conj().T)) > TOL.herm:
                raise InvalidOperator(f"projector {i} is not Hermitian")
            if op_norm(p @ p - p) > tol:
                raise InvalidOperator(f"projector {i} is not idempotent")
            for j in range(i):
                if op_norm(projs[j] @ p) > tol:
                    raise InvalidOperator(f"projectors {j} and {i} are not orthogonal")
            total += p
            w = np.linalg.eigvalsh((p + p.conj().T) / 2)
            # rank 1: top eigenvalue 1, runner-up numerically 0
            if w.size > 1 and w[-2] > tol:
                minimal = False
        if op_norm(total - np.eye(dim)) > tol:
            raise InvalidOperator("projectors do not sum to the identity")
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "minimal", minimal)

    def __len__(self) -> int:
        return len(self.projectors)

    def __iter__(self):
        return iter(self.projectors)

    @cached_property
    def computational(self) -> bool:
        """Whether the projectors are |a><a| in the standard basis, in index order."""
        if not self.minimal or len(self) != self.dim:
            return False
        eye = np.eye(self.dim)
        return all(
            np.max(np.abs(q - np.outer(eye[:, a], eye[:, a]))) <= TOL.lattice
            for a, q in enumerate(self)
        )


def computational_basis(dim: int) -> ProjSystem:
    """The rank-1 system |k><k| in the standard basis."""
    eye = np.eye(dim, dtype=complex)
    return ProjSystem([np.outer(eye[:, k], eye[:, k].conj()) for k in range(dim)])


def system_from_unitary(u: np.ndarray) -> ProjSystem:
    """Rank-1 system built from the columns of a unitary."""
    u = as_operator(u)
    return ProjSystem(
        [np.outer(u[:, k], u[:, k].conj()) for k in range(u.shape[0])]
    )


def haar_random_system(dim: int, rng: np.random.Generator) -> ProjSystem:
    """Haar-random rank-1 system: QR-orthonormalized complex Gaussian columns."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))  # fix phases for Haar measure
    return system_from_unitary(q)


def _require_same_dim(*systems: ProjSystem) -> int:
    dims = {s.dim for s in systems}
    if len(dims) != 1:
        raise DimensionMismatch(f"systems have differing dims {sorted(dims)}")
    return dims.pop()


def finer(p_sys: ProjSystem, q_sys: ProjSystem) -> bool:
    """True iff p_sys refines q_sys: every pq equals p or 0."""
    _require_same_dim(p_sys, q_sys)
    tol = TOL.lattice
    for p in p_sys:
        for q in q_sys:
            pq = p @ q
            if op_norm(pq - p) > tol and op_norm(pq) > tol:
                return False
    return True


def consistent(systems: list[ProjSystem]) -> bool:
    """True iff all projectors across the family commute pairwise."""
    if not systems:
        return True
    _require_same_dim(*systems)
    tol = TOL.lattice
    for i, a in enumerate(systems):
        for b in systems[i + 1 :]:
            for p in a:
                for q in b:
                    if op_norm(p @ q - q @ p) > tol:
                        return False
    return True


@dataclass(frozen=True)
class LatticeResult:
    system: ProjSystem
    inputs: int
    operation: str  # "join" | "meet"


def _join_projectors(systems: list[ProjSystem]) -> list[np.ndarray]:
    """All nonzero products, one projector per system, deduplicated.

    Commutativity (checked by the caller) makes each product a projector.
    Deduplication keeps the first representative in lexicographic index order.
    """
    tol = TOL.lattice
    products = [np.eye(systems[0].dim, dtype=complex)]
    for sys_ in systems:
        nxt = []
        for acc in products:
            for q in sys_:
                prod = acc @ q
                if op_norm(prod) > tol:
                    nxt.append(prod)
        products = nxt
    out: list[np.ndarray] = []
    for prod in products:
        if not any(op_norm(prod - seen) <= tol for seen in out):
            out.append(prod)
    return out


def join(systems: list[ProjSystem]) -> LatticeResult:
    """Least upper bound (finest common refinement) of a commuting family."""
    if not systems:
        raise InconsistentFamily("join of an empty family is undefined")
    if not consistent(systems):
        raise InconsistentFamily("systems do not commute; no common refinement")
    return LatticeResult(ProjSystem(_join_projectors(systems)), len(systems), "join")


def meet(systems: list[ProjSystem]) -> LatticeResult:
    """Greatest lower bound: sums of join atoms over connected components.

    Two join atoms are linked when some input projector contains both; the
    component sums form the coarsest system refined by every input.
    """
    if not systems:
        raise InconsistentFamily("meet of an empty family is undefined")
    if not consistent(systems):
        raise InconsistentFamily("systems do not commute; no common coarsening")
    atoms = _join_projectors(systems)
    tol = TOL.lattice
    n = len(atoms)
    adj = [[False] * n for _ in range(n)]
    for sys_ in systems:
        for q in sys_:
            under = [i for i, a in enumerate(atoms) if op_norm(q @ a - a) <= tol]
            for i in under:
                for j in under:
                    adj[i][j] = True
    seen = [False] * n
    members: list[np.ndarray] = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if adj[i][j] and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        members.append(sum(atoms[i] for i in comp))
    return LatticeResult(ProjSystem(members), len(systems), "meet")


def q_project(t: np.ndarray, system: ProjSystem) -> np.ndarray:
    """The pinching sum_q q T q; kills coherences across the blocks of Q."""
    t = as_operator(t)
    if t.shape[0] != system.dim:
        raise DimensionMismatch(
            f"operator dim {t.shape[0]} vs system dim {system.dim}"
        )
    out = np.zeros_like(t)
    for q in system:
        out += q @ t @ q
    return out


@dataclass(frozen=True)
class Classification:
    nu: float
    tag: str  # "classical" | "maximally-nonclassical" | "intermediate"


def classify(t: np.ndarray, system: ProjSystem) -> Classification:
    """Quantum complexity ||T - T_Q|| with the Q-classicality tag."""
    if not system.minimal:
        raise NonMinimalSystem("classification requires a rank-1 complete system")
    t = as_operator(t)
    tq = q_project(t, system)
    nu = op_norm(t - tq)
    if nu <= TOL.lattice:
        tag = "classical"
    elif op_norm(tq) <= TOL.lattice:
        tag = "maximally-nonclassical"
    else:
        tag = "intermediate"
    return Classification(nu, tag)


def tensor_system(p_sys: ProjSystem, q_sys: ProjSystem) -> ProjSystem:
    """Product system {p_i (x) q_j} on the tensor-product space."""
    check_cap(p_sys.dim * q_sys.dim)
    return ProjSystem(
        [np.kron(p, q) for p in p_sys for q in q_sys]
    )


@dataclass(frozen=True)
class WeakEqualityResult:
    passed: bool
    trials: int
    witness: ProjSystem | None


def weakly_equal(
    t: np.ndarray, s: np.ndarray, trials: int = 64, seed: int = 0
) -> WeakEqualityResult:
    """Sampled check of T =_w S over Haar-random rank-1 systems.

    A pass cannot certify the universally quantified statement; a failure
    returns the witness system.
    """
    t, s = as_operator(t), as_operator(s)
    if t.shape != s.shape:
        raise DimensionMismatch("operators have different shapes")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        system = haar_random_system(t.shape[0], rng)
        if op_norm(q_project(t, system) - q_project(s, system)) > TOL.lattice:
            return WeakEqualityResult(False, trials, system)
    return WeakEqualityResult(True, trials, None)

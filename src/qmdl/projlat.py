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
from .opcore import as_operator, check_cap, norm_exceeds, op_norm

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


@dataclass(frozen=True, eq=False)
class ProjSystem:
    """A complete set of mutually orthogonal projectors on C^dim.

    Equality and hashing are by identity, so a system keys per-system caches.
    """

    projectors: tuple[np.ndarray, ...]  # read-only views of `stack`
    stack: np.ndarray = field(init=False, repr=False)  # [m, dim, dim]
    dim: int = field(init=False)
    minimal: bool = field(init=False)

    def __init__(self, projectors):
        projs = [as_operator(p) for p in projectors]
        if not projs:
            raise InvalidOperator("a projection system needs at least one projector")
        dim = projs[0].shape[0]
        # projectors before the first one on another space are checked first
        split = next((i for i, p in enumerate(projs) if p.shape[0] != dim), len(projs))
        stack = np.stack(projs[:split])
        tol = TOL.projector
        herm = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2)) > TOL.herm
        idem = norm_exceeds(stack @ stack - stack, tol)
        for i, p in enumerate(stack):
            if herm[i]:
                raise InvalidOperator(f"projector {i} is not Hermitian")
            if idem[i]:
                raise InvalidOperator(f"projector {i} is not idempotent")
            overlaps = np.flatnonzero(norm_exceeds(stack[:i] @ p, tol))
            if overlaps.size:
                raise InvalidOperator(f"projectors {overlaps[0]} and {i} are not orthogonal")
        if split < len(projs):
            raise DimensionMismatch("projectors live on different spaces")
        if norm_exceeds(stack.sum(axis=0) - np.eye(dim), tol):
            raise InvalidOperator("projectors do not sum to the identity")
        # rank 1: top eigenvalue 1, runner-up numerically 0
        w = np.linalg.eigvalsh((stack + stack.conj().transpose(0, 2, 1)) / 2)
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "projectors", tuple(stack))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "minimal", dim < 2 or bool(np.all(w[:, -2] <= tol)))

    def __len__(self) -> int:
        return len(self.projectors)

    def __iter__(self):
        return iter(self.projectors)

    @cached_property
    def computational(self) -> bool:
        """Whether the projectors are |a><a| in the standard basis, in index order."""
        if not self.minimal or len(self) != self.dim:
            return False
        basis = np.eye(self.dim)
        return bool(np.abs(self.stack - basis[:, :, None] * basis[:, None, :]).max() <= TOL.lattice)


def computational_basis(dim: int) -> ProjSystem:
    """The rank-1 system |k><k| in the standard basis."""
    return system_from_unitary(np.eye(dim, dtype=complex))


def system_from_unitary(u: np.ndarray) -> ProjSystem:
    """Rank-1 system built from the columns of a unitary."""
    cols = as_operator(u).T
    return ProjSystem(cols[:, :, None] * cols.conj()[:, None, :])


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
        pq = p @ q_sys.stack
        if norm_exceeds(pq[norm_exceeds(pq - p, tol)], tol).any():
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
                if norm_exceeds(p @ b.stack - b.stack @ p, tol).any():
                    return False
    return True


@dataclass(frozen=True)
class LatticeResult:
    system: ProjSystem
    inputs: int
    operation: str  # "join" | "meet"


def _join_projectors(systems: list[ProjSystem]) -> np.ndarray:
    """All nonzero products, one projector per system, deduplicated, as a stack.

    Commutativity (checked by the caller) makes each product a projector.
    Deduplication keeps the first representative in lexicographic index order.
    """
    tol = TOL.lattice
    products = np.eye(systems[0].dim, dtype=complex)[None]
    for sys_ in systems:
        nonzero = []
        for acc in products:
            row = acc @ sys_.stack
            nonzero.append(row[norm_exceeds(row, tol)])
        products = np.concatenate(nonzero)
    kept = 0
    for prod in products:
        if norm_exceeds(prod - products[:kept], tol).all():
            products[kept] = prod
            kept += 1
    return products[:kept]


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
    n = len(atoms)
    adj = np.zeros((n, n), dtype=bool)
    for sys_ in systems:
        for q in sys_:
            under = np.flatnonzero(~norm_exceeds(q @ atoms - atoms, TOL.lattice))
            adj[np.ix_(under, under)] = True
    seen = np.zeros(n, dtype=bool)
    members: list[np.ndarray] = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            linked = np.flatnonzero(adj[i] & ~seen)
            seen[linked] = True
            stack.extend(linked.tolist())
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
    elif not norm_exceeds(tq, TOL.lattice):
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
        if norm_exceeds(q_project(t, system) - q_project(s, system), TOL.lattice):
            return WeakEqualityResult(False, trials, system)
    return WeakEqualityResult(True, trials, None)

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
from .opcore import _eigvalsh, _hermitian_gap, as_operator, norm_exceeds, op_norm

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
]


@dataclass(frozen=True, eq=False)
class ProjSystem:
    """A complete set of mutually orthogonal projectors on C^dim.

    Equality and hashing are by identity, so a system keys per-system caches.
    """

    stack: np.ndarray = field(init=False, repr=False)  # [m, dim, dim], read-only
    dim: int = field(init=False)
    minimal: bool = field(init=False)
    # [m, dim] read-only, P_i = v_i v_i^H, for a system built from vectors; else None
    _vectors: np.ndarray | None = field(init=False, repr=False)

    def __init__(self, projectors, *, _vectors: np.ndarray | None = None):
        # _vectors: the rows v_i of a finite [m, d] array, projectors their entrywise products v_i v_i^H
        norms = None if _vectors is None else _vector_norms(projectors, _vectors)
        if norms is None:
            _vectors = None
            projs = [as_operator(p) for p in projectors]
            if not projs:
                raise InvalidOperator("a projection system needs at least one projector")
            dim = projs[0].shape[0]
            if dim == 0:
                raise InvalidOperator("projectors act on the zero-dimensional space C^0")
            # projectors before the first one on another space are checked first
            split = next((i for i, p in enumerate(projs) if p.shape[0] != dim), len(projs))
            stack, mixed = np.stack(projs[:split]), split < len(projs)
            herm = _hermitian_gap(stack)[0] > TOL.herm
            norms = _factor_norms(stack)
        else:
            stack, mixed = projectors, False
            herm = np.zeros(len(stack), dtype=bool)
            _vectors.flags.writeable = False
        ranks, delta, g = norms
        m, dim = stack.shape[:2]
        tol = TOL.projector
        cut = tol * (1 - _BOUND_SLACK)
        # A bound below the cut decides a predicate: one bound for the whole system
        # first, then one per projector and pair; the dense test runs where neither
        # does. Every test reads `not bound < cut`, so a NaN bound stays open.
        g_top, d_top = g.max(), delta.max()
        idem = np.zeros(m, dtype=bool)  # projectors that are not idempotent
        orth = np.zeros((m, m), dtype=bool)  # pairs j < i whose bound is open
        suspects = herm
        if not _pair_bound(g_top, 1 + g_top, d_top, 1 + g_top, d_top) + d_top < cut:
            q = 1 + g.diagonal()
            pair = _pair_bound(g, q[:, None], delta[:, None], q, delta)
            idem = ~(pair.diagonal() + delta < cut)
            if idem.any():
                loose = stack[idem]
                with np.errstate(over="ignore", invalid="ignore"):
                    product = loose @ loose - loose
                # a P whose P^2 overflows has ||P^2 - P|| >= ||P||^2 - ||P|| > tol
                exceeds = ~np.isfinite(product).all(axis=(1, 2))
                exceeds[~exceeds] = norm_exceeds(product[~exceeds], tol)
                idem[idem] = exceeds
            orth = np.triu(~(pair < cut), 1)
            suspects = herm | idem | orth.any(axis=0)
        for i in np.flatnonzero(suspects):
            if herm[i]:
                raise InvalidOperator(f"projector {i} is not Hermitian")
            if idem[i]:
                raise InvalidOperator(f"projector {i} is not idempotent")
            js = np.flatnonzero(orth[:i, i])
            overlaps = js[norm_exceeds(stack[js] @ stack[i], tol)]
            if overlaps.size:
                raise InvalidOperator(f"projectors {overlaps[0]} and {i} are not orthogonal")
        if mixed:
            raise DimensionMismatch("projectors live on different spaces")
        if norm_exceeds(stack.sum(axis=0) - np.eye(dim), tol):
            raise InvalidOperator("projectors do not sum to the identity")
        # rank 1: top eigenvalue 1, runner-up numerically 0
        multiple = ranks >= 2
        loose = stack[multiple | ~(delta < cut)]
        if dim < 2 or not len(loose):
            minimal = True
        elif (1 - g.diagonal()[multiple] - delta[multiple] > tol * (1 + _BOUND_SLACK)).any():
            minimal = False
        else:
            w = _eigvalsh(loose)
            minimal = bool(np.all(w[:, -2] <= tol))
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "minimal", minimal)
        object.__setattr__(self, "_vectors", _vectors)

    def __len__(self) -> int:
        return len(self.stack)

    def __iter__(self):
        return iter(self.projectors)

    def __getstate__(self) -> dict:  # pickle and deepcopy keep `stack` once; the views are remade on read
        return {k: v for k, v in vars(self).items() if k != "projectors"}

    def __setstate__(self, state: dict) -> None:  # a copy's arrays are read-only, as the original's
        vars(self).update(state)
        for array in [a for a in (self.stack, self._vectors) if a is not None]:
            array.flags.writeable = False

    @cached_property
    def projectors(self) -> tuple[np.ndarray, ...]:  # read-only views of `stack`
        return tuple(self.stack)

    @cached_property
    def computational(self) -> bool:
        """Whether the projectors are |a><a| in the standard basis, in index order."""
        if not self.minimal or len(self) != self.dim:
            return False
        basis = np.eye(self.dim)
        return bool(np.abs(self.stack - basis[:, :, None] * basis[:, None, :]).max() <= TOL.lattice)


# Relative margin by which a bound must clear a tolerance to decide a predicate;
# it exceeds the relative round-off of the dense test's SVD or eigvalsh.
_BOUND_SLACK = 1e-9
_EPS = np.finfo(float).eps
# Per unit of d * max rank: the allowance added to each norm of _factor_norms.
# It covers the round-off of the factor, the Gram product and the dense products.
_ROUNDOFF = 64 * _EPS


@np.errstate(over="ignore", invalid="ignore")  # an overflow leaves its bounds open
def _ranks(stack: np.ndarray) -> np.ndarray:
    """r_i = round(Re Tr P_i), clipped to [0, d], as floats."""
    return np.fmin(np.fmax(np.rint(stack.trace(axis1=1, axis2=2).real), 0), stack.shape[1])


@np.errstate(over="ignore", invalid="ignore")
def _factor_norms(stack: np.ndarray):
    """Norms of one factorisation of a [m, d, d] stack that bound its predicates.

    Each P_i takes r_i = _ranks pivoted-Cholesky steps (pivot on the largest
    residual diagonal entry), P_i = F_i F_i^H + R_i, and _gram_norms bounds the
    Gram product of the factor. Returns r [m], delta [m] >= ||R_i|| and g [m, m]:
    Frobenius norms plus a round-off allowance, NaN or infinite where the stack's
    entries overflow.

    Ranks stay floats and pivots come from max and nonzero, not argsort, argmax
    or integer arithmetic: the first call of each of those maps 64-320 KB of
    numpy code that a run of the operator layer may not otherwise map.
    """
    m, d = stack.shape[:2]
    ranks = _ranks(stack)
    # higher ranks first: the projectors still factoring form a prefix
    order = sorted(range(m), key=ranks.tolist().__getitem__, reverse=True)
    steps = ranks[order].tolist()
    residual = stack[order]
    rows = np.arange(m)
    cols, owners = [], []
    for step in range(int(steps[0])):
        n = sum(r > step for r in steps)
        res = residual[:n]
        diag = res.diagonal(axis1=1, axis2=2).real
        pivot = diag.max(axis=1)
        hit, at = np.nonzero(diag == pivot[:, None])
        k = np.zeros(n, dtype=np.intp)  # column 0 where a NaN pivot matches nothing
        k[hit] = at  # a column whose diagonal entry is the largest
        # a valid pivot is at least 1/d; any factor gives valid bounds
        col = res[rows[:n], :, k] * (np.maximum(pivot, 0.5 / d) ** -0.5)[:, None]
        res -= col[:, :, None] * col[:, None, :].conj()
        cols.append(col)
        owners += order[:n]
    allowance = _ROUNDOFF * d * max(steps[0], 1)
    parts = residual.view(np.float64).reshape(m, -1)
    delta = np.empty(m)
    delta[order] = np.sqrt(np.einsum("ki,ki->k", parts, parts)) + allowance
    factor = np.concatenate(cols) if cols else np.empty((0, d), dtype=complex)  # F^T
    return ranks, delta, _gram_norms(factor, np.array(owners, dtype=float), m, allowance)


def _vector_norms(stack: np.ndarray, vectors: np.ndarray):
    """_factor_norms of the entrywise products P_i = v_i v_i^H of the rows of a finite [m, d] array.

    The rows are the factor, and P_i - v_i v_i^H is the products' round-off, within
    the allowance. None where some rank is not 1 (the rows are not unit vectors) or
    the Hermitian bound is open (the products may overflow): the caller then takes
    the general path.
    """
    m, d = vectors.shape
    ranks = _ranks(stack)
    # |P_jk - conj(P_kj)| <= 8 eps |v_j| |v_k|: each side is one rounded complex product
    top = float(np.abs(vectors).max(initial=0.0))
    if not (m and (ranks == 1).all() and 8 * _EPS * top * top < TOL.herm * (1 - _BOUND_SLACK)):
        return None
    allowance = _ROUNDOFF * d
    return ranks, np.full(m, allowance), _gram_norms(vectors, np.arange(m, dtype=float), m, allowance)


@np.errstate(over="ignore", invalid="ignore")
def _gram_norms(factor: np.ndarray, owners: np.ndarray, m: int, allowance: float) -> np.ndarray:
    """g [m, m] with g_ji >= ||G_ji|| and e_i = g_ii >= ||G_ii - I||, G = F^H F.

    Row k of `factor` (F^T) is a column of F_i, i = owners[k] (floats). The norms
    are Frobenius norms plus the allowance, which covers the round-off of the
    factor, the Gram product and the dense products. With q_i = 1 + e_i >=
    ||F_i||^2, _pair_bound bounds ||P_j P_i||; at j = i, plus delta_i >= ||P_i -
    F_i F_i^H||, it bounds ||P_i^2 - P_i||. The second eigenvalue of Herm(P_i)
    lies within delta_i of that of F_i F_i^H, which is 0 for r_i <= 1 and at
    least 1 - e_i for r_i >= 2.
    """
    gram = factor.conj() @ factor.T
    gram.ravel()[:: len(gram) + 1] -= 1
    return np.sqrt(np.bincount(
        (owners[:, None] * m + owners).ravel().astype(np.intp), np.abs(gram).ravel() ** 2, m * m
    )).reshape(m, m) + allowance


@np.errstate(over="ignore", invalid="ignore")
def _pair_bound(g, q_j, delta_j, q_i, delta_i):
    """Bound on ||P_j P_i|| = ||(F_j F_j^H + R_j)(F_i F_i^H + R_i)||."""
    return np.sqrt(q_j * q_i) * g + delta_j * (q_i + delta_i) + q_j * delta_i


def computational_basis(dim: int) -> ProjSystem:
    """The rank-1 system |k><k| in the standard basis."""
    return system_from_unitary(np.eye(dim, dtype=complex))


def system_from_unitary(u: np.ndarray) -> ProjSystem:
    """Rank-1 system built from the columns of a unitary, which it keeps as its vectors."""
    cols = as_operator(u).T.copy()
    return ProjSystem(cols[:, :, None] * cols.conj()[:, None, :], _vectors=cols)


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
    return not systems or _atoms(systems, chain=False) is not None


def _atoms(systems: list[ProjSystem], chain: bool = True):
    """The join atoms, a list of [d, d] arrays, and their owners; None if the family does not commute.

    Each product X = P Q of two systems' projectors is formed once, a row P @ Q-stack at a time;
    X - X^H = P Q - Q P for Hermitian P, Q decides commutation. With `chain`, the first pair's
    nonzero products start a chain each later system multiplies. Owner n, in lexicographic order,
    names each system's projector in atom n; distinct owners give orthogonal atoms: none repeats."""
    dim = _require_same_dim(*systems)
    level, owners = [], []
    if len(systems) == 1:
        _keep(systems[0].stack, (), level, owners)
    for i, a in enumerate(systems):
        for j in range(i + 1, len(systems)):
            x = np.empty((len(systems[j]), dim, dim), dtype=complex)  # one row of products at a time
            for k, p in enumerate(a.stack):
                np.matmul(p, systems[j].stack, out=x)
                if j == 1 and chain:
                    _keep(x, (k,), level, owners)
                x -= x.conj().swapaxes(1, 2)
                if norm_exceeds(x, TOL.lattice).any():
                    return None
    for sys_ in systems[2:] if chain else ():
        atoms, tags, level, owners = level, owners, [], []
        for atom, owner in zip(atoms, tags):
            _keep(atom @ sys_.stack, owner, level, owners)
    return (level if chain else None), owners


def _keep(x: np.ndarray, owner: tuple, atoms: list, owners: list) -> None:
    """Append the nonzero products x[j] to atoms, and owner + (j,) to owners."""
    keep = np.flatnonzero(norm_exceeds(x, TOL.lattice))
    atoms.extend(x[keep])
    owners += [owner + (j,) for j in keep.tolist()]


@dataclass(frozen=True)
class LatticeResult:
    system: ProjSystem


def _lattice_atoms(systems: list[ProjSystem], operation: str, bound: str):
    if not systems:
        raise InconsistentFamily(f"{operation} of an empty family is undefined")
    found = _atoms(systems)
    if found is None:
        raise InconsistentFamily(f"systems do not commute; no common {bound}")
    return found


def join(systems: list[ProjSystem]) -> LatticeResult:
    """Least upper bound (finest common refinement) of a commuting family: its nonzero products."""
    return LatticeResult(ProjSystem(_lattice_atoms(systems, "join", "refinement")[0]))


def meet(systems: list[ProjSystem]) -> LatticeResult:
    """Greatest lower bound (coarsest common coarsening) of a commuting family: each member
    sums the join atoms of one component of the graph in which an atom links its owners."""
    return LatticeResult(_meet_system(systems, *_lattice_atoms(systems, "meet", "coarsening")))


def _meet_system(systems: list[ProjSystem], atoms: list, owners: list) -> ProjSystem:
    """The members of the meet, by union-find over the (system, projector) nodes."""
    offsets = np.cumsum([0] + [len(s) for s in systems]).tolist()
    parent = list(range(offsets[-1]))

    def root(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for owner in owners:
        for s, k in enumerate(owner):
            parent[root(offsets[s] + k)] = root(owner[0])
    members: dict[int, np.ndarray] = {}
    for atom, owner in zip(atoms, owners):
        members[root(owner[0])] = members.get(root(owner[0]), 0) + atom  # 0 + atom turns -0.0 into 0.0, as sum() does
    return ProjSystem(list(members.values()))


def q_project(t: np.ndarray, system: ProjSystem) -> np.ndarray:
    """The pinching sum_q q T q; kills coherences across the blocks of Q."""
    t = as_operator(t)
    if t.shape[0] != system.dim:
        raise DimensionMismatch(
            f"operator dim {t.shape[0]} vs system dim {system.dim}"
        )
    v = system._vectors
    if v is not None:
        # sum_i (v_i^H T v_i) v_i v_i^H; + 0.0 turns -0.0 into 0.0, as the loop's sum does
        c = ((v.conj() @ t) * v).sum(axis=1)
        return v.T @ (c[:, None] * v.conj()) + 0.0
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

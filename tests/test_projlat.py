"""Projection systems, the refinement lattice, pinching, and classification."""

import warnings

import numpy as np
import pytest

from qmdl import (
    DimensionMismatch,
    InconsistentFamily,
    InvalidOperator,
    NonMinimalSystem,
    ProjSystem,
    classify,
    computational_basis,
    consistent,
    finer,
    haar_random_system,
    join,
    meet,
    op_norm,
    q_project,
    system_from_unitary,
    tensor_system,
    weakly_equal,
)
from qmdl import projlat
from qmdl.config import TOL
from qmdl.opcore import as_operator, norm_exceeds
from conftest import random_hermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def coarse_fine_pair(rng, dim, blocks):
    """A random basis partitioned two ways: per-index (fine) and grouped (coarse)."""
    fine = haar_random_system(dim, rng)
    labels = rng.integers(0, blocks, size=dim)
    members = {}
    for k, p in zip(labels, fine.projectors):
        members[k] = members.get(k, np.zeros((dim, dim), dtype=complex)) + p
    return ProjSystem(list(members.values())), fine


# --- system construction -----------------------------------------------------


def test_computational_basis_is_minimal():
    cb = computational_basis(3)
    assert cb.minimal and len(cb) == 3 and cb.dim == 3


def test_block_system_is_not_minimal():
    sys_ = ProjSystem([np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])])
    assert not sys_.minimal


def test_systems_compare_and_hash_by_identity():
    s = computational_basis(2)
    assert s == s
    assert s != computational_basis(2)
    assert hash(s) == hash(s)
    assert len({s, s, computational_basis(2)}) == 2
    joined, met = join([s, s]), meet([s, s])
    assert joined == joined
    assert joined != met


def test_rejects_non_idempotent():
    with pytest.raises(InvalidOperator):
        ProjSystem([0.5 * np.eye(2), 0.5 * np.eye(2)])


def test_rejects_incomplete():
    with pytest.raises(InvalidOperator):
        ProjSystem([np.diag([1.0, 0.0])])


def test_rejects_non_orthogonal():
    p = np.diag([1.0, 0.0])
    with pytest.raises(InvalidOperator):
        ProjSystem([p, np.eye(2) - 0.5 * p])


E = [np.diag(np.eye(4)[k]) for k in range(4)]  # |k><k| on C^4
PLUS = np.full((2, 2), 0.5)                     # |+><+| on span{e0, e1}


@pytest.mark.parametrize(
    "projectors, message",
    [
        # the lowest bad index wins; at one index Hermitian is checked before idempotent
        ([E[0], E[1], np.outer(np.eye(4)[2], np.eye(4)[3]), 0.5 * E[3]], "projector 2 is not Hermitian"),
        ([E[0], E[1], 0.5 * E[2], np.outer(np.eye(4)[2], np.eye(4)[3])], "projector 2 is not idempotent"),
        ([E[0], 2 * E[1], 0.5 * E[1], E[3]], "projector 1 is not idempotent"),
        # P_2 overlaps P_0 and P_1: the smallest j is named
        ([E[0], E[1], np.pad(PLUS, (0, 2)), 0.5 * E[3]], "projectors 0 and 2 are not orthogonal"),
        ([E[0], E[1], E[2]], "projectors do not sum to the identity"),
    ],
)
def test_invalid_system_names_the_first_bad_index(projectors, message):
    with pytest.raises(InvalidOperator, match=f"^{message}$"):
        ProjSystem(projectors)


def test_one_dimensional_system_is_minimal():
    assert ProjSystem([np.eye(1)]).minimal


def test_minimal_flag_of_rotated_rank_two_blocks(rng):
    fine = haar_random_system(6, rng).projectors
    assert not ProjSystem([fine[0] + fine[1], fine[2] + fine[3], fine[4] + fine[5]]).minimal
    assert not ProjSystem([fine[0], fine[1] + fine[2], *fine[3:]]).minimal


def test_projectors_are_read_only():
    sys_ = computational_basis(2)
    with pytest.raises(ValueError):
        sys_.projectors[0][0, 0] = 2.0
    with pytest.raises(ValueError):
        sys_.stack[1] = 0.0


def test_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        ProjSystem([np.eye(2), np.eye(3)])


def test_system_from_unitary_minimal(rng):
    sys_ = haar_random_system(4, rng)
    assert sys_.minimal and len(sys_) == 4
    total = sum(np.asarray(p) for p in sys_)
    assert np.allclose(total, np.eye(4), atol=1e-10)


def test_rejects_the_zero_dimensional_space():
    with pytest.raises(InvalidOperator, match="zero-dimensional space C\\^0"):
        ProjSystem([np.zeros((0, 0))])


def _dense_reference(projectors):
    """The constructor's checks as dense products, one per pair of projectors.

    Returns the raised exception's type and message, or the `minimal` flag.
    """
    try:
        projs = [as_operator(p) for p in projectors]
        if not projs:
            raise InvalidOperator("a projection system needs at least one projector")
        dim = projs[0].shape[0]
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
        w = np.linalg.eigvalsh((stack + stack.conj().transpose(0, 2, 1)) / 2)
        return dim < 2 or bool(np.all(w[:, -2] <= tol))
    except (InvalidOperator, DimensionMismatch) as exc:
        return type(exc), str(exc)


def _outcome(projectors):
    try:
        return ProjSystem(projectors).minimal
    except (InvalidOperator, DimensionMismatch) as exc:
        return type(exc), str(exc)


def _perturbed_system(rng) -> list[np.ndarray]:
    """A complete system on C^1..C^12 with one projector perturbed by 1e-11..1e-7.

    Rank-1 Haar or computational bases, or Haar blocks of rank 2..6, some with a
    zero projector; the perturbation is general, Hermitian, a tilt of one basis
    vector towards another projector's range, or a scaling.
    """
    d = int(rng.integers(1, 13))
    kind = rng.choice(["haar", "computational", "blocks"])
    if kind == "computational":
        u = np.eye(d, dtype=complex)
    else:
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = np.linalg.qr(z)[0]
    groups = [[k] for k in range(d)]
    if kind == "blocks":
        cuts = np.cumsum(rng.integers(2, 7, size=d))
        groups = np.split(np.arange(d), cuts[cuts < d])
    size = 10 ** rng.uniform(-11, -7)
    k = int(rng.integers(len(groups)))
    how = rng.choice(["general", "hermitian", "tilt", "scale"])
    cols = [u[:, g] for g in groups]
    if how == "tilt" and len(groups) > 1:
        other = groups[(k + 1 + int(rng.integers(len(groups) - 1))) % len(groups)]
        cols[k] = cols[k].copy()
        cols[k][:, 0] = np.cos(size) * cols[k][:, 0] + np.sin(size) * u[:, other[0]]
    projectors = [c @ c.conj().T for c in cols]
    noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if how == "general":
        projectors[k] = projectors[k] + size * noise / np.linalg.norm(noise)
    elif how == "hermitian":
        noise = noise + noise.conj().T
        projectors[k] = projectors[k] + size * noise / np.linalg.norm(noise)
    elif how == "scale":
        projectors[k] = (1 + size) * projectors[k]
    if rng.random() < 0.2:
        projectors.insert(int(rng.integers(len(projectors) + 1)), np.zeros((d, d)))
    return projectors


def test_factor_bounds_take_the_dense_decisions():
    """Seeded fuzz at the tolerance: the same exception and message, or the same flag."""
    rng = np.random.default_rng(20261018)
    outcomes = []
    for _ in range(2400):
        projectors = _perturbed_system(rng)
        expected = _dense_reference(projectors)
        assert _outcome(projectors) == expected, [np.round(p, 12) for p in projectors]
        outcomes.append(expected)
    # the fuzz reaches both sides of the tolerance and every kind of verdict
    verdicts = {o if isinstance(o, bool) else o[1].split(" ")[-1] for o in outcomes}
    assert {True, False, "Hermitian", "idempotent", "orthogonal", "identity"} <= verdicts


def _counted(monkeypatch):
    calls = {"norm_exceeds": 0, "eigvalsh": 0, "eigh": 0, "svd": 0}

    def count(name, module, attr):
        inner = getattr(module, attr)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    count("norm_exceeds", projlat, "norm_exceeds")
    for name in ("eigvalsh", "eigh", "svd"):
        count(name, np.linalg, name)
    return calls


@pytest.mark.parametrize(
    "build",
    [lambda: computational_basis(128), lambda: haar_random_system(64, np.random.default_rng(7))],
    ids=["computational-128", "haar-64"],
)
def test_valid_systems_take_no_pairwise_products(monkeypatch, build):
    calls = _counted(monkeypatch)
    assert build().minimal
    assert calls == {"norm_exceeds": 1, "eigvalsh": 0, "eigh": 0, "svd": 0}  # completeness only


@pytest.mark.parametrize("scale", [1 - 1e-6, 1 + 1e-6])
def test_open_bound_falls_back_to_the_dense_product(monkeypatch, scale):
    """P_1 tilted towards the range of P_0 by just under or over the tolerance: the
    bound on ||P_0 P_1|| is open, so the dense product decides."""
    theta = scale * TOL.projector
    tilted = np.array([np.sin(theta), np.cos(theta)], dtype=complex)
    projectors = [np.diag([1.0, 0.0]), np.outer(tilted, tilted.conj())]
    calls = _counted(monkeypatch)
    if scale < 1:
        assert ProjSystem(projectors).minimal
    else:
        with pytest.raises(InvalidOperator, match="^projectors 0 and 1 are not orthogonal$"):
            ProjSystem(projectors)
    # the dense product of the pair, then completeness where the system is valid
    assert calls == {"norm_exceeds": 2 if scale < 1 else 1, "eigvalsh": 0, "eigh": 0, "svd": 0}


_HUGE = np.array([[1, 1e200 * (1 + 1j)], [1e200 * (1 - 1j), 1]])


@pytest.mark.parametrize(
    "projectors",
    [
        [_HUGE, np.eye(2) - _HUGE],
        [_HUGE],
        [np.diag([1e200, 0.0]), np.diag([0.0, 1.0])],
        [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1e160])],
        [np.diag([-1e308, -1e308])],
        [np.diag([1e308, 1e308, -1e308, -1e308])],
        [np.array([[1, 1], [0, 0.0]]), np.diag([0, 1e200])],
    ],
    ids=["hermitian-sum-to-identity", "hermitian-alone", "diagonal", "last-of-three", "trace-overflows",
         "trace-is-nan", "non-hermitian-first"],
)
def test_overflowing_entries_take_the_dense_decisions(projectors):
    """Finite entries whose products overflow make the factor bounds NaN or infinite.
    Such bounds stay open, so the dense test decides: the same error, naming the
    whole stack, and the same warnings."""
    outcomes = []
    for decide in (_dense_reference, _outcome):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcomes.append((decide(projectors), sorted({str(w.message) for w in caught})))
    assert outcomes[0] == outcomes[1]
    shape = np.stack(projectors).shape
    assert outcomes[1][0] == (InvalidOperator, f"expected finite square matrices, got shape {shape}")


# --- lattice ----------------------------------------------------------------


def test_finer_reflexive(rng):
    sys_ = haar_random_system(3, rng)
    assert finer(sys_, sys_)


def test_fine_refines_coarse(rng):
    coarse, fine = coarse_fine_pair(rng, 6, 2)
    assert finer(fine, coarse)
    if len(coarse) < len(fine):
        assert not finer(coarse, fine)


def test_consistent_same_basis_partitions(rng):
    coarse, fine = coarse_fine_pair(rng, 4, 2)
    assert consistent([coarse, fine])


def test_inconsistent_rotated_bases():
    z = computational_basis(2)
    x = system_from_unitary(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    assert not consistent([z, x])
    with pytest.raises(InconsistentFamily):
        join([z, x])
    with pytest.raises(InconsistentFamily):
        meet([z, x])


def test_join_of_coarse_and_fine_is_fine(rng):
    coarse, fine = coarse_fine_pair(rng, 5, 2)
    j = join([coarse, fine]).system
    assert len(j) == len(fine)
    assert finer(j, coarse) and finer(j, fine)


def test_meet_of_coarse_and_fine_is_coarse(rng):
    coarse, fine = coarse_fine_pair(rng, 5, 2)
    m = meet([coarse, fine]).system
    assert len(m) == len(coarse)
    assert finer(coarse, m) and finer(fine, m)


def test_join_meet_bounds(rng):
    """Join refines both inputs; both inputs refine the meet."""
    fine = haar_random_system(6, rng)
    labels_a = [0, 0, 1, 1, 2, 2]
    labels_b = [0, 1, 1, 2, 2, 0]
    dim = 6

    def group(labels):
        members = {}
        for k, p in zip(labels, fine.projectors):
            members[k] = members.get(k, np.zeros((dim, dim), dtype=complex)) + p
        return ProjSystem(list(members.values()))

    a, b = group(labels_a), group(labels_b)
    j = join([a, b]).system
    m = meet([a, b]).system
    assert finer(j, a) and finer(j, b)
    assert finer(a, m) and finer(b, m)


def test_meet_interleaved_blocks_is_trivial():
    # blocks {01}{23} vs {12}{03}: the overlap graph is connected
    a = ProjSystem([np.diag([1.0, 1, 0, 0]), np.diag([0.0, 0, 1, 1])])
    b = ProjSystem([np.diag([0.0, 1, 1, 0]), np.diag([1.0, 0, 0, 1])])
    m = meet([a, b]).system
    assert len(m) == 1
    assert np.allclose(np.asarray(m.projectors[0]), np.eye(4))


def _tilted(theta: float) -> ProjSystem:
    """The computational basis of C^4 with e1, e2 rotated by theta."""
    u = np.eye(4, dtype=complex)
    u[1:3, 1:3] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    return system_from_unitary(u)


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_lattice_decisions_at_the_tolerance(scale):
    """Against the blocks {e0, e1}, {e2, e3}, a tilt by theta gives commutators and
    refinement defects of norm ~theta, placed at scale * the lattice tolerance."""
    tilted = _tilted(scale * TOL.lattice)
    blocks = ProjSystem([np.diag([1.0, 1, 0, 0]), np.diag([0.0, 0, 1, 1])])
    within = scale < 1
    assert finer(tilted, blocks) is within
    assert consistent([tilted, blocks]) is within
    assert not finer(blocks, tilted)
    for operation in (join, meet):
        if within:
            # the family passes the lattice gate, but its atoms are Hermitian
            # only to ~theta, beyond the projector tolerance
            with pytest.raises(InvalidOperator, match="not Hermitian"):
                operation([tilted, blocks])
        else:
            with pytest.raises(InconsistentFamily):
                operation([tilted, blocks])


# --- pinching ---------------------------------------------------------------


def test_q_project_kills_off_diagonals():
    cb = computational_basis(2)
    assert np.allclose(q_project(PAULI_X, cb), np.zeros((2, 2)))


def test_q_project_trace_preserving(rng):
    t = random_hermitian(rng, 4)
    sys_ = haar_random_system(4, rng)
    assert abs(np.trace(q_project(t, sys_)) - np.trace(t)) < 1e-10


def test_q_project_idempotent(rng):
    t = random_hermitian(rng, 4)
    sys_ = haar_random_system(4, rng)
    tq = q_project(t, sys_)
    assert np.allclose(q_project(tq, sys_), tq, atol=1e-10)


def test_q_project_contracts_norms(rng):
    t = random_hermitian(rng, 4)
    sys_ = haar_random_system(4, rng)
    tq = q_project(t, sys_)
    assert op_norm(tq) <= op_norm(t) + 1e-10


def test_q_project_preserves_positivity(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = a @ a.conj().T
    sys_ = haar_random_system(3, rng)
    w = np.linalg.eigvalsh(q_project(rho, sys_))
    assert w[0] >= -1e-10


def test_refinement_collapse(rng):
    """Composing pinches along nested systems lands at the finer pinch."""
    coarse, fine = coarse_fine_pair(rng, 4, 2)
    assert finer(fine, coarse)
    t = random_hermitian(rng, 4)
    t_fine = q_project(t, fine)
    # fine refines coarse: pinching the coarse result by fine gives the fine pinch
    assert np.allclose(q_project(q_project(t, coarse), fine), t_fine, atol=1e-10)
    # and the coarse pinch leaves an already-fine-pinched operator unchanged
    assert np.allclose(q_project(t_fine, coarse), t_fine, atol=1e-10)


def test_pinched_operators_form_an_algebra(rng):
    sys_ = haar_random_system(4, rng)
    t = q_project(random_hermitian(rng, 4), sys_)
    s = q_project(random_hermitian(rng, 4), sys_)
    prod = t @ s
    assert np.allclose(q_project(prod, sys_), prod, atol=1e-10)


def test_minimal_pinch_commutes_with_projectors(rng):
    sys_ = haar_random_system(3, rng)
    tq = q_project(random_hermitian(rng, 3), sys_)
    for q in sys_:
        assert np.allclose(tq @ q, q @ tq, atol=1e-10)


def test_q_project_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        q_project(np.eye(3), computational_basis(2))


# --- classification ---------------------------------------------------------


def test_pauli_z_is_classical():
    cls = classify(PAULI_Z, computational_basis(2))
    assert cls.tag == "classical" and cls.nu <= 1e-12


@pytest.mark.parametrize("pauli", [PAULI_X, PAULI_Y])
def test_pauli_x_y_maximally_nonclassical(pauli):
    cls = classify(pauli, computational_basis(2))
    assert cls.tag == "maximally-nonclassical"
    assert abs(cls.nu - 1.0) <= 1e-12


def test_intermediate_classification():
    t = np.array([[1.0, 0.3], [0.3, -1.0]])
    cls = classify(t, computational_basis(2))
    assert cls.tag == "intermediate" and 0 < cls.nu < 1


def test_classify_requires_minimal_system():
    sys_ = ProjSystem([np.eye(2)])
    with pytest.raises(NonMinimalSystem):
        classify(PAULI_X, sys_)


# --- product systems and weak equality --------------------------------------


def test_tensor_system_projector_count():
    prod = tensor_system(computational_basis(2), computational_basis(3))
    assert len(prod) == 6 and prod.dim == 6 and prod.minimal


def test_tensor_system_pinch_factorizes(rng):
    a, b = haar_random_system(2, rng), haar_random_system(2, rng)
    prod = tensor_system(a, b)
    t = np.kron(random_hermitian(rng, 2), random_hermitian(rng, 2))
    lhs = q_project(t, prod)
    # pinch of a product operator by the product system is the product of pinches
    t1 = random_hermitian(rng, 2)
    t2 = random_hermitian(rng, 2)
    assert np.allclose(
        q_project(np.kron(t1, t2), prod),
        np.kron(q_project(t1, a), q_project(t2, b)),
        atol=1e-10,
    )
    assert lhs.shape == (4, 4)


def test_weakly_equal_identical_operators(rng):
    t = random_hermitian(rng, 3)
    res = weakly_equal(t, t.copy(), trials=8)
    assert res.passed and res.witness is None


def test_weakly_equal_distinguishes_different_diagonals():
    res = weakly_equal(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), trials=8)
    assert not res.passed and res.witness is not None

"""Projection systems, the refinement lattice, pinching, and classification."""

import copy
import dataclasses
import json
import pickle
import tracemalloc
import warnings
from collections import Counter

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
)
from qmdl import projlat
from qmdl.config import TOL
from qmdl.opcore import as_operator, norm_exceeds
from qmdl.serial import matrix_to_json
from conftest import counted_view, random_hermitian, reference_lattice

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


def _arrays(value) -> list[np.ndarray]:
    """Every array in a nest of dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    return [a for v in value for a in _arrays(v)] if isinstance(value, (list, tuple)) else []


@pytest.mark.parametrize("declared", ["haar", "rank-2 matrices"])
def test_a_system_is_stored_once(rng, declared):
    """`projectors` is made from `stack`, so asdict (and every copy it makes) holds one stack."""
    system = haar_random_system(64, rng)
    if declared == "rank-2 matrices":
        system = ProjSystem([system.stack[i] + system.stack[i + 32] for i in range(32)])
    # read first, so the views are cached before asdict runs
    assert system.projectors and "projectors" not in {f.name for f in dataclasses.fields(system)}
    arrays = _arrays(dataclasses.asdict(system))
    vectors = [] if system._vectors is None else [system._vectors.shape]
    assert [a.shape for a in arrays] == [system.stack.shape, *vectors]
    assert (arrays[0] == system.stack).all()
    for p in system.projectors:
        assert not p.flags.writeable and np.shares_memory(p, system.stack)


@pytest.mark.parametrize("declared", ["haar", "rank-2 matrices"])
def test_pickle_and_deepcopy_hold_the_stack_once(rng, declared):
    """The cached `projectors` views stay out of a pickle and a deep copy, read or not."""
    system = haar_random_system(64, rng)
    if declared == "rank-2 matrices":
        system = ProjSystem([system.stack[i] + system.stack[i + 32] for i in range(32)])
    before = pickle.dumps(system)
    assert system.projectors and "projectors" in vars(system)
    assert pickle.dumps(system) == before and len(before) < 1.1 * system.stack.nbytes + 1e5
    for twin in (pickle.loads(before), copy.deepcopy(system)):
        assert "projectors" not in vars(twin) and twin.stack.tobytes() == system.stack.tobytes()
        assert (twin.dim, twin.minimal, len(twin.projectors)) == (system.dim, system.minimal, len(system))
        assert all(np.shares_memory(p, twin.stack) for p in twin.projectors)
        for array in (twin.stack, twin._vectors):
            if array is not None:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0


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
        with np.errstate(over="ignore", invalid="ignore"):
            product = stack @ stack - stack
        # a P whose P^2 overflows has ||P^2 - P|| >= ||P||^2 - ||P|| > tol
        idem = ~np.isfinite(product).all(axis=(1, 2))
        idem[~idem] = norm_exceeds(product[~idem], tol)
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


def _outcome(projectors, build=ProjSystem):
    try:
        return build(projectors).minimal
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
    "projectors, message",
    [
        ([_HUGE, np.eye(2) - _HUGE], "projector 0 is not idempotent"),
        ([_HUGE], "projector 0 is not idempotent"),
        ([np.diag([1e200, 0.0]), np.diag([0.0, 1.0])], "projector 0 is not idempotent"),
        ([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1e160])], "projector 2 is not idempotent"),
        ([np.diag([-1e308, -1e308])], "projector 0 is not idempotent"),
        ([np.diag([1e308, 1e308, -1e308, -1e308])], "projector 0 is not idempotent"),
        ([np.array([[1, 1], [0, 0.0]]), np.diag([0, 1e200])], "projector 0 is not Hermitian"),
    ],
    ids=["hermitian-sum-to-identity", "hermitian-alone", "diagonal", "last-of-three", "trace-overflows",
         "trace-is-nan", "non-hermitian-first"],
)
def test_overflowing_entries_take_the_dense_decisions(projectors, message):
    """Finite entries whose products overflow make the factor bounds NaN or infinite.
    Such bounds stay open, so the dense test decides: a projector whose square
    overflows is not idempotent. Both name the same projector and warn of nothing."""
    outcomes = []
    for decide in (_dense_reference, _outcome):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcomes.append((decide(projectors), [str(w.message) for w in caught]))
    assert outcomes[0] == outcomes[1] == ((InvalidOperator, message), [])


def _haar_unitary(d: int, seed: int) -> np.ndarray:
    z = np.random.default_rng(seed).standard_normal((d, 2 * d)).view(complex)
    return np.linalg.qr(z)[0]


def _unitary_variants(d: int):
    """A Haar unitary on C^d, copies with column k tilted by eps towards column j,
    scaled to norm 1 +- eps, repeated as column j or zeroed, and 1e200 I."""
    u = _haar_unitary(d, d)
    k, j = d // 2, (d // 2 + 1) % d
    yield u
    for eps in (1e-10, 1e-9, 5e-9, 1e-8, 1e-7):
        tilted, longer, shorter = u.copy(), u.copy(), u.copy()
        tilted[:, k] = np.cos(eps) * u[:, k] + np.sin(eps) * u[:, j]
        longer[:, k] *= 1 + eps
        shorter[:, k] *= 1 - eps
        yield from ([longer, shorter] if d == 1 else [tilted, longer, shorter])
    repeated, zero = u.copy(), u.copy()
    repeated[:, j] = u[:, k]
    zero[:, k] = 0
    yield from ([zero] if d == 1 else [repeated, zero])
    yield 1e200 * np.eye(d)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
def test_unitary_systems_take_the_dense_decisions(d):
    """system_from_unitary decides as the dense products of its columns' outer products do."""
    outcomes = []
    for u in _unitary_variants(d):
        cols = u.T
        with np.errstate(over="ignore"):  # 1e200 I: the outer products overflow, as before
            expected = _dense_reference(list(cols[:, :, None] * cols.conj()[:, None, :]))
            assert _outcome(u, system_from_unitary) == expected, u
        outcomes.append(expected)
    # valid systems, systems that fail each test, and the fallback's messages
    verdicts = {o if isinstance(o, bool) else o[1].split(" ")[-1] for o in outcomes}
    assert {True, "idempotent", "identity", "finite"} <= verdicts
    assert ("orthogonal" in verdicts) == (d > 1)


def test_entrywise_products_are_hermitian_within_the_rounding_bound():
    """|P_jk - conj(P_kj)| <= 8 eps |v_j| |v_k| for P = v v^H, with or without FMA."""
    rng = np.random.default_rng(20261019)
    for d in (1, 2, 3, 8, 64):
        v = rng.standard_normal((d, 2 * d)).view(complex) * 10.0 ** rng.integers(-3, 4, (d, d))
        p = v[:, :, None] * v.conj()[:, None, :]
        size = np.abs(v)
        bound = 8 * np.finfo(float).eps * size[:, :, None] * size[:, None, :]
        assert (np.abs(p - p.conj().transpose(0, 2, 1)) <= bound).all()


def test_unitary_systems_keep_their_vectors(monkeypatch):
    """Built with no pivoted Cholesky, no stacking and no per-projector as_operator;
    pinched in two matrix products, where the same matrices take 2m."""
    calls = Counter()
    for module, attr in ((projlat, "_factor_norms"), (projlat, "as_operator"), (np, "stack")):
        inner = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *a, _f=inner, _n=attr, **k: calls.update([_n]) or _f(*a, **k))
    u = _haar_unitary(64, 7)
    system = system_from_unitary(u)
    assert calls == {"as_operator": 1}  # u itself
    monkeypatch.undo()
    u[:] = 0  # the system keeps a copy
    dense = ProjSystem(list(system.stack))
    assert system.minimal and dense.minimal and (system.stack == dense.stack).all()

    object.__setattr__(system, "_vectors", counted_view(system._vectors, calls))
    object.__setattr__(dense, "projectors", tuple(counted_view(p, calls) for p in dense.projectors))
    t = random_hermitian(np.random.default_rng(1), 64)
    calls.clear()
    got = q_project(t, system)
    assert calls["matmul"] == 2
    calls.clear()
    want = q_project(t, dense)
    assert calls["matmul"] == 2 * 64
    assert np.abs(got - want).max() <= 1e-12


def _loop_pinch(t: np.ndarray, system: ProjSystem) -> np.ndarray:
    """sum_q q T q, one projector at a time."""
    out = np.zeros_like(t)
    for q in system.stack:
        out += q @ t @ q
    return out


def test_pinch_json_on_the_computational_basis_equals_the_loop():
    """Byte-identical JSON, with signed zeros, zeros and negative entries in the input."""
    rng = np.random.default_rng(20261019)
    negative_zeros = 0
    for d in range(1, 9):
        system = computational_basis(d)
        for _ in range(40):
            parts = rng.standard_normal((d, 2 * d)) * 10.0 ** rng.integers(-5, 6, (d, 2 * d))
            zero = rng.random(parts.shape) < 0.3
            parts[zero] = np.copysign(0.0, rng.standard_normal(zero.sum()))
            t = parts.view(complex)
            negative_zeros += int(np.signbit(parts[zero]).any())
            got, want = q_project(t, system), _loop_pinch(t, system)
            assert json.dumps(matrix_to_json(got)) == json.dumps(matrix_to_json(want))
    assert negative_zeros


def test_pinch_on_haar_systems_matches_the_loop():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 8, 64):
        system = haar_random_system(d, rng)
        t = rng.standard_normal((d, 2 * d)).view(complex)
        t /= np.linalg.norm(t, 2)
        assert np.abs(q_project(t, system) - _loop_pinch(t, system)).max() <= 1e-12


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


def _block_families(rng, count):
    """Random block coarse-grainings of Haar bases: 2-3 systems on d <= 16, every fifth
    family a system paired with itself, every third one with a system on another basis."""
    for t in range(count):
        d = int(rng.integers(2, 17))
        bases = [haar_random_system(d, rng) for _ in range(2)]
        family = []
        for i in range(int(rng.integers(2, 4))):
            fine = bases[t % 3 == 2 and i == 1]
            labels = rng.integers(0, int(rng.integers(1, d + 1)), size=d)
            family.append(ProjSystem([fine.stack[labels == g].sum(axis=0) for g in np.unique(labels)]))
        yield [family[0], family[0]] if t % 5 == 0 else family


def test_lattice_matches_the_reference_algorithm(rng):
    """Against the pairwise PQ - QP test, the deduplicated product chain and the
    containment walk: the same decision, bit-identical join atoms, meet members
    within 1e-15 (they are summed in another order) and in the same order."""
    decided = Counter()
    for family in _block_families(rng, 60):
        ok, atoms, members = reference_lattice(family)
        decided[ok] += 1
        assert consistent(family) is ok
        if not ok:
            for operation in (join, meet):
                with pytest.raises(InconsistentFamily):
                    operation(family)
            continue
        joined = join(family).system.stack
        expected = ProjSystem(atoms).stack
        assert joined.shape == expected.shape
        assert np.array_equal(joined.view(np.uint64), expected.view(np.uint64))
        met = meet(family).system.stack
        assert len(met) == len(members)
        assert np.abs(met - np.stack(members)).max() <= 1e-15
    assert decided[True] and decided[False]


def test_join_atoms_with_different_owners_are_orthogonal(rng):
    """In a commuting family no product repeats another, so join needs no deduplication."""
    for family in _block_families(rng, 30):
        found = projlat._atoms(family)
        if found is None:
            continue
        atoms, owners = np.stack(found[0]), found[1]
        assert len(set(owners)) == len(owners) == len(atoms)
        assert [list(o) for o in owners] == sorted(list(o) for o in owners)
        overlaps = atoms[:, None] @ atoms[None]
        off = ~np.eye(len(atoms), dtype=bool)
        assert not norm_exceeds(overlaps[off], TOL.lattice).any()
        assert norm_exceeds((atoms[:, None] - atoms[None])[off], TOL.lattice).all()


def test_consistent_checks_every_pair_of_systems():
    """Systems 0 and 1 commute, as do 1 and 2; only 0 and 2 do not."""
    blocks = ProjSystem([np.diag([1.0, 1, 0, 0]), np.diag([0.0, 0, 1, 1])])
    u = np.eye(4, dtype=complex)
    u[:2, :2] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    family = [computational_basis(4), blocks, system_from_unitary(u)]
    assert consistent(family[:2]) and consistent(family[1:])
    assert not consistent(family)
    for operation in (join, meet):
        with pytest.raises(InconsistentFamily):
            operation(family)


def test_join_holds_one_row_of_products_at_a_time(rng):
    """The [m, m, d, d] table of all products of two rank-1 systems at d = 48 takes
    85 MB; join forms one [m, d, d] row at a time besides the kept atoms."""
    s = haar_random_system(48, rng)
    tracemalloc.start()
    try:
        joined = join([s, s]).system
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(joined) == 48
    assert peak < 16e6


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

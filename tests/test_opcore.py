"""Dense operator kernel: validators, tensor algebra, functional calculus."""

import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmdl import (
    TOL,
    InvalidOperator,
    SizeCapExceeded,
    ZeroTrace,
    as_operator,
    check_density,
    check_semi_density,
    eigh,
    example_state,
    herm_sqrt,
    norm_exceeds,
    normalize,
    op_norm,
    partial_trace,
    pinv_sqrt,
    tensor_power,
    trace_inner_norm,
)
from qmdl import opcore
from qmdl.config import admit
from qmdl.opcore import _eigvalsh, _spectra, sym_powers
from conftest import random_density, random_hermitian


def test_as_operator_rejects_non_square():
    with pytest.raises(InvalidOperator):
        as_operator(np.zeros((2, 3)))


def test_as_operator_rejects_nan():
    with pytest.raises(InvalidOperator):
        as_operator(np.array([[np.nan, 0], [0, 1]]))


def test_check_density_accepts_qubit_state():
    check_density(np.array([[0.3, 0.1], [0.1, 0.7]]))


def test_check_density_rejects_semi_density():
    with pytest.raises(InvalidOperator):
        check_density(0.5 * np.eye(2) / 2)
    check_semi_density(0.5 * np.eye(2) / 2)


def test_check_semi_density_rejects_negative_eigenvalue():
    with pytest.raises(InvalidOperator):
        check_semi_density(np.diag([1.0, -0.5]))
    # a skew-Hermitian matrix fails the Hermitian gate first
    for check in (check_semi_density, check_density):
        with pytest.raises(InvalidOperator, match="not Hermitian"):
            check(np.array([[0, 1], [-1, 0]], dtype=complex))


def test_check_semi_density_takes_a_stack_and_names_its_first_failing_matrix():
    """Each matrix is tested Hermitian, then PSD, then trace; a stack's error names
    the first failing one, with the message the matrix alone raises."""
    skew, negative, heavy = np.array([[0.5, 0.3], [0.0, 0.5]]), np.diag([1.0, -0.5]), np.eye(2)
    good = np.eye(2) / 2
    for bad in (skew, negative, heavy):
        with pytest.raises(InvalidOperator) as alone:
            check_semi_density(bad)
        with pytest.raises(InvalidOperator, match=f"^component 1: {re.escape(str(alone.value))}$"):
            check_semi_density(np.stack([good, bad, skew]))
    assert str(alone.value) == "trace (2+0j) exceeds semi-density bound"
    stack = np.stack([good, np.diag([1.0, 0.0])])
    assert np.array_equal(check_semi_density(stack), stack)
    with pytest.raises(InvalidOperator, match="^operator entries must be finite$"):
        check_semi_density(np.stack([good, np.diag([np.inf, 0.0])]))
    with pytest.raises(InvalidOperator, match="expected a square"):
        check_semi_density(np.zeros((2, 2, 3)))


def test_psd_test_asks_lapack_only_where_the_gershgorin_bound_is_open(monkeypatch):
    calls = []
    inner = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or inner(a))
    check_semi_density(np.stack([np.diag([0.3, 0.7]), np.diag([1.0, 0.0])]))
    assert calls == []
    check_semi_density(np.stack([np.diag([0.3, 0.7]), example_state(0.3, 0.5)]))
    assert calls == [1]
    # an eigenvalue just inside the tolerance leaves the bound open, and LAPACK accepts it
    check_semi_density(np.diag([1.0, -TOL.psd]))
    assert calls == [1, 1]


def test_tensor_power_zero_is_scalar_one():
    out = tensor_power(np.eye(3), 0)
    assert out.shape == (1, 1) and out[0, 0] == 1


def test_tensor_power_trace_multiplicativity(rng):
    rho = random_density(rng, 2)
    t3 = tensor_power(rho, 3)
    assert abs(np.trace(t3) - np.trace(rho) ** 3) < 1e-12


@given(st.integers(0, 5))
def test_tensor_power_dimensions(n):
    assert tensor_power(np.eye(2), n).shape == (max(2**n, 1), max(2**n, 1))


def test_admit_names_a_power_past_the_cap_bit_length(monkeypatch):
    """The square case of config.admit is the dense-dimension cap: d^n is named as a power past
    the cap's bit length and never formed past the budget's."""
    monkeypatch.setenv("QMDL_DENSE_CAP", "64")  # bit length 7

    def check_cap(dim, n=1):
        admit("level", (dim, n), (dim, n), itemsize=16)

    check_cap(64)
    check_cap(2, 6)
    check_cap(1, 10**100)
    check_cap(0, 10**100)
    with pytest.raises(SizeCapExceeded, match=r"^dense dimension 65 exceeds cap 64;"):
        check_cap(65)
    with pytest.raises(SizeCapExceeded, match=r"^dense dimension 128 exceeds cap 64;"):
        check_cap(2, 7)
    with pytest.raises(SizeCapExceeded, match=r"^dense dimension 2\^8 exceeds cap 64;"):
        check_cap(2, 8)
    with pytest.raises(SizeCapExceeded, match=r"^dense dimension 3\^100000 exceeds cap 64;"):
        check_cap(3, 10**5)
    with pytest.raises(SizeCapExceeded, match=r"^dense dimension 2\^20000 exceeds"):
        tensor_power(np.eye(2), 20000)
    monkeypatch.delenv("QMDL_DENSE_CAP")  # d^n = cap is admitted at the default 8192 too
    check_cap(2, 13)
    check_cap(8192)
    with pytest.raises(SizeCapExceeded, match=r"^dense dimension 16384 exceeds cap 8192;"):
        check_cap(2, 14)


def test_sym_powers_are_tensor_powers_on_the_dicke_basis(rng):
    mats = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    for m, sym in enumerate(sym_powers(mats, 6)):
        assert sym.shape == (3, m + 1, m + 1)
        # column j of dicke: the normalized sum of the basis words with j ones
        ones = np.array([bin(i).count("1") for i in range(2**m)])
        dicke = (ones[:, None] == np.arange(m + 1)).astype(float)
        dicke /= np.sqrt(dicke.sum(axis=0))
        for a, block in zip(mats, sym):
            ref = dicke.T @ tensor_power(a, m) @ dicke
            assert np.abs(block - ref).max() <= 1e-13 * np.abs(ref).max()


def test_sym_powers_need_a_qubit_stack():
    with pytest.raises(InvalidOperator):
        next(sym_powers(np.eye(2), 1))


def test_partial_trace_of_product_state(rng):
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    ab = np.kron(a, b)
    assert np.allclose(partial_trace(ab, [2, 3], 1), a, atol=1e-12)
    assert np.allclose(partial_trace(ab, [2, 3], 0), b, atol=1e-12)


def test_partial_trace_preserves_trace(rng):
    t = random_hermitian(rng, 8)
    reduced = partial_trace(t, [2, 2, 2], 1)
    assert abs(np.trace(reduced) - np.trace(t)) < 1e-10


def test_eigh_reconstructs(rng):
    t = random_hermitian(rng, 5)
    w, v = eigh(t)
    assert np.allclose((v * w) @ v.conj().T, t, atol=1e-10)
    assert np.all(np.diff(w) >= 0)


def _exact_hermitian_inputs(rng):
    """Exactly Hermitian matrices, signed zeros included: T - T^dagger is 0 in every entry."""
    for d in (1, 2, 5, 16, 64):
        a = rng.standard_normal((d, 2 * d)).view(complex)
        h = (a + a.conj().T) / 2
        sparse = np.where(rng.random((d, d)) < 0.5, 0.0, h.real)
        sparse = sparse + sparse.T
        yield h
        yield h.real.astype(complex)
        yield h.real.astype(complex).conj()  # imaginary parts -0.0
        yield -sparse.astype(complex)  # zeros -0.0 - 0.0j
        yield np.diag(rng.standard_normal(d)).astype(complex)
        yield random_density(rng, d)


@pytest.mark.parametrize("off", [0.0, 1e-12])
def test_eigh_equals_the_symmetrised_call_bit_for_bit(off):
    """eigh(T) and the eigenvalue path _eigvalsh(T, check=True) are LAPACK on (T + T^dagger) / 2,
    on exactly Hermitian inputs and 1e-12 off them."""
    rng = np.random.default_rng(20261019)
    for t in _exact_hermitian_inputs(rng):
        if off:  # t + 0.0 * noise would turn the inputs' -0.0 into 0.0
            t = t + off * rng.standard_normal((len(t), 2 * len(t))).view(complex)
        sym = (t + t.conj().T) / 2
        assert _eigvalsh(t, check=True).tobytes() == np.linalg.eigvalsh(sym).tobytes()
        got, want = eigh(t), np.linalg.eigh(sym)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def test_eigh_hands_an_exactly_hermitian_operator_to_lapack_as_it_is(monkeypatch, rng):
    seen = []
    inner = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a) or inner(a))
    t = random_density(rng, 8)
    _eigvalsh(t, check=True)
    _eigvalsh(t + 1e-12j * np.eye(8), check=True)
    assert seen[0] is t and seen[1] is not t


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask on this platform")
def test_spectra_spread_over_the_mask_only_with_one_blas_thread(monkeypatch):
    """The first of BLAS's thread variables that is set decides; unset, BLAS takes every CPU."""
    for name in opcore._BLAS_THREADS:
        monkeypatch.delenv(name, raising=False)
    assert opcore._cpus() == 1
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert opcore._cpus() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert opcore._cpus() == 1


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask on this platform")
def test_spectra_second_thread_leaves_the_callers_cpu(monkeypatch, rng):
    """The second solve runs on the mask less the caller's CPU, which a cpuset without load
    balancing needs; the caller's mask stays, and a one-CPU mask is left as it is."""
    mask, seen = os.sched_getaffinity(0), {}
    inner = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: seen.setdefault(threading.get_ident(), os.sched_getaffinity(0)) and inner(a))
    monkeypatch.setattr(opcore, "_cpus", lambda: 2)
    t = random_density(rng, 64)
    _spectra([t, t], [False, False])
    assert seen.pop(threading.get_ident()) == os.sched_getaffinity(0) == mask
    [aside] = seen.values()
    assert aside <= mask and len(aside) == max(len(mask) - 1, 1)


def test_herm_sqrt_squares_back(rng):
    rho = random_density(rng, 4)
    s = herm_sqrt(rho)
    assert np.allclose(s @ s, rho, atol=1e-10)


def test_herm_sqrt_handles_numerically_negative_zero():
    # an eigenvalue at -1e-12 is inside the PSD tolerance and maps to 0
    s = herm_sqrt(np.diag([1.0, -1e-12]))
    assert np.allclose(s, np.diag([1.0, 0.0]))


# Reference bodies of the support-convention functions as they stood before
# they shared one kernel; the shared kernel must reproduce them bit for bit.


def _ref_clip_support(w):
    out = w.copy()
    out[(out >= -TOL.psd) & (out <= TOL.support)] = 0.0
    return out


def _ref_herm_sqrt(t):
    w, v = eigh(t)
    fw = np.sqrt(np.clip(_ref_clip_support(w), 0.0, None))
    return (v * fw) @ v.conj().T


def _ref_pinv_sqrt(t):
    w, v = eigh(t)
    fw = np.zeros_like(w)
    keep = w > TOL.rank
    fw[keep] = w[keep] ** -0.5
    return (v * fw) @ v.conj().T


# eigenvalues on, inside and outside the support and PSD tolerances (both 1e-10)
_EDGE_EIGENVALUES = [0.0, 5e-11, -5e-11, 1e-10, -1e-10, 2e-10, -2e-10, -0.25]


def _spectral_inputs(d: int):
    """Full-rank, rank-deficient and diagonal operators, plus edge spectra, on C^d."""
    rng = np.random.default_rng([20260825, d])
    full = random_density(rng, d)
    g = rng.standard_normal((d, max(1, d // 2))) + 1j * rng.standard_normal((d, max(1, d // 2)))
    deficient = g @ g.conj().T / np.trace(g @ g.conj().T).real
    diagonal = np.diag(rng.uniform(0.0, 1.0, d))
    edge = np.resize(_EDGE_EIGENVALUES, d) + np.where(np.arange(d) < len(_EDGE_EIGENVALUES), 0.0, 0.5)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rotated = (u * edge) @ u.conj().T
    rotated = (rotated + rotated.conj().T) / 2
    inputs = [full, deficient, diagonal, np.diag(edge), rotated]
    # each edge eigenvalue alone, so every one meets the cutoffs at d = 1 too
    inputs += [np.diag(np.full(d, e)) for e in _EDGE_EIGENVALUES]
    return inputs


@pytest.mark.parametrize("d", [1, 2, 3, 8, 32, 64])
def test_support_kernel_is_bit_identical_to_reference(d):
    mismatches = []
    for i, t in enumerate(_spectral_inputs(d)):
        pairs = [
            ("herm_sqrt", herm_sqrt(t), _ref_herm_sqrt(t)),
            ("pinv_sqrt", pinv_sqrt(t), _ref_pinv_sqrt(t)),
        ]
        mismatches += [(i, name) for name, got, ref in pairs if not np.array_equal(got, ref)]
    assert mismatches == []


def test_op_norm_of_projector():
    assert op_norm(np.diag([1.0, 0.0])) == pytest.approx(1.0)


def _near_tolerance(seed: int, k: int, d: int, tol: float) -> np.ndarray:
    """k random [d, d] matrices with ||t||_2 in [tol / 2, 2 tol sqrt(d)]: dense, rank-1 or diagonal,
    so the SVD branch and both bounds' equality cases all occur."""
    rng = np.random.default_rng(seed)
    out = np.zeros((k, d, d), dtype=complex)
    for i in range(k if d else 0):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if i % 3 == 1:
            g = np.outer(g[:, 0], g[0].conj())
        elif i % 3 == 2:
            g = np.diag(np.diag(g))
        out[i] = g / op_norm(g) * tol * rng.uniform(0.5, 2 * np.sqrt(d))
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 5),
    st.integers(0, 7),
    st.floats(1e-12, 1e3),
)
def test_norm_exceeds_is_the_svd_decision(seed, k, d, tol):
    stack = _near_tolerance(seed, k, d, tol)
    expected = np.array([op_norm(t) > tol for t in stack], dtype=bool)
    assert np.array_equal(norm_exceeds(stack, tol), expected)
    for t, want in zip(stack, expected):
        assert norm_exceeds(t, tol) is bool(want)


def test_norm_exceeds_runs_an_svd_only_between_the_bounds(monkeypatch):
    import qmdl.opcore as opcore

    calls = []
    monkeypatch.setattr(opcore, "op_norm", lambda t: calls.append(t) or np.linalg.norm(t, 2))
    tol = 1e-8
    far = np.stack([np.eye(3) * 1e-12, np.eye(3), np.eye(3) * 2 * tol])
    assert norm_exceeds(far, tol).tolist() == [False, True, True] and not calls
    # max |t_ij| = tol / 2 < tol < ||t||_F = 3 tol / 2: only the SVD decides
    assert norm_exceeds(np.ones((3, 3)) * tol / 2, tol) and len(calls) == 1


@pytest.mark.parametrize("sign", [1, -1, 1j, -1j])
def test_norm_exceeds_decides_on_the_largest_entry_of_either_sign(monkeypatch, sign):
    import qmdl.opcore as opcore

    calls = []
    monkeypatch.setattr(opcore, "op_norm", lambda t: calls.append(t) or np.linalg.norm(t, 2))
    tol = 1e-8
    stack = np.random.default_rng(5).uniform(-1, 1, (3, 4, 4, 2)) @ [1, 1j] * tol / 1000
    stack[0, 1, 2] = 2 * tol * sign  # its largest entry alone decides: above
    stack[2][np.eye(4, dtype=bool)] = tol / 2 * sign  # between the bounds: the SVD decides
    expected = [op_norm(t) > tol for t in stack]
    assert expected == [True, False, False] and not calls
    # the entry of largest modulus has the given sign: -1 and -1j sit at each row's min
    assert norm_exceeds(stack, tol).tolist() == expected and len(calls) == 1


def _one_bad_in_a_stack():
    stack = np.zeros((4, 3, 3), dtype=complex)
    stack[2, 1, 0] = complex(0.0, np.nan)
    return stack


@pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.array([[np.inf, 0], [0, 1]]), np.zeros((2, 2, 3)),
                                 np.array([[np.nan, 0], [0, 1]]), np.array([[0, -np.inf], [0, 1]]),
                                 np.array([[0, 0], [complex(1, np.inf), 1]]), _one_bad_in_a_stack()])
def test_norm_exceeds_rejects_what_op_norm_rejects(bad):
    """A bad shape or a non-finite entry, real or imaginary, anywhere in a matrix or a stack."""
    with pytest.raises(InvalidOperator, match=r"^expected finite square matrices, got shape \("):
        norm_exceeds(bad, 1e-8)
    if bad.ndim == 2 and bad.shape[0] == bad.shape[1]:
        with pytest.raises(InvalidOperator):
            op_norm(bad)


def test_trace_inner_norm_is_frobenius(rng):
    t = random_hermitian(rng, 4)
    assert trace_inner_norm(t) == pytest.approx(np.linalg.norm(t, "fro"))


def test_normalize_unit_trace(rng):
    t = 0.3 * random_density(rng, 3)
    assert abs(np.trace(normalize(t)) - 1) < 1e-12


def test_normalize_zero_trace_raises():
    with pytest.raises(ZeroTrace):
        normalize(np.zeros((2, 2)))


def test_pinv_sqrt_inverts_on_support():
    t = np.diag([4.0, 0.0])
    out = pinv_sqrt(t)
    assert np.allclose(out, np.diag([0.5, 0.0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pinv_sqrt_whitens_full_rank_states(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 3) + 0.1 * np.eye(3)
    rho /= np.trace(rho).real
    s = pinv_sqrt(rho)
    assert np.allclose(s @ rho @ s, np.eye(3), atol=1e-8)

"""The built-in one-parameter qubit family used throughout the experiments."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["example_state"]


def example_state(theta: float, c: float = 0.0) -> np.ndarray:
    """Qubit density matrix [[theta, s], [s, 1-theta]] with s = sqrt(c(theta-theta^2)).

    c in [0, 1] controls the off-diagonal coherence; c = 0 gives the classical
    (diagonal) Bernoulli family. Exact projectors at theta in {0, 1}.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"c must lie in [0, 1], got {c}")
    s = math.sqrt(c * (theta - theta * theta)) if 0.0 < theta < 1.0 else 0.0
    return np.array([[theta, s], [s, 1.0 - theta]], dtype=complex)


def example_states(thetas, c: float = 0.0) -> np.ndarray:
    """example_state at every theta, as one [N, 2, 2] stack with the same entries bit for bit.

    Raises what example_state raises for the first failing node: node 0
    (theta or c), else the first bad theta.
    """
    thetas = np.asarray(thetas, dtype=float)
    for t in thetas[:1].tolist() + thetas[~((thetas >= 0.0) & (thetas <= 1.0))][:1].tolist():
        example_state(t, c)
    s = np.where((thetas > 0.0) & (thetas < 1.0), np.sqrt(c * (thetas - thetas * thetas)), 0.0)
    return np.stack([thetas, s, s, 1.0 - thetas], axis=-1).reshape(-1, 2, 2).astype(complex)

"""Numeric tolerances and global size limits.

All comparison thresholds used by the library live in one record so that
property suites have a single tuning point.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    herm: float = 1e-10      # max |T - T^dagger| entrywise
    psd: float = 1e-10       # min eigenvalue >= -psd
    trace: float = 1e-9      # trace comparisons
    support: float = 1e-10   # eigenvalues <= support are treated as exact zeros
    rank: float = 1e-10      # pseudo-inverse rank cutoff
    norm: float = 1e-12      # smallest trace accepted by normalize
    projector: float = 1e-9  # p^2 = p, orthogonality, completeness
    lattice: float = 1e-8    # operator-norm gate for lattice predicates


TOL = Tolerances()

DEFAULT_DENSE_CAP = 8192


def dense_cap() -> int:
    """Largest dimension any densely materialized operator may have.

    Overridable through the QMDL_DENSE_CAP environment variable.
    """
    raw = os.environ.get("QMDL_DENSE_CAP")
    if raw is None:
        return DEFAULT_DENSE_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"QMDL_DENSE_CAP must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError("QMDL_DENSE_CAP must be positive")
    return value

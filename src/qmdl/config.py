"""Numeric tolerances and the one size rule.

All comparison thresholds used by the library live in one record so that
property suites have a single tuning point. Every array whose size a word
length sets is admitted here (`admit`) before it is formed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from decimal import Context

from .errors import ConfigError, SizeCapExceeded


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


def dense_cap() -> int:
    """Largest dimension any densely materialized operator may have: QMDL_DENSE_CAP, default
    8192. A value that is not a positive integer raises ConfigError."""
    raw = os.environ.get("QMDL_DENSE_CAP", "8192")
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError("QMDL_DENSE_CAP", f"must be an integer, got {raw!r}") from None
    if value < 1:
        raise ConfigError("QMDL_DENSE_CAP", f"must be positive, got {value}")
    return value


def _shown(n: int) -> str:
    """n as it is, from 10^6 in e notation to six digits (1e+308)."""
    return str(n) if n < 10**6 else f"{Context(prec=6).create_decimal(n).normalize():e}"


def admit(what: str, *shape, itemsize: int, top: tuple[int, str] | None = None) -> None:
    """Refuse (SizeCapExceeded naming QMDL_DENSE_CAP) an array `what` of `shape` and itemsize-byte
    entries past 16 cap^2 bytes, a cap x cap complex matrix; a [D, D] complex matrix is refused as a
    dense dimension D past the cap. A shape entry is an int or a pair (d, n) for d^n, shown so past
    the cap's bit length; past the budget's, 2^n alone exceeds it, so `low` decides unformed.
    top = (n, name): a word length n in an int64 entry, refused past 2^63 - 1 as the largest name."""
    cap = dense_cap()
    budget = 16 * cap * cap
    low = [s if isinstance(s, int) else s[0] ** min(s[1], budget.bit_length() + 1) for s in shape]
    if itemsize * math.prod(low) > budget:
        named = [_shown(s) if isinstance(s, int) else f"{s[0]}^{_shown(s[1])}" if s[0] > 1 and s[1] > cap.bit_length()
                 else str(s[0] ** s[1]) for s in shape]
        if itemsize == 16 and len(shape) == 2 and shape[0] == shape[1]:
            message = f"dense dimension {named[0]} exceeds cap {cap}; use factorized operations"
        else:
            message = (f"{what} of shape [{', '.join(named)}] in {itemsize}-byte entries would hold more than "
                       f"16 cap^2 = {budget} bytes at cap {cap}")
        raise SizeCapExceeded(message, "QMDL_DENSE_CAP")
    if top is not None and top[0] > 2**63 - 1:
        raise SizeCapExceeded(f"word length {_shown(top[0])} exceeds 2^63 - 1, the largest {top[1]}")

import itertools

import numpy as np
import pytest

from qmdl import computational_basis
from qmdl.config import TOL
from qmdl.opcore import norm_exceeds
from qmdl.serial import integer


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def counted_view(a, calls):
    """A view of a whose ufunc calls, and those of its results, are tallied by name in calls."""

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            calls[ufunc.__name__] += 1
            if "out" in kwargs:
                kwargs["out"] = tuple(np.asarray(x) for x in kwargs["out"])
            result = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
            return result.view(Counted) if isinstance(result, np.ndarray) else result

    return a.view(Counted)


def brute_force_lambda_sum(model, n, select_model=None):
    """Sum over every length-n word on the qubit computational basis of the stored trace^n of
    the two-part winner, chosen word by word on select_model (default model) by scalar products."""
    scorer = select_model or model
    weights = np.array(
        [[np.trace(q @ rho).real for q in computational_basis(2)] for rho in scorer.states]
    )
    total = 0.0
    for word in itertools.product(range(2), repeat=n):
        scores = []
        for w, probs in zip(scorer.weights, weights):
            p = w**n
            for i in word:
                p *= probs[i]
            scores.append(p)
        best = max(scores)
        if best == 0.0:
            continue
        winners = [i for i, s in enumerate(scores) if s == best]
        traces = model.stored_traces[winners]
        idx = winners[int(np.argmax(traces))]
        total += model.stored_traces[idx] ** n
    return total


def reference_lattice(systems):
    """The lattice operations by their first algorithm: (consistent, join atoms, meet members).

    PQ - QP for every pair of projectors of every two systems; the chained
    products I P Q ..., deduplicated pairwise; and the meet's components by a
    depth-first walk over the atoms that a common input projector contains,
    each summed in the order the walk reaches it. The atoms and members are
    None for a family that does not commute.
    """
    tol = TOL.lattice
    for i, a in enumerate(systems):
        for b in systems[i + 1 :]:
            for p in a.stack:
                if norm_exceeds(p @ b.stack - b.stack @ p, tol).any():
                    return False, None, None
    products = np.eye(systems[0].dim, dtype=complex)[None]
    for s in systems:
        rows = [acc @ s.stack for acc in products]
        products = np.concatenate([row[norm_exceeds(row, tol)] for row in rows])
    kept = 0
    for prod in products:
        if norm_exceeds(prod - products[:kept], tol).all():
            products[kept] = prod
            kept += 1
    atoms = products[:kept]
    n = len(atoms)
    adj = np.zeros((n, n), dtype=bool)
    for s in systems:
        for q in s.stack:
            under = np.flatnonzero(~norm_exceeds(q @ atoms - atoms, tol))
            adj[np.ix_(under, under)] = True
    seen = np.zeros(n, dtype=bool)
    members = []
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
    return True, atoms, members


def per_letter_word(data):
    """A list or comma-string word parsed letter by letter: integer(0) on each element, blank
    parts of a string skipped. The CLI's word parse reads every word as this does."""
    if isinstance(data, str):
        data = [s for s in data.split(",") if s.strip()]
    return tuple(map(integer(0), data))

import numpy as np
import pytest


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

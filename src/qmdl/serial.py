"""JSON interchange: config fields, matrix literals, projection systems, sources.

Every config field is read through `read`, which names the field when it is bad.
A matrix literal is an array-of-arrays of [re, im] pairs. A projection system
is a list of matrix literals. A source declaration is either
{"kind": ..., "components": [{"weight": w, "matrix": M}, ...]},
{"kind": "beta-example", "c": c} or
{"quadrature": {"model": "example", "c": c, "prior": "uniform", "nodes": N}}.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, QmdlError, SizeCapExceeded
from .projlat import ProjSystem
from .qsource import BetaExampleSource, MixtureSource, example_uniform_source

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "system_to_json",
    "system_from_json",
    "source_from_json",
]

REQUIRED = object()


def read(data, key: str, parse, path: str | None = None, default=REQUIRED):
    """parse(data[key]), or `default` (unparsed) when the key is absent or null.

    A failure is a ConfigError naming `path.key`: a required key that is missing, or a TypeError,
    ValueError, OverflowError or library error from `parse`. A ConfigError from a nested read names
    its own field already, and a size refusal (SizeCapExceeded) the setting that moves its limit.
    """
    field = f"{path}.{key}" if path else key
    if not isinstance(data, dict):
        raise ConfigError(path or "config", f"expected an object, got {type(data).__name__}")
    value = data.get(key)
    if value is None:
        if default is REQUIRED:
            raise ConfigError(field, "missing required field")
        return default
    try:
        return parse(value)
    except (ConfigError, SizeCapExceeded):
        raise
    except (TypeError, ValueError, OverflowError, QmdlError) as exc:
        raise ConfigError(field, str(exc)) from exc


def interval(spec: str):
    """Parser of a float in an interval written like "[0, 1]", "(0, 1]" or "(1, inf)"."""
    lo, hi = (float(s) for s in spec[1:-1].split(","))

    def parse(value) -> float:
        x = float(value)
        above = lo <= x if spec[0] == "[" else lo < x
        below = x <= hi if spec[-1] == "]" else x < hi
        if not (above and below):
            raise ValueError(f"must lie in {spec}, got {x}")
        return x

    return parse


unit = interval("[0, 1]")  # theta and c of the built-in qubit family


def integer(lo: int):
    """Parser of an integer >= lo; a fractional value is rejected, not truncated."""

    def parse(value) -> int:
        n = int(value)
        if n < lo or (isinstance(value, float) and value != n):
            raise ValueError(f"must be an integer >= {lo}, got {value!r}")
        return n

    return parse


def choice(*options: str):
    """Parser of one of a fixed set of names."""

    def parse(value) -> str:
        if value not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {value!r}")
        return value

    return parse


def each(parse, nonempty: bool = False):
    """Parser of a JSON list whose every element passes `parse`; returns a tuple."""

    def parse_list(value) -> tuple:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        if nonempty and not value:
            raise ValueError("expected a nonempty list")
        return tuple(parse(v) for v in value)

    return parse_list


levels = each(integer(1), nonempty=True)  # word lengths n >= 1


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(data, field: str = "matrix") -> np.ndarray:
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(field, f"not a matrix literal: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(
            field, f"expected square array-of-arrays of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def system_to_json(system: ProjSystem) -> list:
    return [matrix_to_json(p) for p in system]


def system_from_json(data, field: str = "system") -> ProjSystem:
    if not isinstance(data, list) or not data:
        raise ConfigError(field, "expected a nonempty list of matrix literals")
    return ProjSystem(
        [matrix_from_json(m, f"{field}[{i}]") for i, m in enumerate(data)]
    )


def source_from_json(data, field: str = "source"):
    kind = read(data, "kind", choice("source", "generalized", "beta-example"), field, "source")
    if "quadrature" in data:
        path = f"{field}.quadrature"
        quad = data["quadrature"]
        read(quad, "model", choice("example"), path)
        read(quad, "prior", choice("uniform"), path, "uniform")
        nodes = read(quad, "nodes", integer(1), path, 2048)
        return example_uniform_source(read(quad, "c", unit, path, 0.0), nodes)
    if kind == "beta-example":
        return BetaExampleSource(read(data, "c", unit, field, 0.0))
    comps = []
    for i, comp in enumerate(read(data, "components", list, field)):
        path = f"{field}.components[{i}]"
        weight = read(comp, "weight", float, path)
        matrix = read(comp, "matrix", lambda m: matrix_from_json(m, f"{path}.matrix"), path)
        comps.append((weight, matrix))
    return MixtureSource(comps, kind=kind)

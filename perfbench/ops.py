"""Operations, in-process CLI calls and output comparison shared by the workloads."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qmdl.cli


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


@dataclass
class Op:
    """One operation of a batch.

    `run(results)` does the work and returns its output; `results` maps the
    names of earlier operations of the same batch to their outputs.
    `check(output, results)` raises CheckFailed unless the output is right. A
    known fault names the program defect that makes the operation fail every
    time.
    """

    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], None]
    known_fault: str | None = None


@dataclass(frozen=True)
class CliOutput:
    code: int
    text: str       # the --out file
    stderr: str


@dataclass(frozen=True)
class Raised:
    """An operation that raised instead of returning."""

    kind: str
    message: str


class CliRunner:
    """Runs `qmdl.cli.main([...])` in this process on configs written at set-up."""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def op(self, name: str, sub: str, config: dict, check, known_fault=None) -> Op:
        """`check(output)` sees the CLI output alone."""
        cfg_path = os.path.join(self.workdir, f"{name}.json")
        out_path = os.path.join(self.workdir, f"{name}.out")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        argv = [sub, "--config", cfg_path, "--out", out_path]

        def run(_results):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = qmdl.cli.main(argv)
            with open(out_path) as fh:
                text = fh.read()
            os.remove(out_path)
            return CliOutput(code, text, err.getvalue())

        return Op(name, run, lambda output, _results: check(output), known_fault)


def json_out(out: CliOutput) -> dict:
    require(isinstance(out, CliOutput), f"expected CLI output, got {out!r}")
    return json.loads(out.text)


def csv_rows(out: CliOutput) -> list[dict]:
    require(isinstance(out, CliOutput), f"expected CLI output, got {out!r}")
    return list(csv.DictReader(io.StringIO(out.text)))


def csv_values(rows: list[dict], metric: str) -> dict[int, list[float]]:
    """metric -> {n: values in replica order}."""
    out: dict[int, list[float]] = {}
    for row in rows:
        if row["metric"] == metric:
            out.setdefault(int(row["n"]), []).append(float(row["value"]))
    return out


def same(a, b) -> bool:
    """Equality of two outputs of one operation, with float round-off allowed.

    Reruns of one operation must agree; floats may differ in the last digits
    when a BLAS kernel sums in another order, so they compare to 1e-9.
    """
    if isinstance(a, CliOutput) and isinstance(b, CliOutput):
        if a.code != b.code:
            return False
        if a.text == b.text:
            return True
        try:
            return same(json.loads(a.text), json.loads(b.text))
        except json.JSONDecodeError:
            return False
    if isinstance(a, Raised) or isinstance(b, Raised):
        return a == b
    if dataclasses.is_dataclass(a) and type(a) is type(b):
        return same(dataclasses.asdict(a), dataclasses.asdict(b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and bool(np.allclose(a, b, rtol=1e-9, atol=1e-12))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool):
            return a == b
        return a == b or close(float(a), float(b))
    return a == b

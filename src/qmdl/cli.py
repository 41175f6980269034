"""Command-line front end.

Usage: qmdl <subcommand> --config <file.json> [--out <path.csv>] [--seed <u64>]

Subcommands: lattice, project, universality-check, estimate, predict,
divergence, consistency, bound, redundancy, markov. Exit codes: 0 pass,
2 assertion failure, 3 inconclusive (a theorem hypothesis was violated),
4 configuration error (also an array a word length sizes past 16 cap^2 bytes,
cap = QMDL_DENSE_CAP, or a word length past 2^63 - 1 in an int64 entry).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .config import admit
from .errors import ConfigError, InvalidWord, QmdlError, SizeCapExceeded
from .estim import GeneralizedModel, ParamModel, mle, two_part
from .infodist import rel_entropy, hellinger_sq, renyi, word_divergences
from .models import example_state
from .opcore import check_density
from .projlat import (
    ProjSystem,
    _atoms,
    _meet_system,
    _require_same_dim,
    classify,
    computational_basis,
    finer,
    q_project,
)
from .qsource import predict_step, universality_check
from .serial import (
    REQUIRED,
    choice,
    each,
    integer,
    interval,
    levels,
    matrix_from_json,
    matrix_to_json,
    read,
    source_from_json,
    system_from_json,
    system_to_json,
    unit,
)
from .xplab import (
    BoundConfig,
    ConsistencyConfig,
    MarkovConfig,
    RedundancyConfig,
    bound_run,
    consistency_run,
    markov_run,
    redundancy_run,
)

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_CONFIG = 4


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config", "top-level JSON value must be an object")
    return data


def _word(data) -> np.ndarray | tuple[int, ...]:
    """A word is a list of outcome indices, a comma string, or {n, k} shorthand.

    A comma string or a list of plain ints is read in one pass into an int64 array. The
    per-letter integer(0) parse, which skips blank parts of a string, runs only where that
    pass cannot decide: a list holding anything but ints (bools, floats, strings), a part
    that int() refuses, or a letter past int64 or below 0. So every word reads as the same
    letters, or fails with the same message, as under the per-letter parse alone.
    Consumers take either form (qsource.word_counts).
    """
    if isinstance(data, dict):
        n, k = read(data, "n", integer(0), "word"), read(data, "k", integer(0), "word")
        if k > n:
            raise ValueError(f"need k <= n, got n={n}, k={k}")
        admit("word", n, itemsize=8)  # n references to its letters
        return (0,) * k + (1,) * (n - k)
    letters = None
    try:
        if isinstance(data, str):
            letters = np.fromiter(map(int, data.split(",")), np.int64)
        elif isinstance(data, list) and set(map(type, data)) == {int}:
            letters = np.array(data, dtype=np.int64)
    except (ValueError, OverflowError):
        pass  # int() refuses a part, or numpy (1.24 too) an int past int64
    if letters is not None and letters.min() >= 0:
        return letters
    if isinstance(data, str):
        data = [s for s in data.split(",") if s.strip()]
    return tuple(map(integer(0), data))


def _system(config: dict, dim: int, default=functools.cache(computational_basis)) -> ProjSystem | None:
    """The config's system, which must act on C^dim; default(dim) when absent (one shared basis per dim)."""
    system = read(config, "system", system_from_json, default=None)
    if system is None:
        return default(dim)
    if system.dim != dim:
        raise ConfigError("system", f"acts on dimension {system.dim}, not {dim}")
    return system


@functools.cache
def _default_grid() -> ParamModel:
    """estimate's built-in MLE grid, built on first use and shared by the process (read-only), as
    _system shares one basis per dimension: its letter tables and log weights are built once."""
    grid = ParamModel.example()
    for array in (grid.weights, grid.states, grid.thetas):
        array.flags.writeable = False
    return grid


def _model(data, thetas=REQUIRED) -> ParamModel:
    """Density-matrix literals or {"example": {"thetas": [...], "c": c}}; `thetas` is the
    grid of an example declaration that gives none (REQUIRED: it must give one)."""
    if isinstance(data, list):
        return ParamModel.explicit(
            [matrix_from_json(m, f"model[{i}]") for i, m in enumerate(data)]
        )
    example = read(data, "example", dict, "model")
    grid = read(example, "thetas", each(unit, nonempty=True), "model.example", thetas)
    return ParamModel.example(read(example, "c", unit, "model.example", 0.0), grid)


def _member(data, path: str) -> tuple[float, np.ndarray]:
    """{"weight": w, "theta": t, "c": c} or {"weight": w, "matrix": M}."""
    weight = read(data, "weight", interval("(0, 1]"), path)
    if "theta" in data:
        return weight, example_state(read(data, "theta", unit, path), read(data, "c", unit, path, 0.0))
    density = lambda m: check_density(matrix_from_json(m, f"{path}.matrix"))
    return weight, read(data, "matrix", density, path)


def _two_part_model(data) -> GeneralizedModel:
    return GeneralizedModel([_member(m, f"members[{i}]") for i, m in enumerate(data)])


def _systems(data) -> list[ProjSystem]:
    if len(data) < 2:
        raise ValueError("need a list of at least two systems")
    systems = [system_from_json(s, f"systems[{i}]") for i, s in enumerate(data)]
    _require_same_dim(*systems)
    return systems


def _operand(data, field: str):
    """A source declaration (an object) or a matrix literal."""
    return (source_from_json if isinstance(data, dict) else matrix_from_json)(data, field)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, default=_jsonable)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# subcommand handlers; each returns an exit code


def _cmd_lattice(config: dict, out: str | None) -> int:
    systems = read(config, "systems", _systems)
    found = _atoms(systems)  # one pass: consistent, join and meet
    payload = {
        "consistent": found is not None,
        "finer": [
            [finer(a, b) for b in systems] for a in systems
        ],
    }
    if found is not None:
        payload["join"] = system_to_json(ProjSystem(found[0]))
        payload["meet"] = system_to_json(_meet_system(systems, *found))
    _emit(payload, out)
    return EXIT_PASS


def _cmd_project(config: dict, out: str | None) -> int:
    t = read(config, "matrix", matrix_from_json)
    system = _system(config, t.shape[0])
    projected = q_project(t, system)
    payload = {"projected": matrix_to_json(projected)}
    if system.minimal:
        cls = classify(t, system)
        payload["nu"] = cls.nu
        payload["tag"] = cls.tag
    _emit(payload, out)
    return EXIT_PASS


def _cmd_universality(config: dict, out: str | None) -> int:
    src = read(config, "source", source_from_json)
    model = read(config, "model", _model)
    if model.states[0].shape[0] != src.dim:
        raise ConfigError("model", f"states act on dimension {model.states[0].shape[0]}, not {src.dim}")
    eps = read(config, "epsilon", interval("[0, inf)"))
    n_range = read(config, "n_range", levels)
    mode = read(config, "mode", choice("matrix", "q-restricted", "expected", "q-expected"), default="matrix")
    system = _system(config, src.dim, default=lambda dim: None)
    if mode.startswith("q-") and (system is None or not system.minimal):
        raise ConfigError("system", f"mode {mode!r} needs a rank-1 projection system")
    report = universality_check(src, model.states, eps, n_range, mode, system)
    _emit(report.to_dict(), out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_estimate(config: dict, out: str | None) -> int:
    estimator = read(config, "estimator", choice("mle", "two-part"), default="mle")
    word = read(config, "word", _word)
    if estimator == "mle":
        model = read(config, "model", lambda m: _model(m, None), default=None) or _default_grid()
        estimate = mle
    else:
        model = read(config, "members", _two_part_model)
        estimate = two_part
    result = estimate(model, _system(config, model.states[0].shape[0]), word)
    _emit(
        {
            "theta_hat": result.theta_hat,
            "state": matrix_to_json(result.state),
            "lambda": result.lam,
            "tie_path": dataclasses.asdict(result.tie_path),
        },
        out,
    )
    return EXIT_PASS


def _cmd_predict(config: dict, out: str | None) -> int:
    src = read(config, "source", source_from_json)
    system = _system(config, src.dim)
    word = read(config, "word", _word, default=())
    probs = predict_step(src, system, word)
    _emit({"probs": [float(p) for p in probs]}, out)
    return EXIT_PASS


def _cmd_divergence(config: dict, out: str | None) -> int:
    kind = read(config, "kind", choice("S", "he2", "renyi"), default="S")
    lam = read(config, "lam", interval("(0, 1)"), default=0.5)
    base = read(config, "base", choice("bits", "nats"), default=None)
    a = read(config, "a", lambda v: _operand(v, "a"))
    b = read(config, "b", lambda v: _operand(v, "b"))
    # sources have no shape
    if getattr(a, "shape", None) != getattr(b, "shape", None):
        raise ConfigError("b", "operands must be two sources or two matrices of one size")
    if isinstance(a, np.ndarray):
        if kind == "S":
            dv = rel_entropy(a, b, base or "bits")
        elif kind == "he2":
            dv = hellinger_sq(a, b)
        else:
            dv = renyi(lam, a, b, base or "nats")
    else:
        n = read(config, "n", integer(1))
        dv = word_divergences(a, b, _system(config, a.dim), n, kind, lam, base)
    _emit({"value": dv.value, "base": dv.base}, out)
    return EXIT_PASS


def _cmd_experiment(config: dict, out: str | None, cfg_cls, runner) -> int:
    result = runner(cfg_cls.from_dict(config))
    if out:
        result.write_csv(out)
    else:
        print("\n".join(result.csv_lines()))
    print(f"# status: {result.status}", file=sys.stderr)
    if result.status == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_PASS if result.status == "pass" else EXIT_FAIL


# subcommand -> (handler, extra handler arguments); every function sits in a
# tuple value so that tracing wrappers installed on module dicts reach it
COMMANDS = {
    "lattice": (_cmd_lattice,),
    "project": (_cmd_project,),
    "universality-check": (_cmd_universality,),
    "estimate": (_cmd_estimate,),
    "predict": (_cmd_predict,),
    "divergence": (_cmd_divergence,),
    "consistency": (_cmd_experiment, ConsistencyConfig, consistency_run),
    "bound": (_cmd_experiment, BoundConfig, bound_run),
    "redundancy": (_cmd_experiment, RedundancyConfig, redundancy_run),
    "markov": (_cmd_experiment, MarkovConfig, markov_run),
}


# built once per process: parse_args keeps no state and looks sys.stdout/stderr up to print
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmdl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=None, help="output path (CSV or JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, *extra = COMMANDS[args.command]
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config = dict(config, seed=args.seed)
        return handler(config, args.out, *extra)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidWord as exc:
        # only estimate and predict take words from the config
        print(f"config error: word: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SizeCapExceeded as exc:
        # a dense operator past the cap names the variable that sets it; a word length names its limit
        print(f"config error: {exc.setting + ': ' if exc.setting else ''}{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QmdlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

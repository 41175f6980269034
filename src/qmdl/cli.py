"""Command-line front end.

Usage: qmdl <subcommand> --config <file.json> [--out <path.csv>] [--seed <u64>]

Subcommands: lattice, project, universality-check, estimate, predict,
divergence, consistency, bound, redundancy, markov. Exit codes: 0 pass,
2 assertion failure, 3 inconclusive (a theorem hypothesis was violated),
4 configuration error (also a dense operator past QMDL_DENSE_CAP).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .errors import ConfigError, InvalidWord, QmdlError, SizeCapExceeded
from .estim import GeneralizedModel, ParamModel, mle, two_part
from .infodist import rel_entropy, hellinger_sq, renyi, word_divergences
from .models import example_state
from .projlat import (
    ProjSystem,
    classify,
    computational_basis,
    consistent,
    finer,
    join,
    meet,
    q_project,
)
from .qsource import predict_step, universality_check
from .serial import (
    matrix_from_json,
    matrix_to_json,
    source_from_json,
    system_from_json,
    system_to_json,
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


def _parse_word(data, field: str = "word") -> tuple[int, ...]:
    """A word is a list of outcome indices, a comma string, or {n, k} shorthand."""
    if isinstance(data, dict):
        if "n" not in data or "k" not in data:
            raise ConfigError(field, "shorthand needs both 'n' and 'k'")
        n, k = int(data["n"]), int(data["k"])
        if not 0 <= k <= n:
            raise ConfigError(field, f"need 0 <= k <= n, got n={n}, k={k}")
        return (0,) * k + (1,) * (n - k)
    if isinstance(data, str):
        data = [s for s in data.split(",") if s.strip()]
    try:
        return tuple(int(i) for i in data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(field, f"not an outcome word: {exc}") from exc


def _system_or_computational(config: dict, dim: int) -> ProjSystem:
    if "system" in config:
        return system_from_json(config["system"])
    return computational_basis(dim)


def _model_states(data, field: str = "model") -> list[np.ndarray]:
    """Either explicit matrix literals or {"example": {"thetas": [...], "c": c}}."""
    if isinstance(data, dict) and "example" in data:
        ex = data["example"]
        thetas = ex.get("thetas")
        if thetas is None:
            raise ConfigError(f"{field}.example.thetas", "missing required field")
        c = float(ex.get("c", 0.0))
        return [example_state(float(t), c) for t in thetas]
    if isinstance(data, list):
        return [matrix_from_json(m, f"{field}[{i}]") for i, m in enumerate(data)]
    raise ConfigError(field, "expected matrix literals or an 'example' declaration")


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
    raw = config.get("systems")
    if not isinstance(raw, list) or len(raw) < 2:
        raise ConfigError("systems", "need a list of at least two systems")
    systems = [system_from_json(s, f"systems[{i}]") for i, s in enumerate(raw)]
    ok = consistent(systems)
    payload = {
        "consistent": ok,
        "finer": [
            [finer(a, b) for b in systems] for a in systems
        ],
    }
    if ok:
        payload["join"] = system_to_json(join(systems).system)
        payload["meet"] = system_to_json(meet(systems).system)
    _emit(payload, out)
    return EXIT_PASS


def _cmd_project(config: dict, out: str | None) -> int:
    if "matrix" not in config:
        raise ConfigError("matrix", "missing required field")
    t = matrix_from_json(config["matrix"])
    system = _system_or_computational(config, t.shape[0])
    projected = q_project(t, system)
    payload = {"projected": matrix_to_json(projected)}
    if system.minimal:
        cls = classify(t, system)
        payload["nu"] = cls.nu
        payload["tag"] = cls.tag
    _emit(payload, out)
    return EXIT_PASS


def _cmd_universality(config: dict, out: str | None) -> int:
    if "source" not in config:
        raise ConfigError("source", "missing required field")
    src = source_from_json(config["source"])
    model = _model_states(config.get("model"))
    if "epsilon" not in config:
        raise ConfigError("epsilon", "missing required field")
    eps = float(config["epsilon"])
    n_range = config.get("n_range")
    if not isinstance(n_range, list) or not n_range:
        raise ConfigError("n_range", "need a nonempty list of levels")
    mode = config.get("mode", "matrix")
    system = system_from_json(config["system"]) if "system" in config else None
    try:
        report = universality_check(src, model, eps, n_range, mode, system)
    except ValueError as exc:
        raise ConfigError("mode", str(exc)) from exc
    _emit(report.to_dict(), out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_estimate(config: dict, out: str | None) -> int:
    estimator = config.get("estimator", "mle")
    if "word" not in config:
        raise ConfigError("word", "missing required field")
    word = _parse_word(config["word"])
    if estimator == "mle":
        model_decl = config.get("model", {"example": {}})
        if isinstance(model_decl, dict) and "example" in model_decl:
            ex = model_decl["example"]
            grid = np.asarray(ex["thetas"], dtype=float) if "thetas" in ex else None
            model = ParamModel.example(float(ex.get("c", 0.0)), grid)
        else:
            model = ParamModel.explicit(_model_states(model_decl))
        dim = model.states[0].shape[0]
        system = _system_or_computational(config, dim)
        result = mle(model, system, word)
    elif estimator == "two-part":
        raw = config.get("members")
        if not isinstance(raw, list) or not raw:
            raise ConfigError("members", "two-part needs a nonempty member list")
        members = []
        for i, m in enumerate(raw):
            if "weight" not in m:
                raise ConfigError(f"members[{i}].weight", "missing required field")
            if "theta" in m:
                rho = example_state(float(m["theta"]), float(m.get("c", 0.0)))
            elif "matrix" in m:
                rho = matrix_from_json(m["matrix"], f"members[{i}].matrix")
            else:
                raise ConfigError(f"members[{i}]", "needs 'theta' or 'matrix'")
            members.append((float(m["weight"]), rho))
        model = GeneralizedModel(members)
        system = _system_or_computational(config, model.states[0].shape[0])
        result = two_part(model, system, word)
    else:
        raise ConfigError("estimator", f"unknown estimator {estimator!r}")
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
    if "source" not in config:
        raise ConfigError("source", "missing required field")
    src = source_from_json(config["source"])
    system = _system_or_computational(config, src.dim)
    word = _parse_word(config.get("word", []))
    probs = predict_step(src, system, word)
    _emit({"probs": [float(p) for p in probs]}, out)
    return EXIT_PASS


def _divergence_operand(config: dict, key: str):
    if key not in config:
        raise ConfigError(key, "missing required field")
    value = config[key]
    if isinstance(value, dict):
        return "source", source_from_json(value, key)
    return "matrix", matrix_from_json(value, key)


def _cmd_divergence(config: dict, out: str | None) -> int:
    kind = config.get("kind", "S")
    lam = float(config.get("lam", 0.5))
    base = config.get("base")
    type_a, a = _divergence_operand(config, "a")
    type_b, b = _divergence_operand(config, "b")
    if type_a != type_b:
        raise ConfigError("b", "operands must both be matrices or both be sources")
    if type_a == "matrix":
        if kind == "S":
            dv = rel_entropy(a, b, base or "bits")
        elif kind == "he2":
            dv = hellinger_sq(a, b)
        elif kind == "renyi":
            dv = renyi(lam, a, b, base or "nats")
        else:
            raise ConfigError("kind", f"unknown divergence kind {kind!r}")
    else:
        if "n" not in config:
            raise ConfigError("n", "word divergences need a level n")
        system = _system_or_computational(config, a.dim)
        try:
            dv = word_divergences(a, b, system, int(config["n"]), kind, lam, base)
        except ValueError as exc:
            raise ConfigError("kind", str(exc)) from exc
    _emit({"value": dv.value, "base": dv.base}, out)
    return EXIT_PASS


_RUNNERS = {
    "consistency": (ConsistencyConfig, consistency_run),
    "bound": (BoundConfig, bound_run),
    "redundancy": (RedundancyConfig, redundancy_run),
    "markov": (MarkovConfig, markov_run),
}


def _cmd_experiment(name: str, config: dict, out: str | None, seed: int | None) -> int:
    cfg_cls, runner = _RUNNERS[name]
    if seed is not None:
        config = dict(config, seed=seed)
    result = runner(cfg_cls.from_dict(config))
    if out:
        result.write_csv(out)
    else:
        print("\n".join(result.csv_lines()))
    print(f"# status: {result.status}", file=sys.stderr)
    if result.status == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_PASS if result.status == "pass" else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmdl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (
        "lattice",
        "project",
        "universality-check",
        "estimate",
        "predict",
        "divergence",
        "consistency",
        "bound",
        "redundancy",
        "markov",
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=None, help="output path (CSV or JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "lattice":
            return _cmd_lattice(config, args.out)
        if args.command == "project":
            return _cmd_project(config, args.out)
        if args.command == "universality-check":
            return _cmd_universality(config, args.out)
        if args.command == "estimate":
            return _cmd_estimate(config, args.out)
        if args.command == "predict":
            return _cmd_predict(config, args.out)
        if args.command == "divergence":
            return _cmd_divergence(config, args.out)
        return _cmd_experiment(args.command, config, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidWord as exc:
        # only estimate and predict take words from the config
        print(f"config error: word: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SizeCapExceeded as exc:
        # the run asked for a dense operator larger than the configured cap
        print(f"config error: QMDL_DENSE_CAP: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QmdlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

"""JSON interchange round trips and the command-line front end."""

import argparse
import contextlib
import gc
import io
import json
import pathlib
import re
import shlex
import time

import numpy as np
import pytest

from qmdl import (
    BetaExampleSource,
    ConfigError,
    MixtureSource,
    ProjSystem,
    computational_basis,
    example_state,
    herm_sqrt,
    matrix_from_json,
    matrix_to_json,
    source_from_json,
    system_from_json,
    system_to_json,
)
from qmdl import cli, estim, qsource
from qmdl.cli import COMMANDS, build_parser, main
from test_config import VALID


# --- serialization ----------------------------------------------------------


def test_matrix_round_trip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(matrix_from_json(matrix_to_json(m)), m)


def test_matrix_literal_shape_errors():
    with pytest.raises(ConfigError):
        matrix_from_json([[1.0, 2.0]])
    with pytest.raises(ConfigError):
        matrix_from_json("nope")


def test_system_round_trip():
    cb = computational_basis(3)
    restored = system_from_json(system_to_json(cb))
    for a, b in zip(cb, restored):
        assert np.allclose(a, b)


def test_source_from_components():
    decl = {
        "kind": "source",
        "components": [
            {"weight": 0.5, "matrix": matrix_to_json(example_state(0.2))},
            {"weight": 0.5, "matrix": matrix_to_json(example_state(0.8))},
        ],
    }
    src = source_from_json(decl)
    assert isinstance(src, MixtureSource) and len(src.states) == 2


def test_source_from_quadrature_and_beta():
    quad = source_from_json({"quadrature": {"model": "example", "nodes": 64}})
    assert isinstance(quad, MixtureSource) and len(quad.states) == 64
    # Gauss-Legendre nodes mapped from [-1, 1] to theta in [0, 1]
    x, w = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(quad.weights, w / 2.0)
    assert all(np.array_equal(s, example_state(t)) for s, t in zip(quad.states, (x + 1.0) / 2.0))
    beta = source_from_json({"kind": "beta-example"})
    assert isinstance(beta, BetaExampleSource)


def test_source_declaration_errors():
    with pytest.raises(ConfigError):
        source_from_json({"quadrature": {"model": "other"}})
    with pytest.raises(ConfigError):
        source_from_json({"components": [{"weight": 0.5}]})
    with pytest.raises(ConfigError):
        source_from_json({})


# --- CLI --------------------------------------------------------------------


def run_cli(tmp_path, command, config, extra=()):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main([command, "--config", str(path), *extra])


def identity_literal(dim):
    return matrix_to_json(np.eye(dim))


def test_cli_lattice(tmp_path, capsys):
    z = system_to_json(computational_basis(2))
    coarse = [identity_literal(2)]
    code = run_cli(tmp_path, "lattice", {"systems": [z, coarse]})
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["consistent"] is True
    assert out["finer"][0][1] is True  # the basis refines the trivial system
    assert len(out["join"]) == 2 and len(out["meet"]) == 1


def test_cli_project_classifies(tmp_path, capsys):
    x = matrix_to_json(np.array([[0, 1], [1, 0]], dtype=complex))
    code = run_cli(tmp_path, "project", {"matrix": x})
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tag"] == "maximally-nonclassical"
    assert abs(out["nu"] - 1.0) < 1e-12


def test_cli_universality_pass_and_fail(tmp_path, capsys):
    source = {
        "kind": "source",
        "components": [
            {"weight": 0.5, "matrix": matrix_to_json(example_state(0.2))},
            {"weight": 0.5, "matrix": matrix_to_json(example_state(0.8))},
        ],
    }
    config = {
        "source": source,
        "model": {"example": {"thetas": [0.2, 0.8]}},
        "epsilon": 1.0,
        "n_range": list(range(2, 5)),
        "mode": "matrix",
    }
    assert run_cli(tmp_path, "universality-check", config) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True and report["n0"] <= 2
    config["model"] = {"example": {"thetas": [0.5]}}
    config["epsilon"] = 0.01
    assert run_cli(tmp_path, "universality-check", config) == 2


def test_cli_expected_universality_fails_a_member_off_the_source_support(tmp_path, capsys):
    config = {
        "source": {"components": [{"weight": 1.0, "matrix": matrix_to_json(np.diag([1.0, 0.0]))}]},
        "model": {"example": {"thetas": [0.5]}},
        "epsilon": 0.05,
        "n_range": [1, 2, 3],
        "mode": "expected",
    }
    assert run_cli(tmp_path, "universality-check", config) == 2
    text = capsys.readouterr().out
    assert text.count("-Infinity") == 3
    report = json.loads(text)
    assert report["per_level"] == [[1, -np.inf], [2, -np.inf], [3, -np.inf]]
    assert report["n0"] is None and report["pass"] is False


def test_cli_estimate_mle_with_shorthand(tmp_path, capsys):
    config = {
        "estimator": "mle",
        "model": {"example": {"thetas": [i / 10 for i in range(11)]}},
        "word": {"n": 10, "k": 7},
    }
    assert run_cli(tmp_path, "estimate", config) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["theta_hat"] == pytest.approx(0.7)


def test_cli_estimate_two_part(tmp_path, capsys):
    config = {
        "estimator": "two-part",
        "members": [
            {"weight": 0.5, "theta": 0.2},
            {"weight": 0.25, "theta": 0.8},
        ],
        "word": "0,1,1,1",
    }
    assert run_cli(tmp_path, "estimate", config) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda"] == pytest.approx(0.5)
    assert out["tie_path"]["chosen"] == 0


@pytest.mark.parametrize(
    "command, config",
    [
        ("estimate", {"estimator": "two-part", "members": [{"weight": 0.5, "theta": 0.2}], "word": "0,5,1"}),
        ("estimate", {"estimator": "mle", "word": "0,-1"}),
        ("predict", {"source": {"kind": "beta-example"}, "word": "0,7"}),
        ("predict", {"source": {"kind": "beta-example"}, "word": "0,-1"}),
    ],
)
def test_cli_out_of_range_outcome_is_config_error(tmp_path, capsys, command, config):
    assert run_cli(tmp_path, command, config) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error: word:")
    assert "Traceback" not in err


def test_cli_predict_laplace(tmp_path, capsys):
    config = {"source": {"kind": "beta-example"}, "word": {"n": 4, "k": 2}}
    assert run_cli(tmp_path, "predict", config) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["probs"][0] == pytest.approx(3 / 6)


def test_cli_predict_after_a_probability_zero_word_is_an_error(tmp_path, capsys):
    config = {"source": {"components": [{"weight": 1.0, "matrix": matrix_to_json(np.diag([1.0, 0.0]))}]}, "word": [1]}
    assert run_cli(tmp_path, "predict", config) == 2
    err = capsys.readouterr().err
    assert err == "error: conditioning word has probability 0\n"


_HEAVY = {"kind": "generalized", "components": [{"weight": 0.25, "matrix": identity_literal(2)}]}


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("predict", {"source": _HEAVY, "word": [0, 0, 1]}, "source"),
        ("divergence", {"a": _HEAVY, "b": {"components": [{"weight": 1.0, "matrix": matrix_to_json(np.eye(2) / 2)}]},
                        "kind": "S", "n": 3}, "a"),
    ],
)
def test_cli_generalized_component_with_trace_above_one_is_refused(tmp_path, capsys, command, config, field):
    """Weight 0.25 on I_2 bounds the level-1 trace by 1, but level traces would double with n."""
    assert run_cli(tmp_path, command, config) == 4
    err = capsys.readouterr().err
    assert err == f"config error: {field}: component 0: trace (2+0j) exceeds semi-density bound\n"


def test_cli_divergence_matrices(tmp_path, capsys):
    config = {
        "a": matrix_to_json(example_state(0.3)),
        "b": matrix_to_json(example_state(0.7)),
        "kind": "S",
    }
    assert run_cli(tmp_path, "divergence", config) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["base"] == "bits" and out["value"] > 0


def test_cli_divergence_sources_need_level(tmp_path):
    src = {"kind": "beta-example"}
    assert run_cli(tmp_path, "divergence", {"a": src, "b": src, "kind": "he2"}) == 4


def test_cli_divergence_word_level(tmp_path, capsys):
    src_a = {
        "kind": "source",
        "components": [{"weight": 1.0, "matrix": matrix_to_json(example_state(0.3))}],
    }
    src_b = {
        "kind": "source",
        "components": [{"weight": 1.0, "matrix": matrix_to_json(example_state(0.6))}],
    }
    config = {"a": src_a, "b": src_b, "kind": "he2", "n": 3}
    assert run_cli(tmp_path, "divergence", config) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["base"] == "nats" and 0 < out["value"] < 2


def test_cli_consistency_writes_csv(tmp_path):
    config = {
        "theta_star": 0.3,
        "model_thetas": [0.1, 0.3, 0.7],
        "n_schedule": [4, 8],
        "replicas": 3,
        "seed": 5,
    }
    out_path = tmp_path / "rows.csv"
    code = run_cli(tmp_path, "consistency", config, extra=["--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "experiment,n,replica,metric,value,base,seed"
    assert len(lines) > 1


def test_cli_seed_override(tmp_path):
    config = {
        "theta_star": 0.3,
        "model_thetas": [0.1, 0.3, 0.7],
        "n_schedule": [4],
        "replicas": 2,
        "seed": 5,
    }
    out_path = tmp_path / "rows.csv"
    run_cli(tmp_path, "consistency", config, extra=["--out", str(out_path), "--seed", "77"])
    assert all(line.endswith(",77") for line in out_path.read_text().splitlines()[1:])


def test_cli_bound_inconclusive_exit_code(tmp_path):
    config = {
        "theta_star": 0.3,
        "model_thetas": [0.3],
        "code_weights": [1.0],
        "alphas": [2.0],
        "n_schedule": [2],
    }
    assert run_cli(tmp_path, "bound", config, extra=["--out", str(tmp_path / "b.csv")]) == 3


def test_cli_redundancy_and_markov(tmp_path):
    assert (
        run_cli(
            tmp_path,
            "redundancy",
            {"theta_star": 0.5, "n_schedule": [2, 4, 8, 16, 32, 64, 128]},
            extra=["--out", str(tmp_path / "r.csv")],
        )
        == 0
    )
    assert (
        run_cli(
            tmp_path,
            "markov",
            {
                "theta_ref": 0.3,
                "theta_comp": 0.7,
                "deltas": [1.0],
                "n_schedule": [4],
            },
            extra=["--out", str(tmp_path / "m.csv")],
        )
        == 0
    )


def test_cli_config_error_exit_code(tmp_path):
    assert run_cli(tmp_path, "consistency", {"theta_star": 0.3}) == 4


def test_cli_unreadable_config_exit_code(tmp_path):
    assert main(["consistency", "--config", str(tmp_path / "missing.json")]) == 4


def test_cli_invalid_json_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["consistency", "--config", str(path)]) == 4


def test_cli_dense_cap_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QMDL_DENSE_CAP", "1024")
    thetas, weights = (0.2, 0.5, 0.8), (0.5, 0.25, 0.25)
    config = {
        "source": {
            "components": [
                {"weight": w, "matrix": matrix_to_json(example_state(t, 1.0))}
                for w, t in zip(weights, thetas)
            ]
        },
        "model": {"example": {"thetas": list(thetas), "c": 1.0}},
        "epsilon": 0.5,
        "n_range": [14],
        "mode": "matrix",
    }
    assert run_cli(tmp_path, "universality-check", config) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error: QMDL_DENSE_CAP:") and "cap 1024" in err


@pytest.mark.parametrize("mode", ["matrix", "expected"])
def test_cli_qubit_universality_keeps_the_dense_cap(tmp_path, capsys, monkeypatch, mode):
    """Qubit levels are reduced to Schur-Weyl blocks, yet 2^n stays bounded by the cap."""
    source = {"components": [
        {"weight": w, "matrix": matrix_to_json(example_state(t, 1.0))}
        for w, t in zip((0.5, 0.25, 0.25), (0.2, 0.5, 0.8))
    ]}
    config = {"source": source, "model": {"example": {"thetas": [0.2, 0.5, 0.8], "c": 1.0}},
              "epsilon": 0.5, "n_range": [2, 14], "mode": mode}
    monkeypatch.delenv("QMDL_DENSE_CAP", raising=False)
    assert run_cli(tmp_path, "universality-check", config) == 4
    assert capsys.readouterr().err.startswith("config error: QMDL_DENSE_CAP: dense dimension 16384")
    monkeypatch.setenv("QMDL_DENSE_CAP", "64")
    config["n_range"] = [5, 7]
    assert run_cli(tmp_path, "universality-check", config) == 4
    assert capsys.readouterr().err.startswith("config error: QMDL_DENSE_CAP: dense dimension 128")
    config["n_range"] = [5, 6]
    assert run_cli(tmp_path, "universality-check", config) in (0, 2)
    assert [n for n, _ in json.loads(capsys.readouterr().out)["per_level"]] == [5, 6]


@pytest.mark.parametrize("dim, n", [(2, 20000), (3, 20000)])
def test_cli_universality_names_a_level_past_the_cap_without_forming_it(tmp_path, capsys, monkeypatch, dim, n):
    """A level past the cap's bit length is refused at once, its dimension named as d^n."""
    state = matrix_to_json(np.eye(dim) / dim)
    config = {"source": {"components": [{"weight": 1.0, "matrix": state}]}, "model": [state],
              "epsilon": 0.5, "n_range": [n], "mode": "matrix"}
    monkeypatch.delenv("QMDL_DENSE_CAP", raising=False)
    start = time.perf_counter()
    assert run_cli(tmp_path, "universality-check", config) == 4
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == f"config error: QMDL_DENSE_CAP: dense dimension {dim}^{int(n)} exceeds cap 8192; use factorized operations\n"


def test_cli_estimates_share_one_computational_basis(tmp_path, monkeypatch):
    """Calls without a system share the default's basis per dimension instead of building one each."""
    built = []
    init = ProjSystem.__init__
    monkeypatch.setattr(ProjSystem, "__init__", lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    mle = {"estimator": "mle", "word": {"n": 10, "k": 7}}
    two_part = {"estimator": "two-part", "members": [{"weight": 0.5, "theta": 0.2}], "word": "0,1,1"}
    for config in (mle, two_part, mle):
        assert run_cli(tmp_path, "estimate", config) == 0
    assert len(built) <= 1


def test_cli_mle_builds_its_default_grid_and_log_table_once(tmp_path, monkeypatch):
    """estimate without a model shares one built-in grid: two calls build the grid and its
    letter_logs table once, and their JSON outputs are byte-identical."""
    built, logged = [], []
    states, logs = estim.example_states, qsource.letter_logs
    monkeypatch.setattr(estim, "example_states", lambda *a: built.append(1) or states(*a))
    monkeypatch.setattr(qsource, "letter_logs", lambda probs: logged.append(1) or logs(probs))
    cli._default_grid.cache_clear()
    config = {"estimator": "mle", "word": "0,1,1,0,1,1,1"}
    outputs = []
    for i in range(2):
        assert run_cli(tmp_path, "estimate", config, ["--out", str(tmp_path / f"{i}.json")]) == 0
        outputs.append((tmp_path / f"{i}.json").read_bytes())
    assert (len(built), len(logged)) == (1, 1)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["theta_hat"] == np.linspace(0.0, 1.0, 1001)[286]  # 2 zeros in 7


def test_cli_mle_on_declared_systems_leaves_the_shared_grid_cache_alone(tmp_path, capsys, monkeypatch):
    """A declared system is a new key each call: the shared grid scores it, and its tables go with it."""
    grid = cli._default_grid()
    monkeypatch.setattr(estim, "example_states", None)  # no second grid is built
    config = {"estimator": "mle", "word": [0, 1, 1, 1], "system": system_to_json(computational_basis(2))}
    sizes = (len(grid._tables), len(grid._logs))
    for _ in range(3):
        assert run_cli(tmp_path, "estimate", config) == 0
        assert json.loads(capsys.readouterr().out)["theta_hat"] == 0.25
    gc.collect()
    assert (len(grid._tables), len(grid._logs)) == sizes
    assert cli._default_grid() is grid


def test_cli_one_dimensional_universality_bounds_its_word_length(tmp_path, capsys):
    """At d = 1 the dense cap bounds no level: a power is one step, and a word length past
    numpy's int64 exponent is a size error, not a traceback."""
    one = [[[1.0, 0.0]]]
    config = {"source": {"components": [{"weight": 1.0, "matrix": one}]}, "model": [one],
              "epsilon": 0.5, "n_range": [100000000]}
    start = time.perf_counter()
    assert run_cli(tmp_path, "universality-check", config) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["per_level"] == [[100000000, 1.0]]
    for n, shown in ((2**63, "9.22337e+18"), (1e30, "1e+30")):
        assert run_cli(tmp_path, "universality-check", dict(config, n_range=[n])) == 4
        err = capsys.readouterr().err
        assert err == f"config error: word length {shown} exceeds 2^63 - 1, the largest power of a 1 x 1 operator\n"


@pytest.mark.parametrize("mode", ["q-restricted", "q-expected"])
def test_cli_one_dimensional_q_sense_universality_is_one_class(tmp_path, capsys, mode):
    """At d = 1 a word length has one type class of one word, so Q-sense margins at n = 10^8
    take one class, not O(n) work; past 2^63 - 1 the class table refuses the word length."""
    one = [[[1.0, 0.0]]]
    config = {"source": {"components": [{"weight": 1.0, "matrix": one}]}, "model": [one],
              "epsilon": 0.0, "n_range": [100000000], "mode": mode, "system": [one]}
    start = time.perf_counter()
    assert run_cli(tmp_path, "universality-check", config) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["per_level"] == [[100000000, 0.0]]
    assert run_cli(tmp_path, "universality-check", dict(config, n_range=[2**63])) == 4
    assert capsys.readouterr().err == "config error: word length 9.22337e+18 " \
                                      "exceeds 2^63 - 1, the largest count of a type-class table\n"


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """Config files and qmdl command lines of README's Command line examples block."""
    block = README.read_text().split("Examples:\n\n```sh\n", 1)[1].split("\n```", 1)[0]
    files = {name: body for body, name in re.findall(r"^echo '(.*)' > (\S+\.json)$", block, re.M)}
    files.update(re.findall(r"^cat > (\S+\.json) <<'EOF'\n(.*?)\nEOF$", block, re.M | re.S))
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qmdl ")]
    return files, commands


def test_readme_command_line_examples(tmp_path, capsys, monkeypatch):
    files, commands = readme_examples()
    assert sorted(files) == ["b.json", "d.json", "e.json", "p.json", "s.json"]
    monkeypatch.chdir(tmp_path)
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    runs = {}
    for argv in commands:
        code = main(argv)
        runs[argv[0], argv[2]] = (code, capsys.readouterr())
    assert [command for command, _ in runs] == ["predict", "estimate", "bound", "divergence", "predict"]

    code, captured = runs["predict", "p.json"]
    assert code == 0
    assert json.loads(captured.out)["probs"] == [0.6666666666666666, 0.3333333333333333]

    # posterior weights 0.5 * 0.9^2 * 0.1 and 0.5 * 0.2^2 * 0.8, then their letter laws
    code, captured = runs["predict", "s.json"]
    post = np.array([0.9**2 * 0.1, 0.2**2 * 0.8])
    direct = post @ np.array([[0.9, 0.1], [0.2, 0.8]]) / post.sum()
    assert code == 0 and json.loads(captured.out)["probs"] == pytest.approx(direct.tolist(), rel=1e-12)

    code, captured = runs["estimate", "e.json"]
    out = json.loads(captured.out)
    assert code == 0 and out["tie_path"]["chosen"] == 0
    assert np.array_equal(matrix_from_json(out["state"]), example_state(0.2))

    code, captured = runs["bound", "b.json"]
    assert code == 0 and captured.err == "# status: pass\n"
    assert (tmp_path / "bound.csv").read_text().startswith("experiment,n,replica,metric,value,base,seed\n")

    code, captured = runs["divergence", "d.json"]
    config = json.loads(files["d.json"])
    a, b = matrix_from_json(config["a"]), matrix_from_json(config["b"])
    direct = float(np.sum(np.abs(herm_sqrt(a) - herm_sqrt(b)) ** 2))
    assert code == 0 and json.loads(captured.out) == {"value": pytest.approx(direct, rel=1e-12), "base": "nats"}


def test_a_reused_parser_keeps_no_state(tmp_path, monkeypatch):
    files, commands = readme_examples()
    monkeypatch.chdir(tmp_path)
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    for command, config in VALID.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(config))
        commands.append([command, "--config", f"{command}.json", "--out", f"{command}.out"])
    usage_errors = [["nope", "--config", "p.json"], ["predict"], ["predict", "--config", "p.json", "--seed", "x"]]
    others = usage_errors + [["--help"]]
    calls = [argv for i, command in enumerate(commands) for argv in (command, others[i % len(others)])]

    def call(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = ("return", main(argv))
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
        written = None
        if "--out" in argv:
            out = tmp_path / argv[argv.index("--out") + 1]
            written = out.read_bytes()
            out.unlink()
        return code, stdout.getvalue(), stderr.getvalue(), written

    build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    first = {}
    for argv in calls + calls[::-1] + calls:
        result = call(argv)
        assert first.setdefault(tuple(argv), result) == result, argv
    # the top-level parser and each subcommand's parser were built once
    assert built == ["qmdl"] + [f"qmdl {name}" for name in COMMANDS]

    for argv in usage_errors:
        code, stdout, stderr, _ = first[tuple(argv)]
        assert code == ("SystemExit", 2) and stdout == ""
        assert stderr.startswith("usage: qmdl") and "error: " in stderr, argv
    code, stdout, stderr, _ = first[("--help",)]
    assert code == ("SystemExit", 0) and stdout.startswith("usage: qmdl") and stderr == ""
    for argv in commands:
        code, _, stderr, written = first[tuple(argv)]
        assert code[0] == "return" and code[1] in (0, 2, 3), (argv, stderr)
        assert ("--out" in argv) == (written is not None)

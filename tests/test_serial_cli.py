"""JSON interchange round trips and the command-line front end."""

import json

import numpy as np
import pytest

from qmdl import (
    BetaExampleSource,
    ConfigError,
    MixtureSource,
    computational_basis,
    example_state,
    matrix_from_json,
    matrix_to_json,
    source_from_json,
    system_from_json,
    system_to_json,
)
from qmdl.cli import main


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

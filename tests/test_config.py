"""Config reading: every malformed field exits 4 and names the field."""

import contextlib
import copy
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmdl import computational_basis, example_state, matrix_to_json, system_to_json
import qmdl.cli
from qmdl.cli import COMMANDS, _word, main
from qmdl.errors import ConfigError
from qmdl.serial import read
from conftest import per_letter_word

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(path, command, config):
    """(exit code, stderr) of one CLI call; main must not raise."""
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(path)])
    return code, err.getvalue()


def iid(theta):
    return {"components": [{"weight": 1.0, "matrix": matrix_to_json(example_state(theta))}]}


Z = system_to_json(computational_basis(2))
Z3 = system_to_json(computational_basis(3))
RHO = matrix_to_json(example_state(0.3))

# one small valid config per subcommand: n <= 8, replicas <= 3, nodes <= 16
VALID = {
    "lattice": {"systems": [Z, [matrix_to_json(np.eye(2))]]},
    "project": {"matrix": matrix_to_json(np.array([[0, 1], [1, 0]])), "system": Z},
    "universality-check": {
        "source": {"kind": "source", "components": [
            {"weight": 0.5, "matrix": matrix_to_json(example_state(0.2))},
            {"weight": 0.5, "matrix": matrix_to_json(example_state(0.8))},
        ]},
        "model": {"example": {"thetas": [0.2, 0.8], "c": 0.0}},
        "epsilon": 1.0,
        "n_range": [1, 2, 3],
        "mode": "q-restricted",
        "system": Z,
    },
    "estimate": {
        "estimator": "two-part",
        "members": [{"weight": 0.5, "theta": 0.2, "c": 0.0}, {"weight": 0.25, "matrix": RHO}],
        "word": {"n": 6, "k": 2},
        "system": Z,
    },
    "predict": {"source": {"quadrature": {"model": "example", "c": 0.5, "prior": "uniform", "nodes": 16}},
                "word": "0,1,1"},
    "divergence": {"a": iid(0.3), "b": {"kind": "beta-example", "c": 0.0}, "n": 8, "kind": "renyi",
                   "lam": 0.4, "base": "bits"},
    "consistency": {"theta_star": 0.3, "c": 0.0, "model_thetas": [0.1, 0.3, 0.7],
                    "code_weights": [0.25, 0.5, 0.25], "estimator": "two-part", "n_schedule": [4, 8],
                    "replicas": 3, "seed": 5, "competitor_thetas": [0.7], "deltas": [2.0]},
    "bound": {"theta_star": 0.3, "c": 0.0, "model_thetas": [0.3, 0.7], "code_weights": [0.5, 0.25],
              "alphas": [2.0], "n_schedule": [2, 4], "seed": 1},
    "redundancy": {"theta_star": 0.5, "n_schedule": [2, 4, 8], "seed": 1},
    "markov": {"theta_ref": 0.3, "theta_comp": 0.7, "comp_weight": 0.5, "c": 0.0,
               "deltas": [1.5, 3.0], "n_schedule": [4, 8], "seed": 1},
}

POOL = [None, True, "x", "", -1, 0, 0.5, 1.5, 2, [], [0], ["x"], {}, {"k": 1}]
DELETE = object()


def test_every_subcommand_has_a_valid_config():
    assert set(VALID) == set(COMMANDS)


@pytest.mark.parametrize("command", sorted(VALID))
def test_valid_configs_pass(tmp_path, command):
    code, err = run(tmp_path / "c.json", command, VALID[command])
    assert code in (0, 2, 3), err
    assert "error" not in err


def mutate(data, value, top=False):
    """`value` with one field somewhere below it deleted or replaced from POOL."""
    if isinstance(value, dict):
        keys = list(value)
    elif isinstance(value, list):
        keys = list(range(len(value)))
    else:
        keys = []
    key = data.draw(st.sampled_from([None] + keys), label="key")  # None: mutate value itself
    if key is not None:
        out = copy.copy(value)
        child = mutate(data, value[key])
        if child is DELETE:
            del out[key]
        else:
            out[key] = child
        return out
    return data.draw(st.sampled_from(POOL if top else POOL + [DELETE]), label="value")


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_configs_exit_cleanly(tmp_path, data):
    command = data.draw(st.sampled_from(sorted(VALID)), label="command")
    config = mutate(data, VALID[command], top=True)
    code, err = run(tmp_path / "c.json", command, config)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err


TWO_PART = {"estimator": "two-part", "members": [{"weight": 0.5, "theta": 0.2}], "word": "0,1"}
CONSISTENCY = {"theta_star": 0.3, "model_thetas": [0.1, 0.3], "n_schedule": [4], "replicas": 2, "seed": 1}
MARKOV = {"theta_ref": 0.3, "theta_comp": 0.7, "deltas": [1.5], "n_schedule": [4]}
UNIVERSALITY = {"source": iid(0.3), "model": {"example": {"thetas": [0.3]}}, "epsilon": 1.0, "n_range": [2, 3]}
BOUND = {"theta_star": 0.3, "model_thetas": [0.3, 0.7], "code_weights": [0.5, 0.25], "alphas": [2.0]}
REDUNDANCY = {"theta_star": 0.5}
BETA_UNIVERSALITY = dict(UNIVERSALITY, source={"kind": "beta-example"})
MATRICES = {"a": RHO, "b": matrix_to_json(example_state(0.7))}
HADAMARD = [matrix_to_json(np.full((2, 2), 0.5)), matrix_to_json(np.array([[0.5, -0.5], [-0.5, 0.5]]))]
BAD_PSD = matrix_to_json(np.array([[0.5, 2.0], [2.0, 0.5]]))  # Hermitian, trace 1, eigenvalues 2.5 and -1.5
BAD_HERM = matrix_to_json(np.array([[0.5, 0.3], [0.0, 0.5]]))


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("estimate", dict(TWO_PART, members=[3]), "members[0]"),
        ("estimate", dict(TWO_PART, members=[{"weight": "x", "theta": 0.2}]), "members[0].weight"),
        ("estimate", dict(TWO_PART, members=[{"weight": 0.5, "theta": 0.2, "c": "z"}]), "members[0].c"),
        ("estimate", dict(TWO_PART, word={"n": "a", "k": 1}), "word.n"),
        ("estimate", {"model": {"example": {"thetas": [1.5]}}, "word": "0,1"}, "model.example.thetas"),
        ("consistency", dict(CONSISTENCY, theta_star=1.5), "config.theta_star"),
        ("consistency", dict(CONSISTENCY, model_thetas=["q"]), "config.model_thetas"),
        ("markov", dict(MARKOV, deltas=["x"]), "config.deltas"),
        ("universality-check", dict(UNIVERSALITY, epsilon="x"), "epsilon"),
        ("universality-check", dict(UNIVERSALITY, n_range=["a"]), "n_range"),
        ("divergence", {"a": iid(0.3), "b": iid(0.7), "n": "abc"}, "n"),
        ("divergence", dict(MATRICES, kind="renyi", lam=2), "lam"),
        ("divergence", dict(MATRICES, base="foo"), "base"),
        ("predict", {"source": {"components": [{"weight": "x", "matrix": RHO}]}}, "source.components[0].weight"),
        ("predict", {"source": {"quadrature": {"model": "example", "nodes": "x"}}}, "source.quadrature.nodes"),
        ("predict", {"source": {"components": [{"weight": 0.5, "matrix": RHO}]}}, "source"),
        ("project", {"matrix": RHO, "system": [matrix_to_json(np.diag([1.0, 0.0]))]}, "system"),
        # out-of-range values that used to be accepted
        ("predict", {"source": {"kind": "beta-example", "c": 2}}, "source.c"),
        ("estimate", dict(TWO_PART, members=[{"weight": 0.5, "matrix": matrix_to_json(np.eye(2))}]),
         "members[0].matrix"),
        ("consistency", dict(CONSISTENCY, c=1.5), "config.c"),
        ("bound", dict(BOUND, model_thetas=[0.3, -0.1], n_schedule=[2]), "config.model_thetas"),
        # inputs whose errors escaped as tracebacks from inside the library
        ("estimate", {"word": []}, "word"),
        ("estimate", dict(TWO_PART, system=Z3), "system"),
        ("universality-check", dict(UNIVERSALITY, model=[]), "model"),
        ("universality-check", dict(UNIVERSALITY, model=[matrix_to_json(np.eye(3) / 3)]), "model"),
        ("divergence", dict(MATRICES, b=matrix_to_json(np.eye(3) / 3)), "b"),
        ("consistency", dict(CONSISTENCY, seed=-1), "config.seed"),
        ("estimate", dict(TWO_PART, word=[0, 0.5, 1]), "word"),
        # checks that ran only after the config was read
        ("consistency", dict(CONSISTENCY, code_weights=[0.9, 0.9]), "config.code_weights"),
        ("bound", dict(BOUND, code_weights=[0.9, 0.9], n_schedule=[2]), "config.code_weights"),
        ("lattice", {"systems": [Z3, Z]}, "systems"),
        ("universality-check", dict(UNIVERSALITY, mode="q-restricted", system=[matrix_to_json(np.eye(2))]),
         "system"),
        # a bare NaN, which Python's json reads, passed the weight checks
        ("predict", {"source": {"components": [{"weight": float("nan"), "matrix": RHO}]}}, "source"),
        # epsilon lies in [0, inf): these ended in tracebacks or passed
        ("universality-check", dict(BETA_UNIVERSALITY, epsilon=float("nan")), "epsilon"),
        ("universality-check", dict(BETA_UNIVERSALITY, epsilon=-1100.0), "epsilon"),
        ("universality-check", dict(BETA_UNIVERSALITY, epsilon=float("inf")), "epsilon"),
        # source components that are not semi-densities were accepted: S read 362.8 bits,
        # predict read [0.65, 0.35]
        ("divergence", {"kind": "S", "a": {"components": [{"weight": 1.0, "matrix": BAD_PSD}]},
                        "b": {"kind": "beta-example"}, "n": 4, "system": HADAMARD}, "a"),
        ("predict", {"source": {"components": [{"weight": 1.0, "matrix": BAD_HERM}]}, "word": [0]}, "source"),
    ],
)
def test_malformed_field_is_named(tmp_path, command, config, field):
    code, err = run(tmp_path / "c.json", command, config)
    assert code == 4
    assert err.startswith(f"config error: {field}: ")
    assert "Traceback" not in err


TABLE_COUNT = "exceeds 2^63 - 1, the largest count of a type-class table"
BUDGET = "would hold more than 16 cap^2 = 1073741824 bytes at cap 8192"


@pytest.mark.parametrize(
    "command, config, message",
    [
        # word lengths past 2^63 - 1 ended in ValueError or OverflowError tracebacks inside
        # typeclasses.compositions, and consistency's in a ValueError from np.empty; they are
        # size errors, in e notation: an array past the byte budget names QMDL_DENSE_CAP, and
        # the one-class table [[n]] of a 1 x 1 source names its int64 count
        pytest.param("redundancy", dict(REDUNDANCY, n_schedule=[1e308]),
                     f"QMDL_DENSE_CAP: type-class table of shape [1e+308, 2] in 8-byte entries {BUDGET}", id="redundancy"),
        pytest.param("markov", dict(MARKOV, n_schedule=[2**64]),
                     f"QMDL_DENSE_CAP: type-class table of shape [1.84467e+19, 2] in 8-byte entries {BUDGET}", id="markov"),
        pytest.param("bound", dict(BOUND, n_schedule=[2**63]),
                     f"QMDL_DENSE_CAP: type-class table of shape [9.22337e+18, 2] in 8-byte entries {BUDGET}", id="bound"),
        pytest.param("universality-check",
                     {"source": {"components": [{"weight": 1.0, "matrix": [[[1.0, 0.0]]]}]},
                      "model": [[[[1.0, 0.0]]]], "epsilon": 0.5, "n_range": [2**63],
                      "mode": "q-restricted", "system": [[[[1.0, 0.0]]]]},
                     f"word length 9.22337e+18 {TABLE_COUNT}", id="universality-check"),
        pytest.param("consistency", dict(CONSISTENCY, n_schedule=[1e308]),
                     f"QMDL_DENSE_CAP: row of uniforms of shape [1e+308] in 8-byte entries {BUDGET}", id="consistency"),
    ],
)
def test_word_length_past_its_limit_is_a_size_error(tmp_path, command, config, message):
    assert run(tmp_path / "c.json", command, config) == (4, f"config error: {message}\n")


def _sources(dim: int, kind: str | None = None) -> dict:
    if kind:
        return {"kind": kind}
    return {"components": [{"weight": 1.0, "matrix": matrix_to_json(np.eye(dim) / dim)}]}


# each array below fits no 2 GiB address space: the sizes that ended in MemoryError tracebacks
PROBES = {
    "redundancy": ("redundancy", dict(REDUNDANCY, n_schedule=[10**12])),
    "markov": ("markov", dict(MARKOV, n_schedule=[10**12])),
    "bound": ("bound", dict(BOUND, n_schedule=[10**12])),
    "divergence-beta": ("divergence", {"a": _sources(2, "beta-example"), "b": _sources(2, "beta-example"), "n": 10**12}),
    "divergence-3x3": ("divergence", {"a": _sources(3), "b": _sources(3), "n": 10**5}),
    "consistency-n": ("consistency", dict(CONSISTENCY, n_schedule=[10**11])),
    "consistency-replicas": ("consistency", dict(CONSISTENCY, replicas=4 * 10**9)),
    "estimate": ("estimate", {"estimator": "mle", "word": {"n": 10**12, "k": 1}}),
    "predict": ("predict", {"source": _sources(2, "beta-example"), "word": {"n": 10**12, "k": 1}}),
}


@pytest.mark.parametrize("name", PROBES)
def test_sizes_past_the_budget_are_refused_before_they_are_formed(tmp_path, name):
    """Each probe runs in a child process whose address space is capped at 2 GiB, so an array
    formed past the budget would end in MemoryError: it exits 4 with one config error line."""
    command, config = PROBES[name]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("QMDL_DENSE_CAP", None)
    env["OPENBLAS_NUM_THREADS"] = "1"  # one BLAS thread's buffers, whatever the host's CPU count
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "qmdl.cli", command, "--config", str(path)], env=env,
                          preexec_fn=limit, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2  # start and imports included (about 0.2 s on a 2-vCPU host)
    assert done.returncode == 4, done.stderr
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert done.stderr.startswith("config error: QMDL_DENSE_CAP: ")
    assert done.stderr.endswith("in 8-byte entries would hold more than 16 cap^2 = 1073741824 bytes at cap 8192\n")


@pytest.mark.parametrize("cap", ["abc", "0", "-5"])
@pytest.mark.parametrize("command", ["universality-check", "redundancy", "divergence"])
def test_malformed_dense_cap_is_a_config_error(tmp_path, monkeypatch, cap, command):
    """A QMDL_DENSE_CAP that is not a positive integer exits 4 where a size is admitted."""
    config = {"universality-check": dict(UNIVERSALITY, mode="matrix"), "redundancy": dict(REDUNDANCY, n_schedule=[4]),
              "divergence": dict(VALID["divergence"])}[command]
    monkeypatch.setenv("QMDL_DENSE_CAP", cap)
    shown = "must be an integer, got 'abc'" if cap == "abc" else f"must be positive, got {cap}"
    assert run(tmp_path / "c.json", command, config) == (4, f"config error: QMDL_DENSE_CAP: {shown}\n")


@pytest.mark.parametrize("schedule", [[0, 5], [-3]])
@pytest.mark.parametrize(
    "command, config",
    [("bound", BOUND), ("markov", MARKOV), ("consistency", CONSISTENCY), ("redundancy", REDUNDANCY)],
)
def test_levels_below_one_are_config_errors(tmp_path, command, config, schedule):
    code, err = run(tmp_path / "c.json", command, dict(config, n_schedule=schedule))
    assert code == 4
    assert err.startswith("config error: config.n_schedule: ")


@pytest.mark.parametrize("n_range", [[0, 2], [-3]])
def test_universality_levels_below_one_are_config_errors(tmp_path, n_range):
    code, err = run(tmp_path / "c.json", "universality-check", dict(UNIVERSALITY, n_range=n_range))
    assert code == 4
    assert err.startswith("config error: n_range: ")


# what JSON can hold as a word's letters: ints in and out of range, bools, integral and
# fractional floats, numeric strings with spaces
LETTERS = st.one_of(
    st.integers(0, 3),
    st.integers(-2, -1),
    st.integers(2**63 - 2, 2**64 + 1),
    st.integers(-(2**64), -(2**63) - 1),
    st.booleans(),
    st.integers(-1, 3).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([" 1", "2 ", " 0 ", "-1", "1.0", "x", ""]),
)
# parts of a comma string, empty and blank ones among them
PARTS = st.one_of(
    st.integers(-1, 3).map(str),
    st.sampled_from(["", " ", " 1", "2 ", "\t0", "+1", "1.0", "x", "1_0", str(2**63 - 1), str(2**63), str(2**64)]),
)
WORDS = st.one_of(
    st.lists(st.integers(0, 3), min_size=1, max_size=8),
    st.lists(LETTERS, max_size=8),
    st.lists(PARTS, max_size=8).map(",".join),
    st.integers(0, 3) | st.floats(0, 1) | st.booleans(),
)


def _parsed(parse, data):
    """The letters parse reads from a config's word as Python ints, or the ConfigError text."""
    try:
        return [int(a) for a in read({"word": data}, "word", parse)]
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=WORDS)
def test_one_pass_word_reads_as_the_per_letter_parse(tmp_path, data):
    got, want = _parsed(_word, data), _parsed(per_letter_word, data)
    assert got == want
    if isinstance(data, list) and data and all(type(a) is int and 0 <= a < 2**63 for a in data):
        assert isinstance(_word(data), np.ndarray)
    # the CLI ends alike: the same exit code and stderr
    config = {"source": iid(0.3), "word": data}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qmdl.cli, "_word", per_letter_word)
        reference = run(tmp_path / "c.json", "predict", config)
    assert run(tmp_path / "c.json", "predict", config) == reference

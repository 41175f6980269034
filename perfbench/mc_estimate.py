"""Workload `mc-estimate`: sampled words scored by two-part and MLE estimators.

`estim` (scoring every member per word) and `xplab` (sampling and the
per-replica loop) do the work; type classes are not enumerated. Every
experiment enters through `qmdl.cli.main`.
"""

from __future__ import annotations

import math

import numpy as np

from ops import CliRunner, close, csv_rows, csv_values, json_out, require

LN2 = math.log(2.0)
SPEED_KERNEL = "python"  # see calibrate.py

GRID = [round(0.005 * i, 3) for i in range(1, 200)]  # 199 members, 0.005 .. 0.995

FULL = {"n_schedule": [25, 100, 400, 1600], "replicas": 150, "mle_words": 8, "mle_n": 1000,
        "two_part_words": 16, "two_part_n": (200, 1000)}
SMOKE = {"n_schedule": [25, 100, 400], "replicas": 20, "mle_words": 2, "mle_n": 200,
         "two_part_words": 4, "two_part_n": (50, 200)}

# scores closer than this may be ordered either way by round-off
TIE_TOL = 1e-9


def build(seed: int, smoke: bool, cli: CliRunner) -> list:
    size = SMOKE if smoke else FULL
    rng = np.random.default_rng([seed, 2])
    ops = []

    theta_star = float(rng.uniform(0.1, 0.9))
    run_seed = int(rng.integers(0, 2**31))
    base = {"theta_star": theta_star, "model_thetas": GRID, "replicas": size["replicas"], "seed": run_seed}
    # two-part: one call per word length, so no single operation runs for
    # seconds (see calibrate.py); replica streams are keyed by (seed, replica,
    # n), so the calls draw the words one call over the whole schedule would
    names = []
    for n in size["n_schedule"]:
        names.append(f"consistency-two-part-n{n}")
        config = dict(base, estimator="two-part", n_schedule=[n])
        ops.append(cli.op(names[-1], "consistency", config, _consistency_check(config)))
    ops[-1].check = _falls_with_n(names, ops[-1].check)
    config = dict(base, estimator="laplace", n_schedule=size["n_schedule"])
    ops.append(cli.op("consistency-laplace", "consistency", config, _consistency_check(config)))
    ops[-1].check = _falls_with_n([ops[-1].name], ops[-1].check)

    n = size["mle_n"]
    for i in range(size["mle_words"]):
        k = int(rng.integers(1, n))
        word = np.ones(n, dtype=int)
        word[rng.choice(n, size=k, replace=False)] = 0
        config = {"estimator": "mle", "word": ",".join(map(str, word))}
        ops.append(cli.op(f"mle-{i}", "estimate", config, _mle_check(n, k)))

    for i in range(size["two_part_words"]):
        thetas = rng.uniform(0.05, 0.95, 8)
        raw = rng.uniform(0.5, 1.0, 8)
        weights = raw / (2.0 * raw.sum())
        # every member listed twice: each winner ties with its copy, and the
        # documented rule must pick the first listing
        members = [{"weight": float(w), "theta": float(t)} for w, t in zip(weights, thetas)] * 2
        n_word = int(rng.integers(*size["two_part_n"]))
        word = (rng.random(n_word) >= rng.uniform(0.1, 0.9)).astype(int)
        config = {"estimator": "two-part", "members": members, "word": word.tolist()}
        ops.append(cli.op(f"two-part-{i}", "estimate", config, _two_part_check(members, word)))
    return ops


def _replica_words(theta: float, n: int, replicas: int, seed: int):
    """The documented sampling scheme: Philox streams keyed by (seed, replica, n)."""
    probs = np.array([theta, 1.0 - theta])
    probs = probs / probs.sum()
    for r in range(replicas):
        rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence([seed, r, n])))
        yield rng.choice(2, size=n, p=probs)


def _he2(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2))


def _kl_bits(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum(p * np.log(p / q))) / LN2


def _winners(log_w: np.ndarray, thetas: np.ndarray, k: int, n: int) -> list[int]:
    """Members whose two-part score n log w + k log t + (n-k) log(1-t) is maximal.

    Under the documented rule an exact tie goes to the larger stored trace,
    then to the lower index; members within TIE_TOL of the top are returned
    in that order, since round-off may order them either way.
    """
    with np.errstate(divide="ignore"):
        scores = n * log_w + k * np.log(thetas) + (n - k) * np.log1p(-thetas)
    top = scores.max()
    near = np.flatnonzero(scores >= top - TIE_TOL * max(1.0, abs(top)))
    return sorted(near.tolist(), key=lambda i: (-log_w[i], i))


def _consistency_check(config: dict):
    def check(out) -> None:
        require(out.code == 0, f"consistency exited {out.code}")
        rows = csv_rows(out)
        he2, kl = csv_values(rows, "he2"), csv_values(rows, "S")
        theta = config["theta_star"]
        truth = np.array([theta, 1.0 - theta])
        thetas = np.array(config["model_thetas"])
        log_w = np.full(len(thetas), -math.log(len(thetas)))
        for n in config["n_schedule"]:
            require(len(he2[n]) == config["replicas"], f"n={n}: {len(he2[n])} replicas")
            words = _replica_words(theta, n, config["replicas"], config["seed"])
            for r, word in enumerate(words):
                k = int(np.sum(word == 0))
                if config["estimator"] == "laplace":
                    p1 = (k + 1) / (n + 2)
                    candidates = [np.array([p1, 1.0 - p1])]
                else:
                    candidates = [np.array([thetas[i], 1.0 - thetas[i]]) for i in _winners(log_w, thetas, k, n)]
                require(
                    any(close(he2[n][r], _he2(truth, est)) and close(kl[n][r], _kl_bits(truth, est))
                        for est in candidates),
                    f"n={n} replica {r}: He2 {he2[n][r]!r}, S {kl[n][r]!r} match no estimate",
                )
    return check


def _falls_with_n(names: list, check):
    """Adds: the median He2 over replicas falls from each word length to the next."""
    def falls(out, results) -> None:
        check(out, results)
        he2 = {}
        for name in names:
            he2.update(csv_values(csv_rows(results[name]), "he2"))
        medians = [float(np.median(he2[n])) for n in sorted(he2)]
        require(all(a > b for a, b in zip(medians, medians[1:])), f"median He2 does not fall with n: {medians}")
    return falls


def _mle_check(n: int, k: int):
    def check(out) -> None:
        require(out.code == 0, f"estimate exited {out.code}")
        result = json_out(out)
        require(close(result["theta_hat"], k / n, rel=0, abs_=1e-12), f"theta_hat {result['theta_hat']} != {k}/{n}")
        require(result["tie_path"]["maxima"] == 1, f"tie path {result['tie_path']}")
    return check


def _two_part_check(members: list, word: np.ndarray):
    half = len(members) // 2
    log_w = np.log([m["weight"] for m in members[:half]])
    thetas = np.array([m["theta"] for m in members[:half]])
    n, k = len(word), int(np.sum(word == 0))

    def check(out) -> None:
        require(out.code == 0, f"estimate exited {out.code}")
        result = json_out(out)
        winners = _winners(log_w, thetas, k, n)
        chosen = result["tie_path"]["chosen"]
        expected = winners[0] if len(winners) == 1 else None
        require(chosen in winners if expected is None else chosen == expected,
                f"chose member {chosen}, numpy argmax gives {winners}")
        require(result["tie_path"]["maxima"] >= 2 and result["tie_path"]["trace_ties"] >= 2,
                f"the copy of the winner did not tie: {result['tie_path']}")
        require(close(result["lambda"], members[chosen]["weight"], rel=1e-12),
                f"lambda {result['lambda']} != code weight {members[chosen]['weight']}")
        state = np.array(result["state"])[:, :, 0]
        require(close(state[0, 0], members[chosen]["theta"], rel=1e-12), f"state {state.tolist()}")
    return check

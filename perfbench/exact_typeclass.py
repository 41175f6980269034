"""Workload `exact-typeclass`: exact enumeration over type classes.

Two regimes of the one enumeration: m=2 outcomes at large n (bound, markov,
redundancy, word divergences, prediction) and m=4 outcomes at small n (the
Q-restricted and Q-expected universality checks). Every experiment enters
through `qmdl.cli.main`. Three operations fail every time on fixed inputs,
because of faults named in `KNOWN_FAULTS`; they stay in the batch.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qmdl.models import example_state
from qmdl.serial import matrix_to_json

from ops import CliRunner, close, csv_rows, json_out, require

LN2 = math.log(2.0)
SPEED_KERNEL = "python"  # see calibrate.py

KNOWN_FAULTS = {
    "a": "word_prob underflows in linear space (qsource.py:130): divergence S, "
         "theta 0.3 vs 0.7, n=1000 returns inf instead of n*D = 488.9 bits",
    "b": "math.exp(log_multinomial) overflows (xplab.py:358): bound at n=1100 "
         "raises OverflowError",
    "c": "math.comb to float overflows (qsource.py:210): predict on beta-example "
         "with n=2000, k=1000 raises OverflowError",
}

FULL = {
    "bound_n": [25, 50, 100, 200, 300],
    "markov_n": [50, 100, 200, 400],
    "redundancy_n": [16 << i for i in range(9)],  # 16 .. 4096
    "divergence_n": 500,
    "universality_n": [4, 8, 12, 16, 20],
    "predict_n": 500,
}
SMOKE = {
    "bound_n": [25, 50, 100],
    "markov_n": [50, 100],
    "redundancy_n": [16 << i for i in range(7)],  # 16 .. 1024
    "divergence_n": 200,
    "universality_n": [4, 8, 12],
    "predict_n": 200,
}


def _iid_source(theta: float) -> dict:
    return {"components": [{"weight": 1.0, "matrix": matrix_to_json(example_state(theta))}]}


def _random_density(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, 2 * d)) + 1j * rng.standard_normal((d, 2 * d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _haar_unitary(rng, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def build(seed: int, smoke: bool, cli: CliRunner) -> list:
    size = SMOKE if smoke else FULL
    rng = np.random.default_rng([seed, 1])
    ops = []

    # bound: ~five members, the truth is the member with the largest code weight
    for i in range(2):
        thetas = [float(t) for t in rng.uniform(0.05, 0.95, 5)]
        config = {
            "theta_star": thetas[0],
            "model_thetas": thetas,
            "code_weights": [2.0 ** -(j + 1) for j in range(5)],
            "alphas": [2.0, 4.0],
            "n_schedule": size["bound_n"],
        }
        ops.append(cli.op(f"bound-{i}", "bound", config, _check_bound))
    fault_b = {
        "theta_star": 0.3, "model_thetas": [0.3, 0.7], "code_weights": [0.5, 0.25],
        "alphas": [2.0], "n_schedule": [1100],
    }
    ops.append(cli.op("bound-n1100", "bound", fault_b, _check_bound, known_fault="b"))

    theta_ref, theta_comp = _distinct_pair(rng, 0.25, 0.75, 0.1)
    markov = {
        "theta_ref": theta_ref, "theta_comp": theta_comp,
        "comp_weight": float(rng.uniform(0.3, 1.0)),
        "deltas": [0.5, 1.0, 2.0, 4.0], "n_schedule": size["markov_n"],
    }
    ops.append(cli.op("markov", "markov", markov, _markov_check(markov)))

    for i in range(2):
        theta = float(rng.uniform(0.2, 0.8))
        config = {"theta_star": theta, "n_schedule": size["redundancy_n"]}
        ops.append(cli.op(f"redundancy-{i}", "redundancy", config, _redundancy_check(config)))

    # word divergences between i.i.d. sources; theta in [0.3, 0.7] keeps every
    # per-word probability above 1e-261 at n <= 500, so nothing underflows
    theta_a, theta_b = _distinct_pair(rng, 0.3, 0.7, 0.05)
    lam = float(rng.uniform(0.3, 0.7))
    n = size["divergence_n"]
    for kind in ("S", "he2", "renyi"):
        config = {"a": _iid_source(theta_a), "b": _iid_source(theta_b), "n": n, "kind": kind, "lam": lam}
        ops.append(cli.op(f"divergence-{kind}", "divergence", config,
                          _divergence_check(theta_a, theta_b, n, kind, lam)))
    fault_a = {"a": _iid_source(0.3), "b": _iid_source(0.7), "n": 1000, "kind": "S"}
    ops.append(cli.op("divergence-S-n1000", "divergence", fault_a,
                      _divergence_check(0.3, 0.7, 1000, "S", 0.5), known_fault="a"))

    # m=4: a three-component mixture measured in a Haar-random basis of C^4
    u = _haar_unitary(rng, 4)
    comps = [_random_density(rng, 4) for _ in range(3)]
    weights = [float(w) for w in rng.dirichlet([3.0, 3.0, 3.0])]
    system = [matrix_to_json(np.outer(u[:, a], u[:, a].conj())) for a in range(4)]
    source = {"components": [{"weight": w, "matrix": matrix_to_json(c)} for w, c in zip(weights, comps)]}
    reference = _q_margins(u, comps, weights, 0.5, size["universality_n"])
    for mode in ("q-restricted", "q-expected"):
        config = {
            "source": source, "model": [matrix_to_json(c) for c in comps], "epsilon": 0.5,
            "n_range": size["universality_n"], "mode": mode, "system": system,
        }
        ops.append(cli.op(f"universality-{mode}", "universality-check", config,
                          _universality_check(mode, reference)))

    n = size["predict_n"]
    for i, k in enumerate(sorted(int(k) for k in rng.integers(0, n + 1, 3))):
        config = {"source": {"kind": "beta-example"}, "word": {"n": n, "k": k}}
        ops.append(cli.op(f"predict-{i}", "predict", config, _predict_check(n, k)))
    fault_c = {"source": {"kind": "beta-example"}, "word": {"n": 2000, "k": 1000}}
    ops.append(cli.op("predict-n2000", "predict", fault_c, _predict_check(2000, 1000), known_fault="c"))
    return ops


def _distinct_pair(rng, lo: float, hi: float, gap: float) -> tuple[float, float]:
    while True:
        a, b = (float(x) for x in rng.uniform(lo, hi, 2))
        if abs(a - b) >= gap:
            return a, b


def _status(out) -> str:
    for line in out.stderr.splitlines():
        if line.startswith("# status:"):
            return line.split(":", 1)[1].strip()
    return ""


def _check_bound(out) -> None:
    """Barron & Cover's resolvability bound: pass, lhs <= rhs, lambda_sum <= 1."""
    rows = csv_rows(out)
    require(out.code == 0 and _status(out) == "pass", f"bound exited {out.code} ({_status(out)})")
    table = {(int(r["n"]), r["metric"]): float(r["value"]) for r in rows}
    for n in sorted({n for n, _ in table}):
        for alpha in ("2", "4"):
            if (n, f"rhs[alpha={alpha}]") not in table:
                continue
            lam = table[(n, f"lambda_sum[alpha={alpha}]")]
            lhs = table[(n, f"lhs_renyi[alpha={alpha}]")]
            rhs = table[(n, f"rhs[alpha={alpha}]")]
            require(lam <= 1 + 1e-9, f"n={n} alpha={alpha}: lambda_sum {lam} > 1")
            require(lhs <= rhs + 1e-7, f"n={n} alpha={alpha}: lhs {lhs} > rhs {rhs}")
        he2 = table.get((n, "lhs_he2[alpha=2]"))
        if he2 is not None:
            require(he2 <= table[(n, "rhs[alpha=2]")] * LN2 + 1e-7, f"n={n}: He2 {he2} above rhs")


def _log_ratio(k: np.ndarray, n: int, theta_ref: float, theta_comp: float, weight: float) -> np.ndarray:
    return (math.log(weight) + k * math.log(theta_comp / theta_ref)
            + (n - k) * math.log((1 - theta_comp) / (1 - theta_ref)))


def _markov_check(config: dict):
    def check(out) -> None:
        from scipy.stats import binom

        require(out.code == 0, f"markov exited {out.code}")
        table = {(int(r["n"]), r["metric"]): float(r["value"]) for r in csv_rows(out)}
        for n in config["n_schedule"]:
            k = np.arange(n + 1)
            logpmf = binom.logpmf(k, n, config["theta_ref"])
            ratio = _log_ratio(k, n, config["theta_ref"], config["theta_comp"], config["comp_weight"])
            for delta in config["deltas"]:
                mass = table[(n, f"mass[delta={delta:g}]")]
                # classes within round-off of the threshold may fall either side
                edge = abs(ratio - math.log(delta)) <= 1e-9
                lo = _tail(logpmf, (ratio > math.log(delta)) & ~edge)
                hi = _tail(logpmf, (ratio > math.log(delta)) | edge)
                require(lo * (1 - 1e-8) <= mass <= hi * (1 + 1e-8) + 1e-300,
                        f"n={n} delta={delta}: mass {mass!r} outside binomial tail [{lo!r}, {hi!r}]")
                require(mass <= 1.0 / delta + 1e-9, f"n={n} delta={delta}: mass {mass} > 1/delta")
    return check


def _tail(logpmf: np.ndarray, mask: np.ndarray) -> float:
    from scipy.special import logsumexp

    return float(np.exp(logsumexp(logpmf[mask]))) if mask.any() else 0.0


def _redundancy_check(config: dict):
    def check(out) -> None:
        from scipy.stats import binom

        require(out.code == 0, f"redundancy exited {out.code}")
        theta = config["theta_star"]
        values = {int(r["n"]): float(r["value"]) for r in csv_rows(out) if r["metric"] == "S"}
        for n in config["n_schedule"]:
            # S = log2(n+1) - H(Binomial(n, theta)), summed in log space
            logpmf = binom.logpmf(np.arange(n + 1), n, theta)
            ref = float(np.sum(np.exp(logpmf) * (logpmf + math.log(n + 1)))) / LN2
            require(close(values[n], ref), f"n={n}: S {values[n]!r} vs log-space sum {ref!r}")
            if n >= 1024:
                # Clarke & Barron: 1/2 log2(n / 2 pi e) + 1/2 log2(1 / (theta (1 - theta)))
                asym = 0.5 * math.log2(n / (2 * math.pi * math.e)) + 0.5 * math.log2(1 / (theta * (1 - theta)))
                require(abs(values[n] - asym) < 0.01, f"n={n}: S {values[n]} vs Clarke-Barron {asym}")
    return check


def _divergence_check(theta_a: float, theta_b: float, n: int, kind: str, lam: float):
    p = np.array([theta_a, 1 - theta_a])
    q = np.array([theta_b, 1 - theta_b])

    def check(out) -> None:
        require(out.code == 0, f"divergence exited {out.code}")
        result = json_out(out)
        value = result["value"]
        if kind == "S":
            ref, base = n * float(np.sum(p * np.log2(p / q))), "bits"
        elif kind == "he2":
            ref, base = 2.0 - 2.0 * float(np.sum(np.sqrt(p * q))) ** n, "nats"
        else:
            affinity = float(np.sum(p**lam * q ** (1 - lam)))
            ref, base = -n * math.log(affinity) / (1 - lam), "nats"
        require(result["base"] == base, f"base {result['base']} != {base}")
        require(isinstance(value, float) and close(value, ref), f"{kind} = {value!r}, closed form {ref!r}")
    return check


def _compositions(n: int, m: int) -> np.ndarray:
    """All count vectors of n over m symbols (stars and bars)."""
    rows = []
    for bars in itertools.combinations(range(n + m - 1), m - 1):
        edges = (-1,) + bars + (n + m - 1,)
        rows.append([edges[i + 1] - edges[i] - 1 for i in range(m)])
    return np.array(rows)


def _q_margins(u, comps, weights, eps: float, ns) -> dict:
    """Both Q-sense margins per level, computed with numpy in log space."""
    from math import lgamma

    probs = np.array([[float((u[:, a].conj() @ c @ u[:, a]).real) for a in range(u.shape[0])] for c in comps])
    logp = np.log(probs)
    logw = np.log(weights)
    restricted, expected = [], []
    for n in ns:
        counts = _compositions(n, probs.shape[1])
        member = counts @ logp.T                               # [class, member]
        top = (member + logw).max(axis=1, keepdims=True)
        mix = top[:, 0] + np.log(np.exp(member + logw - top).sum(axis=1))
        logmult = np.array([lgamma(n + 1) - sum(lgamma(k + 1) for k in row) for row in counts])
        gap = (mix[:, None] - member) / LN2                    # log2 pbar - log2 p_member
        restricted.append(float(gap.min()) + n * eps)
        surplus = (np.exp(logmult[:, None] + member) * -gap).sum(axis=0)
        expected.append(n * eps - float(surplus.max()))
    return {"q-restricted": restricted, "q-expected": expected, "n": list(ns)}


def _n0(margins: list, ns: list):
    for i in range(len(ns)):
        if all(m >= -1e-9 for m in margins[i:]):
            return ns[i]
    return None


def _universality_check(mode: str, reference: dict):
    def check(out) -> None:
        result = json_out(out)
        levels = result["per_level"]
        ns = reference["n"]
        require([n for n, _ in levels] == ns, f"levels {levels}")
        for (n, margin), ref in zip(levels, reference[mode]):
            require(close(margin, ref, rel=1e-9, abs_=1e-9), f"n={n}: margin {margin!r} vs numpy {ref!r}")
        for (n, margin), floor in zip(levels, reference["q-restricted"]):
            require(margin >= floor - 1e-9, f"n={n}: margin {margin} below the q-restricted {floor}")
        n0 = _n0(reference[mode], ns)
        require(result["n0"] == n0 and result["pass"] == (n0 is not None), f"n0 {result['n0']} vs {n0}")
        require(out.code == (0 if n0 is not None else 2), f"exit {out.code} for n0={n0}")
    return check


def _predict_check(n: int, k: int):
    def check(out) -> None:
        require(out.code == 0, f"predict exited {out.code}")
        probs = json_out(out)["probs"]
        ref = [(k + 1) / (n + 2), (n - k + 1) / (n + 2)]
        require(len(probs) == 2 and all(close(a, b, rel=1e-12) for a, b in zip(probs, ref)),
                f"predict {probs} vs rule of succession {ref}")
    return check

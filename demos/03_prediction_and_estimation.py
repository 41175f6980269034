"""Prediction and estimation: Laplace's rule, grid MLE, two-part selection.

The uniform-prior mixture over the built-in qubit family reproduces the
classical rule of succession; maximum likelihood recovers the empirical
frequency; the two-part criterion trades likelihood against code weight.
"""

import numpy as np

from qmdl import (
    BetaExampleSource,
    GeneralizedModel,
    ParamModel,
    computational_basis,
    example_state,
    mle,
    predict_step,
    two_part,
)

cb = computational_basis(2)

print("== Laplace's rule from the uniform-prior mixture ==")
src = BetaExampleSource()
for n, k in [(0, 0), (4, 3), (10, 2)]:
    word = (0,) * k + (1,) * (n - k)
    p = predict_step(src, cb, word)
    print(f"after {k} zeros in {n} outcomes: P(next = 0) = {p[0]:.4f}"
          f"   (rule of succession: {(k + 1) / (n + 2):.4f})")

print()
print("== Grid maximum likelihood ==")
n, k = 20, 7
model = ParamModel.example(grid=np.arange(n + 1) / n)
word = (0,) * k + (1,) * (n - k)
est = mle(model, cb, word)
print(f"word with {k}/{n} zeros -> theta_hat = {est.theta_hat} (= k/n)")

print()
print("== Two-part selection: code weight vs likelihood ==")
gm = GeneralizedModel([(0.5, example_state(0.2)), (0.25, example_state(0.8))])
for word in [(0, 1, 1, 1), (0, 0, 0, 1)]:
    res = two_part(gm, cb, word)
    theta = res.state[0, 0].real
    print(f"word {word}: winner theta = {theta:.1f}, code mass = {res.lam}, "
          f"ties = {res.tie_path.maxima}")
print("one zero in four still selects theta = 0.2: its double code weight")
print("outweighs the modest likelihood advantage of theta = 0.8")

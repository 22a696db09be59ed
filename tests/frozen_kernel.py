"""The frozen reference kernel that the learner and harness tests compare with.

This is the plain form of the MLP bank's kernel, kept apart from `MlpBank`:
a fresh forward pass every round, max and sum over the class axis, the
ensemble score as a mean, and the textbook weights and signs. `MlpBank`
keeps its work buffers, stores the hidden layer negated (``neg_W1``,
``neg_b1``) with the gradient of what it stores, works on the two class
columns directly and updates all weights in one subtraction; both must give
these bits exactly. Weights are a list ``[W1, b1, W2, b2]`` of stacked
arrays, one row per bank row, which the functions below update in place;
the tests compare a bank with them through one helper, `_textbook` in
`test_learners.py`, which negates the bank's hidden layer back.
"""
from __future__ import annotations

import numpy as np

from skewstream.labels import POS


def _ref_init(d, h, seeds):
    params = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        params.append(
            (
                rng.uniform(-0.5, 0.5, (h, d)),
                rng.uniform(-0.5, 0.5, h),
                rng.uniform(-0.5, 0.5, (2, h)),
                rng.uniform(-0.5, 0.5, 2),
            )
        )
    return [np.stack(p) for p in zip(*params)]


def _ref_forward(W1, b1, W2, b2, x):
    m, h, d = W1.shape
    z1 = (W1.reshape(m * h, d) @ x).reshape(m, h) + b1
    a1 = 1.0 / (1.0 + np.exp(-z1))
    z2 = (W2 @ a1[:, :, None])[:, :, 0] + b2
    z2 -= z2.max(axis=1, keepdims=True)
    e = np.exp(z2)
    return a1, e / e.sum(axis=1, keepdims=True)


def _ref_train_rounds(params, x, label, ks, lr):
    W1, b1, W2, b2 = params
    cls = 0 if label == POS else 1
    for j in range(int(ks.max())):
        active = ks > j
        a1, probs = _ref_forward(W1, b1, W2, b2, x)
        dz2 = probs
        dz2[:, cls] -= 1.0
        dz2 *= lr * active[:, None]
        da1 = (W2.transpose(0, 2, 1) @ dz2[:, :, None])[:, :, 0]
        W2 -= dz2[:, :, None] * a1[:, None, :]
        b2 -= dz2
        dz1 = da1 * a1 * (1.0 - a1)
        W1 -= dz1[:, :, None] * x[None, None, :]
        b1 -= dz1

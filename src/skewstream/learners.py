"""Online learners: incremental MLP base models and Poisson-resampling ensembles.

The base learner is a one-hidden-layer MLP (sigmoid hidden units, softmax
output, cross-entropy loss), `default_hidden_size` units wide, trained by one
stochastic-gradient step per presented example. `MlpBank` holds every such
net, and its `train_rounds` is the one backpropagation: the tests
gradient-check the update it makes. The ensembles follow online bagging:
every incoming example is shown to each member k times with k ~
Poisson(lambda), where

    OB   lambda = 1
    OOB  lambda = w_max / w_label   (oversamples the minority class)
    UOB  lambda = w_min / w_label   (undersamples the majority class)

and the w's are the tracker's time-decayed class sizes, read from the
`ImbalanceStatus` the caller hands in (`ClassSizeTracker.status`); while it
reports the stream as balanced, all three collapse to plain OB.

For speed the members' weights are stored stacked along a leading member axis
and updated in lockstep "rounds": in round j every member whose k exceeds j
takes one gradient step. Because members are independent, this is exactly
sequential per-member training, but each round costs one numpy call instead
of fifteen. An `OnlineEnsemble` goes one step further and stacks several
ensembles (one per sampler, as the harness runs one per pipeline) in the same
bank: one predict call and one set of rounds serve them all, while each keeps
its own Poisson generator, its own reset seeds and exactly the outputs it
would have alone.

A prequential step predicts, then trains on the example it predicted:
`OnlineEnsemble.predict(x)` keeps the example and the bank's forward pass on
it, and `train_one(label, status)` learns that example. With no reset in
between, the kept forward is round 0's forward in `MlpBank.train_rounds`
instead of being computed again: one forward pass per round, with the bits of
a fresh pass.
"""
from __future__ import annotations

import math

import numpy as np

from .imbalance import ImbalanceStatus
from .labels import NEG, POS

OB = "OB"
OOB = "OOB"
UOB = "UOB"
SAMPLERS = (OB, OOB, UOB)

N_CLASSES = 2
_CLASS_INDEX = {POS: 0, NEG: 1}


def default_hidden_size(n_features: int) -> int:
    """Half the total of input and output widths, rounded half up."""
    return int(math.floor((n_features + N_CLASSES) / 2.0 + 0.5))


def _sigmoid_in_place(z: np.ndarray) -> np.ndarray:
    """``1.0 / (1.0 + np.exp(-z))``, step by step in ``z``'s own buffer."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


class MlpBank:
    """``m`` independent one-hidden-layer nets with stacked weights.

    Weight shapes: W1 (m, h, d), b1 (m, h), W2 (m, 2, h), b2 (m, 2); member i
    is initialized from its own seeded generator with all entries uniform on
    [-0.5, 0.5].
    """

    def __init__(self, n_features, member_seeds, lr=0.1):
        self.n_features = int(n_features)
        self.hidden = default_hidden_size(n_features)
        self.lr = float(lr)
        self.n_members = m = len(member_seeds)
        h, d = self.hidden, self.n_features
        self.W1 = np.empty((m, h, d))
        self.b1 = np.empty((m, h))
        self.W2 = np.empty((m, N_CLASSES, h))
        self.b2 = np.empty((m, N_CLASSES))
        self.init_weights(member_seeds)

    def init_weights(self, member_seeds, first: int = 0) -> None:
        """Re-initialize members ``first`` .. ``first + len(member_seeds) - 1``."""
        if not 0 <= first <= first + len(member_seeds) <= self.n_members:
            raise ValueError("seeds must name members inside the bank")
        h, d = self.hidden, self.n_features
        for i, seed in enumerate(member_seeds, start=first):
            rng = np.random.default_rng(seed)
            self.W1[i] = rng.uniform(-0.5, 0.5, (h, d))
            self.b1[i] = rng.uniform(-0.5, 0.5, h)
            self.W2[i] = rng.uniform(-0.5, 0.5, (N_CLASSES, h))
            self.b2[i] = rng.uniform(-0.5, 0.5, N_CLASSES)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-member (hidden activations, class probabilities) for one input.

        The softmax takes the max and the sum of the two class columns with
        one elementwise call each: the values of ``max``/``sum`` over axis 1,
        without the cost of an axis reduction.
        """
        m, h = self.n_members, self.hidden
        z1 = (self.W1.reshape(m * h, self.n_features) @ x).reshape(m, h) + self.b1
        a1 = _sigmoid_in_place(z1)
        z2 = (self.W2 @ a1[:, :, None])[:, :, 0] + self.b2
        z2 -= np.maximum(z2[:, 0], z2[:, 1])[:, None]
        e = np.exp(z2)
        probs = e / (e[:, 0] + e[:, 1])[:, None]
        return a1, probs

    def train_rounds(
        self, x: np.ndarray, label: int, ks: np.ndarray, first=None
    ) -> None:
        """Give member i ``ks[i]`` sequential gradient steps on (x, label).

        ``first``, if given, is ``forward(x)`` on the current weights; it
        serves as round 0's forward pass instead of recomputing it, and its
        probabilities are overwritten.
        """
        if x.shape[0] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {x.shape[0]}"
            )
        cls = _CLASS_INDEX[label]
        max_k = int(ks.max()) if len(ks) else 0
        # step size per round and member: lr while the member's k lasts, else 0
        steps = np.where(ks > np.arange(max_k)[:, None], self.lr, 0.0)[:, :, None]
        for j in range(max_k):
            a1, probs = first if j == 0 and first is not None else self.forward(x)
            dz2 = probs  # dL/dz2 = probs - onehot(cls)
            dz2[:, cls] -= 1.0
            dz2 *= steps[j]
            da1 = (self.W2.transpose(0, 2, 1) @ dz2[:, :, None])[:, :, 0]
            self.W2 -= dz2[:, :, None] * a1[:, None, :]
            self.b2 -= dz2
            dz1 = da1 * a1 * (1.0 - a1)
            self.W1 -= dz1[:, :, None] * x
            self.b1 -= dz1


class OnlineEnsemble:
    """Online bagging ensembles, one per sampler, over one stacked MLP bank.

    Ensemble ``e`` owns bank rows ``e * n_members`` up to ``(e + 1) *
    n_members``, initialized from seeds ``[seed, reset_counts[e], i]``, and
    its own Poisson generator ``default_rng([seed, 1])``. The class sizes and
    the minority/majority designation that set the sampling rates are the
    caller's: `sampling_rates` and `train_one` take the tracker's
    `ImbalanceStatus`, so the designation is made once per step, by whoever
    owns the tracker and the threshold. Because bank rows are independent,
    every ensemble learns exactly as it would alone, so a one-sampler
    ensemble is the plain single-pipeline case.
    """

    def __init__(
        self,
        n_features: int,
        samplers=(OB,),
        n_members: int = 15,
        seed: int = 0,
        lr: float = 0.1,
    ):
        samplers = tuple(samplers)
        if not samplers:
            raise ValueError("need at least one sampler")
        for sampler in samplers:
            if sampler not in SAMPLERS:
                raise ValueError(
                    f"sampler must be one of {SAMPLERS}, got {sampler!r}"
                )
        if n_members < 1:
            raise ValueError("need at least one member")
        self.samplers = samplers
        self.seed = seed
        self.n_members = n_members
        self.reset_counts = [0] * len(samplers)
        self._poisson_rngs = [np.random.default_rng([seed, 1]) for _ in samplers]
        self._bank = MlpBank(
            n_features, self._member_seeds(0) * len(samplers), lr=lr
        )
        # the last predicted example and the bank's forward pass on it; a
        # reset makes the forward stale, and `train_one` consumes both
        self._x = self._forward = None

    def _member_seeds(self, reset_count: int):
        return [[self.seed, reset_count, i] for i in range(self.n_members)]

    def sampling_rates(self, label: int, status: ImbalanceStatus) -> list[float]:
        """Each ensemble's Poisson lambda for an example of ``label``, from
        the class sizes and designation in ``status``."""
        if status.minority is None:
            return [1.0] * len(self.samplers)
        w = status.sizes
        rate = {
            OB: 1.0,
            OOB: w[status.majority] / w[label],
            UOB: w[status.minority] / w[label],
        }
        return [rate[s] for s in self.samplers]

    def predict(self, features) -> tuple[np.ndarray, np.ndarray]:
        """(labels, scores), one entry per ensemble: a score is the mean
        positive-class probability of the ensemble's members.

        Ties at 0.5 go to the positive class. A copy of the example and the
        bank's forward pass on it are kept for `train_one`.
        """
        self._x = x = np.array(features, dtype=float)
        self._forward = forward = self._bank.forward(x)
        # sum / n: the bits of .mean(axis=1), without its Python wrapper
        scores = (
            forward[1][:, _CLASS_INDEX[POS]]
            .reshape(len(self.samplers), self.n_members)
            .sum(axis=1)
            / self.n_members
        )
        return np.where(scores >= 0.5, POS, NEG), scores

    def train_one(self, label, status: ImbalanceStatus) -> None:
        """Poisson-replicated bagging update of every ensemble on the example
        of the last `predict`, which this consumes; ``status`` is the
        tracker's designation after it absorbed ``label`` (as in
        `sampling_rates`)."""
        x, first = self._x, self._forward
        if x is None:
            raise RuntimeError("train_one needs a predicted example to learn")
        self._x = self._forward = None
        m = self.n_members
        ks = np.concatenate(
            [
                rng.poisson(lam, m)
                for rng, lam in zip(
                    self._poisson_rngs, self.sampling_rates(label, status)
                )
            ]
        )
        if ks.any():
            self._bank.train_rounds(x, label, ks, first=first)

    def reset(self, e: int) -> None:
        """Fresh weights for ensemble ``e`` from seeds derived off (seed, its
        reset count); the other ensembles are untouched."""
        self._forward = None
        self.reset_counts[e] += 1
        self._bank.init_weights(
            self._member_seeds(self.reset_counts[e]), first=e * self.n_members
        )

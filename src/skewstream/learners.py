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

A bank's kernel allocates nothing per call. Each `MlpBank` makes its work
buffers once: the hidden pre-activations and activations (one buffer), the
output pre-activations, the class-column max and sum, the exponentials, the
class probabilities, the backpropagated hidden error and its `(1 - a1)`
factor, and the two outer-product weight gradients; it also keeps the views
the kernel reads them and the weights through. `forward_in_place` and every
round of `train_rounds` write into those buffers, with the same ufunc and
matmul calls on the same operand shapes as a pass that allocates, so the bits
are those of a fresh pass. What `forward_in_place` returns is the bank's and
is overwritten by its next pass; `forward` returns copies, which are the
caller's.

A prequential step predicts, then trains on the example it predicted:
`OnlineEnsemble.predict(x)` keeps the example, and the bank's buffers keep
the forward pass on it, which `train_one(label, ks, top)` learns. With no
reset in between, round 0 of `MlpBank.train_rounds` reads that pass from the
buffers instead of computing it again: one forward pass per round.
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
    [-0.5, 0.5]. The weights are updated in place and stay the arrays made
    here: the kernel keeps views of them.

    The forward pass and every training round write into work buffers that
    the bank makes once (see the module docstring); `forward` hands back
    copies.
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
        # the views the kernel reads the weights through
        self._W1_flat = self.W1.reshape(m * h, d)
        self._W2_t = self.W2.transpose(0, 2, 1)
        # forward pass: a1 is z1's buffer, probs the softmax of z2
        self._a1 = np.empty((m, h))
        self._a1_flat = self._a1.reshape(m * h)
        self._a1_col = self._a1[:, :, None]
        self._a1_row = self._a1[:, None, :]
        z2_col = np.empty((m, N_CLASSES, 1))
        self._z2_col, self._z2 = z2_col, z2_col[:, :, 0]
        self._z2_cols = (self._z2[:, 0], self._z2[:, 1])
        self._cmax = np.empty(m)
        self._cmax_col = self._cmax[:, None]
        self._e = np.empty((m, N_CLASSES))
        self._e_cols = (self._e[:, 0], self._e[:, 1])
        self._csum = np.empty(m)
        self._csum_col = self._csum[:, None]
        self._probs = np.empty((m, N_CLASSES))
        self._probs_col = self._probs[:, :, None]
        self._probs_cols = (self._probs[:, 0], self._probs[:, 1])
        # backward pass: da1 and dz1 over the hidden units, the (1 - a1) term
        # and the two outer-product gradients
        da1_col = np.empty((m, h, 1))
        self._da1_col, self._da1 = da1_col, da1_col[:, :, 0]
        self._dz1 = np.empty((m, h))
        self._dz1_col = self._dz1[:, :, None]
        self._one_minus_a1 = np.empty((m, h))
        self._grad_W1 = np.empty((m, h, d))
        self._grad_W2 = np.empty((m, N_CLASSES, h))

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
        """Per-member (hidden activations, class probabilities) for one input,
        as arrays of the caller's own."""
        a1, probs = self.forward_in_place(x)
        return a1.copy(), probs.copy()

    def forward_in_place(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`forward`, left in the bank's buffers: the arrays returned are
        overwritten by the next forward pass or training round.

        The softmax takes the max and the sum of the two class columns with
        one elementwise call each: the values of ``max``/``sum`` over axis 1,
        without the cost of an axis reduction.
        """
        np.matmul(self._W1_flat, x, out=self._a1_flat)
        a1 = self._a1
        a1 += self.b1
        _sigmoid_in_place(a1)
        np.matmul(self.W2, self._a1_col, out=self._z2_col)
        z2 = self._z2
        z2 += self.b2
        np.maximum(*self._z2_cols, out=self._cmax)
        z2 -= self._cmax_col
        np.exp(z2, out=self._e)
        np.add(*self._e_cols, out=self._csum)
        np.divide(self._e, self._csum_col, out=self._probs)
        return a1, self._probs

    def train_rounds(
        self,
        x: np.ndarray,
        label: int,
        ks: np.ndarray,
        first: bool = False,
        max_k: int | None = None,
    ) -> None:
        """Give member i ``ks[i]`` sequential gradient steps on (x, label).

        ``first`` says that the buffers already hold ``forward_in_place(x)``
        on the current weights; round 0 then reads them (and overwrites the
        probabilities) instead of recomputing them. ``max_k``, when given, is
        ``ks.max()``.
        """
        if x.shape[0] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {x.shape[0]}"
            )
        if max_k is None:
            max_k = int(ks.max()) if len(ks) else 0
        # step size per round and member: lr while the member's k lasts, else 0
        steps = np.where(ks > np.arange(max_k)[:, None], self.lr, 0.0)[:, :, None]
        a1, dz2 = self._a1, self._probs  # dL/dz2 = probs - onehot(cls)
        dz2_cls = self._probs_cols[_CLASS_INDEX[label]]
        da1, dz1, one_minus_a1 = self._da1, self._dz1, self._one_minus_a1
        grad_W1, grad_W2 = self._grad_W1, self._grad_W2
        for j in range(max_k):
            if j or not first:
                self.forward_in_place(x)
            dz2_cls -= 1.0
            dz2 *= steps[j]
            np.matmul(self._W2_t, self._probs_col, out=self._da1_col)
            np.multiply(self._probs_col, self._a1_row, out=grad_W2)
            self.W2 -= grad_W2
            self.b2 -= dz2
            np.multiply(da1, a1, out=dz1)
            np.subtract(1.0, a1, out=one_minus_a1)
            dz1 *= one_minus_a1
            np.multiply(self._dz1_col, x, out=grad_W1)
            self.W1 -= grad_W1
            self.b1 -= dz1


class OnlineEnsemble:
    """Online bagging ensembles, one per sampler, over one stacked MLP bank.

    Ensemble ``e`` owns bank rows ``e * n_members`` up to ``(e + 1) *
    n_members``, initialized from seeds ``[seed, reset_counts[e], i]``, and
    its own Poisson generator ``default_rng([seed, 1])``. The class sizes and
    the minority/majority designation that set the sampling rates are the
    caller's: `sampling_rates` takes the tracker's `ImbalanceStatus`, so the
    designation is made once per step, by whoever owns the tracker and the
    threshold. Because bank rows are independent, every ensemble learns
    exactly as it would alone, so a one-sampler ensemble is the plain
    single-pipeline case.

    The caller plans the counts ahead: it collects a block of steps' rates,
    `draw_counts` draws them with one Poisson call per ensemble, and
    `train_one` takes one step's row. The rates never depend on the weights
    or on `reset`, which leaves the generators alone, so the counts are
    exactly those of a draw per step (see `draw_counts`).
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
        # the last predicted example, and whether the bank's buffers still
        # hold the forward pass on it (a reset makes it stale); `train_one`
        # consumes both
        self._x = None
        self._fresh = False

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

        Ties at 0.5 go to the positive class. A copy of the example is kept
        for `train_one`, and the bank's buffers keep the forward pass on it.
        """
        self._x = x = np.array(features, dtype=float)
        _, probs = self._bank.forward_in_place(x)
        self._fresh = True
        # sum / n: the bits of .mean(axis=1), without its Python wrapper
        scores = (
            probs[:, _CLASS_INDEX[POS]]
            .reshape(len(self.samplers), self.n_members)
            .sum(axis=1)
            / self.n_members
        )
        return np.where(scores >= 0.5, POS, NEG), scores

    def draw_counts(self, rates) -> np.ndarray:
        """Every bank row's Poisson count for each step of a block: row t of
        the result is step t's counts, and ensemble ``e``'s members draw from
        Poisson(``rates[t][e]``), as `sampling_rates` gives them.

        Each ensemble makes one call on its own generator for the whole
        block. numpy draws an array of rates element by element in C order,
        with the algorithm and generator words that one call per step with a
        scalar rate uses, so the counts, and the generator's state after
        them, are exactly those of drawing step by step.
        """
        rates = np.asarray(rates, dtype=float)
        n, m = len(rates), self.n_members
        return np.concatenate(
            [
                rng.poisson(rates[:, e, None], (n, m))
                for e, rng in enumerate(self._poisson_rngs)
            ],
            axis=1,
        )

    def train_one(self, label, ks: np.ndarray, top: int) -> None:
        """Bagging update of every ensemble on the example of the last
        `predict`, which this consumes: bank row i takes ``ks[i]`` gradient
        steps on it. ``ks`` is one step's row of `draw_counts`, and ``top``
        its maximum."""
        x, first = self._x, self._fresh
        if x is None:
            raise RuntimeError("train_one needs a predicted example to learn")
        if len(ks) != self._bank.n_members:
            raise ValueError(
                f"expected {self._bank.n_members} counts, got {len(ks)}"
            )
        self._x = None
        self._fresh = False
        if top:
            self._bank.train_rounds(x, label, ks, first=first, max_k=top)

    def reset(self, e: int) -> None:
        """Fresh weights for ensemble ``e`` from seeds derived off (seed, its
        reset count); the other ensembles are untouched."""
        self._fresh = False
        self.reset_counts[e] += 1
        self._bank.init_weights(
            self._member_seeds(self.reset_counts[e]), first=e * self.n_members
        )

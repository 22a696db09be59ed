"""Online learners: incremental MLP base models and Poisson-resampling ensembles.

The base learner is a one-hidden-layer MLP (sigmoid hidden units, softmax
output, cross-entropy loss), `default_hidden_size` units wide, trained by one
stochastic-gradient step per presented example. `MlpBank` holds every such
net, and its `backward_in_place` is the one backpropagation: the tests
gradient-check one round of the kernel as a `RowSchedule` makes it, on rows
with their own inputs, targets and step sizes. The ensembles
follow online bagging: every incoming example is shown to each member k times
with k ~ Poisson(lambda), where

    OB   lambda = 1
    OOB  lambda = w_max / w_label   (oversamples the minority class)
    UOB  lambda = w_min / w_label   (undersamples the majority class)

and the w's are the tracker's time-decayed class sizes, read from the
`ImbalanceStatus` the caller hands in (`ClassSizeTracker.status`); while it
reports the stream as balanced, all three collapse to plain OB.

The members' weights are stored stacked along the leading row axis of an
`MlpBank`, and the bank has one kernel, a *pass*: `forward_in_place` and
`backward_in_place` give every row one forward pass and one gradient step on
its own input, one-hot target and step size, and a step size of 0 leaves a
row's weights as they were. Rows are independent and the batched products
give each row the bits it gets alone, so one call serves every row. An
`OnlineEnsemble` stacks several ensembles (one per sampler, as the harness
runs one per pipeline) in the same bank; each keeps its own Poisson
generator, its own reset seeds and exactly the outputs it would have alone.

A run trains a planned block of steps with a `RowSchedule`: each bank row
lays out its own passes back to back, max(1, k) of them at each step (k its
Poisson count there), the first of which is the row's prediction of the step,
and each round runs every row's next pass. So a block takes as many rounds as
its busiest row has passes, not the sum over steps of the largest k. One
layout serves a new block and a reset's rewind alike, and a step's scores are
read from the history of rounds at its first passes. `OnlineEnsemble.predict`
and `train_one`, and `MlpBank.train_rounds`, are the one-step case of the
same kernel: row i takes ``ks[i]`` passes and then idles with step size 0
until the last row is done.

A bank's kernel allocates nothing per call. Each `MlpBank` keeps its weights
in one flat parameter buffer, W1, b1, W2 and b2 being C-contiguous views of
consecutive stretches of it, and their gradients in a flat gradient buffer of
the same layout: the two outer-product weight gradients, the hidden error dz1
and the output error dz2, which is the buffer of the class probabilities. So
a gradient step ends in one update, parameters minus gradients, which is
exact because every gradient is computed from the weights before it. The
bank also makes its other work buffers once: the one-input rows of `rows_of`,
the hidden pre-activations and activations (one buffer), the output
pre-activations, the class-column max and sum, the exponentials, the
backpropagated hidden error and its `(1 - a1)` factor; and it keeps the views
the kernel reads them through. `forward_in_place` and `backward_in_place`
write into those buffers, with the same ufunc and matmul calls on the same
operand shapes as a pass that allocates, so the bits are those of a fresh
pass. What `forward_in_place` returns is the bank's and is overwritten by its
next pass.
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
# each label's one-hot target over the class columns
_ONE_HOT = {label: np.eye(N_CLASSES)[i] for label, i in _CLASS_INDEX.items()}


def default_hidden_size(n_features: int) -> int:
    """Half the total of input and output widths, rounded half up."""
    return int(math.floor((n_features + N_CLASSES) / 2.0 + 0.5))


# the kernel's ufuncs, bound once: a round is some 25 calls on small arrays,
# so it pays for each name it looks up
_add, _subtract, _multiply, _divide = np.add, np.subtract, np.multiply, np.divide
_negative, _exp, _maximum, _matmul = np.negative, np.exp, np.maximum, np.matmul


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """C-contiguous views of consecutive stretches of ``flat``, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


class MlpBank:
    """``m`` independent one-hidden-layer nets with stacked weights.

    Weight shapes: W1 (m, h, d), b1 (m, h), W2 (m, 2, h), b2 (m, 2); member i
    is initialized from its own seeded generator with all entries uniform on
    [-0.5, 0.5]. The four are views of one flat parameter buffer, and their
    gradients views of one flat gradient buffer laid out alike, so that a
    gradient step is one subtraction of the two (see the module docstring).
    The weights are updated in place and stay the views made here: an
    assignment such as ``bank.W1 = ...`` would take W1 out of training.

    The kernel's two halves, `forward_in_place` and `backward_in_place`,
    take one input row per member and write into work buffers that the bank
    makes once.
    """

    def __init__(self, n_features, member_seeds, lr=0.1):
        self.n_features = int(n_features)
        self.hidden = default_hidden_size(n_features)
        self.lr = float(lr)
        self.n_members = m = len(member_seeds)
        h, d = self.hidden, self.n_features
        shapes = ((m, h, d), (m, h), (m, N_CLASSES, h), (m, N_CLASSES))
        size = sum(math.prod(shape) for shape in shapes)
        self._params = np.empty(size)
        self.W1, self.b1, self.W2, self.b2 = _views(self._params, shapes)
        self.init_weights(member_seeds)
        # each weight's gradient at its place; dz1 and dz2 are those of the
        # biases, and dz2 starts as the class probabilities
        self._grads = np.empty(size)
        self._grad_W1, self._dz1, self._grad_W2, self._probs = _views(
            self._grads, shapes
        )
        # the view the kernel reads W2 through
        self._W2_t = self.W2.transpose(0, 2, 1)
        # one input in every row (`rows_of`)
        self._X = np.empty((m, d))
        # forward pass: a1 is z1's buffer, probs the softmax of z2
        self._a1 = np.empty((m, h))
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
        self._probs_col = self._probs[:, :, None]
        self._probs_cols = (self._probs[:, 0], self._probs[:, 1])
        # backward pass: da1 over the hidden units and the (1 - a1) term
        da1_col = np.empty((m, h, 1))
        self._da1_col, self._da1 = da1_col, da1_col[:, :, 0]
        self._dz1_col = self._dz1[:, :, None]
        self._one_minus_a1 = np.empty((m, h))

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

    def rows_of(self, x) -> np.ndarray:
        """``x`` in every row of the bank's one-input buffer, which the next
        call overwrites."""
        if len(x) != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {len(x)}")
        self._X[:] = x
        return self._X

    def forward_in_place(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-member (hidden activations, class probabilities), member i on
        input ``X[i]``, left in the bank's buffers: the arrays returned are
        overwritten by the next pass.

        The hidden layer is one batched product ``W1 @ X[:, :, None]``, which
        gives each member the bits of a matrix-vector product on its input
        alone. The softmax takes the max and the sum of the two class columns
        with one elementwise call each: the values of ``max``/``sum`` over
        axis 1, without the cost of an axis reduction.
        """
        a1, z2 = self._a1, self._z2
        _matmul(self.W1, X[:, :, None], self._a1_col)
        _add(a1, self.b1, a1)
        # the sigmoid 1.0 / (1.0 + exp(-z1)), step by step in z1's buffer
        _negative(a1, a1)
        _exp(a1, a1)
        _add(a1, 1.0, a1)
        _divide(1.0, a1, a1)
        _matmul(self.W2, self._a1_col, self._z2_col)
        _add(z2, self.b2, z2)
        # a positional out is deprecated for maximum, and for it alone
        _maximum(*self._z2_cols, out=self._cmax)
        _subtract(z2, self._cmax_col, z2)
        _exp(z2, self._e)
        _add(*self._e_cols, self._csum)
        _divide(self._e, self._csum_col, self._probs)
        return a1, self._probs

    def backward_in_place(
        self, X: np.ndarray, T: np.ndarray, steps: np.ndarray
    ) -> None:
        """One gradient step per member on the forward pass in the buffers,
        which must be `forward_in_place(X)` on the current weights: member i
        moves ``steps[i, 0]`` times down the gradient of its cross-entropy
        on input ``X[i]`` and one-hot target ``T[i]`` (a step of 0 leaves it
        as it was). Overwrites the probabilities.

        Every gradient is computed from the weights before the step, so one
        subtraction of the gradient buffer updates all four weights."""
        a1, dz1, dz2 = self._a1, self._dz1, self._probs  # dz2 = probs - T
        _subtract(dz2, T, dz2)
        _multiply(dz2, steps, dz2)
        _matmul(self._W2_t, self._probs_col, self._da1_col)
        _multiply(self._probs_col, self._a1_row, self._grad_W2)
        _multiply(self._da1, a1, dz1)
        _subtract(1.0, a1, self._one_minus_a1)
        _multiply(dz1, self._one_minus_a1, dz1)
        _multiply(self._dz1_col, X[:, None, :], self._grad_W1)
        _subtract(self._params, self._grads, self._params)

    def train_rounds(self, x: np.ndarray, label: int, ks: np.ndarray) -> None:
        """Give member i ``ks[i]`` sequential gradient steps on (x, label):
        ``max(ks)`` passes of the kernel, in which a member whose k is spent
        takes step size 0."""
        X = self.rows_of(x)
        passes = int(ks.max()) if len(ks) else 0
        # step size per pass and member: lr while the member's k lasts, else 0
        steps = np.where(ks > np.arange(passes)[:, None], self.lr, 0.0)[:, :, None]
        T = _ONE_HOT[label]
        for j in range(passes):
            self.forward_in_place(X)
            self.backward_in_place(X, T, steps[j])


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
    `draw_counts` draws them with one Poisson call per ensemble, and a
    `RowSchedule` trains the whole block on them, or `train_one` one step's
    row. The rates never depend on the weights or on `reset`, which leaves
    the generators alone, so the counts are exactly those of a draw per step
    (see `draw_counts`).
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
        # the last predicted example, which `train_one` consumes
        self._x = None

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
        for `train_one`.
        """
        self._x = x = np.array(features, dtype=float)
        _, probs = self._bank.forward_in_place(self._bank.rows_of(x))
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

    def train_one(self, label, ks: np.ndarray) -> None:
        """Bagging update of every ensemble on the example of the last
        `predict`, which this consumes: bank row i takes ``ks[i]`` gradient
        steps on it. ``ks`` is one step's row of `draw_counts`."""
        x = self._x
        if x is None:
            raise RuntimeError("train_one needs a predicted example to learn")
        if len(ks) != self._bank.n_members:
            raise ValueError(
                f"expected {self._bank.n_members} counts, got {len(ks)}"
            )
        self._x = None
        self._bank.train_rounds(x, label, ks)

    def reset(self, e: int) -> None:
        """Fresh weights for ensemble ``e`` from seeds derived off (seed, its
        reset count); the other ensembles are untouched."""
        self.reset_counts[e] += 1
        self._bank.init_weights(
            self._member_seeds(self.reset_counts[e]), first=e * self.n_members
        )


class RowSchedule:
    """A planned block of steps, trained row by row on an `OnlineEnsemble`.

    Bank row r takes max(1, k) passes at each step of the block, k being its
    count there, one after another: each pass is one forward pass and one
    gradient step on the step's example, of size lr, or 0 when k is 0, and the
    first pass of a step is the row's prediction of it. Round j of `run` gives
    every row its next pass in one call of the bank's kernel and keeps the
    rows' positive-class probabilities in a history by round; a row whose
    passes are all done takes passes of size 0 on a zero input until the
    block is. A row's prediction of a step reads the weights its own passes at
    the steps before left, and rows are independent, so every row predicts
    and learns exactly as in a step-by-step run, while the block takes as
    many rounds as its busiest row has passes.

    A reset is the one thing that ties rows to a step: `rewind(e, t)` resets
    ensemble ``e`` after its detector has seen step ``t``, and its rows take
    their k passes at ``t`` again, without predicting it anew, then run on
    through the block. This is exact: a reset re-seeds the weights only, and
    the counts never read the weights.

    There is one layout, `_lay_out`: from the current round on, it places
    some rows' passes position by position in arrays of ``(positions, rows,
    ...)``, so that a round reads one position of each, and notes the
    position of each step's first pass. A new block lays out every row from
    step 0, and a rewind the reset rows from step ``t``. The scores of a step
    are read from the history at those positions.
    """

    def __init__(self, model: OnlineEnsemble, xs, labels, ks: np.ndarray):
        self._model = model
        self._ks = ks
        self.n_steps = n = len(ks)
        rows = ks.shape[1]
        self._cols = np.arange(rows)
        # by step, and the idle step n: a zero input and target, step size 0
        self._inputs = np.zeros((n + 1, np.shape(xs)[1]))
        self._inputs[:n] = xs
        positive = np.equal(labels, POS)
        self._targets = np.zeros((n + 1, N_CLASSES))
        self._targets[:n, _CLASS_INDEX[POS]] = positive
        self._targets[:n, _CLASS_INDEX[NEG]] = ~positive
        self._sizes = np.zeros((n + 1, rows))
        self._sizes[:n] = np.where(ks > 0, model._bank.lr, 0.0)
        # each step's first pass and each row's end, where it goes idle, as
        # positions; the idle step n's first pass is past every round
        self._first = np.empty((n + 1, rows), dtype=np.intp)
        self._first[n] = np.iinfo(np.intp).max
        self._ends = np.empty(rows, dtype=np.intp)
        self.round = 0
        self._lay_out(slice(None), 0, relearn=False)

    @property
    def finished(self) -> bool:
        """Whether every row has taken all of its passes."""
        return self.round >= self._ends.max()

    def run(self, rounds: int | None = None) -> None:
        """Run up to ``rounds`` more rounds, or all that are left, stopping
        when every row is done."""
        bank = self._model._bank
        forward, backward = bank.forward_in_place, bank.backward_in_place
        X, T, S, hist = self._X, self._T, self._S, self._hist
        positive = bank._probs_cols[_CLASS_INDEX[POS]]
        start, end = self.round, int(self._ends.max())
        stop = end if rounds is None else min(start + rounds, end)
        for j in range(start, stop):
            x = X[j]
            forward(x)
            np.copyto(hist[j], positive)
            backward(x, T[j], S[j])
        self.round = stop

    def predicted(self) -> list[int]:
        """For each ensemble, how many of the block's first steps every one of
        its rows has predicted."""
        step = self._step[self.round]
        # a row about to take a step's first pass has predicted the steps
        # before it; one past it, the step too
        done = step + (self._first[step, self._cols] < self.round)
        return done.reshape(-1, self._model.n_members).min(axis=1).tolist()

    def scores(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Every ensemble's scores of steps ``lo`` .. ``hi - 1``, as (steps,
        ensembles): the mean of its rows' predictions, with the bits of
        `OnlineEnsemble.predict`."""
        m = self._model.n_members
        first = self._first[lo : self.n_steps if hi is None else hi]
        preds = self._hist[first, self._cols]
        return preds.reshape(len(preds), -1, m).sum(axis=2) / m

    def rewind(self, e: int, t: int) -> None:
        """Reset ensemble ``e``, whose rows have all predicted step ``t``, and
        lay out its rows' passes from ``t`` on to start at the next round: the
        reset rows learn step t's example again, its prediction standing,
        then predict and learn the rest of the block."""
        self._model.reset(e)
        m = self._model.n_members
        self._lay_out(slice(e * m, (e + 1) * m), t, relearn=True)

    def _lay_out(self, rows: slice, t: int, relearn: bool) -> None:
        """Lay out the passes of ``rows`` at steps ``t`` .. n - 1 from the
        current round on, max(1, k) at each step, and idle positions after
        them. Rows that ``relearn`` step t, having predicted it, take only
        its k passes there. A new block's arrays are made here; a rewind
        writes into them, lengthened first if its rows end past them."""
        j, n = self.round, self.n_steps
        passes = np.maximum(self._ks[t:, rows], 1)
        if relearn:
            passes[0] = self._ks[t, rows]
        ends = j + passes.cumsum(axis=0)
        starts = ends - passes
        first = t + 1 if relearn else t
        self._first[first:n, rows] = starts[first - t :]
        self._ends[rows] = ends[-1]
        size = int(ends[-1].max()) + 1  # an idle position past the last
        if relearn:
            if size > len(self._step):
                self._grow(size)
            size = len(self._step)
        # the step of each position, n once a row is idle, counted up from t
        # at marks where a row's next step starts
        cols = np.arange(passes.shape[1])
        step = np.zeros((size - j, len(cols)), dtype=np.intp)
        step[starts[1:] - j, cols] = 1
        step[ends[-1] - j, cols] = 1
        np.cumsum(step, axis=0, out=step)
        step += t
        X, T = self._inputs.take(step, axis=0), self._targets.take(step, axis=0)
        S = np.take_along_axis(self._sizes[:, rows], step, axis=0)[:, :, None]
        if relearn:
            self._step[j:, rows], self._X[j:, rows] = step, X
            self._T[j:, rows], self._S[j:, rows] = T, S
        else:
            self._step, self._X, self._T, self._S = step, X, T, S
            # each round's positive-class probabilities, as `run` takes them
            self._hist = np.empty(step.shape)

    def _grow(self, size: int) -> None:
        """Lengthen the position arrays and the history to ``size`` with idle
        positions, one at a time, so that no more than one is held twice."""
        arrays = ("_step", "_X", "_T", "_S", "_hist")
        for name, idle in zip(arrays, (self.n_steps, 0.0, 0.0, 0.0, 0.0)):
            a = getattr(self, name)
            grown = np.full((size,) + a.shape[1:], idle, dtype=a.dtype)
            grown[: len(a)] = a
            setattr(self, name, grown)

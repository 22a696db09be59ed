"""Online learners: incremental MLP base models and Poisson-resampling ensembles.

The base learner is a one-hidden-layer MLP (sigmoid hidden units, softmax
output, cross-entropy loss), `default_hidden_size` units wide, trained by one
stochastic-gradient step per presented example. `MlpBank` holds every such
net, and its `kernel` is the one forward pass and the one backpropagation:
the tests gradient-check one round of it as a `RowSchedule` makes it, on rows
with their own inputs, targets and step sizes. The ensembles
follow online bagging: every incoming example is shown to each member k times
with k ~ Poisson(lambda), where

    OB   lambda = 1
    OOB  lambda = w_max / w_label   (oversamples the minority class)
    UOB  lambda = w_min / w_label   (undersamples the majority class)

and the w's are the tracker's time-decayed class sizes after the example's
label. `OnlineEnsemble.sampling_rates` computes a stretch of steps' rates at
once, as array code, from the size arrays that `ClassSizeTracker.track`
hands over and the minorities that `designate` names from them; where the
stream looks balanced, all three collapse to plain OB.

The members' weights are stored stacked along the leading row axis of an
`MlpBank`, and the bank has one kernel, a *pass*: `kernel` gives every row
one forward pass and one gradient step on its own input, one-hot target and
step size, and a step size of 0 leaves a row's weights as they were. Rows
are independent and the batched products give each row the bits it gets
alone, so one call serves every row. An `OnlineEnsemble` stacks several
ensembles (one per sampler, as the run engine runs one per pipeline) in the
same bank; each keeps its own Poisson generator, its own reset seeds and
exactly the outputs it would have alone.

A run trains a planned block of steps with a `RowSchedule`: each bank row
lays out its own passes back to back, max(1, k) of them at each step (k its
Poisson count there), the first of which is the row's prediction of the step,
and each round runs every row's next pass. So a block takes as many rounds as
its busiest row has passes, not the sum over steps of the largest k. One
layout serves a new block and a reset's rewind alike, and a step's scores are
read from the history of rounds at its first passes. A run makes one
schedule, which lays each block out in buffers it keeps for the run; they
grow only when a block or a rewind needs more positions than any before.

A bank's kernel allocates nothing and looks nothing up per call. Each
`MlpBank` keeps its weights in one flat parameter buffer, the four weight
arrays being C-contiguous views of consecutive stretches of it, and their
gradients in a flat gradient buffer of the same layout: the two
outer-product weight gradients, the hidden error and the output error dz2,
which is the buffer of the class probabilities. So a gradient step ends in
one update, parameters minus gradients, which is exact because every
gradient is computed from the weights before it. The bank also makes its
other work buffers once: the hidden pre-activations and activations (one
buffer), the output pre-activations, the class-column max and sum, the
exponentials, the backpropagated hidden error and its ``(a1 - 1)`` factor.
When it is made, it binds these buffers, the views the kernel reads them
through and the kernel's numpy callables (the module names ``_add`` to
``_copyto`` below) as the locals of one function, its `kernel`, which
`RowSchedule.run` calls once per round with the round's operands. A round
is 24 numpy calls: 14 for the forward pass, one to copy the rows' P(+1)
into the schedule's history, and 9 for the gradient step.

The hidden layer is stored negated, as ``neg_W1`` and ``neg_b1``, so that
the stored pair computes -z1 and the sigmoid, 1.0 / (1.0 + exp(-z1)), takes
no negation. The gradient buffer holds the gradient of what is stored: the
negated layer's error is -dz1 = da1 * a1 * (a1 - 1), and its weight
gradient the outer product of -dz1 with the input, so that the one update
moves the stored weights by the negation of the textbook step. Negation and
the swapped subtraction (``a1 - 1`` for ``1 - a1``) are exact in IEEE
round-to-nearest arithmetic, and a batched product with negated weights is
the negated product, so every score and weight has the bits of the textbook
kernel (the tests' frozen reference). `init_weights` draws the textbook
weights and stores the hidden part negated. A round's step sizes come per
class column, each row's size in both columns of a (rows, 2) array, so that
one elementwise call on operands of the output error's shape scales it.

A round's elementwise calls, but for the two outer products, take numpy's
one-loop path and set up no general iterator: the two column broadcasts of
the softmax (the outputs minus their max, the exponentials over their sum)
are one 1-D call per class column, and the 1.0 of the sigmoid and of
``a1 - 1`` is a 0-d array, which numpy does not convert on every call as it
does a Python float. The two outer products run through views of their
buffers with the row axis last, in C order, so that each inner loop runs
over the rows, not over a row's two or three elements. Each element gets
the same operation on the same operands either way.
"""
from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .imbalance import designate
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


# the kernel's numpy callables, which each bank binds as it is made: a round
# is 24 calls on small arrays, so it pays for each name it looks up
_add, _subtract, _multiply, _divide = np.add, np.subtract, np.multiply, np.divide
_exp, _maximum, _matmul, _copyto = np.exp, np.maximum, np.matmul, np.copyto
# the kernel's 1.0, read-only: numpy takes a 0-d array operand as it is, and
# converts a Python float on every call
_ONE = np.array(1.0)
_ONE.flags.writeable = False


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

    Member i's weights W1 (h, d), b1 (h,), W2 (2, h) and b2 (2,) are
    initialized from its own seeded generator with all entries uniform on
    [-0.5, 0.5]. The bank stores the hidden layer negated, as ``neg_W1``
    (m, h, d) and ``neg_b1`` (m, h), and the output layer as it is, as
    ``W2`` (m, 2, h) and ``b2`` (m, 2) (see the module docstring). The four
    are views of one flat parameter buffer, and their gradients views of one
    flat gradient buffer laid out alike, so that a gradient step is one
    subtraction of the two. The weights are updated in place and stay the
    views made here: an assignment such as ``bank.W2 = ...`` would take W2
    out of training.

    `kernel`, bound when the bank is made, is the bank's one kernel: a pass
    on one input row per member, in work buffers that the bank makes once.
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
        self.neg_W1, self.neg_b1, self.W2, self.b2 = _views(self._params, shapes)
        # by member, the places of its weights in the parameter buffer, in
        # the order W1, b1, W2, b2 that `init_weights` draws them in, and
        # how many of them, from the first, are the hidden layer's
        self._member_at = np.concatenate(
            [a.reshape(m, -1) for a in _views(np.arange(size), shapes)], axis=1
        )
        self._n_hidden = h * d + h
        self.init_weights(member_seeds)
        # each stored weight's gradient at its place; -dz1 and dz2 are those
        # of the biases, and dz2 starts as the class probabilities
        self._grads = np.empty(size)
        self._grad_neg_W1, self._neg_dz1, self._grad_W2, self._probs = _views(
            self._grads, shapes
        )
        # the view the kernel reads W2 through
        self._W2_t = self.W2.transpose(0, 2, 1)
        # forward pass: a1 is -z1's buffer, probs the softmax of z2
        self._a1 = np.empty((m, h))
        self._a1_col = self._a1[:, :, None]
        z2_col = np.empty((m, N_CLASSES, 1))
        self._z2_col, self._z2 = z2_col, z2_col[:, :, 0]
        self._z2_cols = (self._z2[:, 0], self._z2[:, 1])
        self._cmax = np.empty(m)
        self._e = np.empty((m, N_CLASSES))
        self._e_cols = (self._e[:, 0], self._e[:, 1])
        self._csum = np.empty(m)
        self._probs_col = self._probs[:, :, None]
        self._probs_cols = (self._probs[:, 0], self._probs[:, 1])
        # backward pass: da1 over the hidden units and the (a1 - 1) term
        da1_col = np.empty((m, h, 1))
        self._da1_col, self._da1 = da1_col, da1_col[:, :, 0]
        self._a1_minus_one = np.empty((m, h))
        # "_rl": views with the row axis last, through which the outer
        # products run in C order, rows innermost: one inner loop over the
        # rows per weight, not one of two or three elements per row
        self._probs_rl_col = self._probs.T[:, None, :]
        self._a1_rl = self._a1.T
        self._neg_dz1_rl_col = self._neg_dz1.T[:, None, :]
        self._grad_neg_W1_rl = self._grad_neg_W1.transpose(1, 2, 0)
        self._grad_W2_rl = self._grad_W2.transpose(1, 2, 0)
        self.kernel = self._bind_kernel()

    def init_weights(self, member_seeds, first: int = 0) -> None:
        """Re-initialize members ``first`` .. ``first + len(member_seeds) - 1``."""
        if not 0 <= first <= first + len(member_seeds) <= self.n_members:
            raise ValueError("seeds must name members inside the bank")
        # one draw per member, of the doubles that four draws for W1, b1, W2
        # and b2 in turn would give, the hidden layer's stored negated
        at = self._member_at[first : first + len(member_seeds)]
        hidden = self._n_hidden
        for seed, places in zip(member_seeds, at):
            weights = np.random.default_rng(seed).uniform(-0.5, 0.5, len(places))
            np.negative(weights[:hidden], out=weights[:hidden])
            self._params[places] = weights

    def _bind_kernel(self):
        """The bank's kernel, with every buffer, view and numpy callable it
        uses bound as a local, so that a call looks nothing up:

        ``kernel(X)`` is a forward pass, member i on input ``X[i]``, and
        returns the per-member (hidden activations, class probabilities),
        left in the bank's buffers: the arrays returned are overwritten by
        the next pass.

        ``kernel(X, T, S, score)`` is a whole pass, a round of a
        `RowSchedule`: the forward pass, then each member's P(+1) copied into
        ``score``, then one gradient step per member. ``S[i]`` is member i's
        step size, the same in both class columns, and the step moves the
        member that many times down the gradient of its cross-entropy on
        input ``X[i]`` and one-hot target ``T[i]`` (a step of 0 leaves it as
        it was).

        The hidden layer is one batched product, which gives each member the
        bits of a matrix-vector product on its input alone. The softmax
        takes the max and the sum of the two class columns with one
        elementwise call each: the values of ``max``/``sum`` over axis 1,
        without the cost of an axis reduction. Every gradient is computed
        from the weights before the step, so one subtraction of the gradient
        buffer updates all four weights.
        """
        add, subtract, multiply, divide = _add, _subtract, _multiply, _divide
        exp, maximum, matmul, copyto, one = _exp, _maximum, _matmul, _copyto, _ONE
        params, grads = self._params, self._grads
        neg_W1, neg_b1, W2, b2 = self.neg_W1, self.neg_b1, self.W2, self.b2
        W2_t = self._W2_t
        a1, a1_col, a1_rl, a1_minus_one = (
            self._a1, self._a1_col, self._a1_rl, self._a1_minus_one
        )
        z2, z2_col, (z0, z1), cmax = self._z2, self._z2_col, self._z2_cols, self._cmax
        e, (e0, e1), csum = self._e, self._e_cols, self._csum
        probs, (p0, p1) = self._probs, self._probs_cols
        probs_col, probs_rl_col = self._probs_col, self._probs_rl_col
        positive = self._probs_cols[_CLASS_INDEX[POS]]
        da1, da1_col = self._da1, self._da1_col
        neg_dz1, neg_dz1_rl_col = self._neg_dz1, self._neg_dz1_rl_col
        grad_neg_W1_rl, grad_W2_rl = self._grad_neg_W1_rl, self._grad_W2_rl

        def kernel(X, T=None, S=None, score=None):
            # -z1, from the negated hidden layer, in a1's buffer; then the
            # sigmoid 1.0 / (1.0 + exp(-z1)) step by step
            matmul(neg_W1, X[:, :, None], a1_col)
            add(a1, neg_b1, a1)
            exp(a1, a1)
            add(a1, one, a1)
            divide(one, a1, a1)
            matmul(W2, a1_col, z2_col)
            add(z2, b2, z2)
            # a positional out is deprecated for maximum, and for it alone
            maximum(z0, z1, out=cmax)
            subtract(z0, cmax, z0)
            subtract(z1, cmax, z1)
            exp(z2, e)
            add(e0, e1, csum)
            divide(e0, csum, p0)
            divide(e1, csum, p1)
            if T is None:
                return a1, probs
            copyto(score, positive)
            # dz2 = (probs - T) times the step sizes, in the probabilities
            subtract(probs, T, probs)
            multiply(probs, S, probs)
            matmul(W2_t, probs_col, da1_col)
            multiply(probs_rl_col, a1_rl, grad_W2_rl, order="C")
            # -dz1 = da1 * a1 * (a1 - 1), the gradient of the negated layer
            multiply(da1, a1, neg_dz1)
            subtract(a1, one, a1_minus_one)
            multiply(neg_dz1, a1_minus_one, neg_dz1)
            multiply(neg_dz1_rl_col, X.T, grad_neg_W1_rl, order="C")
            subtract(params, grads, params)

        return kernel


class OnlineEnsemble:
    """Online bagging ensembles, one per sampler, over one stacked MLP bank.

    Ensemble ``e`` owns bank rows ``e * n_members`` up to ``(e + 1) *
    n_members``, initialized from seeds ``[seed, reset_counts[e], i]``, and
    its own Poisson generator ``default_rng([seed, 1])``. The class sizes
    that set the sampling rates are the caller's, with the designation
    threshold: `sampling_rates` takes a stretch of steps' sizes and labels
    and hands back their minorities with every ensemble's rates, so the
    designation is made once per step for all ensembles and the detectors.
    Because bank rows are independent, every ensemble learns exactly as it
    would alone, so a one-sampler ensemble is the plain single-pipeline case.

    The caller plans the counts ahead: it collects a block of steps' rates,
    `draw_counts` draws them with one Poisson call per ensemble, and a
    `RowSchedule` predicts and trains the whole block on them. The rates
    never depend on the weights or on `reset`, which leaves the generators
    alone, so the counts are exactly those of a draw per step (see
    `draw_counts`).
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

    def _member_seeds(self, reset_count: int):
        return [[self.seed, reset_count, i] for i in range(self.n_members)]

    def sampling_rates(
        self, labels, w_pos: np.ndarray, w_neg: np.ndarray, threshold: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """A stretch of steps' ``(minority, rates)``: each step's minority as
        `designate` names it from the class sizes ``w_pos``/``w_neg`` after
        the step's label, and ``rates[t, e]``, ensemble ``e``'s Poisson
        lambda for the example of ``labels[t]``, as `draw_counts` takes them.

        Where no minority is designated every rate is 1. A float64 numpy
        division rounds as a Python float division does, so each rate has
        the bits of one computed step by step.
        """
        minority = designate(w_pos, w_neg, threshold)
        designated = minority != 0
        w_label = np.where(np.equal(labels, POS), w_pos, w_neg)
        pos_minor = minority == POS
        rate = {OB: np.ones(len(minority))}
        for sampler, w in (
            (OOB, np.where(pos_minor, w_neg, w_pos)),  # the majority's size
            (UOB, np.where(pos_minor, w_pos, w_neg)),  # the minority's
        ):
            if sampler in self.samplers:
                rate[sampler] = np.divide(
                    w, w_label, out=np.ones(len(w)), where=designated
                )
        return minority, np.stack([rate[s] for s in self.samplers], axis=1)

    def draw_counts(self, rates) -> np.ndarray:
        """Every bank row's Poisson count for each step of a block: row t of
        the result is step t's counts, and ensemble ``e``'s members draw from
        Poisson(``rates[t, e]``), as `sampling_rates` gives them.

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

    def reset(self, e: int) -> None:
        """Fresh weights for ensemble ``e`` from seeds derived off (seed, its
        reset count); the other ensembles are untouched."""
        self.reset_counts[e] += 1
        self._bank.init_weights(
            self._member_seeds(self.reset_counts[e]), first=e * self.n_members
        )


class RowSchedule:
    """A run's planned blocks of steps, each trained row by row on an
    `OnlineEnsemble`.

    Bank row r takes max(1, k) passes at each step of a block, k being its
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
    ...)``, so that a round reads one position of each. It numbers each row's
    positions with one repeat of the row's step codes by its passes (a code
    is 2 * step, plus 1 where the row trains at the step), and reads the
    inputs, targets and step sizes by code. It also notes the position of
    each step's first pass, and for each ensemble the latest of those over
    its rows. `start` lays out every row of a new block from step 0, and a
    rewind the reset rows from step ``t``. The steps an ensemble has
    predicted are those whose latest first pass lies before the current
    round, and their scores are read from the history at their first passes.

    One schedule serves a run, and its buffers are kept from block to block:
    the per-step tables hold up to ``max_steps`` steps and the idle step
    after them, and the position arrays and the history grow to exactly the
    positions that a block or a rewind needs, and are written in place.
    """

    def __init__(self, model: OnlineEnsemble, max_steps: int):
        self._model = model
        bank = model._bank
        rows, d = bank.n_members, bank.n_features
        self._cols = np.arange(rows)
        # by row and step: the block's Poisson counts, and the codes, 2 *
        # step + 1 where the row trains (k > 0) and 2 * step where it only
        # predicts; a block's idle step n after its n steps has code 2n
        self._ks = np.empty((rows, max_steps), dtype=np.intp)
        self._codes = np.empty((rows, max_steps + 1), dtype=np.intp)
        self._evens = np.arange(0, 2 * max_steps, 2)
        # by code: each step's input and target (twice), a zero input and
        # target at the idle step, and the step size, lr or 0, in both class
        # columns
        self._inputs = np.empty((2 * max_steps + 1, d))
        self._targets = np.empty((2 * max_steps + 1, N_CLASSES))
        self._sizes = np.tile([[0.0], [bank.lr]], (max_steps + 1, N_CLASSES))
        # by ensemble, each step's first pass of each of its rows, as an
        # index into the flat history, position * rows + row
        m = model.n_members
        self._first = np.empty((len(model.samplers), max_steps, m), dtype=np.intp)
        # per ensemble, the latest of each step's first passes over its rows:
        # ascending, so the steps all of its rows have predicted by a round
        # are the ones before a bisection at it
        self._latest: list[list[int]] = []
        # each row's end, where it goes idle, and the last of them
        self._ends = np.zeros(rows, dtype=np.intp)
        self._last = 0
        # by position, the first `_length` of them the block's: each row's
        # code, input, target and step size there, and the history
        self._code = np.empty((0, rows), dtype=np.intp)
        self._X = np.empty((0, rows, d))
        self._T = np.empty((0, rows, N_CLASSES))
        self._S = np.empty((0, rows, N_CLASSES))
        self._hist = np.empty((0, rows))
        self._length = self.n_steps = self.round = 0

    def start(self, xs, labels, ks: np.ndarray) -> None:
        """Lay out a new block of ``len(ks)`` steps, to run from round 0: row
        t of ``xs`` and of ``ks`` are step t's input and Poisson counts, and
        ``labels[t]`` its label."""
        self.n_steps = n = len(ks)
        ks_by_row = self._ks[:, :n]
        ks_by_row[...] = ks.T
        codes = self._codes[:, :n]
        np.minimum(ks_by_row, 1, out=codes)
        codes += self._evens[:n]
        self._codes[:, n] = 2 * n
        self._inputs[: 2 * n].reshape(n, 2, -1)[...] = xs[:, None]
        positive = np.equal(labels, POS)[:, None]
        targets = self._targets[: 2 * n].reshape(n, 2, N_CLASSES)
        targets[:, :, _CLASS_INDEX[POS]] = positive
        targets[:, :, _CLASS_INDEX[NEG]] = ~positive
        self._inputs[2 * n] = self._targets[2 * n] = 0.0
        self._latest = [[] for _ in self._model.samplers]
        self.round = self._length = 0
        self._lay_out(slice(0, len(self._cols)), 0, relearn=False)

    @property
    def finished(self) -> bool:
        """Whether every row has taken all of its passes."""
        return self.round >= self._last

    def run(self, rounds: int | None = None) -> None:
        """Run up to ``rounds`` more rounds, or all that are left, stopping
        when every row is done."""
        kernel = self._model._bank.kernel
        start, end = self.round, self._last
        stop = end if rounds is None else min(start + rounds, end)
        at = slice(start, stop)
        X, T, S, hist = self._X[at], self._T[at], self._S[at], self._hist[at]
        for x, t, s, score in zip(X, T, S, hist):
            kernel(x, t, s, score)
        self.round = stop

    def predicted(self) -> list[int]:
        """For each ensemble, how many of the block's first steps every one of
        its rows has predicted: the steps whose latest first pass over its
        rows lies before the current round, a prefix of the block."""
        return [bisect_left(latest, self.round) for latest in self._latest]

    def scores(self, lo: int = 0, hi: int | None = None, e: int | None = None):
        """Every ensemble's scores of steps ``lo`` .. ``hi - 1``, as (steps,
        ensembles), or with ``e`` ensemble e's alone, as (steps,): the mean
        of its rows' positive-class probabilities at the steps' first passes,
        their sum over the rows divided by the members, which has the bits
        of numpy's ``mean`` over them. Every row read must have predicted
        those steps (`predicted`): the history holds nothing else at a step's
        first pass."""
        m = self._model.n_members
        hist = self._hist.reshape(-1)
        steps = slice(lo, self.n_steps if hi is None else hi)
        if e is not None:
            return np.add.reduce(hist.take(self._first[e, steps]), 1) / m
        return (np.add.reduce(hist.take(self._first[:, steps]), 2) / m).T

    def rewind(self, e: int, t: int) -> None:
        """Reset ensemble ``e``, whose rows have all predicted step ``t``, and
        lay out its rows' passes from ``t`` on to start at the next round: the
        reset rows learn step t's example again, its prediction standing,
        then predict and learn the rest of the block."""
        self._model.reset(e)
        m = self._model.n_members
        self._lay_out(slice(e * m, (e + 1) * m), t, relearn=True)

    def _lay_out(self, rows: slice, t: int, relearn: bool) -> None:
        """Lay out the passes of ``rows``, whole ensembles, at steps t .. n -
        1 from the current round on, max(1, k) at each step, and idle
        positions after them. Rows that ``relearn`` step t, having predicted
        it, take only its k passes there. The block's positions run to an
        idle one past the last pass of any row; where a rewind adds
        positions, the other rows idle there."""
        j, n, m = self.round, self.n_steps, self._model.n_members
        # by row: the passes at each step, then the positions idle to the end
        repeats = np.empty((rows.stop - rows.start, n - t + 1), dtype=np.intp)
        passes = repeats[:, :-1]
        np.maximum(self._ks[rows, t:n], 1, out=passes)
        if relearn:
            passes[:, 0] = self._ks[rows, t]
        ends = passes.cumsum(axis=1)
        ends += j
        starts = ends - passes
        first = t + 1 if relearn else t
        starts = starts[:, first - t :].reshape(len(starts) // m, m, n - first)
        ensembles = slice(rows.start // m, rows.stop // m)
        firsts = self._first[ensembles, first:n]
        np.multiply(starts.transpose(0, 2, 1), len(self._cols), out=firsts)
        firsts += self._cols[rows].reshape(-1, 1, m)
        for e, steps in enumerate(starts.max(axis=1).tolist(), ensembles.start):
            self._latest[e][first:] = steps
        self._ends[rows] = last = ends[:, -1]
        self._last = int(self._ends.max())
        kept, length = self._length, int(last.max()) + 1
        if length > kept:
            self._reserve(length, kept)
            for a in (self._X, self._T, self._S):
                a[kept:length, : rows.start] = 0.0
                a[kept:length, rows.stop :] = 0.0
            self._length = length
        end = self._length
        np.subtract(end, last, out=repeats[:, -1])
        # each row's codes, each repeated by its passes at the step, the
        # idle one to the end, written position by position
        codes = np.repeat(self._codes[rows, t : n + 1], repeats.reshape(-1))
        code = self._code[j:end, rows]
        code[...] = codes.reshape(len(repeats), -1).T
        # every index is in range; with mode "raise", `take` would write
        # into a copy of ``out`` first
        X, T, S = self._X[j:end, rows], self._T[j:end, rows], self._S[j:end, rows]
        np.take(self._inputs, code, axis=0, out=X, mode="clip")
        np.take(self._targets, code, axis=0, out=T, mode="clip")
        np.take(self._sizes, code, axis=0, out=S, mode="clip")

    def _reserve(self, length: int, kept: int) -> None:
        """Make the position arrays and the history hold ``length``
        positions, keeping their first ``kept``. An array that is short is
        grown to exactly ``length``, one at a time, so that no more than one
        is held twice."""
        for name in ("_code", "_X", "_T", "_S", "_hist"):
            a = getattr(self, name)
            if len(a) < length:
                grown = np.empty((length,) + a.shape[1:], dtype=a.dtype)
                grown[:kept] = a[:kept]
                setattr(self, name, grown)

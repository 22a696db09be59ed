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

A run trains its planned blocks of steps with one `RowSchedule`: each bank
row lays out its own passes back to back, max(1, k) of them at each step (k
its Poisson count there), the first of which is the row's prediction of the
step, and each round runs every row's next pass. A row runs on from one
block into the next, planned one block ahead, so no row waits for another at
a block's end either, and a run without a reset takes as many rounds as its
busiest row has passes over the whole run, not the sum over steps of the
largest k. One layout serves a new block and a reset's rewind alike, and a
step's scores are read from the history of rounds at its first passes. The
schedule keeps its buffers for the run; they grow only when the blocks it
holds need more positions than ever before.

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
    """A run's planned steps, trained row by row on an `OnlineEnsemble`, up
    to two blocks of them at a time.

    Bank row r takes max(1, k) passes at each step, k being its count there,
    one after another: each pass is one forward pass and one gradient step on
    the step's example, of size lr, or 0 when k is 0, and the first pass of a
    step is the row's prediction of it. Round j of `run` gives every row its
    next pass in one call of the bank's kernel and keeps the rows'
    positive-class probabilities in a history by round. A row's passes run
    on from block to block: a row that has taken all of its passes of one
    block takes its first pass of the next in its next round, and only a row
    with no planned pass left takes passes of size 0 on a zero input. A
    row's prediction of a step reads the weights its own passes at the steps
    before left, and rows are independent, so every row predicts and learns
    exactly as in a step-by-step run, and a run whose busiest row never
    waits for a block to be planned takes as many rounds as that row has
    passes.

    Steps are numbered over the run. `add` plans the next block, every block
    but a run's last ``block_steps`` long, and lays its passes out after each
    row's last planned pass; the schedule holds at most two blocks, the
    oldest from step `retired` and the rest to step `planned`. Once every
    row is past the oldest block (`can_retire`), `retire` hands back its
    scores and frees its steps. The per-step tables are a ring of two
    blocks, step s in slot s mod 2 * ``block_steps``.

    A reset is the one thing that ties rows to a step: `rewind(e, t)` resets
    ensemble ``e`` after its detector has seen step ``t``, and its rows take
    their k passes at ``t`` again, without predicting it anew, then run on
    through every planned step. This is exact: a reset re-seeds the weights
    only, and the counts never read the weights.

    There is one layout, `_lay_out`: it places some rows' passes position by
    position, each row from a position of its own, as codes in an array of
    ``(positions, rows)`` (a code is 2 * slot, plus 1 where the row trains at
    the step; positions past a row's last pass hold the idle code). It also
    notes the position of each step's first pass, and for each ensemble the
    latest of those over its rows. The steps an ensemble has predicted are
    those whose latest first pass lies before the current round, and their
    scores are read from the history at their first passes. `run` reads the
    inputs, targets and step sizes of up to ``block_steps`` rounds at a time
    by code into a window, which a layout empties.

    The codes and the history hold the positions from the earliest first
    pass of a held step on; `retire` moves them to the front of their
    arrays, which grow only when the held steps need more positions than
    ever before.
    """

    def __init__(self, model: OnlineEnsemble, block_steps: int):
        self._model = model
        bank = model._bank
        rows, d = bank.n_members, bank.n_features
        self._cols = np.arange(rows)
        self._block = block_steps
        self._n_slots = slots = 2 * block_steps
        # by row and slot: the Poisson counts, and the codes, 2 * slot + 1
        # where the row trains (k > 0) and 2 * slot where it only predicts
        self._ks = np.empty((rows, slots), dtype=np.intp)
        self._codes = np.empty((rows, slots), dtype=np.intp)
        self._evens = np.arange(0, 2 * slots, 2)
        # by code: each step's input and target (twice), and the step size,
        # lr or 0, in both class columns; the idle code 2 * slots has a zero
        # input and target and the step size 0
        self._idle = 2 * slots
        self._inputs = np.zeros((2 * slots + 1, d))
        self._targets = np.zeros((2 * slots + 1, N_CLASSES))
        self._sizes = np.tile([[0.0], [bank.lr]], (slots + 1, N_CLASSES))
        # by ensemble and slot, the step's first pass of each of its rows, as
        # an index into the flat history, (position - base) * rows + row
        m = model.n_members
        self._first = np.empty((len(model.samplers), slots, m), dtype=np.intp)
        # per ensemble, the latest of each held step's first passes over its
        # rows: ascending, so the steps all of its rows have predicted by a
        # round are the ones before a bisection at it
        self._latest: list[list[int]] = [[] for _ in model.samplers]
        # each row's end, where its planned passes stop, the last of them, and
        # the round by which every row is past the oldest block
        self._ends = np.zeros(rows, dtype=np.intp)
        self._last = self._oldest_end = 0
        # by position from `_base` on: each row's code there, and the history
        self._base = 0
        self._code = np.empty((0, rows), dtype=np.intp)
        self._hist = np.empty((0, rows))
        # the window: inputs, targets and step sizes of the rounds from
        # `_window` up to `_gathered`
        self._X = np.empty((block_steps, rows, d))
        self._T = np.empty((block_steps, rows, N_CLASSES))
        self._S = np.empty((block_steps, rows, N_CLASSES))
        self._window = self._gathered = 0
        self.round = self.retired = self.planned = 0

    def add(self, xs, labels, ks: np.ndarray) -> None:
        """Plan the next block, of ``len(ks)`` steps from step `planned` on:
        row i of ``xs`` and of ``ks`` are its i-th step's input and Poisson
        counts, and ``labels[i]`` its label. Each row's passes of the block
        start where its planned passes stop, or at the current round."""
        n, t = len(ks), self.planned
        if n > self._block or t % self._block or t - self.retired > self._block:
            raise ValueError("a block follows a whole one, and at most one is held")
        s = t % self._n_slots
        at = slice(s, s + n)
        ks_by_row = self._ks[:, at]
        ks_by_row[...] = ks.T
        codes = self._codes[:, at]
        np.minimum(ks_by_row, 1, out=codes)
        codes += self._evens[at]
        self._inputs[2 * s : 2 * (s + n)].reshape(n, 2, -1)[...] = xs[:, None]
        positive = np.equal(labels, POS)[:, None]
        targets = self._targets[2 * s : 2 * (s + n)].reshape(n, 2, N_CLASSES)
        targets[:, :, _CLASS_INDEX[POS]] = positive
        targets[:, :, _CLASS_INDEX[NEG]] = ~positive
        self.planned += n
        starts = np.maximum(self._ends, self.round)
        self._lay_out(slice(0, len(self._cols)), t, starts, relearn=False)

    @property
    def can_retire(self) -> bool:
        """Whether a block is held and every row has taken all of its passes
        of the oldest one."""
        return self.retired < self.planned and self.round >= self._oldest_end

    def run(self, rounds: int | None = None) -> None:
        """Run up to ``rounds`` more rounds, or with None until every row is
        past the oldest block, stopping when every row is done."""
        if rounds is None:
            stop = self._oldest_end
        else:
            stop = min(self.round + rounds, self._last)
        kernel = self._model._bank.kernel
        while self.round < stop:
            if self.round == self._gathered:
                self._gather(stop)
            j, w = self.round, self._window
            end = min(stop, self._gathered)
            at, h = slice(j - w, end - w), j - self._base
            hist = self._hist[h : h + end - j]
            for x, t, s, score in zip(self._X[at], self._T[at], self._S[at], hist):
                kernel(x, t, s, score)
            self.round = end

    def predicted(self) -> list[int]:
        """For each ensemble, how many of the run's first steps every one of
        its rows has predicted: the retired steps, and the held steps whose
        latest first pass over its rows lies before the current round."""
        return [
            self.retired + bisect_left(latest, self.round) for latest in self._latest
        ]

    def scores(self, lo: int, hi: int, e: int | None = None):
        """Every ensemble's scores of steps ``lo`` .. ``hi - 1``, held ones,
        as (steps, ensembles), or with ``e`` ensemble e's alone, as (steps,):
        the mean of its rows' positive-class probabilities at the steps'
        first passes, their sum over the rows divided by the members, which
        has the bits of numpy's ``mean`` over them. Every row read must have
        predicted those steps (`predicted`): the history holds nothing else
        at a step's first pass."""
        m = self._model.n_members
        hist = self._hist.reshape(-1)
        steps = self._slots(lo, hi)
        if e is not None:
            return np.add.reduce(hist.take(self._first[e, steps]), 1) / m
        return (np.add.reduce(hist.take(self._first[:, steps]), 2) / m).T

    def retire(self) -> np.ndarray:
        """Free the oldest block, which every row is past (`can_retire`), and
        return its scores as (steps, ensembles)."""
        if not self.can_retire:
            raise ValueError("a row has passes of the oldest block still to take")
        lo, hi = self.retired, min(self.retired + self._block, self.planned)
        scores = self.scores(lo, hi)
        self.retired = hi
        for latest in self._latest:
            del latest[: hi - lo]
        self._compact()
        self._note_oldest_end()
        return scores

    def rewind(self, e: int, t: int) -> None:
        """Reset ensemble ``e``, whose rows have all predicted step ``t``, and
        lay out its rows' passes from ``t`` on to start at the next round: the
        reset rows learn step t's example again, its prediction standing,
        then predict and learn every planned step after it."""
        self._model.reset(e)
        m = self._model.n_members
        # a row has passes left at t or after, none of them more than the
        # ones laid out anew, so these cover every position its old ones held
        self._lay_out(slice(e * m, (e + 1) * m), t, np.full(m, self.round), True)

    def _slots(self, lo: int, hi: int):
        """The slots of steps ``lo`` .. ``hi - 1``: a slice, or an index
        array where they pass the ring's end."""
        a = lo % self._n_slots
        b = a + hi - lo
        return slice(a, b) if b <= self._n_slots else np.arange(a, b) % self._n_slots

    def _note_oldest_end(self) -> None:
        """Note the round by which every row has taken all of its passes of
        the oldest block: the latest first pass of the next block's first
        step, or with no next block planned, the last pass."""
        t = self.retired + self._block
        if t >= self.planned:
            self._oldest_end = self._last
        else:
            latest = int(self._first[:, t % self._n_slots].max())
            self._oldest_end = latest // len(self._cols) + self._base

    def _lay_out(self, rows: slice, t: int, starts: np.ndarray, relearn: bool) -> None:
        """Lay out the passes of ``rows``, whole ensembles, at steps t ..
        `planned` - 1, row r's from position ``starts[r]`` on, max(1, k) at
        each step. Rows that ``relearn`` step t, having predicted it, take
        only its k passes there. Every position from a row's start on must
        be idle or hold one of the passes laid out anew; the position arrays
        grow to hold the positions the rows need, and the window is
        emptied."""
        m, n_rows, base = self._model.n_members, len(self._cols), self._base
        steps = self._slots(t, self.planned)
        ks = self._ks[rows, steps]
        passes = np.maximum(ks, 1)
        if relearn:
            passes[:, 0] = ks[:, 0]
        ends = passes.cumsum(axis=1)
        ends += starts[:, None]
        # each step's first pass, by ensemble, member and step, from the
        # first step the rows predict
        first = t + relearn
        n_ens = (rows.stop - rows.start) // m
        firsts = (ends - passes)[:, relearn:].reshape(n_ens, m, self.planned - first)
        ensembles = slice(rows.start // m, rows.stop // m)
        for e, latest in enumerate(firsts.max(axis=1).tolist(), ensembles.start):
            self._latest[e][first - self.retired :] = latest
        firsts -= base
        firsts *= n_rows
        firsts += self._cols[rows].reshape(n_ens, m, 1)
        self._first[ensembles, self._slots(first, self.planned)] = firsts.transpose(
            0, 2, 1
        )
        last = ends[:, -1]
        length = int(last.max()) - base
        if length > len(self._code):
            self._reserve(length)
        # each row's codes, each repeated by its passes at the step, written
        # from the row's start: row r's i-th pass goes to flat position
        # (starts[r] - base + i) * rows + r
        counts = last - starts
        where = np.repeat(
            (starts - base - (counts.cumsum() - counts)) * n_rows + self._cols[rows],
            counts,
        )
        where += np.arange(len(where)) * n_rows
        self._code.reshape(-1)[where] = np.repeat(
            self._codes[rows, steps], passes.reshape(-1)
        )
        self._ends[rows] = last
        self._last = int(self._ends.max())
        self._note_oldest_end()
        self._gathered = self.round

    def _gather(self, stop: int) -> None:
        """Read the inputs, targets and step sizes of the rounds from the
        current one into the window, as many as it holds, up to the oldest
        block's end; past it, where the next block is laid out once the
        oldest retires, up to round ``stop``."""
        j, base = self.round, self._base
        n = min(len(self._X), (self._oldest_end if j < self._oldest_end else stop) - j)
        code = self._code[j - base : j - base + n]
        # every index is in range; with mode "raise", `take` would write into
        # a copy of ``out`` first
        np.take(self._inputs, code, axis=0, out=self._X[:n], mode="clip")
        np.take(self._targets, code, axis=0, out=self._T[:n], mode="clip")
        np.take(self._sizes, code, axis=0, out=self._S[:n], mode="clip")
        self._window, self._gathered = j, j + n

    def _compact(self) -> None:
        """Move the positions still needed to the front of their arrays: the
        history from the earliest first pass of a held step on, and the codes
        from the current round on."""
        n_rows = len(self._cols)
        keep = self.round
        if self.retired < self.planned:
            earliest = int(self._first[:, self.retired % self._n_slots].min())
            keep = min(keep, earliest // n_rows + self._base)
        shift, j = keep - self._base, self.round - self._base
        if shift:
            end = max(j, self._last - self._base)
            self._hist[: j - shift] = self._hist[shift:j]
            self._code[j - shift : end - shift] = self._code[j:end]
            self._code[end - shift : end] = self._idle
            self._first[:, self._slots(self.retired, self.planned)] -= shift * n_rows
            self._base = keep

    def _reserve(self, length: int) -> None:
        """Make the codes and the history hold ``length`` positions or a
        quarter more than they held, whichever is more, keeping those they
        hold; the new positions are idle. They grow one at a time, so that
        no more than one is held twice."""
        length = max(length, len(self._code) * 5 // 4)
        code = np.full((length, len(self._cols)), self._idle, dtype=np.intp)
        code[: len(self._code)] = self._code
        self._code = code
        hist = np.empty((length, len(self._cols)))
        hist[: len(self._hist)] = self._hist
        self._hist = hist

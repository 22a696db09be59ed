"""Online learners: incremental MLP base models and Poisson-resampling ensembles.

The base learner is a one-hidden-layer MLP (sigmoid hidden units, softmax
output, cross-entropy loss), `default_hidden_size` units wide, trained by one
stochastic-gradient step per presented example. `MlpBank` holds every such
net, and its rounds are the one forward pass and the one backpropagation:
the tests gradient-check one round, as a `RowSchedule` makes it, through
`MlpBank.kernel`, on rows with their own inputs, targets and step sizes.
The ensembles follow online bagging: every incoming example is shown to each
member k times with k ~ Poisson(lambda), where

    OB   lambda = 1
    OOB  lambda = w_max / w_label   (oversamples the minority class)
    UOB  lambda = w_min / w_label   (undersamples the majority class)

and the w's are the tracker's time-decayed class sizes after the example's
label. `OnlineEnsemble.sampling_rates` computes a stretch of steps' rates at
once, as array code, from the size arrays that `ClassSizeTracker.track`
hands over and the minorities that `designate` names from them; where the
stream looks balanced, all three collapse to plain OB.

The members' weights are stored stacked along the leading row axis of an
`MlpBank`, and the bank has one kernel, a *pass*: a round gives every row
one forward pass and one gradient step on its own input, one-hot target and
step size, and a step size of 0 leaves a row's weights as they were. Rows
are independent and the batched products give each row the bits it gets
alone, so one round serves every row. An `OnlineEnsemble` stacks several
ensembles (one per sampler, as the run engine runs one per pipeline) in the
same bank; each keeps its own Poisson generator, its own reset seeds and
exactly the outputs it would have alone.

A run trains its planned blocks of steps with one `RowSchedule`: each bank
row takes its own passes back to back, max(1, k) of them at each step (k its
Poisson count there), the first of which is the row's prediction of the
step, and each round runs every row's next pass. Each row carries a cursor,
its step and the passes it has taken there, from which a round reads its
pass. A row runs on from one block into the next, planned one block ahead,
so no row waits for another at a block's end either, and a run without a
reset takes as many rounds as its busiest row has passes over the whole
run, not the sum over steps of the largest k. A reset's rewind moves its
rows' cursors back to a step, and a step's scores are read from a history
by step, written at each row's first pass there. The schedule's tables and
history are a ring of two blocks, made once for the run.

A bank's rounds are compiled: `mlp_round.c`, which `native` builds once and
loads at the first bank. Each `MlpBank` keeps its weights in one flat
parameter buffer, the four weight arrays being C-contiguous views of
consecutive stretches of it, and their gradients in a flat gradient buffer
of the same layout: the two outer-product weight gradients, the hidden error
and the output error dz2, which is the buffer of the class probabilities. So
a gradient step ends in one update, parameters minus gradients, which is
exact because every gradient is computed from the weights before it. The
bank makes its other work buffers once too. `RowSchedule.run` runs a
stretch of rounds in one C call, which derives each row's code from its
cursor and reads the row's input, target and step size from the schedule's
by-code tables. A round does what a round of numpy calls did, in the same
order on the same buffers: its three batched products and two exponentials
run numpy's own float64 ``matmul`` and ``exp`` loops, with the shapes and
strides numpy passes them, and every other step is one IEEE operation per
element, compiled without fused multiply-adds. So every score and weight
has the bits of numpy's calls, and the floating-point exceptions a call
raises are reported as numpy reports those of its own.

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
class column, each row's size in both columns.
"""
from __future__ import annotations

import math
import sys

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

    The C rounds (`mlp_round.c`) run in work buffers that the bank makes
    once: `kernel` is one round on arrays, and a `RowSchedule` runs
    stretches of them.
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
        # work buffers: a round's inputs, the hidden activations (-z1 first),
        # the output pre-activations and their exponentials, and da1
        self._x = np.empty((m, d))
        self._a1 = np.empty((m, h))
        self._z2 = np.empty((m, N_CLASSES))
        self._e = np.empty((m, N_CLASSES))
        self._da1 = np.empty((m, h))
        # code r is row r's: a pass on the kernel's own arrays, row by row
        self._each = np.arange(m, dtype=np.intp)
        # the library is imported, built and loaded with the first bank, so
        # an import or a set-up that makes no bank pays for none of it
        from . import native

        self._c_bank, self._c_bank_at = native.bank(
            rows=m, d=d, h=h, size=size,
            **{
                name: getattr(self, "_" + name).ctypes.data
                for name in ("params", "grads", "x", "a1", "z2", "e", "da1")
            },
        )
        self._c_round = native.load()[0]

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

    def kernel(self, X, T=None, S=None):
        """One pass of the bank on arrays, through the C round.

        ``kernel(X)`` is a forward pass, member i on input ``X[i]``, and
        returns the per-member (hidden activations, class probabilities),
        left in the bank's buffers: the arrays returned are overwritten by
        the next pass.

        ``kernel(X, T, S)`` is a whole pass, as a round of a `RowSchedule`
        gives each row: the forward pass, then one gradient step per member.
        It returns each member's P(+1) before the step. ``S[i]`` is member
        i's step size, the same in both class columns, and the step moves
        the member that many times down the gradient of its cross-entropy on
        input ``X[i]`` and one-hot target ``T[i]`` (a step of 0 leaves it as
        it was); ``T`` and ``S`` broadcast to (members, 2), and a pass given
        only one of them is refused before it runs.
        """
        rows = (self.n_members, N_CLASSES)
        X = np.ascontiguousarray(X, dtype=float)
        if X.shape != (self.n_members, self.n_features):
            raise ValueError(f"need one input row per member, got shape {X.shape}")
        if T is None and S is None:
            _report(self._c_round(self._c_bank_at, self._each.ctypes.data,
                                  X.ctypes.data, None, None, None))
            return self._a1, self._probs
        if T is None or S is None:
            raise ValueError("a pass that trains needs both targets T and step sizes S")
        T = np.ascontiguousarray(np.broadcast_to(T, rows), dtype=float)
        S = np.ascontiguousarray(np.broadcast_to(S, rows), dtype=float)
        scores = np.empty(self.n_members)
        _report(self._c_round(self._c_bank_at,
                              *(a.ctypes.data for a in (self._each, X, T, S, scores))))
        return scores


def _report(raised: int) -> None:
    """Report the floating-point exceptions a C call returned as numpy
    reports those of its own calls (`native.warn_raised`)."""
    if raised:
        from . import native

        native.warn_raised(raised)


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
    step is the row's prediction of it. Each row carries a cursor: its step,
    the passes it has taken there, the steps it has predicted, and the first
    step whose prediction is scored. A round gives every row its next pass
    and moves its cursor on, and `run` runs a stretch of rounds in one call
    of the bank's C function (`mlp_round.c`, ``mlp_run``), which writes each
    row's positive-class probability at its first pass of a step into a
    history by step. A row's passes run on from block to block: a row that
    has taken all of its passes of one block takes its first pass of the
    next in its next round, and only a row with no planned step left takes
    passes of size 0 on a zero input. A row's prediction of a step reads the
    weights its own passes at the steps before left, and rows are
    independent, so every row predicts and learns exactly as in a
    step-by-step run, and a run whose busiest row never waits for a block to
    be planned takes as many rounds as that row has passes.

    Steps are numbered over the run. `add` plans the next block, every block
    but a run's last ``block_steps`` long; the schedule holds at most two
    blocks, the oldest from step `retired` and the rest to step `planned`.
    Once every row is past the oldest block (`can_retire`), `retire` hands
    back its scores and frees its steps. The per-step tables and the history
    are a ring of two blocks, step s in slot s mod 2 * ``block_steps``: by
    code (2 * slot, plus 1 where the row trains at the step), each step's
    input, one-hot target and step size, which the C rounds read; by row and
    slot, the Poisson counts; by slot and row, the history.

    A reset is the one thing that ties rows to a step: `rewind(e, t)` resets
    ensemble ``e`` after its detector has seen step ``t``, and its rows take
    their k passes at ``t`` again, without predicting it anew, then run on
    through every planned step. This is exact: a reset re-seeds the weights
    only, and the counts never read the weights.
    """

    def __init__(self, model: OnlineEnsemble, block_steps: int):
        from . import native

        self._model = model
        bank = model._bank
        rows, d = bank.n_members, bank.n_features
        self._block = block_steps
        self._n_slots = slots = 2 * block_steps
        # by row and slot, the Poisson counts
        self._ks = np.empty((rows, slots), dtype=np.intp)
        # by code: each step's input and target (twice), and the step size,
        # lr or 0, in both class columns; the idle code 2 * slots has a zero
        # input and target and the step size 0
        self._inputs = np.zeros((2 * slots + 1, d))
        self._targets = np.zeros((2 * slots + 1, N_CLASSES))
        self._sizes = np.tile([[0.0], [bank.lr]], (slots + 1, N_CLASSES))
        # by slot and row, the P(+1) of the row's first pass at the step
        self._hist = np.empty((slots, rows))
        # by row: its step, the passes it has taken there, the steps it has
        # predicted and the first step it scores (t + 1 after a rewind at
        # t); and the C rounds' work buffers, a round's codes and P(+1)
        self._at, self._done, self._pred, self._unscored, self._code = (
            np.zeros(rows, dtype=np.intp) for _ in range(5)
        )
        self._score = np.empty(rows)
        self._c, self._c_at = native.schedule(
            slots=slots,
            **{
                name: getattr(self, "_" + name).ctypes.data
                for name in (
                    "ks", "inputs", "targets", "sizes", "hist",
                    "at", "done", "pred", "unscored", "code", "score",
                )
            },
        )
        self._c_run = native.load()[1]
        self.retired = self.planned = 0

    @property
    def round(self) -> int:
        """The rounds run so far."""
        return self._c.round

    def add(self, xs, labels, ks: np.ndarray) -> None:
        """Plan the next block, of ``len(ks)`` steps from step `planned` on:
        row i of ``xs`` and of ``ks`` are its i-th step's input and Poisson
        counts, and ``labels[i]`` its label. A row with no planned step left
        takes its first pass of the block in its next round."""
        n, t = len(ks), self.planned
        if n > self._block or t % self._block or t - self.retired > self._block:
            raise ValueError("a block follows a whole one, and at most one is held")
        s = t % self._n_slots
        self._ks[:, s : s + n] = ks.T
        self._inputs[2 * s : 2 * (s + n)].reshape(n, 2, -1)[...] = xs[:, None]
        positive = np.equal(labels, POS)[:, None]
        targets = self._targets[2 * s : 2 * (s + n)].reshape(n, 2, N_CLASSES)
        targets[:, :, _CLASS_INDEX[POS]] = positive
        targets[:, :, _CLASS_INDEX[NEG]] = ~positive
        self.planned += n

    @property
    def can_retire(self) -> bool:
        """Whether a block is held and every row has taken all of its passes
        of the oldest one."""
        end = min(self.retired + self._block, self.planned)
        return self.retired < self.planned and int(self._at.min()) >= end

    def run(self, rounds: int | None = None) -> None:
        """Run up to ``rounds`` more rounds, stopping once every row has
        taken all of its planned passes, or with None until every row is
        past the oldest block; in one C call."""
        if rounds is None:
            rounds, stop = sys.maxsize, min(self.retired + self._block, self.planned)
        else:
            stop = self.planned
        _report(self._c_run(self._model._bank._c_bank_at, self._c_at, rounds, stop,
                            self.planned))

    def predicted(self) -> list[int]:
        """For each ensemble, how many of the run's first steps every one of
        its rows has predicted."""
        return self._pred.reshape(-1, self._model.n_members).min(axis=1).tolist()

    def scores(self, lo: int, hi: int, e: int | None = None):
        """Every ensemble's scores of steps ``lo`` .. ``hi - 1``, held ones,
        as (steps, ensembles), or with ``e`` ensemble e's alone, as (steps,):
        the mean of its rows' positive-class probabilities at the steps'
        first passes, their sum over the rows divided by the members, which
        has the bits of numpy's ``mean`` over them. Every row read must have
        predicted those steps (`predicted`): the history holds nothing else
        at a step."""
        m = self._model.n_members
        steps = self._slots(lo, hi)
        if e is not None:
            return np.add.reduce(self._hist[steps, e * m : (e + 1) * m], 1) / m
        return np.add.reduce(self._hist[steps].reshape(hi - lo, -1, m), 2) / m

    def retire(self) -> np.ndarray:
        """Free the oldest block, which every row is past (`can_retire`), and
        return its scores as (steps, ensembles)."""
        if not self.can_retire:
            raise ValueError("a row has passes of the oldest block still to take")
        lo, hi = self.retired, min(self.retired + self._block, self.planned)
        scores = self.scores(lo, hi)
        self.retired = hi
        return scores

    def rewind(self, e: int, t: int) -> None:
        """Reset ensemble ``e``, whose rows have all predicted step ``t``, and
        move its rows back to ``t``: the reset rows learn step t's example
        again, its prediction standing, then predict and learn every planned
        step after it."""
        self._model.reset(e)
        m = self._model.n_members
        rows = slice(e * m, (e + 1) * m)
        # a row with no pass to take again at t starts at t + 1
        self._at[rows] = t + (self._ks[rows, t % self._n_slots] == 0)
        self._done[rows] = 0
        self._pred[rows] = self._unscored[rows] = t + 1

    def _slots(self, lo: int, hi: int):
        """The slots of steps ``lo`` .. ``hi - 1``: a slice, or an index
        array where they pass the ring's end."""
        a = lo % self._n_slots
        b = a + hi - lo
        return slice(a, b) if b <= self._n_slots else np.arange(a, b) % self._n_slots

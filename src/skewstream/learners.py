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
row lays out its own passes back to back, max(1, k) of them at each step (k
its Poisson count there), the first of which is the row's prediction of the
step, and each round runs every row's next pass. A row runs on from one
block into the next, planned one block ahead, so no row waits for another at
a block's end either, and a run without a reset takes as many rounds as its
busiest row has passes over the whole run, not the sum over steps of the
largest k. One layout serves a new block and a reset's rewind alike, and a
step's scores are read from the history of rounds at its first passes. The
schedule keeps its buffers for the run: its second block sizes them, with a
margin, and they grow only when the blocks it holds need more positions
than that.

A bank's rounds are compiled: `mlp_round.c`, which `native` builds once and
loads at the first bank. Each `MlpBank` keeps its weights in one flat
parameter buffer, the four weight arrays being C-contiguous views of
consecutive stretches of it, and their gradients in a flat gradient buffer
of the same layout: the two outer-product weight gradients, the hidden error
and the output error dz2, which is the buffer of the class probabilities. So
a gradient step ends in one update, parameters minus gradients, which is
exact because every gradient is computed from the weights before it. The
bank makes its other work buffers once too. `RowSchedule.run` runs a
stretch of rounds in one C call, which reads each round's inputs, targets
and step sizes from the schedule's by-code tables through its codes. A round
does what a round of numpy calls did, in the same order on the same
buffers: its three batched products and two exponentials run numpy's own
float64 ``matmul`` and ``exp`` loops, with the shapes and strides numpy
passes them, and every other step is one IEEE operation per element,
compiled without fused multiply-adds. So every score and weight has the
bits of numpy's calls, and the floating-point exceptions a call raises are
reported as numpy reports those of its own.

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

    `_rounds` runs the bank's rounds, in work buffers that the bank makes
    once, and `kernel` is one of them on arrays.
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
        self._c_rounds = native.load()[0]

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

    def kernel(self, X, T=None, S=None, score=None):
        """One pass of the bank on arrays, through the C round (`_rounds`).

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
        it was); ``T`` and ``S`` broadcast to (members, 2).
        """
        rows = (self.n_members, N_CLASSES)
        X = np.ascontiguousarray(X, dtype=float)
        if X.shape != (self.n_members, self.n_features):
            raise ValueError(f"need one input row per member, got shape {X.shape}")
        if T is None:
            self._rounds(1, self._each.ctypes.data, X.ctypes.data, None, None, None)
            return self._a1, self._probs
        T = np.ascontiguousarray(np.broadcast_to(T, rows), dtype=float)
        S = np.ascontiguousarray(np.broadcast_to(S, rows), dtype=float)
        scores = np.empty(self.n_members)
        self._rounds(1, *(a.ctypes.data for a in (self._each, X, T, S, scores)))
        score[...] = scores

    def _rounds(self, n, code, inputs, targets, sizes, hist) -> None:
        """Run ``n`` rounds in one C call (`mlp_round.c`): in round j, row r
        takes a pass on the input, one-hot target and step size (one per
        class column) at ``code[j, r]`` in the by-code tables ``inputs``,
        ``targets`` and ``sizes``, and its P(+1) goes to ``hist[j, r]``;
        with no targets, one forward pass on the inputs. Each argument is
        the address of a C-contiguous array, float64 but for the intp codes,
        or None. The floating-point exceptions the rounds raised are
        reported as numpy reports those of its own calls."""
        raised = self._c_rounds(self._c_bank_at, n, code, inputs, targets, sizes, hist)
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
    step is the row's prediction of it. Round j of `run` gives every row its
    next pass, all of a `run`'s rounds in one call of the bank's C rounds,
    and keeps the rows' positive-class probabilities in a history by round.
    A row's passes run on from block to block: a row that has taken all of
    its passes of one block takes its first pass of the next in its next
    round, and only a row with no planned pass left takes passes of size 0
    on a zero input. A row's prediction of a step reads the weights its own
    passes at the steps before left, and rows are independent, so every row
    predicts and learns exactly as in a step-by-step run, and a run whose
    busiest row never waits for a block to be planned takes as many rounds
    as that row has passes.

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
    scores are read from the history at their first passes. `run` hands its
    rounds' codes to the bank, whose C rounds read the inputs, targets and
    step sizes by code from the tables here.

    The codes and the history hold the positions from the earliest first
    pass of a held step on; `retire` moves them to the front of their
    arrays, which the second block sizes for the run (`_reserve`).
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
        # the addresses of the by-code tables, as the bank's rounds take them
        self._tables = [a.ctypes.data for a in (self._inputs, self._targets, self._sizes)]
        # by position from `_base` on: each row's code there, and the history
        self._base = 0
        self._code = np.empty((0, rows), dtype=np.intp)
        self._hist = np.empty((0, rows))
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
        if stop > self.round:
            j = self.round - self._base
            self._model._bank._rounds(
                stop - self.round,
                self._code_at + j * self._code.strides[0],
                *self._tables,
                self._hist_at + j * self._hist.strides[0],
            )
            self.round = stop

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
        grow to hold the positions the rows need."""
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
        """Make the codes and the history hold ``length`` positions, keeping
        those they hold; the new positions are idle. The second block sizes
        them for the run: twice what the two blocks need, a margin for later
        blocks whose rates, and so passes, have grown. Otherwise they hold
        ``length`` or a quarter more than they held, whichever is more. They
        grow one at a time, so that no more than one is held twice."""
        if self._block < self.planned <= 2 * self._block:
            length *= 2
        else:
            length = max(length, len(self._code) * 5 // 4)
        code = np.full((length, len(self._cols)), self._idle, dtype=np.intp)
        code[: len(self._code)] = self._code
        self._code = code
        hist = np.empty((length, len(self._cols)))
        hist[: len(self._hist)] = self._hist
        self._hist = hist
        self._code_at, self._hist_at = code.ctypes.data, hist.ctypes.data

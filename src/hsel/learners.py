"""Base learning algorithms over dense feature matrices.

All four are deterministic: none consumes randomness, softmax regression
starts from zero weights, and every tie is broken toward the smallest class
index.

Softmax regression has one training routine, ``fit_softmax_models``: it
trains any number of models that share one design matrix, each on its own
column subset, in one class-major gradient descent. A single fit is the
batch of one; the stacking layer fits every LR meta-classifier of a
command as one batch. An epoch runs one exp and copies no weights: each
step writes a spare buffer that swaps in. The bias rides the products as
one more coefficient over a row of ones. The primal form descends in
[W | b], two products with [X | 1] per epoch. Descent from zero never
leaves the row space of X, so the Gram form descends in [A | b] with
W = A·X, one product with [K; 1], K = X·Xᵀ, per epoch. It is used when
every model trains on all columns and ``gram_form_pays`` (a flop count)
says so: pool LR on a vocabulary wider than the training set. Softmax
weights are redundant up to a per-class shift (Böhning 1992), and from
zero the weights and biases of each column sum to zero over classes, so
only C−1 class slabs descend and the last is minus their sum. Every model
stays within 1e-12 of the one-model row-major descent in the tests'
oracle and diverges at the same epoch. A design row may stand for
``counts`` identical rows: its weight counts/Σcounts replaces 1/n, so
stacking descends on distinct vote patterns only.
Where a batch's epoch is cheap (``CHUNKED_TEST_WORK``), the loss-rise
test that stops a diverging model runs once per chunk of epochs (chunks
of 1, 2, 4, ... epochs); a chunk where a loss rose runs again from a
checkpoint of the weights, testing every epoch, so weights, histories and
the epoch of a stop are bit for bit those of a test after every epoch.
``shared_descent_pays`` (``SHARED_DESCENT_WORK``) decides when a pool's
primal LR members, each on its own features, train as one batch over
their features side by side.
``CosineKNN`` finds its k nearest by partial selection, not a full sort.
``SoftmaxRegression`` also holds the closed-form NB and VOTE
meta-classifier weights, and ``top_class`` is the one tie rule for linear
scores.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

ALGORITHM_TOKENS = ("NB", "LR", "KNN", "NC")
NB_SMOOTHING = 1.0  # Laplace
KNN_K = 5
# Multiply-adds, C·N·Σd, up to which primal models on the same N rows pay
# less as one descent over their columns side by side than one each: three
# members, C=2, took 0.85× of separate fits at 1.8e5 and 1.6× at 3.2e5
# (one BLAS thread, 2-CPU x86-64 KVM guest).
SHARED_DESCENT_WORK = 2**17
# Multiply-adds of a batch's forward product per epoch, C·M·N·(width + 1),
# up to which testing for a loss rise once per chunk of epochs pays. A
# chunked descent saves a fixed 1-2 ms over 300 epochs, while a stop replays
# up to a chunk of epochs at a cost that grows with the work: one stopping
# at epoch 1 lost 0.35 ms at 5e5, 1.0 ms at 1e6, 1.7 ms at 2e6 and 6 ms at
# 6.2e6, and past 1e6 the saving fell below 2% of a full descent (one
# BLAS thread, 2-CPU x86-64 KVM guest).
CHUNKED_TEST_WORK = 2**20


def top_class(scores: np.ndarray) -> np.ndarray:
    """Highest-scoring class of each row. Scores within
    ``1e-12 * max(1, |top|)`` of the top score tie, and a tie goes to the
    smallest class index, so rounding noise does not decide a prediction.
    The (N, C) scores are read class-major, as C rows of N, so every step is
    an elementwise pass over N scores rather than N reductions over C."""
    classes = np.ascontiguousarray(scores.T)
    top = classes.max(axis=0)
    near_top = classes >= top - 1e-12 * np.maximum(1.0, np.abs(top))
    # Class k ranks C - k: the first class near the top has the largest
    # rank among them, and a row with none (NaN scores) gets class 0.
    c = len(classes)
    ranks = np.arange(c, 0, -1, dtype=np.min_scalar_type(c))[:, None]
    return (c - (near_top * ranks).max(axis=0).astype(np.intp)) % c


class MultinomialNB:
    """Multinomial naive Bayes with Laplace smoothing (``NB_SMOOTHING``).

    Negative feature values (possible under the signed dense projection) are
    clamped to zero, since multinomial likelihoods are defined over
    non-negative counts.
    """

    def __init__(self):
        self.class_log_prior_: np.ndarray | None = None
        self.feature_log_prob_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, num_classes: int) -> "MultinomialNB":
        X = np.clip(np.asarray(X, dtype=np.float64), 0.0, None)
        y = np.asarray(y, dtype=np.int64)
        counts = np.zeros(num_classes, dtype=np.float64)
        totals = np.zeros((num_classes, X.shape[1]), dtype=np.float64)
        for c in range(num_classes):
            mask = y == c
            counts[c] = mask.sum()
            if counts[c]:
                totals[c] = X[mask].sum(axis=0)
        # Unseen classes keep a tiny prior so log() stays finite.
        priors = np.where(counts > 0, counts, 1e-12) / max(len(y), 1)
        self.class_log_prior_ = np.log(priors)
        smoothed = totals + NB_SMOOTHING
        self.feature_log_prob_ = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.clip(np.asarray(X, dtype=np.float64), 0.0, None)
        return np.argmax(X @ self.feature_log_prob_.T + self.class_log_prior_, axis=1)


class SoftmaxRegression:
    """Multiclass logistic regression trained by full-batch gradient descent.

    The regularized cross-entropy objective is tracked per epoch; if a step
    ever increases it, the step is reverted and training halts with the
    ``diverged`` flag set, so callers can diagnose a bad step size instead of
    silently training on garbage. ``fit`` is ``fit_softmax_models`` with one
    model over all columns.
    """

    def __init__(self, step: float = 0.1, epochs: int = 300, l2: float = 1e-4):
        self.step = step
        self.epochs = epochs
        self.l2 = l2
        self.weights_: np.ndarray | None = None
        self.bias_: np.ndarray | None = None
        self.loss_history_ = np.empty(0)
        self.diverged = False
        self.diverged_epoch: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, num_classes: int) -> "SoftmaxRegression":
        X = np.asarray(X, dtype=np.float64)
        fit_softmax_models([self], X, y, num_classes, [np.arange(X.shape[1])])
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return top_class(np.asarray(X, dtype=np.float64) @ self.weights_ + self.bias_)


def gram_form_pays(n: int, d: int, c: int, m: int, epochs: int) -> bool:
    """Whether the Gram form's flops (K, then a (C·M, N)·(N, N) product per
    epoch) undercut the primal form's (two (C·M, D)·(D, N) per epoch)."""
    return n * (d + epochs * c * m) < 2 * epochs * c * m * d


def shared_descent_pays(n: int, widths: Sequence[int], c: int) -> bool:
    """Whether models of ``widths`` columns each, all on the same N rows, pay
    less as one primal descent over their columns side by side than as one
    descent each. The batch saves each model's fixed numpy calls per epoch
    but gives every model's product all Σd columns, and that pays while
    C·N·Σd, the multiply-adds each model adds per epoch, stays within
    ``SHARED_DESCENT_WORK``."""
    return c * n * sum(widths) <= SHARED_DESCENT_WORK


def fit_softmax_models(
    models: Sequence[SoftmaxRegression],
    X: np.ndarray,
    y: np.ndarray,
    num_classes: int,
    columns: Sequence[np.ndarray],
    counts: np.ndarray | None = None,
) -> None:
    """Train ``models[m]`` on ``X[:, columns[m]]`` for every m, together.

    All models share one design matrix and one gradient-descent loop, so
    the per-epoch cost of numpy calls is paid once for the batch. Arrays
    are class-major, shape (C, M, N) for scores and (C, M, D + 1) for the
    weights [W | b]: the softmax max and sum over classes run elementwise
    across C contiguous slabs, and the scores, bias included, are one
    product with the basis [Xᵀ; 1]. Row i of X stands for ``counts[i]``
    identical rows (default: one each), so its weight w_i = counts_i/Σcounts
    takes the place of 1/n throughout, and a fit on the distinct rows of a
    design with their counts is the fit on all of them up to summation
    order. An epoch exponentiates the max-shifted scores s̃ once, in place;
    the loss, Σ w·(log Z − s̃_y) + ½λ‖W‖², and the gradient's softmax part
    G = (exp(s̃)·w/Z)·[X | 1] both follow. The label part (Y·w)·[X | 1] is
    constant, so each step is [W | b]·decay − rates·G + pull with ``pull``
    = rates·(Y·w)·[X | 1] computed once; ``decay`` = 1 − rates·λ spares the
    bias, and all three have the weights' full shape, as w has the scores',
    so no step broadcasts. With all counts 1, w is exactly 1/n. Every
    gradient row sums to zero over classes, so only the first C − 1 class
    slabs go through the gradient product and the step; the last is set to
    minus their sum, class 0 first. Each step writes the spare buffer,
    which then swaps in, so the spare holds the previous epoch's weights
    for a revert. Model m's weights outside ``columns[m]`` get a step size of
    zero and stay zero, so it computes what a fit on its own columns
    computes, up to float summation order. The Gram form descends in
    [A | b] (C, M, N + 1) over [K; 1] instead, with G = [P | ΣP] for the
    softmax part P, and the weights are A·X in column order (the last
    class again minus the others' sum).

    Each model keeps its own divergence rule: when its loss rises by more
    than 1e-12, its weights revert to the previous epoch's, ``diverged``
    and ``diverged_epoch`` are set, and it stops updating while the others
    continue. While the batch's forward product, C·M·N·(width + 1)
    multiply-adds, is within ``CHUNKED_TEST_WORK``, epochs run in chunks of
    1, 2, 4, ... (epochs 0, 1-2, 3-6, ...): each writes its data loss and
    ‖W‖² to a row of two tables, and the L2 term and the rise test apply
    once per chunk. A chunk in which an active model's loss rose runs
    again from a copy of both weight buffers taken at its start, testing
    every epoch, so every result is bit for bit that of a test after each
    epoch. Past the budget a replay would cost more than the tests it
    saves: every epoch is tested, and neither the ‖W‖² table nor the
    checkpoint is held. The models must share
    ``step``, ``epochs`` and ``l2``. Each gets ``weights_`` of shape
    (len(columns[m]), C) in column order and ``loss_history_``, an array
    with the loss of every epoch it kept.
    """
    if not models:
        return
    step, epochs, l2 = models[0].step, models[0].epochs, models[0].l2
    if any((model.step, model.epochs, model.l2) != (step, epochs, l2) for model in models):
        raise ValueError("models trained together must share step, epochs and l2")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    c, m = num_classes, len(models)
    h = c - 1  # class slabs that descend; the last one is minus their sum
    gram = gram_form_pays(n, d, c, m, epochs) and all(
        np.array_equal(np.sort(cols), np.arange(d)) for cols in columns
    )
    # ``weights`` holds [W | b] (primal) or [A | b] (Gram), and scores are
    # weights·basis, the basis Xᵀ or K with a row of ones for the bias.
    width = n if gram else d
    basis = np.empty((width + 1, n))
    basis[width] = 1.0
    if gram:
        np.matmul(X, X.T, out=basis[:width])
    else:
        basis[:width] = X.T
    # Step size per model and coefficient: 0 outside the model's own
    # columns, and 0 everywhere once the model has stopped. L2 decays the
    # coefficients, not the bias.
    rates = np.zeros((h, m, width + 1))
    for i, cols in enumerate(columns):
        rates[:, i, slice(None) if gram else cols] = step
    rates[:, :, width] = step
    decay = 1.0 - l2 * rates
    decay[:, :, width] = 1.0
    # Row weights w, held per model so that no epoch ufunc broadcasts.
    counts = np.ones(n) if counts is None else np.asarray(counts, dtype=np.float64)
    share = np.repeat((counts / counts.sum())[None], m, axis=0)
    # The gradient's label term, (Y·w)·[X | 1] or [Y·w | Σ Y·w], is constant:
    # each step adds it, times the rates, as ``pull``.
    onehot = np.zeros((c, n))
    onehot[y, np.arange(n)] = share[0]
    if gram:
        label_term = np.hstack([onehot, onehot.sum(axis=1, keepdims=True)])
    else:
        label_term = onehot @ basis.T
    pull = rates * label_term[:h, None, :]
    # Flat index of score (y_i, m, i); mode "clip" lets ``take`` fill ``out`` unbuffered.
    label_at = y * (m * n) + np.arange(n) + (np.arange(m) * n)[:, None]

    def views(buffer):
        # The buffer, its rows for the forward product, the slabs that
        # descend, the last slab, the coefficients and the bias.
        return (buffer, buffer.reshape(c * m, width + 1), buffer[:h], buffer[h],
                buffer[:, :, :width], buffer[:, :, width])

    # Preallocated buffers; ``spare`` holds the last epoch's weights.
    current, spare = views(np.zeros((c, m, width + 1))), views(np.zeros((c, m, width + 1)))
    grad = np.empty((h, m, width + 1))
    flat_g = grad.reshape(h * m, width + 1)
    grad_coef, grad_bias = grad[:, :, :width], grad[:, :, width]
    scores = np.empty((c, m, n))
    flat_s = scores.reshape(c * m, n)
    head_s, head_rows = scores[:h], flat_s[: h * m]
    top, norm, label = np.empty((m, n)), np.empty((m, n)), np.empty((m, n))
    # Each epoch writes its data loss to ``losses`` and its ‖W‖² to
    # ``squares``, a row of ``penalties`` when its test waits for the end
    # of its chunk; the loss is complete once ½λ‖W‖² is added.
    losses, squares = np.empty((epochs, m)), np.empty(m)
    chunked = c * m * n * (width + 1) <= CHUNKED_TEST_WORK
    penalties = np.empty((epochs, m)) if chunked else None
    stopped_at = np.full(m, -1)
    active = np.ones(m, dtype=bool)

    def descend(start, stop, checked):
        # Epochs start to stop - 1; ``checked`` completes each epoch's loss
        # and applies the rise test, else the caller does so for the chunk.
        nonlocal current, spare
        for epoch in range(start, stop):
            weights, flat_w, head, _, coef, bias = current
            previous, _, step_head, step_last, _, _ = spare
            np.matmul(flat_w, basis, out=flat_s)
            # ‖W‖² per model: Σ W ⊙ W, or Σ A ⊙ (A·K), that is Σ A ⊙ scores
            # less each class's b·ΣA.
            row = squares if checked else penalties[epoch]
            np.einsum("cmk,cmk->m", coef, scores if gram else coef, out=row)
            if gram:
                row -= np.einsum("cm,cmk->m", bias, coef)
            np.maximum.reduce(scores, axis=0, out=top)
            np.subtract(scores, top, out=scores)
            scores.take(label_at, out=label, mode="clip")
            np.exp(scores, out=scores)
            np.add.reduce(scores, axis=0, out=norm)
            np.log(norm, out=top)
            np.subtract(top, label, out=top)
            np.multiply(top, share, out=top)
            np.add.reduce(top, axis=1, out=losses[epoch])
            # scores becomes P = exp(s̃)·w/Z, and G, the gradient less its
            # label and L2 terms, is P·[X | 1], or [P | ΣP] in the Gram form.
            np.divide(share, norm, out=norm)
            np.multiply(scores, norm, out=scores)
            if gram:
                np.copyto(grad_coef, head_s)
                np.add.reduce(head_s, axis=2, out=grad_bias)
            else:
                np.matmul(head_rows, basis.T, out=flat_g)
            if checked:
                loss = losses[epoch]
                row *= 0.5 * l2
                loss += row
            if checked and epoch:
                rising = active & (loss > losses[epoch - 1] + 1e-12)
                if np.logical_or.reduce(rising):
                    weights[:, rising] = previous[:, rising]
                    rates[:, rising] = 0.0
                    decay[:, rising] = 1.0
                    pull[:, rising] = 0.0
                    stopped_at[rising] = epoch
                    active[rising] = False
                    if not np.logical_or.reduce(active):
                        return
            # W·decay − rates·G + pull, then the last slab is minus the others'
            # sum: 0 − Σ, so that a coefficient no class moves stays +0.0.
            np.multiply(grad, rates, out=grad)
            np.multiply(head, decay, out=step_head)
            step_head -= grad
            step_head += pull
            np.add.reduce(step_head, axis=0, out=step_last)
            np.subtract(0.0, step_last, out=step_last)
            current, spare = spare, current

    if not chunked:
        # The products outweigh the test, and a replayed chunk would cost
        # more than the tests it saves.
        descend(0, epochs, checked=True)
    else:
        # Chunks of 1, 2, 4, ... epochs run unchecked; then one test finds
        # whether any active model's loss rose by more than 1e-12 in the
        # chunk. If one did, the chunk runs again from its checkpoint,
        # testing every epoch, so each model stops where an epoch-by-epoch
        # test stops it.
        checkpoint = np.empty((2, c, m, width + 1))
        start, length = 0, 1
        while start < epochs and np.logical_or.reduce(active):
            stop = min(start + length, epochs)
            buffers = current, spare
            np.copyto(checkpoint[0], current[0])
            np.copyto(checkpoint[1], spare[0])
            descend(start, stop, checked=False)
            rows = penalties[start:stop]
            rows *= 0.5 * l2
            losses[start:stop] += rows
            first = max(start, 1)
            rising = (losses[first:stop] > losses[first - 1:stop - 1] + 1e-12) & active
            if np.logical_or.reduce(rising, axis=None):
                current, spare = buffers
                np.copyto(current[0], checkpoint[0])
                np.copyto(spare[0], checkpoint[1])
                descend(start, stop, checked=True)
            start, length = stop, 2 * length

    _, _, _, _, coef, bias = current
    if gram:
        weights = np.empty((c, m, d))
        np.matmul(coef[:h], X, out=weights[:h])
        np.add.reduce(weights[:h], axis=0, out=weights[h])
        np.subtract(0.0, weights[h], out=weights[h])
        coef = weights
    kept = np.where(stopped_at >= 0, stopped_at, epochs)
    for i, (model, cols) in enumerate(zip(models, columns)):
        model.weights_ = coef[:, i, cols].T.copy()
        model.bias_ = bias[:, i].copy()
        model.loss_history_ = losses[: kept[i], i].copy()
        model.diverged = bool(stopped_at[i] >= 0)
        model.diverged_epoch = int(stopped_at[i]) if model.diverged else None


class CosineKNN:
    """k-nearest-neighbors under cosine distance with plurality voting.

    Zero vectors get similarity 0 to everything. Neighbor ties at equal
    distance resolve toward the smaller training index; vote ties toward the
    smallest class index.
    """

    def __init__(self, k: int):
        self.k = k
        self._unit_train: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._num_classes: int | None = None

    @staticmethod
    def _unit_rows(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return X / norms

    def fit(self, X: np.ndarray, y: np.ndarray, num_classes: int) -> "CosineKNN":
        if not len(X):
            raise ValueError("CosineKNN needs at least one training row")
        self._unit_train = self._unit_rows(X)
        self._labels = np.asarray(y, dtype=np.int64)
        self._num_classes = num_classes
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The k nearest are every training row strictly closer than the
        k-th smallest distance, found by partial selection, then the
        lowest-index rows at that distance up to k: what a stable sort's
        first k would hold, without sorting."""
        distances = 1.0 - self._unit_rows(X) @ self._unit_train.T
        q, n = distances.shape
        k = min(self.k, n)
        kth = np.partition(distances, k - 1, axis=1)[:, [k - 1]]
        nearest = distances < kth
        tied = distances == kth
        # Tie ranks and places left share the smallest dtype that counts to
        # n, so the comparison casts no (q, n) array.
        rank = np.min_scalar_type(n)
        short = (k - np.add.reduce(nearest, axis=1)).astype(rank)[:, None]
        nearest |= tied & (np.add.accumulate(tied, axis=1, dtype=rank) <= short)
        rows, cols = np.nonzero(nearest)
        c = self._num_classes
        votes = np.bincount(rows * c + self._labels[cols], minlength=q * c)
        return np.argmax(votes.reshape(q, c), axis=1)


class NearestCentroid:
    """Per-class mean vectors; prediction is the Euclidean-nearest centroid."""

    def __init__(self):
        self._centroids: np.ndarray | None = None
        self._classes: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, num_classes: int) -> "NearestCentroid":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        # Not np.unique: under numpy 2.4 it imports numpy.ma on every cold run.
        self._classes = np.flatnonzero(np.bincount(y, minlength=num_classes))
        self._centroids = np.vstack([X[y == c].mean(axis=0) for c in self._classes])
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        # One (N, V) difference per centroid, never an (N, C, V) tensor.
        d2 = np.stack([((X - centroid) ** 2).sum(axis=1) for centroid in self._centroids], axis=1)
        return self._classes[np.argmin(d2, axis=1)]


def normalize_algorithm_token(token: str) -> str:
    tok = token.strip().upper()
    if tok not in ALGORITHM_TOKENS:
        raise ValueError(f"unknown algorithm token {tok!r}; expected one of {ALGORITHM_TOKENS}")
    return tok


def make_learner(token: str):
    learners = {"NB": MultinomialNB, "LR": SoftmaxRegression,
                "KNN": lambda: CosineKNN(k=KNN_K), "NC": NearestCentroid}
    return learners[normalize_algorithm_token(token)]()

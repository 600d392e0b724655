"""Base learning algorithms over dense feature matrices.

All four are deterministic: none consumes randomness, softmax regression
starts from zero weights, and every tie is broken toward the smallest class
index.

Softmax regression has one training routine, ``fit_softmax_models``: it
trains any number of models that share one design matrix, each on its own
column subset, in one class-major gradient descent. A single fit is the
batch of one; the stacking layer fits every LR meta-classifier of a
command as one batch. An epoch runs one exp and updates the weights in
place. The bias rides the products as
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
oracle. A design row may stand for ``counts`` identical rows: its weight
counts/Σcounts replaces 1/n, so stacking descends on distinct vote
patterns only. Each model's step is its configured ``step`` capped at
1/L, where L is Böhning's bound on the curvature of its loss over its own
columns, so no step overshoots, every epoch runs the same steps, and the
loss is computed once, for the final weights, to record how the fit ended.
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
# members, C=2, 300 epochs of 14 numpy calls, took 0.58-0.75× the time of
# separate fits at 6.5e4, 0.86-0.88× at 1.3e5, 0.84-0.87× at 1.8e5,
# 1.2× at 2.6e5 and 1.7× at 3.4e5 (one BLAS thread, 2-CPU x86-64 KVM guest).
SHARED_DESCENT_WORK = 2**17


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


def _class_sums(X: np.ndarray, y: np.ndarray, num_classes: int) -> np.ndarray:
    """The (C, V) sum of each class's rows of X, from one (C, N)·(N, V)
    one-hot product, so no class's rows are copied out of X."""
    onehot = np.zeros((num_classes, len(y)))
    onehot[y, np.arange(len(y))] = 1.0
    return onehot @ X


class MultinomialNB:
    """Multinomial naive Bayes with Laplace smoothing (``NB_SMOOTHING``).

    Negative feature values (possible under the signed dense projection) are
    clamped to zero, since multinomial likelihoods are defined over
    non-negative counts; only a matrix holding a negative is copied.
    """

    def __init__(self):
        self.class_log_prior_: np.ndarray | None = None
        self.feature_log_prob_: np.ndarray | None = None

    @staticmethod
    def _clamped(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.clip(X, 0.0, None) if X.size and X.min() < 0.0 else X

    def fit(self, X: np.ndarray, y: np.ndarray, num_classes: int) -> "MultinomialNB":
        y = np.asarray(y, dtype=np.int64)
        counts = np.bincount(y, minlength=num_classes)
        # Unseen classes keep a tiny prior so log() stays finite.
        priors = np.where(counts > 0, counts, 1e-12) / max(len(y), 1)
        self.class_log_prior_ = np.log(priors)
        smoothed = _class_sums(self._clamped(X), y, num_classes) + NB_SMOOTHING
        self.feature_log_prob_ = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = self._clamped(X)
        return np.argmax(X @ self.feature_log_prob_.T + self.class_log_prior_, axis=1)


class SoftmaxRegression:
    """Multiclass logistic regression trained by full-batch gradient descent.

    ``step`` is a ceiling: the fit steps at ``step_``, the smaller of it and
    1/L for Böhning's curvature bound L of the training loss, so a step
    cannot raise the loss. ``loss_history_`` holds the loss of the final
    weights, and ``diverged`` records one that is not finite or lies above
    the starting loss. ``fit`` is ``fit_softmax_models`` with one model over
    all columns.
    """

    def __init__(self, step: float = 0.1, epochs: int = 300, l2: float = 1e-4):
        self.step = step
        self.epochs = epochs
        self.l2 = l2
        self.step_: float | None = None
        self.weights_: np.ndarray | None = None
        self.bias_: np.ndarray | None = None
        self.loss_history_ = np.empty(0)
        self.diverged = False

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
    order. An epoch exponentiates the max-shifted scores s̃ once, in place,
    and the gradient's softmax part G = (exp(s̃)·w/Z)·[X | 1] follows. The
    label part (Y·w)·[X | 1] is constant, so each step is
    [W | b]·decay − rates·G + pull with ``pull`` = rates·(Y·w)·[X | 1]
    computed once; ``decay`` = 1 − rates·λ spares the bias, and all three
    have the weights' full shape, as w has the scores', so no step
    broadcasts. With all counts 1, w is exactly 1/n. Every gradient row
    sums to zero over classes, so only the first C − 1 class slabs go
    through the gradient product and the step; the last is set to minus
    their sum, class 0 first. Each step updates the weights in place.
    Model m's weights outside ``columns[m]`` get a step size of
    zero and stay zero, so it computes what a fit on its own columns
    computes, up to float summation order. The Gram form descends in
    [A | b] (C, M, N + 1) over [K; 1] instead, with G = [P | ΣP] for the
    softmax part P, and the weights are A·X in column order (the last
    class again minus the others' sum).

    Model m steps at ``step_`` = min(``step``, 1/L_m), where
    L_m = ½ Σ w_i(‖x_i‖² + 1) + λ over its own columns bounds the
    curvature of its loss (Böhning 1992), so in exact arithmetic no step
    raises the loss (the descent lemma). The loss, Σ w·(log Z − s_y) +
    ½λ‖W‖², never feeds a step: one forward pass after the last epoch takes
    it for the final weights. ``loss_history_`` holds it (empty after 0
    epochs), and ``diverged`` is set when it is not finite or lies above the
    starting loss log C. The models must share ``epochs`` and ``l2``. Each
    gets ``weights_`` of shape (len(columns[m]), C) in column order.
    """
    if not models:
        return
    epochs, l2 = models[0].epochs, models[0].l2
    if any((model.epochs, model.l2) != (epochs, l2) for model in models):
        raise ValueError("models trained together must share epochs and l2")
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
    # Row weights w, held per model so that no epoch ufunc broadcasts.
    counts = np.ones(n) if counts is None else np.asarray(counts, dtype=np.float64)
    share = np.repeat((counts / counts.sum())[None], m, axis=0)
    # Σ w_i‖x_i‖² over each model's columns: diag(K) in the Gram form, else
    # Σ w_i x_ij² per column j, summed without squaring a copy of X.
    if gram:
        sums = np.full(m, share[0] @ np.diagonal(basis))
    else:
        by_column = np.einsum("jn,jn,n->j", basis[:width], basis[:width], share[0])
        sums = [by_column[cols].sum() for cols in columns]
    # Step size per model and coefficient, 0 outside the model's own
    # columns. L2 decays the coefficients, not the bias.
    rates = np.zeros((h, m, width + 1))
    for i, (model, cols, total) in enumerate(zip(models, columns, sums)):
        model.step_ = min(model.step, 1.0 / (0.5 * (total + 1.0) + l2))
        rates[:, i, slice(None) if gram else cols] = model.step_
        rates[:, i, width] = model.step_
    decay = 1.0 - l2 * rates
    decay[:, :, width] = 1.0
    # The gradient's label term, (Y·w)·[X | 1] or [Y·w | Σ Y·w], is constant:
    # each step adds it, times the rates, as ``pull``.
    onehot = np.zeros((c, n))
    onehot[y, np.arange(n)] = share[0]
    if gram:
        label_term = np.hstack([onehot, onehot.sum(axis=1, keepdims=True)])
    else:
        label_term = onehot @ basis.T
    pull = rates * label_term[:h, None, :]

    # Preallocated buffers, so that an epoch allocates nothing: the weights
    # as rows for the forward product, the slabs that descend, the last
    # slab, the coefficients and the bias.
    weights = np.zeros((c, m, width + 1))
    flat_w, head, last_slab = weights.reshape(c * m, width + 1), weights[:h], weights[h]
    coef, bias = weights[:, :, :width], weights[:, :, width]
    grad = np.empty((h, m, width + 1))
    flat_g = grad.reshape(h * m, width + 1)
    grad_coef, grad_bias = grad[:, :, :width], grad[:, :, width]
    scores = np.empty((c, m, n))
    flat_s = scores.reshape(c * m, n)
    head_s, head_rows = scores[:h], flat_s[: h * m]
    top, norm = np.empty((m, n)), np.empty((m, n))
    for _ in range(epochs):
        np.matmul(flat_w, basis, out=flat_s)
        np.maximum.reduce(scores, axis=0, out=top)
        np.subtract(scores, top, out=scores)
        np.exp(scores, out=scores)
        np.add.reduce(scores, axis=0, out=norm)
        # scores becomes P = exp(s̃)·w/Z, and G, the gradient less its label
        # and L2 terms, is P·[X | 1], or [P | ΣP] in the Gram form.
        np.divide(share, norm, out=norm)
        np.multiply(scores, norm, out=scores)
        if gram:
            np.copyto(grad_coef, head_s)
            np.add.reduce(head_s, axis=2, out=grad_bias)
        else:
            np.matmul(head_rows, basis.T, out=flat_g)
        # W·decay − rates·G + pull, then the last slab is minus the others'
        # sum: 0 − Σ, so that a coefficient no class moves stays +0.0.
        np.multiply(grad, rates, out=grad)
        head *= decay
        head -= grad
        head += pull
        np.add.reduce(head, axis=0, out=last_slab)
        np.subtract(0.0, last_slab, out=last_slab)

    if gram:
        coef = np.empty((c, m, d))
        np.matmul(weights[:h, :, :width], X, out=coef[:h])
        np.add.reduce(coef[:h], axis=0, out=coef[h])
        np.subtract(0.0, coef[h], out=coef[h])
    # The loss of the final weights, Σ w·(log Z − s_y) + ½λ‖W‖², from one
    # more forward pass: Σ w·s_y weighs the scores by the one-hot row weights.
    np.matmul(flat_w, basis, out=flat_s)
    np.logaddexp.reduce(scores, axis=0, out=norm)
    loss = np.einsum("mn,mn->m", norm, share) - np.einsum("cn,cmn->m", onehot, scores)
    loss += 0.5 * l2 * np.einsum("cmk,cmk->m", coef, coef)
    for i, (model, cols) in enumerate(zip(models, columns)):
        model.weights_ = coef[:, i, cols].T.copy()
        model.bias_ = bias[:, i].copy()
        model.loss_history_ = loss[i:i + 1].copy() if epochs else np.empty(0)
        # From zero weights the loss starts at log C; NaN fails the test too.
        model.diverged = not np.all(model.loss_history_ <= np.log(c) + 1e-12)


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
        y = np.asarray(y, dtype=np.int64)
        # Not np.unique: under numpy 2.4 it imports numpy.ma on every cold run.
        counts = np.bincount(y, minlength=num_classes)
        self._classes = np.flatnonzero(counts)
        sums = _class_sums(np.asarray(X, dtype=np.float64), y, num_classes)
        self._centroids = sums[self._classes] / counts[self._classes, None]
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

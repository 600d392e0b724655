"""Base learning algorithms over dense feature matrices.

All four are deterministic: none consumes randomness, softmax regression
starts from zero weights, and every tie is broken toward the smallest class
index.

Softmax regression has one training routine, ``fit_softmax_models``: it
trains any number of models that share one design matrix, each on its own
column subset, in one class-major gradient descent. A single fit is the
batch of one; the stacking layer fits every LR meta-classifier of a
command as one batch. An epoch runs one exp and copies no weights: each
step writes a spare buffer that swaps in. The primal form descends in the
weights W, two products with X per epoch. Descent from zero never leaves
the row space of X, so the Gram form descends in A with W = A·X, one
product with K = X·Xᵀ per epoch. It is used when every model trains on all
columns and ``gram_form_pays`` (a flop count) says so: pool LR on a
vocabulary wider than the training set.
``SoftmaxRegression`` also holds the closed-form NB and VOTE
meta-classifier weights, and ``top_class`` is the one tie rule for linear
scores.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

ALGORITHM_TOKENS = ("NB", "LR", "KNN", "NC")


def top_class(scores: np.ndarray) -> np.ndarray:
    """Highest-scoring class of each row. Scores within
    ``1e-12 * max(1, |top|)`` of the top score tie, and a tie goes to the
    smallest class index, so rounding noise does not decide a prediction."""
    top = scores.max(axis=1, keepdims=True)
    near_top = scores >= top - 1e-12 * np.maximum(1.0, np.abs(top))
    return np.argmax(near_top, axis=1)


class MultinomialNB:
    """Multinomial naive Bayes with Laplace smoothing.

    Negative feature values (possible under the signed dense projection) are
    clamped to zero, since multinomial likelihoods are defined over
    non-negative counts.
    """

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha
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
        smoothed = totals + self.alpha
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


def fit_softmax_models(
    models: Sequence[SoftmaxRegression],
    X: np.ndarray,
    y: np.ndarray,
    num_classes: int,
    columns: Sequence[np.ndarray],
) -> None:
    """Train ``models[m]`` on ``X[:, columns[m]]`` for every m, together.

    All models share one design matrix and one gradient-descent loop, so
    the per-epoch cost of numpy calls is paid once for the batch. Arrays
    are class-major, shape (C, M, N) for scores and (C, M, D) for weights:
    the softmax max and sum over classes run elementwise across C
    contiguous slabs. An epoch exponentiates the max-shifted scores s̃ once,
    in place; the loss, mean(log Z − s̃_y) + ½λ‖W‖², and the gradient's
    δ = exp(s̃)/(n·Z) − onehot/n both follow. Each step writes the spare
    weight and bias buffers, which then swap in, so the spare holds the
    previous epoch's for a revert. Model m's weights outside ``columns[m]``
    get a step size of zero and stay zero, so it computes what a fit on its
    own columns computes, up to float summation order. The Gram form descends
    in A (C, M, N) instead, and the weights are A·X in column order.

    Each model keeps its own divergence rule: when its loss rises by more
    than 1e-12, its weights revert to the previous epoch's, ``diverged``
    and ``diverged_epoch`` are set, and it stops updating while the others
    continue. The models must share ``step``, ``epochs`` and ``l2``. Each
    gets ``weights_`` of shape (len(columns[m]), C) in column order and
    ``loss_history_``, an array with the loss of every epoch it kept.
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
    gram = gram_form_pays(n, d, c, m, epochs) and all(
        np.array_equal(np.sort(cols), np.arange(d)) for cols in columns
    )
    # ``weights`` holds W (primal) or A (Gram), and scores are weights·basis.
    basis, width = (X @ X.T, n) if gram else (X.T, d)
    # Step size per model and coefficient: 0 outside the model's own
    # columns, and 0 everywhere once the model has stopped.
    rates = np.zeros((1, m, width))
    for i, cols in enumerate(columns):
        rates[0, i, slice(None) if gram else cols] = step
    bias_rates = np.full((1, m, 1), step)
    onehot = np.zeros((c, 1, n))
    onehot[y, 0, np.arange(n)] = 1.0 / n
    # Flat index of score (y_i, m, i); mode "clip" lets ``take`` fill ``out`` unbuffered.
    label_at = y * (m * n) + np.arange(n) + (np.arange(m) * n)[:, None]

    # Preallocated buffers; ``spare`` and ``spare_bias`` hold the last epoch's.
    weights, spare, grad, scratch = (np.zeros((c, m, width)) for _ in range(4))
    bias, spare_bias, grad_b = (np.zeros((c, m, 1)) for _ in range(3))
    scores = np.empty((c, m, n))
    top, norm, label = np.empty((m, n)), np.empty((m, n)), np.empty((m, n))
    flat_s, flat_g = scores.reshape(c * m, n), grad.reshape(c * m, width)
    losses = np.empty((epochs, m))
    stopped_at = np.full(m, -1)
    active = np.ones(m, dtype=bool)

    for epoch in range(epochs):
        np.matmul(weights.reshape(c * m, width), basis, out=flat_s)
        # ‖W‖² per model: Σ W ⊙ W, or Σ A ⊙ (A·K) read before the bias.
        np.multiply(weights, scores if gram else weights, out=scratch)
        scores += bias
        np.maximum.reduce(scores, axis=0, out=top)
        scores -= top
        np.take(scores, label_at, out=label, mode="clip")
        np.exp(scores, out=scores)
        np.add.reduce(scores, axis=0, out=norm)
        np.log(norm, out=top)
        top -= label
        loss = np.add.reduce(top, axis=1) / n + 0.5 * l2 * np.add.reduce(scratch, axis=(0, 2))
        # scores becomes δ = exp(s̃)/(n·Z) − onehot/n.
        np.divide(1.0 / n, norm, out=norm)
        scores *= norm
        scores -= onehot
        # The gradient is δ·X + λW in W, and δ + λA in A.
        np.multiply(weights, l2, out=scratch)
        if gram:
            np.add(scores, scratch, out=grad)
        else:
            np.matmul(flat_s, X, out=flat_g)
            grad += scratch
        np.add.reduce(scores, axis=2, keepdims=True, out=grad_b)
        if epoch:
            rising = active & (loss > losses[epoch - 1] + 1e-12)
            if rising.any():
                weights[:, rising] = spare[:, rising]
                bias[:, rising] = spare_bias[:, rising]
                rates[:, rising] = 0.0
                bias_rates[:, rising] = 0.0
                stopped_at[rising] = epoch
                active &= ~rising
                if not active.any():
                    break
        losses[epoch] = loss
        grad *= rates
        grad_b *= bias_rates
        np.subtract(weights, grad, out=spare)
        np.subtract(bias, grad_b, out=spare_bias)
        weights, spare, bias, spare_bias = spare, weights, spare_bias, bias

    kept = np.where(stopped_at >= 0, stopped_at, epochs)
    for i, (model, cols) in enumerate(zip(models, columns)):
        model.weights_ = (weights[:, i] @ X if gram else weights[:, i])[:, cols].T.copy()
        model.bias_ = bias[:, i, 0].copy()
        model.loss_history_ = losses[: kept[i], i].copy()
        model.diverged = bool(stopped_at[i] >= 0)
        model.diverged_epoch = int(stopped_at[i]) if model.diverged else None


class CosineKNN:
    """k-nearest-neighbors under cosine distance with plurality voting.

    Zero vectors get similarity 0 to everything. Neighbor ties at equal
    distance resolve toward the smaller training index; vote ties toward the
    smallest class index.
    """

    def __init__(self, k: int = 5):
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
        self._unit_train = self._unit_rows(X)
        self._labels = np.asarray(y, dtype=np.int64)
        self._num_classes = num_classes
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        distances = 1.0 - self._unit_rows(X) @ self._unit_train.T
        k = min(self.k, self._unit_train.shape[0])
        nearest = self._labels[np.argsort(distances, kind="stable", axis=1)[:, :k]]
        votes = np.zeros((distances.shape[0], self._num_classes), dtype=np.int64)
        np.add.at(votes, (np.arange(distances.shape[0])[:, None], nearest), 1)
        return np.argmax(votes, axis=1).astype(np.int64)


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


def make_learner(token: str, *, knn_k: int = 5):
    token = token.strip().upper()
    if token == "NB":
        return MultinomialNB()
    if token == "LR":
        return SoftmaxRegression()
    if token == "KNN":
        return CosineKNN(k=knn_k)
    if token == "NC":
        return NearestCentroid()
    raise ValueError(f"unknown algorithm token {token!r}; expected one of {ALGORITHM_TOKENS}")

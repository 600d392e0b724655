"""Independent reference implementations used to check the package.

Everything here is deliberately brute force and shares no code with the
implementations under test: the agglomerator recomputes inter-cluster
distances from the original matrix at every step instead of using the
Lance-Williams recursion, the scan agglomerator keeps the pair-by-pair
Python scan that the array-algebra linkage replaced (same recursion and
operand order, so heights must agree exactly), the metric oracle builds
its confusion matrix with plain loops, the level-sweep oracle cuts the
dendrogram afresh at every level with its own ``f_cluster`` instead of
replaying the merges once and sums exact ``Fraction`` distances from
co-failures counted one instance at a time, the gradient-descent oracle
fits one softmax regression at a time in row-major layout in the weights
(never through the Gram matrix), the stacking oracles count naive Bayes
likelihoods and plurality votes per member and per row instead of reading
weight rows of a linear scorer, the tie-rule oracle scans each row of
scores in Python, the nearest-centroid oracle broadcasts
one (N, C, V) difference tensor, the k-nearest-neighbour oracle sorts and
counts votes one query row at a time, the count oracle adds one token at a time,
the sign-row oracle draws each projection row from its own
``numpy.random`` generator instead of replaying the stream in array
arithmetic, and the matrix-reader oracle parses every cell with ``csv`` and
``int`` instead of handing plain tables to ``np.loadtxt`` (it borrows only
``ClassifierId.parse_header`` and the ``PredictionMatrix`` container).
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import numpy as np

from hsel.core import ClassifierId, PredictionMatrix, Split


def double_fault_oracle(pred_a, pred_b, truth) -> float:
    count = 0
    for a, b, t in zip(pred_a, pred_b, truth):
        if a != t and b != t:
            count += 1
    return count / len(truth)


def metrics_oracle(pred, truth, num_classes):
    """(accuracy, macro precision, macro recall, macro f1) by enumeration."""
    conf = [[0] * num_classes for _ in range(num_classes)]
    for p, t in zip(pred, truth):
        conf[t][p] += 1
    n = len(pred)
    acc = sum(conf[c][c] for c in range(num_classes)) / n
    precs, recs, f1s = [], [], []
    for c in range(num_classes):
        tp = conf[c][c]
        fp = sum(conf[r][c] for r in range(num_classes)) - tp
        fn = sum(conf[c]) - tp
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        precs.append(p)
        recs.append(r)
        f1s.append(f)
    return (
        acc,
        sum(precs) / num_classes,
        sum(recs) / num_classes,
        sum(f1s) / num_classes,
    )


def _cluster_distance(a: frozenset, b: frozenset, values: np.ndarray, method: str) -> float:
    cross = [float(values[i, j]) for i in a for j in b]
    if method == "single":
        return min(cross)
    if method == "complete":
        return max(cross)
    if method == "average":
        return sum(cross) / len(cross)
    # Centroid on squared-distance surrogates: mean cross distance minus the
    # normalized within-cluster totals of each side.
    within_a = sum(float(values[i, j]) for i in a for j in a if i < j) / (len(a) ** 2)
    within_b = sum(float(values[i, j]) for i in b for j in b if i < j) / (len(b) ** 2)
    return sum(cross) / len(cross) - within_a - within_b


def brute_force_linkage(values: np.ndarray, method: str):
    """Reference agglomerator: recomputes every inter-cluster distance from
    the original matrix at each step.

    Returns a list of (left_node, right_node, distance, size, leaf_set)
    tuples with the same node numbering convention as the implementation:
    leaves 0..P-1, internal nodes P..2P-2 in creation order. Ties resolve to
    the lexicographically smallest (min node, max node) pair.
    """
    values = np.asarray(values, dtype=np.float64)
    p = values.shape[0]
    clusters: list[tuple[int, frozenset]] = [(i, frozenset([i])) for i in range(p)]
    merges = []
    for step in range(p - 1):
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = _cluster_distance(clusters[a][1], clusters[b][1], values, method)
                key = (
                    min(clusters[a][0], clusters[b][0]),
                    max(clusters[a][0], clusters[b][0]),
                )
                if best is None or d < best[0] or (d == best[0] and key < best[1]):
                    best = (d, key, a, b)
        d, key, a, b = best
        leaves = clusters[a][1] | clusters[b][1]
        merges.append((key[0], key[1], d, len(leaves), leaves))
        clusters = [c for idx, c in enumerate(clusters) if idx not in (a, b)]
        clusters.append((p + step, leaves))
    return merges


def scan_linkage_oracle(values: np.ndarray, method: str):
    """The pair-scan agglomerator that ``hiercluster.linkage`` replaced, kept
    verbatim: every step scans the active pairs in Python for the smallest
    (distance, (min node, max node)) and updates the kept slot's distances
    one by one with the Lance-Williams recursion, in the same operand order.

    Returns a list of (left_node, right_node, distance, size) tuples.
    """
    dist = np.asarray(values, dtype=np.float64).copy()
    p = dist.shape[0]
    nodes = list(range(p))
    sizes = [1] * p
    active = list(range(p))
    merges = []

    for step_index in range(p - 1):
        best = None
        for a_pos in range(len(active)):
            for b_pos in range(a_pos + 1, len(active)):
                i, j = active[a_pos], active[b_pos]
                d = dist[i, j]
                pair_key = (min(nodes[i], nodes[j]), max(nodes[i], nodes[j]))
                if best is None or d < best[0] or (d == best[0] and pair_key < best[1]):
                    best = (d, pair_key, a_pos, b_pos)
        d, pair_key, a_pos, b_pos = best
        i, j = active[a_pos], active[b_pos]
        ni, nj = sizes[i], sizes[j]
        new_size = ni + nj

        for k in active:
            if k in (i, j):
                continue
            if method == "single":
                updated = min(dist[k, i], dist[k, j])
            elif method == "complete":
                updated = max(dist[k, i], dist[k, j])
            elif method == "average":
                updated = (ni * dist[k, i] + nj * dist[k, j]) / new_size
            else:
                updated = (ni * dist[k, i] + nj * dist[k, j]) / new_size - (
                    ni * nj * dist[i, j]
                ) / (new_size * new_size)
            dist[k, i] = dist[i, k] = updated

        merges.append((pair_key[0], pair_key[1], float(d), new_size))
        # Slot i now carries the merged cluster; slot j retires.
        nodes[i] = p + step_index
        sizes[i] = new_size
        active.pop(b_pos)
    return merges


RANDOM_N = 2**30


def random_symmetric_matrix(rng: np.random.Generator, p: int, n: int = RANDOM_N) -> np.ndarray:
    """Random co-failure counts in 0..n, exactly symmetric with a zero
    diagonal. At the default N = 2**30 the distances 1 - c/N are dyadic and
    almost never tie; a small n puts them on a grid of n + 1 values."""
    counts = np.zeros((p, p), dtype=np.int64)
    for i in range(p):
        for j in range(i + 1, p):
            counts[i, j] = counts[j, i] = rng.integers(0, n + 1)
    return counts


def exact_distance_oracle(pm) -> list[list[Fraction]]:
    """Distances ``1 - DF`` as exact Fractions, each pair's co-failures
    counted one instance at a time; the diagonal is 0."""
    n, p = pm.predictions.shape
    wrong = [[int(pm.predictions[r, i]) != int(pm.truth[r]) for i in range(p)] for r in range(n)]
    dist = [[Fraction(0)] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            both = sum(1 for row in wrong if row[i] and row[j])
            dist[i][j] = dist[j][i] = 1 - Fraction(both, n)
    return dist


def exact_mean_oracle(dist, members) -> Fraction:
    """Exact mean distance over the members' unordered pairs; 0 for fewer than two."""
    pairs = [dist[a][b] for x, a in enumerate(members) for b in members[x + 1 :]]
    return sum(pairs, Fraction(0)) / len(pairs) if pairs else Fraction(0)


def f_cluster(dendrogram, k: int) -> np.ndarray:
    """Flat clusters after exactly ``P - k`` merge steps.

    Returns a length-P array of labels in ``1..k``; labels are assigned by
    each cluster's smallest contained leaf index, ascending. The k-cluster
    partition always refines the (k-1)-cluster partition because both are
    prefixes of the same merge sequence.
    """
    p = dendrogram.num_leaves
    if not 1 <= k <= p:
        raise ValueError(f"k must lie in 1..{p}, got {k}")
    members: dict[int, list[int]] = {i: [i] for i in range(p)}
    for step_index in range(p - k):
        step = dendrogram.merges[step_index]
        merged = members.pop(step.left) + members.pop(step.right)
        members[p + step_index] = merged

    clusters = sorted(members.values(), key=min)
    labels = np.zeros(p, dtype=np.int64)
    for label, leaves in enumerate(clusters, start=1):
        for leaf in leaves:
            labels[leaf] = label
    return labels


def level_sweep_oracle(dendrogram, dist, leaf_scores, leaf_names):
    """Per level k = 1..P: (members, W(k), mean pairwise distance of members),
    W and the mean as exact Fractions over the ``exact_distance_oracle`` table.

    One ``f_cluster`` cut per k; each cluster keeps its highest-scoring leaf,
    ties to the smallest name; members follow the cut's labels. W(k) and the
    mean come from plain pair loops.
    """
    p = len(leaf_names)
    levels = []
    for k in range(1, p + 1):
        labels = f_cluster(dendrogram, k)
        members = []
        for label in range(1, k + 1):
            best = None
            for i in range(p):
                if labels[i] != label:
                    continue
                if (
                    best is None
                    or leaf_scores[i] > leaf_scores[best]
                    or (leaf_scores[i] == leaf_scores[best] and leaf_names[i] < leaf_names[best])
                ):
                    best = i
            members.append(best)
        w = Fraction(0)
        for i in range(p):
            for j in range(i + 1, p):
                if labels[i] == labels[j]:
                    w += dist[i][j]
        levels.append((members, w, exact_mean_oracle(dist, members)))
    return levels


def _log_softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_gd_oracle(X, y, num_classes, step, epochs, l2):
    """One softmax regression by full-batch gradient descent, N x C layout.

    Returns (weights (D, C), bias (C,), the loss of every epoch's starting
    weights).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    Y = np.zeros((n, num_classes), dtype=np.float64)
    Y[np.arange(n), y] = 1.0
    weights = np.zeros((d, num_classes), dtype=np.float64)
    bias = np.zeros(num_classes, dtype=np.float64)
    history: list[float] = []
    for _ in range(epochs):
        scores = X @ weights + bias
        log_probs = _log_softmax_rows(scores)
        loss = -log_probs[np.arange(n), y].mean() + 0.5 * l2 * float((weights ** 2).sum())
        delta = (np.exp(log_probs) - Y) / n
        grad_w = X.T @ delta + l2 * weights
        grad_b = delta.sum(axis=0)
        history.append(float(loss))
        weights = weights - step * grad_w
        bias = bias - step * grad_b
    return weights, bias, history


def categorical_nb_oracle(columns, y, num_classes, alpha=1.0):
    """Categorical naive Bayes over member predictions, one (member, class)
    count at a time.

    Returns (class log prior (C,), log likelihood (J, C, C) indexed
    [member, class, predicted value], joint log scores function).
    """
    columns = np.asarray(columns, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    n, j_members = columns.shape
    counts = np.bincount(y, minlength=num_classes).astype(np.float64)
    priors = np.where(counts > 0, counts, 1e-12) / n
    log_prior = np.log(priors)
    like = np.zeros((j_members, num_classes, num_classes), dtype=np.float64)
    for j in range(j_members):
        for c in range(num_classes):
            value_counts = np.bincount(columns[y == c, j], minlength=num_classes)
            smoothed = value_counts.astype(np.float64) + alpha
            like[j, c] = np.log(smoothed / smoothed.sum())

    def joint(rows):
        rows = np.asarray(rows, dtype=np.int64)
        scores = np.tile(log_prior, (rows.shape[0], 1))
        for j in range(j_members):
            scores += like[j, :, rows[:, j]]
        return scores

    return log_prior, like, joint


def top_class_oracle(scores):
    """The first class of each row within ``1e-12 * max(1, |top|)`` of its
    top score, one row at a time in Python floats. A NaN score makes the top
    NaN, as ``numpy.max`` does, and a row with no class near it gets 0."""
    out = []
    for row in np.asarray(scores, dtype=np.float64).tolist():
        top = math.nan if any(math.isnan(score) for score in row) else max(row)
        floor = top - 1e-12 * max(1.0, abs(top))
        out.append(next((k for k, score in enumerate(row) if score >= floor), 0))
    return np.array(out, dtype=np.int64)


def plurality_oracle(columns, num_classes):
    """Most frequent label per row; a tie goes to the smallest label."""
    out = np.empty(len(columns), dtype=np.int64)
    for i, row in enumerate(np.asarray(columns, dtype=np.int64)):
        out[i] = int(np.argmax(np.bincount(row, minlength=num_classes)))
    return out


def nearest_centroid_oracle(X, centroids, classes):
    """Class of the Euclidean-nearest centroid of each row, from one
    (N, C, V) difference tensor; a tie goes to the first centroid."""
    X = np.asarray(X, dtype=np.float64)
    d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return classes[np.argmin(d2, axis=1)]


def cosine_knn_oracle(X_train, y, num_classes, k, X):
    """Plurality label of the k cosine-nearest training rows, one query row
    at a time: a stable sort sends distance ties to the smaller training
    index, and a vote tie goes to the smallest class."""
    def unit(rows):
        rows = np.asarray(rows, dtype=np.float64)
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return rows / norms

    distances = 1.0 - unit(X) @ unit(X_train).T
    labels = np.asarray(y, dtype=np.int64)
    k = min(k, labels.size)
    out = np.empty(distances.shape[0], dtype=np.int64)
    for i, row in enumerate(distances):
        order = np.argsort(row, kind="stable")[:k]
        out[i] = int(np.argmax(np.bincount(labels[order], minlength=num_classes)))
    return out


def count_rows_oracle(docs, vocabulary):
    """(N, V) token counts, one token at a time; unknown tokens are skipped."""
    out = np.zeros((len(docs), len(vocabulary)), dtype=np.float64)
    for i, doc in enumerate(docs):
        for token in doc:
            j = vocabulary.get(token)
            if j is not None:
                out[i, j] += 1.0
    return out


def sign_row_oracle(seed, dim):
    """One -1/+1 projection row from its own ``default_rng(seed)`` generator."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=dim).astype(np.float64) * 2.0 - 1.0


def read_prediction_matrix_oracle(path):
    """The cell-by-cell prediction-matrix reader that ``read_prediction_matrix``
    keeps as its fallback, kept verbatim with the id-table parse inlined:
    ``csv.reader`` splits every line and ``int`` parses every field. Each
    record is numbered by the physical line it starts on."""
    meta_path = path + ".meta.json"
    with open(meta_path, encoding="utf-8-sig") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{meta_path}: line {exc.lineno}: malformed sidecar: {exc.msg}"
            ) from None
    for key in ("num_classes", "split"):
        if key not in meta:
            raise ValueError(f"{meta_path}: missing required key {key!r}")
    if meta.get("format", "hsel-prediction-matrix") != "hsel-prediction-matrix":
        raise ValueError(f"{meta_path}: format {meta['format']!r} is not 'hsel-prediction-matrix'")
    if meta.get("version", 1) != 1:
        raise ValueError(f"{meta_path}: unsupported version {meta['version']!r}")
    try:
        num_classes = int(meta["num_classes"])
        split = Split(meta["split"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{meta_path}: {exc}") from None

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: line 1: empty matrix file")
        if not header or header[0].strip().lower() != "truth":
            raise ValueError(f"{path}: line 1: first header field must be 'truth'")
        names = [h.strip() for h in header[1:]]
        if not names:
            raise ValueError(f"{path}: line 1: no classifier columns")
        ids = ClassifierId.parse_header(path, names)
        rows, linenos = [], []
        next_line = reader.line_num + 1
        for fields in reader:
            lineno, next_line = next_line, reader.line_num + 1
            if not fields:
                continue
            if len(fields) != len(header):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(header)} fields, found {len(fields)}"
                )
            try:
                rows.append([int(v) for v in fields])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-integer label") from None
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: matrix has no instance rows")
    try:
        table = np.array(rows, dtype=np.int64)
        bad = (table < 0) | (table >= num_classes)
    except OverflowError:  # a label beyond int64 is out of range as well
        bad = np.array([[not 0 <= v < num_classes for v in values] for values in rows])
    if bad.any():
        i = int(bad.any(axis=1).argmax())
        raise ValueError(
            f"{path}: line {linenos[i]}: label {rows[i][int(bad[i].argmax())]} out of range"
            f" (num_classes={num_classes})"
        )
    if meta.get("instances", len(rows)) != len(rows):
        raise ValueError(
            f"{meta_path}: instances is {meta['instances']!r} but {path} has"
            f" {len(rows)} rows"
        )

    return PredictionMatrix(
        classifier_ids=ids,
        predictions=table[:, 1:],
        truth=table[:, 0],
        num_classes=num_classes,
        split_tag=split,
    )


def softmax_step_oracle(X, step, l2, counts=None):
    """min(step, 1/L) for Böhning's bound L = ½ Σ wᵢ(‖xᵢ‖² + 1) + λ on the
    softmax loss's curvature, wᵢ = countsᵢ/Σcounts, summed row by row."""
    X = np.asarray(X, dtype=np.float64)
    counts = [1] * len(X) if counts is None else [int(k) for k in counts]
    total = sum(counts)
    bound = 0.5 * sum(k / total * (float(x @ x) + 1.0) for x, k in zip(X, counts)) + l2
    return min(step, 1.0 / bound)

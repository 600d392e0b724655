"""Independent reference implementations used to check the package.

Everything here is deliberately brute force and shares no code with the
implementations under test: the agglomerator recomputes inter-cluster
distances from the original matrix at every step instead of using the
Lance-Williams recursion, the metric oracle builds its confusion matrix
with plain loops, and the level-sweep oracle cuts the dendrogram afresh at
every level instead of replaying the merges once.
"""

from __future__ import annotations

import numpy as np

from hsel.hiercluster import f_cluster


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


def random_symmetric_matrix(rng: np.random.Generator, p: int) -> np.ndarray:
    """Random distances in [0, 1] with zero diagonal, exactly symmetric."""
    values = np.zeros((p, p), dtype=np.float64)
    for i in range(p):
        for j in range(i + 1, p):
            values[i, j] = values[j, i] = float(rng.random())
    return values


def level_sweep_oracle(dendrogram, values, leaf_scores, leaf_names):
    """Per level k = 1..P: (members, W(k), mean pairwise distance of members).

    One ``f_cluster`` cut per k; each cluster keeps its highest-scoring leaf,
    ties to the smallest name; members follow the cut's labels. W(k) and the
    mean distance come from plain pair loops over the original matrix.
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
        w = 0.0
        for i in range(p):
            for j in range(i + 1, p):
                if labels[i] == labels[j]:
                    w += float(values[i, j])
        pairs = [float(values[a, b]) for x, a in enumerate(members) for b in members[x + 1 :]]
        levels.append((members, w, sum(pairs) / len(pairs) if pairs else 0.0))
    return levels

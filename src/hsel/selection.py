"""Ensemble candidate selection over the clustered pool.

``hierarchy_select`` sweeps every hierarchy level k and keeps the
best-scoring classifier of each of the k clusters, which yields one
candidate ensemble per level; level k adds the k-th of ``retirement_order``
to level k - 1, so NB and VOTE stacks score a sweep by one running sum.
``choose_final`` turns the candidate list into a single deployed ensemble
under a configurable rule. The elbow heuristic, per-token groups, and the
random baseline provide the comparison points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import METRIC_NAMES, ClassifierId, EvalEntry
from .diversity import DissimilarityMatrix
from .hiercluster import Dendrogram

FINAL_RULES = ("max-validation", "max-diversity", "weighted")


@dataclass(frozen=True)
class EnsembleCandidate:
    """A selected classifier subset: one member per cluster at level k.

    ``validation_score`` is the stacked candidate's metric on VALIDATION and
    is filled in by the combination stage; selection itself only knows the
    per-member scores.
    """

    level_k: int
    metric_name: str
    members: tuple[ClassifierId, ...]
    mean_pairwise_distance: float
    validation_score: float | None = None

    def with_score(self, score: float) -> "EnsembleCandidate":
        return EnsembleCandidate(
            self.level_k, self.metric_name, self.members, self.mean_pairwise_distance, score
        )


def _merge_pairs(dendrogram: Dendrogram) -> Iterator[tuple[int, int]]:
    """Replay the merges naming each cluster by its smallest leaf: yields the
    merged cluster's name and the name it retires. After ``P - k`` steps the
    surviving names are the smallest leaves of the k clusters of level k;
    ascending, they order those clusters."""
    names = list(range(dendrogram.num_leaves))
    for step in dendrogram.merges:
        kept, retired = sorted((names[step.left], names[step.right]))
        names.append(kept)
        yield kept, retired


def retirement_order(dendrogram: Dendrogram, keys: Sequence) -> list[int]:
    """Leaf indices in the order they join the level sweep from k = 1 up:
    level k's members, the smallest-key leaf of each of its k clusters, are
    the first k. The merge from k to k - 1 clusters keeps the better of its
    children's best leaves; the other is the one level k adds."""
    best, losers = list(range(dendrogram.num_leaves)), []
    for kept, retired in _merge_pairs(dendrogram):
        best[kept], loser = sorted((best[kept], best[retired]), key=keys.__getitem__)
        losers.append(loser)
    return [best[0], *reversed(losers)]


def _exact_counts(matrix: DissimilarityMatrix) -> tuple[np.ndarray, int]:
    """Co-failure counts and N; each level divides integers up to pairs·N < 2**53 once."""
    if matrix.co_failures is None:
        raise ValueError("level means need co-failure counts; a matrix read from a file has none")
    p, n = matrix.size, matrix.n_instances
    if p * (p - 1) // 2 * n >= 2**53:
        raise ValueError(f"{p} classifiers x {n} instances reach 2**53: means would not be exact")
    return matrix.co_failures, n


def hierarchy_select(
    dendrogram: Dendrogram,
    matrix: DissimilarityMatrix,
    scores: Mapping[str, EvalEntry],
    metric: str = "accuracy",
) -> list[EnsembleCandidate]:
    """One candidate ensemble per hierarchy level k = 1..P, ascending in k.

    At each level the classifier maximizing the chosen metric is kept from
    each of the k clusters, ties broken toward the lexicographically smallest
    canonical id: the first k of the metric's ``retirement_order``, ordered
    by cluster label (ascending smallest leaf index). With S_k the members'
    co-failure sum, a prefix sum along that order, the mean distance is
    (pairs·N - S_k) / (pairs·N) rounded once: ``choose_final`` breaks score
    ties on distance, and levels tie when their exact means round alike.
    """
    if metric not in METRIC_NAMES:
        raise ValueError(f"metric {metric!r} absent from scores; expected one of {METRIC_NAMES}")
    dendro_ids = [cid.canonical for cid in dendrogram.leaf_ids]
    matrix_ids = [cid.canonical for cid in matrix.ids]
    if dendro_ids != matrix_ids:
        raise ValueError("dendrogram and dissimilarity matrix must share one id order")
    missing = [name for name in dendro_ids if name not in scores]
    if missing:
        raise ValueError(f"scores missing for classifiers: {missing}")
    counts, n = _exact_counts(matrix)

    keys = [(-scores[name].metric(metric), name) for name in dendro_ids]
    order = retirement_order(dendrogram, keys)
    # Each cluster's best leaf by cluster name, -1 once merged away: the merge
    # from level k to k - 1 keeps the best leaf that order[k - 1] does not retire.
    best = list(range(dendrogram.num_leaves))
    levels = [best.copy()]
    for (kept, retired), loser in zip(_merge_pairs(dendrogram), reversed(order)):
        if best[kept] == loser:
            best[kept] = best[retired]
        best[retired] = -1
        levels.append([leaf for leaf in best if leaf >= 0])
    # Level k + 1 adds row k of the reordered lower triangle; level 1 has no pairs and mean 0.
    pair_instances = np.cumsum(np.arange(len(order))) * n
    cofailed = np.cumsum(np.tril(counts[np.ix_(order, order)], -1).sum(axis=1))
    means = ((pair_instances - cofailed) / np.maximum(pair_instances, 1)).tolist()
    leaf_ids = dendrogram.leaf_ids
    return [
        EnsembleCandidate(
            level_k=len(members),
            metric_name=metric,
            members=tuple([leaf_ids[i] for i in members]),
            mean_pairwise_distance=means[len(members) - 1],
        )
        for members in reversed(levels)
    ]


def _rule_key(candidate: EnsembleCandidate, rule: str, alpha: float):
    score = candidate.validation_score
    dist = candidate.mean_pairwise_distance
    if rule == "max-diversity":
        tie_score = score if score is not None else -math.inf
        return (dist, tie_score, -candidate.level_k)
    if score is None:
        raise ValueError(
            f"rule {rule!r} needs stacked validation scores on every candidate"
        )
    if rule == "max-validation":
        return (score, dist, -candidate.level_k)
    return (alpha * score + (1.0 - alpha) * dist, dist, -candidate.level_k)


def choose_final(
    candidates: Sequence[EnsembleCandidate],
    rule: str = "max-validation",
    alpha: float = 0.5,
) -> EnsembleCandidate:
    """Pick the deployed ensemble from the level sweep.

    max-diversity: highest mean pairwise distance, ties by validation score
    then smaller k. max-validation: highest stacked validation score, ties
    by distance then smaller k. weighted: ``alpha * score +
    (1 - alpha) * distance`` with the max-validation tie chain.
    """
    rule = rule.strip().lower()
    if rule not in FINAL_RULES:
        raise ValueError(f"unknown rule {rule!r}; expected one of {FINAL_RULES}")
    if not candidates:
        raise ValueError("no candidates to choose from")
    if rule == "weighted" and not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    ordered = sorted(candidates, key=lambda c: c.level_k)
    return max(ordered, key=lambda c: _rule_key(c, rule, alpha))


def _chord_knee(w: Sequence[float]) -> int:
    """Knee of the curve (k, w[k-1]) for k = 1..P by chord distance.

    Returns the interior k whose point is farthest from the chord joining
    the endpoints; ties resolve to the smaller k. Endpoints are never
    returned (their chord distance is identically 0), so P >= 3.
    """
    p = len(w)
    x1, y1 = 1.0, float(w[0])
    x2, y2 = float(p), float(w[-1])
    norm = math.hypot(x2 - x1, y2 - y1)  # at least x2 - x1 = p - 1 >= 2
    return max(range(2, p), key=lambda k: abs(
        (y2 - y1) * k - (x2 - x1) * float(w[k - 1]) + x2 * y1 - y2 * x1) / norm)


def within_cluster_totals(dendrogram: Dendrogram, matrix: DissimilarityMatrix) -> list[float]:
    """W(k) for k = 1..P: total within-cluster pairwise distance at level k.

    One replay of the merges from W(P) = 0: each merge adds pairs·N minus
    the co-failures across its two clusters to the integer N·W(k)."""
    counts, n = _exact_counts(matrix)
    leaves = [[i] for i in range(dendrogram.num_leaves)]
    totals = [0]
    for kept, retired in _merge_pairs(dendrogram):
        a, b = leaves[kept], leaves[retired]
        totals.append(totals[-1] + len(a) * len(b) * n - int(counts[np.ix_(a, b)].sum()))
        leaves[kept] += b
    return [total / n for total in reversed(totals)]


def elbow_select(dendrogram: Dendrogram, matrix: DissimilarityMatrix) -> int:
    """Comparator heuristic: the level k at the knee of the W(k) curve."""
    if dendrogram.num_leaves < 3:
        raise ValueError("elbow selection needs at least 3 classifiers")
    return _chord_knee(within_cluster_totals(dendrogram, matrix))


def group_members(
    ids: Sequence[ClassifierId], mode: str, token: str | None = None
) -> list[ClassifierId]:
    """Comparison groups over the pool ids.

    A: all classifiers sharing one algorithm token. B: all sharing one
    extractor token. C: the whole pool. Order follows the pool.
    """
    mode = mode.strip().upper()
    if mode == "C":
        return list(ids)
    if mode not in ("A", "B"):
        raise ValueError(f"unknown group mode {mode!r}; expected A, B, or C")
    if token is None:
        raise ValueError(f"group mode {mode} needs a token")
    token = token.strip().upper()
    if mode == "A":
        members = [cid for cid in ids if cid.algorithm == token]
        available = sorted({cid.algorithm for cid in ids})
    else:
        members = [cid for cid in ids if cid.extractor == token]
        available = sorted({cid.extractor for cid in ids})
    if not members:
        raise ValueError(f"unknown token {token!r} for group {mode}; pool has {available}")
    return members


def random_baseline(num_classes: int) -> float:
    """Expected accuracy of uniform random guessing: 1 / num_classes."""
    if num_classes < 2:
        raise ValueError("baseline needs at least 2 classes")
    return 1.0 / num_classes

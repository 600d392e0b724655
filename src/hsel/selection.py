"""Ensemble candidate selection over the clustered pool.

``hierarchy_select`` sweeps every hierarchy level k and keeps the
best-scoring classifier of each of the k clusters, which yields one
candidate ensemble per level; level k adds one member, its ``joined``, to
level k - 1, so NB and VOTE stacks score a sweep by one running sum.
``choose_final`` turns the candidate list into a single deployed ensemble
under a configurable rule. The elbow heuristic, per-token groups, and the
random baseline provide the comparison points.
"""

from __future__ import annotations

import bisect
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

    ``joined`` is the member level k adds to level k - 1 (level 1's only
    member). ``validation_score`` is the stacked candidate's metric on
    VALIDATION and is filled in by the combination stage; selection itself
    only knows the per-member scores.
    """

    level_k: int
    members: tuple[ClassifierId, ...]
    joined: ClassifierId
    mean_pairwise_distance: float
    validation_score: float | None = None

    def with_score(self, score: float) -> "EnsembleCandidate":
        return EnsembleCandidate(self.level_k, self.members, self.joined,
                                 self.mean_pairwise_distance, score)


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


def _exact_counts(matrix: DissimilarityMatrix) -> tuple[np.ndarray, int]:
    """Co-failure counts and N; each level divides integers up to pairs·N < 2**53 once."""
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
    canonical id, ordered by cluster label (ascending smallest leaf index).
    One replay of the merges decides every level: the merge from k to k - 1
    clusters keeps the better of its children's best leaves, and the other
    is level k's ``joined``. The levels are then built up from level 1:
    level k's members are level k - 1's with that merge undone, one member
    inserted at the retired cluster's label and, where the retired
    cluster's leaf won, the kept cluster's own leaf put back. With S_k the
    co-failure sum of the first k members to join, the mean distance
    (pairs·N - S_k) / (pairs·N) is rounded once: ``choose_final`` breaks
    score ties on distance, so levels tie only when their exact means round
    alike.
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
    # Each cluster's best leaf by cluster name; each merge records its two
    # clusters' names, their best leaves before it, and the losing one.
    best = list(range(dendrogram.num_leaves))
    steps = []
    for kept, retired in _merge_pairs(dendrogram):
        a, b = best[kept], best[retired]
        best[kept] = min(a, b, key=keys.__getitem__)
        steps.append((kept, retired, a, b, b if best[kept] == a else a))
    # Up from level 1, undoing one merge per level; ``names`` holds the
    # level's cluster names, ascending, aligned with ``members``.
    leaf_ids = dendrogram.leaf_ids
    names, members, order = [0], [leaf_ids[best[0]]], [best[0]]
    levels = [tuple(members)]
    for kept, retired, a, b, loser in reversed(steps):
        members[bisect.bisect_left(names, kept)] = leaf_ids[a]
        at = bisect.bisect_left(names, retired)
        names.insert(at, retired)
        members.insert(at, leaf_ids[b])
        levels.append(tuple(members))
        order.append(loser)
    # Level k + 1 adds row k of the reordered lower triangle; level 1 has no pairs and mean 0.
    pair_instances = np.cumsum(np.arange(len(order))) * n
    cofailed = np.cumsum(np.tril(counts.take(order, axis=0).take(order, axis=1), -1).sum(axis=1))
    means = ((pair_instances - cofailed) / np.maximum(pair_instances, 1)).tolist()
    return [
        EnsembleCandidate(k, level, leaf_ids[leaf], mean)
        for k, (level, leaf, mean) in enumerate(zip(levels, order, means), start=1)
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
    return max(candidates, key=lambda c: _rule_key(c, rule, alpha))


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

    In dendrogram leaf order, where each node's leaves are contiguous and its
    left child's come first, every merge joins two adjacent ranges, and its
    co-failures across them are one rectangle of a 2-D int64 prefix sum of
    the reordered counts. From W(P) = 0 each merge adds pairs·N minus that
    sum to the integer N·W(k), and each level is divided by N once."""
    counts, n = _exact_counts(matrix)
    p, merges = dendrogram.num_leaves, dendrogram.merges
    # Top down: a node's leaves start where its parent's do, or after its sibling's.
    start, sizes = [0] * (2 * p - 1), [1] * p + [step.size for step in merges]
    for node in range(2 * p - 2, p - 1, -1):
        step = merges[node - p]
        start[step.left] = start[node]
        start[step.right] = start[node] + sizes[step.left]
    start, sizes = np.array(start), np.array(sizes)
    order = np.empty(p, dtype=np.intp)
    order[start[:p]] = np.arange(p)
    # Row by row, so the reordered counts are never held whole, and an
    # axis-0 cumsum does not stride down each column.
    prefix = np.zeros((p + 1, p + 1), dtype=np.int64)
    for r, leaf in enumerate(order, start=1):
        np.cumsum(counts[leaf].take(order), out=prefix[r, 1:])
        prefix[r] += prefix[r - 1]
    left = np.array([step.left for step in merges], dtype=np.intp)
    lo = start[left]
    mid, hi = lo + sizes[left], lo + sizes[p:]
    across = prefix[mid, hi] - prefix[lo, hi] - prefix[mid, mid] + prefix[lo, mid]
    totals = np.cumsum((mid - lo) * (hi - mid) * n - across)
    return (totals[::-1] / n).tolist() + [0.0]


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

"""Agglomerative hierarchical clustering over a dissimilarity matrix.

The agglomerator starts from singletons and repeatedly merges the closest
pair of active clusters, found from a cached minimum per row (the "generic"
algorithm of Müllner 2011, arXiv:1109.2378), then updates their distances
as one vector with these Lance-Williams coefficients of the selected
linkage. A row whose cached minimum sat in a merged column keeps it as a
lower bound and is rescanned only when that bound is the least of all,
as Müllner's priority queue does; under centroid linkage, where a merged
cluster is often the nearest column of many rows, most such rows are
never rescanned before they merge.

    single    d(k, ij) = min(d(k,i), d(k,j))
    complete  d(k, ij) = max(d(k,i), d(k,j))
    average   d(k, ij) = (n_i d(k,i) + n_j d(k,j)) / (n_i + n_j)
    centroid  d(k, ij) = (n_i d(k,i) + n_j d(k,j)) / (n_i + n_j)
                         - n_i n_j d(i,j) / (n_i + n_j)^2

Centroid treats matrix entries as squared-distance surrogates and may
produce inversions (a later merge at a smaller distance); these are legal.
Ties between candidate pairs resolve to the lexicographically smallest
(min node index, max node index), with nodes numbered leaves ``0..P-1``
then internal nodes ``P..2P-2`` in creation order.

Hierarchy levels use merge-step-count semantics: level k is the state
after exactly ``P - k`` merges, so it has exactly k clusters for every k
and stays well defined under centroid inversions, unlike a
distance-threshold cut. The level sweep replays the merge sequence once
and reads every level off it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClassifierId
from .diversity import DissimilarityMatrix

LINKAGE_METHODS = ("single", "complete", "average", "centroid")


@dataclass(frozen=True)
class MergeStep:
    """One agglomeration step; ``left < right`` are node indices."""

    left: int
    right: int
    distance: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    """Ordered merge steps over ``leaf_ids``; the first ``P - k`` of them
    form hierarchy level k."""

    leaf_ids: tuple[ClassifierId, ...]
    merges: tuple[MergeStep, ...]

    def __post_init__(self) -> None:
        p = len(self.leaf_ids)
        if len(self.merges) != p - 1:
            raise ValueError(f"expected {p - 1} merges for {p} leaves, got {len(self.merges)}")
        sizes = {i: 1 for i in range(p)}
        used: set[int] = set()
        for step_index, step in enumerate(self.merges):
            node = p + step_index
            for child in (step.left, step.right):
                if child in used:
                    raise ValueError(f"node {child} appears as a child more than once")
                if child not in sizes:
                    raise ValueError(f"merge references unknown node {child}")
                used.add(child)
            if step.size != sizes[step.left] + sizes[step.right]:
                raise ValueError(f"merge {step_index}: size does not equal children sizes")
            sizes[node] = step.size
        if self.merges and self.merges[-1].size != p:
            raise ValueError("root size must equal the leaf count")

    @property
    def num_leaves(self) -> int:
        return len(self.leaf_ids)


def linkage(matrix: DissimilarityMatrix, method: str = "complete") -> Dendrogram:
    """Agglomerate the matrix into a dendrogram over its ids under the given
    linkage.

    Exact greedy agglomeration as array algebra: each of the P - 1 steps
    takes the global minimum as the least of P cached row minima, breaks
    ties among the cells equal to it with ``np.lexsort`` on (min node, max
    node), and applies Lance-Williams to the kept slot's column as one
    vector expression. The merged row is rescanned at once; a row whose
    minimum sat in a merged column keeps it as a lower bound and is
    rescanned when that bound is the least, before the step reads it. The
    rows holding the least bound are then exact, so the tied cells are the
    ones a full scan would find. A step costs O(P) plus O(P) per rescanned
    row instead of a full O(P^2) scan.
    """
    method = method.strip().lower()
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {method!r}; expected one of {LINKAGE_METHODS}")
    p = matrix.size
    if p < 2:
        raise ValueError("linkage needs at least 2 items")

    # Retired slots and the diagonal hold +inf. Every row caches a lower
    # bound of its minimum and a column holding it, or -1 while the row is
    # stale: the bound of a row that is not stale is its minimum. A retired
    # row's bound is +inf and its column -1.
    dist = matrix.values.copy()
    np.fill_diagonal(dist, np.inf)
    arg = dist.argmin(axis=1)
    rowmin = dist[np.arange(p), arg]
    nodes = np.arange(p)
    sizes = [1] * p
    merges: list[MergeStep] = []

    for step_index in range(p - 1):
        # The least bound is the global minimum once no stale row holds it.
        while True:
            d = rowmin.min()
            near = np.flatnonzero(rowmin == d)
            lazy = near[arg[near] < 0]
            if not lazy.size:
                break
            arg[lazy] = dist[lazy].argmin(axis=1)
            rowmin[lazy] = dist[lazy, arg[lazy]]
        rows, cols = np.nonzero(dist[near] == d)
        a, b = nodes[near[rows]], nodes[cols]
        first = np.lexsort((np.maximum(a, b), np.minimum(a, b)))[0]
        i, j = sorted((int(near[rows[first]]), int(cols[first])))
        ni, nj = sizes[i], sizes[j]
        new_size = ni + nj

        di, dj = dist[:, i], dist[:, j]
        if method == "single":
            updated = np.minimum(di, dj)
        elif method == "complete":
            updated = np.maximum(di, dj)
        elif method == "average":
            updated = (ni * di + nj * dj) / new_size
        else:
            updated = (ni * di + nj * dj) / new_size - (ni * nj * d) / (new_size * new_size)
        # A row whose minimum sat in column i or j keeps it as a lower bound
        # and goes stale, unless column i now holds less: no other column
        # changed. Row i is rescanned.
        arg[(arg == i) | (arg == j)] = -1
        arg[updated < rowmin] = i
        np.minimum(rowmin, updated, out=rowmin)
        dist[:, i] = dist[i, :] = updated
        dist[:, j] = dist[j, :] = np.inf
        dist[i, i] = np.inf
        arg[i] = dist[i].argmin()
        rowmin[i] = dist[i, arg[i]]
        rowmin[j], arg[j] = np.inf, -1

        left, right = sorted((int(nodes[i]), int(nodes[j])))
        merges.append(MergeStep(left=left, right=right, distance=float(d), size=new_size))
        # The lower slot i now carries the merged cluster; slot j retires.
        nodes[i] = p + step_index
        sizes[i] = new_size

    return Dendrogram(leaf_ids=matrix.ids, merges=tuple(merges))


DENDROGRAM_FORMAT = "hsel-dendrogram v1"


def write_dendrogram(dendrogram: Dendrogram, path: str) -> None:
    """Plain-text export: leaf table then merge table, stable field order."""
    lines = [DENDROGRAM_FORMAT, f"leaves {dendrogram.num_leaves}"]
    for i, cid in enumerate(dendrogram.leaf_ids):
        lines.append(f"{i} {cid.canonical}")
    lines.append(f"merges {len(dendrogram.merges)}")
    for step_index, step in enumerate(dendrogram.merges):
        node = dendrogram.num_leaves + step_index
        lines.append(f"{node} {step.left} {step.right} {step.distance!r} {step.size}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


"""Agglomerative hierarchical clustering over a dissimilarity matrix.

The agglomerator starts from singletons and repeatedly merges the closest
pair of active clusters, the full matrix's minimum found by array algebra,
then updates their distances as one vector with these Lance-Williams
coefficients of the selected linkage:

    single    d(k, ij) = min(d(k,i), d(k,j))
    complete  d(k, ij) = max(d(k,i), d(k,j))
    average   d(k, ij) = (n_i d(k,i) + n_j d(k,j)) / (n_i + n_j)
    centroid  d(k, ij) = (n_i d(k,i) + n_j d(k,j)) / (n_i + n_j)
                         - n_i n_j d(i,j) / (n_i + n_j)^2

Centroid treats matrix entries as squared-distance surrogates and may
produce inversions (a later merge at a smaller distance); these are legal
and exposed via ``Dendrogram.has_inversions``. Ties between candidate pairs
resolve to the lexicographically smallest (min node index, max node index),
with nodes numbered leaves ``0..P-1`` then internal nodes ``P..2P-2`` in
creation order.

Hierarchy levels use merge-step-count semantics: level k is the state
after exactly ``P - k`` merges, so it has exactly k clusters for every k
and stays well defined under centroid inversions, unlike a
distance-threshold cut. The level sweep replays the merge sequence once
and reads every level off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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

    @property
    def has_inversions(self) -> bool:
        """True when any merge distance drops below the preceding one."""
        distances = [step.distance for step in self.merges]
        return any(b < a for a, b in zip(distances, distances[1:]))


def _validated_square(matrix: DissimilarityMatrix | np.ndarray) -> np.ndarray:
    if isinstance(matrix, DissimilarityMatrix):
        return np.asarray(matrix.values, dtype=np.float64)
    values = np.asarray(matrix, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"linkage needs a square matrix, got shape {values.shape}")
    if not np.array_equal(values, values.T):
        raise ValueError("linkage needs a symmetric matrix")
    if not np.isfinite(values).all():
        raise ValueError("linkage needs finite distances")
    return values


def linkage(
    matrix: DissimilarityMatrix | np.ndarray,
    method: str = "complete",
    leaf_ids: Sequence[ClassifierId] | None = None,
) -> Dendrogram:
    """Agglomerate the matrix into a dendrogram under the given linkage.

    Exact greedy agglomeration as array algebra: each of the P - 1 steps
    takes the global minimum of the full matrix, breaks ties among its cells
    with ``np.lexsort`` on (min node, max node), and applies Lance-Williams
    to the kept slot's column as one vector expression. O(P^2) work per
    step, O(P^3) in all, with no per-pair Python.
    """
    method = method.strip().lower()
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {method!r}; expected one of {LINKAGE_METHODS}")
    values = _validated_square(matrix)
    p = values.shape[0]
    if p < 2:
        raise ValueError("linkage needs at least 2 items")
    if leaf_ids is None:
        if isinstance(matrix, DissimilarityMatrix):
            leaf_ids = matrix.ids
        else:
            leaf_ids = tuple(ClassifierId("ITEM", f"N{i}") for i in range(p))
    if len(leaf_ids) != p:
        raise ValueError("leaf_ids length must match the matrix size")

    # Retired slots and the diagonal hold +inf, so the global minimum is the
    # closest pair of active clusters.
    dist = values.copy()
    np.fill_diagonal(dist, np.inf)
    nodes = np.arange(p)
    sizes = [1] * p
    merges: list[MergeStep] = []

    for step_index in range(p - 1):
        d = dist.min()
        rows, cols = np.nonzero(dist == d)
        a, b = nodes[rows], nodes[cols]
        first = np.lexsort((np.maximum(a, b), np.minimum(a, b)))[0]
        i, j = sorted((int(rows[first]), int(cols[first])))
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
        dist[:, i] = dist[i, :] = updated
        dist[:, j] = dist[j, :] = np.inf
        dist[i, i] = np.inf

        left, right = sorted((int(nodes[i]), int(nodes[j])))
        merges.append(MergeStep(left=left, right=right, distance=float(d), size=new_size))
        # The lower slot i now carries the merged cluster; slot j retires.
        nodes[i] = p + step_index
        sizes[i] = new_size

    return Dendrogram(leaf_ids=tuple(leaf_ids), merges=tuple(merges))


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


def read_dendrogram(path: str) -> Dendrogram:
    """Parse a ``write_dendrogram`` file. Malformed input raises ``ValueError``
    naming ``path: line N``; a file that ends early names the line after its
    last one."""
    with open(path, encoding="utf-8") as fh:
        numbered = [(n, line.split()) for n, line in enumerate(fh, start=1) if line.strip()]
    end = numbered[-1][0] + 1 if numbered else 1
    rows = iter(numbered)
    lineno = end

    def row(expected: str, width: int, head: Sequence[str] = ()) -> list[str]:
        nonlocal lineno
        lineno, fields = next(rows, (end, []))
        if len(fields) != width or fields[: len(head)] != list(head):
            raise ValueError(f"expected {expected}")
        return fields

    try:
        row(repr(DENDROGRAM_FORMAT), 2, DENDROGRAM_FORMAT.split())
        count = int(row("'leaves <count>'", 2, ["leaves"])[1])
        leaf_ids = [ClassifierId.parse(row("'<index> <id>'", 2)[1]) for _ in range(count)]
        count = int(row("'merges <count>' after the leaf table", 2, ["merges"])[1])
        merges = []
        for _ in range(count):
            _, left, right, distance, size = row("'<node> <left> <right> <distance> <size>'", 5)
            merges.append(
                MergeStep(left=int(left), right=int(right), distance=float(distance), size=int(size))
            )
        row("the end of the file", 0)
        return Dendrogram(leaf_ids=tuple(leaf_ids), merges=tuple(merges))
    except ValueError as exc:
        raise ValueError(f"{path}: line {lineno}: {exc}") from None

"""Pairwise double-fault measure and the dissimilarity matrix built from it."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .core import ClassifierId, PredictionMatrix


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Pairwise classifier distances as their integer co-failure counts c and
    the instance count N. ``values`` is derived once, ``1 - c / N`` on the
    upper triangle, mirrored: exactly symmetric with a zero diagonal."""

    ids: tuple[ClassifierId, ...]
    co_failures: np.ndarray
    n_instances: int
    values: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        counts = np.asarray(self.co_failures, dtype=np.int64)
        upper = np.triu_indices(len(self.ids), k=1)
        values = np.zeros(counts.shape)
        values[upper] = 1.0 - counts[upper] / self.n_instances
        values.T[upper] = values[upper]
        counts.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "co_failures", counts)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return len(self.ids)


def dissimilarity_matrix(pm: PredictionMatrix) -> DissimilarityMatrix:
    """Pairwise distances over a prediction matrix's classifier columns.

    Each off-diagonal entry is ``1 - DF(col_i, col_j)``, where the double
    fault DF is the fraction of instances on which both classifiers are
    wrong. High co-failure means redundancy, so redundant pairs come out
    close and cluster together. Two perfect classifiers sit at distance 1
    even though they behave identically; that is the double-fault
    semantics (diversity as error decorrelation), not a bug. The int64
    co-failure counts are one float64 product ``wrong.T @ wrong``, exact
    while N < 2**53, so they are symmetric and within 0..N, and the matrix
    derives its distances from them and N. The sweep and the elbow round
    each level once, from exact integers below pairs·N < 2**53: levels tie
    exactly when their exact values round alike.
    """
    if pm.n_classifiers < 2:
        raise ValueError("need at least 2 classifiers to build a dissimilarity matrix")
    wrong = (pm.predictions != pm.truth[:, None]).astype(np.float64)
    counts = (wrong.T @ wrong).astype(np.int64)
    return DissimilarityMatrix(pm.classifier_ids, counts, pm.n_instances)


def write_dissimilarity_csv(matrix: DissimilarityMatrix, path: str) -> None:
    """Square DSV export with the id header row and column, full precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        names = [cid.canonical for cid in matrix.ids]
        writer.writerow(["id"] + names)
        for i, name in enumerate(names):
            writer.writerow([name] + [repr(float(v)) for v in matrix.values[i]])

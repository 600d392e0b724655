"""Pairwise double-fault measure and the dissimilarity matrix built from it."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import ClassifierId, PredictionMatrix


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric pairwise classifier distances in [0, 1] with a zero diagonal;
    built from predictions, also their integer co-failure counts and N."""

    ids: tuple[ClassifierId, ...]
    values: np.ndarray
    co_failures: np.ndarray | None = None
    n_instances: int | None = None

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        n = len(self.ids)
        if values.shape != (n, n):
            raise ValueError(f"matrix shape {values.shape} does not match {n} ids")
        if not ((values >= 0.0) & (values <= 1.0)).all():  # nan fails too
            raise ValueError("distances must lie in [0, 1]")
        if not np.array_equal(values, values.T):
            raise ValueError("dissimilarity matrix must be exactly symmetric")
        if np.any(np.diag(values) != 0.0):
            raise ValueError("self-distance must be 0")
        canon = [cid.canonical for cid in self.ids]
        if len(set(canon)) != len(canon):
            raise ValueError("duplicate classifier ids in dissimilarity matrix")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ids", tuple(self.ids))

    @property
    def size(self) -> int:
        return len(self.ids)


def dissimilarity_matrix(pm: PredictionMatrix) -> DissimilarityMatrix:
    """Pairwise distances over a prediction matrix's classifier columns.

    Each off-diagonal entry is ``1 - DF(col_i, col_j)``, where the double
    fault DF is the fraction of instances on which both classifiers are
    wrong; the diagonal is 0 by construction. High co-failure means
    redundancy, so redundant pairs come out close and cluster together.
    Two perfect classifiers sit at distance 1 even though they behave
    identically; that is the double-fault semantics (diversity as error
    decorrelation), not a bug. Co-failure counts c come from
    one float64 product ``wrong.T @ wrong``, exact while N < 2**53, and are
    kept as int64 with N. The upper triangle ``1 - c / N`` is one array
    expression, mirrored, so the result is exactly symmetric. The sweep and
    the elbow round each level once, from exact integers below pairs·N <
    2**53: levels tie exactly when their exact values round alike.
    """
    if pm.n_classifiers < 2:
        raise ValueError("need at least 2 classifiers to build a dissimilarity matrix")
    wrong = (pm.predictions != pm.truth[:, None]).astype(np.float64)
    co_failures = (wrong.T @ wrong).astype(np.int64)
    co_failures.setflags(write=False)
    upper = np.triu_indices(pm.n_classifiers, k=1)
    values = np.zeros(co_failures.shape)
    values[upper] = 1.0 - co_failures[upper] / pm.n_instances
    values.T[upper] = values[upper]
    return DissimilarityMatrix(pm.classifier_ids, values, co_failures, pm.n_instances)


def write_dissimilarity_csv(matrix: DissimilarityMatrix, path: str) -> None:
    """Square DSV export with the id header row and column, full precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        names = [cid.canonical for cid in matrix.ids]
        writer.writerow(["id"] + names)
        for i, name in enumerate(names):
            writer.writerow([name] + [repr(float(v)) for v in matrix.values[i]])

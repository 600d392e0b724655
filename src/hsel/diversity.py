"""Pairwise double-fault measure and the dissimilarity matrix built from it."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ClassifierId, PredictionMatrix, read_id_table


def double_fault(
    pred_a: Sequence[int], pred_b: Sequence[int], truth: Sequence[int]
) -> float:
    """Fraction of instances on which both classifiers are wrong.

    A low value means the pair rarely fails together, i.e. their errors are
    decorrelated; this is the quantity whose structure the clustering stage
    exploits. Exact: an integer count divided by N.
    """
    a = np.asarray(pred_a, dtype=np.int64)
    b = np.asarray(pred_b, dtype=np.int64)
    t = np.asarray(truth, dtype=np.int64)
    if a.shape != t.shape or b.shape != t.shape or a.ndim != 1:
        raise ValueError("pred_a, pred_b, and truth must be 1-d and the same length")
    if a.size == 0:
        raise ValueError("double_fault needs at least one instance")
    both_wrong = int(((a != t) & (b != t)).sum())
    return both_wrong / a.size


def complement(df: float) -> float:
    """Default double-fault-to-distance conversion: distance = 1 - DF.

    High co-failure means redundancy, so redundant pairs come out close and
    cluster together. Two perfect classifiers sit at distance 1 under this
    mapping even though they behave identically; that is the double-fault
    semantics (diversity as error decorrelation), not a bug.
    """
    return 1.0 - df


# Named conversions take a float or an array of DF fractions alike.
CONVERSIONS: dict[str, Callable[[float], float]] = {"complement": complement}


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric pairwise classifier distances in [0, 1] with a zero diagonal."""

    ids: tuple[ClassifierId, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        n = len(self.ids)
        if values.shape != (n, n):
            raise ValueError(f"matrix shape {values.shape} does not match {n} ids")
        if not np.array_equal(values, values.T):
            raise ValueError("dissimilarity matrix must be exactly symmetric")
        if np.any(np.diag(values) != 0.0):
            raise ValueError("self-distance must be 0")
        if values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("distances must lie in [0, 1]")
        canon = [cid.canonical for cid in self.ids]
        if len(set(canon)) != len(canon):
            raise ValueError("duplicate classifier ids in dissimilarity matrix")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "_means", {})

    @property
    def size(self) -> int:
        return len(self.ids)

    def mean_pairwise(self, indices: Sequence[int]) -> float:
        """Average distance over unordered pairs of the given members; 0 for
        fewer than two members. The block's upper triangle is summed in
        row-major order (``np.triu_indices`` order), once per index sequence."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size < 2:
            return 0.0
        key = idx.tobytes()
        if key not in self._means:
            order = np.arange(idx.size)
            self._means[key] = float(self.values[idx[:, None], idx][order[:, None] < order].mean())
        return self._means[key]


def dissimilarity_matrix(
    pm: PredictionMatrix,
    conversion: str | Callable[[float], float] = "complement",
) -> DissimilarityMatrix:
    """Pairwise distances over a prediction matrix's classifier columns.

    Each off-diagonal entry is ``conversion(double_fault(col_i, col_j))``;
    the diagonal is 0 by construction. Co-failure counts come from one
    float64 product ``wrong.T @ wrong``, exact while N < 2**53. A named
    conversion maps the upper triangle as one array expression; a callable
    (mapping a DF fraction to a distance in [0, 1]) is applied pair by pair.
    Each unordered pair is converted once and mirrored, so the result is
    exactly symmetric.
    """
    if pm.n_classifiers < 2:
        raise ValueError("need at least 2 classifiers to build a dissimilarity matrix")
    if isinstance(conversion, str) and conversion not in CONVERSIONS:
        raise ValueError(
            f"unknown conversion {conversion!r}; expected one of {sorted(CONVERSIONS)}"
        )
    wrong = (pm.predictions != pm.truth[:, None]).astype(np.float64)
    co_failures = wrong.T @ wrong
    upper = np.triu_indices(pm.n_classifiers, k=1)
    values = np.zeros_like(co_failures)
    if isinstance(conversion, str):
        values[upper] = CONVERSIONS[conversion](co_failures[upper] / pm.n_instances)
    else:
        values[upper] = [float(conversion(float(c) / pm.n_instances)) for c in co_failures[upper]]
    values.T[upper] = values[upper]
    return DissimilarityMatrix(ids=pm.classifier_ids, values=values)


def write_dissimilarity_csv(matrix: DissimilarityMatrix, path: str) -> None:
    """Square DSV export with the id header row and column, full precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        names = [cid.canonical for cid in matrix.ids]
        writer.writerow(["id"] + names)
        for i, name in enumerate(names):
            writer.writerow([name] + [repr(float(v)) for v in matrix.values[i]])


def read_dissimilarity_csv(path: str) -> DissimilarityMatrix:
    names, ids, rows, linenos = read_id_table(
        path, "id", lambda fields: (fields[0], [float(v) for v in fields[1:]]),
        "non-numeric distance",
    )
    size = len(names)
    if len(rows) > size:
        raise ValueError(f"{path}: line {linenos[size]}: more rows than the {size} ids")
    for (row_id, _), name, lineno in zip(rows, names, linenos):
        if row_id.strip() != name:
            raise ValueError(
                f"{path}: line {lineno}: row id {row_id!r} does not match header order"
            )
    if len(rows) < size:
        end = linenos[-1] + 1 if linenos else 2
        raise ValueError(f"{path}: line {end}: expected {size} rows, found {len(rows)}")
    values = np.array([distances for _, distances in rows], dtype=np.float64)
    try:
        return DissimilarityMatrix(ids=ids, values=values)
    except ValueError as exc:
        # Shape and ids passed above: name the first row with a bad value.
        bad = (values != values.T) | (values < 0.0) | (values > 1.0)
        bad |= np.diag(np.diag(values) != 0.0)
        lineno = linenos[int(np.argmax(bad.any(axis=1)))]
        raise ValueError(f"{path}: line {lineno}: {exc}") from None

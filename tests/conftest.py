"""Shared fixtures: the four-classifier dendrogram scenario, the redundant
twelve-classifier pool used by selection and acceptance tests, and the
schema check of every report an in-process command writes."""

from __future__ import annotations

import jsonschema
import numpy as np
import pytest

from hsel import cli
from hsel.core import ClassifierId, PredictionMatrix, Split

GOLDEN_IDS = ("BERT-SVM", "TFIDF-SVM", "GLOVE-LR", "CV-NB")


@pytest.fixture(autouse=True, scope="session")
def schema_checked_reports():
    """Validate each report against its shipped schema with ``jsonschema``
    before ``cli._emit_report`` writes it. Session scope puts the check in
    place before any fixture of a narrower scope runs a command."""
    emit = cli._emit_report

    def checked(doc: dict, schema_name: str, path: str) -> None:
        jsonschema.validate(doc, cli._load_schema(schema_name))
        emit(doc, schema_name, path)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_emit_report", checked)
        yield


def _column_with_errors(truth: np.ndarray, error_rows, num_classes: int) -> np.ndarray:
    col = truth.copy()
    for i in error_rows:
        col[i] = (truth[i] + 1) % num_classes
    return col


@pytest.fixture
def golden_scenario_pm() -> PredictionMatrix:
    """Four classifiers where GLOVE-LR and CV-NB co-fail on shared rows.

    Distances come out as d(GLOVE-LR, CV-NB) = 0.8 and 1.0 for every other
    pair, so the first merge joins those two and the 3-cluster cut isolates
    BERT-SVM and TFIDF-SVM. Accuracies: 0.9, 0.75, 0.8, 0.7 in GOLDEN_IDS
    order, so GLOVE-LR beats CV-NB inside the merged cluster.
    """
    truth = np.zeros(20, dtype=np.int64)
    columns = [
        _column_with_errors(truth, range(10, 12), 2),
        _column_with_errors(truth, range(12, 17), 2),
        _column_with_errors(truth, range(0, 4), 2),
        _column_with_errors(truth, range(0, 6), 2),
    ]
    return PredictionMatrix(
        classifier_ids=tuple(ClassifierId.parse(s) for s in GOLDEN_IDS),
        predictions=np.stack(columns, axis=1),
        truth=truth,
        num_classes=2,
        split_tag=Split.VALIDATION,
    )


REDUNDANT_GROUP_SIZES = (4, 4, 4)
REDUNDANT_ERROR_SUPPORTS = (range(0, 90), range(90, 210), range(210, 360))


def make_redundant_matrix(seed: int, split: Split) -> PredictionMatrix:
    """Twelve classifiers in three behavior groups over N=600 instances.

    Within a group all predictions are identical; the groups err on disjoint
    row ranges with rates 0.15, 0.20, and 0.25. Ids are zero padded so the
    canonical tie-break order matches the numeric order.
    """
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, size=600).astype(np.int64)
    ids = []
    columns = []
    member = 1
    for group, (size, support) in enumerate(zip(REDUNDANT_GROUP_SIZES, REDUNDANT_ERROR_SUPPORTS)):
        col = _column_with_errors(truth, support, 2)
        for _ in range(size):
            ids.append(ClassifierId(f"SRC{member:02d}", "CLF"))
            columns.append(col)
            member += 1
    return PredictionMatrix(
        classifier_ids=tuple(ids),
        predictions=np.stack(columns, axis=1),
        truth=truth,
        num_classes=2,
        split_tag=split,
    )


@pytest.fixture
def redundant_validation_pm() -> PredictionMatrix:
    return make_redundant_matrix(seed=31, split=Split.VALIDATION)


@pytest.fixture
def redundant_test_pm() -> PredictionMatrix:
    return make_redundant_matrix(seed=32, split=Split.TEST)

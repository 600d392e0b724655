"""Shared fixtures: the four-classifier dendrogram scenario, the redundant
twelve-classifier pool used by selection and acceptance tests, the schema
check of every report an in-process command writes, the check of a report
sweep's ``join_order``, the synthetic news corpus generator that made the
bundled corpus, a prediction matrix from columns, and a wrapper that
gives a bare distance array ids."""

from __future__ import annotations

import csv
import random
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import strategies as st

from hsel import cli
from hsel.core import ClassifierId, PredictionMatrix, Split
from hsel.diversity import DissimilarityMatrix

GOLDEN_IDS = ("BERT-SVM", "TFIDF-SVM", "GLOVE-LR", "CV-NB")

BUNDLED_CORPUS = str(resources.files("hsel").joinpath("data/toy_corpus.csv"))


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
    return pm_of(columns, truth, names=GOLDEN_IDS)


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
    names = []
    columns = []
    member = 1
    for group, (size, support) in enumerate(zip(REDUNDANT_GROUP_SIZES, REDUNDANT_ERROR_SUPPORTS)):
        col = _column_with_errors(truth, support, 2)
        for _ in range(size):
            names.append(f"SRC{member:02d}-CLF")
            columns.append(col)
            member += 1
    return pm_of(columns, truth, names=names, split=split)


@pytest.fixture
def redundant_validation_pm() -> PredictionMatrix:
    return make_redundant_matrix(seed=31, split=Split.VALIDATION)


@pytest.fixture
def redundant_test_pm() -> PredictionMatrix:
    return make_redundant_matrix(seed=32, split=Split.TEST)


def assert_join_order(sweep_doc: dict, candidates, final: dict, pool_ids) -> None:
    """``sweep_doc``'s ``join_order`` is a permutation of ``pool_ids`` that
    lists the in-memory candidates' ``joined`` ids one for one, its first k
    ids are the members of level k's candidate, and the deployed ``final``
    lists the first ``final["level_k"]`` in some order."""
    order = sweep_doc["join_order"]
    assert sorted(order) == sorted(pool_ids)
    assert order == [candidate.joined.canonical for candidate in candidates]
    for doc, candidate in zip(sweep_doc["candidates"], candidates, strict=True):
        assert doc["level_k"] == candidate.level_k
        assert set(order[:candidate.level_k]) == {m.canonical for m in candidate.members}
    assert sorted(final["members"]) == sorted(order[:final["level_k"]])


def pm_of(columns, truth, num_classes=2, names=None, split=Split.VALIDATION) -> PredictionMatrix:
    """A matrix whose column j is ``columns[j]``, named ``names[j]`` or ``E{j}-A``."""
    names = names or [f"E{i}-A" for i in range(len(columns))]
    return PredictionMatrix(tuple(ClassifierId.parse(n) for n in names),
                            np.stack([np.asarray(c, dtype=np.int64) for c in columns], axis=1),
                            np.asarray(truth, dtype=np.int64), num_classes, split)


def dissimilarity(counts, n) -> DissimilarityMatrix:
    """Co-failure ``counts`` over ``n`` instances as a ``DissimilarityMatrix``
    over the leaves ``ITEM-N{i}``: distance ``1 - counts[i][j] / n``."""
    return DissimilarityMatrix(tuple(ClassifierId("ITEM", f"N{i}") for i in range(len(counts))),
                               counts, n)


_TOPIC_A = [
    "market", "economy", "budget", "senate", "policy", "tax", "trade",
    "minister", "inflation", "parliament", "report", "council",
]
_TOPIC_B = [
    "miracle", "cure", "aliens", "secret", "shocking", "exposed",
    "celebrity", "hoax", "conspiracy", "banned", "scandal", "rumor",
]
_SHARED = [
    "news", "today", "people", "country", "world", "story", "week",
    "city", "group", "video", "public", "online",
]


def synthetic_news_corpus(n_docs: int = 400, seed: int = 11) -> list[tuple[str, str]]:
    """(text, label) rows, balanced across the labels "legit" and "fake".

    Each document mixes class-specific and shared tokens, with occasional
    URLs and punctuation so the preprocessing stages have real work to do.
    A pure function of (n_docs, seed); ``(400, 11)`` made the bundled corpus.
    """
    rng = random.Random(seed)
    rows = []
    for i in range(n_docs):
        label = i % 2
        own = _TOPIC_A if label == 0 else _TOPIC_B
        other = _TOPIC_B if label == 0 else _TOPIC_A
        length = rng.randint(8, 16)
        words = []
        for _ in range(length):
            roll = rng.random()
            if roll < 0.55:
                words.append(rng.choice(own))
            elif roll < 0.6:
                words.append(rng.choice(other))
            else:
                words.append(rng.choice(_SHARED))
        if rng.random() < 0.15:
            words.insert(rng.randrange(len(words)), f"http://example.org/{i}")
        if rng.random() < 0.3:
            words[-1] = words[-1] + "!!"
        text = "The " + " ".join(words) + "."
        rows.append((text, ("legit", "fake")[label]))
    return rows


def write_corpus_csv(rows, path: str) -> None:
    """``rows`` of (text, label) as a ``text,label`` corpus file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        writer.writerows(rows)


def mutated_bytes(data, raw: bytes) -> bytes:
    """``raw`` after one to four hypothesis-drawn edits: cut short, or bytes
    replaced, inserted or deleted."""
    raw = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        at = data.draw(st.integers(0, len(raw)), label="at")
        edit = data.draw(st.sampled_from(["truncate", "replace", "insert", "delete"]), label="edit")
        if edit == "truncate":
            del raw[at:]
        elif edit == "delete":
            del raw[at:at + data.draw(st.integers(1, 3), label="width")]
        else:
            junk = data.draw(st.binary(min_size=1, max_size=3), label="bytes")
            raw[at:at + (len(junk) if edit == "replace" else 0)] = junk
    return bytes(raw)

"""Classifier pool construction and the prediction-matrix wire format.

A pool is the full cross product of feature extractors and learning
algorithms, trained on the TRAIN split only. Prediction matrices are the
sole interface into the selection machinery, and the file format here lets
externally trained classifiers join a pool.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import ClassifierId, LabeledCorpus, PredictionMatrix, Split, derive_seed, read_id_table
from .features import (
    DEFAULT_HASHED_DIM,
    FeatureSpace,
    fit_feature_space,
    normalize_extractor_token,
)
from .learners import ALGORITHM_TOKENS, make_learner
from .preprocess import PreprocessConfig, TokenPipeline, fit_token_pipeline

MATRIX_FORMAT = "hsel-prediction-matrix"


@dataclass(frozen=True)
class TrainedClassifier:
    """One pool member: tokenizer, feature space, and fitted learner.

    ``predict_texts`` is pure; the same input text always yields the same
    label.
    """

    id: ClassifierId
    pipeline: TokenPipeline
    space: FeatureSpace
    model: object

    def predict_texts(self, texts: Sequence[str]) -> np.ndarray:
        docs = self.pipeline.tokenize_all(texts)
        return np.asarray(self.model.predict(self.space.transform(docs)), dtype=np.int64)


@dataclass(frozen=True)
class ClassifierPool:
    members: tuple[TrainedClassifier, ...]
    pipeline: TokenPipeline
    num_classes: int

    @property
    def ids(self) -> tuple[ClassifierId, ...]:
        return tuple(member.id for member in self.members)

    def __len__(self) -> int:
        return len(self.members)


def train_pool(
    corpus: LabeledCorpus,
    extractors: Sequence[str],
    algorithms: Sequence[str],
    *,
    config: PreprocessConfig = PreprocessConfig(),
    seed: int = 0,
    hashed_dim: int = DEFAULT_HASHED_DIM,
    knn_k: int = 5,
) -> ClassifierPool:
    """Train the |extractors| x |algorithms| pool on the TRAIN split.

    Ids form the full cross product in the given order (extractors outer).
    Per-component seeds derive from the global seed and the component name,
    so results do not depend on training order.
    """
    if not extractors or not algorithms:
        raise ValueError("extractor and algorithm lists must be non-empty")
    ext_tokens = [normalize_extractor_token(tok) for tok in extractors]
    alg_tokens = [tok.strip().upper() for tok in algorithms]
    for tok in alg_tokens:
        if tok not in ALGORITHM_TOKENS:
            raise ValueError(
                f"unknown algorithm token {tok!r}; expected one of {ALGORITHM_TOKENS}"
            )
    if len(set(ext_tokens)) != len(ext_tokens) or len(set(alg_tokens)) != len(alg_tokens):
        raise ValueError("extractor and algorithm tokens must be unique")

    train_texts = corpus.texts(Split.TRAIN)
    train_labels = corpus.labels(Split.TRAIN)
    pipeline = fit_token_pipeline(train_texts, config)
    train_docs = pipeline.tokenize_all(train_texts)

    spaces: dict[str, FeatureSpace] = {}
    train_features: dict[str, np.ndarray] = {}
    for ext in ext_tokens:
        space = fit_feature_space(
            train_docs, ext, hashed_dim=hashed_dim, seed=derive_seed(seed, "space", ext)
        )
        spaces[ext] = space
        train_features[ext] = space.transform(train_docs)

    members = []
    for ext in ext_tokens:
        for alg in alg_tokens:
            learner = make_learner(alg, knn_k=knn_k)
            learner.fit(train_features[ext], train_labels, corpus.num_classes)
            members.append(
                TrainedClassifier(
                    id=ClassifierId(ext, alg),
                    pipeline=pipeline,
                    space=spaces[ext],
                    model=learner,
                )
            )
    return ClassifierPool(
        members=tuple(members), pipeline=pipeline, num_classes=corpus.num_classes
    )


def predict_matrix(pool: ClassifierPool, corpus: LabeledCorpus, split: Split) -> PredictionMatrix:
    """Predictions of every pool member over one corpus split, in pool order."""
    if not pool.members:
        raise ValueError("pool is empty")
    texts = corpus.texts(split)
    if not texts:
        raise ValueError(f"{split.value} split is empty")
    docs = pool.pipeline.tokenize_all(texts)

    features: dict[str, np.ndarray] = {}
    columns = []
    for member in pool.members:
        kind = member.id.extractor
        if kind not in features:
            features[kind] = member.space.transform(docs)
        columns.append(np.asarray(member.model.predict(features[kind]), dtype=np.int64))
    return PredictionMatrix(
        classifier_ids=pool.ids,
        predictions=np.stack(columns, axis=1),
        truth=corpus.labels(split),
        num_classes=pool.num_classes,
        split_tag=split,
    )


def write_prediction_matrix(
    pm: PredictionMatrix, path: str, label_mapping: dict[str, int] | None = None
) -> None:
    """Emit the matrix as DSV plus a JSON sidecar (``<path>.meta.json``)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["truth"] + [cid.canonical for cid in pm.classifier_ids])
        for i in range(pm.n_instances):
            writer.writerow([int(pm.truth[i])] + [int(v) for v in pm.predictions[i]])
    meta = {
        "format": MATRIX_FORMAT,
        "version": 1,
        "num_classes": pm.num_classes,
        "split": pm.split_tag.value,
        "instances": pm.n_instances,
        "label_mapping": label_mapping,
    }
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_prediction_matrix(path: str, meta_path: str | None = None) -> PredictionMatrix:
    """Parse and validate a prediction-matrix file; errors carry line numbers.
    The label range is checked once, on the parsed array."""
    meta_path = meta_path or path + ".meta.json"
    with open(meta_path, encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{meta_path}: line {exc.lineno}: malformed sidecar: {exc.msg}"
            ) from None
    for key in ("num_classes", "split"):
        if key not in meta:
            raise ValueError(f"{meta_path}: missing required key {key!r}")
    if meta.get("format", MATRIX_FORMAT) != MATRIX_FORMAT:
        raise ValueError(f"{meta_path}: format {meta['format']!r} is not {MATRIX_FORMAT!r}")
    if meta.get("version", 1) != 1:
        raise ValueError(f"{meta_path}: unsupported version {meta['version']!r}")
    try:
        num_classes = int(meta["num_classes"])
        split = Split(meta["split"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{meta_path}: {exc}") from None

    _, ids, rows, linenos = read_id_table(
        path, "truth", lambda fields: [int(v) for v in fields], "non-integer label"
    )
    if not rows:
        raise ValueError(f"{path}: matrix has no instance rows")
    try:
        table = np.array(rows, dtype=np.int64)
        bad = (table < 0) | (table >= num_classes)
    except OverflowError:  # a label beyond int64 is out of range as well
        bad = np.array([[not 0 <= v < num_classes for v in values] for values in rows])
    if bad.any():
        i = int(bad.any(axis=1).argmax())
        raise ValueError(
            f"{path}: line {linenos[i]}: label {rows[i][int(bad[i].argmax())]} out of range"
            f" (num_classes={num_classes})"
        )
    if meta.get("instances", len(rows)) != len(rows):
        raise ValueError(
            f"{meta_path}: instances is {meta['instances']!r} but {path} has"
            f" {len(rows)} rows"
        )

    return PredictionMatrix(
        classifier_ids=ids,
        predictions=table[:, 1:],
        truth=table[:, 0],
        num_classes=num_classes,
        split_tag=split,
    )

"""Classifier pool construction and the prediction-matrix wire format.

A pool is the full cross product of feature extractors and learning
algorithms, trained on the TRAIN split only. Prediction matrices are the
sole interface into the selection machinery, and the file format here lets
externally trained classifiers join a pool.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ClassifierId, PredictionMatrix, Split, SplitCorpus, derive_seed
from .core import check_header, read_records, read_utf8
from .features import (
    COUNT,
    FeatureSpace,
    build_vocabulary,
    count_matrix,
    fit_feature_space,
    normalize_extractor_token,
)
from .learners import (
    fit_softmax_models,
    gram_form_pays,
    make_learner,
    normalize_algorithm_token,
    shared_descent_pays,
)
from .preprocess import TokenPipeline, fit_token_pipeline

MATRIX_FORMAT = "hsel-prediction-matrix"


@dataclass(frozen=True)
class ClassifierPool:
    """The trained members: ``models[i]`` is member ``ids[i]``, fitted on the
    features of ``spaces[ids[i].extractor]``. ``pipeline`` and ``vocabulary``
    are shared by all."""

    ids: tuple[ClassifierId, ...]
    models: tuple[object, ...]
    spaces: dict[str, FeatureSpace]
    pipeline: TokenPipeline
    vocabulary: dict[str, int]
    num_classes: int


def train_pool(
    corpus: SplitCorpus,
    extractors: Sequence[str],
    algorithms: Sequence[str],
    *,
    seed: int = 0,
) -> ClassifierPool:
    """Train the |extractors| x |algorithms| pool on the TRAIN split of a
    ``split_corpus``, which holds every class: the class count is the
    largest TRAIN label plus one.

    Ids form the full cross product in the given order (extractors outer).
    Per-component seeds derive from the global seed and the component name,
    so results do not depend on training order. Extractors train in the
    given order but COUNT last, each dropping its features once its members
    are fitted, so at most three (N, V) matrices are live: during TFIDF the
    counts, the TFIDF features and TFIDF-KNN's unit rows; during COUNT the
    counts and both KNN members' unit rows.

    Every member fits on its own extractor's features, by its own ``fit``,
    except the LR members that take the primal form (``gram_form_pays``
    refuses) and that ``shared_descent_pays`` admits on their own: when two
    or more qualify and it admits their widths together (C·N·Σd within
    ``learners.SHARED_DESCENT_WORK``), they train as one
    ``fit_softmax_models`` batch over their features side by side, each on
    its own block of columns, within 1e-12 of fitting alone.
    """
    if not extractors or not algorithms:
        raise ValueError("extractor and algorithm lists must be non-empty")
    ext_tokens = [normalize_extractor_token(tok) for tok in extractors]
    alg_tokens = [normalize_algorithm_token(tok) for tok in algorithms]
    if len(set(ext_tokens)) != len(ext_tokens) or len(set(alg_tokens)) != len(alg_tokens):
        raise ValueError("extractor and algorithm tokens must be unique")

    train_texts, train_labels = corpus[Split.TRAIN]
    num_classes = int(train_labels.max()) + 1
    pipeline, train_docs = fit_token_pipeline(train_texts)
    vocabulary = build_vocabulary(train_docs)
    train_counts = count_matrix(train_docs, vocabulary)
    del train_docs  # nothing past the count matrix reads the token lists

    n = len(train_labels)
    ids = [ClassifierId(ext, alg) for ext in ext_tokens for alg in alg_tokens]
    models, spaces, shared = [None] * len(ids), dict.fromkeys(ext_tokens), []
    # COUNT last: its features are the count matrix itself, which every
    # other transform reads, so no extractor's features outlive its members.
    for e in sorted(range(len(ext_tokens)), key=lambda e: ext_tokens[e] == COUNT):
        ext = ext_tokens[e]
        space = fit_feature_space(vocabulary, train_counts, ext, derive_seed(seed, "space", ext))
        spaces[ext], train_features = space, space.transform(train_counts)
        d = train_features.shape[1]
        for a, alg in enumerate(alg_tokens):
            learner = models[e * len(alg_tokens) + a] = make_learner(alg)
            # A member too wide to share fits at once, so its features are
            # not held past its extractor.
            if (alg == "LR" and not gram_form_pays(n, d, num_classes, 1, learner.epochs)
                    and shared_descent_pays(n, [d], num_classes)):
                shared.append((e, learner, train_features))
            else:
                learner.fit(train_features, train_labels, num_classes)
        del train_features
    shared = [member[1:] for member in sorted(shared, key=lambda member: member[0])]  # pool order
    widths = [features.shape[1] for _, features in shared]
    if len(shared) > 1 and shared_descent_pays(n, widths, num_classes):
        offsets = np.cumsum([0] + widths)
        fit_softmax_models([learner for learner, _ in shared],
                           np.hstack([features for _, features in shared]), train_labels,
                           num_classes, [np.arange(a, b) for a, b in zip(offsets, offsets[1:])])
    else:
        for learner, features in shared:
            learner.fit(features, train_labels, num_classes)
    return ClassifierPool(ids=tuple(ids), models=tuple(models), spaces=spaces,
                          pipeline=pipeline, vocabulary=vocabulary, num_classes=num_classes)


def predict_matrix(pool: ClassifierPool, corpus: SplitCorpus, split: Split) -> PredictionMatrix:
    """Predictions of every pool member over one corpus split, in pool order."""
    if not pool.ids:
        raise ValueError("pool is empty")
    texts, labels = corpus[split]
    if not texts:
        raise ValueError(f"{split.value} split is empty")
    counts = count_matrix(pool.pipeline.tokenize_all(texts), pool.vocabulary)
    features = {kind: space.transform(counts) for kind, space in pool.spaces.items()}
    columns = [np.asarray(model.predict(features[cid.extractor]), dtype=np.int64)
               for cid, model in zip(pool.ids, pool.models)]
    return PredictionMatrix(
        classifier_ids=pool.ids,
        predictions=np.stack(columns, axis=1),
        truth=labels,
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


def read_prediction_matrix(path: str) -> PredictionMatrix:
    """Parse and validate a prediction-matrix file and its ``<path>.meta.json``
    sidecar; errors carry line numbers. The matrix is opened first, so a
    missing one is named before its sidecar. Each may start with one UTF-8
    byte-order mark, which is skipped. A table of plain digits goes
    through ``np.loadtxt``; any other file, and any fault, is read again cell
    by cell, which names the faulty line."""
    with open(path, "rb") as fh:
        head, body = fh.readline().rstrip(b"\r\n"), fh.read()
    meta_path = path + ".meta.json"
    try:
        meta = json.loads(read_utf8(meta_path).removeprefix("\ufeff"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{meta_path}: line {exc.lineno}: malformed sidecar: {exc.msg}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: sidecar must be a JSON object")
    for key in ("num_classes", "split"):
        if key not in meta:
            raise ValueError(f"{meta_path}: missing required key {key!r}")
    if meta.get("format", MATRIX_FORMAT) != MATRIX_FORMAT:
        raise ValueError(f"{meta_path}: format {meta['format']!r} is not {MATRIX_FORMAT!r}")
    version = meta.get("version", 1)
    if type(version) is not int or version != 1:  # bool and float are not int
        raise ValueError(f"{meta_path}: unsupported version {version!r}")
    num_classes = meta["num_classes"]
    if type(num_classes) is not int or num_classes < 2:  # bool and float are not int
        raise ValueError(f"{meta_path}: num_classes must be an integer >= 2, got {num_classes!r}")
    try:
        split = Split(meta["split"])
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None

    ids, table = _read_table_fast(path, head, body, num_classes) or _read_table(path, num_classes)
    instances = meta.get("instances", len(table))
    if type(instances) is not int or instances != len(table):  # bool and float are not int
        raise ValueError(f"{meta_path}: instances is {instances!r} but {path} has"
                         f" {len(table)} rows")

    return PredictionMatrix(
        classifier_ids=ids,
        predictions=table[:, 1:],
        truth=table[:, 0],
        num_classes=num_classes,
        split_tag=split,
    )


# The ids and the (N, 1 + P) table of truth and member labels.
_Table = tuple[tuple[ClassifierId, ...], np.ndarray]
_PLAIN = b"0123456789,\r\n"  # the bytes of a body that np.loadtxt reads like the csv reader


def _read_table_fast(path: str, head: bytes, body: bytes, num_classes: int) -> _Table | None:
    """The matrix of line 1 ``head`` and the lines ``body`` through numpy's C
    parser, or None whenever ``_read_table`` might answer differently: a
    quote or a lone carriage return in line 1, a body that is empty or holds
    anything but digits, commas and line breaks, a fault in the header or the
    parser, a width other than the header's, or a label out of range."""
    if b'"' in head or b"\r" in head or not body.strip(b"\r\n") or body.translate(None, _PLAIN):
        return None
    try:
        header = head.decode("utf-8").split(",")  # no quote, so csv would split it the same
        check_header(path, header, ("truth",), "matrix")
        ids = ClassifierId.parse_header(path, [name.strip() for name in header[1:]])
        table = np.loadtxt(io.BytesIO(body), dtype=np.int64, delimiter=",", ndmin=2)
    except (ValueError, OverflowError):
        return None
    plain = 0 < len(ids) == table.shape[1] - 1
    return (ids, table) if plain and (table < num_classes).all() else None


def _read_table(path: str, num_classes: int) -> _Table:
    """The matrix cell by cell by ``read_records``' rules, naming
    ``path: line N`` in every fault."""
    records = read_records(path, ("truth",), "matrix")
    _, header = next(records)
    if len(header) < 2:
        raise ValueError(f"{path}: line 1: no classifier columns")
    ids = ClassifierId.parse_header(path, [name.strip() for name in header[1:]])
    rows, linenos = [], []
    for lineno, fields in records:
        try:
            rows.append([int(v) for v in fields])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-integer label") from None
        linenos.append(lineno)
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
    return ids, table

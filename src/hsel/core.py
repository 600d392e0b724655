"""Shared domain types: split-tagged corpora, classifier identifiers,
prediction matrices, and classification metrics."""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

METRIC_NAMES = ("accuracy", "precision", "recall", "f1")


class Split(str, Enum):
    TRAIN = "TRAIN"
    VALIDATION = "VALIDATION"
    TEST = "TEST"


def derive_seed(*parts: object) -> int:
    """Stable 63-bit integer derived from the given parts.

    Uses a keyed-free blake2b digest so the value does not depend on
    interpreter hash randomization. Every seeded component derives its own
    stream from the global seed plus its own name, never from scheduling
    order.
    """
    text = ":".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True)
class ClassifierId:
    """Identifier of one pool member: a (feature extractor, algorithm) pair.

    Rendered canonically as ``<EXTRACTOR>-<ALGORITHM>`` in upper case, e.g.
    ``TFIDF-NB``. Algorithm tokens may not contain ``-`` so the canonical
    form parses back unambiguously (split on the last hyphen).
    """

    extractor: str
    algorithm: str

    def __post_init__(self) -> None:
        ext = self.extractor.strip().upper()
        alg = self.algorithm.strip().upper()
        if not ext or not alg:
            raise ValueError("classifier id tokens must be non-empty")
        if "-" in alg:
            raise ValueError(f"algorithm token may not contain '-': {alg!r}")
        for tok in (ext, alg):
            if any(ch.isspace() for ch in tok) or "," in tok:
                raise ValueError(f"classifier id token has illegal characters: {tok!r}")
        object.__setattr__(self, "extractor", ext)
        object.__setattr__(self, "algorithm", alg)

    @cached_property
    def canonical(self) -> str:
        return f"{self.extractor}-{self.algorithm}"

    @classmethod
    def parse(cls, text: str) -> "ClassifierId":
        head, sep, tail = text.strip().rpartition("-")
        if not sep or not head or not tail:
            raise ValueError(
                f"cannot parse classifier id {text!r}; expected '<EXTRACTOR>-<ALGORITHM>'"
            )
        return cls(head, tail)

    @classmethod
    def parse_header(cls, path: str, names: Sequence[str]) -> tuple[ClassifierId, ...]:
        """Ids from line 1 of a wire file. An unparseable id, or one that
        repeats another (also only in case), raises ``ValueError`` naming
        ``path: line 1``."""
        ids: dict[str, ClassifierId] = {}
        try:
            for name in names:
                cid = cls.parse(name)
                if cid.canonical in ids:
                    raise ValueError(f"duplicate classifier id {cid.canonical!r}")
                ids[cid.canonical] = cid
        except ValueError as exc:
            raise ValueError(f"{path}: line 1: {exc}") from None
        return tuple(ids.values())

    def __str__(self) -> str:
        return self.canonical


_Row = TypeVar("_Row")


def read_id_table(
    path: str, corner: str, parse_row: Callable[[list[str]], _Row], fault: str
) -> tuple[list[str], tuple[ClassifierId, ...], list[_Row], list[int]]:
    """Read an id-headed CSV wire file: line 1 is ``corner`` and then the
    classifier ids, and every later non-blank line has one field per header
    field. ``parse_row`` maps a line's fields to its row, and a ``ValueError``
    from it is reported as ``fault``. Returns the header's id names, the ids,
    the rows and their line numbers; every fault raises ``ValueError`` naming
    ``path: line N``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: line 1: empty matrix file")
        if not header or header[0].strip().lower() != corner:
            raise ValueError(f"{path}: line 1: first header field must be {corner!r}")
        names = [h.strip() for h in header[1:]]
        if not names:
            raise ValueError(f"{path}: line 1: no classifier columns")
        ids = ClassifierId.parse_header(path, names)
        rows, linenos = [], []
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            if len(fields) != len(header):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(header)} fields, found {len(fields)}"
                )
            try:
                rows.append(parse_row(fields))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: {fault}") from None
            linenos.append(lineno)
    return names, ids, rows, linenos


@dataclass(frozen=True)
class LabeledCorpus:
    """Text instances with integer class labels and a per-instance split tag.

    Invariants checked at construction: labels lie in ``0..num_classes-1``,
    every class occurs in TRAIN at least once, and VALIDATION and TEST are
    non-empty. Instances are immutable after construction.
    """

    instances: tuple[tuple[str, int], ...]
    num_classes: int
    split: tuple[Split, ...]

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("corpus needs at least 2 classes")
        if len(self.split) != len(self.instances):
            raise ValueError("split tags must cover all instances")
        train_seen = set()
        for text, label in self.instances:
            if not isinstance(label, int) or not 0 <= label < self.num_classes:
                raise ValueError(f"label {label!r} outside 0..{self.num_classes - 1}")
        for (_, label), tag in zip(self.instances, self.split):
            if tag is Split.TRAIN:
                train_seen.add(label)
        missing = sorted(set(range(self.num_classes)) - train_seen)
        if missing:
            raise ValueError(f"classes {missing} have no TRAIN instance")
        for tag in (Split.VALIDATION, Split.TEST):
            if tag not in self.split:
                raise ValueError(f"{tag.value} split is empty")

    def indices(self, split: Split) -> list[int]:
        return [i for i, tag in enumerate(self.split) if tag is split]

    def texts(self, split: Split) -> list[str]:
        return [self.instances[i][0] for i in self.indices(split)]

    def labels(self, split: Split) -> np.ndarray:
        return np.array([self.instances[i][1] for i in self.indices(split)], dtype=np.int64)

    def split_sizes(self) -> dict[str, int]:
        return {tag.value: len(self.indices(tag)) for tag in Split}


def _allocate(count: int, ratios: Sequence[float]) -> list[int]:
    # Largest-remainder quotas; TRAIN forced to >= 1 so every class reaches it.
    quotas = [r * count for r in ratios]
    counts = [math.floor(q) for q in quotas]
    if counts[0] == 0:
        counts[0] = 1
    remaining = count - sum(counts)
    order = sorted(range(3), key=lambda s: (counts[s] - quotas[s], s))
    i = 0
    while remaining > 0:
        counts[order[i % 3]] += 1
        remaining -= 1
        i += 1
    return counts


def split_corpus(
    corpus: Sequence[tuple[str, int]],
    ratios: Sequence[float] = (0.6, 0.2, 0.2),
    seed: int = 0,
    num_classes: int | None = None,
) -> LabeledCorpus:
    """Stratified TRAIN/VALIDATION/TEST assignment over an unsplit corpus.

    Per class, a seeded shuffle is followed by largest-remainder allocation,
    so the per-class proportion in each split deviates from the requested
    ratio by at most one instance. A pure function of (corpus order, ratios,
    seed).
    """
    if len(ratios) != 3:
        raise ValueError("ratios must have exactly three entries (train, validation, test)")
    if any(r <= 0 for r in ratios):
        raise ValueError("each split ratio must be positive")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)!r}")
    if num_classes is None:
        if not corpus:
            raise ValueError("corpus is empty")
        num_classes = max(label for _, label in corpus) + 1
    if len(corpus) < num_classes * 3:
        raise ValueError(
            f"corpus has {len(corpus)} instances; need at least {num_classes * 3}"
        )

    by_class: dict[int, list[int]] = {c: [] for c in range(num_classes)}
    for i, (_, label) in enumerate(corpus):
        if not 0 <= label < num_classes:
            raise ValueError(f"label {label!r} outside 0..{num_classes - 1}")
        by_class[label].append(i)
    for c in range(num_classes):
        if len(by_class[c]) < 3:
            raise ValueError(
                f"class {c} has {len(by_class[c])} instances; need at least 3 per class"
            )

    assigned: dict[int, list[list[int]]] = {}
    for c in range(num_classes):
        idx = list(by_class[c])
        random.Random(derive_seed(seed, "split", c)).shuffle(idx)
        n_train, n_val, _ = _allocate(len(idx), ratios)
        assigned[c] = [idx[:n_train], idx[n_train : n_train + n_val], idx[n_train + n_val :]]

    # Extreme ratios can starve VALIDATION or TEST globally; donate one
    # instance from the fullest class so both stay non-empty.
    def _total(s: int) -> int:
        return sum(len(assigned[c][s]) for c in range(num_classes))

    for target, other in ((1, 2), (2, 1)):
        if _total(target) > 0:
            continue
        if _total(other) >= 2:
            donor_split = other
            donor = max(range(num_classes), key=lambda c: (len(assigned[c][other]), -c))
        else:
            donor_split = 0
            candidates = [c for c in range(num_classes) if len(assigned[c][0]) >= 2]
            if not candidates:
                raise ValueError("ratios leave no donor for an empty split")
            donor = max(candidates, key=lambda c: (len(assigned[c][0]), -c))
        assigned[donor][target].append(assigned[donor][donor_split].pop())

    tags: list[Split] = [Split.TRAIN] * len(corpus)
    split_order = (Split.TRAIN, Split.VALIDATION, Split.TEST)
    for c in range(num_classes):
        for s, tag in enumerate(split_order):
            for i in assigned[c][s]:
                tags[i] = tag

    return LabeledCorpus(
        instances=tuple((text, label) for text, label in corpus),
        num_classes=num_classes,
        split=tuple(tags),
    )


@dataclass(frozen=True)
class EvalEntry:
    """Accuracy plus macro-averaged precision, recall, and F1, all in [0, 1]."""

    accuracy: float
    precision: float
    recall: float
    f1: float

    def metric(self, name: str) -> float:
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")
        return getattr(self, name)

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def evaluate(pred: Sequence[int], truth: Sequence[int], num_classes: int) -> EvalEntry:
    """Confusion-matrix metrics for one prediction column.

    Per-class precision, recall, and F1 are defined as 0 whenever their
    denominator is 0 (unpredicted or absent class); macro values are
    unweighted class means.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("pred and truth must be 1-d sequences of equal length")
    if pred.size == 0:
        raise ValueError("cannot evaluate zero instances")
    for name, arr in (("pred", pred), ("truth", truth)):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise ValueError(f"{name} entries must lie in 0..{num_classes - 1}")

    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (truth, pred), 1)

    accuracy = float(np.trace(confusion)) / float(pred.size)
    precisions, recalls, f1s = [], [], []
    for c in range(num_classes):
        tp = int(confusion[c, c])
        fp = int(confusion[:, c].sum()) - tp
        fn = int(confusion[c, :].sum()) - tp
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    return EvalEntry(
        accuracy=accuracy,
        precision=float(sum(precisions)) / num_classes,
        recall=float(sum(recalls)) / num_classes,
        f1=float(sum(f1s)) / num_classes,
    )


@dataclass(frozen=True)
class PredictionMatrix:
    """Predicted labels of a fixed classifier set over a fixed instance set.

    Column order matches ``classifier_ids`` exactly; this is the sole
    interface between trained learners and the selection machinery.
    """

    classifier_ids: tuple[ClassifierId, ...]
    predictions: np.ndarray
    truth: np.ndarray
    num_classes: int
    split_tag: Split

    def __post_init__(self) -> None:
        preds = np.array(self.predictions, dtype=np.int64)
        truth = np.array(self.truth, dtype=np.int64)
        if preds.ndim != 2:
            raise ValueError("predictions must be a 2-d (instances x classifiers) table")
        if truth.ndim != 1 or truth.shape[0] != preds.shape[0]:
            raise ValueError("truth length must equal the prediction row count")
        if preds.shape[1] != len(self.classifier_ids):
            raise ValueError("column count must equal the number of classifier ids")
        if preds.shape[0] == 0:
            raise ValueError("prediction matrix has no instances")
        canon = [cid.canonical for cid in self.classifier_ids]
        if len(set(canon)) != len(canon):
            dupes = sorted({c for c in canon if canon.count(c) > 1})
            raise ValueError(f"duplicate classifier ids: {dupes}")
        for name, arr in (("prediction", preds), ("truth", truth)):
            if arr.size and (arr.min() < 0 or arr.max() >= self.num_classes):
                raise ValueError(f"{name} entries must lie in 0..{self.num_classes - 1}")
        preds.setflags(write=False)
        truth.setflags(write=False)
        object.__setattr__(self, "predictions", preds)
        object.__setattr__(self, "truth", truth)
        object.__setattr__(self, "classifier_ids", tuple(self.classifier_ids))
        object.__setattr__(self, "_columns", {name: j for j, name in enumerate(canon)})

    @property
    def n_instances(self) -> int:
        return int(self.predictions.shape[0])

    @property
    def n_classifiers(self) -> int:
        return int(self.predictions.shape[1])

    def index_of(self, cid: ClassifierId | str) -> int:
        canonical = cid.canonical if isinstance(cid, ClassifierId) else str(cid).upper()
        if canonical not in self._columns:
            raise ValueError(f"classifier {canonical!r} not present in the matrix")
        return self._columns[canonical]

    def column(self, cid: ClassifierId | str) -> np.ndarray:
        return self.predictions[:, self.index_of(cid)]

    def select(self, ids: Iterable[ClassifierId | str]) -> "PredictionMatrix":
        ids = list(ids)
        cols = [self.index_of(cid) for cid in ids]
        return PredictionMatrix(
            classifier_ids=tuple(self.classifier_ids[i] for i in cols),
            predictions=self.predictions[:, cols],
            truth=self.truth,
            num_classes=self.num_classes,
            split_tag=self.split_tag,
        )


def evaluate_matrix(pm: PredictionMatrix) -> dict[str, EvalEntry]:
    """Per-classifier metrics over a prediction matrix, in column order."""
    return {
        cid.canonical: evaluate(pm.predictions[:, j], pm.truth, pm.num_classes)
        for j, cid in enumerate(pm.classifier_ids)
    }


def load_corpus_csv(path: str) -> tuple[list[tuple[str, int]], int, dict[str, int]]:
    """Read a ``text,label`` delimiter-separated corpus file.

    Label strings are mapped to indices by first-appearance order; the
    mapping is returned so reports can emit it.
    """
    rows: list[tuple[str, int]] = []
    mapping: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty corpus file") from None
        if [h.strip().lower() for h in header[:2]] != ["text", "label"]:
            raise ValueError(f"{path}: expected header 'text,label', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: line {lineno}: expected 2 fields, found {len(row)}")
            text, label = row[0], row[1].strip()
            if label not in mapping:
                mapping[label] = len(mapping)
            rows.append((text, mapping[label]))
    if len(mapping) < 2:
        raise ValueError(f"{path}: corpus has {len(mapping)} distinct labels; need at least 2")
    return rows, len(mapping), mapping


def write_corpus_csv(rows: Iterable[tuple[str, str]], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        for text, label in rows:
            writer.writerow([text, label])

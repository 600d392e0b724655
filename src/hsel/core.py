"""Shared domain types: corpus splits, classifier identifiers, prediction
matrices, and classification metrics."""

from __future__ import annotations

import csv
import math
import random
from _blake2 import blake2b  # hashlib's BLAKE2b; importing hashlib loads OpenSSL
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

METRIC_NAMES = ("accuracy", "precision", "recall", "f1")


class Split(str, Enum):
    TRAIN = "TRAIN"
    VALIDATION = "VALIDATION"
    TEST = "TEST"


def derive_seed(*parts: object) -> int:
    """Stable 63-bit integer derived from the given parts.

    Uses an unkeyed BLAKE2b digest, CPython's builtin ``_blake2``, so the
    value does not depend on interpreter hash randomization. Every seeded
    component derives its own stream from the global seed plus its own
    name, never from scheduling order.
    """
    text = ":".join(str(p) for p in parts)
    digest = blake2b(text.encode("utf-8"), digest_size=8).digest()
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


def read_utf8(path: str) -> str:
    """The text of a wire file; bytes that are not UTF-8 raise ``ValueError``
    naming ``path: line N``, with lines ended by LF, CRLF or CR."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        line = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
        raise ValueError(
            f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 text"
        ) from None


def check_header(path: str, header: list[str] | None, start: Sequence[str], kind: str) -> None:
    """Raise ``ValueError`` naming ``path: line 1`` unless a ``kind`` file's
    ``header`` starts with the fields ``start``, case and spaces aside."""
    if header is None:
        raise ValueError(f"{path}: line 1: empty {kind} file")
    if [field.strip().lower() for field in header[: len(start)]] != list(start):
        fields = "fields" if len(start) > 1 else "field"
        raise ValueError(f"{path}: line 1: first header {fields} must be {','.join(start)!r}")


def read_records(path: str, start: Sequence[str], kind: str) -> Iterator[tuple[int, list[str]]]:
    """Stream a UTF-8 CSV ``kind`` file, one leading byte-order mark skipped:
    its header (see ``check_header``) as line 1, then each non-blank record,
    which has one field per header field, with the physical line it starts
    on (a quoted field may span lines). Every fault, bytes that are not UTF-8
    and csv errors such as a field past the csv module's size limit among
    them, raises ``ValueError`` naming ``path: line N``."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        line = 1
        try:
            header = next(reader, None)
            check_header(path, header, start, kind)
            yield line, header
            line = reader.line_num + 1
            for fields in reader:
                if fields:
                    if len(fields) != len(header):
                        raise ValueError(f"{path}: line {line}: expected {len(header)}"
                                         f" fields, found {len(fields)}")
                    yield line, fields
                line = reader.line_num + 1
        except csv.Error as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None
        except UnicodeDecodeError:
            read_utf8(path)  # finds the undecodable byte's line and raises naming it
            raise


# Each split's texts and labels, in corpus order.
SplitCorpus = dict[Split, tuple[list[str], np.ndarray]]


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
) -> SplitCorpus:
    """Stratified TRAIN/VALIDATION/TEST split of a corpus whose class count
    C, at least 2, is its largest label plus one: each split's texts and
    int64 labels, both in corpus order.

    Per class, a seeded shuffle is followed by largest-remainder allocation,
    so the per-class proportion in each split deviates from the requested
    ratio by at most one instance. The three splits together hold every row
    once, every class reaches TRAIN, and VALIDATION and TEST are non-empty.
    A pure function of (corpus order, ratios, seed).
    """
    if len(ratios) != 3:
        raise ValueError("ratios must have exactly three entries (train, validation, test)")
    if not all(math.isfinite(r) for r in ratios):
        raise ValueError(f"each split ratio must be finite, got {tuple(ratios)!r}")
    if any(r <= 0 for r in ratios):
        raise ValueError("each split ratio must be positive")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)!r}")
    if not corpus:
        raise ValueError("corpus is empty")
    num_classes = max(label for _, label in corpus) + 1
    if num_classes < 2:
        raise ValueError("corpus needs at least 2 classes")
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

    splits = {}
    for s, tag in enumerate(Split):
        rows = sorted(i for c in range(num_classes) for i in assigned[c][s])
        labels = np.array([corpus[i][1] for i in rows], dtype=np.int64)
        splits[tag] = ([corpus[i][0] for i in rows], labels)
    return splits


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


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` where ``den > 0``, else 0."""
    return np.divide(num, den, out=np.zeros(np.broadcast(num, den).shape), where=den > 0)


def evaluate_rows(preds: np.ndarray, truth: Sequence[int], num_classes: int) -> list[EvalEntry]:
    """Confusion-matrix metrics of each row of an (L, N) label array.

    Per-class precision, recall, and F1 are defined as 0 whenever their
    denominator is 0 (unpredicted or absent class); macro values are
    unweighted class means, summed in class order.
    """
    preds, truth = np.asarray(preds), np.asarray(truth, dtype=np.int64)
    if preds.ndim != 2 or truth.ndim != 1 or preds.shape[1] != truth.size:
        raise ValueError("each pred row and truth must be 1-d sequences of equal length")
    if truth.size == 0:
        raise ValueError("cannot evaluate zero instances")
    for name, arr in (("pred", preds), ("truth", truth)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            raise ValueError(f"{name} entries must lie in 0..{num_classes - 1}")

    # Confusion counts: one bincount of (row, predicted, true) cells per block
    # of L/4 rows, or of 8192 cells if more, so the intp index (labels may be
    # uint8) takes no more memory than the two (L, N) bool tables of C passes.
    step = min(len(preds), max(-(-len(preds) // 4), 8192 // truth.size)) or 1
    cells = np.empty((step, truth.size), dtype=np.intp)
    starts = np.arange(step, dtype=np.intp)[:, None] * num_classes**2
    confusion = np.empty((len(preds), num_classes, num_classes), dtype=np.intp)
    for lo in range(0, len(preds), step):
        block = preds[lo : lo + step]
        index = np.multiply(block, num_classes, out=cells[: len(block)], dtype=np.intp)
        index += truth
        index += starts[: len(block)]
        counts = np.bincount(index.ravel(), minlength=len(block) * num_classes**2)
        confusion[lo : lo + step] = counts.reshape(-1, num_classes, num_classes)
    predicted, actual = confusion.sum(axis=2), np.bincount(truth, minlength=num_classes)
    totals = np.zeros((4, len(preds)))  # hits, then per-class metric sums
    for c in range(num_classes):
        tp = confusion[:, c, c]
        p, r = _ratio(tp, predicted[:, c]), _ratio(tp, actual[c])
        totals += [tp, p, r, _ratio(2.0 * p * r, p + r)]
    totals /= [[truth.size], [num_classes], [num_classes], [num_classes]]
    return [EvalEntry(*values) for values in totals.T.tolist()]


def evaluate(pred: Sequence[int], truth: Sequence[int], num_classes: int) -> EvalEntry:
    """``evaluate_rows`` of one prediction column."""
    return evaluate_rows(np.asarray(pred, dtype=np.int64)[None], truth, num_classes)[0]


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
    entries = evaluate_rows(pm.predictions.T, pm.truth, pm.num_classes)
    return {cid.canonical: entry for cid, entry in zip(pm.classifier_ids, entries)}


def load_corpus_csv(path: str) -> tuple[list[tuple[str, int]], dict[str, int]]:
    """Read a CSV corpus by ``read_records``' rules; its header starts ``text,label``.

    Label strings, stripped, are mapped to indices by first-appearance
    order, so the class count is ``len(mapping)``; the mapping is returned so
    reports can emit it. A blank label, or fewer than two labels by the last
    record, raises ``ValueError`` naming that record's ``path: line N``.
    """
    rows, mapping = [], {}
    records = read_records(path, ("text", "label"), "corpus")
    lineno, _ = next(records)
    for lineno, fields in records:
        label = fields[1].strip()
        if not label:
            raise ValueError(f"{path}: line {lineno}: empty label")
        rows.append((fields[0], mapping.setdefault(label, len(mapping))))
    if len(mapping) < 2:
        raise ValueError(f"{path}: line {lineno}: corpus ends with {len(mapping)} distinct"
                         " labels; need at least 2")
    return rows, mapping

"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives the
same bytes. Nothing here imports hsel, so inputs do not depend on the code
under measurement.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Sequence

import numpy as np

# Words are three consonant-vowel syllables. Ending in a vowel keeps every
# suffix rule of hsel.preprocess.stem from firing, and six letters keep them
# clear of the stop-word list, so each token passes preprocessing unchanged.
_CONSONANTS = "bcdfghjklmnprtv"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]
MAX_VOCAB = len(_SYLLABLES) ** 3
# Zipf exponent of token ranks, and the range of document lengths in tokens.
ZIPF_EXPONENT = 1.1
DOC_LEN = (20, 60)


def word(index: int) -> str:
    """The index-th synthetic token."""
    if not 0 <= index < MAX_VOCAB:
        raise ValueError(f"word index {index} outside 0..{MAX_VOCAB - 1}")
    n = len(_SYLLABLES)
    return _SYLLABLES[index // (n * n)] + _SYLLABLES[index // n % n] + _SYLLABLES[index % n]


def zipf_corpus(
    seed: int,
    n_docs: int,
    num_classes: int,
    vocab: int,
    difficulty: float,
) -> list[tuple[str, str]]:
    """Balanced (text, label) rows with Zipf-distributed tokens.

    Every token draws a Zipf rank. With probability ``1 - difficulty`` the
    rank maps to a word through its class's own rank permutation, otherwise
    through one permutation shared by all classes, so ``difficulty`` sets how
    much of each document carries no class signal.
    """
    if not 0.0 <= difficulty <= 1.0:
        raise ValueError("difficulty must lie in [0, 1]")
    if vocab > MAX_VOCAB:
        raise ValueError(f"vocab may be at most {MAX_VOCAB}")
    rng = np.random.default_rng([seed, 1])
    weights = 1.0 / np.arange(1, vocab + 1, dtype=np.float64) ** ZIPF_EXPONENT
    weights /= weights.sum()
    shared = rng.permutation(vocab)
    own = np.stack([rng.permutation(vocab) for _ in range(num_classes)])
    labels = np.arange(n_docs) % num_classes
    rng.shuffle(labels)
    lengths = rng.integers(DOC_LEN[0], DOC_LEN[1] + 1, size=n_docs)
    ranks = rng.choice(vocab, size=int(lengths.sum()), p=weights)
    signal = rng.random(ranks.size) >= difficulty
    doc_of = np.repeat(np.arange(n_docs), lengths)
    token_ids = np.where(signal, own[labels[doc_of], ranks], shared[ranks])
    words = [word(i) for i in range(vocab)]
    rows = []
    start = 0
    for i, length in enumerate(lengths):
        text = " ".join(words[j] for j in token_ids[start : start + length])
        rows.append((text + ".", f"c{labels[i]}"))
        start += length
    return rows


def corpus_csv(rows: list[tuple[str, str]]) -> bytes:
    """``text,label`` file contents, as hsel.core.load_corpus_csv reads them."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["text", "label"])
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def prediction_matrices(
    seed: int,
    extractors: int,
    algorithms: int,
    num_classes: int,
    n_validation: int,
    n_test: int,
    groups: int,
    accuracy: Sequence[float],
    redundancy: float,
) -> tuple[list[str], dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Validation and test prediction matrices of a synthetic pool.

    Members are ``X<e>-A<aa>`` for every extractor and algorithm token,
    extractors outer, so ids parse as ``EXTRACTOR-ALGORITHM``.
    Each member belongs to one of ``groups`` redundancy groups. A group has a
    latent predictor whose accuracy is spread evenly over ``accuracy``; a
    member copies its group's label with probability ``redundancy`` and
    otherwise predicts on its own at about the group's accuracy. Wrong labels
    are uniform over the other classes. Returns the ids and, per split tag,
    ``(truth, predictions)`` with predictions of shape (N, P).
    """
    ids = [f"X{e}-A{a:02d}" for e in range(extractors) for a in range(algorithms)]
    p = len(ids)
    rng = np.random.default_rng([seed, 2])
    group_of = rng.permutation(np.arange(p) % groups)
    group_acc = rng.permutation(np.linspace(accuracy[0], accuracy[1], groups))
    member_acc = np.clip(group_acc[group_of] + rng.uniform(-0.05, 0.05, size=p), 0.0, 1.0)
    c = num_classes

    def _labels(truth: np.ndarray, correct: np.ndarray) -> np.ndarray:
        wrong = (truth[:, None] + rng.integers(1, c, size=correct.shape)) % c
        return np.where(correct, truth[:, None], wrong)

    splits = {}
    for tag, n in (("VALIDATION", n_validation), ("TEST", n_test)):
        truth = rng.integers(0, c, size=n)
        group_pred = _labels(truth, rng.random((n, groups)) < group_acc)
        own_pred = _labels(truth, rng.random((n, p)) < member_acc)
        copy = rng.random((n, p)) < redundancy
        splits[tag] = (truth, np.where(copy, group_pred[:, group_of], own_pred))
    return ids, splits


def matrix_files(
    ids: list[str], truth: np.ndarray, preds: np.ndarray, num_classes: int, split: str
) -> tuple[bytes, bytes]:
    """Prediction-matrix CSV and its ``.meta.json`` sidecar, in hsel's wire format."""
    lines = ["truth," + ",".join(ids)]
    for t, row in zip(truth.tolist(), preds.tolist()):
        lines.append(",".join(str(v) for v in [t] + row))
    meta = {
        "format": "hsel-prediction-matrix",
        "version": 1,
        "num_classes": num_classes,
        "split": split,
        "instances": int(truth.size),
        "label_mapping": None,
    }
    sidecar = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    return ("\r\n".join(lines) + "\r\n").encode("utf-8"), sidecar.encode("utf-8")


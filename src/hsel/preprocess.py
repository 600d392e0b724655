"""The one text normalization pipeline. ``preprocess`` runs every stage in
this order: URL and IP removal, punctuation stripping, case folding, the
``DEFAULT_STOPWORDS`` filter and suffix stripping (``stem``). A
corpus-wide filter, fitted on training documents only, then keeps the
tokens found in at least ``MIN_DF`` documents."""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

_URL_RE = re.compile(r"\bhttps?://\S+|\bwww\.\S+", re.IGNORECASE)
_IP_RE = re.compile(r"\b(?:\d{1,3}\.){3}\d{1,3}\b")
_PUNCT_RE = re.compile(r"[^\w\s]")

DEFAULT_STOPWORDS = frozenset(
    """a an and are as at be but by for from had has have he her his i if in
    is it its me my not of on or our she so that the their them they this to
    was we were will with you your""".split()
)
MIN_DF = 2

_VOWELS = frozenset("aeiou")


def _has_vowel(stem: str) -> bool:
    return any(ch in _VOWELS for ch in stem)


@functools.lru_cache(maxsize=2**16)
def stem(token: str) -> str:
    """Lightweight deterministic suffix stripper.

    Handles plural and participle endings only; this is intentionally much
    smaller than a full stemmer but stable across runs and platforms. Pure,
    so memoised: each distinct token is stemmed once.
    """
    t = token
    if t.endswith("sses"):
        t = t[:-2]
    elif t.endswith("ies") and len(t) > 3:
        t = t[:-3] + "i"
    elif t.endswith("ss"):
        pass
    elif t.endswith("s") and len(t) > 3:
        t = t[:-1]
    for suffix in ("ing", "ed"):
        if t.endswith(suffix) and len(t) - len(suffix) >= 3 and _has_vowel(t[: -len(suffix)]):
            t = t[: -len(suffix)]
            if len(t) > 2 and t[-1] == t[-2] and t[-1] not in "lsz":
                t = t[:-1]
            break
    if t.endswith("ly") and len(t) > 4:
        t = t[:-2]
    return t


def preprocess(text: str) -> list[str]:
    """Tokenize one text through every stage, in order.

    The min-df filter is corpus-level and not applied here; see
    ``fit_token_pipeline``. An empty token list is a legal result.
    """
    text = _URL_RE.sub(" ", text)
    text = _IP_RE.sub(" ", text)
    text = _PUNCT_RE.sub(" ", text)
    text = text.lower()
    tokens = [t for t in text.split() if t not in DEFAULT_STOPWORDS]
    return [stem(t) for t in tokens]


@dataclass(frozen=True)
class TokenPipeline:
    """The fitted document-frequency filter over ``preprocess``.

    Tokens outside ``keep`` are dropped. The filter is fitted on TRAIN
    documents only so that nothing outside the training split influences
    tokenization.
    """

    keep: frozenset[str]

    def __call__(self, text: str) -> list[str]:
        return [t for t in preprocess(text) if t in self.keep]

    def tokenize_all(self, texts: Iterable[str]) -> list[list[str]]:
        return [self(text) for text in texts]


def fit_token_pipeline(train_texts: Sequence[str]) -> tuple[TokenPipeline, list[list[str]]]:
    """Keep the tokens found in at least ``MIN_DF`` training texts, each
    preprocessed once; also return the kept documents,
    ``pipeline.tokenize_all(train_texts)``."""
    docs = [preprocess(text) for text in train_texts]
    df: Counter[str] = Counter()
    for doc in docs:
        df.update(set(doc))
    keep = frozenset(token for token, count in df.items() if count >= MIN_DF)
    return TokenPipeline(keep), [[t for t in doc if t in keep] for doc in docs]

"""Text normalization pipeline: URL/IP removal, punctuation stripping,
case folding, stop-word removal, suffix stripping, and a corpus-wide
document-frequency filter fitted on training documents only."""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

_URL_RE = re.compile(r"\bhttps?://\S+|\bwww\.\S+", re.IGNORECASE)
_IP_RE = re.compile(r"\b(?:\d{1,3}\.){3}\d{1,3}\b")
_PUNCT_RE = re.compile(r"[^\w\s]")

DEFAULT_STOPWORDS = frozenset(
    """a an and are as at be but by for from had has have he her his i if in
    is it its me my not of on or our she so that the their them they this to
    was we were will with you your""".split()
)

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


@dataclass(frozen=True)
class PreprocessConfig:
    """Flags for the per-text pipeline plus the corpus-wide min-df threshold."""

    strip_urls: bool = True
    strip_punctuation: bool = True
    lowercase: bool = True
    remove_stopwords: bool = True
    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    apply_stemming: bool = True
    min_df: int = 2


def preprocess(text: str, config: PreprocessConfig = PreprocessConfig()) -> list[str]:
    """Tokenize one text through the enabled pipeline stages, in order.

    The min-df filter is corpus-level and not applied here; see
    ``fit_token_pipeline``. An empty token list is a legal result.
    """
    if config.strip_urls:
        text = _URL_RE.sub(" ", text)
        text = _IP_RE.sub(" ", text)
    if config.strip_punctuation:
        text = _PUNCT_RE.sub(" ", text)
    if config.lowercase:
        text = text.lower()
    tokens = text.split()
    if config.remove_stopwords:
        tokens = [t for t in tokens if t not in config.stopwords]
    if config.apply_stemming:
        tokens = [stem(t) for t in tokens]
    return tokens


@dataclass(frozen=True)
class TokenPipeline:
    """A preprocess config together with the fitted document-frequency filter.

    ``keep`` is None when no filter applies (min_df <= 1); otherwise tokens
    outside it are dropped. The filter is fitted on TRAIN documents only so
    that nothing outside the training split influences tokenization.
    """

    config: PreprocessConfig = field(default_factory=PreprocessConfig)
    keep: frozenset[str] | None = None

    def __call__(self, text: str) -> list[str]:
        tokens = preprocess(text, self.config)
        if self.keep is not None:
            tokens = [t for t in tokens if t in self.keep]
        return tokens

    def tokenize_all(self, texts: Iterable[str]) -> list[list[str]]:
        return [self(text) for text in texts]


def fit_token_pipeline(
    train_texts: Sequence[str], config: PreprocessConfig = PreprocessConfig()
) -> tuple[TokenPipeline, list[list[str]]]:
    """Fit the document-frequency filter on training texts, each preprocessed
    once; also return the kept documents, ``pipeline.tokenize_all(train_texts)``."""
    docs = [preprocess(text, config) for text in train_texts]
    if config.min_df <= 1:
        return TokenPipeline(config=config, keep=None), docs
    df: Counter[str] = Counter()
    for doc in docs:
        df.update(set(doc))
    keep = frozenset(token for token, count in df.items() if count >= config.min_df)
    return TokenPipeline(config=config, keep=keep), [[t for t in doc if t in keep] for doc in docs]

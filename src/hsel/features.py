"""Feature extraction over token lists.

A pool has one sorted vocabulary, built from training documents only, and
each split is counted once into an (N, V) matrix (``count_matrix``) that
every extractor weighs: COUNT keeps it, TFIDF scales columns by idf, and
HASHED projects it through a seeded signed (V, ``HASHED_DIM``) matrix, with
``HASHED_DIM`` = 64, standing in for dense embeddings. That matrix's row for
a token is defined as the stream
``default_rng(derive_seed("hashed-projection", seed, token)).integers(0, 2,
size=HASHED_DIM)`` mapped to -1/+1; ``_sign_rows`` computes all rows at once
by replaying the stream in array arithmetic, so numpy.random is never
imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import log
from typing import Sequence

import numpy as np

from .core import derive_seed

COUNT = "COUNT"
TFIDF = "TFIDF"
HASHED = "HASHED"
EXTRACTOR_KINDS = (COUNT, TFIDF, HASHED)

HASHED_DIM = 64


def normalize_extractor_token(token: str) -> str:
    tok = token.strip().upper()
    if tok not in EXTRACTOR_KINDS:
        raise ValueError(f"unknown extractor token {token!r}; expected one of {EXTRACTOR_KINDS}")
    return tok


def _sign_rows(seeds: np.ndarray, dim: int) -> np.ndarray:
    """Row t is ``default_rng(seeds[t]).integers(0, 2, size=dim) * 2.0 - 1.0``
    for seeds below 2**64: numpy's SeedSequence (a 4-word pool mixed mod
    2**32) and PCG64 (128-bit state as hi/lo uint64 words, XSL-RR output)
    replayed on arrays; a 0/1 draw is bit 31 of an output's 32-bit half, low
    half first."""
    m32, const = 0xFFFFFFFF, [0x43B0D7E5]

    def hashmix(value, mult=0x931E8875):
        value = value ^ const[0]
        const[0] = const[0] * mult & m32
        value = value * const[0] & m32
        return value ^ (value >> 16)

    zero = np.zeros_like(seeds)
    pool = [hashmix(word) for word in (seeds & m32, seeds >> 32, zero, zero)]
    for src, dst in permutations(range(4), 2):  # source-major, as SeedSequence mixes
        mixed = (pool[dst] * 0xCA01F9DD - hashmix(pool[src]) * 0x4973F715) & m32
        pool[dst] = mixed ^ (mixed >> 16)
    const[0] = 0x8B51F9DD
    words = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    s0, s1, s2, s3 = (words[k] | (words[k + 1] << 32) for k in range(0, 8, 2))
    inc_hi, inc_lo = (s2 << 1) | (s3 >> 63), (s3 << 1) | 1
    mult_hi, mult_lo = 0x2360ED051FC65DA4, 0x4385DF649FCCF645

    def step(hi, lo):  # state * mult + inc mod 2**128; carry is the high word of lo * mult_lo
        lo0, lo1 = lo & m32, lo >> 32
        cross0, cross1 = lo0 * (mult_lo >> 32), lo1 * (mult_lo & m32)
        mid = (lo0 * (mult_lo & m32) >> 32) + (cross0 & m32) + (cross1 & m32)
        carry = lo1 * (mult_lo >> 32) + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)
        new_lo = lo * mult_lo + inc_lo
        return carry + lo * mult_hi + hi * mult_lo + inc_hi + (new_lo < inc_lo), new_lo

    lo = inc_lo + s1  # seeding: state = inc, plus (s0:s1), then one step
    hi, lo = step(inc_hi + s0 + (lo < s1), lo)
    draws = []
    for _ in range((dim + 1) // 2):
        hi, lo = step(hi, lo)
        x, rot = hi ^ lo, hi >> 58
        out = (x >> rot) | (x << ((64 - rot) & 63))
        draws += [(out >> 31) & 1, out >> 63]
    return np.stack(draws[:dim], axis=1) * 2.0 - 1.0


def build_vocabulary(train_docs: Sequence[Sequence[str]]) -> dict[str, int]:
    """The sorted training vocabulary, token -> column. An empty one raises:
    callers see an input problem (no training token survives preprocessing
    and the min-df filter), not a crash later."""
    tokens = sorted({token for doc in train_docs for token in doc})
    if not tokens:
        raise ValueError("empty vocabulary: no training token survives preprocessing and min-df")
    return {token: j for j, token in enumerate(tokens)}


def count_matrix(docs: Sequence[Sequence[str]], vocabulary: dict[str, int]) -> np.ndarray:
    """(len(docs), V) float64 token counts; tokens outside ``vocabulary`` are
    dropped. One ``bincount`` over the flat ``row * V + column`` ids."""
    width, column = len(vocabulary), vocabulary.get
    flat = [i * width + j for i, doc in enumerate(docs) for j in map(column, doc) if j is not None]
    counts = np.bincount(np.array(flat, dtype=np.int64), minlength=len(docs) * width)
    return counts.reshape(len(docs), width).astype(np.float64)


@dataclass(frozen=True)
class FeatureSpace:
    """One extractor's weighting of a ``count_matrix`` over the pool's shared
    training vocabulary. COUNT returns the counts. For
    TFIDF, ``idf[j] = ln((1 + D) / (1 + df_j)) + 1`` over the D training
    documents, which keeps every idf finite and >= 1. For HASHED, counts are
    projected through the (V, HASHED_DIM) sign matrix described in the module
    docstring."""

    kind: str
    idf: np.ndarray | None = None
    projection: np.ndarray | None = None

    def transform(self, counts: np.ndarray) -> np.ndarray:
        if self.kind == COUNT:
            return counts
        if self.kind == TFIDF:
            return counts * self.idf
        return counts @ self.projection


def fit_feature_space(
    vocabulary: dict[str, int], train_counts: np.ndarray, kind: str, seed: int = 0
) -> FeatureSpace:
    """Fit one extractor on the training ``count_matrix`` over ``vocabulary``."""
    kind = normalize_extractor_token(kind)
    if kind == COUNT:
        return FeatureSpace(kind=kind)

    if kind == TFIDF:
        n_docs = len(train_counts)
        df = (train_counts > 0).sum(axis=0)
        idf = np.array([log((1 + n_docs) / (1 + int(d))) + 1.0 for d in df], dtype=np.float64)
        idf.setflags(write=False)
        return FeatureSpace(kind=kind, idf=idf)

    seeds = np.array([derive_seed("hashed-projection", seed, t) for t in vocabulary], np.uint64)
    projection = _sign_rows(seeds, HASHED_DIM)
    projection.setflags(write=False)
    return FeatureSpace(kind=kind, projection=projection)

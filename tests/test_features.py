"""Shared vocabulary, per-split count matrices, and feature space fitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsel.core import derive_seed
from hsel.features import (
    _sign_rows,
    build_vocabulary,
    count_matrix,
    fit_feature_space,
    normalize_extractor_token,
)

from oracles import count_rows_oracle, sign_row_oracle


def _fit(train_docs, kind, **kwargs):
    """The fitted space and the training vocabulary it weighs."""
    vocabulary = build_vocabulary(train_docs)
    space = fit_feature_space(vocabulary, count_matrix(train_docs, vocabulary), kind, **kwargs)
    return space, vocabulary


def _transform(fitted, docs):
    space, vocabulary = fitted
    return space.transform(count_matrix(docs, vocabulary))


class TestCount:
    def test_direct_counting(self):
        fitted = _fit([["a", "b"], ["b", "c"]], "COUNT")
        assert fitted[1] == {"a": 0, "b": 1, "c": 2}
        out = _transform(fitted, [["a", "b"], ["b", "c"]])
        assert out.tolist() == [[1, 1, 0], [0, 1, 1]]

    def test_out_of_vocabulary_tokens_ignored(self):
        assert _transform(_fit([["a"]], "COUNT"), [["a", "zzz", "a"]]).tolist() == [[2]]


class TestTfidf:
    def test_token_in_every_doc_has_idf_one(self):
        space, vocabulary = _fit([["a", "b"], ["a", "c"]], "TFIDF")
        j = vocabulary["a"]
        assert space.idf[j] == math.log(1.0) + 1.0 == 1.0

    def test_idf_formula(self):
        docs = [["a", "b"], ["a"], ["a"]]
        fitted = _fit(docs, "TFIDF")
        space, vocabulary = fitted
        assert space.idf[vocabulary["b"]] == pytest.approx(math.log(4 / 2) + 1.0)
        out = _transform(fitted, [["b", "b"]])
        assert out[0, vocabulary["b"]] == pytest.approx(2 * (math.log(2.0) + 1.0))

    def test_idf_finite_and_positive(self):
        space, _ = _fit([["x", "y"], ["y"]], "TFIDF")
        assert np.all(np.isfinite(space.idf))
        assert np.all(space.idf >= 1.0)


class TestHashed:
    def test_deterministic_for_fixed_seed(self):
        docs = [["alpha", "beta"], ["gamma"]]
        a = _fit(docs, "HASHED", seed=5)
        b = _fit(docs, "HASHED", seed=5)
        assert np.array_equal(_transform(a, docs), _transform(b, docs))

    def test_seed_changes_projection(self):
        docs = [["alpha", "beta", "gamma", "delta"]]
        a = _fit(docs, "HASHED", seed=5)
        b = _fit(docs, "HASHED", seed=6)
        assert not np.array_equal(_transform(a, docs), _transform(b, docs))

    def test_width_and_signs(self):
        space, _ = _fit([["a", "b"]], "HASHED", seed=0)
        assert space.projection.shape == (2, 64)
        assert set(np.unique(space.projection)) <= {-1.0, 1.0}

    def test_projection_is_linear_in_counts(self):
        fitted = _fit([["a", "b"]], "HASHED", seed=1)
        single = _transform(fitted, [["a"]])
        double = _transform(fitted, [["a", "a"]])
        assert np.array_equal(double, 2 * single)


def test_empty_vocabulary_rejected():
    for docs in ([[], []], []):
        with pytest.raises(ValueError, match="empty vocabulary"):
            build_vocabulary(docs)


def test_one_spelling_per_extractor_and_unknown_tokens():
    assert normalize_extractor_token(" hashed ") == "HASHED"
    assert normalize_extractor_token("Count") == "COUNT"
    for token in ("BERT", "cv", "TF-IDF", "hashed-dense"):
        with pytest.raises(ValueError, match=f"unknown extractor token {token!r}"):
            normalize_extractor_token(token)


EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1)
SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.sampled_from(EDGE_SEEDS), st.integers(0, 2**63 - 1))


class TestSignRows:
    """The array replay of the default_rng stream against one generator per row."""

    @pytest.mark.parametrize("dim", [1, 7, 64, 65])
    def test_edge_seeds(self, dim):
        got = _sign_rows(np.array(EDGE_SEEDS, dtype=np.uint64), dim)
        assert np.array_equal(got, np.vstack([sign_row_oracle(s, dim) for s in EDGE_SEEDS]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(SEEDS, min_size=1, max_size=8),
           st.one_of(st.sampled_from([1, 64, 65]), st.integers(1, 80)))
    def test_equals_per_row_generators(self, seeds, dim):
        got = _sign_rows(np.array(seeds, dtype=np.uint64), dim)
        assert np.array_equal(got, np.vstack([sign_row_oracle(s, dim) for s in seeds]))

    def test_fitted_projection_rows_follow_their_tokens(self):
        space, vocabulary = _fit([["beta", "alpha"], ["gamma"]], "HASHED", seed=3)
        for token, j in vocabulary.items():
            oracle = sign_row_oracle(derive_seed("hashed-projection", 3, token), 64)
            assert np.array_equal(space.projection[j], oracle)


TOKENS = st.sampled_from(["a", "b", "c", "d", "e"])


class TestCountMatrix:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.lists(TOKENS, max_size=8), max_size=6),
           st.lists(TOKENS, min_size=1, unique=True))
    def test_equals_token_loop(self, docs, vocab_tokens):
        # Empty documents, tokens outside the vocabulary and repeats all occur.
        vocabulary = {token: j for j, token in enumerate(vocab_tokens)}
        got = count_matrix(docs, vocabulary)
        assert got.dtype == np.float64
        assert got.shape == (len(docs), len(vocabulary))
        assert np.array_equal(got, count_rows_oracle(docs, vocabulary))

    def test_fitted_idf_uses_document_frequency(self):
        docs = [["a", "a", "b"], [], ["a", "c"], ["c", "c", "c"]]
        space, _ = _fit(docs, "TFIDF")
        expected = [math.log(5 / (1 + df)) + 1.0 for df in (2, 1, 2)]
        assert space.idf.tolist() == expected

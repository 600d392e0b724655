"""Preprocessing pipeline stages and the corpus-level min-df filter."""

import importlib

import pytest

from hsel.preprocess import (
    TokenPipeline,
    fit_token_pipeline,
    preprocess,
    stem,
)


class TestPreprocess:
    def test_url_and_punctuation_pipeline(self):
        # Trace: URL removed, '!!' stripped, lower-cased; neither token is a
        # stop word, and neither has a suffix the stemmer strips.
        assert preprocess("Visit http://x.co NOW!!") == ["visit", "now"]

    def test_empty_input(self):
        assert preprocess("") == []

    def test_case_folding_plus_stopwords(self):
        assert preprocess("The the THE") == []

    def test_ip_removal(self):
        assert preprocess("ping 192.168.0.1 fails") == ["ping", "fail"]

    def test_stages_run_in_order(self):
        # The URL goes before punctuation would split it into tokens; "The!"
        # loses its "!" and is lower-cased before the stop-word filter drops
        # it; "Ares" passes the filter and only then stems to "are".
        assert preprocess("The! www.a.org/x Ares Walked") == ["are", "walk"]

    def test_deterministic(self):
        text = "Markets are running WILD today http://a.b/c 10.0.0.1!!"
        assert preprocess(text) == preprocess(text)


class TestStem:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("running", "run"),
            ("markets", "market"),
            ("classes", "class"),
            ("ponies", "poni"),
            ("walked", "walk"),
            ("quickly", "quick"),
            ("news", "new"),
            ("is", "is"),
        ],
    )
    def test_suffix_rules(self, token, expected):
        assert stem(token) == expected


class TestTokenPipeline:
    def test_min_df_filter_fitted_on_train_only(self):
        pipeline, _ = fit_token_pipeline(["apple banana", "apple cherry"])
        # 'apple' appears in both training docs, the rest only once.
        assert pipeline("apple banana cherry durian") == ["apple"]

    def test_document_frequency_counts_documents_not_occurrences(self):
        # 'spam' occurs 3 times but only in one document.
        pipeline, _ = fit_token_pipeline(["spam spam spam", "egg ham", "egg toast"])
        assert pipeline("spam egg") == ["egg"]

    def test_returned_documents_equal_the_fitted_pipeline(self):
        texts = ["Apples and pears", "apples, pears!", "plums", ""]
        pipeline, docs = fit_token_pipeline(texts)
        assert docs == pipeline.tokenize_all(texts)


def test_package_attribute_is_the_submodule():
    # The package must not shadow its submodule with the function of the same name.
    assert importlib.import_module("hsel").preprocess.TokenPipeline is TokenPipeline

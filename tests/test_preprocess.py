"""Preprocessing pipeline stages and the corpus-level min-df filter."""

import importlib

import pytest

from hsel.preprocess import (
    PreprocessConfig,
    TokenPipeline,
    fit_token_pipeline,
    preprocess,
    stem,
)


class TestPreprocess:
    def test_url_and_punctuation_pipeline(self):
        # Trace: URL removed, '!!' stripped, lower-cased; neither token is a
        # stop word. Stemming left off to check the pre-stemming stream.
        config = PreprocessConfig(apply_stemming=False)
        assert preprocess("Visit http://x.co NOW!!", config) == ["visit", "now"]

    def test_empty_input(self):
        assert preprocess("", PreprocessConfig()) == []

    def test_case_folding_plus_stopwords(self):
        config = PreprocessConfig(stopwords=frozenset({"the"}))
        assert preprocess("The the THE", config) == []

    def test_ip_removal(self):
        config = PreprocessConfig(apply_stemming=False)
        assert preprocess("ping 192.168.0.1 fails", config) == ["ping", "fails"]

    def test_stage_toggles(self):
        config = PreprocessConfig(
            strip_urls=False,
            strip_punctuation=False,
            lowercase=False,
            remove_stopwords=False,
            apply_stemming=False,
        )
        assert preprocess("The CAT!", config) == ["The", "CAT!"]

    def test_deterministic(self):
        config = PreprocessConfig()
        text = "Markets are running WILD today http://a.b/c 10.0.0.1!!"
        assert preprocess(text, config) == preprocess(text, config)


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
        config = PreprocessConfig(apply_stemming=False, min_df=2)
        pipeline, _ = fit_token_pipeline(["apple banana", "apple cherry"], config)
        # 'apple' appears in both training docs, the rest only once.
        assert pipeline("apple banana cherry durian") == ["apple"]

    def test_min_df_disabled(self):
        config = PreprocessConfig(apply_stemming=False, min_df=1)
        pipeline, _ = fit_token_pipeline(["apple banana"], config)
        assert pipeline("apple banana cherry") == ["apple", "banana", "cherry"]

    def test_document_frequency_counts_documents_not_occurrences(self):
        config = PreprocessConfig(apply_stemming=False, min_df=2)
        # 'spam' occurs 3 times but only in one document.
        pipeline, _ = fit_token_pipeline(["spam spam spam", "egg ham", "egg toast"], config)
        assert pipeline("spam egg") == ["egg"]

    @pytest.mark.parametrize("min_df", [1, 2])
    def test_returned_documents_equal_the_fitted_pipeline(self, min_df):
        texts = ["Apples and pears", "apples, pears!", "plums", ""]
        pipeline, docs = fit_token_pipeline(texts, PreprocessConfig(min_df=min_df))
        assert docs == pipeline.tokenize_all(texts)


def test_package_attribute_is_the_submodule():
    # The package must not shadow its submodule with the function of the same name.
    assert importlib.import_module("hsel").preprocess.TokenPipeline is TokenPipeline

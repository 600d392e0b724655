"""Pool training, prediction matrices, and the matrix wire format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsel.core import ClassifierId, PredictionMatrix, Split, split_corpus
from hsel.pool import (
    predict_matrix,
    read_prediction_matrix,
    train_pool,
    write_prediction_matrix,
)
from hsel.preprocess import PreprocessConfig


def _toy_corpus(n_per_class=20, seed=0):
    # One strongly indicative token per class plus shared filler.
    rows = []
    for i in range(n_per_class):
        rows.append((f"market budget economy shared{i % 3} filler", 0))
        rows.append((f"miracle hoax scandal shared{i % 3} filler", 1))
    return split_corpus(rows, ratios=(0.6, 0.2, 0.2), seed=seed)


CONFIG = PreprocessConfig(min_df=1)


class TestTrainPool:
    def test_cross_product_ids_in_order(self):
        corpus = _toy_corpus()
        pool = train_pool(corpus, ["COUNT", "TFIDF"], ["NB", "LR"], config=CONFIG)
        assert [c.canonical for c in pool.ids] == [
            "COUNT-NB",
            "COUNT-LR",
            "TFIDF-NB",
            "TFIDF-LR",
        ]

    def test_pool_ids_pairwise_distinct(self):
        corpus = _toy_corpus()
        pool = train_pool(corpus, ["COUNT", "TFIDF", "HASHED"], ["NB", "LR", "KNN", "NC"],
                          config=CONFIG)
        assert len({c.canonical for c in pool.ids}) == 12

    def test_unknown_algorithm_rejected_by_name(self):
        corpus = _toy_corpus()
        with pytest.raises(ValueError, match="'SVM'"):
            train_pool(corpus, ["COUNT"], ["SVM"], config=CONFIG)

    def test_unknown_extractor_rejected_by_name(self):
        corpus = _toy_corpus()
        with pytest.raises(ValueError, match="BERT"):
            train_pool(corpus, ["BERT"], ["NB"], config=CONFIG)

    def test_empty_lists_rejected(self):
        corpus = _toy_corpus()
        with pytest.raises(ValueError):
            train_pool(corpus, [], ["NB"], config=CONFIG)

    def test_lr_members_fit_separable_corpus(self):
        corpus = _toy_corpus()
        pool = train_pool(corpus, ["COUNT", "TFIDF", "HASHED"], ["LR"], config=CONFIG)
        train_texts = corpus.texts(Split.TRAIN)
        train_labels = corpus.labels(Split.TRAIN)
        for member in pool.members:
            acc = (member.predict_texts(train_texts) == train_labels).mean()
            assert acc >= 0.99, member.id.canonical
            # Cross-entropy must fall monotonically under the default step.
            losses = member.model.loss_history_
            assert not member.model.diverged
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_no_test_leakage(self):
        # Swapping out every TEST text must leave validation predictions
        # untouched: nothing may be fitted on TEST.
        base = _toy_corpus()
        replaced = base.instances[:]
        swapped = tuple(
            (("COMPLETELY different text 42", label) if tag is Split.TEST else (text, label))
            for (text, label), tag in zip(replaced, base.split)
        )
        altered = type(base)(instances=swapped, num_classes=base.num_classes, split=base.split)
        pool_a = train_pool(base, ["COUNT", "TFIDF"], ["NB", "LR"], config=CONFIG, seed=1)
        pool_b = train_pool(altered, ["COUNT", "TFIDF"], ["NB", "LR"], config=CONFIG, seed=1)
        vpm_a = predict_matrix(pool_a, base, Split.VALIDATION)
        vpm_b = predict_matrix(pool_b, altered, Split.VALIDATION)
        assert np.array_equal(vpm_a.predictions, vpm_b.predictions)


class TestPredictMatrix:
    def test_columns_follow_pool_order_and_truth(self):
        corpus = _toy_corpus()
        pool = train_pool(corpus, ["COUNT"], ["NB", "NC"], config=CONFIG)
        pm = predict_matrix(pool, corpus, Split.VALIDATION)
        assert pm.classifier_ids == pool.ids
        assert np.array_equal(pm.truth, corpus.labels(Split.VALIDATION))
        assert pm.split_tag is Split.VALIDATION

    def test_memorizing_classifier_on_train_split(self):
        # A 1-nearest-neighbor member recalls its own training rows exactly,
        # so predicting the TRAIN split reproduces the truth column.
        corpus = _toy_corpus()
        pool = train_pool(corpus, ["COUNT"], ["KNN"], config=CONFIG, knn_k=1)
        pm = predict_matrix(pool, corpus, Split.TRAIN)
        assert np.array_equal(pm.predictions[:, 0], pm.truth)

    def test_pool_order_permutes_columns_identically(self):
        corpus = _toy_corpus()
        forward = train_pool(corpus, ["COUNT"], ["NB", "NC"], config=CONFIG)
        backward = train_pool(corpus, ["COUNT"], ["NC", "NB"], config=CONFIG)
        pm_f = predict_matrix(forward, corpus, Split.VALIDATION)
        pm_b = predict_matrix(backward, corpus, Split.VALIDATION)
        assert np.array_equal(pm_f.column("COUNT-NB"), pm_b.column("COUNT-NB"))
        assert np.array_equal(pm_f.column("COUNT-NC"), pm_b.column("COUNT-NC"))
        assert np.array_equal(pm_f.predictions[:, [1, 0]], pm_b.predictions)

    def test_reemission_is_bit_identical(self):
        corpus = _toy_corpus()
        pool = train_pool(corpus, ["COUNT", "HASHED"], ["NB", "KNN"], config=CONFIG, seed=3)
        a = predict_matrix(pool, corpus, Split.VALIDATION)
        b = predict_matrix(pool, corpus, Split.VALIDATION)
        assert np.array_equal(a.predictions, b.predictions)

    def test_retraining_same_seed_is_deterministic(self):
        corpus = _toy_corpus()
        a = train_pool(corpus, ["HASHED"], ["LR"], config=CONFIG, seed=9)
        b = train_pool(corpus, ["HASHED"], ["LR"], config=CONFIG, seed=9)
        pa = predict_matrix(a, corpus, Split.TEST)
        pb = predict_matrix(b, corpus, Split.TEST)
        assert np.array_equal(pa.predictions, pb.predictions)


class TestWireFormat:
    def _pm(self):
        return PredictionMatrix(
            classifier_ids=(ClassifierId("CV", "NB"), ClassifierId("GLOVE", "LR")),
            predictions=np.array([[0, 1], [1, 0], [1, 1]]),
            truth=np.array([0, 1, 1]),
            num_classes=2,
            split_tag=Split.VALIDATION,
        )

    def test_roundtrip_identity(self, tmp_path):
        path = str(tmp_path / "pm.csv")
        pm = self._pm()
        write_prediction_matrix(pm, path, {"real": 0, "fake": 1})
        back = read_prediction_matrix(path)
        assert back.classifier_ids == pm.classifier_ids
        assert np.array_equal(back.predictions, pm.predictions)
        assert np.array_equal(back.truth, pm.truth)
        assert back.num_classes == pm.num_classes
        assert back.split_tag == pm.split_tag

    def test_label_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("truth,CV-NB\n0,0\n0,7\n")
        (tmp_path / "bad.csv.meta.json").write_text(
            '{"num_classes": 2, "split": "VALIDATION"}'
        )
        with pytest.raises(ValueError, match="line 3"):
            read_prediction_matrix(str(path))

    def test_first_out_of_range_row_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("truth,CV-NB,CV-LR\n0,0,1\n\n1,0,5\n0,1,1\n-1,0,0\n")
        (tmp_path / "bad.csv.meta.json").write_text(
            '{"num_classes": 2, "split": "VALIDATION"}'
        )
        message = r"bad\.csv: line 4: label 5 out of range \(num_classes=2\)$"
        with pytest.raises(ValueError, match=message):
            read_prediction_matrix(str(path))

    def test_label_beyond_int64_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"truth,CV-NB\n0,0\n0,{2**70}\n")
        (tmp_path / "bad.csv.meta.json").write_text(
            '{"num_classes": 2, "split": "VALIDATION"}'
        )
        with pytest.raises(ValueError, match=f"line 3: label {2**70} out of range"):
            read_prediction_matrix(str(path))

    def test_row_length_mismatch_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("truth,CV-NB,CV-LR\n0,0,1\n0,1\n")
        (tmp_path / "bad.csv.meta.json").write_text(
            '{"num_classes": 2, "split": "TEST"}'
        )
        with pytest.raises(ValueError, match="line 3"):
            read_prediction_matrix(str(path))

    def test_duplicate_header_id_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("truth,CV-NB,CV-NB\n0,0,1\n")
        (tmp_path / "bad.csv.meta.json").write_text(
            '{"num_classes": 2, "split": "TEST"}'
        )
        with pytest.raises(ValueError, match="duplicate"):
            read_prediction_matrix(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("truth,BAD\n0,0\n", "cannot parse classifier id 'BAD'"),
            ("truth,CV-NB,cv-nb\n0,0,0\n", "duplicate classifier id 'CV-NB'"),
            ("truth\n0\n", "no classifier columns"),
        ],
    )
    def test_bad_header_names_path_and_line(self, tmp_path, text, message):
        path = tmp_path / "pm.csv"
        path.write_text(text)
        (tmp_path / "pm.csv.meta.json").write_text('{"num_classes": 2, "split": "TEST"}')
        with pytest.raises(ValueError, match=rf"pm\.csv: line 1: {message}"):
            read_prediction_matrix(str(path))

    @pytest.mark.parametrize(
        "sidecar, message",
        [
            ('{"num_classes": 2, "split": "TEST", "format": "nope"}', "format"),
            ('{"num_classes": 2, "split": "TEST", "instances": 7}', "instances"),
            ('{"num_classes": 2', "line 1"),
            ('{"num_classes": "two", "split": "TEST"}', "two"),
            ('{"num_classes": 2, "split": "BOGUS"}', "BOGUS"),
            ('{"num_classes": 2, "split": "TEST", "version": 99}', "version 99"),
        ],
    )
    def test_bad_sidecar_names_sidecar_path(self, tmp_path, sidecar, message):
        path = tmp_path / "pm.csv"
        path.write_text("truth,CV-NB\n0,0\n1,1\n")
        (tmp_path / "pm.csv.meta.json").write_text(sidecar)
        with pytest.raises(ValueError, match=rf"pm\.csv\.meta\.json: .*{message}"):
            read_prediction_matrix(str(path))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_roundtrip_property(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 12))
        c = data.draw(st.integers(2, 4))
        p = data.draw(st.integers(1, 5))
        preds = data.draw(
            st.lists(
                st.lists(st.integers(0, c - 1), min_size=p, max_size=p),
                min_size=n,
                max_size=n,
            )
        )
        truth = data.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
        pm = PredictionMatrix(
            classifier_ids=tuple(ClassifierId(f"E{i}", "A") for i in range(p)),
            predictions=np.array(preds),
            truth=np.array(truth),
            num_classes=c,
            split_tag=Split.TEST,
        )
        path = str(tmp_path_factory.mktemp("wire") / "pm.csv")
        write_prediction_matrix(pm, path)
        back = read_prediction_matrix(path)
        assert np.array_equal(back.predictions, pm.predictions)
        assert np.array_equal(back.truth, pm.truth)
        assert back.classifier_ids == pm.classifier_ids

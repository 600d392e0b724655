"""Pool training, prediction matrices, and the matrix wire format."""

import hashlib
import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsel.core import ClassifierId, PredictionMatrix, Split, load_corpus_csv, split_corpus
from hsel.features import count_matrix
from hsel.learners import CosineKNN, SoftmaxRegression, gram_form_pays, shared_descent_pays
from hsel.pool import (
    predict_matrix,
    read_prediction_matrix,
    train_pool,
    write_prediction_matrix,
)
import hsel.pool as pool_module
import hsel.preprocess as preprocess_module
from conftest import BUNDLED_CORPUS, mutated_bytes, pm_of, synthetic_news_corpus
from oracles import read_prediction_matrix_oracle


def _toy_corpus(n_per_class=20, seed=0):
    # One strongly indicative token per class plus shared filler.
    rows = []
    for i in range(n_per_class):
        rows.append((f"market budget economy shared{i % 3} filler", 0))
        rows.append((f"miracle hoax scandal shared{i % 3} filler", 1))
    return split_corpus(rows, ratios=(0.6, 0.2, 0.2), seed=seed)


class TestTrainPool:
    def test_cross_product_ids_in_order(self):
        corpus = _toy_corpus()
        pool = train_pool(corpus, ["COUNT", "TFIDF"], ["NB", "LR"])
        assert [c.canonical for c in pool.ids] == [
            "COUNT-NB",
            "COUNT-LR",
            "TFIDF-NB",
            "TFIDF-LR",
        ]

    def test_pool_ids_pairwise_distinct(self):
        corpus = _toy_corpus()
        pool = train_pool(corpus, ["COUNT", "TFIDF", "HASHED"], ["NB", "LR", "KNN", "NC"])
        assert len({c.canonical for c in pool.ids}) == 12

    def test_unknown_algorithm_rejected_by_name(self):
        corpus = _toy_corpus()
        with pytest.raises(ValueError, match="'SVM'"):
            train_pool(corpus, ["COUNT"], ["SVM"])

    def test_unknown_extractor_rejected_by_name(self):
        corpus = _toy_corpus()
        with pytest.raises(ValueError, match="BERT"):
            train_pool(corpus, ["BERT"], ["NB"])

    def test_empty_lists_rejected(self):
        corpus = _toy_corpus()
        with pytest.raises(ValueError):
            train_pool(corpus, [], ["NB"])

    def test_lr_members_fit_separable_corpus(self):
        corpus = _toy_corpus()
        pool = train_pool(corpus, ["COUNT", "TFIDF", "HASHED"], ["LR"])
        train = predict_matrix(pool, corpus, Split.TRAIN)
        _, train_labels = corpus[Split.TRAIN]
        for cid, model, column in zip(pool.ids, pool.models, train.predictions.T):
            acc = (column == train_labels).mean()
            assert acc >= 0.99, cid.canonical
            # The capped step leaves the last loss below the starting log C.
            assert not model.diverged
            assert model.loss_history_[0] < np.log(pool.num_classes), cid.canonical

    def test_lr_members_beat_chance_where_step_01_overshoots(self):
        # Each text of a synthetic corpus four times over: HASHED rows are
        # ±1 projections of counts with norms in the tens, where a step of
        # 0.1 raises the loss at once and HASHED-LR used to stop there at
        # chance (0.5). Capped at 1/L, every LR member trains all its epochs.
        rows = [(" ".join([text] * 4), int(label == "fake"))
                for text, label in synthetic_news_corpus(150, seed=11)]
        corpus = split_corpus(rows, seed=7)
        pool = train_pool(corpus, ["COUNT", "TFIDF", "HASHED"], ["LR"], seed=7)
        vpm = predict_matrix(pool, corpus, Split.VALIDATION)
        hashed = pool.models[2]
        assert hashed.step_ < 0.1
        for cid, model, column in zip(pool.ids, pool.models, vpm.predictions.T):
            assert (column == vpm.truth).mean() > 1 / pool.num_classes, cid.canonical
            assert not model.diverged, cid.canonical

    def test_no_test_leakage(self):
        # Swapping out every TEST text must leave validation predictions
        # untouched: nothing may be fitted on TEST.
        base = _toy_corpus()
        test_texts, test_labels = base[Split.TEST]
        altered = {**base, Split.TEST: (["COMPLETELY different text 42"] * len(test_texts),
                                        test_labels)}
        pool_a = train_pool(base, ["COUNT", "TFIDF"], ["NB", "LR"], seed=1)
        pool_b = train_pool(altered, ["COUNT", "TFIDF"], ["NB", "LR"], seed=1)
        vpm_a = predict_matrix(pool_a, base, Split.VALIDATION)
        vpm_b = predict_matrix(pool_b, altered, Split.VALIDATION)
        assert np.array_equal(vpm_a.predictions, vpm_b.predictions)

    def test_each_training_text_is_preprocessed_once(self, monkeypatch):
        calls = Counter()
        original = preprocess_module.preprocess

        def counting(text):
            calls[text] += 1
            return original(text)

        monkeypatch.setattr(preprocess_module, "preprocess", counting)
        corpus = _toy_corpus()
        train_pool(corpus, ["COUNT", "TFIDF", "HASHED"], ["NB", "NC"])
        assert calls == Counter(corpus[Split.TRAIN][0])


class TestFixedPipeline:
    """The pipeline's constants, pinned by their effect on the bundled corpus:
    the tokens that survive preprocessing and min-df 2, the HASHED width and
    the KNN neighbour count."""

    def test_bundled_corpus_vocabulary_and_pool_settings(self):
        rows, _ = load_corpus_csv(BUNDLED_CORPUS)
        corpus = split_corpus(rows, seed=7)
        pool = train_pool(corpus, ["COUNT", "HASHED"], ["NB", "KNN"], seed=7)
        tokens = "\n".join(sorted(pool.vocabulary)).encode()
        assert len(pool.vocabulary) == 36
        assert hashlib.sha256(tokens).hexdigest() == (
            "25af27a9334a1cb71b4dd87719b4996ac644079ca4c175e0e6cfa600d21071d6")
        assert pool.ids[3].canonical == "HASHED-KNN"
        assert pool.spaces["HASHED"].projection.shape == (36, 64)
        assert pool.models[3].k == 5


def _bundled_corpus():
    rows, _ = load_corpus_csv(BUNDLED_CORPUS)
    return split_corpus(rows, seed=7)


def _train_features(pool, corpus):
    # Each extractor's TRAIN features, as train_pool fits its members on.
    counts = count_matrix(pool.pipeline.tokenize_all(corpus[Split.TRAIN][0]), pool.vocabulary)
    return {kind: space.transform(counts) for kind, space in pool.spaces.items()}


def _fit_alone(pool, corpus):
    # Every LR member of the pool refitted by its own ``fit``, by canonical id.
    features, labels = _train_features(pool, corpus), corpus[Split.TRAIN][1]
    return {cid.canonical: SoftmaxRegression().fit(features[cid.extractor], labels,
                                                   pool.num_classes)
            for cid in pool.ids if cid.algorithm == "LR"}


class TestSharedDescent:
    """Primal LR members small enough for ``shared_descent_pays`` train as one
    ``fit_softmax_models`` batch over their features side by side."""

    POOL = (["COUNT", "TFIDF", "HASHED"], ["NB", "LR", "KNN", "NC"])

    @staticmethod
    def _record_batches(monkeypatch):
        batches = []
        original = pool_module.fit_softmax_models

        def recording(models, *args):
            batches.append([id(model) for model in models])
            return original(models, *args)

        monkeypatch.setattr(pool_module, "fit_softmax_models", recording)
        return batches

    def test_rule_admits_the_quick_start_pool_and_refuses_a_wide_one(self):
        assert shared_descent_pays(240, [36, 36, 64], 2)  # C·N·Σd = 65 280
        assert not shared_descent_pays(1200, [2600, 2600, 64], 2)  # 12.6 M
        assert shared_descent_pays(4, [2**14], 2)
        assert not shared_descent_pays(4, [2**14 + 1], 2)

    def test_small_primal_members_share_one_descent(self, monkeypatch):
        batches = self._record_batches(monkeypatch)
        corpus = _bundled_corpus()
        pool = train_pool(corpus, *self.POOL, seed=7)
        widths = [features.shape[1] for features in _train_features(pool, corpus).values()]
        assert (len(corpus[Split.TRAIN][1]), widths) == (240, [36, 36, 64])
        lr = {cid.canonical: model for cid, model in zip(pool.ids, pool.models)
              if cid.algorithm == "LR"}
        assert batches == [[id(model) for model in lr.values()]]
        for canonical, alone in _fit_alone(pool, corpus).items():
            model = lr[canonical]
            assert np.allclose(model.weights_, alone.weights_, rtol=0, atol=1e-12), canonical
            assert np.allclose(model.bias_, alone.bias_, rtol=0, atol=1e-12), canonical
            assert model.step_ == pytest.approx(alone.step_, rel=1e-12), canonical
            assert np.allclose(model.loss_history_, alone.loss_history_,
                               rtol=0, atol=1e-12), canonical
            assert model.diverged == alone.diverged, canonical

    def test_shared_pool_predicts_as_members_fitted_alone(self, monkeypatch):
        corpus = _bundled_corpus()
        shared = train_pool(corpus, *self.POOL, seed=7)
        monkeypatch.setattr(pool_module, "shared_descent_pays", lambda *shape: False)
        alone = train_pool(corpus, *self.POOL, seed=7)
        for split in (Split.VALIDATION, Split.TEST):
            assert np.array_equal(predict_matrix(shared, corpus, split).predictions,
                                  predict_matrix(alone, corpus, split).predictions), split

    def test_refused_rule_fits_every_member_alone_bit_for_bit(self, monkeypatch):
        batches = self._record_batches(monkeypatch)
        monkeypatch.setattr(pool_module, "shared_descent_pays", lambda *shape: False)
        corpus = _bundled_corpus()
        pool = train_pool(corpus, *self.POOL, seed=7)
        assert batches == []
        lr = dict(zip((cid.canonical for cid in pool.ids), pool.models))
        for canonical, alone in _fit_alone(pool, corpus).items():
            for array in ("weights_", "bias_", "loss_history_"):
                assert np.array_equal(getattr(lr[canonical], array), getattr(alone, array))
            assert lr[canonical].step_ == alone.step_

    def test_gram_form_and_lone_members_fit_alone(self, monkeypatch):
        # On the small synthetic corpus HASHED's 64 columns outnumber the 24
        # training rows, so HASHED-LR descends in the Gram form on its own;
        # a pool with one primal LR member has no one to share with.
        batches = self._record_batches(monkeypatch)
        corpus = _toy_corpus()
        pool = train_pool(corpus, ["COUNT", "HASHED", "TFIDF"], ["LR"])
        assert gram_form_pays(24, 64, 2, 1, 300)
        assert batches == [[id(pool.models[0]), id(pool.models[2])]]
        hashed = _fit_alone(pool, corpus)["HASHED-LR"]
        for array in ("weights_", "bias_", "loss_history_"):
            assert np.array_equal(getattr(pool.models[1], array), getattr(hashed, array))
        del batches[:]
        lone = train_pool(corpus, ["COUNT", "HASHED"], ["NB", "LR"])
        assert batches == []
        assert lone.models[1].loss_history_.shape == (1,)
        assert not lone.models[1].diverged


class TestPredictMatrix:
    def test_columns_follow_pool_order_and_truth(self):
        corpus = _toy_corpus()
        pool = train_pool(corpus, ["COUNT"], ["NB", "NC"])
        pm = predict_matrix(pool, corpus, Split.VALIDATION)
        assert pm.classifier_ids == pool.ids
        assert np.array_equal(pm.truth, corpus[Split.VALIDATION][1])
        assert pm.split_tag is Split.VALIDATION

    def test_memorizing_classifier_on_train_split(self, monkeypatch):
        # A 1-nearest-neighbor member recalls its own training rows exactly,
        # so predicting the TRAIN split reproduces the truth column.
        monkeypatch.setattr(pool_module, "make_learner", lambda token: CosineKNN(k=1))
        corpus = _toy_corpus()
        pool = train_pool(corpus, ["COUNT"], ["KNN"])
        pm = predict_matrix(pool, corpus, Split.TRAIN)
        assert np.array_equal(pm.predictions[:, 0], pm.truth)

    def test_pool_order_permutes_columns_identically(self):
        corpus = _toy_corpus()
        forward = train_pool(corpus, ["COUNT"], ["NB", "NC"])
        backward = train_pool(corpus, ["COUNT"], ["NC", "NB"])
        pm_f = predict_matrix(forward, corpus, Split.VALIDATION)
        pm_b = predict_matrix(backward, corpus, Split.VALIDATION)
        assert np.array_equal(pm_f.column("COUNT-NB"), pm_b.column("COUNT-NB"))
        assert np.array_equal(pm_f.column("COUNT-NC"), pm_b.column("COUNT-NC"))
        assert np.array_equal(pm_f.predictions[:, [1, 0]], pm_b.predictions)

    def test_reemission_is_bit_identical(self):
        corpus = _toy_corpus()
        pool = train_pool(corpus, ["COUNT", "HASHED"], ["NB", "KNN"], seed=3)
        a = predict_matrix(pool, corpus, Split.VALIDATION)
        b = predict_matrix(pool, corpus, Split.VALIDATION)
        assert np.array_equal(a.predictions, b.predictions)

    def test_retraining_same_seed_is_deterministic(self):
        corpus = _toy_corpus()
        a = train_pool(corpus, ["HASHED"], ["LR"], seed=9)
        b = train_pool(corpus, ["HASHED"], ["LR"], seed=9)
        pa = predict_matrix(a, corpus, Split.TEST)
        pb = predict_matrix(b, corpus, Split.TEST)
        assert np.array_equal(pa.predictions, pb.predictions)


class TestWireFormat:
    def _pm(self):
        return pm_of([[0, 1, 1], [1, 0, 1]], [0, 1, 1], names=["CV-NB", "GLOVE-LR"])

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

    def test_missing_matrix_or_sidecar_is_named(self, tmp_path):
        # The matrix is opened first: a missing one is named, and only a
        # matrix that exists without its sidecar names <matrix>.meta.json.
        path = tmp_path / "pm.csv"
        with pytest.raises(FileNotFoundError) as info:
            read_prediction_matrix(str(path))
        assert info.value.filename == str(path)
        path.write_text("truth,CV-NB\n0,0\n")
        with pytest.raises(FileNotFoundError) as info:
            read_prediction_matrix(str(path))
        assert info.value.filename == f"{path}.meta.json"

    def test_label_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("truth,CV-NB\n0,0\n0,7\n")
        (tmp_path / "bad.csv.meta.json").write_text(
            '{"num_classes": 2, "split": "VALIDATION"}'
        )
        with pytest.raises(ValueError, match="line 3"):
            read_prediction_matrix(str(path))

    @pytest.mark.parametrize("body, line", [
        (b"truth,CV-NB\n0,0\n1,\xff\n", 3),
        (b"truth,CV-N\xc3B\r\n0,0\r\n", 1),  # a truncated two-byte sequence in the header
        (b"truth,CV-NB\r0,0\r\r1,\x800\r", 4),
    ])
    def test_undecodable_matrix_names_path_and_line(self, tmp_path, body, line):
        path = tmp_path / "pm.csv"
        path.write_bytes(body)
        (tmp_path / "pm.csv.meta.json").write_text('{"num_classes": 2, "split": "TEST"}')
        with pytest.raises(ValueError, match=rf"pm\.csv: line {line}: byte 0x.. is not UTF-8"):
            read_prediction_matrix(str(path))

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        # The fast path rejects the BOM-prefixed header; the csv reader skips it.
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(b"truth,CV-NB,CV-LR\r\n0,1,0\r\n1,1,1\r\n")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for path in (plain, bom):
            (tmp_path / f"{path.name}.meta.json").write_text('{"num_classes": 2, "split": "TEST"}')
        a, b = read_prediction_matrix(str(plain)), read_prediction_matrix(str(bom))
        assert b.classifier_ids == a.classifier_ids
        assert np.array_equal(b.predictions, a.predictions) and np.array_equal(b.truth, a.truth)

    def test_undecodable_sidecar_names_sidecar_path_and_line(self, tmp_path):
        path = tmp_path / "pm.csv"
        path.write_text("truth,CV-NB\n0,0\n")
        (tmp_path / "pm.csv.meta.json").write_bytes(b'{"num_classes": 2,\n "split": "T\xe9ST"}')
        with pytest.raises(ValueError,
                           match=r"pm\.csv\.meta\.json: line 2: byte 0xe9 is not UTF-8 text"):
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

    @pytest.mark.parametrize("text, message", [
        ("truth,A-X,B-X\n0,1,x\n", "line 2: non-integer label"),
        ("truth,A-X,B-X\n0,1,\n", "line 2: non-integer label"),  # empty cell
        ("truth,A-X,B-X\n0,1,1.0\n", "line 2: non-integer label"),
        ("truth,A-X,B-X\n0,1,2,0\n", "line 2: expected 3 fields, found 4"),  # every row wide
        ("truth,A-X,B-X\n0,1,2\n1,-1,0\n", r"line 3: label -1 out of range \(num_classes=3\)"),
        ("truth,A-X,B-X\n0,1,2\n\n\n1,x,0\n", "line 5: non-integer label"),  # blank lines count
        ("truth,A-X,B-X\r0,1,2\r\r1,1,x\r", "line 4: non-integer label"),  # lone carriage returns
        ('truth,A-X,B-X\n"0\n\n",1,2\n1,1,x\n', "line 5: non-integer label"),  # after lines 2-4
        ("label,A-X,B-X\n0,1,2\n", "line 1: first header field must be 'truth'"),
        ("truth,A-X,B-X\n", "matrix has no instance rows"),
    ])
    @pytest.mark.parametrize("separator", [",", ", "], ids=["plain", "spaced"])
    def test_malformed_matrix_names_path_and_line(self, tmp_path, text, message, separator):
        # A table of plain digits goes through np.loadtxt first; a space after
        # each comma sends it cell by cell. Both name the same fault.
        path = tmp_path / "pm.csv"
        path.write_bytes(text.replace(",", separator).encode())
        (tmp_path / "pm.csv.meta.json").write_text('{"num_classes": 3, "split": "TEST"}')
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
            read_prediction_matrix(str(path))

    def test_oversized_field_names_path_and_line(self, tmp_path):
        # An unclosed quote runs to the end of the file, past the csv field limit.
        path = tmp_path / "pm.csv"
        path.write_text('truth,A-X,B-X\n0,1,"2\n' + "0," * 70000 + "\n")
        (tmp_path / "pm.csv.meta.json").write_text('{"num_classes": 3, "split": "TEST"}')
        with pytest.raises(ValueError, match=r"pm\.csv: line 2: field larger than field limit"):
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
            ("5", "JSON object"),
            ('[{"num_classes": 2, "split": "TEST"}]', "JSON object"),
            ('{"num_classes": 2.7, "split": "TEST"}', "integer >= 2, got 2.7"),
            ('{"num_classes": 2.0, "split": "TEST"}', "integer >= 2, got 2.0"),
            ('{"num_classes": true, "split": "TEST"}', "integer >= 2, got True"),
            ('{"num_classes": 1, "split": "TEST"}', "integer >= 2, got 1"),
            ('{"num_classes": null, "split": "TEST"}', "integer >= 2, got None"),
            ('{"num_classes": 2, "split": "TEST", "version": true}', "version True"),
            ('{"num_classes": 2, "split": "TEST", "version": 1.0}', "version 1.0"),
            ('{"num_classes": 2, "split": "TEST", "instances": 1.0}', "instances is 1.0"),
            ('{"num_classes": 2, "split": "TEST", "instances": true}', "instances is True"),
        ],
    )
    def test_bad_sidecar_names_sidecar_path(self, tmp_path, sidecar, message):
        # One row, so only a type check tells "instances": 1.0 or true from 1.
        path = tmp_path / "pm.csv"
        path.write_text("truth,CV-NB\n0,0\n")
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


# Edits that push a well-formed matrix file towards every fault the
# cell-by-cell reader names, and towards inputs np.loadtxt reads differently.
_FIELD_EDITS = [
    lambda v: f" {v}", lambda v: f"{v} ", lambda v: f"+{v}", lambda v: f"-{v}", lambda v: "-0",
    lambda v: f'"{v}"', lambda v: "", lambda v: str(2**64), lambda v: str(2**63),
    lambda v: str(2**63 - 1), lambda v: "9" * 30, lambda v: f"0{v}", lambda v: f"{v}_0",
    lambda v: f"#{v}", lambda v: "1e0", lambda v: "\u0661", lambda v: f"{v}\t", lambda v: "2",
    lambda v: "3",
]
_LINE_EDITS = [
    lambda line: line + ",", lambda line: line + ",0", lambda line: line.rsplit(",", 1)[0],
    lambda line: "", lambda line: "   ", lambda line: "\t", lambda line: line + "\r",
    lambda line: "# " + line, lambda line: line.replace(",", ", "), lambda line: line + '"',
]


def _matrix_text(data, num_classes):
    p = data.draw(st.integers(1, 4), label="p")
    n = data.draw(st.integers(0, 6), label="n")
    label = st.integers(0, num_classes - 1)
    rows = [data.draw(st.lists(label, min_size=p + 1, max_size=p + 1)) for _ in range(n)]
    header = ["truth"] + [f"E{i}-A" for i in range(p)]
    if data.draw(st.integers(0, 3), label="header edit") == 0:
        header[data.draw(st.integers(0, p))] = data.draw(
            st.sampled_from(['"E0-A"', '"E0-A', "Truth ", " e9-a", "E0-A", "BAD", ""]))
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    for _ in range(data.draw(st.integers(0, 3), label="edits")):
        at = data.draw(st.integers(1, len(lines)), label="line")
        if at < len(lines) and data.draw(st.booleans(), label="edit a field"):
            fields = lines[at].split(",")
            k = data.draw(st.integers(0, len(fields) - 1))
            fields[k] = data.draw(st.sampled_from(_FIELD_EDITS))(fields[k])
            lines[at] = ",".join(fields)
        else:
            edit = data.draw(st.sampled_from(_LINE_EDITS))
            lines.insert(at, edit(lines[at - 1] if at == len(lines) else lines[at]))
    if data.draw(st.integers(0, 7), label="drop the body") == 0:
        lines = lines[:1]
    newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="newline")
    end = data.draw(st.sampled_from([newline, "", newline * 2]), label="end")
    bom = "\ufeff" if data.draw(st.integers(0, 7), label="byte-order mark") == 0 else ""
    return bom + newline.join(lines) + end


class TestFastReader:
    """``read_prediction_matrix`` hands plain tables to ``np.loadtxt`` and
    everything else to the cell-by-cell reader; the two must be
    indistinguishable from the reader it replaced."""

    @staticmethod
    def _outcome(read, path):
        try:
            pm = read(path)
        except ValueError as exc:
            return type(exc), str(exc)
        return (pm.classifier_ids, pm.predictions.tolist(), pm.predictions.dtype,
                pm.truth.tolist(), pm.truth.dtype, pm.num_classes, pm.split_tag)

    @pytest.mark.parametrize("text", [
        "truth,E0-A\n0,1\n# 1,0\n",  # np.loadtxt would skip a comment line
        "truth,E0-A\n0,1\n   \n1,0\n",  # and a line of spaces
        "truth,E0-A\n0,1\n\t\n",
        'truth,"E0-A\n0,1\n1,0"\n',  # a quoted header field spanning lines
        'truth,"E0-A\n0,1\n',  # and one that never closes
        'truth,"E0-A"\n0,1\n',
        "truth,E0-A\r0,1\r1,0\r",
        "truth,E0-A\r0,1\n1,0\n",  # a lone carriage return ends line 1 early
        "truth,E0-A\r\r\n0,1\n",
        "truth,E0-A\r\n0,1\r\n\r\n1,0",
        "\ufefftruth,E0-A\n0,1\n",
        "truth,E0-A\n0,1,\n",
        "truth,E0-A\n0\n",
        "truth,E0-A\n 0,1 \n",
        "truth,E0-A\n+0,-0\n",
        "truth,E0-A\n0,1_0\n",
        "truth,E0-A\n0,2\n",
        "truth,E0-A\n0,99999999999999999999\n",
        "truth\n0\n",
        "truth,E0-A\n\r\n\n",
        "truth,E0-A",
        "",
        "id,E0-A\n0,1\n",
        "truth,E0-A,e0-a\n0,1,1\n",
    ])
    def test_edge_files_match_cell_by_cell_oracle(self, tmp_path, text):
        path = tmp_path / "pm.csv"
        path.write_bytes(text.encode("utf-8"))
        (tmp_path / "pm.csv.meta.json").write_text('{"num_classes": 2, "split": "TEST"}')
        expected = self._outcome(read_prediction_matrix_oracle, str(path))
        assert self._outcome(read_prediction_matrix, str(path)) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_cell_by_cell_oracle(self, tmp_path_factory, data):
        num_classes = data.draw(st.integers(2, 3), label="num_classes")
        text = _matrix_text(data, num_classes)
        path = tmp_path_factory.mktemp("fast") / "pm.csv"
        path.write_bytes(text.encode("utf-8"))
        meta = {"num_classes": num_classes, "split": "TEST"}
        if data.draw(st.booleans(), label="instances"):
            meta["instances"] = data.draw(st.integers(0, 6))
        (path.parent / "pm.csv.meta.json").write_text(json.dumps(meta))
        expected = self._outcome(read_prediction_matrix_oracle, str(path))
        assert self._outcome(read_prediction_matrix, str(path)) == expected

    def test_generator_file_takes_the_fast_path(self, tmp_path, monkeypatch):
        # A benchmark-style file (CRLF rows) never reaches the csv reader.
        path = tmp_path / "pm.csv"
        path.write_bytes(b"truth,X0-A00,X0-A01\r\n0,1,2\r\n2,2,0\r\n")
        (tmp_path / "pm.csv.meta.json").write_text('{"num_classes": 3, "split": "VALIDATION"}')
        monkeypatch.setattr(pool_module, "read_records", None)
        pm = read_prediction_matrix(str(path))
        assert pm.truth.tolist() == [0, 2]
        assert pm.predictions.tolist() == [[1, 2], [2, 0]]


@pytest.mark.parametrize("mutated", ["matrix", "spaced matrix", "sidecar"])
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_truncated_or_mutated_matrix_reads_or_names_its_file(tmp_path_factory, mutated, data):
    """A valid matrix file, on the ``np.loadtxt`` path or (with a space after
    every comma) the cell-by-cell one, or its sidecar, cut short or with
    bytes replaced, inserted or deleted, reads as a matrix or fails with
    ``ValueError`` naming the matrix or the sidecar; no other exception
    escapes. A truncated matrix may fail as its sidecar's row count."""
    p, n = data.draw(st.integers(1, 4), label="p"), data.draw(st.integers(1, 8), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pm = pm_of([rng.integers(0, 3, n) for _ in range(p)], rng.integers(0, 3, n), 3)
    path = tmp_path_factory.mktemp("wire") / "pm.csv"
    write_prediction_matrix(pm, str(path))
    if mutated == "spaced matrix":
        path.write_bytes(path.read_bytes().replace(b",", b", "))
    target = path.parent / "pm.csv.meta.json" if mutated == "sidecar" else path
    target.write_bytes(mutated_bytes(data, target.read_bytes()))
    try:
        back = read_prediction_matrix(str(path))
    except ValueError as exc:
        assert str(exc).startswith((f"{path}: ", f"{path}.meta.json: ")), str(exc)
    else:
        assert isinstance(back, PredictionMatrix)

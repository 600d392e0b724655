"""Core domain types: splitting, metrics, ids, matrices, corpus files."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsel.core import (
    ClassifierId,
    EvalEntry,
    PredictionMatrix,
    Split,
    derive_seed,
    evaluate,
    evaluate_matrix,
    evaluate_rows,
    load_corpus_csv,
    split_corpus,
)

from conftest import BUNDLED_CORPUS, mutated_bytes, pm_of, synthetic_news_corpus, write_corpus_csv
from oracles import metrics_oracle


def _balanced_corpus(per_class: int, num_classes: int = 2):
    rows = []
    for i in range(per_class * num_classes):
        rows.append((f"doc {i}", i % num_classes))
    return rows


class TestClassifierId:
    def test_canonical_rendering(self):
        assert ClassifierId("tfidf", "nb").canonical == "TFIDF-NB"

    def test_parse_roundtrip(self):
        cid = ClassifierId.parse("GLOVE-LR")
        assert (cid.extractor, cid.algorithm) == ("GLOVE", "LR")
        assert ClassifierId.parse(cid.canonical) == cid

    def test_parse_splits_on_last_hyphen(self):
        cid = ClassifierId.parse("HASHED-DENSE-NB")
        assert cid.extractor == "HASHED-DENSE"
        assert cid.algorithm == "NB"

    def test_rejects_empty_and_hyphenated_algorithm(self):
        with pytest.raises(ValueError):
            ClassifierId("", "NB")
        with pytest.raises(ValueError):
            ClassifierId("CV", "N-B")
        with pytest.raises(ValueError):
            ClassifierId.parse("NOHYPHEN")


class TestSplitCorpus:
    def test_exact_stratification(self):
        # 8 instances, 2 balanced classes, quotas land exactly on integers.
        corpus = _balanced_corpus(per_class=4)
        out = split_corpus(corpus, ratios=(0.5, 0.25, 0.25), seed=1)
        for c in range(2):
            counts = {tag: int((labels == c).sum()) for tag, (_, labels) in out.items()}
            assert counts == {Split.TRAIN: 2, Split.VALIDATION: 1, Split.TEST: 1}

    def test_determinism(self):
        corpus = _balanced_corpus(per_class=10)

        def split_texts(seed):  # the texts are distinct, so they name the rows
            return {tag: texts for tag, (texts, _) in split_corpus(corpus, seed=seed).items()}

        assert split_texts(42) == split_texts(42)
        assert split_texts(42) != split_texts(43)

    def test_stratification_bound_imbalanced(self):
        # 100 instances, 60/40 split across classes, ratios (0.6, 0.2, 0.2):
        # TRAIN must hold 36 +- 1 of class 0 and 24 +- 1 of class 1.
        rows = [(f"a{i}", 0) for i in range(60)] + [(f"b{i}", 1) for i in range(40)]
        out = split_corpus(rows, ratios=(0.6, 0.2, 0.2), seed=5)
        train_labels = list(out[Split.TRAIN][1])
        assert abs(train_labels.count(0) - 36) <= 1
        assert abs(train_labels.count(1) - 24) <= 1

    def test_every_class_reaches_train(self):
        rows = _balanced_corpus(per_class=3, num_classes=3)
        out = split_corpus(rows, ratios=(0.34, 0.33, 0.33), seed=0)
        train_labels = set(out[Split.TRAIN][1].tolist())
        assert train_labels == {0, 1, 2}

    def test_rejects_small_class_with_diagnostic(self):
        rows = [("a", 0), ("b", 0), ("c", 0), ("d", 1), ("e", 1), ("f", 0)]
        with pytest.raises(ValueError, match="class 1"):
            split_corpus(rows, ratios=(0.6, 0.2, 0.2), seed=0)

    def test_rejects_bad_ratios(self):
        rows = _balanced_corpus(per_class=5)
        with pytest.raises(ValueError):
            split_corpus(rows, ratios=(0.5, 0.5, 0.5), seed=0)
        with pytest.raises(ValueError):
            split_corpus(rows, ratios=(1.0, 0.0, 0.0), seed=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_ratios_by_name(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            split_corpus(_balanced_corpus(per_class=5), ratios=(bad, 0.5, 0.5), seed=0)

    def test_extreme_ratios_keep_validation_and_test_nonempty(self):
        rows = _balanced_corpus(per_class=3)
        out = split_corpus(rows, ratios=(0.98, 0.01, 0.01), seed=0)
        assert len(out[Split.VALIDATION][0]) >= 1
        assert len(out[Split.TEST][0]) >= 1


class TestEvaluate:
    def test_perfect_classifier(self):
        entry = evaluate([0, 1, 1, 0], [0, 1, 1, 0], 2)
        assert entry == EvalEntry(1.0, 1.0, 1.0, 1.0)

    def test_hand_confusion_matrix(self):
        entry = evaluate(pred=[0, 1, 1, 1], truth=[0, 0, 1, 1], num_classes=2)
        assert entry.accuracy == 0.75
        assert entry.precision == (1.0 + 2.0 / 3.0) / 2.0
        assert entry.recall == (0.5 + 1.0) / 2.0
        assert entry.f1 == (2.0 / 3.0 + 4.0 / 5.0) / 2.0

    def test_degenerate_predictor_zero_denominators(self):
        entry = evaluate(pred=[0, 0, 0, 0], truth=[0, 1, 0, 1], num_classes=2)
        assert entry.accuracy == 0.5
        assert entry.recall == 0.5
        # class 1 is never predicted: precision 0 by the zero-denominator rule
        assert entry.precision == (0.5 + 0.0) / 2.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            evaluate([], [], 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            evaluate([0, 2], [0, 1], 2)

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=30),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariance(self, pairs, rnd):
        pred = [p for p, _ in pairs]
        truth = [t for _, t in pairs]
        before = evaluate(pred, truth, 4)
        order = list(range(len(pairs)))
        rnd.shuffle(order)
        after = evaluate([pred[i] for i in order], [truth[i] for i in order], 4)
        assert before == after

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=30))
    def test_relabeling_equivariance(self, pairs):
        pred = [p for p, _ in pairs]
        truth = [t for _, t in pairs]
        perm = [2, 0, 1]
        before = evaluate(pred, truth, 3)
        after = evaluate([perm[p] for p in pred], [perm[t] for t in truth], 3)
        assert before.accuracy == after.accuracy
        assert before.precision == pytest.approx(after.precision, abs=1e-15)
        assert before.recall == pytest.approx(after.recall, abs=1e-15)
        assert before.f1 == pytest.approx(after.f1, abs=1e-15)

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(1, 21))
            c = int(rng.integers(2, 5))
            pred = rng.integers(0, c, size=n).tolist()
            truth = rng.integers(0, c, size=n).tolist()
            entry = evaluate(pred, truth, c)
            acc, prec, rec, f1 = metrics_oracle(pred, truth, c)
            assert entry.accuracy == pytest.approx(acc, abs=1e-12)
            assert entry.precision == pytest.approx(prec, abs=1e-12)
            assert entry.recall == pytest.approx(rec, abs=1e-12)
            assert entry.f1 == pytest.approx(f1, abs=1e-12)


    def test_rows_equal_oracle_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            c, n, rows = int(rng.integers(2, 12)), int(rng.integers(1, 30)), trial % 4 + 1
            # Labels from a few classes: absent and unpredicted classes
            # give zero denominators.
            used = rng.choice(c, size=int(rng.integers(1, c + 1)), replace=False)
            truth = rng.choice(used, n)
            preds = rng.choice(used if trial % 2 else np.arange(c), (rows, n)).astype(np.uint8)
            entries = evaluate_rows(preds, truth, c)
            assert len(entries) == rows
            for row, entry in zip(preds, entries):
                expected = metrics_oracle(row.tolist(), truth.tolist(), c)
                assert (entry.accuracy, entry.precision, entry.recall, entry.f1) == expected
                assert evaluate(row, truth, c) == entry

    def test_rows_shape_checks(self):
        assert evaluate_rows(np.zeros((0, 3), dtype=np.int64), [0, 1, 0], 2) == []
        with pytest.raises(ValueError, match="equal length"):
            evaluate_rows(np.zeros((2, 3), dtype=np.int64), [0, 1], 2)
        with pytest.raises(ValueError, match="zero instances"):
            evaluate_rows(np.zeros((1, 0), dtype=np.int64), [], 2)
        with pytest.raises(ValueError, match="0..1"):
            evaluate_rows(np.full((1, 2), 2), [0, 1], 2)


class TestPredictionMatrix:
    def _pm(self):
        return pm_of([[0, 1, 0], [1, 1, 0]], [0, 1, 0], names=["CV-NB", "CV-LR"])

    def test_column_lookup_and_select_order(self):
        pm = self._pm()
        assert pm.column("CV-LR").tolist() == [1, 1, 0]
        sub = pm.select(["CV-LR", "CV-NB"])
        assert [c.canonical for c in sub.classifier_ids] == ["CV-LR", "CV-NB"]
        assert sub.predictions[:, 0].tolist() == [1, 1, 0]

    def test_select_missing_names_id(self):
        with pytest.raises(ValueError, match="GLOVE-LR"):
            self._pm().select(["GLOVE-LR"])

    def test_rejects_duplicates_and_bad_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            PredictionMatrix(
                classifier_ids=(ClassifierId("CV", "NB"), ClassifierId("cv", "nb")),
                predictions=np.zeros((2, 2), dtype=int),
                truth=np.zeros(2, dtype=int),
                num_classes=2,
                split_tag=Split.TEST,
            )
        with pytest.raises(ValueError):
            PredictionMatrix(
                classifier_ids=(ClassifierId("CV", "NB"),),
                predictions=np.array([[2]]),
                truth=np.array([0]),
                num_classes=2,
                split_tag=Split.TEST,
            )

    def test_evaluate_matrix_keys_follow_column_order(self):
        pm = self._pm()
        report = evaluate_matrix(pm)
        assert list(report) == ["CV-NB", "CV-LR"]
        assert report["CV-NB"].accuracy == 1.0


class TestCorpusCsv:
    def test_roundtrip_and_first_appearance_mapping(self, tmp_path):
        path = tmp_path / "corpus.csv"
        write_corpus_csv([("hello, world", "real"), ("bye", "fake"), ("x", "real")], str(path))
        rows, mapping = load_corpus_csv(str(path))
        assert mapping == {"real": 0, "fake": 1}
        assert rows == [("hello, world", 0), ("bye", 1), ("x", 0)]

    def test_bundled_corpus_is_the_generator_output(self, tmp_path):
        path = tmp_path / "corpus.csv"
        write_corpus_csv(synthetic_news_corpus(400, seed=11), str(path))
        assert path.read_bytes() == open(BUNDLED_CORPUS, "rb").read()

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("body,tag\nx,y\n")
        with pytest.raises(ValueError, match="header"):
            load_corpus_csv(str(path))

    def test_extra_declared_columns_are_read(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text('Text, Label ,source\n"a\nb",pos,x\nc, neg,y\n\nd,pos,z\n')
        rows, mapping = load_corpus_csv(str(path))
        assert mapping == {"pos": 0, "neg": 1}
        assert rows == [("a\nb", 0), ("c", 1), ("d", 0)]

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"text,label\nhello, world,pos\nbye,neg\n", "line 2: expected 2 fields, found 3"),
            (b"text,label,source\nhello,pos\n", "line 2: expected 3 fields, found 2"),
            (b"text,label\nhello,pos\nsome text,\n", "line 3: empty label"),
            (b"text,label\nhello,pos\r\nsome text, \r\n", "line 3: empty label"),
            (b"text,label\nhello,pos\nbye,n\xffg\n", "line 3: byte 0xff is not UTF-8 text"),
            (b"\xef\xbb\xbftext,label\nhello,pos\nbye,n\xffg\n",
             "line 3: byte 0xff is not UTF-8 text"),
            (b'text,label\nhello,pos\n"' + b"x" * 140000 + b'",neg\n',
             "line 3: field larger than field limit"),
            (b"", "line 1: empty corpus file"),
            (b"\ntext,label\nhello,pos\n", "line 1: first header fields must be 'text,label'"),
            (b"text\nhello\n", "line 1: first header fields must be 'text,label'"),
            (b"text,label\nhello,pos\nbye,pos\n", "line 3: corpus ends with 1 distinct labels"),
        ],
    )
    def test_malformed_corpus_names_path_and_line(self, tmp_path, data, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_corpus_csv(str(path))

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        # Spreadsheet "CSV UTF-8" exports start with one BOM.
        path = tmp_path / "bom.csv"
        with open(BUNDLED_CORPUS, "rb") as fh:
            path.write_bytes(b"\xef\xbb\xbf" + fh.read())
        assert load_corpus_csv(str(path)) == load_corpus_csv(BUNDLED_CORPUS)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_truncated_or_mutated_corpus_reads_or_names_its_line(tmp_path_factory, data):
    """A valid corpus cut short, or with bytes replaced, inserted or deleted,
    reads as rows or fails with ``ValueError`` naming ``path: line N``; no
    other exception escapes."""
    path = tmp_path_factory.mktemp("corpus") / "corpus.csv"
    write_corpus_csv([("hello, world", "real"), ('say "hi"\nthere', "fake"), ("x", "real"),
                      ("multi\nline\ntext", "fake"), ("plain", "real")], str(path))
    path.write_bytes(mutated_bytes(data, path.read_bytes()))
    try:
        rows, mapping = load_corpus_csv(str(path))
    except ValueError as exc:
        assert re.match(rf"{re.escape(str(path))}: line \d+: ", str(exc)), str(exc)
    else:
        assert len(mapping) >= 2 and all(0 <= label < len(mapping) for _, label in rows)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "space", "COUNT") == derive_seed(7, "space", "COUNT")
    assert derive_seed(7, "space", "COUNT") != derive_seed(7, "space", "TFIDF")
    assert derive_seed(7, "x") != derive_seed(8, "x")


EXTREME_RATIOS = [(0.98, 0.01, 0.01), (0.01, 0.98, 0.01), (0.01, 0.01, 0.98), (0.6, 0.2, 0.2)]


@st.composite
def _ratios(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(EXTREME_RATIOS))
    weights = draw(st.lists(st.integers(1, 100), min_size=3, max_size=3))
    return tuple(w / sum(weights) for w in weights)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(3, 30), min_size=2, max_size=6), _ratios(), st.randoms(),
       st.integers(0, 99))
def test_split_corpus_keeps_its_invariants(sizes, ratios, rng, seed):
    """Every class reaches TRAIN, VALIDATION and TEST are non-empty, and the
    three splits, each in corpus order, together are a permutation of the
    corpus."""
    labels = [c for c, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(labels)
    corpus = [(f"doc {i}", label) for i, label in enumerate(labels)]
    out = split_corpus(corpus, ratios=ratios, seed=seed)
    assert list(out) == list(Split)
    assert set(out[Split.TRAIN][1].tolist()) == set(range(len(sizes)))
    assert out[Split.VALIDATION][0] and out[Split.TEST][0]
    rows = []
    for texts, split_labels in out.values():
        assert split_labels.dtype == np.int64 and len(split_labels) == len(texts)
        positions = [int(text.split()[1]) for text in texts]
        assert positions == sorted(positions)
        assert [corpus[i] for i in positions] == list(zip(texts, split_labels.tolist()))
        rows += positions
    assert sorted(rows) == list(range(len(corpus)))


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 30), _ratios())
def test_split_corpus_rejects_one_class(size, ratios):
    with pytest.raises(ValueError, match="corpus needs at least 2 classes"):
        split_corpus([(f"doc {i}", 0) for i in range(size)], ratios=ratios)

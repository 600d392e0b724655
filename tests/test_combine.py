"""Stacking: meta-features, meta-learners, round-trip export."""

import numpy as np
import pytest

from hsel.combine import (
    CategoricalNB,
    StackedEnsemble,
    fit_stack,
    meta_features,
    predict_stack,
    stack_from_json,
    stack_to_json,
)
from hsel.core import ClassifierId, PredictionMatrix, Split


def _pm(columns, truth, num_classes=2, names=None, split=Split.VALIDATION):
    names = names or [f"E{i}-A" for i in range(len(columns))]
    return PredictionMatrix(
        classifier_ids=tuple(ClassifierId.parse(n) for n in names),
        predictions=np.stack([np.asarray(c, dtype=np.int64) for c in columns], axis=1),
        truth=np.asarray(truth, dtype=np.int64),
        num_classes=num_classes,
        split_tag=split,
    )


def _correct_wrong_pm(n=40, split=Split.VALIDATION):
    rng = np.random.default_rng(8)
    truth = rng.integers(0, 2, n)
    correct = truth.copy()
    wrong = 1 - truth
    return _pm([correct, wrong], truth, names=["GOOD-A", "BAD-A"], split=split)


class TestMetaFeatures:
    def test_single_member_one_hot(self):
        pm = _pm([[1]], [1])
        out = meta_features(pm, ["E0-A"], 2)
        assert out.tolist() == [[0.0, 1.0]]

    def test_two_members_three_classes_concatenation(self):
        pm = _pm([[0], [2]], [0], num_classes=3)
        out = meta_features(pm, ["E0-A", "E1-A"], 3)
        assert out.tolist() == [[1, 0, 0, 0, 0, 1]]

    def test_member_permutation_permutes_blocks(self):
        pm = _pm([[0, 1], [1, 0]], [0, 1])
        forward = meta_features(pm, ["E0-A", "E1-A"], 2)
        swapped = meta_features(pm, ["E1-A", "E0-A"], 2)
        assert np.array_equal(swapped[:, :2], forward[:, 2:])
        assert np.array_equal(swapped[:, 2:], forward[:, :2])

    def test_missing_member_named(self):
        pm = _pm([[0]], [0])
        with pytest.raises(ValueError, match="GLOVE-LR"):
            meta_features(pm, ["GLOVE-LR"], 2)


class TestFitStack:
    def test_vote_of_one_equals_member(self):
        pm = _correct_wrong_pm()
        ensemble = fit_stack(pm, ["BAD-A"], meta_kind="VOTE")
        preds = predict_stack(ensemble, pm)
        assert np.array_equal(preds, pm.column("BAD-A"))

    def test_lr_meta_learns_to_trust_correct_member(self):
        pm = _correct_wrong_pm()
        ensemble = fit_stack(pm, ["GOOD-A", "BAD-A"], meta_kind="LR")
        preds = predict_stack(ensemble, pm)
        assert (preds == pm.truth).mean() == 1.0
        assert not ensemble.model.diverged
        losses = ensemble.model.loss_history_
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_vote_majority_correct(self):
        # Any two of three members agree on the truth for every row.
        truth = np.array([0, 1, 0, 1, 1, 0])
        a = np.array([0, 1, 0, 1, 1, 0])
        b = np.array([0, 1, 1, 1, 0, 0])
        c = np.array([1, 1, 0, 0, 1, 0])
        pm = _pm([a, b, c], truth)
        ensemble = fit_stack(pm, ["E0-A", "E1-A", "E2-A"], meta_kind="VOTE")
        assert (predict_stack(ensemble, pm) == truth).all()

    def test_unsupported_meta_kind(self):
        pm = _correct_wrong_pm()
        with pytest.raises(ValueError, match="XGB"):
            fit_stack(pm, ["GOOD-A"], meta_kind="XGB")

    def test_needs_enough_validation_rows(self):
        pm = _pm([[0]], [0], num_classes=2)
        with pytest.raises(ValueError, match="validation rows"):
            fit_stack(pm, ["E0-A"], meta_kind="VOTE")

    def test_deterministic_for_fixed_seed(self):
        pm = _correct_wrong_pm()
        a = fit_stack(pm, ["GOOD-A", "BAD-A"], meta_kind="LR")
        b = fit_stack(pm, ["GOOD-A", "BAD-A"], meta_kind="LR")
        assert np.array_equal(a.model.weights_, b.model.weights_)
        assert np.array_equal(a.model.bias_, b.model.bias_)


class TestPredictStack:
    def test_vote_is_pure(self):
        pm = _correct_wrong_pm()
        ensemble = fit_stack(pm, ["GOOD-A", "BAD-A"], meta_kind="VOTE")
        assert np.array_equal(predict_stack(ensemble, pm), predict_stack(ensemble, pm))

    def test_unanimous_rows_follow_members_for_every_meta_kind(self):
        # Meta-learners trained on consistent data (members mostly right,
        # never constant-wrong) must follow a unanimous prediction.
        rng = np.random.default_rng(5)
        truth = rng.integers(0, 2, 200)
        a = truth.copy()
        a[:10] = 1 - a[:10]
        b = truth.copy()
        b[10:20] = 1 - b[10:20]
        train = _pm([a, b], truth)
        unanimous = _pm([[0, 1], [0, 1]], [0, 1], split=Split.TEST)
        for meta_kind in ("LR", "NB", "VOTE"):
            ensemble = fit_stack(train, ["E0-A", "E1-A"], meta_kind=meta_kind)
            preds = predict_stack(ensemble, unanimous)
            assert preds.tolist() == [0, 1], meta_kind

    def test_missing_member_column_rejected(self):
        pm = _correct_wrong_pm()
        ensemble = fit_stack(pm, ["GOOD-A", "BAD-A"], meta_kind="VOTE")
        smaller = pm.select(["GOOD-A"])
        with pytest.raises(ValueError, match="BAD-A"):
            predict_stack(ensemble, smaller)

    def test_vote_tie_breaks_to_smallest_class(self):
        truth = np.array([0, 0])
        pm = _pm([[1, 2], [2, 1]], truth, num_classes=3)
        ensemble = fit_stack(
            _pm([[0, 1, 2], [0, 1, 2]], [0, 1, 2], num_classes=3), ["E0-A", "E1-A"],
            meta_kind="VOTE",
        )
        preds = predict_stack(ensemble, pm)
        assert preds.tolist() == [1, 1]

    def test_single_member_lr_tracks_member_accuracy(self):
        rng = np.random.default_rng(21)
        truth = rng.integers(0, 2, 500)
        member = truth.copy()
        flips = rng.choice(500, size=60, replace=False)
        member[flips] = 1 - member[flips]
        val = _pm([member], truth)
        test_truth = rng.integers(0, 2, 500)
        test_member = test_truth.copy()
        flips = rng.choice(500, size=55, replace=False)
        test_member[flips] = 1 - test_member[flips]
        test = _pm([test_member], test_truth, split=Split.TEST)
        ensemble = fit_stack(val, ["E0-A"], meta_kind="LR")
        stacked_acc = (predict_stack(ensemble, test) == test_truth).mean()
        member_acc = (test_member == test_truth).mean()
        assert abs(stacked_acc - member_acc) <= 0.02


class TestCategoricalNB:
    def test_probabilities_normalize(self):
        rng = np.random.default_rng(2)
        columns = rng.integers(0, 3, (50, 4))
        y = rng.integers(0, 3, 50)
        model = CategoricalNB().fit(columns, y, 3)
        probs = model.predict_proba(columns)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_learns_simple_mapping(self):
        columns = np.array([[0], [0], [1], [1]])
        y = np.array([0, 0, 1, 1])
        model = CategoricalNB().fit(columns, y, 2)
        assert model.predict(np.array([[0], [1]])).tolist() == [0, 1]


class TestSerialization:
    @pytest.mark.parametrize("meta_kind", ["LR", "NB", "VOTE"])
    def test_roundtrip_identical_predictor(self, meta_kind):
        pm = _correct_wrong_pm()
        ensemble = fit_stack(pm, ["GOOD-A", "BAD-A"], meta_kind=meta_kind)
        text = stack_to_json(ensemble)
        back = stack_from_json(text)
        assert back.members == ensemble.members
        assert back.meta_kind == ensemble.meta_kind
        assert np.array_equal(predict_stack(back, pm), predict_stack(ensemble, pm))

    def test_layout_matches_member_order(self):
        ensemble = StackedEnsemble(
            members=(ClassifierId("CV", "NB"), ClassifierId("GLOVE", "LR")),
            meta_kind="VOTE",
            num_classes=3,
            model=None,
        )
        assert ensemble.layout == [("CV-NB", 0), ("GLOVE-LR", 3)]
        assert ensemble.meta_feature_dimension == 6

"""Stacking: meta-features, meta-learners, round-trip export."""

import json
import tracemalloc

import numpy as np
import pytest

from hsel.combine import (
    StackedEnsemble,
    fit_stack,
    fit_stacks,
    meta_features,
    predict_nested,
    predict_stack,
    stack_from_json,
    stack_to_json,
)
from hsel.core import ClassifierId, PredictionMatrix, Split
from oracles import categorical_nb_oracle, plurality_oracle


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

    def test_fit_stacks_matches_standalone_fits(self):
        # Sixty members that always say 0 make a step of 0.1 overshoot, so
        # that list diverges while the others train on in the same batch.
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 2, 40)
        columns = [truth, 1 - truth] + [np.where(rng.random(40) < 0.8, 0, 1) for _ in range(3)]
        columns += [np.zeros(40, dtype=np.int64)] * 60
        names = [f"E{j}-A" for j in range(len(columns))]
        pm = _pm(columns, truth, names=names)
        lists = [names[:1], names[:3], names[5:], names[4:1:-1], names[1:2] + names[3:5]]
        batch = fit_stacks(pm, lists)
        assert [e.model.diverged for e in batch] == [False, False, True, False, False]
        for members, ensemble in zip(lists, batch):
            alone = fit_stack(pm, members)
            assert ensemble.members == alone.members
            assert np.allclose(ensemble.model.weights_, alone.model.weights_, rtol=0, atol=1e-12)
            assert np.allclose(ensemble.model.bias_, alone.model.bias_, rtol=0, atol=1e-12)
            assert ensemble.model.diverged_epoch == alone.model.diverged_epoch
            assert len(ensemble.model.loss_history_) == len(alone.model.loss_history_)
            assert np.array_equal(predict_stack(ensemble, pm), predict_stack(alone, pm))

    def test_fit_stacks_rejects_repeated_member(self):
        pm = _correct_wrong_pm()
        with pytest.raises(ValueError, match="duplicate"):
            fit_stacks(pm, [["GOOD-A"], ["GOOD-A", "GOOD-A"]])

    def test_fit_stacks_rejects_unknown_member_in_any_list(self):
        pm = _correct_wrong_pm()
        with pytest.raises(ValueError, match="GLOVE-LR"):
            fit_stacks(pm, [["GOOD-A"], ["BAD-A", "GLOVE-LR"]])


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

    def test_class_count_mismatch_rejected(self):
        pm = _correct_wrong_pm()
        ensemble = fit_stack(pm, ["GOOD-A", "BAD-A"], meta_kind="VOTE")
        wider = _pm([pm.column("GOOD-A"), pm.column("BAD-A")], pm.truth, num_classes=3,
                    names=["GOOD-A", "BAD-A"])
        with pytest.raises(ValueError, match="class count"):
            predict_stack(ensemble, wider)

    def test_repeated_member_rejected(self):
        pm = _correct_wrong_pm()
        ensemble = fit_stack(pm, ["GOOD-A"], meta_kind="VOTE")
        repeated = StackedEnsemble(
            members=(ClassifierId.parse("GOOD-A"),) * 2,
            meta_kind="VOTE",
            num_classes=2,
            model=ensemble.model,
        )
        with pytest.raises(ValueError, match="duplicate classifier ids: \\['GOOD-A'\\]"):
            predict_stack(repeated, pm)

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
        pm = _pm(list(columns.T), y, num_classes=3)
        ensemble = fit_stack(pm, pm.classifier_ids, meta_kind="NB")
        scores = meta_features(pm, ensemble.members, 3) @ ensemble.model.weights_
        scores += ensemble.model.bias_
        probs = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        # The softmax of the linear scores is NB's exact posterior.
        joint = categorical_nb_oracle(columns, y, 3)[2](columns)
        posterior = np.exp(joint - joint.max(axis=1, keepdims=True))
        posterior /= posterior.sum(axis=1, keepdims=True)
        assert np.allclose(probs, posterior, rtol=0, atol=1e-12)

    def test_learns_simple_mapping(self):
        pm = _pm([[0, 0, 1, 1]], [0, 0, 1, 1])
        ensemble = fit_stack(pm, ["E0-A"], meta_kind="NB")
        test = _pm([[0, 1]], [0, 1], split=Split.TEST)
        assert predict_stack(ensemble, test).tolist() == [0, 1]


class TestLinearScorer:
    def test_nb_and_vote_match_oracles(self):
        ties = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            c, j = int(rng.integers(2, 5)), int(rng.integers(1, 7))
            # Even seeds draw labels from one or two values only: low
            # entropy, unseen classes and tied scores.
            values = int(rng.integers(1, 3)) if seed % 2 == 0 else c
            n = int(rng.integers(c, 40))
            columns, truth = rng.integers(0, values, (n, j)), rng.integers(0, values, n)
            test_columns = rng.integers(0, c, (50, j))
            names = [f"E{i}-A" for i in range(j)]
            val = _pm(list(columns.T), truth, num_classes=c, names=names)
            test = _pm(list(test_columns.T), np.zeros(50), num_classes=c, names=names,
                       split=Split.TEST)

            vote = fit_stack(val, names, meta_kind="VOTE")
            assert np.array_equal(predict_stack(vote, test),
                                  plurality_oracle(test_columns, c)), seed

            nb = fit_stack(val, names, meta_kind="NB")
            log_prior, like, joint = categorical_nb_oracle(columns, truth, c)
            expected_weights = like.transpose(0, 2, 1).reshape(j * c, c)
            assert np.allclose(nb.model.weights_, expected_weights, rtol=0, atol=1e-12), seed
            assert np.allclose(nb.model.bias_, log_prior, rtol=0, atol=1e-12), seed
            # Oracle scores within 1e-12 * max(1, |top|) of the top tie, and
            # the smallest tied class wins.
            scores = joint(test_columns)
            top = scores.max(axis=1, keepdims=True)
            tied = scores >= top - 1e-12 * np.maximum(1.0, np.abs(top))
            assert np.array_equal(predict_stack(nb, test), np.argmax(tied, axis=1)), seed
            ties += int((tied.sum(axis=1) > 1).sum())
        assert ties > 0


def _pool(seed):
    """A seeded pool for seed % 8 + 1 members and (seed // 2) % 4 + 2
    classes. Even seeds are tie-heavy: few distinct columns drawn from two
    labels, so members repeat, classes go unseen and scores tie."""
    rng = np.random.default_rng(seed)
    p, c = seed % 8 + 1, (seed // 2) % 4 + 2
    n = int(rng.integers(c, 60))
    truth = rng.integers(0, c, n)
    if seed % 2 == 0:
        base = rng.integers(0, 2, (n, max(1, p // 2)))
        columns = base[:, rng.integers(0, base.shape[1], p)]
    else:
        correct = rng.random((n, p)) < rng.uniform(0.3, 0.8, p)
        columns = np.where(correct, truth[:, None], rng.integers(0, c, (n, p)))
    return _pm(list(columns.T), truth, num_classes=c), rng


class TestPredictNested:
    @pytest.mark.parametrize("meta_kind", ["NB", "VOTE"])
    def test_every_prefix_matches_its_own_stack(self, meta_kind):
        for seed in range(48):
            pm, rng = _pool(seed)
            members, p = pm.classifier_ids, pm.n_classifiers
            order = rng.permutation(p).tolist()
            labels = predict_nested(fit_stack(pm, members, meta_kind), pm, order, [True] * p)
            assert labels.shape == (p, pm.n_instances) and labels.dtype == np.uint8
            for k in range(1, p + 1):
                prefix = [members[j] for j in order[:k]]
                expected = predict_stack(fit_stack(pm, prefix, meta_kind), pm)
                assert np.array_equal(labels[k - 1], expected), (seed, k)

    def test_rejects_repeated_members_and_missing_flags(self):
        pm = _correct_wrong_pm()
        nb = fit_stack(pm, ["GOOD-A", "BAD-A"], "NB")
        with pytest.raises(ValueError, match="repeats"):
            predict_nested(nb, pm, [1, 1], [True, True])
        with pytest.raises(ValueError, match="wanted flag"):
            predict_nested(nb, pm, [1, 0], [True])
        assert predict_nested(nb, pm, [1, 0], [False, True]).shape == (1, pm.n_instances)

    def test_peak_memory_stays_below_one_score_tensor(self):
        # A (P, N, C) float64 score tensor would take 9.6 MB here.
        rng = np.random.default_rng(0)
        p, n, c = 200, 2000, 3
        pm = _pm(list(rng.integers(0, c, (p, n))), rng.integers(0, c, n), num_classes=c)
        nb = fit_stack(pm, pm.classifier_ids, "NB")
        tracemalloc.start()
        try:
            labels = predict_nested(nb, pm, range(p), [True] * p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labels.nbytes <= peak < p * n * c * 8


class TestSerialization:
    @pytest.mark.parametrize("meta_kind", ["LR", "NB", "VOTE"])
    def test_roundtrip_identical_predictor(self, meta_kind):
        pm = _correct_wrong_pm()
        ensemble = fit_stack(pm, ["GOOD-A", "BAD-A"], meta_kind=meta_kind)
        text = stack_to_json(ensemble)
        back = stack_from_json(text)
        assert back.members == ensemble.members
        assert back.meta_kind == ensemble.meta_kind
        assert np.array_equal(back.model.weights_, ensemble.model.weights_)
        assert np.array_equal(back.model.bias_, ensemble.model.bias_)
        assert np.array_equal(predict_stack(back, pm), predict_stack(ensemble, pm))
        assert stack_to_json(back) == text

    def test_nb_keeps_generative_parameters(self):
        pm = _correct_wrong_pm()
        doc = json.loads(stack_to_json(fit_stack(pm, ["GOOD-A", "BAD-A"], meta_kind="NB")))
        log_prior, like, _ = categorical_nb_oracle(pm.predictions, pm.truth, 2)
        assert np.allclose(doc["params"]["class_log_prior"], log_prior, rtol=0, atol=1e-12)
        assert np.allclose(doc["params"]["log_likelihood"], like, rtol=0, atol=1e-12)
        assert doc["params"]["alpha"] == 1.0

    @pytest.mark.parametrize(
        "meta_kind, mutate, message",
        [
            ("LR", lambda d: d.pop("members"), "missing key 'members'"),
            ("VOTE", lambda d: d.pop("version"), "missing key 'version'"),
            ("LR", lambda d: d["params"].pop("weights"), "missing key 'weights'"),
            ("NB", lambda d: d["params"].pop("log_likelihood"), "missing key 'log_likelihood'"),
            ("VOTE", lambda d: d.update(format="other"), "not a hsel-stack document"),
            ("VOTE", lambda d: d.update(meta_kind="XGB"), "XGB"),
            ("NB", lambda d: d.update(version=2), "version 2"),
            ("LR", lambda d: d["params"]["weights"].pop(), r"'weights' has shape \(3, 2\)"),
            ("LR", lambda d: d["params"].update(bias=[0.0]), r"'bias' has shape \(1,\)"),
            ("NB", lambda d: d["params"]["log_likelihood"].pop(), r"'log_likelihood' has shape"),
            ("LR", lambda d: d.update(params=[]), "params must be an object, got list"),
            ("NB", lambda d: d.update(num_classes=None), "num_classes must be an integer"),
            ("VOTE", lambda d: d.update(num_classes=1), "at least 2, got 1"),
        ],
        ids=[
            "no-members", "no-version", "no-weights", "no-log-likelihood", "format",
            "meta-kind", "version", "weights-shape", "bias-shape", "log-likelihood-shape",
            "params-list", "num-classes-null", "num-classes-one",
        ],
    )
    def test_malformed_document_rejected(self, meta_kind, mutate, message):
        pm = _correct_wrong_pm()
        doc = json.loads(stack_to_json(fit_stack(pm, ["GOOD-A", "BAD-A"], meta_kind=meta_kind)))
        mutate(doc)
        with pytest.raises(ValueError, match=message):
            stack_from_json(json.dumps(doc))

    def test_layout_matches_member_order(self):
        ensemble = StackedEnsemble(
            members=(ClassifierId("CV", "NB"), ClassifierId("GLOVE", "LR")),
            meta_kind="VOTE",
            num_classes=3,
            model=None,
        )
        assert ensemble.layout == [("CV-NB", 0), ("GLOVE-LR", 3)]
        assert ensemble.meta_feature_dimension == 6

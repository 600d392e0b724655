"""Base learner behavior: determinism, tie-breaks, and training dynamics."""

import numpy as np
import pytest

from hsel import learners
from hsel.learners import (
    CosineKNN,
    MultinomialNB,
    NearestCentroid,
    SoftmaxRegression,
    fit_softmax_models,
    gram_form_pays,
    make_learner,
)
from oracles import cosine_knn_oracle, nearest_centroid_oracle, softmax_gd_oracle


def _separable_data(n=60, seed=2):
    # Two clusters along distinct axes; trivially separable.
    rng = np.random.default_rng(seed)
    X0 = rng.random((n // 2, 4)) * [5, 1, 0.1, 0.1]
    X1 = rng.random((n // 2, 4)) * [0.1, 0.1, 5, 1]
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


class TestMultinomialNB:
    def test_learns_separable_counts(self):
        X = np.array([[3, 0], [4, 1], [0, 3], [1, 4]], dtype=float)
        y = np.array([0, 0, 1, 1])
        model = MultinomialNB().fit(X, y, 2)
        assert model.predict(np.array([[5.0, 0.0], [0.0, 5.0]])).tolist() == [0, 1]

    def test_negative_features_clamped(self):
        X = np.array([[-1.0, 2.0], [2.0, -1.0]])
        y = np.array([0, 1])
        model = MultinomialNB().fit(X, y, 2)
        preds = model.predict(np.array([[-3.0, 4.0]]))
        assert preds[0] in (0, 1)


class TestSoftmaxRegression:
    def test_loss_monotone_and_separable_accuracy(self):
        X, y = _separable_data()
        model = SoftmaxRegression(step=0.1, epochs=300, l2=1e-4).fit(X, y, 2)
        losses = model.loss_history_
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert not model.diverged
        assert (model.predict(X) == y).mean() >= 0.99

    def test_zero_init_is_deterministic(self):
        X, y = _separable_data()
        a = SoftmaxRegression().fit(X, y, 2)
        b = SoftmaxRegression().fit(X, y, 2)
        assert np.array_equal(a.weights_, b.weights_)
        assert np.array_equal(a.bias_, b.bias_)

    def test_divergence_halts_with_diagnosis(self):
        X, y = _separable_data()
        model = SoftmaxRegression(step=500.0, epochs=200).fit(X * 100, y, 2)
        assert model.diverged
        assert model.diverged_epoch is not None
        assert len(model.loss_history_) == model.diverged_epoch

    def test_matches_row_major_oracle(self):
        # Dense and one-hot designs; steps 2.0 and 50.0 diverge on many of
        # them. Each case fits one model alone, and on the stable steps also
        # a batch of three over random column subsets, each checked against
        # the oracle on its own columns. Past the stable range, rounding
        # noise along a direction with zero gradient can grow until it trips
        # the divergence rule, at an epoch that depends on summation order;
        # test_combine checks a batch with a genuine overshoot.
        rng = np.random.default_rng(13)
        diverged = 0
        for case in range(120):
            n, d, c = int(rng.integers(4, 50)), int(rng.integers(1, 10)), int(rng.integers(2, 5))
            if case % 2:
                X = np.zeros((n, d * c))
                for j in range(d):
                    X[np.arange(n), j * c + rng.integers(0, c, n)] = 1.0
            else:
                X = rng.random((n, d))
            y = rng.integers(0, c, n)
            step = float(rng.choice([0.1, 0.5, 2.0, 50.0]))
            epochs = int(rng.integers(1, 120))
            single = SoftmaxRegression(step=step, epochs=epochs).fit(X, y, c)
            checks = [(single, np.arange(X.shape[1]))]
            if step <= 0.5:
                columns = [rng.permutation(X.shape[1])[: rng.integers(1, X.shape[1] + 1)]
                           for _ in range(3)]
                batch = [SoftmaxRegression(step=step, epochs=epochs) for _ in columns]
                fit_softmax_models(batch, X, y, c, columns)
                checks += list(zip(batch, columns))
            for model, cols in checks:
                weights, bias, history, diverged_epoch = softmax_gd_oracle(
                    X[:, cols], y, c, step, epochs, 1e-4
                )
                assert np.allclose(model.weights_, weights, rtol=0, atol=1e-12), case
                assert np.allclose(model.bias_, bias, rtol=0, atol=1e-12), case
                assert model.diverged_epoch == diverged_epoch, case
                assert model.diverged == (diverged_epoch is not None), case
                assert len(model.loss_history_) == len(history), case
            diverged += single.diverged
        assert diverged >= 20

    def test_wide_design_matches_row_major_oracle(self, monkeypatch):
        # Count-like designs with more columns than rows, as on a corpus:
        # the Gram form pays for most of these fits and the primal form for
        # the shortest ones. Every third case also fits a batch of three
        # models over all columns in permuted orders.
        shapes = []

        def recording_rule(*shape):
            shapes.append(shape)
            return gram_form_pays(*shape)

        monkeypatch.setattr(learners, "gram_form_pays", recording_rule)
        rng = np.random.default_rng(29)
        forms = {True: 0, False: 0}
        diverged = 0
        for case in range(60):
            n, d, c = int(rng.integers(20, 61)), int(rng.integers(100, 401)), int(rng.integers(2, 6))
            X = rng.poisson(rng.choice([0.05, 0.3, 1.0]), (n, d)).astype(np.float64)
            y = rng.integers(0, c, n)
            step = float(rng.choice([0.1, 0.5, 2.0, 50.0]))
            epochs = int(rng.integers(1, 8) if case % 2 else rng.integers(8, 120))
            gram = n * (d + epochs * c) < 2 * epochs * c * d
            assert gram_form_pays(n, d, c, 1, epochs) == gram, case
            forms[gram] += 1
            del shapes[:]
            single = SoftmaxRegression(step=step, epochs=epochs).fit(X, y, c)
            assert shapes == [(n, d, c, 1, epochs)], case
            checks = [(single, np.arange(d))]
            if case % 3 == 0:
                columns = [rng.permutation(d) for _ in range(3)]
                batch = [SoftmaxRegression(step=step, epochs=epochs) for _ in columns]
                fit_softmax_models(batch, X, y, c, columns)
                checks += list(zip(batch, columns))
                forms[gram_form_pays(n, d, c, 3, epochs)] += 1
            for model, cols in checks:
                weights, bias, history, diverged_epoch = softmax_gd_oracle(
                    X[:, cols], y, c, step, epochs, 1e-4
                )
                assert np.allclose(model.weights_, weights, rtol=0, atol=1e-12), case
                assert np.allclose(model.bias_, bias, rtol=0, atol=1e-12), case
                assert model.diverged_epoch == diverged_epoch, case
                assert len(model.loss_history_) == len(history), case
                assert np.allclose(model.loss_history_, history, rtol=0, atol=1e-12), case
            diverged += single.diverged
        assert forms[True] >= 10 and forms[False] >= 10, forms
        assert diverged >= 10

    def test_compare_shaped_batch_matches_row_major_oracle(self):
        # The batch a compare fits over one one-hot design: nested prefix
        # lists, as the candidates of a level sweep, plus disjoint group
        # lists, as groups A and B. Every model is checked against the
        # oracle on its own columns.
        rng = np.random.default_rng(41)
        n, p, c = 90, 8, 3
        y = rng.integers(0, c, n)
        X = np.zeros((n, p * c))
        for j in range(p):
            pred = np.where(rng.random(n) < 0.6, y, rng.integers(0, c, n))
            X[np.arange(n), j * c + pred] = 1.0
        order = rng.permutation(p)
        member_lists = [order[:k] for k in range(1, p + 1)]
        member_lists += [order[j::4] for j in range(4)] + [order[:4][::-1], order[4:]]
        columns = [(members[:, None] * c + np.arange(c)).ravel() for members in member_lists]
        for step in (0.1, 0.5):
            batch = [SoftmaxRegression(step=step, epochs=200) for _ in columns]
            fit_softmax_models(batch, X, y, c, columns)
            for i, (model, cols) in enumerate(zip(batch, columns)):
                weights, bias, history, diverged_epoch = softmax_gd_oracle(
                    X[:, cols], y, c, step, 200, 1e-4
                )
                assert np.allclose(model.weights_, weights, rtol=0, atol=1e-12), (step, i)
                assert np.allclose(model.bias_, bias, rtol=0, atol=1e-12), (step, i)
                assert model.diverged_epoch == diverged_epoch, (step, i)
                assert len(model.loss_history_) == len(history), (step, i)
                assert np.allclose(model.loss_history_, history, rtol=0, atol=1e-12), (step, i)

    def test_score_ties_break_to_smallest_class(self):
        model = SoftmaxRegression()
        model.weights_ = np.zeros((2, 3))
        X = np.ones((1, 2))
        # 1e-17 apart: a tie, decided by rule and not by rounding noise.
        model.bias_ = np.array([0.0, 1e-17, -1.0])
        assert model.predict(X).tolist() == [0]
        model.bias_ = np.array([-1.0, 1e5, 1e5 + 1e-8])
        assert model.predict(X).tolist() == [1]
        # A real margin still wins.
        model.bias_ = np.array([0.0, 1e-9, -1.0])
        assert model.predict(X).tolist() == [1]


class TestCosineKNN:
    def test_basic_neighbors(self):
        X = np.array([[1, 0], [0.9, 0.1], [0, 1], [0.1, 0.9]], dtype=float)
        y = np.array([0, 0, 1, 1])
        model = CosineKNN(k=3).fit(X, y, 2)
        assert model.predict(np.array([[1.0, 0.05], [0.05, 1.0]])).tolist() == [0, 1]

    def test_vote_tie_breaks_to_smallest_class(self):
        X = np.array([[1, 0], [0, 1]], dtype=float)
        y = np.array([1, 0])
        model = CosineKNN(k=2).fit(X, y, 2)
        # Both neighbors vote once each; class 0 wins the tie.
        assert model.predict(np.array([[1.0, 1.0]])).tolist() == [0]

    def test_zero_vector_query(self):
        X = np.array([[1, 0], [0, 1]], dtype=float)
        y = np.array([0, 1])
        model = CosineKNN(k=1).fit(X, y, 2)
        # Zero query is equidistant from everything; nearest is the first row.
        assert model.predict(np.zeros((1, 2))).tolist() == [0]

    def test_k_capped_by_training_size(self):
        X = np.array([[1.0, 0.0]])
        y = np.array([1])
        model = CosineKNN(k=5).fit(X, y, 2)
        assert model.predict(np.array([[0.5, 0.5]])).tolist() == [1]

    def test_matches_per_row_oracle_on_integer_grids(self):
        # Small integer rows repeat directions, so neighbour distances tie at
        # the k-th place and votes tie between classes; zero rows occur too.
        rng = np.random.default_rng(29)
        distance_ties = vote_ties = 0
        for case in range(60):
            n, v, c = int(rng.integers(1, 25)), int(rng.integers(1, 5)), int(rng.integers(2, 5))
            k = int(rng.integers(1, 9))
            X = rng.integers(0, 3, (n, v)).astype(np.float64)
            y = rng.integers(0, c, n)
            queries = np.vstack([X, rng.integers(0, 3, (15, v)), np.zeros((1, v))])
            model = CosineKNN(k=k).fit(X, y, c)
            expected = cosine_knn_oracle(X, y, c, k, queries)
            assert np.array_equal(model.predict(queries), expected), case
            distances = 1.0 - model._unit_rows(queries) @ model._unit_rows(X).T
            nearest = y[np.argsort(distances, kind="stable", axis=1)[:, :k]]
            votes = np.stack([np.bincount(row, minlength=c) for row in nearest])
            vote_ties += int(np.sum((votes == votes.max(axis=1, keepdims=True)).sum(axis=1) > 1))
            if n > k:
                d = np.sort(distances, axis=1)
                distance_ties += int(np.sum(d[:, k - 1] == d[:, k]))
        assert distance_ties > 0 and vote_ties > 0


class TestNearestCentroid:
    def test_centroid_assignment(self):
        X = np.array([[0, 0], [0, 2], [10, 10], [10, 12]], dtype=float)
        y = np.array([0, 0, 1, 1])
        model = NearestCentroid().fit(X, y, 2)
        assert model.predict(np.array([[1.0, 1.0], [9.0, 9.0]])).tolist() == [0, 1]

    def test_matches_broadcast_oracle(self):
        # Small integer grids and midpoints between centroids make equal
        # distances, so ties are decided by the exact bits of the
        # distances; class 1 of 4 is absent from every other training set.
        rng = np.random.default_rng(31)
        for case in range(40):
            n, v, c = int(rng.integers(2, 40)), int(rng.integers(1, 30)), 4
            X = rng.integers(0, 3, (n, v)).astype(np.float64)
            if case % 2:
                X = X * rng.random(v)
            y = rng.choice([0, 2, 3] if case % 2 else range(c), n)
            model = NearestCentroid().fit(X, y, c)
            centroids = model._centroids
            a, b = rng.integers(0, len(centroids), (2, 20))
            queries = np.vstack([X, rng.integers(0, 3, (20, v)) * rng.random(v),
                                 (centroids[a] + centroids[b]) / 2])
            expected = nearest_centroid_oracle(queries, centroids, model._classes)
            assert np.array_equal(model.predict(queries), expected), case


def test_make_learner_rejects_unknown_token():
    with pytest.raises(ValueError, match="SVM"):
        make_learner("SVM")

"""Base learner behavior: determinism, tie-breaks, and training dynamics."""

import tracemalloc

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
    top_class,
)
from oracles import (
    cosine_knn_oracle,
    nearest_centroid_oracle,
    softmax_gd_oracle,
    softmax_step_oracle,
    top_class_oracle,
)


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

    def test_laplace_smoothing(self):
        # Each class's counts plus one, normalized: class 0 sees [3, 0].
        X = np.array([[3.0, 0.0], [0.0, 1.0]])
        model = MultinomialNB().fit(X, np.array([0, 1]), 2)
        assert np.allclose(np.exp(model.feature_log_prob_), [[4 / 5, 1 / 5], [1 / 3, 2 / 3]])

    def test_negative_features_clamped(self):
        X = np.array([[-1.0, 2.0], [2.0, -1.0]])
        y = np.array([0, 1])
        model = MultinomialNB().fit(X, y, 2)
        preds = model.predict(np.array([[-3.0, 4.0]]))
        assert preds[0] in (0, 1)


def _assert_matches_oracle(model, X, y, c, step, epochs, case):
    """``model``, fitted with ceiling ``step`` on the columns ``X`` for
    ``epochs``, took the brute-force step min(step, 1/L) and holds the
    oracle's weights, bias and last loss at that step; the oracle's loss
    never rose on the way. Returns whether the step was capped."""
    assert model.step_ == pytest.approx(softmax_step_oracle(X, step, 1e-4), rel=1e-12), case
    weights, bias, history = softmax_gd_oracle(X, y, c, model.step_, epochs, 1e-4)
    assert np.allclose(model.weights_, weights, rtol=0, atol=1e-12), case
    assert np.allclose(model.bias_, bias, rtol=0, atol=1e-12), case
    assert model.loss_history_.shape == (1,), case
    assert np.allclose(model.loss_history_, history[-1:], rtol=0, atol=1e-12), case
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:])), case
    assert not model.diverged, case
    return model.step_ < step


class TestSoftmaxRegression:
    def test_separable_accuracy_and_last_loss(self):
        X, y = _separable_data()
        model = SoftmaxRegression(step=0.1, epochs=300, l2=1e-4).fit(X, y, 2)
        assert not model.diverged
        assert model.loss_history_.shape == (1,) and model.loss_history_[0] < np.log(2)
        assert (model.predict(X) == y).mean() >= 0.99

    def test_zero_init_is_deterministic(self):
        X, y = _separable_data()
        a = SoftmaxRegression().fit(X, y, 2)
        b = SoftmaxRegression().fit(X, y, 2)
        assert np.array_equal(a.weights_, b.weights_)
        assert np.array_equal(a.bias_, b.bias_)

    def test_step_500_on_large_rows_is_capped_and_converges(self):
        # Rows scaled by 100 at step 500 overshoot at the first step; capped
        # at 1/L the fit descends for all 200 epochs.
        X, y = _separable_data()
        model = SoftmaxRegression(step=500.0, epochs=200).fit(X * 100, y, 2)
        assert _assert_matches_oracle(model, X * 100, y, 2, 500.0, 200, "x100")
        assert model.loss_history_[0] < np.log(2)
        assert (model.predict(X * 100) == y).mean() >= 0.99

    def test_non_finite_loss_is_recorded(self):
        # An infinite feature makes the bound infinite and the step 0; the
        # loss is NaN, and the fit says so.
        X, y = _separable_data()
        X[0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            model = SoftmaxRegression().fit(X, y, 2)
            idle = SoftmaxRegression(epochs=0).fit(X, y, 2)
        assert model.step_ == 0.0
        assert model.diverged and np.isnan(model.loss_history_[0])
        assert idle.loss_history_.shape == (0,) and not idle.diverged

    def test_matches_row_major_oracle(self):
        # Dense and one-hot designs at ceilings from 0.1 to 500, the larger
        # ones capped at 1/L. Each case fits one model alone and a batch of
        # three over random column subsets, each checked against the oracle
        # on its own columns at the step it took.
        rng = np.random.default_rng(13)
        capped = {True: 0, False: 0}
        for case in range(120):
            n, d, c = int(rng.integers(4, 50)), int(rng.integers(1, 10)), int(rng.integers(2, 5))
            if case % 2:
                X = np.zeros((n, d * c))
                for j in range(d):
                    X[np.arange(n), j * c + rng.integers(0, c, n)] = 1.0
            else:
                X = rng.random((n, d))
            y = rng.integers(0, c, n)
            step = float(rng.choice([0.1, 0.5, 2.0, 50.0, 500.0]))
            epochs = int(rng.integers(1, 120))
            single = SoftmaxRegression(step=step, epochs=epochs).fit(X, y, c)
            columns = [rng.permutation(X.shape[1])[: rng.integers(1, X.shape[1] + 1)]
                       for _ in range(3)]
            batch = [SoftmaxRegression(step=step, epochs=epochs) for _ in columns]
            fit_softmax_models(batch, X, y, c, columns)
            for model, cols in [(single, np.arange(X.shape[1]))] + list(zip(batch, columns)):
                capped[_assert_matches_oracle(model, X[:, cols], y, c, step, epochs, case)] += 1
        assert min(capped.values()) >= 100, capped

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
        capped = {True: 0, False: 0}
        for case in range(60):
            n, d, c = int(rng.integers(20, 61)), int(rng.integers(100, 401)), int(rng.integers(2, 6))
            X = rng.poisson(rng.choice([0.01, 0.05, 0.3, 1.0]), (n, d)).astype(np.float64)
            y = rng.integers(0, c, n)
            step = float(rng.choice([0.1, 0.5, 2.0, 50.0, 500.0]))
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
                capped[_assert_matches_oracle(model, X[:, cols], y, c, step, epochs, case)] += 1
        assert forms[True] >= 10 and forms[False] >= 10, forms
        assert min(capped.values()) >= 10, capped

    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_compare_shaped_batch_matches_row_major_oracle(self, c):
        # The batch a compare fits over one one-hot design: nested prefix
        # lists, as the candidates of a level sweep, plus disjoint group
        # lists, as groups A and B. Every model is checked against the
        # oracle on its own columns; a list of k members is capped at
        # 1/(½(k + 1) + λ) exactly when that is below the ceiling.
        rng = np.random.default_rng(41)
        n, p = 90, 8
        y = rng.integers(0, c, n)
        X = np.zeros((n, p * c))
        for j in range(p):
            pred = np.where(rng.random(n) < 0.6, y, rng.integers(0, c, n))
            X[np.arange(n), j * c + pred] = 1.0
        order = rng.permutation(p)
        member_lists = [order[:k] for k in range(1, p + 1)]
        member_lists += [order[j::4] for j in range(4)] + [order[:4][::-1], order[4:]]
        columns = [(members[:, None] * c + np.arange(c)).ravel() for members in member_lists]
        for step in (0.1, 0.5, 500.0):
            batch = [SoftmaxRegression(step=step, epochs=200) for _ in columns]
            fit_softmax_models(batch, X, y, c, columns)
            for i, (model, cols, members) in enumerate(zip(batch, columns, member_lists)):
                bound = 1 / (0.5 * (len(members) + 1) + 1e-4)
                assert _assert_matches_oracle(model, X[:, cols], y, c, step, 200, (step, i)) == (
                    bound < step), (step, i)

    def test_models_of_a_batch_take_their_own_steps(self):
        # Batches of models, each on its own block of columns scaled apart,
        # under ceilings of their own: each model is capped at the 1/L of
        # its own block, so one batch mixes steps, and every model matches
        # the oracle on its own columns at the step it took.
        rng = np.random.default_rng(37)
        mixed = 0
        for case in range(80):
            n, c, d, m = (int(rng.integers(10, 40)), int(rng.integers(2, 5)),
                          int(rng.integers(2, 8)), int(rng.integers(2, 5)))
            X = np.hstack([rng.random((n, d)) * rng.uniform(1.0, 3.0) for _ in range(m)])
            y = rng.integers(0, c, n)
            columns = [np.arange(j * d, (j + 1) * d) for j in range(m)]
            steps = rng.uniform(0.1, 2.0, m)
            batch = [SoftmaxRegression(step=step, epochs=120) for step in steps]
            fit_softmax_models(batch, X, y, c, columns)
            for model, cols, step in zip(batch, columns, steps):
                _assert_matches_oracle(model, X[:, cols], y, c, step, 120, case)
            mixed += len({model.step_ for model in batch}) > 1
        assert mixed >= 60, mixed

    def test_models_trained_together_share_epochs_and_l2(self):
        X, y = _separable_data()
        for other in (SoftmaxRegression(epochs=299), SoftmaxRegression(l2=0.0)):
            with pytest.raises(ValueError, match="share epochs and l2"):
                fit_softmax_models([SoftmaxRegression(), other], X, y, 2, [[0, 1], [2, 3]])

    def test_counts_match_expanded_rows_and_row_major_oracle(self, monkeypatch):
        # Distinct rows with counts against the same rows repeated that
        # often (shuffled): one-hot designs fitted as batches over column
        # subsets in the primal form, or one model on all columns of a wide
        # design with few distinct rows in the Gram form. The counts weigh
        # the bound as the repeats do, so both fits take the same step.
        rng = np.random.default_rng(17)
        capped = {True: 0, False: 0}
        for case in range(60):
            gram, c = case % 2 == 1, int(rng.integers(2, 5))
            distinct, p = int(rng.integers(c, 12)), int(rng.integers(2, 6))
            if gram:
                Xd = rng.poisson(0.5, (distinct, int(rng.integers(60, 120)))).astype(np.float64)
                columns = [np.arange(Xd.shape[1])]
            else:
                Xd = np.zeros((distinct, p * c))
                for j in range(p):
                    Xd[np.arange(distinct), j * c + rng.integers(0, c, distinct)] = 1.0
                columns = [rng.permutation(p * c)[: rng.integers(1, p * c + 1)] for _ in range(3)]
            yd = rng.integers(0, c, distinct)
            counts = rng.integers(1, 6, distinct)
            shuffle = rng.permutation(counts.sum())
            X, y = np.repeat(Xd, counts, axis=0)[shuffle], np.repeat(yd, counts)[shuffle]
            step = float(rng.choice([0.1, 0.5, 50.0, 500.0]))
            epochs = int(rng.integers(1, 80))
            monkeypatch.setattr(learners, "gram_form_pays", lambda *shape: gram)
            weighted = [SoftmaxRegression(step=step, epochs=epochs) for _ in columns]
            fit_softmax_models(weighted, Xd, yd, c, columns, counts)
            expanded = [SoftmaxRegression(step=step, epochs=epochs) for _ in columns]
            fit_softmax_models(expanded, X, y, c, columns)
            for model, twin, cols in zip(weighted, expanded, columns):
                expected = softmax_step_oracle(Xd[:, cols], step, 1e-4, counts)
                assert model.step_ == pytest.approx(expected, rel=1e-12), case
                for fitted in (model, twin):
                    capped[_assert_matches_oracle(fitted, X[:, cols], y, c, step, epochs, case)] += 1
        assert min(capped.values()) >= 20, capped

    def test_unit_counts_are_the_default_bit_for_bit(self):
        rng = np.random.default_rng(23)
        X, y = rng.random((30, 6)), rng.integers(0, 3, 30)
        columns = [np.arange(6), np.array([4, 1])]
        default, unit = ([SoftmaxRegression(epochs=40) for _ in columns] for _ in range(2))
        fit_softmax_models(default, X, y, 3, columns)
        fit_softmax_models(unit, X, y, 3, columns, np.ones(30, dtype=np.intp))
        for a, b in zip(default, unit):
            assert a.step_ == b.step_
            for array in ("weights_", "bias_", "loss_history_"):
                assert np.array_equal(getattr(a, array), getattr(b, array)), array

    def test_last_class_is_minus_the_sum_of_the_others(self, monkeypatch):
        # The descent updates c - 1 class slabs and sets the last one to
        # minus their sum, class 0 first, after every step, so each fitted
        # model's last-class weights and bias equal that sum exactly: in
        # both forms and in batches over column subsets.
        rng = np.random.default_rng(5)
        for case in range(48):
            c = (2, 3, 5)[case % 3]
            gram = case % 4 == 1
            n, d = int(rng.integers(10, 40)), int(rng.integers(60, 120) if gram else rng.integers(2, 12))
            X = rng.poisson(0.5, (n, d)).astype(np.float64)
            y = rng.integers(0, c, n)
            step = float(rng.choice([0.1, 0.5, 50.0]))
            columns = [np.arange(d)] if gram else [
                rng.permutation(d)[: rng.integers(1, d + 1)] for _ in range(3)]
            monkeypatch.setattr(learners, "gram_form_pays", lambda *shape: gram)
            epochs = int(rng.integers(1, 60))
            models = [SoftmaxRegression(step=step, epochs=epochs) for _ in columns]
            fit_softmax_models(models, X, y, c, columns)
            for model in models:
                for coefficients in (model.weights_.T, model.bias_[:, None]):
                    total = coefficients[0]
                    for k in range(1, c - 1):
                        total = total + coefficients[k]
                    assert np.array_equal(coefficients[c - 1], -total), case

    def test_warm_descent_allocates_nothing_per_epoch(self):
        # A one-hot (c, M, N) = (4, 24, 300) batch, as pool-stack fits: over
        # 20 epochs the peak may exceed that of a call that runs no epoch
        # (the same buffers) only by the loss table and the histories it
        # hands out, plus 16 KB of small temporaries. numpy's buffered
        # broadcast loops would add 30-60 KB. Rows weighted by counts other
        # than 1 run the same epoch.
        rng = np.random.default_rng(3)
        c, m, n, p = 4, 24, 300, 16
        y = rng.integers(0, c, n)
        X = np.zeros((n, p * c))
        for j in range(p):
            X[np.arange(n), j * c + np.where(rng.random(n) < 0.6, y, rng.integers(0, c, n))] = 1.0
        columns = [(np.arange(k % p + 1)[:, None] * c + np.arange(c)).ravel() for k in range(m)]
        for counts in (None, rng.integers(1, 5, n)):
            peaks = {}
            for epochs in (20, 0, 20):
                models = [SoftmaxRegression(epochs=epochs) for _ in columns]
                tracemalloc.start()
                try:
                    fit_softmax_models(models, X, y, c, columns, counts)
                    peaks[epochs] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            loss_bytes = 2 * 20 * m * 8
            assert peaks[20] - peaks[0] - loss_bytes <= 16 * 1024, (counts is None, peaks)

    def test_peak_does_not_grow_with_epochs(self):
        # pool-stack's meta batch, (c, M, N) = (4, 24, 300) on 64 one-hot
        # columns: its peak at 500 epochs is that at 50 within a few KB, so
        # the descent holds no table with a row per epoch (one would be
        # 450·24·8 = 86 KB larger at 500).
        rng = np.random.default_rng(4)
        c, m, n, p = 4, 24, 300, 16
        y = rng.integers(0, c, n)
        X = np.zeros((n, p * c))
        for j in range(p):
            X[np.arange(n), j * c + np.where(rng.random(n) < 0.6, y, rng.integers(0, c, n))] = 1.0
        columns = [(np.arange(k % p + 1)[:, None] * c + np.arange(c)).ravel() for k in range(m)]
        peaks = {}
        for epochs in (50, 500):
            models = [SoftmaxRegression(epochs=epochs) for _ in columns]
            tracemalloc.start()
            try:
                fit_softmax_models(models, X, y, c, columns)
                peaks[epochs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[500] - peaks[50]) <= 4 * 1024, peaks

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


def test_top_class_matches_per_row_oracle_in_both_layouts():
    # Scores on a coarse grid tie often; nudges of 1e-17 and 1e-9 fall
    # inside and outside the tie band; some rows hold NaN.
    rng = np.random.default_rng(8)
    for trial in range(200):
        n, c = int(rng.integers(1, 40)), int(rng.integers(1, 7))
        scores = rng.integers(-2, 3, (n, c)) * 10.0 ** int(rng.integers(-3, 6))
        scores = scores + rng.choice([0.0, 1e-17, 1e-9], size=(n, c))
        scores[rng.random((n, c)) < 0.03] = np.nan
        expected = top_class_oracle(scores)
        for layout in (scores, np.ascontiguousarray(scores.T).T):
            labels = top_class(layout)
            assert labels.dtype == np.intp and np.array_equal(labels, expected), trial


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
        with pytest.raises(ValueError, match="at least one training row"):
            CosineKNN(k=5).fit(X[:0], y[:0], 2)

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

    def test_matches_per_row_oracle_on_duplicated_rows(self):
        # Training rows repeat, so whole groups tie at the k-th distance
        # and the lowest indices among them must fill the k places; zero
        # training and query rows tie with everything, and k reaches or
        # passes the training size.
        rng = np.random.default_rng(31)
        kth_ties = large_k = 0
        for case in range(80):
            v, c = int(rng.integers(1, 5)), int(rng.integers(2, 5))
            base = rng.integers(-1, 2, (int(rng.integers(1, 8)), v)).astype(np.float64)
            base[rng.random(len(base)) < 0.2] = 0.0
            X = np.repeat(base, rng.integers(1, 5, len(base)), axis=0)
            X = X[rng.permutation(len(X))]
            y = rng.integers(0, c, len(X))
            k = int(rng.integers(1, len(X) + 3))
            queries = np.vstack([base, rng.integers(-1, 2, (10, v)), np.zeros((1, v))])
            model = CosineKNN(k=k).fit(X, y, c)
            expected = cosine_knn_oracle(X, y, c, k, queries)
            assert np.array_equal(model.predict(queries), expected), case
            if k < len(X):
                d = np.sort(1.0 - model._unit_rows(queries) @ model._unit_rows(X).T, axis=1)
                kth_ties += int(np.sum(d[:, k - 1] == d[:, k]))
            else:
                large_k += 1
        assert kth_ties > 0 and large_k > 0


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

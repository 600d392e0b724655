"""Level sweep, final-choice rules, elbow heuristic, groups, baseline."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsel.cli import RunConfig, _selection_report_doc
from hsel.core import ClassifierId, EvalEntry, PredictionMatrix, Split, evaluate_matrix
from hsel.diversity import DissimilarityMatrix, dissimilarity_matrix
from hsel.hiercluster import LINKAGE_METHODS, linkage
from hsel.selection import (
    EnsembleCandidate,
    _chord_knee,
    choose_final,
    elbow_select,
    group_members,
    hierarchy_select,
    random_baseline,
    within_cluster_totals,
)

from conftest import assert_join_order
from oracles import (
    exact_distance_oracle,
    exact_mean_oracle,
    f_cluster,
    level_sweep_oracle,
)


def _entry(value: float) -> EvalEntry:
    return EvalEntry(accuracy=value, precision=value, recall=value, f1=value)


def _pm(predictions, truth, num_classes, order=None) -> PredictionMatrix:
    """A validation matrix whose column j is named ``E<order[j]>-A``."""
    predictions = np.asarray(predictions, dtype=np.int64)
    order = range(predictions.shape[1]) if order is None else order
    return PredictionMatrix(
        classifier_ids=tuple(ClassifierId(f"E{n:02d}", "A") for n in order),
        predictions=predictions,
        truth=np.asarray(truth, dtype=np.int64),
        num_classes=num_classes,
        split_tag=Split.VALIDATION,
    )


def _random_pm(rng, p, n, c=3) -> PredictionMatrix:
    """Random predictions, column j right with its own probability; names
    shuffled so the id tie-break matters."""
    truth = rng.integers(0, c, n)
    right = rng.random((n, p)) < rng.random(p)
    predictions = np.where(right, truth[:, None], rng.integers(0, c, (n, p)))
    return _pm(predictions, truth, c, order=rng.permutation(p))


def _sweep(pm, metric="accuracy", method="complete"):
    matrix = dissimilarity_matrix(pm)
    dendro = linkage(matrix, method)
    scores = evaluate_matrix(pm)
    return hierarchy_select(dendro, matrix, scores, metric=metric), matrix, dendro


class TestHierarchySelect:
    def test_k1_is_global_argmax_and_kp_is_full_pool(self, golden_scenario_pm):
        candidates, matrix, _ = _sweep(golden_scenario_pm)
        assert len(candidates) == 4
        assert [c.level_k for c in candidates] == [1, 2, 3, 4]
        assert [len(c.members) for c in candidates] == [1, 2, 3, 4]
        # k=1: the single best classifier (BERT-SVM at accuracy 0.9).
        assert [m.canonical for m in candidates[0].members] == ["BERT-SVM"]
        assert candidates[0].mean_pairwise_distance == 0.0
        # k=P: the entire pool.
        assert {m.canonical for m in candidates[-1].members} == {
            c.canonical for c in matrix.ids
        }

    def test_golden_level_three_members(self, golden_scenario_pm):
        candidates, _, _ = _sweep(golden_scenario_pm)
        assert {m.canonical for m in candidates[2].members} == {
            "BERT-SVM",
            "TFIDF-SVM",
            "GLOVE-LR",
        }

    def test_per_cluster_optimality(self, golden_scenario_pm):
        candidates, matrix, dendro = _sweep(golden_scenario_pm)
        scores = evaluate_matrix(golden_scenario_pm)
        names = [c.canonical for c in matrix.ids]
        for candidate in candidates:
            labels = f_cluster(dendro, candidate.level_k)
            for member in candidate.members:
                label = labels[names.index(member.canonical)]
                cluster = [names[i] for i in range(len(names)) if labels[i] == label]
                member_score = scores[member.canonical].accuracy
                assert all(scores[n].accuracy <= member_score for n in cluster)

    def test_score_scaling_leaves_members_unchanged(self, golden_scenario_pm):
        matrix = dissimilarity_matrix(golden_scenario_pm)
        dendro = linkage(matrix, "complete")
        scores = evaluate_matrix(golden_scenario_pm)
        scaled = {
            name: _entry(entry.accuracy * 0.31) for name, entry in scores.items()
        }
        base = hierarchy_select(dendro, matrix, scores)
        after = hierarchy_select(dendro, matrix, scaled)
        assert [c.members for c in base] == [c.members for c in after]

    def test_levelwise_members_nest(self):
        # One merge separates consecutive cuts, so each cluster's best
        # member survives the split: members(k) is always a subset of
        # members(k+1). Asserted here so nobody "fixes" it away.
        rng = np.random.default_rng(77)
        for _ in range(10):
            p = int(rng.integers(3, 9))
            matrix = dissimilarity_matrix(_random_pm(rng, p, int(rng.integers(1, 60))))
            dendro = linkage(matrix, "average")
            scores = {
                cid.canonical: _entry(float(rng.integers(0, 5)) / 4.0) for cid in matrix.ids
            }
            candidates = hierarchy_select(dendro, matrix, scores)
            for earlier, later in zip(candidates, candidates[1:]):
                assert set(earlier.members) <= set(later.members)

    def test_metric_and_score_validation(self, golden_scenario_pm):
        candidates, matrix, dendro = _sweep(golden_scenario_pm)
        scores = evaluate_matrix(golden_scenario_pm)
        with pytest.raises(ValueError, match="auc"):
            hierarchy_select(dendro, matrix, scores, metric="auc")
        incomplete = dict(scores)
        incomplete.pop("CV-NB")
        with pytest.raises(ValueError, match="CV-NB"):
            hierarchy_select(dendro, matrix, incomplete)

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_matches_per_level_cut_oracle(self, method):
        # Few instances make distance and linkage ties common, and scores
        # drawn from three values make score ties common; shuffled names make
        # the id tie-break matter.
        rng = np.random.default_rng(2024)
        for trial in range(60):
            p = int(rng.integers(2, 13))
            pm = _random_pm(rng, p, 4 if trial % 2 else int(rng.integers(1, 120)))
            matrix = dissimilarity_matrix(pm)
            dendro = linkage(matrix, method)
            leaf_scores = [float(v) for v in rng.choice([0.5, 0.6, 0.7], size=p)]
            names = [cid.canonical for cid in matrix.ids]
            scores = {name: _entry(v) for name, v in zip(names, leaf_scores)}

            oracle = level_sweep_oracle(dendro, exact_distance_oracle(pm), leaf_scores, names)
            candidates = hierarchy_select(dendro, matrix, scores)
            totals = within_cluster_totals(dendro, matrix)
            assert [c.level_k for c in candidates] == list(range(1, p + 1))
            assert len(totals) == p
            for candidate, total, (members, w, mean) in zip(candidates, totals, oracle):
                assert candidate.members == tuple(matrix.ids[i] for i in members)
                assert candidate.mean_pairwise_distance == float(mean)
                assert total == float(w)
            if p >= 3:
                assert elbow_select(dendro, matrix) == _chord_knee([float(w) for _, w, _ in oracle])


@st.composite
def _prediction_matrices(draw):
    p, n, c = draw(st.integers(2, 12)), draw(st.integers(1, 60)), draw(st.integers(2, 4))
    label = st.integers(0, c - 1)
    truth = draw(st.lists(label, min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(label, min_size=p, max_size=p), min_size=n, max_size=n))
    return _pm(rows, truth, c, order=draw(st.permutations(range(p))))


@settings(max_examples=60, deadline=None)
@given(_prediction_matrices())
def test_sweep_and_elbow_equal_rounded_fraction_oracle(pm):
    """Every level's mean distance and W(k) is its exact Fraction rounded
    once, under every linkage method, and the elbow is the oracle curve's knee.
    The report states each level as the first k of the sweep's join order."""
    matrix = dissimilarity_matrix(pm)
    scores = evaluate_matrix(pm)
    names = [cid.canonical for cid in matrix.ids]
    leaf_scores = [scores[name].accuracy for name in names]
    dist = exact_distance_oracle(pm)
    config = RunConfig(corpus="", rule="max-diversity")  # candidates are unscored here
    for method in LINKAGE_METHODS:
        dendro = linkage(matrix, method)
        oracle = level_sweep_oracle(dendro, dist, leaf_scores, names)
        candidates = hierarchy_select(dendro, matrix, scores)
        assert [c.mean_pairwise_distance for c in candidates] == [float(m) for _, _, m in oracle]
        report = _selection_report_doc(config, {"accuracy": candidates}, None)
        sweep_doc = report["metrics"]["accuracy"]
        assert_join_order(sweep_doc, candidates, sweep_doc["final"], names)
        curve = [float(w) for _, w, _ in oracle]
        assert within_cluster_totals(dendro, matrix) == curve
        if pm.n_classifiers >= 3:
            assert elbow_select(dendro, matrix) == _chord_knee(curve)


def _sweep_fixtures(seed, trials, max_p):
    """Seeded (prediction matrix, dissimilarity matrix, dendrogram, scores)
    for every linkage method. A third of the pools span 4 instances, where
    distances and level means tie often; a third span 80, where equal
    level means summed in another order can differ in the last bit."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        p = int(rng.integers(2, max_p + 1))
        pm = _random_pm(rng, p, (int(rng.integers(1, 200)), 4, 80)[trial % 3])
        matrix = dissimilarity_matrix(pm)
        scores = {cid.canonical: _entry(float(rng.integers(0, 5)) / 4.0) for cid in matrix.ids}
        for method in LINKAGE_METHODS:
            yield pm, matrix, linkage(matrix, method), scores


def test_joined_reproduces_oracle_levels():
    """Under every linkage method, the candidates' ``joined`` ids in level
    order are a permutation of the pool whose first k are the oracle's
    level-k members, and each level lists those members in the oracle's
    cluster-label order."""
    for pm, matrix, dendro, scores in _sweep_fixtures(909, 30, 20):
        names = [cid.canonical for cid in matrix.ids]
        leaf_scores = [scores[name].accuracy for name in names]
        candidates = hierarchy_select(dendro, matrix, scores)
        joined = [names.index(c.joined.canonical) for c in candidates]
        assert sorted(joined) == list(range(len(names)))
        oracle = level_sweep_oracle(dendro, exact_distance_oracle(pm), leaf_scores, names)
        for k, (members, _, _) in enumerate(oracle, start=1):
            assert set(joined[:k]) == set(members), k
            assert [names.index(m.canonical) for m in candidates[k - 1].members] == members, k


def _oracle_distances(pm, candidates):
    names = [cid.canonical for cid in pm.classifier_ids]
    dist = exact_distance_oracle(pm)
    return [
        float(exact_mean_oracle(dist, [names.index(m.canonical) for m in c.members]))
        for c in candidates
    ]


class TestSweepDistances:
    """Candidate distances are their exact mean rounded once: ``choose_final``
    breaks score ties on distance, so two levels tie exactly when their
    exact means round to the same float, never by summation order."""

    def test_mean_distance_is_exact_mean_rounded_once(self):
        for pm, matrix, dendro, scores in _sweep_fixtures(606, 30, 40):
            candidates = hierarchy_select(dendro, matrix, scores)
            distances = [c.mean_pairwise_distance for c in candidates]
            assert distances == _oracle_distances(pm, candidates)

    def test_mean_distance_on_double_fault_matrix(self, redundant_validation_pm,
                                                  golden_scenario_pm):
        for pm in (redundant_validation_pm, golden_scenario_pm):
            for method in LINKAGE_METHODS:
                candidates, _, _ = _sweep(pm, method=method)
                distances = [c.mean_pairwise_distance for c in candidates]
                assert distances == _oracle_distances(pm, candidates)

    @pytest.mark.parametrize("rule", ["max-validation", "max-diversity", "weighted"])
    def test_choose_final_agrees_with_oracle_distances(self, rule):
        rng = np.random.default_rng(707)
        for pm, matrix, dendro, scores in _sweep_fixtures(808, 30, 30):
            fast = [
                c.with_score(float(rng.integers(0, 4)) / 4.0)
                for c in hierarchy_select(dendro, matrix, scores)
            ]
            oracle = [
                replace(c, mean_pairwise_distance=d)
                for c, d in zip(fast, _oracle_distances(pm, fast))
            ]
            assert choose_final(fast, rule).level_k == choose_final(oracle, rule).level_k

    def test_matrix_without_counts_is_rejected(self, golden_scenario_pm):
        built = dissimilarity_matrix(golden_scenario_pm)
        matrix = DissimilarityMatrix(built.ids, built.values)
        dendro = linkage(matrix, "complete")
        with pytest.raises(ValueError, match="co-failure counts"):
            hierarchy_select(dendro, matrix, evaluate_matrix(golden_scenario_pm))
        with pytest.raises(ValueError, match="co-failure counts"):
            elbow_select(dendro, matrix)

    def test_counts_beyond_two_to_the_53_raise(self):
        # Three classifiers have three pairs: 3·N must stay below 2**53.
        ids = tuple(ClassifierId(f"E{i}", "A") for i in range(3))
        counts = np.array([[5, 1, 2], [1, 6, 3], [2, 3, 7]])
        scores = {cid.canonical: _entry(0.5) for cid in ids}

        def matrix(n):
            values = 1.0 - counts / n
            np.fill_diagonal(values, 0.0)
            return DissimilarityMatrix(ids, values, counts, n)

        below = matrix((2**53 - 1) // 3)
        dendro = linkage(below, "complete")
        exact = float(1 - Fraction(1 + 2 + 3, 3 * below.n_instances))
        assert hierarchy_select(dendro, below, scores)[-1].mean_pairwise_distance == exact
        beyond = matrix(2**52)
        for select in (lambda m: hierarchy_select(dendro, m, scores),
                       lambda m: elbow_select(dendro, m)):
            with pytest.raises(ValueError, match="2\\*\\*53"):
                select(beyond)


def _candidate(k, dist, score, names=None):
    names = names or [f"E{k}{i:02d}-A" for i in range(k)]
    return EnsembleCandidate(
        level_k=k,
        members=tuple(ClassifierId.parse(n) for n in names),
        joined=ClassifierId.parse(names[-1]),
        mean_pairwise_distance=dist,
        validation_score=score,
    )


class TestChooseFinal:
    def test_single_candidate_returned(self):
        only = _candidate(1, 0.0, 0.9)
        assert choose_final([only], "max-validation") is only

    def test_max_diversity_tie_breaks_on_score(self):
        a = _candidate(2, 0.8, 0.9)
        b = _candidate(3, 0.8, 0.8)
        assert choose_final([a, b], "max-diversity") is a

    def test_max_validation_tie_breaks_on_distance_then_k(self):
        a = _candidate(4, 0.5, 0.9)
        b = _candidate(2, 0.7, 0.9)
        assert choose_final([a, b], "max-validation") is b
        c = _candidate(3, 0.7, 0.9)
        assert choose_final([b, c], "max-validation") is b

    def test_weighted_blend(self):
        a = _candidate(2, 1.0, 0.0)
        b = _candidate(3, 0.0, 0.9)
        assert choose_final([a, b], "weighted", alpha=0.5) is a
        assert choose_final([a, b], "weighted", alpha=1.0) is b

    def test_score_required_when_rule_needs_it(self):
        unscored = EnsembleCandidate(
            level_k=1,
            members=(ClassifierId("CV", "NB"),),
            joined=ClassifierId("CV", "NB"),
            mean_pairwise_distance=0.0,
        )
        with pytest.raises(ValueError, match="validation"):
            choose_final([unscored], "max-validation")
        assert choose_final([unscored], "max-diversity") is unscored

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            choose_final([_candidate(1, 0.0, 1.0)], "best-vibes")


class TestElbow:
    def test_linear_curve_degenerates_to_k2(self):
        # Every interior point sits on the chord; the tie chain returns the
        # smallest interior level.
        assert _chord_knee([10.0, 7.5, 5.0, 2.5, 0.0]) == 2

    def test_sharp_knee_is_found(self):
        w = [10.0, 6.0, 2.0, 1.5, 1.0, 0.5, 0.0]
        assert _chord_knee(w) == 3

    def test_zero_matrix_elbow_is_two(self):
        # Four columns wrong on every instance: every distance is 0.
        matrix = dissimilarity_matrix(_pm(np.ones((5, 4)), np.zeros(5), 2))
        assert not matrix.values.any()
        dendro = linkage(matrix, "complete")
        assert elbow_select(dendro, matrix) == 2

    def test_two_exact_blobs_knee_at_two(self):
        # Two groups of three identical always-half-wrong columns with
        # disjoint error supports: within-blob distance 0.5, across 1.0.
        truth = np.zeros(20, dtype=np.int64)
        blob_a = truth.copy()
        blob_a[:10] = 1
        blob_b = truth.copy()
        blob_b[10:] = 1
        cols = [blob_a] * 3 + [blob_b] * 3
        matrix = dissimilarity_matrix(_pm(np.stack(cols, axis=1), truth, 2))
        dendro = linkage(matrix, "complete")
        totals = within_cluster_totals(dendro, matrix)
        assert totals[1] == pytest.approx(3.0)  # two intact blobs
        assert elbow_select(dendro, matrix) == 2

    def test_requires_three_classifiers(self):
        matrix = dissimilarity_matrix(_pm([[1, 0], [0, 1]], [0, 0], 2))
        assert matrix.values[0, 1] == 1.0
        dendro = linkage(matrix, "complete")
        with pytest.raises(ValueError):
            elbow_select(dendro, matrix)


class TestGroups:
    def _pool_ids(self, extractors=5, algorithms=8):
        exts = [f"EXT{i}" for i in range(extractors)]
        algs = [f"ALG{j}" for j in range(algorithms)]
        return [ClassifierId(e, a) for e in exts for a in algs]

    def test_group_c_is_full_pool(self):
        ids = self._pool_ids()
        assert len(group_members(ids, "C")) == 40

    def test_group_a_one_per_extractor(self):
        ids = self._pool_ids()
        members = group_members(ids, "A", "ALG0")
        assert len(members) == 5
        assert all(m.algorithm == "ALG0" for m in members)

    def test_group_b_one_per_algorithm(self):
        ids = self._pool_ids()
        members = group_members(ids, "B", "EXT0")
        assert len(members) == 8
        assert all(m.extractor == "EXT0" for m in members)

    def test_unknown_token_rejected_by_name(self):
        ids = self._pool_ids(2, 2)
        with pytest.raises(ValueError, match="NOPE"):
            group_members(ids, "A", "NOPE")
        with pytest.raises(ValueError):
            group_members(ids, "B")


class TestBaseline:
    def test_reference_values(self):
        assert random_baseline(2) == 0.5
        assert round(random_baseline(6), 3) == 0.167
        assert random_baseline(4) == 0.25

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            random_baseline(1)

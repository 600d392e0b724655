"""Level sweep, final-choice rules, elbow heuristic, groups, baseline."""

from dataclasses import replace

import numpy as np
import pytest

from hsel.core import ClassifierId, EvalEntry, evaluate_matrix
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
    retirement_order,
    within_cluster_totals,
)

from oracles import block_mean_oracle, level_sweep_oracle, random_symmetric_matrix


def _entry(value: float) -> EvalEntry:
    return EvalEntry(accuracy=value, precision=value, recall=value, f1=value)


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
        from hsel.hiercluster import f_cluster

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
            values = random_symmetric_matrix(rng, p)
            ids = tuple(ClassifierId(f"E{i:02d}", "A") for i in range(p))
            matrix = DissimilarityMatrix(ids=ids, values=values)
            dendro = linkage(matrix, "average")
            scores = {
                cid.canonical: _entry(float(rng.integers(0, 5)) / 4.0) for cid in ids
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
        # Coarse distances and scores drawn from three values make linkage ties
        # and score ties common; shuffled names make the id tie-break matter.
        rng = np.random.default_rng(2024)
        for trial in range(60):
            p = int(rng.integers(2, 13))
            values = random_symmetric_matrix(rng, p)
            if trial % 2:
                values = np.round(values * 4) / 4
            ids = tuple(ClassifierId(f"E{n}", "A") for n in rng.permutation(p))
            matrix = DissimilarityMatrix(ids=ids, values=values)
            dendro = linkage(matrix, method)
            leaf_scores = [float(v) for v in rng.choice([0.5, 0.6, 0.7], size=p)]
            names = [cid.canonical for cid in ids]
            scores = {name: _entry(v) for name, v in zip(names, leaf_scores)}

            oracle = level_sweep_oracle(dendro, matrix.values, leaf_scores, names)
            candidates = hierarchy_select(dendro, matrix, scores)
            totals = within_cluster_totals(dendro, matrix)
            assert [c.level_k for c in candidates] == list(range(1, p + 1))
            assert len(totals) == p
            for candidate, total, (members, w, mean) in zip(candidates, totals, oracle):
                assert candidate.members == tuple(ids[i] for i in members)
                assert candidate.mean_pairwise_distance == pytest.approx(mean, abs=1e-12)
                assert total == pytest.approx(w, abs=1e-12)
            if p >= 3:
                assert elbow_select(dendro, matrix) == _chord_knee([w for _, w, _ in oracle])


def _sweep_fixtures(seed, trials, max_p):
    """Seeded (matrix, dendrogram, scores) triples for every linkage method.
    A third of the matrices are on a 0.25 grid, where pair sums are exact and
    distances tie; a third are on a 1/80 grid, like double-fault distances
    over 80 rows, where equal means can differ by rounding."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        p = int(rng.integers(2, max_p + 1))
        values = random_symmetric_matrix(rng, p)
        if trial % 3:
            steps = 4 if trial % 3 == 1 else 80
            values = np.round(values * steps) / steps
        ids = tuple(ClassifierId(f"E{n:02d}", "A") for n in rng.permutation(p))
        matrix = DissimilarityMatrix(ids=ids, values=values)
        scores = {cid.canonical: _entry(float(rng.integers(0, 5)) / 4.0) for cid in ids}
        for method in LINKAGE_METHODS:
            yield matrix, linkage(matrix, method), scores


def test_retirement_order_reproduces_oracle_levels():
    for matrix, dendro, scores in _sweep_fixtures(909, 30, 20):
        names = [cid.canonical for cid in matrix.ids]
        leaf_scores = [scores[name].accuracy for name in names]
        order = retirement_order(dendro, [(-s, name) for s, name in zip(leaf_scores, names)])
        assert sorted(order) == list(range(len(names)))
        oracle = level_sweep_oracle(dendro, matrix.values, leaf_scores, names)
        for k, (members, _, _) in enumerate(oracle, start=1):
            assert set(order[:k]) == set(members), k


def _oracle_distances(matrix, candidates):
    names = [cid.canonical for cid in matrix.ids]
    return [
        block_mean_oracle(matrix.values, [names.index(m.canonical) for m in c.members])
        for c in candidates
    ]


class TestSweepDistances:
    """Candidate distances are bit-identical to the ``np.ix_`` block mean
    they were first computed with: ``choose_final`` breaks score ties on
    distance, so a last-bit change can move the deployed level."""

    def test_mean_distance_matches_block_mean_exactly(self):
        for matrix, dendro, scores in _sweep_fixtures(606, 30, 40):
            candidates = hierarchy_select(dendro, matrix, scores)
            distances = [c.mean_pairwise_distance for c in candidates]
            assert distances == _oracle_distances(matrix, candidates)

    def test_mean_distance_on_double_fault_matrix(self, redundant_validation_pm):
        candidates, matrix, _ = _sweep(redundant_validation_pm, method="average")
        distances = [c.mean_pairwise_distance for c in candidates]
        assert distances == _oracle_distances(matrix, candidates)

    @pytest.mark.parametrize("rule", ["max-validation", "max-diversity", "weighted"])
    def test_choose_final_agrees_with_oracle_distances(self, rule):
        rng = np.random.default_rng(707)
        for matrix, dendro, scores in _sweep_fixtures(808, 30, 30):
            fast = [
                c.with_score(float(rng.integers(0, 4)) / 4.0)
                for c in hierarchy_select(dendro, matrix, scores)
            ]
            oracle = [
                replace(c, mean_pairwise_distance=d)
                for c, d in zip(fast, _oracle_distances(matrix, fast))
            ]
            assert choose_final(fast, rule).level_k == choose_final(oracle, rule).level_k


def _candidate(k, dist, score, names=None):
    names = names or [f"E{k}{i:02d}-A" for i in range(k)]
    return EnsembleCandidate(
        level_k=k,
        metric_name="accuracy",
        members=tuple(ClassifierId.parse(n) for n in names),
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
            metric_name="accuracy",
            members=(ClassifierId("CV", "NB"),),
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
        values = np.zeros((4, 4))
        ids = tuple(ClassifierId(f"E{i}", "A") for i in range(4))
        matrix = DissimilarityMatrix(ids=ids, values=values)
        dendro = linkage(matrix, "complete")
        assert elbow_select(dendro, matrix) == 2

    def test_two_exact_blobs_knee_at_two(self):
        # Two groups of three identical always-half-wrong columns with
        # disjoint error supports: within-blob distance 0.5, across 1.0.
        from hsel.core import PredictionMatrix, Split

        truth = np.zeros(20, dtype=np.int64)
        blob_a = truth.copy()
        blob_a[:10] = 1
        blob_b = truth.copy()
        blob_b[10:] = 1
        cols = [blob_a] * 3 + [blob_b] * 3
        pm = PredictionMatrix(
            classifier_ids=tuple(ClassifierId(f"E{i}", "A") for i in range(6)),
            predictions=np.stack(cols, axis=1),
            truth=truth,
            num_classes=2,
            split_tag=Split.VALIDATION,
        )
        matrix = dissimilarity_matrix(pm)
        dendro = linkage(matrix, "complete")
        totals = within_cluster_totals(dendro, matrix)
        assert totals[1] == pytest.approx(3.0)  # two intact blobs
        assert elbow_select(dendro, matrix) == 2

    def test_requires_three_classifiers(self):
        values = np.array([[0.0, 0.5], [0.5, 0.0]])
        ids = (ClassifierId("E0", "A"), ClassifierId("E1", "A"))
        matrix = DissimilarityMatrix(ids=ids, values=values)
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

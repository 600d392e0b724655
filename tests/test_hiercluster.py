"""Agglomerative clustering: linkage methods, flat cuts, exports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsel.core import ClassifierId
from hsel.diversity import DissimilarityMatrix, dissimilarity_matrix
from hsel.hiercluster import LINKAGE_METHODS, Dendrogram, MergeStep, linkage, write_dendrogram

from conftest import dissimilarity
from oracles import (
    RANDOM_N,
    brute_force_linkage,
    f_cluster,
    random_symmetric_matrix,
    scan_linkage_oracle,
)


def _counts3(c01, c02, c12):
    return np.array([[0, c01, c02], [c01, 0, c12], [c02, c12, 0]])


def _random_matrix(rng, p, n=RANDOM_N):
    """Random co-failure counts in 0..n as a matrix over ``n`` instances."""
    return dissimilarity(random_symmetric_matrix(rng, p, n), n)


# Over N = 8 instances, the distances 0.125, 0.875 and 0.75.
_THREE = _counts3(7, 1, 2), 8


class TestLinkageSmallCases:
    def test_leaf_ids_come_from_the_matrix(self):
        ids = tuple(ClassifierId.parse(s) for s in ("CV-NB", "CV-LR", "TFIDF-NB"))
        assert linkage(DissimilarityMatrix(ids, *_THREE)).leaf_ids == ids

    def test_single_linkage_three_points(self):
        dendro = linkage(dissimilarity(*_THREE), "single")
        assert (dendro.merges[0].left, dendro.merges[0].right) == (0, 1)
        assert dendro.merges[0].distance == 0.125
        # Cluster {0,1} is node 3; nearest under min-linkage is leaf 2 at 0.75.
        assert (dendro.merges[1].left, dendro.merges[1].right) == (2, 3)
        assert dendro.merges[1].distance == 0.75

    def test_complete_linkage_three_points(self):
        dendro = linkage(dissimilarity(*_THREE), "complete")
        assert dendro.merges[1].distance == 0.875

    def test_average_linkage_three_points(self):
        dendro = linkage(dissimilarity(*_THREE), "average")
        assert dendro.merges[1].distance == pytest.approx((0.875 + 0.75) / 2)

    def test_two_points_single_merge_every_method(self):
        m = dissimilarity([[0, 3], [3, 0]], 5)
        for method in ("single", "complete", "average", "centroid"):
            dendro = linkage(m, method)
            assert len(dendro.merges) == 1
            assert dendro.merges[0] == MergeStep(left=0, right=1, distance=0.4, size=2)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="ward"):
            linkage(dissimilarity(np.zeros((2, 2), dtype=np.int64), 1), "ward")

    def test_centroid_may_invert(self):
        # Merging the close pair pulls the merged centroid nearer to the
        # remaining point than the first merge distance: an inversion.
        dendro = linkage(dissimilarity(_counts3(25, 25, 26), 50), "centroid")
        assert dendro.merges[0].distance == 0.48
        assert dendro.merges[1].distance == pytest.approx(0.5 - 0.48 / 4)
        assert dendro.merges[1].distance < dendro.merges[0].distance

    def test_monotone_merges_for_sca(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = int(rng.integers(3, 9))
            matrix = _random_matrix(rng, p)
            for method in ("single", "complete", "average"):
                distances = [s.distance for s in linkage(matrix, method).merges]
                assert all(b >= a for a, b in zip(distances, distances[1:])), method

    def test_deterministic_tie_break_on_equal_matrix(self):
        # All distances equal: merges pair the smallest node indices first.
        dendro = linkage(dissimilarity(np.ones((6, 6), dtype=np.int64), 2), "complete")
        pairs = [(s.left, s.right) for s in dendro.merges]
        assert pairs == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_diagonal_counts_do_not_move_merges(self, method):
        # A count table's diagonal holds each classifier's own error count,
        # which no distance reads: any diagonal gives the same dendrogram.
        rng = np.random.default_rng(31)
        counts = random_symmetric_matrix(rng, 7)
        errors = counts.copy()
        np.fill_diagonal(errors, rng.integers(0, RANDOM_N + 1, 7))
        assert linkage(dissimilarity(errors, RANDOM_N), method) == \
            linkage(dissimilarity(counts, RANDOM_N), method)


class TestOracleEquivalence:
    @pytest.mark.parametrize("method", ["single", "complete", "average", "centroid"])
    def test_matches_brute_force_reference(self, method):
        rng = np.random.default_rng(100)
        for _ in range(30):
            p = int(rng.integers(2, 9))
            matrix = _random_matrix(rng, p)
            dendro = linkage(matrix, method)
            reference = brute_force_linkage(matrix.values, method)
            assert len(dendro.merges) == len(reference)
            for step, (left, right, distance, size, _) in zip(dendro.merges, reference):
                assert (step.left, step.right) == (left, right)
                assert step.size == size
                assert step.distance == pytest.approx(distance, abs=1e-12)

    def test_equal_matrix_matches_reference_exactly(self):
        matrix = dissimilarity(np.ones((7, 7), dtype=np.int64), 2)
        for method in ("single", "complete", "average"):
            dendro = linkage(matrix, method)
            reference = brute_force_linkage(matrix.values, method)
            assert [(s.left, s.right, s.distance) for s in dendro.merges] == [
                (l, r, d) for l, r, d, _, _ in reference
            ]

    @pytest.mark.parametrize("method", ["single", "complete", "average", "centroid"])
    def test_leaf_permutation_equivariance(self, method):
        # Relabeling the leaves and permuting the matrix identically must
        # give an isomorphic dendrogram: same merged leaf sets (mapped
        # through the permutation) at the same distances.
        rng = np.random.default_rng(900)
        for _ in range(10):
            p = int(rng.integers(3, 8))
            counts = random_symmetric_matrix(rng, p)
            perm = rng.permutation(p)
            permuted = counts[np.ix_(perm, perm)]

            def leaf_sets(dendro, p):
                members = {i: frozenset([i]) for i in range(p)}
                out = []
                for step_index, step in enumerate(dendro.merges):
                    merged = members[step.left] | members[step.right]
                    members[p + step_index] = merged
                    out.append((merged, step.distance))
                return out

            base = leaf_sets(linkage(dissimilarity(counts, RANDOM_N), method), p)
            # Row i of the permuted matrix is original item perm[i]: map the
            # permuted dendrogram's leaf sets back through perm.
            mapped = [
                (frozenset(int(perm[i]) for i in leaves), d)
                for leaves, d in leaf_sets(linkage(dissimilarity(permuted, RANDOM_N), method), p)
            ]
            key = lambda pair: tuple(sorted(pair[0]))
            for (leaves_a, d_a), (leaves_b, d_b) in zip(
                sorted(base, key=key), sorted(mapped, key=key)
            ):
                assert leaves_a == leaves_b
                assert d_a == pytest.approx(d_b, abs=1e-12)


class TestScanOracle:
    """The array-algebra linkage against the pair-scan agglomerator it
    replaced: same Lance-Williams operand order, so every merge must agree
    exactly, ties included."""

    @pytest.mark.parametrize("method", ["single", "complete", "average", "centroid"])
    def test_matches_scan_oracle_exactly(self, method):
        rng = np.random.default_rng(4242)
        for trial in range(60):
            p = int(rng.integers(2, 31))
            # Odd trials put the distances on a 0.25 grid: ties are common.
            matrix = _random_matrix(rng, p, 4 if trial % 2 else RANDOM_N)
            merges = linkage(matrix, method).merges
            got = [(s.left, s.right, s.distance, s.size) for s in merges]
            assert got == scan_linkage_oracle(matrix.values, method), (trial, p)

    @pytest.mark.parametrize("method", ["single", "complete", "average"])
    def test_heights_match_scipy_on_tie_free_matrices(self, method):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        from scipy.spatial.distance import squareform

        rng = np.random.default_rng(31)
        for _ in range(20):
            p = int(rng.integers(2, 40))
            matrix = _random_matrix(rng, p)
            reference = hierarchy.linkage(squareform(matrix.values), method=method)
            merges = linkage(matrix, method).merges
            assert [s.distance for s in merges] == pytest.approx(reference[:, 2], abs=1e-12)
            assert [s.size for s in merges] == reference[:, 3].astype(int).tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_scan_oracle_on_tie_heavy_matrices(self, data):
        # Counts over N = 1-4 instances put the distances on a grid of 1-4
        # steps: most rows hold several equal minima, so the cached row
        # minima and the rescans decide ties.
        p = data.draw(st.integers(2, 40), label="p")
        grid = data.draw(st.integers(1, 4), label="grid")
        upper = data.draw(st.lists(st.integers(0, grid), min_size=p * (p - 1) // 2,
                                   max_size=p * (p - 1) // 2), label="cells")
        counts = np.zeros((p, p), dtype=np.int64)
        counts[np.triu_indices(p, 1)] = upper
        matrix = dissimilarity(counts + counts.T, grid)
        for method in ("single", "complete", "average", "centroid"):
            merges = linkage(matrix, method).merges
            got = [(s.left, s.right, s.distance, s.size) for s in merges]
            assert got == scan_linkage_oracle(matrix.values, method), method

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    @pytest.mark.parametrize("shape", ["absorbing-core", "tie-heavy"])
    def test_matches_scan_oracle_where_rows_stay_stale(self, shape, method):
        # Absorbing core: squared distances of a tight core of 20 points and
        # a shell of 180 unit vectors in 50 dimensions. Under centroid
        # linkage the core merges first and its slot is then the nearest
        # column of every shell row, so each shell point it absorbs makes
        # those rows stale: they keep their old minimum as a lower bound and
        # are rescanned only when it is the least; the squared distances,
        # scaled into [0, 1], are quantised to counts over N = 2**30.
        # Tie-heavy: a 0.25 grid, where many rows share each minimum.
        rng = np.random.default_rng(36)
        p = 200
        if shape == "absorbing-core":
            shell = rng.normal(size=(p - 20, 50))
            points = np.vstack([rng.normal(scale=0.05, size=(20, 50)),
                                shell / np.linalg.norm(shell, axis=1, keepdims=True)])
            squared = ((points[:, None] - points[None]) ** 2).sum(axis=2)
            counts = np.round((1.0 - squared / squared.max()) * RANDOM_N).astype(np.int64)
            matrix = dissimilarity(counts, RANDOM_N)
        else:
            matrix = _random_matrix(rng, p, 4)
        merges = linkage(matrix, method).merges
        got = [(s.left, s.right, s.distance, s.size) for s in merges]
        assert got == scan_linkage_oracle(matrix.values, method)


class TestFCluster:
    def _dendro(self):
        return linkage(dissimilarity(*_THREE), "complete")

    def test_k_one_single_cluster(self):
        assert f_cluster(self._dendro(), 1).tolist() == [1, 1, 1]

    def test_k_equals_p_singletons(self):
        assert f_cluster(self._dendro(), 3).tolist() == [1, 2, 3]

    def test_intermediate_cut(self):
        assert f_cluster(self._dendro(), 2).tolist() == [1, 1, 2]

    def test_k_out_of_range_rejected(self):
        dendro = self._dendro()
        with pytest.raises(ValueError):
            f_cluster(dendro, 0)
        with pytest.raises(ValueError):
            f_cluster(dendro, 4)

    def test_labels_ordered_by_smallest_leaf(self):
        # Leaves 2 and 3 merge first, but leaf 0 still anchors label 1.
        # Over N = 10 instances: leaves 2 and 3 sit about 0.1 apart, the
        # other pairs 0.7-0.9.
        counts = np.array([[0, 1, 2, 2], [1, 0, 3, 3], [2, 3, 0, 9], [2, 3, 9, 0]])
        labels = f_cluster(linkage(dissimilarity(counts, 10), "complete"), 3)
        assert labels.tolist() == [1, 2, 3, 3]

    def test_exactly_k_clusters_and_refinement(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            p = int(rng.integers(2, 9))
            matrix = _random_matrix(rng, p)
            for method in ("single", "complete", "average", "centroid"):
                dendro = linkage(matrix, method)
                previous = None
                for k in range(p, 0, -1):
                    labels = f_cluster(dendro, k)
                    assert len(set(labels.tolist())) == k
                    if previous is not None:
                        # Coarsening: same label at k+1 implies same label at k.
                        for i in range(p):
                            for j in range(i + 1, p):
                                if previous[i] == previous[j]:
                                    assert labels[i] == labels[j]
                    previous = labels


class TestGoldenScenario:
    def test_first_merge_and_three_cluster_cut(self, golden_scenario_pm):
        matrix = dissimilarity_matrix(golden_scenario_pm)
        assert matrix.values[2, 3] == pytest.approx(0.8)
        dendro = linkage(matrix, "complete")
        assert (dendro.merges[0].left, dendro.merges[0].right) == (2, 3)
        labels = f_cluster(dendro, 3)
        by_cluster = {}
        for cid, label in zip(matrix.ids, labels):
            by_cluster.setdefault(int(label), set()).add(cid.canonical)
        assert by_cluster == {
            1: {"BERT-SVM"},
            2: {"TFIDF-SVM"},
            3: {"GLOVE-LR", "CV-NB"},
        }


class TestDendrogramExport:
    @pytest.mark.parametrize("method, root", [
        ("single", "0.5"), ("complete", "0.75"), ("average", "0.625"), ("centroid", "0.5625")])
    def test_full_text_of_three_leaf_example(self, tmp_path, method, root):
        ids = tuple(ClassifierId.parse(s) for s in ("CV-NB", "CV-LR", "TFIDF-NB"))
        # Over N = 4 instances, the distances 0.25, 0.5 and 0.75.
        dendro = linkage(DissimilarityMatrix(ids, _counts3(3, 2, 1), 4), method)
        path = tmp_path / "dendro.txt"
        write_dendrogram(dendro, str(path))
        assert path.read_text(encoding="utf-8") == (
            "hsel-dendrogram v1\n"
            "leaves 3\n"
            "0 CV-NB\n"
            "1 CV-LR\n"
            "2 TFIDF-NB\n"
            "merges 2\n"
            "3 0 1 0.25 2\n"
            f"4 2 3 {root} 3\n"
        )

    @pytest.mark.parametrize("method", ["single", "complete", "average", "centroid"])
    def test_merge_lines_hold_each_step_at_full_precision(self, tmp_path, method):
        rng = np.random.default_rng(77)
        path = tmp_path / "dendro.txt"
        for _ in range(10):
            p = int(rng.integers(2, 12))
            dendro = linkage(_random_matrix(rng, p), method)
            write_dendrogram(dendro, str(path))
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[:2] == ["hsel-dendrogram v1", f"leaves {p}"]
            assert lines[2:p + 2] == [f"{i} ITEM-N{i}" for i in range(p)]
            assert lines[p + 2] == f"merges {p - 1}"
            assert len(lines) == 2 * p + 2
            for index, (line, step) in enumerate(zip(lines[p + 3:], dendro.merges)):
                fields = line.split(" ")
                assert fields == [str(p + index), str(step.left), str(step.right),
                                  repr(step.distance), str(step.size)]
                assert float(fields[3]) == step.distance

    @pytest.mark.parametrize("merges, message", [
        ([(0, 1, 2)], "expected 2 merges for 3 leaves, got 1"),
        ([(0, 1, 2), (0, 3, 3)], "node 0 appears as a child more than once"),
        ([(1, 1, 2), (0, 3, 3)], "node 1 appears as a child more than once"),
        ([(0, 4, 2), (1, 2, 2)], "merge references unknown node 4"),
        ([(0, 1, 3), (2, 3, 3)], "merge 0: size does not equal children sizes"),
        ([(0, 1, 2), (2, 3, 4)], "merge 1: size does not equal children sizes"),
    ])
    def test_structural_validation(self, merges, message):
        ids = tuple(ClassifierId("A", x) for x in "XYZ")
        steps = tuple(MergeStep(left, right, 0.5, size) for left, right, size in merges)
        with pytest.raises(ValueError, match=message):
            Dendrogram(leaf_ids=ids, merges=steps)

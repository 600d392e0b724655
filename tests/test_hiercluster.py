"""Agglomerative clustering: linkage methods, flat cuts, exports."""

import re

import numpy as np
import pytest

from hsel.core import ClassifierId
from hsel.diversity import dissimilarity_matrix
from hsel.hiercluster import (
    Dendrogram,
    MergeStep,
    linkage,
    read_dendrogram,
    write_dendrogram,
)

from oracles import brute_force_linkage, f_cluster, random_symmetric_matrix, scan_linkage_oracle


def _matrix3(d01, d02, d12):
    return np.array([[0.0, d01, d02], [d01, 0.0, d12], [d02, d12, 0.0]])


class TestLinkageSmallCases:
    def test_single_linkage_three_points(self):
        dendro = linkage(_matrix3(0.1, 0.9, 0.8), "single")
        assert (dendro.merges[0].left, dendro.merges[0].right) == (0, 1)
        assert dendro.merges[0].distance == 0.1
        # Cluster {0,1} is node 3; nearest under min-linkage is leaf 2 at 0.8.
        assert (dendro.merges[1].left, dendro.merges[1].right) == (2, 3)
        assert dendro.merges[1].distance == 0.8

    def test_complete_linkage_three_points(self):
        dendro = linkage(_matrix3(0.1, 0.9, 0.8), "complete")
        assert dendro.merges[1].distance == 0.9

    def test_average_linkage_three_points(self):
        dendro = linkage(_matrix3(0.1, 0.9, 0.8), "average")
        assert dendro.merges[1].distance == pytest.approx((0.9 + 0.8) / 2)

    def test_two_points_single_merge_every_method(self):
        m = np.array([[0.0, 0.4], [0.4, 0.0]])
        for method in ("single", "complete", "average", "centroid"):
            dendro = linkage(m, method)
            assert len(dendro.merges) == 1
            assert dendro.merges[0] == MergeStep(left=0, right=1, distance=0.4, size=2)

    def test_rejects_nonsquare_and_asymmetric(self):
        with pytest.raises(ValueError, match="square"):
            linkage(np.zeros((2, 3)), "single")
        with pytest.raises(ValueError, match="symmetric"):
            linkage(np.array([[0.0, 0.1], [0.2, 0.0]]), "single")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="ward"):
            linkage(np.zeros((2, 2)), "ward")

    def test_centroid_inversion_is_flagged(self):
        # Merging the close pair pulls the merged centroid nearer to the
        # remaining point than the first merge distance: an inversion.
        m = _matrix3(0.5, 0.5, 0.48)
        dendro = linkage(m, "centroid")
        assert dendro.merges[0].distance == 0.48
        assert dendro.merges[1].distance == pytest.approx(0.5 - 0.48 / 4)
        assert dendro.has_inversions

    def test_monotone_merges_for_sca(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = int(rng.integers(3, 9))
            values = random_symmetric_matrix(rng, p)
            for method in ("single", "complete", "average"):
                distances = [s.distance for s in linkage(values, method).merges]
                assert all(b >= a for a, b in zip(distances, distances[1:])), method

    def test_deterministic_tie_break_on_equal_matrix(self):
        # All distances equal: merges pair the smallest node indices first.
        p = 6
        values = np.full((p, p), 0.5)
        np.fill_diagonal(values, 0.0)
        dendro = linkage(values, "complete")
        pairs = [(s.left, s.right) for s in dendro.merges]
        assert pairs == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]


class TestOracleEquivalence:
    @pytest.mark.parametrize("method", ["single", "complete", "average", "centroid"])
    def test_matches_brute_force_reference(self, method):
        rng = np.random.default_rng(100)
        for _ in range(30):
            p = int(rng.integers(2, 9))
            values = random_symmetric_matrix(rng, p)
            dendro = linkage(values, method)
            reference = brute_force_linkage(values, method)
            assert len(dendro.merges) == len(reference)
            for step, (left, right, distance, size, _) in zip(dendro.merges, reference):
                assert (step.left, step.right) == (left, right)
                assert step.size == size
                assert step.distance == pytest.approx(distance, abs=1e-12)

    def test_equal_matrix_matches_reference_exactly(self):
        p = 7
        values = np.full((p, p), 0.5)
        np.fill_diagonal(values, 0.0)
        for method in ("single", "complete", "average"):
            dendro = linkage(values, method)
            reference = brute_force_linkage(values, method)
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
            values = random_symmetric_matrix(rng, p)
            perm = rng.permutation(p)
            permuted = values[np.ix_(perm, perm)]

            def leaf_sets(dendro, p):
                members = {i: frozenset([i]) for i in range(p)}
                out = []
                for step_index, step in enumerate(dendro.merges):
                    merged = members[step.left] | members[step.right]
                    members[p + step_index] = merged
                    out.append((merged, step.distance))
                return out

            base = leaf_sets(linkage(values, method), p)
            # Row i of the permuted matrix is original item perm[i]: map the
            # permuted dendrogram's leaf sets back through perm.
            mapped = [
                (frozenset(int(perm[i]) for i in leaves), d)
                for leaves, d in leaf_sets(linkage(permuted, method), p)
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
            values = random_symmetric_matrix(rng, p)
            if trial % 2:
                values = np.round(values * 4) / 4  # a 0.25 grid: ties are common
            got = [(s.left, s.right, s.distance, s.size) for s in linkage(values, method).merges]
            assert got == scan_linkage_oracle(values, method), (trial, p)

    @pytest.mark.parametrize("method", ["single", "complete", "average"])
    def test_heights_match_scipy_on_tie_free_matrices(self, method):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        from scipy.spatial.distance import squareform

        rng = np.random.default_rng(31)
        for _ in range(20):
            p = int(rng.integers(2, 40))
            values = random_symmetric_matrix(rng, p)
            reference = hierarchy.linkage(squareform(values), method=method)
            merges = linkage(values, method).merges
            assert [s.distance for s in merges] == pytest.approx(reference[:, 2], abs=1e-12)
            assert [s.size for s in merges] == reference[:, 3].astype(int).tolist()

    def test_rejects_non_finite_distances(self):
        values = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            linkage(values, "single")


class TestFCluster:
    def _dendro(self):
        return linkage(_matrix3(0.1, 0.9, 0.8), "complete")

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
        values = np.array(
            [
                [0.0, 0.9, 0.8, 0.8],
                [0.9, 0.0, 0.7, 0.7],
                [0.8, 0.7, 0.0, 0.1],
                [0.8, 0.7, 0.1, 0.0],
            ]
        )
        labels = f_cluster(linkage(values, "complete"), 3)
        assert labels.tolist() == [1, 2, 3, 3]

    def test_exactly_k_clusters_and_refinement(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            p = int(rng.integers(2, 9))
            values = random_symmetric_matrix(rng, p)
            for method in ("single", "complete", "average", "centroid"):
                dendro = linkage(values, method)
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
    def test_format_and_roundtrip(self, tmp_path):
        ids = tuple(ClassifierId.parse(s) for s in ("CV-NB", "CV-LR", "TFIDF-NB"))
        dendro = linkage(_matrix3(0.25, 0.5, 0.75), "complete", leaf_ids=ids)
        path = str(tmp_path / "dendro.txt")
        write_dendrogram(dendro, path)
        text = open(path).read()
        assert text.splitlines()[0] == "hsel-dendrogram v1"
        assert "leaves 3" in text
        assert "merges 2" in text
        back = read_dendrogram(path)
        assert back == dendro

    @pytest.mark.parametrize(
        "edit, lineno",
        [
            (lambda lines: lines[:1], 2),
            (lambda lines: lines[:4], 5),
            (lambda lines: lines[:5] + lines[6:], 6),
            (lambda lines: lines[:6] + ["3 0 1 0.25"] + lines[7:], 7),
            (lambda lines: lines[:7] + [lines[7].replace("0.75", "far")], 8),
        ],
        ids=[
            "header-only",
            "short-leaf-table",
            "missing-merges-header",
            "merge-field-count",
            "non-numeric-distance",
        ],
    )
    def test_malformed_file_names_path_and_line(self, tmp_path, edit, lineno):
        ids = tuple(ClassifierId.parse(s) for s in ("CV-NB", "CV-LR", "TFIDF-NB"))
        path = str(tmp_path / "dendro.txt")
        write_dendrogram(linkage(_matrix3(0.25, 0.5, 0.75), "complete", leaf_ids=ids), path)
        lines = open(path).read().splitlines()
        assert lines[7] == "4 2 3 0.75 3"
        with open(path, "w") as fh:
            fh.write("\n".join(edit(lines)) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: line {lineno}: "):
            read_dendrogram(path)

    def test_structural_validation(self):
        ids = (ClassifierId("A", "X"), ClassifierId("B", "X"))
        with pytest.raises(ValueError, match="size"):
            Dendrogram(
                leaf_ids=ids, merges=(MergeStep(left=0, right=1, distance=0.5, size=3),)
            )

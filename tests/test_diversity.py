"""Double-fault distances and dissimilarity matrix construction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsel.core import ClassifierId, PredictionMatrix, Split
from hsel.diversity import (
    DissimilarityMatrix,
    dissimilarity_matrix,
    read_dissimilarity_csv,
    write_dissimilarity_csv,
)

from oracles import double_fault_oracle


def _pm_from_columns(columns, truth, num_classes=2):
    ids = tuple(ClassifierId(f"E{i}", "A") for i in range(len(columns)))
    return PredictionMatrix(
        classifier_ids=ids,
        predictions=np.stack([np.asarray(c) for c in columns], axis=1),
        truth=np.asarray(truth),
        num_classes=num_classes,
        split_tag=Split.VALIDATION,
    )


def _distance(a, b, truth, num_classes=4) -> float:
    """The matrix distance of one pair: 1 - DF(a, b)."""
    return float(dissimilarity_matrix(_pm_from_columns([a, b], truth, num_classes)).values[0, 1])


class TestDoubleFault:
    def test_always_correct_pair(self):
        truth = [0, 1, 0, 1]
        assert _distance(truth, truth, truth) == 1.0

    def test_index_enumeration(self):
        truth = [0, 1, 0, 1]
        a = [0, 1, 1, 1]
        b = [0, 0, 1, 1]
        assert _distance(a, b, truth) == 0.75

    def test_identical_always_wrong(self):
        truth = [0, 0, 0]
        wrong = [1, 1, 1]
        assert _distance(wrong, wrong, truth) == 0.0

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError, match="no instances"):
            _distance([], [], [])
        with pytest.raises(ValueError, match="truth length"):
            _distance([0], [0], [0, 1])

    @given(
        st.integers(1, 50).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
            )
        )
    )
    def test_matches_enumeration_oracle(self, triple):
        a, b, truth = triple
        assert _distance(a, b, truth) == 1.0 - double_fault_oracle(a, b, truth)

    def test_monotonicity_under_extension(self):
        truth = [0, 1]
        a = [0, 0]
        b = [1, 0]
        base = _distance(a, b, truth)
        # Appending a shared fault cannot increase the distance.
        closer = _distance(a + [1], b + [1], truth + [0])
        assert closer <= base
        # Appending a row where one is correct cannot decrease it.
        farther = _distance(a + [0], b + [1], truth + [0])
        assert farther >= base


class TestDissimilarityMatrix:
    def test_distance_is_one_minus_df(self):
        truth = [0, 1, 0, 1]
        pm = _pm_from_columns([[0, 1, 1, 1], [0, 0, 1, 1]], truth)
        matrix = dissimilarity_matrix(pm)
        assert matrix.values[0, 1] == 0.75

    def test_redundant_always_wrong_pair_is_distance_zero(self):
        truth = [0, 0, 0]
        pm = _pm_from_columns([[1, 1, 1], [1, 1, 1]], truth)
        matrix = dissimilarity_matrix(pm)
        assert matrix.values[0, 1] == 0.0

    def test_exactly_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(4)
        truth = rng.integers(0, 3, 40)
        cols = [rng.integers(0, 3, 40) for _ in range(5)]
        pm = _pm_from_columns(cols, truth, num_classes=3)
        matrix = dissimilarity_matrix(pm)
        assert np.array_equal(matrix.values, matrix.values.T)
        assert np.all(np.diag(matrix.values) == 0.0)
        off = matrix.values[~np.eye(5, dtype=bool)]
        assert off.min() >= 0.0 and off.max() <= 1.0

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        truth = rng.integers(0, 2, 30)
        cols = [rng.integers(0, 2, 30) for _ in range(4)]
        pm = _pm_from_columns(cols, truth)
        matrix = dissimilarity_matrix(pm)
        perm = [2, 0, 3, 1]
        permuted = pm.select([pm.classifier_ids[i] for i in perm])
        matrix_p = dissimilarity_matrix(permuted)
        assert np.array_equal(matrix_p.values, matrix.values[np.ix_(perm, perm)])

    def test_requires_two_classifiers(self):
        pm = _pm_from_columns([[0, 1]], [0, 1])
        with pytest.raises(ValueError):
            dissimilarity_matrix(pm)

    def test_named_conversion_equals_per_pair_double_fault(self):
        rng = np.random.default_rng(53)
        for case in range(40):
            p, n, c = int(rng.integers(2, 12)), int(rng.integers(1, 80)), int(rng.integers(2, 5))
            truth = rng.integers(0, c, n)
            cols = [np.where(rng.random(n) < rng.random(), truth, rng.integers(0, c, n))
                    for _ in range(p)]
            matrix = dissimilarity_matrix(_pm_from_columns(cols, truth, num_classes=c))
            for i in range(p):
                for j in range(p):
                    df = double_fault_oracle(cols[i], cols[j], truth)
                    assert matrix.values[i, j] == (0.0 if i == j else 1.0 - df), (case, i, j)

    def test_unknown_conversion_rejected(self):
        pm = _pm_from_columns([[0, 1], [1, 1]], [0, 1])
        with pytest.raises(ValueError, match="unknown conversion 'half'"):
            dissimilarity_matrix(pm, conversion="half")

    def test_constructor_rejects_asymmetric(self):
        ids = (ClassifierId("E0", "A"), ClassifierId("E1", "A"))
        bad = np.array([[0.0, 0.2], [0.3, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            DissimilarityMatrix(ids=ids, values=bad)

    def test_csv_roundtrip_full_precision(self, tmp_path):
        rng = np.random.default_rng(11)
        truth = rng.integers(0, 2, 50)
        cols = [rng.integers(0, 2, 50) for _ in range(3)]
        matrix = dissimilarity_matrix(_pm_from_columns(cols, truth))
        path = str(tmp_path / "m.csv")
        write_dissimilarity_csv(matrix, path)
        back = read_dissimilarity_csv(path)
        assert back.ids == matrix.ids
        assert np.array_equal(back.values, matrix.values)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("id,A-X,B-X\nA-X,0,1\nB-X,1,0\nC-X,1,1\n", 4),  # extra row
            ("id,A-X,B-X\nA-X,0,x\nB-X,1,0\n", 2),  # non-numeric cell
            ("id,A-X,B-X\nA-X,0,1\n", 3),  # fewer rows than ids
            ("id,A-X,BX\nA-X,0,1\nBX,1,0\n", 1),  # unparseable id
            ("id,A-X,a-x\nA-X,0,1\na-x,1,0\n", 1),  # ids equal up to case
            ("id,A-X,B-X,C-X\nA-X,0,1,1\nB-X,1,0,0.5\nC-X,1,0.25,0\n", 3),  # asymmetric
            ("id,A-X,B-X\nA-X,0,-0.5\nB-X,-0.5,0\n", 2),  # outside [0, 1]
            ("id,A-X,B-X,C-X\nA-X,0,1,1\nB-X,1,0,1\nC-X,1,1,0.5\n", 4),  # nonzero diagonal
            ("id\n", 1),  # no classifier columns
        ],
    )
    def test_malformed_csv_names_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"m.csv: line {line}:"):
            read_dissimilarity_csv(str(path))

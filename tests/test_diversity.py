"""Double-fault distances and dissimilarity matrix construction."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsel.core import ClassifierId
from hsel.diversity import (
    DissimilarityMatrix,
    dissimilarity_matrix,
    read_dissimilarity_csv,
    write_dissimilarity_csv,
)

from conftest import mutated_bytes, pm_of
from oracles import double_fault_oracle


def _distance(a, b, truth, num_classes=4) -> float:
    """The matrix distance of one pair: 1 - DF(a, b)."""
    return float(dissimilarity_matrix(pm_of([a, b], truth, num_classes)).values[0, 1])


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
        pm = pm_of([[0, 1, 1, 1], [0, 0, 1, 1]], truth)
        matrix = dissimilarity_matrix(pm)
        assert matrix.values[0, 1] == 0.75

    def test_redundant_always_wrong_pair_is_distance_zero(self):
        truth = [0, 0, 0]
        pm = pm_of([[1, 1, 1], [1, 1, 1]], truth)
        matrix = dissimilarity_matrix(pm)
        assert matrix.values[0, 1] == 0.0

    def test_exactly_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(4)
        truth = rng.integers(0, 3, 40)
        cols = [rng.integers(0, 3, 40) for _ in range(5)]
        pm = pm_of(cols, truth, num_classes=3)
        matrix = dissimilarity_matrix(pm)
        assert np.array_equal(matrix.values, matrix.values.T)
        assert np.all(np.diag(matrix.values) == 0.0)
        off = matrix.values[~np.eye(5, dtype=bool)]
        assert off.min() >= 0.0 and off.max() <= 1.0

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        truth = rng.integers(0, 2, 30)
        cols = [rng.integers(0, 2, 30) for _ in range(4)]
        pm = pm_of(cols, truth)
        matrix = dissimilarity_matrix(pm)
        perm = [2, 0, 3, 1]
        permuted = pm.select([pm.classifier_ids[i] for i in perm])
        matrix_p = dissimilarity_matrix(permuted)
        assert np.array_equal(matrix_p.values, matrix.values[np.ix_(perm, perm)])

    def test_requires_two_classifiers(self):
        pm = pm_of([[0, 1]], [0, 1])
        with pytest.raises(ValueError):
            dissimilarity_matrix(pm)

    def test_named_conversion_equals_per_pair_double_fault(self):
        rng = np.random.default_rng(53)
        for case in range(40):
            p, n, c = int(rng.integers(2, 12)), int(rng.integers(1, 80)), int(rng.integers(2, 5))
            truth = rng.integers(0, c, n)
            cols = [np.where(rng.random(n) < rng.random(), truth, rng.integers(0, c, n))
                    for _ in range(p)]
            matrix = dissimilarity_matrix(pm_of(cols, truth, num_classes=c))
            for i in range(p):
                for j in range(p):
                    df = double_fault_oracle(cols[i], cols[j], truth)
                    assert matrix.values[i, j] == (0.0 if i == j else 1.0 - df), (case, i, j)

    def test_constructor_rejects_asymmetric(self):
        ids = (ClassifierId("E0", "A"), ClassifierId("E1", "A"))
        bad = np.array([[0.0, 0.2], [0.3, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            DissimilarityMatrix(ids=ids, values=bad)

    @pytest.mark.parametrize("names, values, message", [
        ("AB", np.zeros((3, 3)), r"matrix shape \(3, 3\) does not match 2 ids"),
        ("AB", np.zeros((2, 3)), r"matrix shape \(2, 3\) does not match 2 ids"),
        ("AB", [[0.0, -0.1], [-0.1, 0.0]], r"distances must lie in \[0, 1\]"),
        ("AB", [[0.0, 1.5], [1.5, 0.0]], r"distances must lie in \[0, 1\]"),
        ("AB", [[0.0, np.inf], [np.inf, 0.0]], r"distances must lie in \[0, 1\]"),
        ("AB", [[0.25, 0.5], [0.5, 0.0]], "self-distance must be 0"),
        ("Aa", [[0.0, 0.5], [0.5, 0.0]], "duplicate classifier ids"),
    ])
    def test_constructor_rejects_invalid_matrix(self, names, values, message):
        # linkage's only input: each rule holds before any merge runs.
        ids = tuple(ClassifierId(name, "NB") for name in names)
        with pytest.raises(ValueError, match=message):
            DissimilarityMatrix(ids=ids, values=np.array(values))

    def test_csv_roundtrip_full_precision(self, tmp_path):
        rng = np.random.default_rng(11)
        truth = rng.integers(0, 2, 50)
        cols = [rng.integers(0, 2, 50) for _ in range(3)]
        matrix = dissimilarity_matrix(pm_of(cols, truth))
        path = str(tmp_path / "m.csv")
        write_dissimilarity_csv(matrix, path)
        back = read_dissimilarity_csv(path)
        assert back.ids == matrix.ids
        assert np.array_equal(back.values, matrix.values)

    def test_nan_distance_is_out_of_range(self, tmp_path):
        # NaN != NaN, so a symmetric NaN pair also fails the symmetry check;
        # the range check runs first and names NaN's row.
        ids = (ClassifierId("E0", "A"), ClassifierId("E1", "A"))
        with pytest.raises(ValueError, match=r"distances must lie in \[0, 1\]"):
            DissimilarityMatrix(ids=ids, values=np.array([[0.0, np.nan], [np.nan, 0.0]]))
        path = tmp_path / "m.csv"
        path.write_text("id,A-X,B-X,C-X\nA-X,0,1,1\nB-X,1,0,nan\nC-X,1,nan,0\n")
        with pytest.raises(ValueError, match=r"m.csv: line 3: distances must lie in \[0, 1\]"):
            read_dissimilarity_csv(str(path))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("id,A-X,B-X\nA-X,0,1\nB-X,1,0\nC-X,1,1\n", 4),  # extra row
            ("id,A-X,B-X\nA-X,0,x\nB-X,1,0\n", 2),  # non-numeric cell
            ("id,A-X,B-X\nA-X,0,1\n", 3),  # fewer rows than ids
            ('id,A-X,B-X\n"A-X\n\n",0,1\n', 5),  # ... the last one spanning lines 2-4
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

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbfid,A-X,B-X\r\nA-X,0,0.25\r\nB-X,0.25,0\r\n")
        matrix = read_dissimilarity_csv(str(path))
        assert [cid.canonical for cid in matrix.ids] == ["A-X", "B-X"]
        assert matrix.values.tolist() == [[0.0, 0.25], [0.25, 0.0]]

    def test_undecodable_bytes_name_path_and_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"id,A-X,B-X\r\nA-X,0,1\r\nB-X,1,\xff0\r\n")
        with pytest.raises(ValueError, match="m.csv: line 3: byte 0xff is not UTF-8 text"):
            read_dissimilarity_csv(str(path))

    def test_oversized_field_names_path_and_line(self, tmp_path):
        # An unclosed quote runs to the end of the file, past the csv field limit.
        path = tmp_path / "m.csv"
        path.write_text('id,A-X,B-X\nA-X,0,"1\n' + "0," * 70000 + "\n")
        with pytest.raises(ValueError, match=r"m.csv: line \d+: field larger than field limit"):
            read_dissimilarity_csv(str(path))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_truncated_or_mutated_csv_reads_or_names_its_line(tmp_path_factory, data):
    """A valid dissimilarity file cut short, or with bytes replaced, inserted
    or deleted, reads as a matrix or fails with ``ValueError`` naming
    ``path: line N``; no other exception escapes."""
    p = data.draw(st.integers(1, 5), label="p")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    truth = rng.integers(0, 3, 40)
    cols = [rng.integers(0, 3, 40) for _ in range(max(p, 2))]
    matrix = dissimilarity_matrix(pm_of(cols, truth, 3))
    if p == 1:
        matrix = DissimilarityMatrix(matrix.ids[:1], np.zeros((1, 1)))
    path = tmp_path_factory.mktemp("dsv") / "m.csv"
    write_dissimilarity_csv(matrix, str(path))
    path.write_bytes(mutated_bytes(data, path.read_bytes()))
    try:
        back = read_dissimilarity_csv(str(path))
    except ValueError as exc:
        assert re.match(rf"{re.escape(str(path))}: line \d+: ", str(exc)), str(exc)
    else:
        assert isinstance(back, DissimilarityMatrix)

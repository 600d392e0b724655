"""Acceptance suite: ten gate criteria, one test per criterion.

Each test prints one PASS line on success (run with ``pytest -v -s`` to see
them); a pytest failure on any test is the corresponding FAIL line.
"""

import json
import os
import time

import numpy as np
import pytest

from hsel.cli import RunConfig, cmd_run
from hsel.combine import fit_stack, predict_stack
from hsel.core import (
    ClassifierId,
    PredictionMatrix,
    Split,
    evaluate,
    evaluate_matrix,
)
from hsel.datasets import bundled_corpus_path
from hsel.diversity import dissimilarity_matrix
from hsel.hiercluster import linkage
from hsel.selection import choose_final, hierarchy_select, random_baseline

from conftest import REDUNDANT_ERROR_SUPPORTS, make_redundant_matrix
from oracles import (
    brute_force_linkage,
    double_fault_oracle,
    f_cluster,
    metrics_oracle,
    random_symmetric_matrix,
)

ALL_METHODS = ("single", "complete", "average", "centroid")


def _oracle_matrices(count=200, max_p=8, seed=2024):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = int(rng.integers(2, max_p + 1))
        yield random_symmetric_matrix(rng, p)


def test_criterion_01_double_fault_exactness():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        c = int(rng.integers(2, 5))
        a = rng.integers(0, c, n).tolist()
        b = rng.integers(0, c, n).tolist()
        truth = rng.integers(0, c, n).tolist()
        pm = PredictionMatrix(
            classifier_ids=(ClassifierId("E0", "A"), ClassifierId("E1", "A")),
            predictions=np.array([a, b]).T,
            truth=np.array(truth),
            num_classes=c,
            split_tag=Split.VALIDATION,
        )
        distance = dissimilarity_matrix(pm).values[0, 1]
        assert distance == 1.0 - double_fault_oracle(a, b, truth)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1 PASS: double-fault matches enumeration on 1000 triples "
          f"({elapsed:.2f}s)")


def test_criterion_02_clustering_oracle_equivalence():
    started = time.monotonic()
    for values in _oracle_matrices():
        for method in ALL_METHODS:
            dendro = linkage(values, method)
            reference = brute_force_linkage(values, method)
            impl = [(s.left, s.right, s.size) for s in dendro.merges]
            ref = [(l, r, size) for l, r, _, size, _ in reference]
            assert impl == ref, method
            for step, (_, _, d, _, _) in zip(dendro.merges, reference):
                assert abs(step.distance - d) <= 1e-12, method
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 2 PASS: 200 random matrices match the brute-force "
          f"agglomerator under all four linkages ({elapsed:.2f}s)")


def test_criterion_03_f_cluster_contract():
    for values in _oracle_matrices():
        p = values.shape[0]
        for method in ALL_METHODS:
            dendro = linkage(values, method)
            previous = None
            for k in range(1, p + 1):
                labels = f_cluster(dendro, k)
                assert len(set(labels.tolist())) == k
                if previous is not None:
                    # k clusters refine the k-1 partition.
                    for i in range(p):
                        for j in range(i + 1, p):
                            if labels[i] == labels[j]:
                                assert previous[i] == previous[j]
                previous = labels
    print("ACCEPTANCE 3 PASS: every cut yields exactly k clusters and "
          "refines the coarser cut")


def test_criterion_04_golden_dendrogram_scenario(golden_scenario_pm):
    matrix = dissimilarity_matrix(golden_scenario_pm)
    dendro = linkage(matrix, "complete")
    scores = evaluate_matrix(golden_scenario_pm)
    assert scores["GLOVE-LR"].accuracy > scores["CV-NB"].accuracy
    candidates = hierarchy_select(dendro, matrix, scores, metric="accuracy")
    members = {m.canonical for m in candidates[2].members}
    assert members == {"BERT-SVM", "TFIDF-SVM", "GLOVE-LR"}
    print("ACCEPTANCE 4 PASS: level-3 cut keeps BERT-SVM, TFIDF-SVM, GLOVE-LR")


def test_criterion_05_baseline_formula():
    assert random_baseline(2) == 0.500
    assert round(random_baseline(6), 3) == 0.167
    print("ACCEPTANCE 5 PASS: random baseline is 0.500 for C=2 and 0.167 for C=6")


def test_criterion_06_redundancy_fixture():
    started = time.monotonic()
    vpm = make_redundant_matrix(seed=31, split=Split.VALIDATION)
    tpm = make_redundant_matrix(seed=32, split=Split.TEST)
    matrix = dissimilarity_matrix(vpm)
    dendro = linkage(matrix, "complete")
    scores = evaluate_matrix(vpm)
    candidates = hierarchy_select(dendro, matrix, scores, metric="accuracy")
    scored = []
    for candidate in candidates:
        ensemble = fit_stack(vpm, candidate.members, meta_kind="LR")
        acc = evaluate(predict_stack(ensemble, vpm), vpm.truth, 2).accuracy
        scored.append(candidate.with_score(acc))

    # The level-3 candidate picks exactly one member per behavior group.
    level3 = scored[2]
    groups = [set(range(1, 5)), set(range(5, 9)), set(range(9, 13))]
    picked = [int(m.extractor[3:]) for m in level3.members]
    assert len(picked) == 3
    for group in groups:
        assert len(group.intersection(picked)) == 1

    final = choose_final(scored, rule="max-validation")
    assert len(final.members) <= 4

    final_stack = fit_stack(vpm, final.members, meta_kind="LR")
    final_acc = evaluate(predict_stack(final_stack, tpm), tpm.truth, 2).accuracy
    group_c_stack = fit_stack(vpm, list(vpm.classifier_ids), meta_kind="LR")
    group_c_acc = evaluate(predict_stack(group_c_stack, tpm), tpm.truth, 2).accuracy
    assert final_acc >= group_c_acc - 0.02

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 6 PASS: redundant pool collapses to {len(final.members)} "
          f"members at test accuracy {final_acc:.3f} vs group C {group_c_acc:.3f} "
          f"({elapsed:.2f}s)")


def test_criterion_07_stacking_sanity():
    started = time.monotonic()
    rng = np.random.default_rng(71)
    truth = rng.integers(0, 2, 100)
    correct = truth.copy()
    wrong = 1 - truth
    vpm = PredictionMatrix(
        classifier_ids=(ClassifierId("GOOD", "A"), ClassifierId("BAD", "A")),
        predictions=np.stack([correct, wrong], axis=1),
        truth=truth,
        num_classes=2,
        split_tag=Split.VALIDATION,
    )
    ensemble = fit_stack(vpm, ["GOOD-A", "BAD-A"], meta_kind="LR")
    assert ensemble.model.epochs == 500
    preds = predict_stack(ensemble, vpm)
    assert (preds == truth).mean() == 1.0

    # VOTE unanimity over 1000 random unanimous rows.
    labels = rng.integers(0, 4, 1000)
    unanimous = PredictionMatrix(
        classifier_ids=tuple(ClassifierId(f"M{i}", "A") for i in range(3)),
        predictions=np.stack([labels, labels, labels], axis=1),
        truth=rng.integers(0, 4, 1000),
        num_classes=4,
        split_tag=Split.TEST,
    )
    vote = fit_stack(
        PredictionMatrix(
            classifier_ids=unanimous.classifier_ids,
            predictions=np.stack([np.arange(4) % 4] * 3, axis=1),
            truth=np.arange(4) % 4,
            num_classes=4,
            split_tag=Split.VALIDATION,
        ),
        unanimous.classifier_ids,
        meta_kind="VOTE",
    )
    assert np.array_equal(predict_stack(vote, unanimous), labels)

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 7 PASS: LR meta reaches validation accuracy 1.0 and "
          f"VOTE honors 1000 unanimous rows ({elapsed:.2f}s)")


def _normalized_artifacts(outdir):
    files = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            files[name] = fh.read()
    report = json.loads(files["run_report.json"])
    assert "generated_at" in report
    report["generated_at"] = "NORMALIZED"
    files["run_report.json"] = json.dumps(report, sort_keys=True).encode()
    return files


def test_criterion_08_end_to_end_toy_run(tmp_path):
    started = time.monotonic()
    config = RunConfig(
        corpus=bundled_corpus_path(), outdir=str(tmp_path / "run"), seed=7
    )
    report = cmd_run(config)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    assert len(report["pool"]) == 12
    assert len(report["candidates"]) == 12
    accuracy = report["final_test_eval"]["accuracy"]
    assert accuracy > 0.80
    print(f"ACCEPTANCE 8 PASS: toy run finished in {elapsed:.1f}s with final "
          f"test accuracy {accuracy:.3f} over baseline 0.500")


def test_criterion_09_run_determinism(tmp_path):
    outdir = str(tmp_path / "run")
    config = RunConfig(corpus=bundled_corpus_path(), outdir=outdir, seed=7)
    cmd_run(config)
    first = _normalized_artifacts(outdir)
    cmd_run(config)
    second = _normalized_artifacts(outdir)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between identical runs"
    print("ACCEPTANCE 9 PASS: identical seeds produce byte-identical artifacts "
          "modulo the timestamp field")


def test_criterion_10_metric_exactness():
    rng = np.random.default_rng(10)
    cases = 0
    saw_zero_denominator = False
    while cases < 50:
        n = int(rng.integers(1, 21))
        c = int(rng.integers(2, 5))
        if cases % 5 == 0:
            # Degenerate predictor: constant class, guaranteeing unpredicted
            # classes with zero denominators.
            pred = [int(rng.integers(0, c))] * n
        else:
            pred = rng.integers(0, c, n).tolist()
        truth = rng.integers(0, c, n).tolist()
        entry = evaluate(pred, truth, c)
        acc, prec, rec, f1 = metrics_oracle(pred, truth, c)
        assert abs(entry.accuracy - acc) <= 1e-12
        assert abs(entry.precision - prec) <= 1e-12
        assert abs(entry.recall - rec) <= 1e-12
        assert abs(entry.f1 - f1) <= 1e-12
        if len(set(pred)) < c:
            saw_zero_denominator = True
        cases += 1
    assert saw_zero_denominator
    print("ACCEPTANCE 10 PASS: metrics match hand confusion-matrix values on "
          "50 randomized cases to 1e-12")

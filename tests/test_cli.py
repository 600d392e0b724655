"""CLI subcommands: pipeline runs, comparisons, ingestion, reports."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from hsel import cli, combine
from hsel.cli import RunConfig, _config_from_args, build_parser, cmd_compare, cmd_run, main
from hsel.combine import fit_stack, predict_stack
from hsel.core import (
    METRIC_NAMES,
    ClassifierId,
    PredictionMatrix,
    Split,
    evaluate,
    evaluate_matrix,
    write_corpus_csv,
)
from hsel.datasets import bundled_corpus_path, synthetic_news_corpus
from hsel.diversity import dissimilarity_matrix
from hsel.hiercluster import linkage
from hsel.pool import write_prediction_matrix
from hsel.selection import hierarchy_select

from conftest import make_redundant_matrix


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "small.csv"
    write_corpus_csv(synthetic_news_corpus(n_docs=150, seed=3), str(path))
    return str(path)


GROUP_KINDS = ("group_a", "group_b", "group_c", "group_d", "elbow")


def _grid_matrices(tmp_path, seed=5, n=200, num_classes=3):
    """A 2-extractor by 4-algorithm pool of noisy members, written as a
    validation and a test matrix."""
    rng = np.random.default_rng(seed)
    ids = tuple(ClassifierId(e, a) for e in ("E1", "E2") for a in ("A1", "A2", "A3", "A4"))
    paths = []
    for split in (Split.VALIDATION, Split.TEST):
        truth = rng.integers(0, num_classes, n)
        right = rng.random((n, len(ids))) < rng.uniform(0.4, 0.8, len(ids))
        noise = rng.integers(0, num_classes, (n, len(ids)))
        pm = PredictionMatrix(ids, np.where(right, truth[:, None], noise), truth, num_classes,
                              split)
        paths.append(str(tmp_path / f"{split.value.lower()}.csv"))
        write_prediction_matrix(pm, paths[-1])
    return paths


def _redundant_matrices(tmp_path):
    paths = []
    for seed, split, name in ((31, Split.VALIDATION, "val.csv"), (32, Split.TEST, "test.csv")):
        paths.append(str(tmp_path / name))
        write_prediction_matrix(make_redundant_matrix(seed=seed, split=split), paths[-1])
    return paths


def _schema(name):
    from importlib import resources

    return json.loads(
        resources.files("hsel").joinpath(f"schemas/{name}.schema.json").read_text()
    )


class TestRun:
    def test_report_cardinalities_and_schema(self, small_corpus, tmp_path):
        config = RunConfig(corpus=small_corpus, outdir=str(tmp_path / "out"), seed=7)
        report = cmd_run(config)
        assert len(report["pool"]) == 12
        assert len(report["candidates"]) == 12
        assert [c["level_k"] for c in report["candidates"]] == list(range(1, 13))
        jsonschema.validate(report, _schema("run_report"))
        for name in (
            "run_report.json",
            "selection_report.json",
            "dissimilarity.csv",
            "dendrogram.txt",
            "validation_matrix.csv",
            "test_matrix.csv",
        ):
            assert os.path.exists(os.path.join(config.outdir, name)), name

    def test_selection_report_sweeps_all_metrics(self, small_corpus, tmp_path):
        config = RunConfig(corpus=small_corpus, outdir=str(tmp_path / "out"), seed=7)
        cmd_run(config)
        doc = json.load(open(os.path.join(config.outdir, "selection_report.json")))
        jsonschema.validate(doc, _schema("selection_report"))
        assert set(doc["metrics"]) == {"accuracy", "precision", "recall", "f1"}
        for metric_doc in doc["metrics"].values():
            assert len(metric_doc["candidates"]) == 12
            assert metric_doc["final"]["rule"] == "max-validation"

    def test_determinism_modulo_timestamp(self, small_corpus, tmp_path):
        outdir = str(tmp_path / "out")
        config = RunConfig(corpus=small_corpus, outdir=outdir, seed=11)

        def snapshot():
            files = {}
            for name in sorted(os.listdir(outdir)):
                with open(os.path.join(outdir, name), "rb") as fh:
                    files[name] = fh.read()
            report = json.loads(files["run_report.json"])
            report["generated_at"] = "X"
            files["run_report.json"] = json.dumps(report, sort_keys=True).encode()
            return files

        cmd_run(config)
        first = snapshot()
        cmd_run(config)
        second = snapshot()
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"

    def test_cli_exit_codes_and_stage_diagnostics(self, tmp_path, capsys):
        rc = main(
            ["run", "--corpus", str(tmp_path / "missing.csv"), "--outdir", str(tmp_path)]
        )
        assert rc == 1
        assert "error [load-corpus]" in capsys.readouterr().err

    def test_outdir_env_override(self, small_corpus, tmp_path, monkeypatch):
        override = tmp_path / "env-out"
        monkeypatch.setenv("HSEL_OUTPUT_DIR", str(override))
        rc = main(["run", "--corpus", small_corpus, "--outdir", str(tmp_path / "flag-out")])
        assert rc == 0
        assert override.joinpath("run_report.json").exists()
        assert not (tmp_path / "flag-out").exists()

    def test_exact_distance_tie_deploys_the_smaller_level(self, tmp_path):
        # Seed 300 on the bundled corpus: levels 2, 3 and 4 have the same exact
        # mean distance, 79/80, and the same validation score, so the rule's
        # last tie-break, the smaller k, deploys level 2. Block means summed in
        # floats rounded level 3 to 0.9875000000000002 and deployed it instead.
        report = cmd_run(RunConfig(corpus=bundled_corpus_path(), seed=300, outdir=str(tmp_path)))
        level2, level3 = report["candidates"][1:3]
        assert level2["mean_pairwise_distance"] == level3["mean_pairwise_distance"] == 0.9875
        assert level2["validation_score"] == level3["validation_score"]
        assert report["selection"]["level_k"] == 2


class TestCompare:
    def test_corpus_mode_rows(self, small_corpus, tmp_path):
        config = RunConfig(corpus=small_corpus, outdir=str(tmp_path / "cmp"), seed=7)
        report = cmd_compare(config)
        jsonschema.validate(report, _schema("compare_report"))
        rows = {row["display"]: row for row in report["rows"]}
        # Group C spans the whole pool.
        assert rows["C-LR (12)"]["members_count"] == 12
        assert rows["BASELINE"]["accuracy"] == 0.5
        assert rows["BASELINE"]["precision"] is None
        monolithic = [r for r in report["rows"] if r["kind"] == "monolithic"]
        assert len(monolithic) == 12
        group_a = [r for r in report["rows"] if r["kind"] == "group_a"]
        assert {r["members_count"] for r in group_a} == {3}
        group_b = [r for r in report["rows"] if r["kind"] == "group_b"]
        assert {r["members_count"] for r in group_b} == {4}
        assert any(r["kind"] == "group_d" for r in report["rows"])
        assert any(r["kind"] == "elbow" for r in report["rows"])

    def test_matrix_mode_on_redundant_pool(self, tmp_path):
        vpm = make_redundant_matrix(seed=31, split=Split.VALIDATION)
        tpm = make_redundant_matrix(seed=32, split=Split.TEST)
        val_path = str(tmp_path / "val.csv")
        test_path = str(tmp_path / "test.csv")
        write_prediction_matrix(vpm, val_path)
        write_prediction_matrix(tpm, test_path)
        config = RunConfig(corpus="", outdir=str(tmp_path / "cmp"), seed=7)
        report = cmd_compare(config, validation_matrix=val_path, test_matrix=test_path)
        rows = {row["kind"]: row for row in report["rows"] if row["kind"] != "monolithic"}
        d_row, c_row = rows["group_d"], rows["group_c"]
        assert d_row["members_count"] < c_row["members_count"]
        assert d_row["accuracy"] >= c_row["accuracy"] - 0.02

    def test_sweeps_primary_metric_and_rows_match_standalone_stacks(self, tmp_path, monkeypatch):
        seen = []
        original = cli._score_candidates

        def recording(sweeps, *args):
            seen.append(list(sweeps))
            return original(sweeps, *args)

        monkeypatch.setattr(cli, "_score_candidates", recording)
        val_path, test_path = _grid_matrices(tmp_path)
        config = RunConfig(corpus="", outdir=str(tmp_path / "cmp"), seed=7)
        report = cmd_compare(config, validation_matrix=val_path, test_matrix=test_path)
        assert seen == [[config.metrics[0]]]
        assert report["config"]["metrics"] == list(config.metrics)
        vpm, tpm = cli.read_prediction_matrix(val_path), cli.read_prediction_matrix(test_path)
        rows = [row for row in report["rows"] if row["kind"] in GROUP_KINDS]
        assert {row["kind"] for row in rows} == set(GROUP_KINDS)
        for row in rows:
            preds = predict_stack(fit_stack(vpm, row["members"]), tpm)
            entry = evaluate(preds, tpm.truth, tpm.num_classes).as_dict()
            assert {key: row[key] for key in entry} == entry, row["display"]

    @pytest.mark.parametrize("matrices", [_redundant_matrices, _grid_matrices])
    def test_matrix_mode_runs_one_descent(self, matrices, tmp_path, monkeypatch):
        descents, fitted = [], []
        original_descent, original_fit = combine.fit_softmax_models, cli.fit_stacks

        def recording_descent(models, *args):
            descents.append([id(model) for model in models])
            return original_descent(models, *args)

        def recording_fit(*args, **kwargs):
            ensembles = original_fit(*args, **kwargs)
            fitted.extend(ensembles)
            return ensembles

        monkeypatch.setattr(combine, "fit_softmax_models", recording_descent)
        monkeypatch.setattr(cli, "fit_stacks", recording_fit)
        val_path, test_path = matrices(tmp_path)
        config = RunConfig(corpus="", outdir=str(tmp_path / "cmp"), seed=7)
        report = cmd_compare(config, validation_matrix=val_path, test_matrix=test_path)
        assert descents == [[id(ensemble.model) for ensemble in fitted]]
        fitted_lists = {tuple(m.canonical for m in ensemble.members) for ensemble in fitted}
        rows = [row for row in report["rows"] if row["kind"] in GROUP_KINDS]
        assert {row["kind"] for row in rows} == set(GROUP_KINDS)
        assert all(tuple(row["members"]) in fitted_lists for row in rows)

    def test_matrix_mode_rejects_class_count_mismatch(self, tmp_path, capsys):
        val_path, test_path = tmp_path / "val.csv", tmp_path / "test.csv"
        for path, num_classes in ((val_path, 2), (test_path, 3)):
            path.write_text("truth,CV-NB,CV-LR\n0,0,1\n1,1,1\n")
            (tmp_path / f"{path.name}.meta.json").write_text(
                f'{{"num_classes": {num_classes}, "split": "TEST"}}'
            )
        rc = main(["compare", "--validation-matrix", str(val_path), "--test-matrix",
                   str(test_path), "--outdir", str(tmp_path / "cmp")])
        err = capsys.readouterr().err
        assert rc == 1
        assert str(val_path) in err and str(test_path) in err

    @pytest.mark.parametrize("inputs", [
        ["--corpus", "c.csv", "--validation-matrix", "v.csv", "--test-matrix", "t.csv"],
        ["--corpus", "c.csv", "--validation-matrix", "v.csv"],
        ["--corpus", "c.csv", "--test-matrix", "t.csv"],
        ["--validation-matrix", "v.csv"],
        ["--test-matrix", "t.csv"],
        [],
    ], ids=["corpus-and-pair", "corpus-and-validation", "corpus-and-test", "validation-only",
            "test-only", "none"])
    def test_input_modes_are_a_usage_error_unless_exactly_one(self, inputs, tmp_path, capsys):
        # With a corpus and a matrix pair, matrix mode used to run while the
        # report named the corpus; with one matrix, ingest failed late.
        with pytest.raises(SystemExit) as exc:
            main(["compare", *inputs, "--outdir", str(tmp_path / "cmp")])
        assert exc.value.code == 2
        message = "compare takes --corpus alone or both --validation-matrix and --test-matrix"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("corpus, matrices", [("c.csv", ("v.csv", "t.csv")),
                                                  ("", ("v.csv", None)), ("", (None, "t.csv"))])
    def test_cmd_compare_rejects_mixed_inputs(self, corpus, matrices, tmp_path):
        config = RunConfig(corpus=corpus, outdir=str(tmp_path / "cmp"))
        with pytest.raises(cli.StageError, match="a corpus alone or a validation and a test matrix"):
            cmd_compare(config, *matrices)


class TestIngest:
    def test_valid_file_summary(self, tmp_path, capsys):
        pm = make_redundant_matrix(seed=31, split=Split.VALIDATION)
        path = str(tmp_path / "pm.csv")
        write_prediction_matrix(pm, path)
        rc = main(["ingest", path])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["classifiers"]) == 12
        assert summary["num_classes"] == 2

    def test_label_out_of_range_rejected_with_line(self, tmp_path, capsys):
        path = tmp_path / "pm.csv"
        path.write_text("truth,CV-NB\n0,0\n1,5\n")
        (tmp_path / "pm.csv.meta.json").write_text('{"num_classes": 2, "split": "TEST"}')
        rc = main(["ingest", str(path)])
        assert rc == 1
        assert "line 3" in capsys.readouterr().err


class TestSingleStageCommands:
    def test_outdir_env_override_for_matrix_commands(self, tmp_path, capsys, monkeypatch):
        val_path, _ = _redundant_matrices(tmp_path)
        override = tmp_path / "env-out"
        monkeypatch.setenv("HSEL_OUTPUT_DIR", str(override))
        assert main(["diversity", "--matrix", val_path, "--outdir", str(tmp_path / "x")]) == 0
        assert capsys.readouterr().out.strip() == str(override / "dissimilarity.csv")
        assert not (tmp_path / "x").exists()

    def test_diversity_then_cluster(self, tmp_path, capsys):
        val_path, _ = _redundant_matrices(tmp_path)
        outdir = str(tmp_path / "out")
        assert main(["diversity", "--matrix", val_path, "--outdir", outdir]) == 0
        matrix_path = capsys.readouterr().out.strip()
        assert os.path.exists(matrix_path)
        assert main(["cluster", "--dissimilarity", matrix_path, "--outdir", outdir]) == 0
        dendro_path = capsys.readouterr().out.strip()
        text = open(dendro_path).read()
        assert text.startswith("hsel-dendrogram v1")
        assert "leaves 12" in text

    def test_select_rules_agree_on_engineered_fixture(self, tmp_path):
        # Both final-choice rules land on the same members here: the level-3
        # candidate maximizes distance and validation score simultaneously.
        val_path, _ = _redundant_matrices(tmp_path)
        finals = {}
        for rule in ("max-validation", "max-diversity"):
            outdir = str(tmp_path / rule)
            rc = main(
                ["select", "--matrix", val_path, "--rule", rule,
                 "--metrics", "accuracy", "--outdir", outdir]
            )
            assert rc == 0
            doc = json.load(open(os.path.join(outdir, "selection_report.json")))
            finals[rule] = doc["metrics"]["accuracy"]["final"]
        assert finals["max-validation"]["rule"] == "max-validation"
        assert finals["max-diversity"]["rule"] == "max-diversity"
        assert finals["max-validation"]["members"] == finals["max-diversity"]["members"]

    def test_stack_command_round_trip(self, tmp_path, capsys):
        val_path, test_path = _redundant_matrices(tmp_path)
        outdir = str(tmp_path / "out")
        rc = main(
            [
                "stack",
                "--validation-matrix", val_path,
                "--test-matrix", test_path,
                "--members", "SRC01-CLF,SRC05-CLF,SRC09-CLF",
                "--meta", "vote",
                "--outdir", outdir,
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["test_eval"]["accuracy"] == 1.0
        from hsel.combine import stack_from_json

        restored = stack_from_json(open(out["stack"]).read())
        assert [m.canonical for m in restored.members] == [
            "SRC01-CLF", "SRC05-CLF", "SRC09-CLF",
        ]

    def test_stack_checks_class_counts_but_not_column_order(self, tmp_path, capsys):
        val_path, test_path = _redundant_matrices(tmp_path)
        tpm = make_redundant_matrix(seed=32, split=Split.TEST)
        reversed_path = str(tmp_path / "test-reversed.csv")
        write_prediction_matrix(
            PredictionMatrix(tpm.classifier_ids[::-1], tpm.predictions[:, ::-1], tpm.truth,
                             tpm.num_classes, tpm.split_tag),
            reversed_path,
        )
        outputs = []
        for name, path in (("same", test_path), ("reversed", reversed_path)):
            rc = main(["stack", "--validation-matrix", val_path, "--test-matrix", path,
                       "--members", "SRC01-CLF,SRC05-CLF,SRC09-CLF", "--meta", "LR",
                       "--outdir", str(tmp_path / name)])
            assert rc == 0
            outputs.append(((tmp_path / name / "stack.json").read_bytes(),
                            json.loads(capsys.readouterr().out)["test_eval"]))
        assert outputs[0] == outputs[1]

        two, three = tmp_path / "two.csv", tmp_path / "three.csv"
        for path, num_classes in ((two, 2), (three, 3)):
            path.write_text("truth,CV-NB,CV-LR\n0,0,1\n1,1,1\n")
            (tmp_path / f"{path.name}.meta.json").write_text(
                f'{{"num_classes": {num_classes}, "split": "TEST"}}'
            )
        rc = main(["stack", "--validation-matrix", str(two), "--test-matrix", str(three),
                   "--members", "CV-NB,CV-LR", "--outdir", str(tmp_path / "bad")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error [ingest]: ")
        assert str(two) in err and str(three) in err


    @pytest.mark.parametrize("command", ["diversity", "cluster", "stack"])
    def test_unwritable_out_names_the_write_stage(self, command, tmp_path, capsys):
        val_path, test_path = _redundant_matrices(tmp_path)
        assert main(["diversity", "--matrix", val_path, "--outdir", str(tmp_path)]) == 0
        capsys.readouterr()
        argv = {
            "diversity": ["diversity", "--matrix", val_path],
            "cluster": ["cluster", "--dissimilarity", str(tmp_path / "dissimilarity.csv")],
            "stack": ["stack", "--validation-matrix", val_path, "--test-matrix", test_path,
                      "--members", "SRC01-CLF,SRC05-CLF"],
        }[command]
        rc = main(argv + ["--out", str(tmp_path / "missing" / "x"), "--outdir", str(tmp_path)])
        assert rc == 1
        stage = {"diversity": "dissimilarity", "cluster": "dendrogram", "stack": "stack"}[command]
        assert capsys.readouterr().err.startswith(f"error [write-{stage}]: ")


@pytest.mark.parametrize("argv", [
    ["run", "--corpus", "c.csv"],
    ["compare", "--validation-matrix", "v.csv", "--test-matrix", "t.csv"],
    ["select", "--matrix", "m.csv"],
    ["diversity", "--matrix", "m.csv"],
    ["cluster", "--dissimilarity", "d.csv"],
    ["stack", "--validation-matrix", "v.csv", "--test-matrix", "t.csv", "--members", "A-B"],
], ids=lambda argv: argv[0])
def test_unusable_outdir_names_the_outdir_stage(argv, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(argv + ["--outdir", str(blocker / "sub")]) == 1
    assert capsys.readouterr().err.startswith("error [outdir]: ")


def _seeded_pool(seed):
    """Validation matrix of seed % 9 + 2 members and (seed // 2) % 4 + 2
    classes; even seeds are tie-heavy (few distinct columns over two labels)."""
    rng = np.random.default_rng(seed)
    p, c = seed % 9 + 2, (seed // 2) % 4 + 2
    n = int(rng.integers(2 * c, 80))
    truth = rng.integers(0, c, n)
    if seed % 2 == 0:
        base = rng.integers(0, 2, (n, max(1, p // 2)))
        columns = base[:, rng.integers(0, base.shape[1], p)]
    else:
        correct = rng.random((n, p)) < rng.uniform(0.3, 0.8, p)
        columns = np.where(correct, truth[:, None], rng.integers(0, c, (n, p)))
    ids = tuple(ClassifierId(f"E{i}", "A") for i in range(p))
    return PredictionMatrix(ids, columns, truth, c, Split.VALIDATION)


@pytest.mark.parametrize("meta_kind", ["NB", "VOTE"])
def test_nested_sweep_scores_match_standalone_stacks(meta_kind, monkeypatch):
    fitted = []
    original_fit = cli.fit_stacks

    def recording_fit(vpm, member_lists, **kwargs):
        fitted.append([tuple(m.canonical for m in members) for members in member_lists])
        return original_fit(vpm, member_lists, **kwargs)

    monkeypatch.setattr(cli, "fit_stacks", recording_fit)
    for seed in range(36):
        vpm = _seeded_pool(seed)
        matrix = dissimilarity_matrix(vpm)
        dendro, scores = linkage(matrix, "average"), evaluate_matrix(vpm)
        sweeps = {metric: hierarchy_select(dendro, matrix, scores, metric)
                  for metric in METRIC_NAMES}
        extra = [vpm.classifier_ids[:1], vpm.classifier_ids[::-1]]
        scored, stacks = cli._score_candidates(sweeps, vpm, meta_kind, extra)
        # Only what scoring reads is fitted: the full level, shared by every
        # metric's sweep, and the extra lists.
        full = tuple(c.canonical for c in dendro.leaf_ids)
        expected = list(dict.fromkeys([full] + [tuple(c.canonical for c in e) for e in extra]))
        assert fitted.pop() == expected == list(stacks)
        for metric, candidates in scored.items():
            for candidate in candidates:
                preds = predict_stack(fit_stack(vpm, candidate.members, meta_kind), vpm)
                entry = evaluate(preds, vpm.truth, vpm.num_classes)
                assert candidate.validation_score == entry.metric(metric), (seed, metric)


@pytest.mark.parametrize("meta_kind", ["NB", "VOTE"])
def test_nested_kinds_deploy_the_standalone_stack(meta_kind, small_corpus, tmp_path, monkeypatch):
    """Run's deployed ensemble and compare's group rows, D and ELBOW among
    them, are ``fit_stack`` on their members, weight for weight."""
    used, on_demand = [], []
    original_predict, original_fit = cli.predict_stack, cli.fit_stack

    def recording_predict(ensemble, pm):
        used.append(ensemble)
        return original_predict(ensemble, pm)

    def recording_fit(*args, **kwargs):
        on_demand.append(original_fit(*args, **kwargs))
        return on_demand[-1]

    monkeypatch.setattr(cli, "predict_stack", recording_predict)
    monkeypatch.setattr(cli, "fit_stack", recording_fit)
    run_dir, compare_dir = tmp_path / "run", tmp_path / "compare"
    report = cmd_run(RunConfig(corpus=small_corpus, outdir=str(run_dir), meta_kind=meta_kind))
    assert [[m.canonical for m in e.members] for e in used] == [report["selection"]["members"]]
    val_path, test_path = _grid_matrices(tmp_path)
    rows = cmd_compare(RunConfig(corpus="", outdir=str(compare_dir), meta_kind=meta_kind),
                       validation_matrix=val_path, test_matrix=test_path)["rows"]
    deployed = {tuple(m.canonical for m in e.members) for e in used[1:]}
    assert {tuple(r["members"]) for r in rows if r["kind"] in GROUP_KINDS} == deployed
    assert {"group_d", "elbow"} <= {r["kind"] for r in rows}
    assert on_demand and all(any(e is f for e in used) for f in on_demand)
    paths = [str(run_dir / "validation_matrix.csv")] + [val_path] * (len(used) - 1)
    for ensemble, path in zip(used, paths):
        reference = fit_stack(cli.read_prediction_matrix(path), ensemble.members, meta_kind)
        assert np.array_equal(ensemble.model.weights_, reference.model.weights_)
        assert np.array_equal(ensemble.model.bias_, reference.model.bias_)


def test_parser_defaults_documented():
    parser = build_parser()
    help_text = parser.format_help()
    assert "run" in help_text and "compare" in help_text and "ingest" in help_text


def test_option_defaults_come_from_run_config():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    defaults = RunConfig(corpus="")
    for name, sub in commands.choices.items():
        for action in sub._actions:
            if action.default in (None, argparse.SUPPRESS):
                continue
            assert action.default == getattr(defaults, action.dest), (name, action.dest)
            assert "(default: " in action.help, (name, action.dest)
    assert _config_from_args(parser.parse_args(["run", "--corpus", "c.csv"])) == RunConfig(
        corpus="c.csv"
    )
    args = parser.parse_args(["select", "--matrix", "m.csv", "--meta", "vote", "--alpha", "0.25"])
    assert _config_from_args(args) == RunConfig(corpus="", meta_kind="VOTE", alpha=0.25)


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "m.csv", "--seed", "3"],
        ["ingest", "m.csv", "--outdir", "out"],
        ["diversity", "--matrix", "m.csv", "--seed", "3"],
        ["cluster", "--dissimilarity", "d.csv", "--seed", "3"],
        ["stack", "--validation-matrix", "v.csv", "--test-matrix", "t.csv",
         "--members", "A-X", "--seed", "3"],
    ],
)
def test_commands_reject_options_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "1.5", "-0.25", "half"])
@pytest.mark.parametrize("command", [["run", "--corpus", "c.csv"], ["select", "--matrix", "m.csv"]])
def test_alpha_outside_unit_interval_rejected(command, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--alpha", value])
    assert exc.value.code == 2
    assert f"alpha must be a number in [0, 1], got {value!r}" in capsys.readouterr().err
    for bound in ("0", "1"):
        assert build_parser().parse_args(command + ["--alpha", bound]).alpha == float(bound)


@pytest.mark.parametrize("value", ["a,b,c", "nan,0.5,0.5", "0.5,inf,0.5", "0.5,0.5", "0.2,0.2,0.2,0.4"])
@pytest.mark.parametrize("command", [["run", "--corpus", "c.csv"], ["compare", "--corpus", "c.csv"]])
def test_ratios_must_be_three_finite_fractions(command, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--ratios", value])
    assert exc.value.code == 2
    message = f"ratios must be three comma-separated fractions, got {value!r}"
    assert message in capsys.readouterr().err
    assert build_parser().parse_args(command + ["--ratios", "0.5,0.25,0.25"]).ratios == (
        0.5, 0.25, 0.25)


@pytest.mark.parametrize("value", ["-0.5,1,0.5", "0.5,0,0.5", "0.5,0.5,-0.0", "0.6,0.6,-inf"])
@pytest.mark.parametrize("command", [["run", "--corpus", "c.csv"], ["compare", "--corpus", "c.csv"]])
def test_non_positive_ratios_rejected_at_parse_time(command, value, capsys):
    # Like --alpha, a fraction of 0 or less is an argparse error (exit 2),
    # raised before the corpus is opened, not an "error [split]" exit 1.
    with pytest.raises(SystemExit) as exc:
        main(command + [f"--ratios={value}"])
    assert exc.value.code == 2
    assert f"ratios must be three comma-separated fractions, got {value!r}" in capsys.readouterr().err


def test_select_still_accepts_seed():
    args = build_parser().parse_args(["select", "--matrix", "m.csv", "--seed", "3"])
    assert args.seed == 3


def test_benchmark_replay_hooks_resolve():
    """perfbench/replay.py wraps hsel names by attribute; installing its
    wraps fails if one of them was renamed or deleted."""
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "from replay import Replay; Replay().install()")
    result = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert result.returncode == 0, result.stderr

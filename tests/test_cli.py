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
    EvalEntry,
    PredictionMatrix,
    Split,
    evaluate,
    evaluate_matrix,
    load_corpus_csv,
)
from hsel.diversity import dissimilarity_matrix
from hsel.hiercluster import LINKAGE_METHODS, linkage, write_dendrogram
from hsel.pool import read_prediction_matrix, write_prediction_matrix
from hsel.selection import hierarchy_select

from conftest import (
    BUNDLED_CORPUS,
    assert_join_order,
    make_redundant_matrix,
    synthetic_news_corpus,
    write_corpus_csv,
)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "small.csv"
    write_corpus_csv(synthetic_news_corpus(n_docs=150, seed=3), str(path))
    return str(path)


@pytest.fixture(scope="module")
def bundled_run(tmp_path_factory):
    """The output directory of ``run`` on the bundled corpus with seed 7."""
    outdir = tmp_path_factory.mktemp("bundled") / "run"
    cmd_run(RunConfig(corpus=BUNDLED_CORPUS, seed=7, outdir=str(outdir)))
    return outdir


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

    def test_selection_report_sweeps_all_metrics(self, small_corpus, tmp_path, monkeypatch):
        sweeps = {}
        original = cli.hierarchy_select

        def recording_select(*args, metric):
            sweeps[metric] = original(*args, metric=metric)
            return sweeps[metric]

        monkeypatch.setattr(cli, "hierarchy_select", recording_select)
        config = RunConfig(corpus=small_corpus, outdir=str(tmp_path / "out"), seed=7)
        report = cmd_run(config)
        pool_ids = [entry["id"] for entry in report["pool"]]
        # The run report carries the primary metric's sweep; select on the
        # run's validation matrix redoes every metric's sweep.
        assert_join_order(report, sweeps["accuracy"], report["selection"], pool_ids)
        run_sweeps = dict(sweeps)
        validation_matrix = os.path.join(config.outdir, "validation_matrix.csv")
        assert main(["select", "--matrix", validation_matrix,
                     "--outdir", str(tmp_path / "select")]) == 0
        for outdir, recorded in ((config.outdir, run_sweeps), (tmp_path / "select", sweeps)):
            doc = json.load(open(os.path.join(outdir, "selection_report.json")))
            jsonschema.validate(doc, _schema("selection_report"))
            assert doc["report_version"] == 2
            assert set(doc["metrics"]) == {"accuracy", "precision", "recall", "f1"}
            for metric, metric_doc in doc["metrics"].items():
                assert len(metric_doc["candidates"]) == 12
                assert metric_doc["final"]["rule"] == "max-validation"
                assert_join_order(metric_doc, recorded[metric], metric_doc["final"], pool_ids)

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

    def test_exact_distance_tie_deploys_the_smaller_level(self, tmp_path):
        # Seed 300 on the bundled corpus: levels 2, 3 and 4 have the same exact
        # mean distance, 79/80, and the same validation score, so the rule's
        # last tie-break, the smaller k, deploys level 2. Block means summed in
        # floats rounded level 3 to 0.9875000000000002 and deployed it instead.
        report = cmd_run(RunConfig(corpus=BUNDLED_CORPUS, seed=300, outdir=str(tmp_path)))
        level2, level3 = report["candidates"][1:3]
        assert level2["mean_pairwise_distance"] == level3["mean_pairwise_distance"] == 0.9875
        assert level2["validation_score"] == level3["validation_score"]
        assert report["selection"]["level_k"] == 2


class TestCompare:
    def test_rows_on_a_native_pool(self, small_corpus, tmp_path):
        cmd_run(RunConfig(corpus=small_corpus, outdir=str(tmp_path / "run"), seed=7))
        config = RunConfig(outdir=str(tmp_path / "cmp"), seed=7)
        report = cmd_compare(config, str(tmp_path / "run" / "validation_matrix.csv"),
                             str(tmp_path / "run" / "test_matrix.csv"))
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
        ["--validation-matrix", "v.csv"],
        ["--test-matrix", "t.csv"],
        [],
    ], ids=["validation-only", "test-only", "none"])
    def test_both_matrices_are_required(self, inputs, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", *inputs, "--outdir", str(tmp_path / "cmp")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: hsel compare")
        assert "the following arguments are required" in err
        assert not (tmp_path / "cmp").exists()


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

    def test_sidecar_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # Editors that save "UTF-8 with BOM" prefix the sidecar with EF BB BF.
        pm = make_redundant_matrix(seed=31, split=Split.VALIDATION)
        plain, bom = str(tmp_path / "plain.csv"), str(tmp_path / "bom.csv")
        for path in (plain, bom):
            write_prediction_matrix(pm, path)
        sidecar = Path(bom + ".meta.json")
        sidecar.write_bytes(b"\xef\xbb\xbf" + sidecar.read_bytes())
        assert main(["ingest", plain]) == 0
        expected = capsys.readouterr().out
        assert main(["ingest", bom]) == 0
        assert capsys.readouterr().out == expected

    def test_label_out_of_range_rejected_with_line(self, tmp_path, capsys):
        path = tmp_path / "pm.csv"
        path.write_text("truth,CV-NB\n0,0\n1,5\n")
        (tmp_path / "pm.csv.meta.json").write_text('{"num_classes": 2, "split": "TEST"}')
        rc = main(["ingest", str(path)])
        assert rc == 1
        assert "line 3" in capsys.readouterr().err

    def test_undecodable_matrix_rejected_with_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_bytes(b"truth,CV-NB\n0,0\n1,\xff\n")
        (tmp_path / "m.csv.meta.json").write_text('{"num_classes": 2, "split": "TEST"}')
        assert main(["ingest", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error [ingest]: {path}: line 3: byte 0xff is not UTF-8 text\n")


@pytest.mark.parametrize(
    "text, read, message",
    [
        ('truth,CV-NB\n0,"1\n\n"\n1,x\n', "ingest", "non-integer label"),
        ('text,label\n"one\ntwo\nthree",pos\nfour,\n', load_corpus_csv, "empty label"),
    ],
)
def test_fault_after_multiline_record_names_its_start_line(tmp_path, capsys, text, read, message):
    # The quoted field spans lines 2-4, so the faulty record is the third
    # record but starts on physical line 5.
    path = str(tmp_path / "in.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    if read == "ingest":  # the matrix reader's cell-by-cell path, through the command
        (tmp_path / "in.csv.meta.json").write_text('{"num_classes": 2, "split": "TEST"}')
        assert main(["ingest", path]) == 1
        error = capsys.readouterr().err
    else:
        with pytest.raises(ValueError) as info:
            read(path)
        error = str(info.value)
    assert f"{path}: line 5: {message}" in error


class TestSingleStageCommands:
    def test_diversity_then_cluster(self, tmp_path, capsys):
        val_path, _ = _redundant_matrices(tmp_path)
        outdir = str(tmp_path / "out")
        assert main(["diversity", "--matrix", val_path, "--outdir", outdir]) == 0
        matrix_path = capsys.readouterr().out.strip()
        assert os.path.exists(matrix_path)
        assert main(["cluster", "--matrix", val_path, "--outdir", outdir]) == 0
        dendro_path = capsys.readouterr().out.strip()
        text = open(dendro_path).read()
        assert text.startswith("hsel-dendrogram v1")
        assert "leaves 12" in text

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_cluster_links_the_matrix_double_fault(self, method, bundled_run, tmp_path, capsys):
        # cluster's dendrogram is the library's on the matrix's distances, and
        # under the default method the one run writes from the same matrix.
        val_path = str(bundled_run / "validation_matrix.csv")
        option = [] if method == RunConfig().linkage else ["--linkage", method]
        outdir = tmp_path / "out"
        assert main(["cluster", "--matrix", val_path, *option, "--outdir", str(outdir)]) == 0
        expected = tmp_path / "expected.txt"
        write_dendrogram(linkage(dissimilarity_matrix(read_prediction_matrix(val_path)), method),
                         str(expected))
        written = (outdir / "dendrogram.txt").read_bytes()
        assert written == expected.read_bytes()
        if method == RunConfig().linkage:
            assert written == (bundled_run / "dendrogram.txt").read_bytes()

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

    def test_stack_command_exports_its_members(self, tmp_path, capsys):
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
        doc = json.load(open(out["stack"]))
        assert (doc["format"], doc["meta_kind"]) == ("hsel-stack", "VOTE")
        assert doc["members"] == ["SRC01-CLF", "SRC05-CLF", "SRC09-CLF"]

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
        # A directory that sits where the command's one file goes fails its write.
        argv = _commands_on_inputs(tmp_path, "")[command]
        name, stage = {"diversity": ("dissimilarity.csv", "dissimilarity"),
                       "cluster": ("dendrogram.txt", "dendrogram"),
                       "stack": ("stack.json", "stack")}[command]
        (tmp_path / "out" / name).mkdir(parents=True)
        assert main(argv + ["--outdir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error [write-{stage}]: ")


def _commands_on_inputs(tmp_path, corpus):
    """Each command that writes into ``--outdir``, on inputs it reads."""
    val_path, test_path = _redundant_matrices(tmp_path)
    return {
        "run": ["run", "--corpus", corpus],
        "compare": ["compare", "--validation-matrix", val_path, "--test-matrix", test_path],
        "select": ["select", "--matrix", val_path, "--meta", "VOTE"],
        "diversity": ["diversity", "--matrix", val_path],
        "cluster": ["cluster", "--matrix", val_path],
        "stack": ["stack", "--validation-matrix", val_path, "--test-matrix", test_path,
                  "--members", "SRC01-CLF,SRC05-CLF"],
    }


@pytest.mark.parametrize("command", ["run", "compare", "select", "diversity", "cluster", "stack"])
def test_unusable_outdir_names_the_outdir_stage(command, small_corpus, tmp_path, capsys):
    # The output directory is made when the first file is written there, so
    # each command reaches stage outdir only after its inputs have loaded.
    argv = _commands_on_inputs(tmp_path, small_corpus)[command]
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(argv + ["--outdir", str(blocker / "sub")]) == 1
    assert capsys.readouterr().err.startswith("error [outdir]: ")


@pytest.mark.parametrize("argv, stage", [
    (["run", "--corpus", "{unquoted}"], "load-corpus"),
    (["compare", "--validation-matrix", "{missing}", "--test-matrix", "{missing}"], "ingest"),
    (["select", "--matrix", "{missing}"], "ingest"),
    (["diversity", "--matrix", "{missing}"], "ingest"),
    (["cluster", "--matrix", "{missing}"], "ingest"),
    (["stack", "--validation-matrix", "{missing}", "--test-matrix", "{missing}",
      "--members", "A-X"], "ingest"),
], ids=["run", "compare", "select", "diversity", "cluster", "stack"])
def test_failed_command_leaves_no_outdir(argv, stage, tmp_path, capsys):
    unquoted = tmp_path / "unquoted.csv"
    unquoted.write_text("text,label\nhello, world,pos\nbye,neg\n")
    paths = {"unquoted": str(unquoted), "missing": str(tmp_path / "missing.csv")}
    outdir = tmp_path / "out"
    assert main([arg.format(**paths) for arg in argv] + ["--outdir", str(outdir)]) == 1
    assert capsys.readouterr().err.startswith(f"error [{stage}]: ")
    assert not outdir.exists()


@pytest.mark.parametrize("argv", [
    ["ingest", "{missing}"],
    ["diversity", "--matrix", "{missing}"],
    ["select", "--matrix", "{missing}"],
    ["compare", "--validation-matrix", "{val}", "--test-matrix", "{missing}"],
    ["cluster", "--matrix", "{missing}"],
    ["stack", "--validation-matrix", "{missing}", "--test-matrix", "{test}", "--members", "A-X"],
], ids=["ingest", "diversity", "select", "compare", "cluster", "stack"])
def test_missing_matrix_is_named_not_its_sidecar(argv, tmp_path, capsys, monkeypatch):
    # The matrix is opened before its sidecar, so the error names the file
    # that is missing, not the sidecar path derived from it.
    val_path, test_path = _redundant_matrices(tmp_path)
    missing = str(tmp_path / "missing.csv")
    paths = {"missing": missing, "val": val_path, "test": test_path}
    monkeypatch.chdir(tmp_path)
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [ingest]: ") and repr(missing) in err
    assert ".meta.json" not in err


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
        _assert_standalone_scores(scored, vpm, meta_kind, seed)


def _assert_standalone_scores(scored, vpm, meta_kind, seed):
    for metric, candidates in scored.items():
        for candidate in candidates:
            preds = predict_stack(fit_stack(vpm, candidate.members, meta_kind), vpm)
            entry = evaluate(preds, vpm.truth, vpm.num_classes)
            assert candidate.validation_score == entry.metric(metric), (seed, metric)


@pytest.mark.parametrize("meta_kind", ["NB", "VOTE"])
def test_later_sweeps_label_only_their_own_levels(meta_kind, monkeypatch):
    """Sweeps whose later metrics share every level, or all but level 1,
    label only their own levels (none, or level 1 alone, where
    ``predict_nested`` stops) and still score as standalone stacks."""
    wanted = []
    original_nested = cli.predict_nested

    def recording_nested(ensemble, pm, order, flags):
        wanted.append(list(flags))
        return original_nested(ensemble, pm, order, flags)

    monkeypatch.setattr(cli, "predict_nested", recording_nested)
    for seed in range(3, 36, 4):
        vpm = _seeded_pool(seed)
        matrix = dissimilarity_matrix(vpm)
        dendro, scores = linkage(matrix, "average"), evaluate_matrix(vpm)
        p = vpm.n_classifiers
        # Every metric ranks the pool alike, so every sweep is the first one.
        alike = {name: EvalEntry(*[entry.accuracy] * 4) for name, entry in scores.items()}
        sweeps = {metric: hierarchy_select(dendro, matrix, alike, metric)
                  for metric in METRIC_NAMES}
        wanted.clear()
        scored, _ = cli._score_candidates(sweeps, vpm, meta_kind)
        assert wanted == [[True] * p] + [[False] * p] * 3
        _assert_standalone_scores(scored, vpm, meta_kind, seed)
        # Level 2's second member outranking the first swaps only their join order.
        first = hierarchy_select(dendro, matrix, scores, "accuracy")
        lifted = {**scores, first[1].joined.canonical: EvalEntry(2.0, 2.0, 2.0, 2.0)}
        second = hierarchy_select(dendro, matrix, lifted, "accuracy")
        assert [c.joined for c in second[:2]] == [c.joined for c in first[1::-1]]
        assert [c.members for c in second[1:]] == [c.members for c in first[1:]]
        wanted.clear()
        scored, _ = cli._score_candidates({"accuracy": first, "f1": second}, vpm, meta_kind)
        assert wanted == [[True] * p, [True] + [False] * (p - 1)]
        _assert_standalone_scores(scored, vpm, meta_kind, seed)


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


def test_select_seed_is_accepted_and_unused():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    seed = next(a for a in commands.choices["select"]._actions if a.dest == "seed")
    assert seed.help == "accepted and unused: select draws no random numbers"
    args = parser.parse_args(["select", "--matrix", "m.csv", "--seed", "3"])
    assert _config_from_args(args) == RunConfig(corpus="", seed=3)


_RUN = ["run", "--corpus", "c.csv"]
_COMPARE = ["compare", "--validation-matrix", "v.csv", "--test-matrix", "t.csv"]
_SELECT = ["select", "--matrix", "m.csv"]
_STACK = ["stack", "--validation-matrix", "v.csv", "--test-matrix", "t.csv"]


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "m.csv", "--seed", "3"],
        ["ingest", "m.csv", "--outdir", "out"],
        ["diversity", "--matrix", "m.csv", "--seed", "3"],
        ["cluster", "--matrix", "m.csv", "--seed", "3"],
        ["stack", "--validation-matrix", "v.csv", "--test-matrix", "t.csv",
         "--members", "A-X", "--seed", "3"],
        ["run", "--corpus", "c.csv", "--conversion", "complement"],
        [*_COMPARE, "--conversion", "complement"],
        ["select", "--matrix", "m.csv", "--conversion", "complement"],
        ["diversity", "--matrix", "m.csv", "--conversion", "complement"],
        ["diversity", "--matrix", "m.csv", "--out", "d.csv"],
        ["cluster", "--matrix", "m.csv", "--out", "t.txt"],
        ["stack", "--validation-matrix", "v.csv", "--test-matrix", "t.csv",
         "--members", "A-X", "--out", "s.json"],
        ["select", "--matrix", "m.csv", "--out", "r.json"],
        ["ingest", "m.csv", "--meta-file", "m.json"],
        ["diversity", "--matrix", "m.csv", "--meta-file", "m.json"],
        ["select", "--matrix", "m.csv", "--meta-file", "m.json"],
        # compare reads prediction matrices only, and cluster computes its
        # distances from one.
        [*_COMPARE, "--corpus", "c.csv"],
        [*_COMPARE, "--ratios", "0.6,0.2,0.2"],
        [*_COMPARE, "--extractors", "COUNT"],
        [*_COMPARE, "--algorithms", "NB"],
        ["cluster", "--matrix", "m.csv", "--dissimilarity", "d.csv"],
        # Options match by their full name only.
        ["run", "--corpus", "c.csv", "--see", "3"],
        ["select", "--matrix", "m.csv", "--outd", "out"],
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


@pytest.mark.parametrize("command, flag, value, message, distinct", [
    (_RUN, "--metrics", "f1,accuracy,f1", "metric 'f1' is repeated", "f1,accuracy"),
    (_SELECT, "--metrics", "f1,accuracy,f1", "metric 'f1' is repeated", "f1,accuracy"),
    (_RUN, "--metrics", "precision,precision", "metric 'precision' is repeated", "f1,accuracy"),
    (_SELECT, "--metrics", "precision,precision", "metric 'precision' is repeated", "f1"),
    (_RUN, "--extractors", "COUNT,CV", "extractor 'CV' is repeated", "CV,TFIDF"),
    (_RUN, "--extractors", "tfidf,TF-IDF", "extractor 'TF-IDF' is repeated", "cv,HASHED"),
    (_RUN, "--algorithms", "NB,nb", "algorithm 'nb' is repeated", "NB,lr"),
    (_RUN, "--algorithms", "knn,LR, KNN", "algorithm 'KNN' is repeated", "knn,nc"),
    (_STACK, "--members", "COUNT-NB,count-nb", "member 'count-nb' is repeated", "CV-NB,cv-lr"),
    (_SELECT, "--metrics", "f1,auc", "unknown metric 'auc'", "recall"),
    (_RUN, "--extractors", "COUNT,FOO", "unknown extractor token 'FOO'", "hashed-dense"),
    (_RUN, "--extractors", "glove", "unknown extractor token 'glove'", "tf-idf"),
    (_RUN, "--algorithms", "NB,SVM", "unknown algorithm token 'SVM'", "nb,Knn"),
    (_RUN, "--algorithms", "xgb", "unknown algorithm token 'XGB'", "NC"),
    (_STACK, "--members", "COUNT-NB,X", "cannot parse classifier id 'X'", "FOO-NB"),
    (_STACK, "--members", "CV-LR,NB-", "cannot parse classifier id 'NB-'", "A-B-NB"),
])
def test_bad_token_rejected_at_parse_time(command, flag, value, message, distinct, capsys):
    # A token that its stage would reject as unknown, or that repeats another
    # once normalized as the stage reads it (case, extractor aliases,
    # canonical ids), is an argparse error (exit 2), raised before any file
    # is opened; distinct known tokens stay as typed.
    with pytest.raises(SystemExit) as exc:
        main(command + [flag, value])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    args = build_parser().parse_args(command + [flag, distinct])
    assert getattr(args, flag[2:]) == tuple(distinct.split(","))


@pytest.mark.parametrize("value", ["a,b,c", "nan,0.5,0.5", "0.5,inf,0.5", "0.5,0.5",
                                   "0.2,0.2,0.2,0.4", "0.5,0.5,0.5", "0.6,0.2,0.2000001",
                                   "0.3,0.3,0.3"])
def test_ratios_must_be_three_finite_fractions(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_RUN + ["--ratios", value])
    assert exc.value.code == 2
    message = f"ratios must be three comma-separated fractions that sum to 1, got {value!r}"
    assert message in capsys.readouterr().err
    # 0.7 + 0.2 + 0.1 is not 1 in floats, but within split_corpus's tolerance.
    for accepted in ("0.5,0.25,0.25", "0.7,0.2,0.1"):
        ratios = build_parser().parse_args(_RUN + ["--ratios", accepted]).ratios
        assert ratios == tuple(float(part) for part in accepted.split(","))


@pytest.mark.parametrize("value", ["-0.5,1,0.5", "0.5,0,0.5", "0.5,0.5,-0.0", "0.6,0.6,-inf"])
def test_non_positive_ratios_rejected_at_parse_time(value, capsys):
    # Like --alpha, a fraction of 0 or less is an argparse error (exit 2),
    # raised before the corpus is opened, not an "error [split]" exit 1.
    with pytest.raises(SystemExit) as exc:
        main(_RUN + [f"--ratios={value}"])
    assert exc.value.code == 2
    message = f"ratios must be three comma-separated fractions that sum to 1, got {value!r}"
    assert message in capsys.readouterr().err


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

"""Report files: the shipped schemas, strict JSON, and commands that run
without ``jsonschema``.

Every report an in-process command writes is also validated against its
schema with ``jsonschema`` by the ``conftest`` fixture that wraps
``cli._emit_report``."""

import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from hsel import cli
from hsel.core import Split
from hsel.pool import write_prediction_matrix

from conftest import make_redundant_matrix

SCHEMA_NAMES = ("run_report", "selection_report", "compare_report")
TOY_CORPUS = str(resources.files("hsel").joinpath("data/toy_corpus.csv"))


def _write_matrices(tmp_path):
    paths = []
    for seed, split, name in ((31, Split.VALIDATION, "val.csv"), (32, Split.TEST, "test.csv")):
        paths.append(str(tmp_path / name))
        write_prediction_matrix(make_redundant_matrix(seed=seed, split=split), paths[-1])
    return paths


def test_shipped_schemas_are_valid_draft_2020_12():
    for name in SCHEMA_NAMES:
        jsonschema.Draft202012Validator.check_schema(cli._load_schema(name))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_value_fails_the_write(tmp_path, capsys, monkeypatch, value):
    val_path, _ = _write_matrices(tmp_path)
    real_doc = cli._selection_report_doc

    def non_finite_doc(*args):
        doc = real_doc(*args)
        doc["metrics"]["accuracy"]["candidates"][3]["validation_score"] = value
        return doc

    monkeypatch.setattr(cli, "_selection_report_doc", non_finite_doc)
    rc = cli.main(["select", "--matrix", val_path, "--metrics", "accuracy",
                   "--outdir", str(tmp_path / "out")])
    assert rc == 1
    assert "error [write-report]: Out of range float values are not JSON compliant" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out" / "selection_report.json").exists()


def _env():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_commands_run_without_jsonschema(tmp_path):
    val_path, test_path = _write_matrices(tmp_path)
    script = """
import json, sys
sys.modules["jsonschema"] = None
import hsel.cli
runs = [["run", "--corpus", sys.argv[1], "--outdir", sys.argv[4] + "/run"],
        ["select", "--matrix", sys.argv[2], "--outdir", sys.argv[4] + "/select"],
        ["compare", "--validation-matrix", sys.argv[2], "--test-matrix", sys.argv[3],
         "--outdir", sys.argv[4] + "/compare"]]
print(json.dumps([hsel.cli.main(argv) for argv in runs]))
"""
    out = subprocess.run([sys.executable, "-c", script, TOY_CORPUS, val_path, test_path,
                          str(tmp_path)], capture_output=True, text=True, env=_env(), check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [0, 0, 0]
    for name, sub in (("run_report", "run"), ("selection_report", "run"),
                      ("selection_report", "select"), ("compare_report", "compare")):
        doc = json.loads((tmp_path / sub / f"{name}.json").read_text())
        jsonschema.validate(doc, cli._load_schema(name))


def test_importing_cli_leaves_jsonschema_unloaded():
    code = "import sys, hsel.cli; assert 'jsonschema' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=_env(), check=True)


def test_run_loads_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma under numpy 2.4, a cold-start cost of every
    # run; a run must load nothing of it that importing numpy did not.
    script = """
import sys
import hsel.cli
before = "numpy.ma" in sys.modules
code = hsel.cli.main(["run", "--corpus", sys.argv[1], "--outdir", sys.argv[2]])
print(code, before, "numpy.ma" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", script, TOY_CORPUS, str(tmp_path / "run")],
                         capture_output=True, text=True, env=_env(), check=True)
    code, before, after = out.stdout.strip().splitlines()[-1].split()
    assert code == "0"
    assert after == before

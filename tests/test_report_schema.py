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
import numpy as np
import pytest

from hsel import cli
from hsel.cli import _emit_report
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


@pytest.mark.parametrize("value", [np.int64(3), {1, 2}, b"x"], ids=["int64", "set", "bytes"])
def test_unencodable_value_fails_the_write(tmp_path, capsys, monkeypatch, value):
    # The schema leaves a candidate's extra keys untyped, so the value reaches the writer.
    val_path, _ = _write_matrices(tmp_path)
    real_doc = cli._selection_report_doc

    def unencodable_doc(*args):
        doc = real_doc(*args)
        doc["metrics"]["accuracy"]["candidates"][3]["note"] = value
        return doc

    monkeypatch.setattr(cli, "_selection_report_doc", unencodable_doc)
    rc = cli.main(["select", "--matrix", val_path, "--metrics", "accuracy",
                   "--outdir", str(tmp_path / "out")])
    assert rc == 1
    assert (f"error [write-report]: Object of type {type(value).__name__} is not JSON "
            "serializable") in capsys.readouterr().err
    assert not (tmp_path / "out" / "selection_report.json").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("place", [
    lambda v: v, lambda v: [1, v], lambda v: {"a": {"b": (v,)}}, lambda v: {v: 1},
], ids=["top", "list", "nested", "key"])
def test_writer_rejects_non_finite_floats(value, place, tmp_path):
    # The unchecked writer, bound at import: conftest wraps cli._emit_report
    # in a schema check, which these documents would fail first.
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        _emit_report(place(value), "selection_report", str(path))
    assert not path.exists()


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
    # np.unique imports numpy.ma under numpy 2.4, and a numpy.random generator
    # costs its import on first use: both are cold-start costs of every run. A
    # run must load nothing of either that importing numpy did not.
    script = """
import json, sys
import hsel.cli
modules = ("numpy.ma", "numpy.random")
before = {name: name in sys.modules for name in modules}
code = hsel.cli.main(["run", "--corpus", sys.argv[1], "--outdir", sys.argv[2]])
print(json.dumps([code, before, {name: name in sys.modules for name in modules}]))
"""
    out = subprocess.run([sys.executable, "-c", script, TOY_CORPUS, str(tmp_path / "run")],
                         capture_output=True, text=True, env=_env(), check=True)
    code, before, after = json.loads(out.stdout.strip().splitlines()[-1])
    assert code == 0
    assert after == before

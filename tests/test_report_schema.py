"""The built-in report checker against jsonschema, the test-only oracle."""

import copy
import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from hsel import cli
from hsel.core import Split
from hsel.pool import write_prediction_matrix

from conftest import make_redundant_matrix

SCHEMA_NAMES = ("run_report", "selection_report", "compare_report")
SWAPS = (None, True, 1, 1.0, 1.5, -1, "", [], {}, float("nan"))
NEW_KEYS = ("extra", "members", "level_k", "a b")
TOY_CORPUS = str(resources.files("hsel").joinpath("data/toy_corpus.csv"))


def _write_matrices(tmp_path):
    paths = []
    for seed, split, name in ((31, Split.VALIDATION, "val.csv"), (32, Split.TEST, "test.csv")):
        paths.append(str(tmp_path / name))
        write_prediction_matrix(make_redundant_matrix(seed=seed, split=split), paths[-1])
    return paths


@pytest.fixture(scope="module")
def short_reports(tmp_path_factory):
    """A run, a selection and a compare report, cut to a few entries each."""
    tmp = tmp_path_factory.mktemp("reports")
    cli.cmd_run(cli.RunConfig(corpus=TOY_CORPUS, outdir=str(tmp / "run")))
    val_path, test_path = _write_matrices(tmp)
    cli.cmd_compare(cli.RunConfig(corpus="", outdir=str(tmp / "cmp")), val_path, test_path)
    load = lambda *parts: json.loads(tmp.joinpath(*parts).read_text())
    run = load("run", "run_report.json")
    run["pool"] = run["pool"][:3]
    run["candidates"] = [dict(c, members=c["members"][:2]) for c in run["candidates"][:3]]
    selection = load("run", "selection_report.json")
    selection["metrics"] = {
        metric: dict(doc, candidates=[dict(c, members=c["members"][:2])
                                      for c in doc["candidates"][:3]])
        for metric, doc in list(selection["metrics"].items())[:2]
    }
    compare = load("cmp", "compare_report.json")
    compare["rows"] = compare["rows"][:4]
    return {"run_report": run, "selection_report": selection, "compare_report": compare}


def _nodes(value, path=()):
    yield path, value
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutate(doc, rng):
    """A copy of ``doc`` with one or two random edits: delete a key, add a
    key, empty a list or an object, or swap a value for one of ``SWAPS``."""
    doc = copy.deepcopy(doc)
    for _ in range(int(rng.integers(1, 3))):
        nodes = list(_nodes(doc))
        path, node = nodes[int(rng.integers(len(nodes)))]
        edit = int(rng.integers(4))
        if edit == 0 and isinstance(node, dict) and node:
            del node[list(node)[int(rng.integers(len(node)))]]
        elif edit == 1 and isinstance(node, dict):
            node[NEW_KEYS[int(rng.integers(len(NEW_KEYS)))]] = SWAPS[int(rng.integers(len(SWAPS)))]
        elif edit == 2 and isinstance(node, (list, dict)):
            node.clear()
        elif path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(SWAPS[int(rng.integers(len(SWAPS)))])
    return doc


def _accepts(check, doc) -> bool:
    try:
        check(doc)
    except ValueError:
        return False
    return True


def test_shipped_schemas_are_valid_draft_2020_12():
    for name in SCHEMA_NAMES:
        jsonschema.Draft202012Validator.check_schema(cli._load_schema(name))


def test_checker_agrees_with_jsonschema_on_mutated_reports(short_reports):
    # ``jsonschema.validate`` is ``check_schema`` (tested above) followed by
    # this validator; building it once keeps the test fast.
    rng = np.random.default_rng(2020)
    cases = rejected = 0
    for name, doc in short_reports.items():
        schema = cli._load_schema(name)
        oracle = jsonschema.Draft202012Validator(schema)
        assert _accepts(lambda d: cli._check_report(d, schema), doc), name
        for case in range(600):
            mutant = _mutate(doc, rng)
            ours = _accepts(lambda d: cli._check_report(d, schema), mutant)
            assert ours == oracle.is_valid(mutant), (name, case, mutant)
            cases += 1
            rejected += not ours
    assert 0.25 * cases < rejected < 0.75 * cases


def test_violation_names_json_path_and_stage(tmp_path, capsys, monkeypatch):
    val_path, _ = _write_matrices(tmp_path)
    real_doc = cli._selection_report_doc

    def broken_doc(*args):
        doc = real_doc(*args)
        doc["metrics"]["accuracy"]["candidates"][3]["members"] = []
        return doc

    monkeypatch.setattr(cli, "_selection_report_doc", broken_doc)
    rc = cli.main(["select", "--matrix", val_path, "--metrics", "accuracy",
                   "--outdir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error [write-report]: $.metrics.accuracy.candidates[3].members: " in err
    assert not (tmp_path / "out" / "selection_report.json").exists()


@pytest.mark.parametrize("path", [
    ("properties", "generated_at"),
    ("$defs", "candidate", "properties", "members", "items"),
])
def test_unsupported_keyword_raises(short_reports, path):
    schema = cli._load_schema("run_report")
    target = schema
    for key in path:
        target = target[key]
    target["pattern"] = "^2"
    with pytest.raises(ValueError, match=r"not supported: \['pattern'\]"):
        cli._check_report(short_reports["run_report"], schema)


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

"""hsel benchmark: four CLI workloads, end-to-end metrics, traced replay.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in perfbench/workloads.json. A run generates its
inputs from --seed (generation is never timed), then for S seconds runs the
workload's hsel command through ``hsel.cli.main``, one call at a time, each
in a fresh interpreter (perfbench/child.py). Every call is checked: exit
code 0, every report valid against its schema in src/hsel/schemas/, the
artifacts of every call on one input byte-identical once ``generated_at`` is
dropped, and test accuracy above the random baseline.

The time metrics (setup_s, wall_s, wall_s_tail, cpu_s) are in reference
seconds. On a shared host the speed of a core changes by up to 1.7x, in
spells of a second or so, with the load of whoever shares it. So the
benchmark and its children are pinned to one CPU, and while a child runs
this process wakes every TICK_INTERVAL_S, runs ``tick()``, a fixed 0.1 ms
loop that does not touch hsel, once to warm up and times it a second time,
on that CPU. Each call's times are
multiplied by TICK_REF_S over the mean tick time seen during the call: the
ticks slow down with the core, so the scaled times follow the program, not
the neighbours. The unscaled times are printed and kept in the result file.
Children run with one BLAS thread.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 untraced calls alternate with traced calls of the same command
(perfbench/replay.py), whose artifacts must match the untraced ones, and
the last line carries the per-module metrics.
Inputs, artifacts, spans and a full result file go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread, here and in every child: on a small shared host a second
# thread waits on a core that neighbours also use, and times spread with
# their load. Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import gen  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench_work"
CHILD_TIMEOUT_S = 150.0
# Reference time of tick(): scaled times read as on a core where a warm tick
# takes this long (a round value; a warm tick took 0.08-0.12 ms on the 2-core
# host the benchmark was sized on).
TICK_REF_S = 1e-4
# Sleep between ticks while a child runs: ticks take under 1% of the CPU.
TICK_INTERVAL_S = 0.03
SCALED = ("setup_s", "wall_s", "cpu_s")
_GENERATED_AT = re.compile(rb'\n\s*"generated_at": "[^"]*",?')

with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)
WORKLOADS = MANIFEST["workloads"]


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------- inputs


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def prepare_inputs(spec: dict, seed: int, workdir: str) -> list[dict]:
    """Generate this run's inputs; input k uses seed * 100 + k."""
    inputs = []
    outdir = os.path.join(workdir, "out")
    for k in range(MANIFEST["inputs_per_run"]):
        input_seed = (seed % 2**31) * 100 + k
        indir = os.path.join(workdir, f"in{k}")
        os.makedirs(indir, exist_ok=True)
        fields = {"outdir": outdir, "input_seed": str(input_seed)}
        inp: dict = {"index": k, "seed": input_seed}
        cfg = spec["input"]
        params = {key: value for key, value in cfg.items() if key != "kind"}
        if cfg["kind"] == "zipf":
            rows = gen.zipf_corpus(input_seed, **params)
            fields["corpus"] = os.path.join(indir, "corpus.csv")
            _write(fields["corpus"], gen.corpus_csv(rows))
        elif cfg["kind"] == "matrices":
            ids, splits = gen.prediction_matrices(input_seed, **params)
            for key, tag, name in (("validation", "VALIDATION", "validation_matrix.csv"),
                                   ("test", "TEST", "test_matrix.csv")):
                fields[key] = os.path.join(indir, name)
                body, sidecar = gen.matrix_files(ids, *splits[tag], cfg["num_classes"], tag)
                _write(fields[key], body)
                _write(fields[key] + ".meta.json", sidecar)
            inp["ids"] = ids
            inp["splits"] = splits
            inp["num_classes"] = cfg["num_classes"]
        inp["argv"] = [arg.format(**fields) for arg in spec["command"]]
        inputs.append(inp)
    return inputs


# ---------------------------------------------------------------- checks


def artifact_digest(outdir: str) -> str:
    """Digest of every artifact, with report ``generated_at`` lines dropped."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        if name.endswith("_report.json"):
            data = _GENERATED_AT.sub(b"", data)
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def validate_reports(outdir: str, reports: list[str]) -> dict[str, dict]:
    """Load every report and validate it against its schema; raise on failure."""
    import jsonschema

    docs = {}
    for name in reports:
        stem = name[: -len(".json")]
        with open(os.path.join("src", "hsel", "schemas", f"{stem}.schema.json"),
                  encoding="utf-8") as fh:
            schema = json.load(fh)
        with open(os.path.join(outdir, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        jsonschema.validate(doc, schema)
        docs[name] = doc
    return docs


def final_score(candidates: list[dict], level_k: int) -> float:
    return next(c["validation_score"] for c in candidates if c["level_k"] == level_k)


def matrix(inp: dict, tag: str):
    """The generated ``tag`` split of a matrix workload's input as an hsel matrix."""
    from hsel import ClassifierId, PredictionMatrix, Split

    truth, preds = inp["splits"][tag]
    return PredictionMatrix(tuple(ClassifierId.parse(i) for i in inp["ids"]), preds, truth,
                            inp["num_classes"], Split(tag))


def stacked_score(inp: dict, members: list[str], meta_kind: str, tag: str):
    """hsel's evaluation of ``members`` stacked with ``meta_kind`` on the
    generated validation split and applied to the ``tag`` split."""
    from hsel import evaluate, fit_stack, predict_stack

    target = matrix(inp, tag)
    ensemble = fit_stack(matrix(inp, "VALIDATION"), members, meta_kind=meta_kind)
    return evaluate(predict_stack(ensemble, target), target.truth, target.num_classes)


def quality(command: str, docs: dict[str, dict], inp: dict) -> dict[str, float]:
    """Test accuracy/F1 of the final ensemble and validation accuracy of the
    final candidate, read from the reports or computed from them with hsel."""
    if command == "run":
        report = docs["run_report.json"]
        sel = report["selection"]
        if sel["metric"] != "accuracy":
            raise ValueError("run report selection metric is not accuracy")
        final = report["final_test_eval"]
        val = final_score(report["candidates"], sel["level_k"])
        return {"test_accuracy": final["accuracy"], "test_f1": final["f1"], "val_accuracy": val,
                "num_classes": len(report["label_mapping"])}
    c = inp["num_classes"]
    if command == "select":
        entry = docs["selection_report.json"]["metrics"]["accuracy"]
        final = entry["final"]
        test = stacked_score(inp, final["members"], "VOTE", "TEST")
        val = final_score(entry["candidates"], final["level_k"])
        return {"test_accuracy": test.accuracy, "test_f1": test.f1, "val_accuracy": val,
                "num_classes": c}
    # compare: group D is the hierarchy-selected ensemble; its validation
    # score is not in the report, so stack it on validation here.
    row = next(r for r in docs["compare_report.json"]["rows"] if r["kind"] == "group_d")
    val = stacked_score(inp, row["members"], "LR", "VALIDATION").accuracy
    return {"test_accuracy": row["accuracy"], "test_f1": row["f1"], "val_accuracy": val,
            "num_classes": c}


# ---------------------------------------------------------------- calls


def tick() -> float:
    """Seconds taken by a fixed 600-step dict loop, about 0.1 ms."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(600):
        counts[i & 63] = counts.get(i & 63, 0) + i
    return time.perf_counter() - start


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env.pop("HSEL_OUTPUT_DIR", None)  # would override the fixed outdir
    return env


def run_script(script: str, args: list[str], result_path: str) -> tuple[dict | None, str]:
    """Run a perfbench script in a fresh interpreter, timing ticks while it
    runs; return its result file with the mean tick time added."""
    if os.path.exists(result_path):
        os.remove(result_path)
    err_path = result_path + ".stderr"
    ticks = []
    with open(err_path, "wb") as err_fh:
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, script), result_path, *args],
                                env=child_env(), stdout=subprocess.DEVNULL, stderr=err_fh)
        deadline = time.perf_counter() + CHILD_TIMEOUT_S
        try:
            while proc.poll() is None:
                if time.perf_counter() > deadline:
                    return None, f"{script} timed out after {CHILD_TIMEOUT_S} s"
                time.sleep(TICK_INTERVAL_S)
                # The first tick reloads the caches the child evicted; the
                # second sees the speed of the core.
                tick()
                ticks.append(tick())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        err = fh.read().strip()
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, f"{script} exited {proc.returncode}: {err[-500:]}"
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    res["ticks"] = len(ticks)
    res["tick_s"] = statistics.fmean(ticks) if ticks else TICK_REF_S
    return res, err


class Runner:
    """Runs and checks CLI calls on a workload's inputs, round-robin."""

    def __init__(self, name: str, inputs: list[dict], workdir: str):
        self.spec = WORKLOADS[name]
        self.command = self.spec["command"][0]
        self.inputs = inputs
        self.workdir = workdir
        self.outdir = os.path.join(workdir, "out")
        self.samples: list[dict] = []
        self.digests: dict[int, str] = {}
        self.quality: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def call(self, inp: dict) -> None:
        self.attempted += 1
        res, err = run_script("child.py", inp["argv"], os.path.join(self.workdir, "child.json"))
        if res is None or res["exit_code"] != 0:
            self.fail(f"input {inp['index']}: {err or 'nonzero exit code'}")
            return
        k = inp["index"]
        speed = TICK_REF_S / res["tick_s"]
        self.samples.append({**res, **{f"raw_{name}": res[name] for name in SCALED},
                             **{name: res[name] * speed for name in SCALED}, "input": k})
        try:
            digest = artifact_digest(self.outdir)
            if k not in self.digests:
                docs = validate_reports(self.outdir, self.spec["reports"])
                q = quality(self.command, docs, inp)
                if not q["test_accuracy"] > 1.0 / q["num_classes"]:
                    raise ValueError(f"test accuracy {q['test_accuracy']} not above baseline")
                self.digests[k], self.quality[k] = digest, q
            elif digest != self.digests[k]:
                raise ValueError("artifacts differ from the first call on this input")
        except Exception as exc:  # any failed check counts against the call
            self.fail(f"input {k}: {type(exc).__name__}: {exc}")

    def replay(self, inp: dict) -> dict | None:
        """Traced call of one input; its artifacts must match the untraced ones."""
        self.attempted += 1
        k = inp["index"]
        if k not in self.digests:
            self.fail(f"replay input {k}: no checked CLI artifacts to compare with")
            return None
        res, err = run_script("replay.py", [os.path.join(self.workdir, f"spans{k}.json"),
                                            *inp["argv"]],
                              os.path.join(self.workdir, "replay.json"))
        if res is None or res["exit_code"] != 0:
            self.fail(f"replay input {k}: {err or 'nonzero exit code'}")
            return None
        if artifact_digest(self.outdir) != self.digests[k]:
            self.fail(f"replay input {k}: artifacts differ from the untraced call's")
        return res

    def traced_pair(self, inp: dict) -> dict | None:
        """One traced and one untraced call of ``inp``; the replay's result."""
        result = self.replay(inp)
        self.call(inp)
        return result

    def loop(self, step, seconds: float, min_steps: int) -> list:
        """Apply ``step`` to the inputs round-robin for ``seconds``, and at
        least ``min_steps`` times; return the results."""
        deadline = time.perf_counter() + seconds
        results = []
        while len(results) < min_steps or time.perf_counter() < deadline:
            results.append(step(self.inputs[len(results) % len(self.inputs)]))
        return results


def tail(values: list[float], calls: int) -> float:
    """Percentile 1 - 10/calls of the run's samples: the highest percentile
    with ten samples beyond it in a run of ``calls`` calls, which every run
    makes. ``calls`` is fixed per workload, so the percentile does not move
    with the speed of the calls."""
    return float(np.quantile(values, 1.0 - 10.0 / calls))


def end_to_end(runner: Runner) -> dict[str, float]:
    s = runner.samples
    wall = [x["wall_s"] for x in s]
    q = list(runner.quality.values())
    return {
        "setup_s": statistics.median(x["setup_s"] for x in s),
        "wall_s": statistics.median(wall),
        "wall_s_tail": tail(wall, runner.spec["tail_calls"]),
        "cpu_s": statistics.median(x["cpu_s"] for x in s),
        "peak_rss_mb": statistics.median(x["peak_rss_mb"] for x in s),
        "test_accuracy": statistics.fmean(x["test_accuracy"] for x in q),
        "test_f1": statistics.fmean(x["test_f1"] for x in q),
        "val_accuracy": statistics.fmean(x["val_accuracy"] for x in q),
    }


# ---------------------------------------------------------------- trace


def per_layer(names: list[str], results: list[dict], untraced_wall: float) -> dict[str, float]:
    """Median over replays of each per-layer metric. ``X_s`` is the self time
    of spans named ``X``, 0 when the workload never enters them."""
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            values = [r["total_s"] - untraced_wall for r in results]
        elif name in results[0]["counts"]:
            values = [r["counts"][name] for r in results]
        elif name.endswith("_s"):
            values = [r["self_s"].get(name[: -len("_s")], 0.0) for r in results]
        else:
            raise KeyError(f"the replay does not measure {name}")
        out[name] = statistics.median(values)
    return out


# ---------------------------------------------------------------- main


def environment(runner: Runner) -> dict:
    threads = {x.get("blas_threads") for x in runner.samples}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": sorted(t for t in threads if t is not None) or None,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "load": MANIFEST["load"],
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "hsel", "cli.py")):
        print("run from the repository root: src/hsel/cli.py not found", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    # Pin this process and so every child to one CPU, so that ticks time the
    # core the calls run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    layer_names = [m["name"] for m in declared["per_layer"]]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    spec = WORKLOADS[args.workload]
    workdir = os.path.join(WORK_ROOT, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "out"))
    inputs = prepare_inputs(spec, args.seed, workdir)
    runner = Runner(args.workload, inputs, workdir)

    started = time.perf_counter()
    if args.trace:
        # Untraced and traced calls alternate, so that both see the same
        # machine speed; the first pass gives every input its checked artifacts.
        runner.loop(runner.call, 0, len(inputs))
        replays = runner.loop(runner.traced_pair, args.seconds - (time.perf_counter() - started),
                              len(inputs))
    else:
        runner.loop(runner.call, args.seconds, max(spec["tail_calls"], 2 * len(inputs)))
        replays = []
    elapsed = time.perf_counter() - started
    results = [r for r in replays if r is not None]

    metrics: dict[str, dict] = {}
    if runner.samples and runner.quality:
        e2e = end_to_end(runner)
        if args.trace and results:
            raw_wall = statistics.median(x["raw_wall_s"] for x in runner.samples)
            values = per_layer(layer_names, results, raw_wall)
        else:
            values = {} if args.trace else e2e
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        if not args.trace and set(values) != {m["name"] for m in declared["end_to_end"]}:
            raise ValueError("end-to-end metrics differ from those BENCHMARK.json declares")
    if not metrics:  # only when calls failed, so the result is already incorrect
        runner.errors.append("no metrics: no call passed its checks")
    attempted, failed = runner.attempted, runner.failed

    env = environment(runner)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(runner.samples)} calls and {len(results)} replays done on {len(inputs)} inputs "
          f"in {elapsed:.1f} s")
    print("environment " + json.dumps(env, sort_keys=True))
    for err in runner.errors:
        print(f"error: {err}")
    print(f"error_rate {failed / max(attempted, 1):.4f} ratio ({failed} of {attempted} failed)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if runner.samples:
        for name in SCALED:
            raw = statistics.median(x[f"raw_{name}"] for x in runner.samples)
            print(f"unscaled {name} {raw:.6g} s")
        ticks = statistics.median(x["tick_s"] for x in runner.samples)
        print(f"tick during the calls {ticks:.6g} s (reference {TICK_REF_S} s)")
    if results:
        for module in sorted(results[0]["self_s_by_module"]):
            seconds = statistics.median(r["self_s_by_module"].get(module, 0.0) for r in results)
            print(f"self time of module {module}: {seconds:.6g} s")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(workdir, f"result-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "environment": env, "samples": runner.samples,
                   "quality": runner.quality, "errors": runner.errors}, fh, indent=1)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

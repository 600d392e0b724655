"""Traced replay of one hsel command, for per-module metrics.

Usage: python3 perfbench/replay.py RESULT_JSON SPANS_JSON ARG...

Runs ``hsel.cli.main(ARG...)`` itself, with the functions and methods that
the CLI and the pool module call wrapped in spans named
``module.operation``: the names ``hsel.cli`` and ``hsel.pool`` import
(``train_pool``, ``fit_token_pipeline``, ``fit_feature_space``,
``fit_stack``, ``linkage``, ``hierarchy_select``, ``_emit_report`` and the
others), plus the methods they reach (``PredictionMatrix.select``,
``TokenPipeline.tokenize_all``, ``FeatureSpace.transform``, and ``fit`` and
``predict`` of every learner that ``make_learner`` builds). The spans
therefore follow the CLI's own order and work, and the command writes the
same artifacts it writes untraced; perfbench/run.py checks that they are
byte-identical.

Spans are kept in memory as (name, start, end, parent) and written to
SPANS_JSON at the end, with each name's and each module's self time.
RESULT_JSON gets the exit code, the traced total, the self times and the
per-module work counts that perfbench/run.py turns into the metrics
BENCHMARK.json lists. Exits with the command's exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

import jsonschema

import hsel.cli as cli
import hsel.combine as combine
import hsel.core as core
import hsel.pool as pool
from hsel.core import PredictionMatrix
from hsel.features import FeatureSpace
from hsel.preprocess import TokenPipeline

MIB = 1024.0 * 1024.0
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """In-memory spans (name, start, end, parent index) plus call counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: Counter[str] = Counter()

    def call(self, name: str, fn, args, kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        self.calls[name] += 1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a spanned version.

        ``after(result, args)`` runs in a bookkeeping span, so the time it
        takes is kept out of every other span's self time.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            result = self.call(name, original, args, kwargs)
            if after is not None:
                self.call(BOOKKEEPING, after, (result, args), {})
            return result

        setattr(owner, attr, traced)

    def self_times(self) -> dict[str, float]:
        covered: dict[int, float] = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return dict(out)

    def count_within(self, name: str, ancestor: str) -> int:
        """Number of spans named ``name`` that run inside a span named ``ancestor``."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent is not None and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent is not None
        return count


class Replay:
    """Wraps hsel for one traced call and collects its work counts."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.stats: Counter[str] = Counter()

    # -- after hooks ---------------------------------------------------

    def tokens(self, docs, _args) -> None:
        self.stats["tokens"] += sum(len(d) for d in docs)

    def features(self, x, _args) -> None:
        self.stats["feature_bytes"] += x.nbytes
        self.stats["feature_cells"] += x.size
        self.stats["feature_nnz"] += int((x != 0).sum())

    def learner(self, model, args) -> None:
        """Span the new learner's own ``fit`` and ``predict``; meta-learners
        built inside hsel.combine never pass through here."""
        alg = args[0].strip().upper()
        after = self.lr_fit if alg == "LR" else None
        self.tracer.wrap(model, "fit", f"learners.{alg}.fit", after)
        self.tracer.wrap(model, "predict", f"learners.{alg}.predict")

    def lr_fit(self, model, _args) -> None:
        self.stats["lr_epochs"] += len(model.loss_history_)
        self.stats["lr_diverged"] += int(model.diverged)

    def pairs(self, matrix, _args) -> None:
        p = matrix.size
        self.stats["pairs"] += p * (p - 1) // 2

    def pair_scans(self, dendro, _args) -> None:
        # The merge with m active clusters scans their m(m-1)/2 pairs, m = P..2.
        self.stats["pair_scans"] += sum(m * (m - 1) // 2 for m in range(2, dendro.num_leaves + 1))

    def candidates(self, cands, _args) -> None:
        self.stats["candidates"] += len(cands)

    def scorings(self, scored, _args) -> None:
        self.stats["scorings"] += len(scored)

    def meta_epochs(self, ensemble, _args) -> None:
        if ensemble.meta_kind == "LR":
            self.stats["meta_epochs"] += len(ensemble.model.loss_history_)

    def meta_bytes(self, x, _args) -> None:
        self.stats["meta_bytes"] += x.nbytes

    def report_bytes(self, _result, args) -> None:
        self.stats["report_bytes"] += os.path.getsize(args[2])

    # -- wrapping ------------------------------------------------------

    def install(self) -> None:
        wrap = self.tracer.wrap
        for owner, attr, name, after in (
            (cli, "load_corpus_csv", "core.load_corpus", None),
            (cli, "split_corpus", "core.split", None),
            (cli, "train_pool", "pool.train", None),
            (cli, "predict_matrix", "pool.predict", None),
            (cli, "read_prediction_matrix", "pool.read_matrix", None),
            (cli, "write_prediction_matrix", "pool.write_matrix", None),
            (cli, "evaluate_matrix", "core.evaluate_matrix", None),
            (cli, "evaluate", "core.evaluate", None),
            (core, "evaluate", "core.evaluate", None),
            (PredictionMatrix, "select", "core.select", None),
            (pool, "fit_token_pipeline", "preprocess.fit", None),
            (TokenPipeline, "tokenize_all", "preprocess.tokenize", self.tokens),
            (pool, "fit_feature_space", "features.fit", None),
            (FeatureSpace, "transform", "features.transform", self.features),
            (pool, "make_learner", "learners.make", self.learner),
            (cli, "dissimilarity_matrix", "diversity.matrix", self.pairs),
            (cli, "write_dissimilarity_csv", "diversity.write", None),
            (cli, "linkage", "hiercluster.linkage", self.pair_scans),
            (cli, "write_dendrogram", "hiercluster.write", None),
            (cli, "hierarchy_select", "selection.sweep", self.candidates),
            (cli, "elbow_select", "selection.elbow", None),
            (cli, "choose_final", "selection.choose", None),
            (cli, "group_members", "selection.group_members", None),
            (cli, "_score_candidates", "cli.score_candidates", self.scorings),
            (cli, "fit_stack", "combine.fit", self.meta_epochs),
            (cli, "predict_stack", "combine.predict", None),
            (combine, "meta_features", "combine.meta_features", self.meta_bytes),
            (cli, "_emit_report", "cli.write", self.report_bytes),
            (cli, "_load_schema", "cli.validate", None),
            (jsonschema, "validate", "cli.validate", None),
        ):
            wrap(owner, attr, name, after)

    # -- result --------------------------------------------------------

    def counts(self) -> dict[str, float]:
        """Per-module work counts and sizes, by benchmark metric name."""
        calls, s = self.tracer.calls, self.stats

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        fits_scoring = self.tracer.count_within("combine.fit", "cli.score_candidates")
        return {
            "preprocess.tokens": s["tokens"],
            "features.dense_mb": s["feature_bytes"] / MIB,
            "features.nnz_ratio": ratio(s["feature_nnz"], s["feature_cells"]),
            "learners.LR.epochs": s["lr_epochs"],
            "learners.LR.diverged": s["lr_diverged"],
            "core.evaluate_calls": calls["core.evaluate"],
            "core.select_calls": calls["core.select"],
            "diversity.pairs": s["pairs"],
            "hiercluster.pair_scans": s["pair_scans"],
            "selection.candidates": s["candidates"],
            "combine.fit_calls": calls["combine.fit"],
            "combine.meta_mb": s["meta_bytes"] / MIB,
            "combine.meta_epochs": s["meta_epochs"],
            "combine.cache_hit_ratio": ratio(s["scorings"] - fits_scoring, s["scorings"]),
            "cli.report_bytes": s["report_bytes"],
        }


def main() -> int:
    result_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    replay = Replay()
    replay.install()
    code = replay.tracer.call("cli.main", cli.main, (argv,), {})
    root = replay.tracer.spans[0]
    self_times = replay.tracer.self_times()
    by_module: dict[str, float] = defaultdict(float)
    for name, seconds in self_times.items():
        by_module[name.split(".")[0]] += seconds
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": replay.tracer.spans, "self_s": self_times,
                   "self_s_by_module": dict(by_module)}, fh)
    doc = {
        "exit_code": code,
        "total_s": root[2] - root[1],
        "self_s": self_times,
        "self_s_by_module": dict(by_module),
        "counts": replay.counts(),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

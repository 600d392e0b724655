"""Command-line pipeline: train a pool, measure diversity, cluster, sweep
hierarchy levels, stack, and compare selection strategies.

Every report is JSON with sorted keys so that two runs with the same config
and seed are byte-identical apart from the single ``generated_at`` field.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from importlib import resources
from typing import Sequence

from .combine import (
    META_KINDS,
    StackedEnsemble,
    fit_stack,
    fit_stacks,
    predict_nested,
    predict_stack,
    stack_to_json,
)
from .core import (
    METRIC_NAMES,
    ClassifierId,
    LabeledCorpus,
    PredictionMatrix,
    Split,
    evaluate,
    evaluate_matrix,
    evaluate_rows,
    load_corpus_csv,
    split_corpus,
)
from .diversity import (
    CONVERSIONS,
    DissimilarityMatrix,
    dissimilarity_matrix,
    read_dissimilarity_csv,
    write_dissimilarity_csv,
)
from .hiercluster import LINKAGE_METHODS, Dendrogram, linkage, write_dendrogram
from .pool import predict_matrix, read_prediction_matrix, train_pool, write_prediction_matrix
from .selection import (
    FINAL_RULES,
    EnsembleCandidate,
    choose_final,
    elbow_select,
    group_members,
    hierarchy_select,
    random_baseline,
)

OUTPUT_DIR_ENV = "HSEL_OUTPUT_DIR"


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one pipeline run; embedded in every report."""

    corpus: str
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2)
    seed: int = 7
    extractors: tuple[str, ...] = ("COUNT", "TFIDF", "HASHED")
    algorithms: tuple[str, ...] = ("NB", "LR", "KNN", "NC")
    linkage: str = "complete"
    conversion: str = "complement"
    metrics: tuple[str, ...] = METRIC_NAMES
    rule: str = "max-validation"
    alpha: float = 0.5
    meta_kind: str = "LR"
    outdir: str = "hsel-out"

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def _make_outdir(path: str) -> None:
    with _stage("outdir"):
        os.makedirs(path, exist_ok=True)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _load_schema(name: str) -> dict:
    """The shipped JSON Schema of the ``name`` report."""
    text = resources.files("hsel").joinpath(f"schemas/{name}.schema.json").read_text("utf-8")
    return json.loads(text)


_quote = json.encoder.encode_basestring_ascii


def _scalar_json(value) -> str:
    """JSON text of a number, a bool or None, as ``json`` writes it."""
    if isinstance(value, float):
        if -math.inf < value < math.inf:
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _keys_json(keys: list) -> list[str]:
    """Quoted dict keys; a number, bool or None key is quoted as its JSON text."""
    return [_quote(key if isinstance(key, str) else _scalar_json(key)) for key in keys]


def _bracket(opening: str, items: list[str], closing: str, level: int) -> str:
    if not items:
        return opening + closing
    inner = "\n" + "  " * (level + 1)
    return opening + inner + ("," + inner).join(items) + "\n" + "  " * level + closing


def _json_text(value, level: int) -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)`` for a
    value nested ``level`` indents deep, built by ``str.join`` over the C
    string encoder and ``int``/``float`` reprs instead of the pure-Python
    encoder that ``json`` falls back to whenever ``indent`` is set."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        keys = sorted(value)
        items = [name + ": " + _json_text(value[key], level + 1)
                 for name, key in zip(_keys_json(keys), keys)]
        return _bracket("{", items, "}", level)
    if isinstance(value, (list, tuple)):
        try:  # most report lists are member ids: one C-level pass
            items = list(map(_quote, value))
        except TypeError:
            items = [_json_text(item, level + 1) for item in value]
        return _bracket("[", items, "]", level)
    return _scalar_json(value)


def _write_json(write, value, level: int) -> None:
    """``_json_text(value, level)`` passed to ``write`` in pieces: a dict key
    by key and a list one element at a time."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        write(_json_text(value, level))
        return
    inner = "\n" + "  " * (level + 1)
    if isinstance(value, dict):
        keys = sorted(value)
        for j, (name, key) in enumerate(zip(_keys_json(keys), keys)):
            write(("," if j else "{") + inner + name + ": ")
            _write_json(write, value[key], level + 1)
        write("\n" + "  " * level + "}")
    else:
        for j, item in enumerate(value):
            write(("," if j else "[") + inner + _json_text(item, level + 1))
        write("\n" + "  " * level + "]")


def _emit_report(doc: dict, schema_name: str, path: str) -> None:
    """Write ``doc``, a ``schema_name`` report, to ``path`` exactly as
    ``json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)`` plus a
    newline would. The text is streamed, each dict key by key and each list
    one element at a time, so no copy of the whole text is held. A value
    that JSON cannot encode (a non-finite number raises ``ValueError``, any
    other type ``TypeError``) leaves no file behind.
    Whether a report fits its schema depends only on this module's fixed
    builders, so the tests and the benchmark check that with ``jsonschema``."""
    with open(path, "w", encoding="utf-8") as fh:
        try:
            _write_json(fh.write, doc, 0)
            fh.write("\n")
        except Exception:
            fh.close()
            os.remove(path)
            raise


def _candidate_doc(candidate: EnsembleCandidate) -> dict:
    return {
        "level_k": candidate.level_k,
        "metric": candidate.metric_name,
        "members": [m.canonical for m in candidate.members],
        "mean_pairwise_distance": candidate.mean_pairwise_distance,
        "validation_score": candidate.validation_score,
    }


Stacks = dict[tuple[str, ...], StackedEnsemble]


def _member_key(members: Sequence[ClassifierId]) -> tuple[str, ...]:
    return tuple([m.canonical for m in members])


def _join_order(keys: list[tuple[str, ...]]) -> list[int]:
    """Position in the last tuple of the one member each tuple adds to the one before."""
    position = {name: j for j, name in enumerate(keys[-1])}
    order, before = [], set()
    for key in keys:
        names = set(key)
        if len(key) != len(before) + 1 or not before < names:
            raise ValueError("sweep candidates are not nested")
        order.append(position[(names - before).pop()])
        before = names
    return order


def _score_candidates(
    sweeps: dict[str, list[EnsembleCandidate]],
    vpm: PredictionMatrix,
    meta_kind: str,
    extra: Sequence[Sequence[ClassifierId]] = (),
) -> tuple[dict[str, list[EnsembleCandidate]], Stacks]:
    """Stack the candidates of every metric's sweep on validation and record
    each metric there; also stack the ``extra`` member lists.

    Returns the scored sweeps and the ensembles fitted here, by member
    tuple, all from one ``fit_stacks`` call. LR fits every distinct
    candidate and predicts each on its own. NB and VOTE sweeps are nested, and
    their weight rows depend on the member alone: one ``predict_nested``
    pass over the full level's ensemble labels a sweep, so only that
    ensemble and the ``extra`` lists are fitted (``_stack_for`` fits any
    other when it is needed). Each distinct tuple is evaluated once, all in
    one ``evaluate_rows`` call.
    Validation data is reused for base scoring and meta-training by design;
    held-out measurement happens on TEST only.
    """
    keys = {metric: [_member_key(c.members) for c in cands] for metric, cands in sweeps.items()}
    candidates = {key: c.members for metric, cands in sweeps.items()
                  for key, c in zip(keys[metric], cands)}
    nested = meta_kind.strip().upper() != "LR"
    read = [sweep[-1] for sweep in keys.values()] if nested else candidates
    fitted = {key: candidates[key] for key in read}
    fitted.update((_member_key(members), members) for members in extra)
    stacks = dict(zip(fitted, fit_stacks(vpm, list(fitted.values()), meta_kind=meta_kind)))
    if not nested:
        labels = {key: predict_stack(stacks[key], vpm) for key in candidates}
    else:
        labels = {}
        for sweep in keys.values():
            wanted = [key not in labels for key in sweep]
            levels = predict_nested(stacks[sweep[-1]], vpm, _join_order(sweep), wanted)
            labels.update(zip((key for key, want in zip(sweep, wanted) if want), levels))
    entries = dict(zip(labels, evaluate_rows(list(labels.values()), vpm.truth, vpm.num_classes)))
    scored = {
        metric: [c.with_score(entries[key].metric(metric)) for key, c in zip(keys[metric], cands)]
        for metric, cands in sweeps.items()
    }
    return scored, stacks


def _stack_for(stacks: Stacks, vpm: PredictionMatrix, members: Sequence[ClassifierId],
               meta_kind: str) -> StackedEnsemble:
    """The ensemble of ``members`` from ``_score_candidates``, or ``fit_stack``'s."""
    key = _member_key(members)
    return stacks[key] if key in stacks else fit_stack(vpm, members, meta_kind=meta_kind)


def _selection_sweep(
    vpm: PredictionMatrix,
    config: RunConfig,
    extra: Sequence[Sequence[ClassifierId]] = (),
) -> tuple[
    DissimilarityMatrix, Dendrogram, dict, dict[str, list[EnsembleCandidate]], Stacks, int | None
]:
    """Shared middle of the pipeline: matrix, dendrogram, scored sweeps and
    the ensembles ``_score_candidates`` fitted, the ``extra`` lists' among them."""
    with _stage("evaluate-pool"):
        scores = evaluate_matrix(vpm)
    with _stage("dissimilarity"):
        matrix = dissimilarity_matrix(vpm, conversion=config.conversion)
    with _stage("linkage"):
        dendro = linkage(matrix, method=config.linkage)
    with _stage("hierarchy-select"):
        sweeps = {
            metric: hierarchy_select(dendro, matrix, scores, metric=metric)
            for metric in config.metrics
        }
    with _stage("stack-candidates"):
        sweeps, stacks = _score_candidates(sweeps, vpm, config.meta_kind, extra)
    with _stage("elbow"):
        elbow_k = elbow_select(dendro, matrix) if dendro.num_leaves >= 3 else None
    return matrix, dendro, scores, sweeps, stacks, elbow_k


def _final_doc(config: RunConfig, final: EnsembleCandidate) -> dict:
    """The deployed choice: the rule that made it and the candidate it chose."""
    return {
        "rule": config.rule,
        "alpha": config.alpha if config.rule == "weighted" else None,
        "level_k": final.level_k,
        "members": [m.canonical for m in final.members],
    }


def _selection_report_doc(
    config: RunConfig, sweeps: dict[str, list[EnsembleCandidate]], elbow_k: int | None
) -> dict:
    metrics_doc = {}
    for metric, candidates in sweeps.items():
        final = choose_final(candidates, rule=config.rule, alpha=config.alpha)
        metrics_doc[metric] = {
            "candidates": [_candidate_doc(c) for c in candidates],
            "final": _final_doc(config, final),
        }
    return {
        "report_version": 1,
        "linkage": config.linkage,
        "conversion": config.conversion,
        "elbow_k": elbow_k,
        "metrics": metrics_doc,
    }


def _read_matrix_pair(validation: str, test: str) -> tuple[PredictionMatrix, PredictionMatrix]:
    """The validation and the test matrix of one job; their class counts must agree."""
    with _stage("ingest"):
        vpm, tpm = read_prediction_matrix(validation), read_prediction_matrix(test)
        if vpm.num_classes != tpm.num_classes:
            raise ValueError(
                f"{validation} has {vpm.num_classes} classes but {test} has {tpm.num_classes}"
            )
    return vpm, tpm


def _build_corpus(config: RunConfig) -> tuple[LabeledCorpus, dict[str, int]]:
    with _stage("load-corpus"):
        rows, num_classes, mapping = load_corpus_csv(config.corpus)
    with _stage("split"):
        corpus = split_corpus(rows, ratios=config.ratios, seed=config.seed, num_classes=num_classes)
    return corpus, mapping


def _build_matrices(
    config: RunConfig, corpus: LabeledCorpus
) -> tuple[PredictionMatrix, PredictionMatrix]:
    with _stage("train-pool"):
        pool = train_pool(
            corpus, config.extractors, config.algorithms, seed=config.seed
        )
    with _stage("predict-validation"):
        vpm = predict_matrix(pool, corpus, Split.VALIDATION)
    with _stage("predict-test"):
        tpm = predict_matrix(pool, corpus, Split.TEST)
    return vpm, tpm


def cmd_run(config: RunConfig) -> dict:
    """Full pipeline; writes matrix, dendrogram, selection, and evaluation
    artifacts into the output directory and returns the run report."""
    _make_outdir(config.outdir)
    corpus, mapping = _build_corpus(config)
    vpm, tpm = _build_matrices(config, corpus)
    matrix, dendro, scores, sweeps, stacks, elbow_k = _selection_sweep(vpm, config)

    primary_metric = config.metrics[0]
    with _stage("choose-final"):
        final = choose_final(sweeps[primary_metric], rule=config.rule, alpha=config.alpha)
    with _stage("stack-final"):
        ensemble = _stack_for(stacks, vpm, final.members, config.meta_kind)
        test_preds = predict_stack(ensemble, tpm)
    with _stage("evaluate-final"):
        final_eval = evaluate(test_preds, tpm.truth, tpm.num_classes)

    artifacts = {
        "dissimilarity_matrix": "dissimilarity.csv",
        "dendrogram": "dendrogram.txt",
        "selection_report": "selection_report.json",
        "validation_matrix": "validation_matrix.csv",
        "test_matrix": "test_matrix.csv",
    }
    with _stage("write-artifacts"):
        write_dissimilarity_csv(matrix, os.path.join(config.outdir, artifacts["dissimilarity_matrix"]))
        write_dendrogram(dendro, os.path.join(config.outdir, artifacts["dendrogram"]))
        write_prediction_matrix(
            vpm, os.path.join(config.outdir, artifacts["validation_matrix"]), mapping
        )
        write_prediction_matrix(
            tpm, os.path.join(config.outdir, artifacts["test_matrix"]), mapping
        )
        _emit_report(
            _selection_report_doc(config, sweeps, elbow_k),
            "selection_report",
            os.path.join(config.outdir, artifacts["selection_report"]),
        )

    report = {
        "report_version": 1,
        "generated_at": _now(),
        "config": config.to_dict(),
        "label_mapping": mapping,
        "split_sizes": corpus.split_sizes(),
        "pool": [
            {"id": name, **entry.as_dict()} for name, entry in scores.items()
        ],
        "candidates": [_candidate_doc(c) for c in sweeps[primary_metric]],
        "selection": {**_final_doc(config, final), "metric": primary_metric},
        "final_test_eval": final_eval.as_dict(),
        "artifacts": artifacts,
    }
    with _stage("write-report"):
        _emit_report(report, "run_report", os.path.join(config.outdir, "run_report.json"))
    return report


def _row(display: str, kind: str, members: Sequence[ClassifierId], metrics: dict) -> dict:
    """One row of the compare report: a strategy's members and its TEST metrics."""
    return {
        "display": display,
        "kind": kind,
        "members": [m.canonical for m in members],
        "members_count": len(members),
        **metrics,
    }


def cmd_compare(
    config: RunConfig,
    validation_matrix: str | None = None,
    test_matrix: str | None = None,
) -> dict:
    """Evaluate every strategy on TEST: monolithic members, groups A/B/C,
    the hierarchy-selected group D, the elbow ensemble, and the baseline.

    Accepts either a corpus (native pool) or a pair of ingested prediction
    matrices in place of one.
    """
    if (validation_matrix is None) != (test_matrix is None) or (config.corpus and validation_matrix):
        raise StageError("ingest", "compare takes a corpus alone or a validation and a test matrix")
    _make_outdir(config.outdir)
    if validation_matrix is not None:
        vpm, tpm = _read_matrix_pair(validation_matrix, test_matrix)
        if vpm.classifier_ids != tpm.classifier_ids:
            raise StageError("ingest", "validation and test matrices must share one column order")
    else:
        corpus, _ = _build_corpus(config)
        vpm, tpm = _build_matrices(config, corpus)

    primary_metric = config.metrics[0]
    meta = config.meta_kind.upper()
    with _stage("compare-groups"):
        ids = list(vpm.classifier_ids)
        groups = [
            (f"A-{token}-{meta}", "group_a", group_members(ids, "A", token))
            for token in dict.fromkeys(cid.algorithm for cid in ids)
        ]
        groups += [
            (f"B-{token}-{meta}", "group_b", group_members(ids, "B", token))
            for token in dict.fromkeys(cid.extractor for cid in ids)
        ]
        groups.append((f"C-{meta}", "group_c", group_members(ids, "C")))
    # Only the primary metric's sweep is read, and groups A/B/C are stacked
    # in its batch; D and ELBOW are sweep candidates.
    sweep_config = replace(config, metrics=(primary_metric,))
    _, _, _, sweeps, stacks, elbow_k = _selection_sweep(vpm, sweep_config, [g[2] for g in groups])
    with _stage("choose-final"):
        final = choose_final(sweeps[primary_metric], rule=config.rule, alpha=config.alpha)

    with _stage("compare-monolithic"):
        rows = [_row(cid.canonical, "monolithic", [cid], entry.as_dict())
                for cid, entry in zip(tpm.classifier_ids, evaluate_matrix(tpm).values())]
    with _stage("compare-groups"):
        groups.append((f"D-{meta}", "group_d", list(final.members)))
        if elbow_k is not None:
            elbow_members = list(sweeps[primary_metric][elbow_k - 1].members)
            groups.append((f"ELBOW-{meta}", "elbow", elbow_members))
        for display, kind, members in groups:
            preds = predict_stack(_stack_for(stacks, vpm, members, config.meta_kind), tpm)
            entry = evaluate(preds, tpm.truth, tpm.num_classes)
            rows.append(_row(f"{display} ({len(members)})", kind, members, entry.as_dict()))
    with _stage("compare-baseline"):
        baseline = {**dict.fromkeys(METRIC_NAMES), "accuracy": random_baseline(vpm.num_classes)}
        rows.append(_row("BASELINE", "baseline", [], baseline))

    report = {
        "report_version": 1,
        "generated_at": _now(),
        "config": config.to_dict(),
        "num_classes": vpm.num_classes,
        "rows": rows,
    }
    with _stage("write-report"):
        _emit_report(report, "compare_report", os.path.join(config.outdir, "compare_report.json"))
    return report


def _parse_ratios(text: str) -> tuple[float, ...]:
    with contextlib.suppress(ValueError):
        parts = tuple(float(p) for p in text.split(","))
        if len(parts) == 3 and all(0 < part < math.inf for part in parts):  # nan fails too
            return parts
    raise argparse.ArgumentTypeError(
        f"ratios must be three comma-separated fractions, got {text!r}")


def _parse_alpha(text: str) -> float:
    try:
        alpha = float(text)
    except ValueError:
        alpha = None
    if alpha is None or not 0.0 <= alpha <= 1.0:  # the comparison also rejects nan
        raise argparse.ArgumentTypeError(f"alpha must be a number in [0, 1], got {text!r}")
    return alpha


def _parse_tokens(text: str) -> tuple[str, ...]:
    tokens = tuple(t.strip() for t in text.split(",") if t.strip())
    if not tokens:
        raise argparse.ArgumentTypeError("expected a non-empty comma-separated list")
    return tokens


def _parse_metrics(text: str) -> tuple[str, ...]:
    tokens = _parse_tokens(text)
    for tok in tokens:
        if tok not in METRIC_NAMES:
            raise argparse.ArgumentTypeError(f"unknown metric {tok!r}")
    return tokens


_DEFAULTS = RunConfig(corpus="")

# Options that set a RunConfig field: field -> (flag, help, argparse keywords).
# Each takes the field's default and names it in its help.
_FIELD_OPTIONS = {
    "ratios": ("--ratios", "train,validation,test fractions", {"type": _parse_ratios}),
    "extractors": ("--extractors", "feature extractor tokens", {"type": _parse_tokens}),
    "algorithms": ("--algorithms", "learning algorithm tokens", {"type": _parse_tokens}),
    "linkage": ("--linkage", "inter-cluster distance rule", {"choices": LINKAGE_METHODS}),
    "conversion": ("--conversion", "double-fault to distance conversion",
                   {"choices": CONVERSIONS}),
    "metrics": ("--metrics", "per-cluster selection metrics; the first one drives the "
                "deployed ensemble", {"type": _parse_metrics}),
    "rule": ("--rule", "final candidate choice rule", {"choices": FINAL_RULES}),
    "alpha": ("--alpha", "score weight for the weighted rule", {"type": _parse_alpha}),
    "meta_kind": ("--meta", "stacking meta-classifier",
                  {"type": str.upper, "choices": META_KINDS}),
    "seed": ("--seed", "global random seed", {"type": int}),
    "outdir": ("--outdir", f"output directory, overridden by ${OUTPUT_DIR_ENV}", {}),
}
_PIPELINE_FIELDS = ("ratios", "extractors", "algorithms", "seed")
_SELECTION_FIELDS = ("linkage", "conversion", "metrics", "rule", "alpha", "meta_kind")


def _add_field_options(parser: argparse.ArgumentParser, names: Sequence[str]) -> None:
    for name in names:
        flag, text, kwargs = _FIELD_OPTIONS[name]
        default = getattr(_DEFAULTS, name)
        shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
        parser.add_argument(flag, dest=name, default=default, help=f"{text} (default: {shown})",
                            **kwargs)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The subcommand's own options; ``RunConfig``'s defaults fill the rest."""
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    given["corpus"] = given.get("corpus") or ""
    return RunConfig(**given)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsel",
        description="Build diverse multiple classifier systems for text "
                    "classification via double-fault clustering, hierarchy-level "
                    "selection, and stacking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline over a corpus file")
    p_run.add_argument("--corpus", required=True, help="text,label corpus file")
    _add_field_options(p_run, _PIPELINE_FIELDS + _SELECTION_FIELDS + ("outdir",))

    p_cmp = sub.add_parser("compare", help="selection strategies side by side on TEST")
    p_cmp.add_argument("--corpus", help="text,label corpus file (native pool mode)")
    p_cmp.add_argument("--validation-matrix", help="ingested validation prediction matrix")
    p_cmp.add_argument("--test-matrix", help="ingested test prediction matrix")
    _add_field_options(p_cmp, _PIPELINE_FIELDS + _SELECTION_FIELDS + ("outdir",))

    p_ing = sub.add_parser("ingest", help="validate a prediction-matrix file")
    p_ing.add_argument("matrix", help="prediction-matrix file")
    p_ing.add_argument("--meta-file", help="sidecar metadata (default: <matrix>.meta.json)")

    p_div = sub.add_parser("diversity", help="dissimilarity matrix from a prediction matrix")
    p_div.add_argument("--matrix", required=True)
    p_div.add_argument("--meta-file")
    p_div.add_argument("--out", help="output path (default: <outdir>/dissimilarity.csv)")
    _add_field_options(p_div, ("conversion", "outdir"))

    p_clu = sub.add_parser("cluster", help="dendrogram from a dissimilarity matrix")
    p_clu.add_argument("--dissimilarity", required=True)
    p_clu.add_argument("--out", help="output path (default: <outdir>/dendrogram.txt)")
    _add_field_options(p_clu, ("linkage", "outdir"))

    p_sel = sub.add_parser("select", help="hierarchy-level sweep over an ingested matrix")
    p_sel.add_argument("--matrix", required=True, help="validation prediction matrix")
    p_sel.add_argument("--meta-file")
    # select reads no seed; --seed stays while the pool-wide benchmark passes it.
    _add_field_options(p_sel, _SELECTION_FIELDS + ("seed", "outdir"))

    p_stk = sub.add_parser("stack", help="fit a stacked ensemble from ingested matrices")
    p_stk.add_argument("--validation-matrix", required=True)
    p_stk.add_argument("--test-matrix", required=True)
    p_stk.add_argument("--members", required=True, type=_parse_tokens,
                       help="comma-separated canonical classifier ids")
    p_stk.add_argument("--out", help="output path (default: <outdir>/stack.json)")
    _add_field_options(p_stk, ("meta_kind", "outdir"))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    matrices = (args.validation_matrix, args.test_matrix) if args.command == "compare" else ()
    if matrices and (any(matrices) if args.corpus else not all(matrices)):
        parser.error("compare takes --corpus alone or both --validation-matrix and --test-matrix")
    if "outdir" in args:
        args.outdir = os.environ.get(OUTPUT_DIR_ENV) or args.outdir
    try:
        if "outdir" in args:
            _make_outdir(args.outdir)
        if args.command == "run":
            report = cmd_run(_config_from_args(args))
            shown = json.dumps(report["final_test_eval"], indent=2, sort_keys=True)
        elif args.command == "compare":
            config = _config_from_args(args)
            cmd_compare(config, args.validation_matrix, args.test_matrix)
            shown = os.path.join(config.outdir, "compare_report.json")
        elif args.command == "ingest":
            with _stage("ingest"):
                pm = read_prediction_matrix(args.matrix, args.meta_file)
            summary = {
                "classifiers": [c.canonical for c in pm.classifier_ids],
                "instances": pm.n_instances,
                "num_classes": pm.num_classes,
                "split": pm.split_tag.value,
            }
            shown = json.dumps(summary, indent=2, sort_keys=True)
        elif args.command == "diversity":
            with _stage("ingest"):
                pm = read_prediction_matrix(args.matrix, args.meta_file)
            with _stage("dissimilarity"):
                matrix = dissimilarity_matrix(pm, conversion=args.conversion)
            shown = args.out or os.path.join(args.outdir, "dissimilarity.csv")
            with _stage("write-dissimilarity"):
                write_dissimilarity_csv(matrix, shown)
        elif args.command == "cluster":
            with _stage("read-dissimilarity"):
                matrix = read_dissimilarity_csv(args.dissimilarity)
            with _stage("linkage"):
                dendro = linkage(matrix, method=args.linkage)
            shown = args.out or os.path.join(args.outdir, "dendrogram.txt")
            with _stage("write-dendrogram"):
                write_dendrogram(dendro, shown)
        elif args.command == "select":
            config = _config_from_args(args)
            with _stage("ingest"):
                vpm = read_prediction_matrix(args.matrix, args.meta_file)
            _, _, _, sweeps, _, elbow_k = _selection_sweep(vpm, config)
            shown = os.path.join(config.outdir, "selection_report.json")
            with _stage("write-report"):
                _emit_report(_selection_report_doc(config, sweeps, elbow_k),
                             "selection_report", shown)
        else:  # stack
            vpm, tpm = _read_matrix_pair(args.validation_matrix, args.test_matrix)
            with _stage("stack"):
                ensemble = fit_stack(vpm, list(args.members), meta_kind=args.meta_kind)
                preds = predict_stack(ensemble, tpm)
            entry = evaluate(preds, tpm.truth, tpm.num_classes)
            out = args.out or os.path.join(args.outdir, "stack.json")
            with _stage("write-stack"), open(out, "w", encoding="utf-8") as fh:
                fh.write(stack_to_json(ensemble))
            shown = json.dumps({"stack": out, "test_eval": entry.as_dict()},
                               indent=2, sort_keys=True)
    except StageError as exc:
        print(f"error [{exc.stage}]: {exc}", file=sys.stderr)
        return 1
    print(shown)
    return 0

if __name__ == "__main__":
    sys.exit(main())

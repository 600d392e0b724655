"""Command-line pipeline: train a pool, measure diversity, cluster, sweep
hierarchy levels, stack, and compare selection strategies.

Every report is JSON with sorted keys so that two runs with the same config
and seed are byte-identical apart from the single ``generated_at`` field.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from importlib import resources
from typing import Sequence

import jsonschema

from .combine import META_KINDS, fit_stack, predict_stack, stack_to_json
from .core import (
    METRIC_NAMES,
    ClassifierId,
    LabeledCorpus,
    PredictionMatrix,
    Split,
    evaluate,
    evaluate_matrix,
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
        doc = asdict(self)
        doc["ratios"] = list(self.ratios)
        doc["extractors"] = list(self.extractors)
        doc["algorithms"] = list(self.algorithms)
        doc["metrics"] = list(self.metrics)
        return doc


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


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _load_schema(name: str) -> dict:
    text = resources.files("hsel").joinpath(f"schemas/{name}.schema.json").read_text("utf-8")
    return json.loads(text)


def _emit_report(doc: dict, schema_name: str, path: str) -> None:
    jsonschema.validate(doc, _load_schema(schema_name))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _candidate_doc(candidate: EnsembleCandidate) -> dict:
    return {
        "level_k": candidate.level_k,
        "metric": candidate.metric_name,
        "members": [m.canonical for m in candidate.members],
        "mean_pairwise_distance": candidate.mean_pairwise_distance,
        "validation_score": candidate.validation_score,
    }


def _score_candidates(
    candidates: list[EnsembleCandidate],
    vpm: PredictionMatrix,
    meta_kind: str,
    metric: str,
    cache: dict,
) -> list[EnsembleCandidate]:
    """Stack each candidate on validation and record its metric there.

    Validation data is reused for base scoring and meta-training by design;
    held-out measurement happens on TEST only.
    """
    scored = []
    for candidate in candidates:
        key = tuple(m.canonical for m in candidate.members)
        if key not in cache:
            ensemble = fit_stack(vpm, candidate.members, meta_kind=meta_kind)
            cache[key] = predict_stack(ensemble, vpm)
        entry = evaluate(cache[key], vpm.truth, vpm.num_classes)
        scored.append(candidate.with_score(entry.metric(metric)))
    return scored


def _selection_sweep(
    vpm: PredictionMatrix,
    config: RunConfig,
) -> tuple[DissimilarityMatrix, Dendrogram, dict, dict[str, list[EnsembleCandidate]], int | None]:
    """Shared middle of the pipeline: matrix, dendrogram, scored sweeps."""
    with _stage("evaluate-pool"):
        scores = evaluate_matrix(vpm)
    with _stage("dissimilarity"):
        matrix = dissimilarity_matrix(vpm, conversion=config.conversion)
    with _stage("linkage"):
        dendro = linkage(matrix, method=config.linkage)
    sweeps: dict[str, list[EnsembleCandidate]] = {}
    cache: dict = {}
    with _stage("hierarchy-select"):
        for metric in config.metrics:
            sweeps[metric] = hierarchy_select(dendro, matrix, scores, metric=metric)
    with _stage("stack-candidates"):
        for metric in config.metrics:
            sweeps[metric] = _score_candidates(
                sweeps[metric], vpm, config.meta_kind, metric, cache
            )
    with _stage("elbow"):
        elbow_k = elbow_select(dendro, matrix) if dendro.num_leaves >= 3 else None
    return matrix, dendro, scores, sweeps, elbow_k


def _selection_report_doc(
    config: RunConfig, sweeps: dict[str, list[EnsembleCandidate]], elbow_k: int | None
) -> dict:
    metrics_doc = {}
    for metric, candidates in sweeps.items():
        final = choose_final(candidates, rule=config.rule, alpha=config.alpha)
        metrics_doc[metric] = {
            "candidates": [_candidate_doc(c) for c in candidates],
            "final": {
                "rule": config.rule,
                "alpha": config.alpha if config.rule == "weighted" else None,
                "level_k": final.level_k,
                "members": [m.canonical for m in final.members],
            },
        }
    return {
        "report_version": 1,
        "linkage": config.linkage,
        "conversion": config.conversion,
        "elbow_k": elbow_k,
        "metrics": metrics_doc,
    }


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
    os.makedirs(config.outdir, exist_ok=True)
    corpus, mapping = _build_corpus(config)
    vpm, tpm = _build_matrices(config, corpus)
    matrix, dendro, scores, sweeps, elbow_k = _selection_sweep(vpm, config)

    primary_metric = config.metrics[0]
    with _stage("choose-final"):
        final = choose_final(sweeps[primary_metric], rule=config.rule, alpha=config.alpha)
    with _stage("stack-final"):
        ensemble = fit_stack(vpm, final.members, meta_kind=config.meta_kind)
        test_restricted = tpm.select(final.members)
        test_preds = predict_stack(ensemble, test_restricted)
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
        "selection": {
            "rule": config.rule,
            "alpha": config.alpha if config.rule == "weighted" else None,
            "metric": primary_metric,
            "level_k": final.level_k,
            "members": [m.canonical for m in final.members],
        },
        "final_test_eval": final_eval.as_dict(),
        "artifacts": artifacts,
    }
    with _stage("write-report"):
        _emit_report(report, "run_report", os.path.join(config.outdir, "run_report.json"))
    return report


def _ordered_unique(values: Sequence[str]) -> list[str]:
    seen: list[str] = []
    for v in values:
        if v not in seen:
            seen.append(v)
    return seen


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
    os.makedirs(config.outdir, exist_ok=True)
    if (validation_matrix is None) != (test_matrix is None):
        raise StageError("ingest", "matrix mode needs both validation and test matrices")
    if validation_matrix is not None:
        with _stage("ingest"):
            vpm = read_prediction_matrix(validation_matrix)
            tpm = read_prediction_matrix(test_matrix)
            if [c.canonical for c in vpm.classifier_ids] != [
                c.canonical for c in tpm.classifier_ids
            ]:
                raise ValueError("validation and test matrices must share one column order")
    else:
        corpus, _ = _build_corpus(config)
        vpm, tpm = _build_matrices(config, corpus)

    matrix, dendro, scores, sweeps, elbow_k = _selection_sweep(vpm, config)
    primary_metric = config.metrics[0]
    with _stage("choose-final"):
        final = choose_final(sweeps[primary_metric], rule=config.rule, alpha=config.alpha)

    meta = config.meta_kind.upper()
    rows: list[dict] = []

    def _stacked_row(display: str, kind: str, members: Sequence[ClassifierId]) -> dict:
        ensemble = fit_stack(vpm, members, meta_kind=meta)
        entry = evaluate(predict_stack(ensemble, tpm), tpm.truth, tpm.num_classes)
        return {
            "display": f"{display} ({len(members)})",
            "kind": kind,
            "members": [m.canonical for m in members],
            "members_count": len(members),
            **entry.as_dict(),
        }

    with _stage("compare-monolithic"):
        for cid in vpm.classifier_ids:
            entry = evaluate(tpm.column(cid), tpm.truth, tpm.num_classes)
            rows.append(
                {
                    "display": cid.canonical,
                    "kind": "monolithic",
                    "members": [cid.canonical],
                    "members_count": 1,
                    **entry.as_dict(),
                }
            )
    with _stage("compare-groups"):
        ids = list(vpm.classifier_ids)
        for token in _ordered_unique([cid.algorithm for cid in ids]):
            rows.append(_stacked_row(f"A-{token}-{meta}", "group_a", group_members(ids, "A", token)))
        for token in _ordered_unique([cid.extractor for cid in ids]):
            rows.append(_stacked_row(f"B-{token}-{meta}", "group_b", group_members(ids, "B", token)))
        rows.append(_stacked_row(f"C-{meta}", "group_c", group_members(ids, "C")))
        rows.append(_stacked_row(f"D-{meta}", "group_d", list(final.members)))
        if elbow_k is not None:
            elbow_members = sweeps[primary_metric][elbow_k - 1].members
            rows.append(_stacked_row(f"ELBOW-{meta}", "elbow", list(elbow_members)))
    with _stage("compare-baseline"):
        base = random_baseline(vpm.num_classes)
        rows.append(
            {
                "display": "BASELINE",
                "kind": "baseline",
                "members": [],
                "members_count": 0,
                "accuracy": base,
                "precision": None,
                "recall": None,
                "f1": None,
            }
        )

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


def cmd_ingest(matrix_path: str, meta_path: str | None = None) -> PredictionMatrix:
    """Validate an externally produced prediction-matrix file."""
    with _stage("ingest"):
        return read_prediction_matrix(matrix_path, meta_path)


def _parse_ratios(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("ratios must be three comma-separated fractions")
    return (parts[0], parts[1], parts[2])


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


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ratios", type=_parse_ratios, default=(0.6, 0.2, 0.2),
                        help="train,validation,test fractions (default: 0.6,0.2,0.2)")
    parser.add_argument("--extractors", type=_parse_tokens, default=("COUNT", "TFIDF", "HASHED"),
                        help="feature extractor tokens (default: COUNT,TFIDF,HASHED)")
    parser.add_argument("--algorithms", type=_parse_tokens, default=("NB", "LR", "KNN", "NC"),
                        help="learning algorithm tokens (default: NB,LR,KNN,NC)")


def _add_selection_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--linkage", choices=LINKAGE_METHODS, default="complete",
                        help="inter-cluster distance rule (default: complete)")
    parser.add_argument("--conversion", choices=sorted(CONVERSIONS), default="complement",
                        help="double-fault to distance conversion (default: complement)")
    parser.add_argument("--metrics", type=_parse_metrics, default=METRIC_NAMES,
                        help="per-cluster selection metrics; the first one drives the "
                             "deployed ensemble (default: accuracy,precision,recall,f1)")
    parser.add_argument("--rule", choices=FINAL_RULES, default="max-validation",
                        help="final candidate choice rule (default: max-validation)")
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="score weight for the weighted rule (default: 0.5)")
    parser.add_argument("--meta", choices=META_KINDS + tuple(m.lower() for m in META_KINDS),
                        default="LR", help="stacking meta-classifier (default: LR)")


def _config_from_args(args: argparse.Namespace, corpus: str = "") -> RunConfig:
    return RunConfig(
        corpus=corpus,
        ratios=getattr(args, "ratios", (0.6, 0.2, 0.2)),
        seed=args.seed,
        extractors=getattr(args, "extractors", ("COUNT", "TFIDF", "HASHED")),
        algorithms=getattr(args, "algorithms", ("NB", "LR", "KNN", "NC")),
        linkage=getattr(args, "linkage", "complete"),
        conversion=getattr(args, "conversion", "complement"),
        metrics=getattr(args, "metrics", METRIC_NAMES),
        rule=getattr(args, "rule", "max-validation"),
        alpha=getattr(args, "alpha", 0.5),
        meta_kind=getattr(args, "meta", "LR").upper(),
        outdir=os.environ.get(OUTPUT_DIR_ENV) or args.outdir,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsel",
        description="Build diverse multiple classifier systems for text "
                    "classification via double-fault clustering, hierarchy-level "
                    "selection, and stacking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=7, help="global random seed (default: 7)")
        p.add_argument("--outdir", default="hsel-out",
                       help=f"output directory (default: hsel-out; ${OUTPUT_DIR_ENV} overrides)")

    p_run = sub.add_parser("run", help="full pipeline over a corpus file")
    p_run.add_argument("--corpus", required=True, help="text,label corpus file")
    _add_pipeline_options(p_run)
    _add_selection_options(p_run)
    common(p_run)

    p_cmp = sub.add_parser("compare", help="selection strategies side by side on TEST")
    p_cmp.add_argument("--corpus", help="text,label corpus file (native pool mode)")
    p_cmp.add_argument("--validation-matrix", help="ingested validation prediction matrix")
    p_cmp.add_argument("--test-matrix", help="ingested test prediction matrix")
    _add_pipeline_options(p_cmp)
    _add_selection_options(p_cmp)
    common(p_cmp)

    p_ing = sub.add_parser("ingest", help="validate a prediction-matrix file")
    p_ing.add_argument("matrix", help="prediction-matrix file")
    p_ing.add_argument("--meta-file", help="sidecar metadata (default: <matrix>.meta.json)")
    common(p_ing)

    p_div = sub.add_parser("diversity", help="dissimilarity matrix from a prediction matrix")
    p_div.add_argument("--matrix", required=True)
    p_div.add_argument("--meta-file")
    p_div.add_argument("--conversion", choices=sorted(CONVERSIONS), default="complement")
    p_div.add_argument("--out", help="output path (default: <outdir>/dissimilarity.csv)")
    common(p_div)

    p_clu = sub.add_parser("cluster", help="dendrogram from a dissimilarity matrix")
    p_clu.add_argument("--dissimilarity", required=True)
    p_clu.add_argument("--linkage", choices=LINKAGE_METHODS, default="complete")
    p_clu.add_argument("--out", help="output path (default: <outdir>/dendrogram.txt)")
    common(p_clu)

    p_sel = sub.add_parser("select", help="hierarchy-level sweep over an ingested matrix")
    p_sel.add_argument("--matrix", required=True, help="validation prediction matrix")
    p_sel.add_argument("--meta-file")
    _add_selection_options(p_sel)
    common(p_sel)

    p_stk = sub.add_parser("stack", help="fit a stacked ensemble from ingested matrices")
    p_stk.add_argument("--validation-matrix", required=True)
    p_stk.add_argument("--test-matrix", required=True)
    p_stk.add_argument("--members", required=True, type=_parse_tokens,
                       help="comma-separated canonical classifier ids")
    p_stk.add_argument("--meta", choices=META_KINDS + tuple(m.lower() for m in META_KINDS),
                       default="LR")
    p_stk.add_argument("--out", help="output path (default: <outdir>/stack.json)")
    common(p_stk)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = _config_from_args(args, corpus=args.corpus)
            report = cmd_run(config)
            print(json.dumps(report["final_test_eval"], indent=2, sort_keys=True))
            return 0
        if args.command == "compare":
            if not args.corpus and not args.validation_matrix:
                parser.error("compare needs --corpus or --validation-matrix/--test-matrix")
            config = _config_from_args(args, corpus=args.corpus or "")
            cmd_compare(config, args.validation_matrix, args.test_matrix)
            print(os.path.join(config.outdir, "compare_report.json"))
            return 0
        if args.command == "ingest":
            pm = cmd_ingest(args.matrix, args.meta_file)
            summary = {
                "classifiers": [c.canonical for c in pm.classifier_ids],
                "instances": pm.n_instances,
                "num_classes": pm.num_classes,
                "split": pm.split_tag.value,
            }
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        if args.command == "diversity":
            outdir = os.environ.get(OUTPUT_DIR_ENV) or args.outdir
            os.makedirs(outdir, exist_ok=True)
            with _stage("ingest"):
                pm = read_prediction_matrix(args.matrix, args.meta_file)
            with _stage("dissimilarity"):
                matrix = dissimilarity_matrix(pm, conversion=args.conversion)
            out = args.out or os.path.join(outdir, "dissimilarity.csv")
            write_dissimilarity_csv(matrix, out)
            print(out)
            return 0
        if args.command == "cluster":
            outdir = os.environ.get(OUTPUT_DIR_ENV) or args.outdir
            os.makedirs(outdir, exist_ok=True)
            with _stage("read-dissimilarity"):
                matrix = read_dissimilarity_csv(args.dissimilarity)
            with _stage("linkage"):
                dendro = linkage(matrix, method=args.linkage)
            out = args.out or os.path.join(outdir, "dendrogram.txt")
            write_dendrogram(dendro, out)
            print(out)
            return 0
        if args.command == "select":
            config = _config_from_args(args)
            os.makedirs(config.outdir, exist_ok=True)
            with _stage("ingest"):
                vpm = read_prediction_matrix(args.matrix, args.meta_file)
            _, _, _, sweeps, elbow_k = _selection_sweep(vpm, config)
            out = os.path.join(config.outdir, "selection_report.json")
            with _stage("write-report"):
                _emit_report(_selection_report_doc(config, sweeps, elbow_k),
                             "selection_report", out)
            print(out)
            return 0
        if args.command == "stack":
            outdir = os.environ.get(OUTPUT_DIR_ENV) or args.outdir
            os.makedirs(outdir, exist_ok=True)
            with _stage("ingest"):
                vpm = read_prediction_matrix(args.validation_matrix)
                tpm = read_prediction_matrix(args.test_matrix)
            with _stage("stack"):
                ensemble = fit_stack(vpm, list(args.members), meta_kind=args.meta.upper())
                preds = predict_stack(ensemble, tpm)
            entry = evaluate(preds, tpm.truth, tpm.num_classes)
            out = args.out or os.path.join(outdir, "stack.json")
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(stack_to_json(ensemble))
            print(json.dumps({"stack": out, "test_eval": entry.as_dict()},
                             indent=2, sort_keys=True))
            return 0
        parser.error(f"unknown command {args.command!r}")
    except StageError as exc:
        print(f"error [{exc.stage}]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

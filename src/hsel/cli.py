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
from typing import Callable, Sequence

import numpy as np

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
    PredictionMatrix,
    Split,
    evaluate,
    evaluate_matrix,
    evaluate_rows,
    load_corpus_csv,
    split_corpus,
)
from .diversity import DissimilarityMatrix, dissimilarity_matrix, write_dissimilarity_csv
from .features import normalize_extractor_token
from .hiercluster import LINKAGE_METHODS, Dendrogram, linkage, write_dendrogram
from .learners import normalize_algorithm_token
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

@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one pipeline run; embedded in every report."""

    corpus: str = ""  # run's corpus file; empty for the matrix commands
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2)
    seed: int = 7
    extractors: tuple[str, ...] = ("COUNT", "TFIDF", "HASHED")
    algorithms: tuple[str, ...] = ("NB", "LR", "KNN", "NC")
    linkage: str = "complete"
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


def _out_path(outdir: str, name: str) -> str:
    """The path of output file ``name`` in ``outdir``, which is made here,
    when the first file is written there, so a command that fails on its
    inputs makes none."""
    with _stage("outdir"):
        os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _load_schema(name: str) -> dict:
    """The shipped JSON Schema of the ``name`` report."""
    text = resources.files("hsel").joinpath(f"schemas/{name}.schema.json").read_text("utf-8")
    return json.loads(text)


def _emit_report(doc: dict, schema_name: str, path: str) -> None:
    """Write ``doc``, a ``schema_name`` report, to ``path`` as
    ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)`` plus a
    newline. A failed write (a non-finite number raises ``ValueError``, a
    type JSON lacks ``TypeError``) leaves no file behind.
    Whether a report fits its schema depends only on this module's fixed
    builders, so the tests and the benchmark check that with ``jsonschema``."""
    with open(path, "w", encoding="utf-8") as fh:
        try:
            fh.write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
        except Exception:
            fh.close()
            os.remove(path)
            raise


def _candidate_doc(candidate: EnsembleCandidate) -> dict:
    return {
        "level_k": candidate.level_k,
        "mean_pairwise_distance": candidate.mean_pairwise_distance,
        "validation_score": candidate.validation_score,
    }


Stacks = dict[tuple[str, ...], StackedEnsemble]


def _member_key(members: Sequence[ClassifierId]) -> tuple[str, ...]:
    return tuple([m.canonical for m in members])


def _label_rows(
    sweeps: dict[str, list[EnsembleCandidate]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per sweep, each level's row in one table of distinct levels, and
    whether the level is the sweep's own, first seen there; rows are
    numbered in sweep then level order.

    The sweeps share one dendrogram, so level k of two sweeps holds the same
    members exactly when their first k joined members are one set: when the
    running maximum of the positions that the one's joined members have in
    the other's join order is k - 1 at level k."""
    names = [[c.joined.canonical for c in cands] for cands in sweeps.values()]
    rank = {name: j for j, name in enumerate(names[0])}
    orders = [np.array([rank[name] for name in order], dtype=np.intp) for order in names]
    levels, out, count = np.arange(len(rank)), [], 0
    for order in orders:
        row = np.full(len(order), -1)
        for earlier, (earlier_row, _) in zip(orders, out):
            position = np.empty_like(earlier)
            position[earlier] = levels
            shared = (row < 0) & (np.maximum.accumulate(position[order]) == levels)
            row[shared] = earlier_row[shared]
        own = row < 0
        row[own] = np.arange(count, count + np.count_nonzero(own))
        count += np.count_nonzero(own)
        out.append((row, own))
    return out


def _score_candidates(
    sweeps: dict[str, list[EnsembleCandidate]],
    vpm: PredictionMatrix,
    meta_kind: str,
    extra: Sequence[Sequence[ClassifierId]] = (),
) -> tuple[dict[str, list[EnsembleCandidate]], Stacks]:
    """Stack the candidates of every metric's sweep on validation and record
    each metric there; also stack the ``extra`` member lists.

    Returns the scored sweeps and the ensembles fitted here, by member
    tuple, all from one ``fit_stacks`` call. The sweeps come from one
    dendrogram, and each level that ``_label_rows`` finds in an earlier
    sweep takes that sweep's labels, so every distinct level is labelled
    once and evaluated once, all in one ``evaluate_rows`` call.
    LR fits every distinct candidate and predicts each on its own. NB and
    VOTE sweeps are nested, and their weight rows depend on the member
    alone: one ``predict_nested`` pass over the full level's ensemble, adding
    each candidate's ``joined`` in turn, labels a sweep's own levels and
    stops after the last of them, so only that ensemble and the ``extra``
    lists are fitted (``_stack_for`` fits any other when it is needed).
    Validation data is reused for base scoring and meta-training by design;
    held-out measurement happens on TEST only.
    """
    rows = _label_rows(sweeps)
    nested = meta_kind.strip().upper() != "LR"
    if nested:
        read = [next(iter(sweeps.values()))[-1].members]
    else:
        read = [cands[k].members for cands, (_, own) in zip(sweeps.values(), rows)
                for k in np.flatnonzero(own).tolist()]
    fitted = {_member_key(members): members for members in read}
    fitted.update((_member_key(members), members) for members in extra)
    stacks = dict(zip(fitted, fit_stacks(vpm, list(fitted.values()), meta_kind=meta_kind)))
    if nested:
        full = stacks[_member_key(read[0])]
        position = {m.canonical: j for j, m in enumerate(full.members)}
        labels = np.concatenate([
            predict_nested(full, vpm, [position[c.joined.canonical] for c in cands], own)
            for cands, (_, own) in zip(sweeps.values(), rows)
        ])
    else:
        labels = [predict_stack(stacks[_member_key(members)], vpm) for members in read]
    entries = evaluate_rows(labels, vpm.truth, vpm.num_classes)
    scored = {
        metric: [c.with_score(entries[r].metric(metric)) for c, r in zip(cands, row.tolist())]
        for (metric, cands), (row, _) in zip(sweeps.items(), rows)
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
        matrix = dissimilarity_matrix(vpm)
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
    """The deployed choice: the rule that made it and the candidate it chose.
    Its members keep cluster-label order, the order LR stacking sums them in."""
    return {
        "rule": config.rule,
        "alpha": config.alpha if config.rule == "weighted" else None,
        "level_k": final.level_k,
        "members": [m.canonical for m in final.members],
    }


def _sweep_doc(candidates: list[EnsembleCandidate]) -> dict:
    """A sweep's candidates and its ``join_order``: the canonical ids in the
    order they join the sweep, so level k's members are its first k."""
    return {
        "join_order": [c.joined.canonical for c in candidates],
        "candidates": [_candidate_doc(c) for c in candidates],
    }


def _selection_report_doc(
    config: RunConfig, sweeps: dict[str, list[EnsembleCandidate]], elbow_k: int | None
) -> dict:
    metrics_doc = {}
    for metric, candidates in sweeps.items():
        final = choose_final(candidates, rule=config.rule, alpha=config.alpha)
        metrics_doc[metric] = {**_sweep_doc(candidates), "final": _final_doc(config, final)}
    return {
        "report_version": 2,
        "linkage": config.linkage,
        "conversion": "complement",  # required by the v2 schema
        "elbow_k": elbow_k,
        "metrics": metrics_doc,
    }


def _read_matrices(*paths: str) -> list[PredictionMatrix]:
    """Each matrix, read with its ``<matrix>.meta.json`` sidecar; the class
    counts of a validation and a test matrix must agree."""
    with _stage("ingest"):
        pms = [read_prediction_matrix(path) for path in paths]
        if pms[0].num_classes != pms[-1].num_classes:
            raise ValueError(f"{paths[0]} has {pms[0].num_classes} classes but {paths[-1]}"
                             f" has {pms[-1].num_classes}")
    return pms


def cmd_run(config: RunConfig) -> dict:
    """Full pipeline; writes matrix, dendrogram, selection, and evaluation
    artifacts into the output directory and returns the run report."""
    with _stage("load-corpus"):
        rows, mapping = load_corpus_csv(config.corpus)
    with _stage("split"):
        corpus = split_corpus(rows, ratios=config.ratios, seed=config.seed)
    with _stage("train-pool"):
        pool = train_pool(corpus, config.extractors, config.algorithms, seed=config.seed)
    with _stage("predict-validation"):
        vpm = predict_matrix(pool, corpus, Split.VALIDATION)
    with _stage("predict-test"):
        tpm = predict_matrix(pool, corpus, Split.TEST)
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
    paths = {key: _out_path(config.outdir, name) for key, name in artifacts.items()}
    with _stage("write-artifacts"):
        write_dissimilarity_csv(matrix, paths["dissimilarity_matrix"])
        write_dendrogram(dendro, paths["dendrogram"])
        write_prediction_matrix(vpm, paths["validation_matrix"], mapping)
        write_prediction_matrix(tpm, paths["test_matrix"], mapping)
        _emit_report(_selection_report_doc(config, sweeps, elbow_k), "selection_report",
                     paths["selection_report"])

    report = {
        "report_version": 2,
        "generated_at": _now(),
        "config": config.to_dict(),
        "label_mapping": mapping,
        "split_sizes": {tag.value: len(texts) for tag, (texts, _) in corpus.items()},
        "pool": [
            {"id": name, **entry.as_dict()} for name, entry in scores.items()
        ],
        **_sweep_doc(sweeps[primary_metric]),
        "selection": {**_final_doc(config, final), "metric": primary_metric},
        "final_test_eval": final_eval.as_dict(),
        "artifacts": artifacts,
    }
    path = _out_path(config.outdir, "run_report.json")
    with _stage("write-report"):
        _emit_report(report, "run_report", path)
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


def cmd_compare(config: RunConfig, validation_matrix: str, test_matrix: str) -> dict:
    """Evaluate every strategy on TEST: monolithic members, groups A/B/C,
    the hierarchy-selected group D, the elbow ensemble, and the baseline."""
    vpm, tpm = _read_matrices(validation_matrix, test_matrix)
    if vpm.classifier_ids != tpm.classifier_ids:
        raise StageError("ingest", "validation and test matrices must share one column order")

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
    path = _out_path(config.outdir, "compare_report.json")
    with _stage("write-report"):
        _emit_report(report, "compare_report", path)
    return report


def _parse_ratios(text: str) -> tuple[float, ...]:
    with contextlib.suppress(ValueError):
        parts = tuple(float(p) for p in text.split(","))
        # nan fails the range test; the sum has split_corpus's tolerance.
        if (len(parts) == 3 and all(0 < part < math.inf for part in parts)
                and abs(sum(parts) - 1.0) <= 1e-9):
            return parts
    raise argparse.ArgumentTypeError(
        f"ratios must be three comma-separated fractions that sum to 1, got {text!r}")


def _parse_alpha(text: str) -> float:
    try:
        alpha = float(text)
    except ValueError:
        alpha = None
    if alpha is None or not 0.0 <= alpha <= 1.0:  # the comparison also rejects nan
        raise argparse.ArgumentTypeError(f"alpha must be a number in [0, 1], got {text!r}")
    return alpha


def _unique_tokens(kind: str, normalize: Callable[[str], str]) -> Callable[[str], tuple[str, ...]]:
    """A parser of a non-empty comma-separated list that rejects a token
    that ``normalize``, the normalization the pipeline applies, rejects with
    ``ValueError``, or that equals an earlier one after it. The tokens stay
    as typed."""
    def parse(text: str) -> tuple[str, ...]:
        tokens, seen = tuple(t.strip() for t in text.split(",") if t.strip()), set()
        if not tokens:
            raise argparse.ArgumentTypeError("expected a non-empty comma-separated list")
        for tok in tokens:
            try:
                key = normalize(tok)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
            if key in seen:
                raise argparse.ArgumentTypeError(f"{kind} {tok!r} is repeated")
            seen.add(key)
        return tokens
    return parse


def _metric_name(token: str) -> str:
    if token not in METRIC_NAMES:
        raise argparse.ArgumentTypeError(f"unknown metric {token!r}")
    return token


_DEFAULTS = RunConfig()

# Options that set a RunConfig field: field -> (flag, help, argparse keywords).
# Each takes the field's default and names it in its help.
_FIELD_OPTIONS = {
    "ratios": ("--ratios", "train,validation,test fractions", {"type": _parse_ratios}),
    "extractors": ("--extractors", "feature extractor tokens",
                   {"type": _unique_tokens("extractor", normalize_extractor_token)}),
    "algorithms": ("--algorithms", "learning algorithm tokens",
                   {"type": _unique_tokens("algorithm", normalize_algorithm_token)}),
    "linkage": ("--linkage", "inter-cluster distance rule", {"choices": LINKAGE_METHODS}),
    "metrics": ("--metrics", "per-cluster selection metrics; the first one drives the "
                "deployed ensemble", {"type": _unique_tokens("metric", _metric_name)}),
    "rule": ("--rule", "final candidate choice rule", {"choices": FINAL_RULES}),
    "alpha": ("--alpha", "score weight for the weighted rule", {"type": _parse_alpha}),
    "meta_kind": ("--meta", "stacking meta-classifier",
                  {"type": str.upper, "choices": META_KINDS}),
    "seed": ("--seed", "global random seed", {"type": int}),
    "outdir": ("--outdir", "output directory, made when the first file is written there", {}),
}
_SELECTION_FIELDS = ("linkage", "metrics", "rule", "alpha", "meta_kind")


def _add_field_options(parser: argparse.ArgumentParser, names: Sequence[str]) -> None:
    for name in names:
        flag, text, kwargs = _FIELD_OPTIONS[name]
        default = getattr(_DEFAULTS, name)
        shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
        parser.add_argument(flag, dest=name, default=default, help=f"{text} (default: {shown})",
                            **kwargs)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The subcommand's own options; ``RunConfig``'s defaults fill the rest."""
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)
                        if hasattr(args, f.name)})


def build_parser() -> argparse.ArgumentParser:
    # Without abbreviations each option has one spelling, and a deleted one
    # is an unrecognized argument rather than a prefix of another.
    parser = argparse.ArgumentParser(
        prog="hsel",
        allow_abbrev=False,
        description="Build diverse multiple classifier systems for text "
                    "classification via double-fault clustering, hierarchy-level "
                    "selection, and stacking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, allow_abbrev=False, **kwargs)

    p_run = add("run", help="full pipeline over a corpus file")
    p_run.add_argument("--corpus", required=True, help="text,label corpus file")
    _add_field_options(p_run, ("ratios", "extractors", "algorithms", "seed", *_SELECTION_FIELDS,
                               "outdir"))

    p_cmp = add("compare", help="selection strategies side by side on TEST")
    p_cmp.add_argument("--validation-matrix", required=True,
                       help="ingested validation prediction matrix")
    p_cmp.add_argument("--test-matrix", required=True, help="ingested test prediction matrix")
    _add_field_options(p_cmp, _SELECTION_FIELDS + ("outdir",))
    # --seed stays while the pool-stack benchmark passes it; the report records it.
    p_cmp.add_argument("--seed", type=int, default=_DEFAULTS.seed,
                       help="recorded in the report's config and otherwise unused: compare"
                            f" draws no random numbers (default: {_DEFAULTS.seed})")

    p_ing = add("ingest", help="validate a prediction-matrix file")
    p_ing.add_argument("matrix", help="prediction-matrix file")

    p_div = add("diversity", help="dissimilarity matrix from a prediction matrix, as an export")
    p_div.add_argument("--matrix", required=True)
    _add_field_options(p_div, ("outdir",))

    p_clu = add("cluster", help="dendrogram from a prediction matrix")
    p_clu.add_argument("--matrix", required=True, help="validation prediction matrix")
    _add_field_options(p_clu, ("linkage", "outdir"))

    p_sel = add("select", help="hierarchy-level sweep over an ingested matrix")
    p_sel.add_argument("--matrix", required=True, help="validation prediction matrix")
    _add_field_options(p_sel, _SELECTION_FIELDS + ("outdir",))
    # select reads no seed; --seed stays while the pool-wide benchmark passes it.
    p_sel.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                       help="accepted and unused: select draws no random numbers")

    p_stk = add("stack", help="fit a stacked ensemble from ingested matrices")
    p_stk.add_argument("--validation-matrix", required=True)
    p_stk.add_argument("--test-matrix", required=True)
    p_stk.add_argument("--members", required=True,
                       type=_unique_tokens("member", lambda t: ClassifierId.parse(t).canonical),
                       help="comma-separated canonical classifier ids")
    _add_field_options(p_stk, ("meta_kind", "outdir"))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            report = cmd_run(_config_from_args(args))
            shown = json.dumps(report["final_test_eval"], indent=2, sort_keys=True)
        elif args.command == "compare":
            config = _config_from_args(args)
            cmd_compare(config, args.validation_matrix, args.test_matrix)
            shown = os.path.join(config.outdir, "compare_report.json")
        elif args.command == "ingest":
            [pm] = _read_matrices(args.matrix)
            summary = {
                "classifiers": [c.canonical for c in pm.classifier_ids],
                "instances": pm.n_instances,
                "num_classes": pm.num_classes,
                "split": pm.split_tag.value,
            }
            shown = json.dumps(summary, indent=2, sort_keys=True)
        elif args.command in ("diversity", "cluster"):
            [pm] = _read_matrices(args.matrix)
            with _stage("dissimilarity"):
                matrix = dissimilarity_matrix(pm)
            if args.command == "diversity":
                shown = _out_path(args.outdir, "dissimilarity.csv")
                with _stage("write-dissimilarity"):
                    write_dissimilarity_csv(matrix, shown)
            else:
                with _stage("linkage"):
                    dendro = linkage(matrix, method=args.linkage)
                shown = _out_path(args.outdir, "dendrogram.txt")
                with _stage("write-dendrogram"):
                    write_dendrogram(dendro, shown)
        elif args.command == "select":
            config = _config_from_args(args)
            [vpm] = _read_matrices(args.matrix)
            _, _, _, sweeps, _, elbow_k = _selection_sweep(vpm, config)
            shown = _out_path(config.outdir, "selection_report.json")
            with _stage("write-report"):
                _emit_report(_selection_report_doc(config, sweeps, elbow_k),
                             "selection_report", shown)
        else:  # stack
            vpm, tpm = _read_matrices(args.validation_matrix, args.test_matrix)
            with _stage("stack"):
                ensemble = fit_stack(vpm, list(args.members), meta_kind=args.meta_kind)
                preds = predict_stack(ensemble, tpm)
            entry = evaluate(preds, tpm.truth, tpm.num_classes)
            out = _out_path(args.outdir, "stack.json")
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

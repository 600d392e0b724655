"""Stacking combination: one-hot meta-features from member predictions, a
meta-classifier trained on validation outputs, and final test predictions.

Over the one-hot blocks every meta-classifier is one linear scorer: row i
scores ``bias + sum_j weights[j * C + pred_ij]`` and the top class wins,
ties to the smallest class. The kinds differ only in the weights, kept in a
``SoftmaxRegression``: LR learns them by gradient descent; NB's are the
closed-form log likelihoods of categorical naive Bayes, with the log class
prior as bias; VOTE's are identity blocks with zero bias (plurality vote).

``fit_stacks`` fits many member lists at once: LR meta-classifiers over one
one-hot matrix of the union of their members, trained together in one
gradient descent (``learners.fit_softmax_models``). The CLI fits every
distinct candidate of a level sweep this way and keeps the ensembles, so
the deployed and compared ensembles reuse those fits."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ClassifierId, PredictionMatrix
from .learners import SoftmaxRegression, fit_softmax_models, top_class

META_KINDS = ("LR", "NB", "VOTE")

STACK_FORMAT = "hsel-stack"

_NB_ALPHA = 1.0  # add-one smoothing of the NB counts


def _normalize_members(members: Sequence[ClassifierId | str]) -> tuple[ClassifierId, ...]:
    return tuple(m if isinstance(m, ClassifierId) else ClassifierId.parse(str(m)) for m in members)


def meta_features(
    pm: PredictionMatrix, members: Sequence[ClassifierId | str], num_classes: int
) -> np.ndarray:
    """N x (|members| * C) one-hot meta-feature matrix.

    Row i concatenates, in member order, the one-hot encoding of each
    member's predicted label for instance i. Only labels are encoded;
    ingested matrices carry no probabilities, so this layout works for
    native and external pools alike.
    """
    members = _normalize_members(members)
    if not members:
        raise ValueError("need at least one member")
    out = np.zeros((pm.n_instances, len(members) * num_classes), dtype=np.float64)
    rows = np.arange(pm.n_instances)
    for j, member in enumerate(members):
        out[rows, j * num_classes + pm.column(member)] = 1.0
    return out


@dataclass(frozen=True)
class StackedEnsemble:
    """A member list plus the trained meta-classifier over their outputs.

    The meta-feature layout is one one-hot block of width ``num_classes``
    per member, in member order; ``layout`` lists each member's block
    offset. ``model`` holds the linear scorer for every meta kind:
    ``weights_`` of shape (members * C, C) and ``bias_`` of shape (C,).
    """

    members: tuple[ClassifierId, ...]
    meta_kind: str
    num_classes: int
    model: SoftmaxRegression

    @property
    def layout(self) -> list[tuple[str, int]]:
        return [(m.canonical, j * self.num_classes) for j, m in enumerate(self.members)]

    @property
    def meta_feature_dimension(self) -> int:
        return len(self.members) * self.num_classes


def _member_columns(pm: PredictionMatrix, members: Sequence[ClassifierId]) -> list[int]:
    """``pm``'s column of each member, read through its id map without a copy;
    an unknown or repeated member raises ``ValueError`` as ``select`` would."""
    columns = [pm.index_of(m) for m in members]
    if len(set(columns)) < len(columns):
        dupes = sorted({m.canonical for m in members if members.count(m) > 1})
        raise ValueError(f"duplicate classifier ids: {dupes}")
    return columns


def _nb_weights(pm: PredictionMatrix, columns: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Categorical naive Bayes as a linear scorer over ``pm``'s ``columns``.

    Row ``j * C + v``, column c holds log P(member j says v | class c), from
    exact integer counts with add-one smoothing. The bias is log P(c); a
    class absent from the truth keeps a 1e-12 prior so log() stays finite.
    """
    predictions, truth, c = pm.predictions[:, columns], pm.truth, pm.num_classes
    n, members = predictions.shape
    cells = (np.arange(members) * c + predictions) * c + truth[:, None]
    counts = np.bincount(cells.ravel(), minlength=members * c * c).reshape(members, c, c)
    smoothed = counts + _NB_ALPHA
    weights = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
    class_counts = np.bincount(truth, minlength=c)
    bias = np.log(np.where(class_counts > 0, class_counts, 1e-12) / n)
    return weights.reshape(members * c, c), bias


def _vote_weights(members: int, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Plurality vote as a linear scorer: each member adds 1 to its class."""
    return np.tile(np.eye(num_classes), (members, 1)), np.zeros(num_classes)


def fit_stacks(
    validation_pm: PredictionMatrix,
    member_lists: Sequence[Sequence[ClassifierId | str]],
    meta_kind: str = "LR",
) -> list[StackedEnsemble]:
    """Train one meta-classifier per member list on validation predictions.

    LR is softmax regression on the one-hot meta-features (step 0.1, 500
    epochs, L2 1e-4, zero init). All LR lists are fitted together by
    ``fit_softmax_models`` over one one-hot matrix of the union of their
    members, each list on its own members' blocks in its own order, in
    one descent: ``compare`` passes its group A/B/C lists with the sweep's
    candidates, so they share it. NB (categorical naive Bayes) and VOTE
    (plurality) weights are closed-form and computed once for the union;
    each list takes its members' rows.
    None of the three consumes randomness, so each fit is a pure function
    of its inputs.
    """
    meta_kind = meta_kind.strip().upper()
    if meta_kind not in META_KINDS:
        raise ValueError(f"unsupported meta_kind {meta_kind!r}; expected one of {META_KINDS}")
    lists = [_normalize_members(members) for members in member_lists]
    if not all(lists):
        raise ValueError("need at least one member")
    columns = [_member_columns(validation_pm, members) for members in lists]
    num_classes = validation_pm.num_classes
    if validation_pm.n_instances < num_classes:
        raise ValueError(
            f"need at least {num_classes} validation rows, got {validation_pm.n_instances}"
        )
    if not lists:
        return []
    # The lists' columns, first appearance first; rows pick their one-hot blocks.
    union = list(dict.fromkeys(j for cols in columns for j in cols))
    block = np.zeros(validation_pm.n_classifiers, dtype=np.intp)
    block[union] = np.arange(len(union)) * num_classes
    rows = [(block[cols][:, None] + np.arange(num_classes)).ravel() for cols in columns]
    models = [SoftmaxRegression(step=0.1, epochs=500, l2=1e-4) for _ in lists]
    if meta_kind == "LR":
        union_ids = [validation_pm.classifier_ids[j] for j in union]
        X = meta_features(validation_pm, union_ids, num_classes)
        fit_softmax_models(models, X, validation_pm.truth, num_classes, rows)
    elif meta_kind == "NB":
        weights, bias = _nb_weights(validation_pm, union)
        for model, model_rows in zip(models, rows):
            model.weights_, model.bias_ = weights[model_rows], bias.copy()
    else:
        # VOTE rows do not depend on the member, so every list shares the
        # leading rows of one read-only array: views, not copies.
        weights, bias = _vote_weights(len(union), num_classes)
        weights.setflags(write=False)
        bias.setflags(write=False)
        for model, model_rows in zip(models, rows):
            model.weights_, model.bias_ = weights[: len(model_rows)], bias
    return [
        StackedEnsemble(members=members, meta_kind=meta_kind, num_classes=num_classes, model=model)
        for members, model in zip(lists, models)
    ]


def fit_stack(
    validation_pm: PredictionMatrix,
    members: Sequence[ClassifierId | str],
    meta_kind: str = "LR",
) -> StackedEnsemble:
    """``fit_stacks`` for a single member list."""
    return fit_stacks(validation_pm, [members], meta_kind)[0]


def predict_stack(ensemble: StackedEnsemble, pm: PredictionMatrix) -> np.ndarray:
    """Apply the trained meta-classifier to another prediction matrix: the
    last level of ``predict_nested`` over the members in order."""
    p = len(ensemble.members)
    return predict_nested(ensemble, pm, range(p), [False] * (p - 1) + [True])[0]


def predict_nested(ensemble: StackedEnsemble, pm: PredictionMatrix, order: Sequence[int],
                   wanted: Sequence[bool]) -> np.ndarray:
    """(levels, N) labels of the smallest unsigned dtype: scores summed from
    the bias through the members at positions ``order``, one level each, go
    through ``learners.top_class`` where the level's ``wanted`` flag is set.
    NB and VOTE rows depend on their member alone, so level k is
    ``fit_stack`` on ``order[:k]`` (NB up to summation order)."""
    if len(set(order)) < len(order) or len(wanted) != len(order):
        raise ValueError("nested order repeats a member or has no wanted flag per level")
    columns, c = _member_columns(pm, ensemble.members), ensemble.num_classes
    if pm.num_classes != c:
        raise ValueError("prediction matrix class count does not match the ensemble")
    # Class-major (C, N) scores: top_class then reduces over C rows, not N short ones.
    weights = np.ascontiguousarray(ensemble.model.weights_.T)
    scores = np.repeat(ensemble.model.bias_[:, None], pm.n_instances, axis=1)
    labels = np.empty((sum(wanted), pm.n_instances), dtype=np.min_scalar_type(c - 1))
    rows = iter(labels)
    for j, want in zip(order, wanted):
        scores += weights.take(pm.predictions[:, columns[j]] + j * c, axis=1)
        if want:
            next(rows)[:] = top_class(scores.T)
    return labels


def stack_to_json(ensemble: StackedEnsemble) -> str:
    """Full-precision export; ``stack_from_json`` restores an identical
    predictor (json float repr round-trips exactly). NB keeps its
    generative parameters: the class log prior and ``log_likelihood``
    indexed (member, class, predicted value)."""
    model, c = ensemble.model, ensemble.num_classes
    doc = {
        "format": STACK_FORMAT,
        "version": 1,
        "members": [m.canonical for m in ensemble.members],
        "meta_kind": ensemble.meta_kind,
        "num_classes": c,
        "layout": [{"id": name, "offset": offset} for name, offset in ensemble.layout],
        "params": {},
    }
    if ensemble.meta_kind == "LR":
        doc["params"] = {
            "weights": model.weights_.tolist(),
            "bias": model.bias_.tolist(),
            "step": model.step,
            "epochs": model.epochs,
            "l2": model.l2,
        }
    elif ensemble.meta_kind == "NB":
        like = model.weights_.reshape(len(ensemble.members), c, c).transpose(0, 2, 1)
        doc["params"] = {
            "class_log_prior": model.bias_.tolist(),
            "log_likelihood": like.tolist(),
            "alpha": _NB_ALPHA,
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def stack_from_json(text: str) -> StackedEnsemble:
    """Restore a ``stack_to_json`` document. A missing key, an unknown
    format, version or meta kind, a ``num_classes`` that is not an integer
    of at least 2, ``params`` that are not an object, and parameters of the
    wrong shape raise ``ValueError``."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != STACK_FORMAT:
        raise ValueError(f"not a {STACK_FORMAT} document")
    try:
        if doc["version"] != 1:
            raise ValueError(f"unsupported {STACK_FORMAT} version {doc['version']!r}")
        meta_kind = doc["meta_kind"]
        if meta_kind not in META_KINDS:
            raise ValueError(f"unsupported meta_kind {meta_kind!r}; expected one of {META_KINDS}")
        members = _normalize_members(doc["members"])
        if not members:
            raise ValueError("need at least one member")
        j, c, params = len(members), doc["num_classes"], doc["params"]
        if isinstance(c, bool) or not isinstance(c, int) or c < 2:
            raise ValueError(f"num_classes must be an integer of at least 2, got {c!r}")
        if not isinstance(params, dict):
            raise ValueError(f"params must be an object, got {type(params).__name__}")
        model = SoftmaxRegression()
        if meta_kind == "LR":
            model = SoftmaxRegression(step=params["step"], epochs=params["epochs"], l2=params["l2"])
            model.weights_ = _param(params, "weights", (j * c, c))
            model.bias_ = _param(params, "bias", (c,))
        elif meta_kind == "NB":
            like = _param(params, "log_likelihood", (j, c, c))
            model.weights_ = like.transpose(0, 2, 1).reshape(j * c, c)
            model.bias_ = _param(params, "class_log_prior", (c,))
        else:
            model.weights_, model.bias_ = _vote_weights(j, c)
    except KeyError as exc:
        raise ValueError(f"{STACK_FORMAT} document is missing key {exc.args[0]!r}") from None
    return StackedEnsemble(members=members, meta_kind=meta_kind, num_classes=c, model=model)


def _param(params: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    value = np.array(params[key], dtype=np.float64)
    if value.shape != shape:
        raise ValueError(f"params {key!r} has shape {value.shape}, expected {shape}")
    return value

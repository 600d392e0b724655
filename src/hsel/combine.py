"""Stacking combination: one-hot meta-features from member predictions, a
meta-classifier trained on validation outputs, and final test predictions.
A parameterless plurality vote is available as the fallback combiner.

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
from .learners import SoftmaxRegression, _log_softmax, fit_softmax_models

META_KINDS = ("LR", "NB", "VOTE")

STACK_FORMAT = "hsel-stack"


def _normalize_members(members: Sequence[ClassifierId | str]) -> tuple[ClassifierId, ...]:
    out = []
    for m in members:
        out.append(m if isinstance(m, ClassifierId) else ClassifierId.parse(str(m)))
    return tuple(out)


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
    columns = [pm.column(m) for m in members]
    n = pm.n_instances
    out = np.zeros((n, len(members) * num_classes), dtype=np.float64)
    rows = np.arange(n)
    for j, col in enumerate(columns):
        out[rows, j * num_classes + col] = 1.0
    return out


class CategoricalNB:
    """Naive Bayes over the member-prediction categories with add-one
    smoothing; equivalent to multinomial counts over the one-hot blocks."""

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha
        self.class_log_prior_: np.ndarray | None = None
        self.log_likelihood_: np.ndarray | None = None

    def fit(self, columns: np.ndarray, y: np.ndarray, num_classes: int) -> "CategoricalNB":
        columns = np.asarray(columns, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        n, j_members = columns.shape
        counts = np.bincount(y, minlength=num_classes).astype(np.float64)
        priors = np.where(counts > 0, counts, 1e-12) / n
        self.class_log_prior_ = np.log(priors)
        like = np.zeros((j_members, num_classes, num_classes), dtype=np.float64)
        for j in range(j_members):
            for c in range(num_classes):
                mask = y == c
                value_counts = np.bincount(columns[mask, j], minlength=num_classes).astype(
                    np.float64
                )
                smoothed = value_counts + self.alpha
                like[j, c] = np.log(smoothed / smoothed.sum())
        self.log_likelihood_ = like
        return self

    def _joint(self, columns: np.ndarray) -> np.ndarray:
        columns = np.asarray(columns, dtype=np.int64)
        n, j_members = columns.shape
        joint = np.tile(self.class_log_prior_, (n, 1))
        for j in range(j_members):
            joint += self.log_likelihood_[j, :, columns[:, j]]
        return joint

    def predict(self, columns: np.ndarray) -> np.ndarray:
        return np.argmax(self._joint(columns), axis=1)

    def predict_proba(self, columns: np.ndarray) -> np.ndarray:
        return np.exp(_log_softmax(self._joint(columns)))


def _plurality(columns: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.empty(columns.shape[0], dtype=np.int64)
    for i, row in enumerate(columns):
        votes = np.bincount(row, minlength=num_classes)
        out[i] = int(np.argmax(votes))
    return out


@dataclass(frozen=True)
class StackedEnsemble:
    """A member list plus the trained meta-classifier over their outputs.

    The meta-feature layout is one one-hot block of width ``num_classes``
    per member, in member order; ``layout`` lists each member's block
    offset.
    """

    members: tuple[ClassifierId, ...]
    meta_kind: str
    num_classes: int
    model: object | None

    @property
    def layout(self) -> list[tuple[str, int]]:
        return [(m.canonical, j * self.num_classes) for j, m in enumerate(self.members)]

    @property
    def meta_feature_dimension(self) -> int:
        return len(self.members) * self.num_classes


def fit_stacks(
    validation_pm: PredictionMatrix,
    member_lists: Sequence[Sequence[ClassifierId | str]],
    meta_kind: str = "LR",
) -> list[StackedEnsemble]:
    """Train one meta-classifier per member list on validation predictions.

    LR is softmax regression on the one-hot meta-features (step 0.1, 500
    epochs, L2 1e-4, zero init). All LR lists are fitted together by
    ``fit_softmax_models`` over one one-hot matrix of the union of their
    members, each list on its own members' blocks in its own order. NB is
    categorical naive Bayes over the member predictions; VOTE has no
    parameters. None of the three consumes randomness, so each fit is a
    pure function of its inputs.
    """
    meta_kind = meta_kind.strip().upper()
    if meta_kind not in META_KINDS:
        raise ValueError(f"unsupported meta_kind {meta_kind!r}; expected one of {META_KINDS}")
    lists = [_normalize_members(members) for members in member_lists]
    if not all(lists):
        raise ValueError("need at least one member")
    for members in lists:
        validation_pm.select(members)  # rejects unknown and repeated members
    num_classes = validation_pm.num_classes
    if validation_pm.n_instances < num_classes:
        raise ValueError(
            f"need at least {num_classes} validation rows, got {validation_pm.n_instances}"
        )
    if not lists:
        return []
    if meta_kind == "LR":
        union = list(dict.fromkeys(m for members in lists for m in members))
        block = {m: j * num_classes for j, m in enumerate(union)}
        classes = np.arange(num_classes)
        columns = [np.concatenate([block[m] + classes for m in members]) for members in lists]
        models = [SoftmaxRegression(step=0.1, epochs=500, l2=1e-4) for _ in lists]
        X = meta_features(validation_pm, union, num_classes)
        fit_softmax_models(models, X, validation_pm.truth, num_classes, columns)
    elif meta_kind == "NB":
        models = [
            CategoricalNB().fit(
                validation_pm.select(members).predictions, validation_pm.truth, num_classes
            )
            for members in lists
        ]
    else:
        models = [None] * len(lists)
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
    """Apply the trained meta-classifier to another prediction matrix."""
    sub = pm.select(ensemble.members)
    if sub.num_classes != ensemble.num_classes:
        raise ValueError("prediction matrix class count does not match the ensemble")
    if ensemble.meta_kind == "LR":
        X = meta_features(sub, ensemble.members, ensemble.num_classes)
        return np.asarray(ensemble.model.predict(X), dtype=np.int64)
    if ensemble.meta_kind == "NB":
        return np.asarray(ensemble.model.predict(sub.predictions), dtype=np.int64)
    return _plurality(sub.predictions, ensemble.num_classes)


def stack_to_json(ensemble: StackedEnsemble) -> str:
    """Full-precision export; ``stack_from_json`` restores an identical
    predictor (json float repr round-trips exactly)."""
    doc = {
        "format": STACK_FORMAT,
        "version": 1,
        "members": [m.canonical for m in ensemble.members],
        "meta_kind": ensemble.meta_kind,
        "num_classes": ensemble.num_classes,
        "layout": [{"id": name, "offset": offset} for name, offset in ensemble.layout],
    }
    if ensemble.meta_kind == "LR":
        doc["params"] = {
            "weights": ensemble.model.weights_.tolist(),
            "bias": ensemble.model.bias_.tolist(),
            "step": ensemble.model.step,
            "epochs": ensemble.model.epochs,
            "l2": ensemble.model.l2,
        }
    elif ensemble.meta_kind == "NB":
        doc["params"] = {
            "class_log_prior": ensemble.model.class_log_prior_.tolist(),
            "log_likelihood": ensemble.model.log_likelihood_.tolist(),
            "alpha": ensemble.model.alpha,
        }
    else:
        doc["params"] = {}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def stack_from_json(text: str) -> StackedEnsemble:
    doc = json.loads(text)
    if doc.get("format") != STACK_FORMAT:
        raise ValueError(f"not a {STACK_FORMAT} document")
    members = tuple(ClassifierId.parse(name) for name in doc["members"])
    meta_kind = doc["meta_kind"]
    num_classes = int(doc["num_classes"])
    params = doc.get("params", {})
    model: object | None = None
    if meta_kind == "LR":
        model = SoftmaxRegression(
            step=params["step"], epochs=params["epochs"], l2=params["l2"]
        )
        model.weights_ = np.array(params["weights"], dtype=np.float64)
        model.bias_ = np.array(params["bias"], dtype=np.float64)
    elif meta_kind == "NB":
        model = CategoricalNB(alpha=params["alpha"])
        model.class_log_prior_ = np.array(params["class_log_prior"], dtype=np.float64)
        model.log_likelihood_ = np.array(params["log_likelihood"], dtype=np.float64)
    return StackedEnsemble(
        members=members, meta_kind=meta_kind, num_classes=num_classes, model=model
    )

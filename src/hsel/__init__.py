"""Diversity-driven multiple classifier systems for text classification.

The pipeline: train a pool of (feature extractor, algorithm) classifiers,
measure pairwise double-fault diversity on validation predictions, cluster
the pool hierarchically, sweep every hierarchy level to extract candidate
ensembles (one best-scoring member per cluster), stack the chosen candidate,
and evaluate on held-out test data.
"""

from .combine import (
    META_KINDS,
    StackedEnsemble,
    fit_stack,
    fit_stacks,
    meta_features,
    predict_stack,
    stack_to_json,
)
from .core import (
    METRIC_NAMES,
    ClassifierId,
    EvalEntry,
    PredictionMatrix,
    Split,
    derive_seed,
    evaluate,
    evaluate_matrix,
    load_corpus_csv,
    split_corpus,
)
from .diversity import DissimilarityMatrix, dissimilarity_matrix, write_dissimilarity_csv
from .features import (
    EXTRACTOR_KINDS,
    FeatureSpace,
    build_vocabulary,
    count_matrix,
    fit_feature_space,
)
from .hiercluster import (
    LINKAGE_METHODS,
    Dendrogram,
    MergeStep,
    linkage,
    write_dendrogram,
)
from .pool import (
    ClassifierPool,
    predict_matrix,
    read_prediction_matrix,
    train_pool,
    write_prediction_matrix,
)
from .preprocess import TokenPipeline, fit_token_pipeline
from .selection import (
    FINAL_RULES,
    EnsembleCandidate,
    choose_final,
    elbow_select,
    group_members,
    hierarchy_select,
    random_baseline,
)

__version__ = "0.1.0"

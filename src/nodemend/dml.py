"""Two-stage effect estimation: residualize, then fit the effect model.

Stage 1 cross-fits an outcome regressor and a propensity model so every
row's nuisance prediction comes from learners that never saw it; each
propensity prediction is clamped into [p_min, 1 - p_min] here, so no
treatment residual comes from a propensity at 0 or 1. Stage 2
regresses the outcome residual on the treatment residual, either with a
closed-form linear effect model or with the honest forest. The squared
residual-stage error doubles as the model score used for comparisons and
deployment gating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    DEFAULT_SCHEMA,
    DiagnosticSignals,
    FeatureSchema,
    FloatArray,
    IteEstimate,
    LabeledEvent,
    SignalColumns,
    distinct_rows,
    encode_features,  # noqa: F401  perfbench's tracer times dml.encode_features
    encode_matrix,
    seed_for,
)
from .errors import DegenerateTreatment, InsufficientData, InvalidArgument
from .forest import CausalForest, ForestParams, fit_forest, predict_interval, predict_tau, predict_tau_ci
from .learners import GradientBoostedTrees, LearnerConfig, crossfit_predict, make_folds

FINAL_STAGE_FOREST = "forest"
FINAL_STAGE_LINEAR = "linear"

MODEL_VERSION = "1.0"
MIN_TRAIN_ROWS = 50


@dataclass(frozen=True)
class TrainConfig:
    learner: LearnerConfig = LearnerConfig()
    folds: int = 5
    final_stage: str = FINAL_STAGE_FOREST
    forest: ForestParams = ForestParams()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.final_stage not in (FINAL_STAGE_FOREST, FINAL_STAGE_LINEAR):
            raise InvalidArgument(f"unknown final stage {self.final_stage!r}")
        if self.folds < 2:
            raise InvalidArgument("folds must be >= 2")
        # grouped-bag intervals need a spread between bags
        if self.final_stage == FINAL_STAGE_FOREST and self.forest.bags < 2:
            raise InvalidArgument(f"forest.bags must be >= 2 for a forest final stage, got {self.forest.bags}")


@dataclass(frozen=True)
class ResidualData:
    """Stage-1 output: residuals plus the features that produced them."""

    features: np.ndarray
    ry: np.ndarray
    ra: np.ndarray

    def __post_init__(self) -> None:
        if not (self.features.shape[0] == self.ry.shape[0] == self.ra.shape[0]):
            raise InvalidArgument("residual arrays must share their length")


@dataclass(frozen=True)
class LinearTheta:
    """Closed-form effect model theta(x) = intercept + coef . x."""

    intercept: float
    coef: FloatArray

    def __post_init__(self) -> None:
        if not math.isfinite(self.intercept):
            raise InvalidArgument(f"intercept must be finite, got {self.intercept}")

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.coef + self.intercept


@dataclass(frozen=True)
class ModelMetadata:
    """Where a model came from. ``timestamp`` is the newest training
    event's, not the wall clock, so artifacts reproduce."""

    n: int
    timestamp: int
    version: str

    def get(self, key: str, default=None):
        """One field by name, for callers that read metadata as a mapping."""
        return getattr(self, key, default)


@dataclass
class DmlModel:
    """Cross-fitted nuisances plus the final-stage effect model.

    Construction checks that the final stage has its own effect model and
    no other, that there is one outcome and one propensity learner per
    fold, and that every part reads rows of the schema's width, so a model
    file that could not serve fails when it loads.
    """

    schema: FeatureSchema
    outcome_learners: tuple[GradientBoostedTrees, ...]
    propensity_learners: tuple[GradientBoostedTrees, ...]
    forest: CausalForest | None
    linear: LinearTheta | None
    train_config: TrainConfig
    metadata: ModelMetadata

    def __post_init__(self) -> None:
        is_forest = self.final_stage == FINAL_STAGE_FOREST
        present = (self.forest is not None, self.linear is not None)
        if present != (is_forest, not is_forest):
            raise InvalidArgument(f"final stage {self.final_stage!r} needs its own effect model and no other")
        folds = self.train_config.folds
        if len(self.outcome_learners) != folds or len(self.propensity_learners) != folds:
            raise InvalidArgument(
                f"a model of {folds} folds holds {len(self.outcome_learners)} outcome and "
                f"{len(self.propensity_learners)} propensity learners"
            )
        # zero rows: a tree that splits on a later column, or a linear part
        # of another width, raises here
        rows = np.zeros((0, self.schema.width))
        for part in (*self.outcome_learners, *self.propensity_learners, self.linear):
            if part is not None:
                part.predict(rows)
        if self.forest is not None:
            self.forest.trees.values(rows)

    @property
    def final_stage(self) -> str:
        return self.train_config.final_stage

    @property
    def schema_id(self) -> str:
        return self.schema.schema_id


def prepare_training_arrays(
    dataset: list[LabeledEvent], schema: FeatureSchema
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    X = encode_matrix([e.signals for e in dataset], schema)
    y = np.asarray([e.avd for e in dataset], dtype=np.float64)
    a = np.asarray([int(e.action) for e in dataset], dtype=np.int64)
    return X, y, a


def train_dml(
    dataset: list[LabeledEvent],
    config: TrainConfig = TrainConfig(),
    schema: FeatureSchema = DEFAULT_SCHEMA,
) -> DmlModel:
    """Run both stages on an observational dataset and assemble the model.

    Requires at least MIN_TRAIN_ROWS rows and both actions present.
    """
    n = len(dataset)
    if n < MIN_TRAIN_ROWS:
        raise InsufficientData(f"training needs >= {MIN_TRAIN_ROWS} rows, got {n}")
    actions = {int(e.action) for e in dataset}
    if actions != {0, 1}:
        raise DegenerateTreatment(f"training needs both actions, saw codes {sorted(actions)}")
    res, outcome_learners, propensity_learners = residualize_dataset(dataset, config, schema)
    return assemble_model(res, outcome_learners, propensity_learners, config, schema, dataset)


def residualize_dataset(
    dataset: list[LabeledEvent],
    config: TrainConfig = TrainConfig(),
    schema: FeatureSchema = DEFAULT_SCHEMA,
) -> tuple[ResidualData, list[GradientBoostedTrees], list[GradientBoostedTrees]]:
    """Stage 1 only; lets callers fit several final stages on one residual set."""
    X, y, a = prepare_training_arrays(dataset, schema)
    a = a.astype(np.float64)
    folds = make_folds(X.shape[0], config.folds, seed=seed_for(config.seed, 0))
    (y_hat, a_hat), learners = crossfit_predict(
        X, (y, a), folds, config.learner, seeds=(seed_for(config.seed, 1), seed_for(config.seed, 2))
    )
    a_hat = clamp_propensity(a_hat, config.learner)
    outcome_learners, propensity_learners = learners[: config.folds], learners[config.folds :]
    return ResidualData(features=X, ry=y - y_hat, ra=a - a_hat), outcome_learners, propensity_learners


def assemble_model(
    res: ResidualData,
    outcome_learners: list[GradientBoostedTrees],
    propensity_learners: list[GradientBoostedTrees],
    config: TrainConfig,
    schema: FeatureSchema,
    dataset: list[LabeledEvent],
) -> DmlModel:
    """Build a DmlModel of ``config.final_stage`` around an existing
    residual set."""
    forest = None
    linear = None
    if config.final_stage == FINAL_STAGE_FOREST:
        forest = fit_forest(res.features, res.ry, res.ra, config.forest, seed=seed_for(config.seed, 3))
    else:
        linear = final_stage_linear(res)
    metadata = ModelMetadata(
        n=res.features.shape[0],
        timestamp=max((e.timestamp for e in dataset), default=0),
        version=MODEL_VERSION,
    )
    return DmlModel(
        schema=schema,
        outcome_learners=tuple(outcome_learners),
        propensity_learners=tuple(propensity_learners),
        forest=forest,
        linear=linear,
        train_config=config,
        metadata=metadata,
    )


def final_stage_linear(res: ResidualData) -> LinearTheta:
    """Least squares for theta(x) = c + beta . x against ry =~ theta(x) * ra.

    Solved on the ra-scaled design, so singular layouts fall back to the
    pseudo-inverse.
    """
    ra = res.ra
    if not np.any(np.abs(ra) > 0.0):
        raise DegenerateTreatment("all treatment residuals are zero")
    Z = np.hstack([np.ones((res.features.shape[0], 1)), res.features]) * ra[:, None]
    beta = np.linalg.lstsq(Z, res.ry, rcond=None)[0]
    return LinearTheta(intercept=float(beta[0]), coef=beta[1:])


def clamp_propensity(p: np.ndarray, config: LearnerConfig) -> np.ndarray:
    """Propensities clamped into [p_min, 1 - p_min]."""
    return np.clip(p, config.p_min, 1.0 - config.p_min)


def nuisance_predictions(model: DmlModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average the k fold-learners; rows outside training were seen by none.
    Each propensity learner's prediction is clamped before the average."""
    y_hat = np.mean([lr.predict(X) for lr in model.outcome_learners], axis=0)
    learner = model.train_config.learner
    a_hat = np.mean([clamp_propensity(lr.predict(X), learner) for lr in model.propensity_learners], axis=0)
    return y_hat, a_hat


def theta_values(model: DmlModel, X: np.ndarray) -> np.ndarray:
    """Batch effect predictions theta(x) for encoded feature rows."""
    if model.final_stage == FINAL_STAGE_FOREST:
        assert model.forest is not None
        return predict_tau(model.forest, X)
    assert model.linear is not None
    return model.linear.predict(X)


def psi_loss(model: DmlModel, dataset: list[LabeledEvent]) -> float:
    """Mean squared residual-stage error of the model on a dataset."""
    if not dataset:
        raise InvalidArgument("psi_loss needs a non-empty dataset")
    X, y, a = prepare_training_arrays(dataset, model.schema)
    # each prediction is a pure function of its row: predict each distinct
    # row once, and gather
    first, inverse = distinct_rows(X)
    distinct = X[first]
    y_hat, a_hat = (p[inverse] for p in nuisance_predictions(model, distinct))
    theta = theta_values(model, distinct)[inverse]
    resid = (y - y_hat) - theta * (a - a_hat)
    return float(np.mean(resid**2))


def estimate_ite(model: DmlModel, signals: DiagnosticSignals) -> IteEstimate:
    """Effect estimate for one event.

    Forest models carry a grouped-bag interval at the configured level;
    linear models return a point estimate with zero width.
    """
    return estimate_ite_batch(model, [signals])[0]


def estimate_ite_batch(model: DmlModel, signal_rows: SignalColumns | list[DiagnosticSignals]) -> list[IteEstimate]:
    """Vectorized estimate_ite: each row's estimate and bounds equal those
    of the single-row path."""
    X = encode_matrix(signal_rows, model.schema)
    if model.final_stage == FINAL_STAGE_FOREST:
        assert model.forest is not None
        return predict_tau_ci(model.forest, X)
    level = model.train_config.forest.confidence_level
    return [IteEstimate(tau=t, tau_lower=t, tau_upper=t, confidence_level=level) for t in effect_bounds(model, X)[0].tolist()]


def effect_bounds(model: DmlModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, lower, upper) arrays of encoded rows, as ``estimate_ite_batch`` gives them."""
    if model.final_stage == FINAL_STAGE_FOREST:
        assert model.forest is not None
        return predict_interval(model.forest, X)
    assert model.linear is not None
    tau = model.linear.predict(X)
    return tau, tau, tau

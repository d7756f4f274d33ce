"""First-stage learners and cross-fitting.

The default learner is a small gradient-boosted ensemble of depth-2
regression trees over pre-binned features: deterministic given its seed,
no dependencies beyond numpy, and comfortable with one-hot plus count
columns. A closed-form ridge regressor is provided as the oracle-friendly
alternative. Propensity mode reuses the same regressors on 0/1 targets and
clamps predictions away from the boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import FloatArray, rng_for, seed_for
from .errors import InvalidArgument
from .parallel import map_tasks
from .trees import PackedTrees, SseGrower, bin_features


@dataclass(frozen=True)
class FoldAssignment:
    """Per-row fold indices in [0, k). Built by a seeded shuffle."""

    k: int
    membership: np.ndarray

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FoldAssignment)
            and self.k == other.k
            and np.array_equal(self.membership, other.membership)
        )


def make_folds(n: int, k: int, seed: int) -> FoldAssignment:
    """Shuffle row indices with the seed and cut into k contiguous blocks.

    Block sizes differ by at most one; requires n >= k >= 2.
    """
    if k < 2:
        raise InvalidArgument(f"fold count must be >= 2, got {k}")
    if n < k:
        raise InvalidArgument(f"need at least k={k} rows, got {n}")
    rng = rng_for(seed)
    perm = rng.permutation(n)
    membership = np.empty(n, dtype=np.int64)
    base, extra = divmod(n, k)
    start = 0
    for j in range(k):
        size = base + (1 if j < extra else 0)
        membership[perm[start : start + size]] = j
        start += size
    return FoldAssignment(k=k, membership=membership)


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters for the first-stage learners."""

    kind: str = "gbm"
    rounds: int = 200
    learning_rate: float = 0.1
    max_depth: int = 2
    subsample: float = 0.8
    max_bins: int = 32
    min_leaf: int = 5
    ridge_alpha: float = 1e-8
    p_min: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in ("gbm", "ridge"):
            raise InvalidArgument(f"unknown learner kind {self.kind!r}")
        if self.min_leaf < 1:
            raise InvalidArgument("min_leaf must be >= 1")
        if not (0.0 < self.subsample <= 1.0):
            raise InvalidArgument("subsample must lie in (0, 1]")
        if not (0.0 < self.p_min < 0.5):
            raise InvalidArgument("p_min must lie in (0, 0.5)")
        if not 0.0 < self.learning_rate < math.inf:
            raise InvalidArgument(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.ridge_alpha < math.inf:
            raise InvalidArgument(f"ridge_alpha must be finite and >= 0, got {self.ridge_alpha}")


def _check_mode(mode: str) -> None:
    if mode not in ("regression", "propensity"):
        raise InvalidArgument(f"unknown learner mode {mode!r}")


@dataclass
class GradientBoostedTrees:
    """Least-squares boosting over depth-limited trees.

    ``mode="propensity"`` clamps predictions into [p_min, 1 - p_min].
    Deterministic for a fixed seed: row subsampling per round is the only
    random element and is drawn from a private generator. ``trees`` holds
    the rounds' trees in round order.
    """

    config: LearnerConfig
    mode: str
    seed: int
    base_value: float
    trees: PackedTrees

    def __post_init__(self) -> None:
        _check_mode(self.mode)
        if not math.isfinite(self.base_value):
            raise InvalidArgument(f"base_value must be finite, got {self.base_value}")
        if len(self.trees) != self.config.rounds:
            raise InvalidArgument(f"a learner of {self.config.rounds} rounds holds {len(self.trees)} trees")

    @classmethod
    def fit(cls, config: LearnerConfig, mode: str, seed: int, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        rng = rng_for(seed, 0)
        grower = SseGrower(*bin_features(X, config.max_bins))
        base_value = float(y.mean())
        tables = []
        current = np.full(X.shape[0], base_value)
        n = X.shape[0]
        n_sub = max(1, int(round(config.subsample * n)))
        for _ in range(config.rounds):
            resid = y - current
            rows = rng.choice(n, size=n_sub, replace=False) if n_sub < n else np.arange(n)
            table = grower.grow(resid, rows, config.max_depth, config.min_leaf)
            tables.append(table)
            current = current + config.learning_rate * grower.leaf_values(table)
        return cls(config, mode, int(seed), base_value, PackedTrees.pack(tables))

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.full(np.shape(X)[0], self.base_value)
        lr = self.config.learning_rate
        for rows, node in self.trees.leaves(X):
            # column 0 is the base, then each tree in order, so the running
            # sum adds out + lr * v_t tree by tree as a per-tree loop does
            terms = np.column_stack([out[rows], lr * self.trees.value[node]])
            out[rows] = np.add.accumulate(terms, axis=1)[:, -1]
        if self.mode == "propensity":
            out = np.clip(out, self.config.p_min, 1.0 - self.config.p_min)
        return out


@dataclass(frozen=True)
class RidgeRegression:
    """Closed-form ridge with an unpenalized-in-practice tiny default alpha."""

    config: LearnerConfig
    mode: str
    intercept: float
    coef: FloatArray

    def __post_init__(self) -> None:
        _check_mode(self.mode)
        if not math.isfinite(self.intercept):
            raise InvalidArgument(f"intercept must be finite, got {self.intercept}")

    @classmethod
    def fit(cls, config: LearnerConfig, mode: str, X: np.ndarray, y: np.ndarray) -> "RidgeRegression":
        Z = np.hstack([np.ones((X.shape[0], 1)), X])
        a = Z.T @ Z + config.ridge_alpha * np.eye(Z.shape[1])
        b = Z.T @ y
        try:
            beta = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            beta = np.linalg.lstsq(a, b, rcond=None)[0]
        return cls(config, mode, float(beta[0]), beta[1:])

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.asarray(X, dtype=np.float64) @ self.coef + self.intercept
        if self.mode == "propensity":
            out = np.clip(out, self.config.p_min, 1.0 - self.config.p_min)
        return out


Learner = GradientBoostedTrees | RidgeRegression


def fit_learner(config: LearnerConfig, mode: str, seed: int, X: np.ndarray, y: np.ndarray) -> Learner:
    """A learner of ``config.kind`` fitted to (X, y); ``seed`` drives the
    boosting's row subsampling."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != y.shape[0]:
        raise InvalidArgument("features and targets must have equal length")
    if config.kind == "gbm":
        return GradientBoostedTrees.fit(config, mode, seed, X, y)
    return RidgeRegression.fit(config, mode, X, y)


def crossfit_predict(
    features: np.ndarray,
    targets: np.ndarray,
    folds: FoldAssignment,
    config: LearnerConfig,
    mode: str = "regression",
    seed: int = 0,
) -> tuple[np.ndarray, list]:
    """Out-of-fold predictions: fold j's rows are predicted by a learner
    that was fit on everything except fold j. The k fits run side by side
    on the available CPUs (``parallel.map_tasks``)."""
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if features.shape[0] != targets.shape[0]:
        raise InvalidArgument("features and targets must have equal length")
    if features.shape[0] != folds.membership.shape[0]:
        raise InvalidArgument("fold assignment does not match dataset length")
    fits = map_tasks(_fit_fold, (features, targets, folds.membership, config, mode, seed), folds.k)
    oof = np.empty(targets.shape[0], dtype=np.float64)
    for j, (learner, predicted) in enumerate(fits):
        oof[folds.membership == j] = predicted
    return oof, [learner for learner, _ in fits]


def _fit_fold(shared: tuple, j: int) -> tuple[Learner, np.ndarray]:
    """Fold j's learner, fit on the other folds, and its predictions for
    fold j's rows. Its seed derives from (seed, j), so folds fit in any
    order and in any process give the same learners."""
    features, targets, membership, config, mode, seed = shared
    test = membership == j
    train = ~test
    learner = fit_learner(config, mode, seed_for(seed, j), features[train], targets[train])
    return learner, learner.predict(features[test])


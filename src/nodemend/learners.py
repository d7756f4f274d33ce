"""First-stage learners and cross-fitting.

The default learner is a small gradient-boosted ensemble of depth-2
regression trees over pre-binned features: deterministic given its seed,
no dependencies beyond numpy, and comfortable with one-hot plus count
columns. A closed-form ridge regressor is provided as the oracle-friendly
alternative. Propensity mode reuses the same regressors on 0/1 targets and
clamps predictions away from the boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import rng_for, seed_for
from .errors import InvalidArgument
from .trees import PackedTrees, bin_features, grow_sse_tree


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


class GradientBoostedTrees:
    """Least-squares boosting over depth-limited trees.

    ``mode="propensity"`` clamps predictions into [p_min, 1 - p_min].
    Deterministic for a fixed seed: row subsampling per round is the only
    random element and is drawn from a private generator.
    """

    def __init__(self, config: LearnerConfig, mode: str = "regression", seed: int = 0) -> None:
        if mode not in ("regression", "propensity"):
            raise InvalidArgument(f"unknown learner mode {mode!r}")
        self.config = config
        self.mode = mode
        self.seed = int(seed)
        self.base_value = 0.0
        self.trees: list[tuple[np.ndarray, ...]] = []
        self.packed = PackedTrees(self.trees)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.shape[0] != y.shape[0]:
            raise InvalidArgument("features and targets must have equal length")
        cfg = self.config
        rng = rng_for(self.seed, 0)
        codes, thresholds = bin_features(X, cfg.max_bins)
        self.base_value = float(y.mean())
        self.trees = []
        current = np.full(X.shape[0], self.base_value)
        n = X.shape[0]
        n_sub = max(1, int(round(cfg.subsample * n)))
        for _ in range(cfg.rounds):
            resid = y - current
            rows = rng.choice(n, size=n_sub, replace=False) if n_sub < n else np.arange(n)
            arrays = grow_sse_tree(codes, thresholds, resid, rows, cfg.max_depth, cfg.min_leaf).arrays()[:5]
            self.trees.append(arrays)
            current = current + cfg.learning_rate * PackedTrees([arrays]).values(X)[:, 0]
        self.packed = PackedTrees(self.trees)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.full(np.shape(X)[0], self.base_value)
        lr = self.config.learning_rate
        for rows, node in self.packed.leaves(X):
            # column 0 is the base, then each tree in order, so the running
            # sum adds out + lr * v_t tree by tree as a per-tree loop does
            terms = np.column_stack([out[rows], lr * self.packed.value[node]])
            out[rows] = np.add.accumulate(terms, axis=1)[:, -1]
        if self.mode == "propensity":
            out = np.clip(out, self.config.p_min, 1.0 - self.config.p_min)
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "gbm",
            "mode": self.mode,
            "seed": self.seed,
            "base_value": self.base_value,
            "config": {
                "rounds": self.config.rounds,
                "learning_rate": self.config.learning_rate,
                "max_depth": self.config.max_depth,
                "subsample": self.config.subsample,
                "max_bins": self.config.max_bins,
                "min_leaf": self.config.min_leaf,
                "p_min": self.config.p_min,
            },
            "trees": [
                {
                    "feature": t[0].tolist(),
                    "threshold": t[1].tolist(),
                    "left": t[2].tolist(),
                    "right": t[3].tolist(),
                    "value": t[4].tolist(),
                }
                for t in self.trees
            ],
        }

    @staticmethod
    def from_dict(d: dict) -> "GradientBoostedTrees":
        cfg = LearnerConfig(kind="gbm", ridge_alpha=1e-8, **d["config"])
        learner = GradientBoostedTrees(cfg, mode=d["mode"], seed=d["seed"])
        learner.base_value = float(d["base_value"])
        learner.trees = [
            (
                np.asarray(t["feature"], dtype=np.int64),
                np.asarray(t["threshold"], dtype=np.float64),
                np.asarray(t["left"], dtype=np.int64),
                np.asarray(t["right"], dtype=np.int64),
                np.asarray(t["value"], dtype=np.float64),
            )
            for t in d["trees"]
        ]
        learner.packed = PackedTrees(learner.trees)
        return learner


class RidgeRegression:
    """Closed-form ridge with an unpenalized-in-practice tiny default alpha."""

    def __init__(self, config: LearnerConfig, mode: str = "regression", seed: int = 0) -> None:
        if mode not in ("regression", "propensity"):
            raise InvalidArgument(f"unknown learner mode {mode!r}")
        self.config = config
        self.mode = mode
        self.seed = int(seed)
        self.coef: np.ndarray | None = None
        self.intercept = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        Z = np.hstack([np.ones((X.shape[0], 1)), X])
        a = Z.T @ Z + self.config.ridge_alpha * np.eye(Z.shape[1])
        b = Z.T @ y
        try:
            beta = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            beta = np.linalg.lstsq(a, b, rcond=None)[0]
        self.intercept = float(beta[0])
        self.coef = beta[1:]
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef is None:
            raise InvalidArgument("predict called before fit")
        out = np.asarray(X, dtype=np.float64) @ self.coef + self.intercept
        if self.mode == "propensity":
            out = np.clip(out, self.config.p_min, 1.0 - self.config.p_min)
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "ridge",
            "mode": self.mode,
            "seed": self.seed,
            "intercept": self.intercept,
            "coef": list(self.coef) if self.coef is not None else None,
            "config": {"ridge_alpha": self.config.ridge_alpha, "p_min": self.config.p_min},
        }

    @staticmethod
    def from_dict(d: dict) -> "RidgeRegression":
        cfg = LearnerConfig(kind="ridge", **d["config"])
        learner = RidgeRegression(cfg, mode=d["mode"], seed=d["seed"])
        learner.intercept = float(d["intercept"])
        learner.coef = np.asarray(d["coef"], dtype=np.float64) if d["coef"] is not None else None
        return learner


def make_learner(config: LearnerConfig, mode: str, seed: int):
    if config.kind == "gbm":
        return GradientBoostedTrees(config, mode=mode, seed=seed)
    return RidgeRegression(config, mode=mode, seed=seed)


def learner_from_dict(d: dict):
    if d["kind"] == "gbm":
        return GradientBoostedTrees.from_dict(d)
    if d["kind"] == "ridge":
        return RidgeRegression.from_dict(d)
    raise InvalidArgument(f"unknown learner kind {d['kind']!r}")


def crossfit_predict(
    features: np.ndarray,
    targets: np.ndarray,
    folds: FoldAssignment,
    config: LearnerConfig,
    mode: str = "regression",
    seed: int = 0,
) -> tuple[np.ndarray, list]:
    """Out-of-fold predictions: fold j's rows are predicted by a learner
    that was fit on everything except fold j."""
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if features.shape[0] != targets.shape[0]:
        raise InvalidArgument("features and targets must have equal length")
    if features.shape[0] != folds.membership.shape[0]:
        raise InvalidArgument("fold assignment does not match dataset length")
    oof = np.empty(targets.shape[0], dtype=np.float64)
    learners = []
    for j in range(folds.k):
        test = folds.membership == j
        train = ~test
        learner = make_learner(config, mode, seed=seed_for(seed, j))
        learner.fit(features[train], targets[train])
        oof[test] = learner.predict(features[test])
        learners.append(learner)
    return oof, learners


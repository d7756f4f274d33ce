"""First-stage learners and cross-fitting.

The one nuisance learner is a small gradient-boosted ensemble of depth-2
regression trees over pre-binned features: deterministic given its seed,
no dependencies beyond numpy, and comfortable with one-hot plus count
columns. It is a plain regressor, fitted to 0/1 targets for the
propensity as to downtime for the outcome; keeping the propensity away
from 0 and 1 is the estimator's job (``dml``). Folds are one int array of
per-row fold indices.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .domain import distinct_rows, rng_for, seed_for
from .errors import InvalidArgument
from .parallel import map_tasks
from .trees import PackedTrees, SseGrower, bin_features


def make_folds(n: int, k: int, seed: int) -> np.ndarray:
    """Per-row fold indices in [0, k): shuffle row indices with the seed
    and cut them into k contiguous blocks.

    Block sizes differ by at most one; requires n >= k >= 2.
    """
    if k < 2:
        raise InvalidArgument(f"fold count must be >= 2, got {k}")
    if n < k:
        raise InvalidArgument(f"need at least k={k} rows, got {n}")
    rng = rng_for(seed)
    perm = rng.permutation(n)
    folds = np.empty(n, dtype=np.int64)
    base, extra = divmod(n, k)
    start = 0
    for j in range(k):
        size = base + (1 if j < extra else 0)
        folds[perm[start : start + size]] = j
        start += size
    return folds


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters for the first-stage learners."""

    rounds: int = 200
    learning_rate: float = 0.1
    max_depth: int = 2
    subsample: float = 0.8
    max_bins: int = 32
    min_leaf: int = 5
    p_min: float = 0.01

    def __post_init__(self) -> None:
        if self.min_leaf < 1:
            raise InvalidArgument("min_leaf must be >= 1")
        # fewer rounds, levels or bins than these leave every tree one leaf
        if self.rounds < 1:
            raise InvalidArgument(f"rounds must be >= 1, got {self.rounds}")
        if self.max_depth < 1:
            raise InvalidArgument(f"max_depth must be >= 1, got {self.max_depth}")
        if self.max_bins < 2:
            raise InvalidArgument(f"max_bins must be >= 2, got {self.max_bins}")
        if not (0.0 < self.subsample <= 1.0):
            raise InvalidArgument("subsample must lie in (0, 1]")
        if not (0.0 < self.p_min < 0.5):
            raise InvalidArgument("p_min must lie in (0, 0.5)")
        if not 0.0 < self.learning_rate < math.inf:
            raise InvalidArgument(f"learning_rate must be finite and > 0, got {self.learning_rate}")


class _CodeRows:
    """The distinct code rows of a boosting fit, the items its rounds grow
    over.

    Group g stands for every row whose code row is ``codes[first[g]]``, and
    ``group[i]`` is row i's group; groups are numbered in the lexicographic
    order of their code rows.
    """

    def __init__(self, codes: np.ndarray, y: np.ndarray) -> None:
        # the narrowest unsigned dtype sorts fastest, in the same order
        self.first, self.group = distinct_rows(codes.astype(np.min_scalar_type(codes.max(initial=0))))
        self.y = y

    def residuals(self, current: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per group, the residuals ``y - current[group]`` of the distinct
        matrix rows ``rows``: their sum (added in the order of ``rows``),
        count, least and greatest (infinite where the group has no row)."""
        u = len(current)
        group = self.group[rows]
        resid = self.y[rows] - current[group]
        low = np.full(u, np.inf)
        high = np.full(u, -np.inf)
        np.minimum.at(low, group, resid)
        np.maximum.at(high, group, resid)
        return np.bincount(group, weights=resid, minlength=u), np.bincount(group, minlength=u), low, high


@dataclass
class GradientBoostedTrees:
    """Least-squares boosting over depth-limited trees.

    Deterministic for a fixed seed: row subsampling per round is the only
    random element and is drawn from a private generator. Each round grows
    over the distinct code rows of its subsample, each carrying the sum and
    count of its rows' residuals. ``trees`` holds the rounds' trees in
    round order.
    """

    config: LearnerConfig
    base_value: float
    trees: PackedTrees

    def __post_init__(self) -> None:
        if not math.isfinite(self.base_value):
            raise InvalidArgument(f"base_value must be finite, got {self.base_value}")
        if len(self.trees) != self.config.rounds:
            raise InvalidArgument(f"a learner of {self.config.rounds} rounds holds {len(self.trees)} trees")

    @classmethod
    def fit(cls, config: LearnerConfig, seed: int, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        """The learner fitted to (X, y); ``seed`` drives the row
        subsampling."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.shape[0] != y.shape[0]:
            raise InvalidArgument("features and targets must have equal length")
        rng = rng_for(seed, 0)
        codes, thresholds = bin_features(X, config.max_bins)
        groups = _CodeRows(codes, y)
        grower = SseGrower(codes[groups.first], thresholds)
        base_value = float(y.mean())
        tables = []
        # rows of one code row reach the same leaves, so share one prediction
        current = np.full(len(groups.first), base_value)
        n = X.shape[0]
        n_sub = max(1, int(round(config.subsample * n)))
        for _ in range(config.rounds):
            rows = rng.choice(n, size=n_sub, replace=False) if n_sub < n else np.arange(n)
            table, leaf_values = grower.grow(*groups.residuals(current, rows), config.max_depth, config.min_leaf)
            tables.append(table)
            current = current + config.learning_rate * leaf_values
        return cls(config, base_value, PackedTrees.pack(tables))

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.full(np.shape(X)[0], self.base_value)
        lr = self.config.learning_rate
        for rows, node in self.trees.leaves(X):
            # column 0 is the base, then each tree in order, so the running
            # sum adds out + lr * v_t tree by tree as a per-tree loop does
            terms = np.column_stack([out[rows], lr * self.trees.value.take(node)])
            out[rows] = np.add.accumulate(terms, axis=1)[:, -1]
        return out


def crossfit_predict(
    features: np.ndarray,
    targets: Sequence[np.ndarray],
    folds: np.ndarray,
    config: LearnerConfig,
    seeds: Sequence[int],
) -> tuple[list[np.ndarray], list[GradientBoostedTrees]]:
    """Out-of-fold predictions of each target: with ``folds`` the per-row
    fold indices of ``make_folds``, fold j's rows of target t are predicted
    by a learner fit on everything except fold j. Returns each target's
    predictions and every learner, target by target and fold by fold
    within a target.

    The fits of all targets run as one map on the available CPUs
    (``parallel.map_tasks``), so no CPU waits for the last fold of one
    target before the next target starts."""
    features = np.asarray(features, dtype=np.float64)
    targets = [np.asarray(t, dtype=np.float64) for t in targets]
    if len(targets) != len(seeds):
        raise InvalidArgument("each target needs one seed")
    if any(t.shape != (features.shape[0],) for t in targets):
        raise InvalidArgument("features and targets must have equal length")
    if features.shape[0] != folds.shape[0]:
        raise InvalidArgument("fold assignment does not match dataset length")
    k = int(folds.max(initial=-1)) + 1
    fits = map_tasks(_fit_fold, (features, targets, folds, k, config, seeds), len(targets) * k)
    predictions = [np.empty(features.shape[0], dtype=np.float64) for _ in targets]
    for i, (_, predicted) in enumerate(fits):
        t, j = divmod(i, k)
        predictions[t][folds == j] = predicted
    return predictions, [learner for learner, _ in fits]


def _fit_fold(shared: tuple, i: int) -> tuple[GradientBoostedTrees, np.ndarray]:
    """Task i is fold j of target t, for (t, j) = divmod(i, k): the learner
    fit on the other folds, and its predictions for fold j's rows. Its seed
    derives from (seeds[t], j), so folds fit in any order and in any process
    give the same learners."""
    features, targets, folds, k, config, seeds = shared
    t, j = divmod(i, k)
    test = folds == j
    train = ~test
    learner = GradientBoostedTrees.fit(config, seed_for(seeds[t], j), features[train], targets[t][train])
    return learner, learner.predict(features[test])

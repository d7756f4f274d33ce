"""Honest causal forest over residualized data, with grouped-bag intervals.

Each tree sees a subsample split into disjoint halves: structure rows pick
the splits, estimation rows set the leaf values. A leaf's value is the
local residual-on-residual slope

    tau_leaf = sum(ry * ra) / sum(ra^2)

over its estimation rows, i.e. the per-leaf constant that best explains
the outcome residual from the treatment residual. Splits greedily maximize
n_L * tau_L^2 + n_R * tau_R^2 between the children, so the tree chases
effect heterogeneity rather than outcome variance.

Trees are grouped into bags that share a half-sample of the data. The
spread of bag-level mean predictions, corrected for the finite number of
trees inside each bag, estimates the sampling variance of the forest
prediction:

    V_between = (1/B) * sum_b (m_b - m)^2
    V_within  = (1/(B*s)) * sum_b sum_i (t_bi - m_b)^2
    V         = max(V_between - V_within / s, frac * V_between, V_floor)

where m_b is bag b's mean prediction, s trees per bag, B bags. With a few
dozen bags the correction term's own sampling noise regularly drives the
difference to zero or below, so a relative floor keeps the correction from
consuming more than (1 - frac) of the between-bag variance; the absolute
floor covers the degenerate all-identical forest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .domain import IteEstimate, from_record, rng_for, seed_for, to_record
from .errors import InsufficientData, InvalidArgument
from .trees import NodeTable, PackedTrees, best_cut, bin_features, bin_layout

_MIN_STRUCTURE_CHILD = 5


@dataclass(frozen=True)
class ForestParams:
    bags: int = 25
    trees_per_bag: int = 8
    max_depth: int = 8
    min_split: int = 20
    min_leaf_estimate: int = 10
    honest_fraction: float = 0.5
    subsample_fraction: float = 0.5
    confidence_level: float = 0.9
    max_bins: int = 32
    variance_floor: float = 1e-12
    variance_floor_frac: float = 0.20
    features_per_split: int | None = None  # None: max(sqrt(d), d/3), rounded up

    def __post_init__(self) -> None:
        if self.bags < 1 or self.trees_per_bag < 1:
            raise InvalidArgument("bags and trees_per_bag must be >= 1")
        if not (0.0 < self.honest_fraction < 1.0):
            raise InvalidArgument("honest_fraction must lie in (0, 1)")
        if not (0.0 < self.subsample_fraction <= 1.0):
            raise InvalidArgument("subsample_fraction must lie in (0, 1]")
        if not (0.0 < self.confidence_level < 1.0):
            raise InvalidArgument("confidence_level must lie in (0, 1)")

    @property
    def n_trees(self) -> int:
        return self.bags * self.trees_per_bag


@dataclass
class CausalTree:
    """Flattened binary tree; leaves carry the estimation-half slope."""

    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    tau: np.ndarray
    n_estimate: np.ndarray
    structure_idx: np.ndarray
    estimate_idx: np.ndarray
    seed: int

    def table(self) -> tuple[np.ndarray, ...]:
        """(feature, threshold, left, right, tau), the node table to walk."""
        return self.feature, self.threshold, self.left, self.right, self.tau

    def predict(self, X: np.ndarray) -> np.ndarray:
        return PackedTrees([self.table()]).values(X)[:, 0]

    def leaf_ids(self) -> np.ndarray:
        return np.flatnonzero(self.feature < 0)

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "tau": self.tau.tolist(),
            "n_estimate": self.n_estimate.tolist(),
            "structure_idx": self.structure_idx.tolist(),
            "estimate_idx": self.estimate_idx.tolist(),
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "CausalTree":
        return CausalTree(
            feature=np.asarray(d["feature"], dtype=np.int64),
            threshold=np.asarray(d["threshold"], dtype=np.float64),
            left=np.asarray(d["left"], dtype=np.int64),
            right=np.asarray(d["right"], dtype=np.int64),
            tau=np.asarray(d["tau"], dtype=np.float64),
            n_estimate=np.asarray(d["n_estimate"], dtype=np.int64),
            structure_idx=np.asarray(d["structure_idx"], dtype=np.int64),
            estimate_idx=np.asarray(d["estimate_idx"], dtype=np.int64),
            seed=int(d["seed"]),
        )


@dataclass
class CausalForest:
    """Immutable once fitted; prediction is reentrant."""

    trees: list[CausalTree]
    bag_of_tree: np.ndarray  # bag index per tree
    params: ForestParams
    seed: int
    packed: PackedTrees = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.bag_of_tree) != len(self.trees) or np.any(
            np.bincount(self.bag_of_tree) != self.params.trees_per_bag
        ):
            raise InvalidArgument(f"every bag must hold trees_per_bag={self.params.trees_per_bag} trees")
        self.packed = PackedTrees([t.table() for t in self.trees])

    @property
    def n_bags(self) -> int:
        return int(self.bag_of_tree.max()) + 1 if len(self.bag_of_tree) else 0

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions, shape (n_points, n_trees)."""
        return self.packed.values(X)

    def to_dict(self) -> dict:
        return {
            "params": to_record(self.params),
            "seed": self.seed,
            "bag_of_tree": self.bag_of_tree.tolist(),
            "trees": [t.to_dict() for t in self.trees],
        }

    @staticmethod
    def from_dict(d: dict) -> "CausalForest":
        return CausalForest(
            trees=[CausalTree.from_dict(t) for t in d["trees"]],
            bag_of_tree=np.asarray(d["bag_of_tree"], dtype=np.int64),
            params=from_record(ForestParams, d["params"], "forest.params"),
            seed=int(d["seed"]),
        )


def grow_tree(
    codes: np.ndarray,
    thresholds: list[np.ndarray],
    ry: np.ndarray,
    ra: np.ndarray,
    subsample: np.ndarray,
    params: ForestParams,
    seed: int,
) -> CausalTree:
    """Grow one honest tree on the given subsample of pre-binned rows.

    ``codes`` and ``thresholds`` come from ``trees.bin_features``.

    The subsample is shuffled once (seeded) and cut into the structure half
    and the estimation half, so no row serves both purposes. A candidate
    split is valid only when both structure children stay splittable and
    both estimation children keep at least ``min_leaf_estimate`` rows with
    a nonzero treatment residual. A leaf whose estimation rows carry no
    treatment variation inherits its parent's value.
    """
    ry = np.asarray(ry, dtype=np.float64)
    ra = np.asarray(ra, dtype=np.float64)
    subsample = np.asarray(subsample, dtype=np.int64)
    rng = rng_for(seed)

    perm = subsample[rng.permutation(len(subsample))]
    n_structure = max(1, int(round(params.honest_fraction * len(perm))))
    structure_idx = perm[:n_structure]
    estimate_idx = perm[n_structure:]

    u = ry * ra
    w = ra * ra
    has_ra = w > 0.0
    d = codes.shape[1]
    if params.features_per_split is not None:
        mtry = max(1, min(params.features_per_split, d))
    else:
        # sqrt(d) keeps split-time attenuation too high at the default
        # depth/size limits; the regression-forest d/3 rule fixes that
        mtry = max(1, min(max(math.ceil(math.sqrt(d)), math.ceil(d / 3)), d))
    width, _ = bin_layout(thresholds)
    table = NodeTable()

    def prefix(keys: np.ndarray, weights: np.ndarray | None, m: int) -> np.ndarray:
        """Left-side totals of every cut of m drawn features, shape (m, B):
        one bincount over all of them, then a cumsum along each row."""
        return np.bincount(keys, weights, minlength=m * width).reshape(m, width).cumsum(axis=1)

    def leaf_tau(est_rows: np.ndarray, parent_tau: float) -> tuple[float, int]:
        sw = w[est_rows].sum()
        n_est = int(has_ra[est_rows].sum())
        if sw <= 0.0:
            return parent_tau, n_est
        return float(u[est_rows].sum() / sw), n_est

    def grow(struct_rows: np.ndarray, est_rows: np.ndarray, depth: int, parent_tau: float) -> int:
        tau_here, n_est_here = leaf_tau(est_rows, parent_tau)
        node = table.add(tau_here, n_est_here)

        n = len(struct_rows)
        if depth >= params.max_depth or n < params.min_split:
            return node

        sw_all = w[struct_rows].sum()
        su_all = u[struct_rows].sum()
        if sw_all <= 0.0:
            return node
        parent_score = n * (su_all / sw_all) ** 2

        est_flag = has_ra[est_rows].astype(np.float64)
        feats = rng.choice(d, size=min(mtry, d), replace=False)
        m = len(feats)
        offsets = np.arange(m, dtype=np.int64) * width
        s_keys = (np.take(codes, struct_rows, axis=0)[:, feats] + offsets).ravel()
        e_keys = (np.take(codes, est_rows, axis=0)[:, feats] + offsets).ravel()
        nl = prefix(s_keys, None, m)
        csu = prefix(s_keys, np.repeat(u[struct_rows], m), m)
        wl = prefix(s_keys, np.repeat(w[struct_rows], m), m)
        el = prefix(e_keys, np.repeat(est_flag, m), m)
        nr = n - nl
        wr = sw_all - wl
        er = est_flag.sum() - el
        # a bin past a feature's last cut has every row on the left, so the
        # nr check rules it out
        ok = (
            (nl >= _MIN_STRUCTURE_CHILD)
            & (nr >= _MIN_STRUCTURE_CHILD)
            & (wl > 0.0)
            & (wr > 0.0)
            & (el >= params.min_leaf_estimate)
            & (er >= params.min_leaf_estimate)
        )
        # ok implies wl > 0 and wr > 0, so every slope that counts is finite
        with np.errstate(divide="ignore", invalid="ignore"):
            tl = csu / wl
            tr = (su_all - csu) / wr
            score = np.where(ok, nl * tl * tl + nr * tr * tr, -np.inf)
        cut = best_cut(score, parent_score)
        if cut is None:
            return node
        f, b = int(feats[cut[0]]), cut[1]
        s_mask = codes[struct_rows, f] <= b
        e_mask = codes[est_rows, f] <= b
        left_id = grow(struct_rows[s_mask], est_rows[e_mask], depth + 1, tau_here)
        right_id = grow(struct_rows[~s_mask], est_rows[~e_mask], depth + 1, tau_here)
        table.split(node, f, thresholds[f][b], left_id, right_id)
        return node

    grow(structure_idx, estimate_idx, 0, 0.0)
    # grow reaches itself through its closure; unbinding it frees the
    # per-tree arrays now rather than at the next cyclic garbage collection
    del grow
    feature, threshold, left, right, tau, n_estimate = table.arrays()
    return CausalTree(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        tau=tau,
        n_estimate=n_estimate,
        structure_idx=structure_idx,
        estimate_idx=estimate_idx,
        seed=int(seed),
    )


def fit_forest(
    X: np.ndarray,
    ry: np.ndarray,
    ra: np.ndarray,
    params: ForestParams,
    seed: int,
) -> CausalForest:
    """Fit the bagged honest forest.

    Each bag draws a half-sample of the rows without replacement; each of
    its trees then subsamples that half-sample independently. All draw
    seeds derive from (seed, bag, tree), so the result is independent of
    any execution order.
    """
    X = np.asarray(X, dtype=np.float64)
    ry = np.asarray(ry, dtype=np.float64)
    ra = np.asarray(ra, dtype=np.float64)
    n = X.shape[0]
    if n < 2 * params.min_split:
        raise InsufficientData(f"forest needs at least {2 * params.min_split} rows, got {n}")

    codes, thresholds = bin_features(X, params.max_bins)
    trees: list[CausalTree] = []
    bag_of_tree = np.empty(params.n_trees, dtype=np.int64)
    t = 0
    for b in range(params.bags):
        half = rng_for(seed, b).choice(n, size=max(1, n // 2), replace=False)
        for i in range(params.trees_per_bag):
            size = max(2, int(round(params.subsample_fraction * len(half))))
            sub = half[rng_for(seed, b, i, 1).choice(len(half), size=min(size, len(half)), replace=False)]
            trees.append(grow_tree(codes, thresholds, ry, ra, sub, params, seed_for(seed, b, i)))
            bag_of_tree[t] = b
            t += 1
    return CausalForest(trees=trees, bag_of_tree=bag_of_tree, params=params, seed=seed)


def predict_tau(forest: CausalForest, X: np.ndarray) -> np.ndarray:
    """Mean leaf slope over all trees for each query row."""
    tau = np.empty(np.shape(X)[0], dtype=np.float64)
    for rows, node in forest.packed.leaves(X):
        tau[rows] = forest.packed.value[node].mean(axis=1)
    return tau


def _interval_variance(
    per_tree: np.ndarray, m: np.ndarray, bag_of_tree: np.ndarray, params: ForestParams
) -> np.ndarray:
    """Grouped-bag variance estimate per query point.

    ``per_tree`` has shape (n_points, n_trees) and ``m`` holds its row
    means. Sums over a bag's trees add them one at a time in tree order, and
    the within-bag total adds the bags in bag order, so each row's figures
    are the same whatever rows share the call.
    """
    bags = int(bag_of_tree.max()) + 1
    s = params.trees_per_bag
    # column j: the j-th tree of every bag
    members = np.argsort(bag_of_tree, kind="stable").reshape(bags, s)
    # np.take gives C order, which keeps the mean over bags below a
    # pairwise sum of each row for any row count
    m_b = np.take(per_tree, members[:, 0], axis=1)
    for j in range(1, s):
        m_b += np.take(per_tree, members[:, j], axis=1)
    m_b /= s
    spread = np.zeros_like(m_b)
    for j in range(s):
        spread += (np.take(per_tree, members[:, j], axis=1) - m_b) ** 2
    v_within = np.add.accumulate(spread, axis=1, out=spread)[:, -1] / (bags * s)
    v_between = ((m_b - m[:, None]) ** 2).mean(axis=1)
    rel_floor = params.variance_floor_frac * v_between
    return np.maximum(v_between - v_within / s, np.maximum(rel_floor, params.variance_floor))


def predict_tau_ci(forest: CausalForest, X: np.ndarray, level: float | None = None) -> list[IteEstimate]:
    """Point estimates with grouped-bag confidence intervals."""
    if forest.n_bags < 2:
        raise InsufficientData("confidence intervals need at least 2 bags")
    level = forest.params.confidence_level if level is None else level
    if not (0.0 < level < 1.0):
        raise InvalidArgument("confidence level must lie in (0, 1)")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    m = np.empty(X.shape[0], dtype=np.float64)
    v = np.empty(X.shape[0], dtype=np.float64)
    # chunk by chunk, so no (rows, trees) matrix of the whole batch is built
    for rows, node in forest.packed.leaves(X):
        per_tree = forest.packed.value[node]
        m[rows] = per_tree.mean(axis=1)
        v[rows] = _interval_variance(per_tree, m[rows], forest.bag_of_tree, forest.params)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z * np.sqrt(v)
    return [
        IteEstimate(tau=float(m[i]), tau_lower=float(m[i] - half[i]), tau_upper=float(m[i] + half[i]), confidence_level=level)
        for i in range(X.shape[0])
    ]


def audit_honesty(forest: CausalForest) -> bool:
    """True when no tree shares a row between structure and estimation."""
    for tree in forest.trees:
        if np.intersect1d(tree.structure_idx, tree.estimate_idx).size:
            return False
    return True

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

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .domain import KEYED_SLOTS, IteEstimate, keyed_sample, keyed_uniforms, seed_for
from .errors import InsufficientData, InvalidArgument
from .parallel import map_tasks
from .trees import NodeTable, PackedTrees, best_cuts, bin_features, bin_layout, level_histograms, node_sums, route

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
        if self.max_depth < 0:
            raise InvalidArgument(f"max_depth must be >= 0, got {self.max_depth}")
        # a node's feature draw is keyed by its heap position, below 2^32
        if self.max_depth > 32:
            raise InvalidArgument(f"max_depth must be <= 32, got {self.max_depth}")
        if self.max_bins < 2:
            raise InvalidArgument(f"max_bins must be >= 2, got {self.max_bins}")
        if self.min_leaf_estimate < 1:
            raise InvalidArgument(f"min_leaf_estimate must be >= 1, got {self.min_leaf_estimate}")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise InvalidArgument(f"features_per_split must be >= 1, got {self.features_per_split}")
        if not (0.0 < self.honest_fraction < 1.0):
            raise InvalidArgument("honest_fraction must lie in (0, 1)")
        if not (0.0 < self.subsample_fraction <= 1.0):
            raise InvalidArgument("subsample_fraction must lie in (0, 1]")
        if not (0.0 < self.confidence_level < 1.0):
            raise InvalidArgument("confidence_level must lie in (0, 1)")
        if not (0.0 <= self.variance_floor < math.inf and 0.0 <= self.variance_floor_frac <= 1.0):
            raise InvalidArgument("variance_floor must be finite and >= 0, variance_floor_frac in [0, 1]")

    @property
    def n_trees(self) -> int:
        return self.bags * self.trees_per_bag


@dataclass
class CausalForest:
    """Immutable once fitted; prediction is reentrant.

    ``trees`` holds bag b's trees at ``b * trees_per_bag`` onward, in tree
    order. A node's value is the slope over its estimation rows and its
    count the number of those rows with a nonzero treatment residual. ``n``
    is the number of rows the forest was fitted on.
    """

    trees: PackedTrees
    params: ForestParams
    seed: int
    n: int

    def __post_init__(self) -> None:
        p = self.params
        if len(self.trees) != p.n_trees:
            raise InvalidArgument(f"a forest of {p.bags} bags of {p.trees_per_bag} trees holds {len(self.trees)} trees")
        if self.n < 2 * p.min_split:
            raise InvalidArgument(f"a forest is fitted on at least {2 * p.min_split} rows, not {self.n}")


def bag_subsamples(n: int, params: ForestParams, seed: int, b: int) -> list[np.ndarray]:
    """The rows each tree of bag ``b`` grows on.

    The bag draws a half-sample of the n rows without replacement; each of
    its trees then subsamples that half-sample independently. Each draw is
    the ``keyed_sample`` of a seed derived from (seed, bag, tree), ascending.
    """
    half = keyed_sample(seed_for(seed, b), n, max(1, n // 2))
    size = min(max(2, int(round(params.subsample_fraction * len(half)))), len(half))
    return [half[keyed_sample(seed_for(seed, b, i, 1), len(half), size)] for i in range(params.trees_per_bag)]


def honest_halves(subsample: np.ndarray, params: ForestParams, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(structure rows, estimation rows), each in subsample order. The
    structure rows are an ``honest_fraction`` share, the ``keyed_sample`` of
    (seed, position in the subsample, step 1); step 0 keys feature draws."""
    picked = keyed_sample(seed, len(subsample), max(1, int(round(params.honest_fraction * len(subsample)))), 1)
    return subsample[picked], np.delete(subsample, picked)


def grow_trees(
    codes: np.ndarray, thresholds: list, ry: np.ndarray, ra: np.ndarray, subsamples: list, params: ForestParams, seeds: list[int]
) -> list[NodeTable]:
    """Grow one honest tree per subsample of pre-binned rows, tree t on
    ``subsamples[t]`` with seed ``seeds[t]``, side by side.

    ``codes`` and ``thresholds`` come from ``trees.bin_features``.

    ``honest_halves`` cuts each subsample into the structure half and the
    estimation half on the tree's own keyed draws, so no row serves both
    purposes. A candidate split is valid only when both structure children
    stay splittable and both estimation children keep at least
    ``min_leaf_estimate`` rows with a nonzero treatment residual. A leaf
    whose estimation rows carry no treatment variation inherits its
    parent's value.

    The trees grow a level at a time on the kernel of ``trees``, in one
    loop: a level numbers the nodes of every tree, each tree's together and
    the trees in order, and each tree gets its slice. A node searches the m
    features of smallest keyed uniform of (its tree's seed, heap position,
    feature), the root at position 0 and node p's children at 2p + 1 and
    2p + 2, so a tree does not depend on how its nodes grow, nor on the
    trees beside it.
    """
    ry = np.asarray(ry, dtype=np.float64)
    ra = np.asarray(ra, dtype=np.float64)
    halves = [honest_halves(np.asarray(sub, dtype=np.int64), params, s) for sub, s in zip(subsamples, seeds)]

    d = codes.shape[1]
    if params.features_per_split is not None:
        mtry = max(1, min(params.features_per_split, d))
    else:
        # sqrt(d) keeps split-time attenuation too high at the default
        # depth/size limits; the regression-forest d/3 rule fixes that
        mtry = max(1, min(max(math.ceil(math.sqrt(d)), math.ceil(d / 3)), d))
    grid = bin_layout(thresholds)
    width = grid.shape[1]
    # every tree's structure rows, then every tree's estimation rows: where their codes
    # start in the flat code matrix, their u and w, and the key weights by honest half
    structure, estimate = zip(*halves)
    rows = np.concatenate([*structure, *estimate])
    n_structure = sum(len(part) for part in structure)
    est = np.arange(len(rows)) >= n_structure
    flat = codes.ravel()
    base = rows * d
    u = ry[rows] * ra[rows]
    w = ra[rows] * ra[rows]
    counted = np.where(est, w > 0.0, 1.0)
    structure_u, structure_w = (np.repeat(c[:n_structure], mtry) for c in (u, w))
    estimated = np.repeat(counted[n_structure:], mtry)
    offsets = np.arange(mtry) * width
    tables = [NodeTable() for _ in halves]
    # each row's open node, len(position) for a row in none, and each node's
    # tree; tree t's root is node t
    tree = np.arange(len(halves))
    node = np.repeat(np.tile(tree, 2), [len(part) for part in (*structure, *estimate)])
    position = np.zeros(len(halves), dtype=np.int64)
    parent_tau = np.zeros(len(halves))
    for depth in range(params.max_depth + 1):
        nodes = len(position)
        ends = np.cumsum(np.bincount(tree, minlength=len(halves))).tolist()
        slices = [slice(a, b) for a, b in zip([0, *ends[:-1]], ends)]
        # per node, column 0 totals its structure rows, column 1 its estimation rows
        half = 2 * node + est
        n, n_est = np.bincount(half, counted, minlength=2 * nodes)[: 2 * nodes].reshape(nodes, 2).T
        (sw, ew), (su, eu) = (t.reshape(nodes, 2).T for t in node_sums(half, 2 * nodes, w, u))
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = np.where(ew > 0.0, eu / ew, parent_tau)
        searches = (depth < params.max_depth) & (n >= params.min_split) & (sw > 0.0)
        feature = np.full(nodes, -1)
        cut = np.zeros(nodes, dtype=np.int64)
        if searches.any():
            draws = np.concatenate([keyed_uniforms(s, position[k, None], 0, np.arange(d)) for s, k in zip(seeds, slices)])
            feats = np.argsort(draws, axis=1, kind="stable")[:, :mtry]
            # a row in no open node keys into the dropped slot; any features do
            keys = flat.take(base[:, None] + feats[np.minimum(node, nodes - 1)]) + offsets + (node * (mtry * width))[:, None]
            nl, csu, wl = level_histograms(keys[:n_structure].ravel(), nodes, mtry, width, None, structure_u, structure_w)
            (el,) = level_histograms(keys[n_structure:].ravel(), nodes, mtry, width, estimated)
            nr = n[:, None, None] - nl
            wr = sw[:, None, None] - wl
            er = n_est[:, None, None] - el
            # a bin past a feature's last cut has every row on the left, so
            # the nr check rules it out
            ok = (np.minimum(nl, nr) >= _MIN_STRUCTURE_CHILD) & (np.minimum(wl, wr) > 0.0)
            ok &= np.minimum(el, er) >= params.min_leaf_estimate
            # ok implies wl > 0 and wr > 0, so every slope that counts is finite
            with np.errstate(divide="ignore", invalid="ignore"):
                tl = csu / wl
                tr = (su[:, None, None] - csu) / wr
                score = np.where(ok, nl * tl * tl + nr * tr * tr, -np.inf)
                j, cut, found = best_cuts(score, n * (su / sw) ** 2)
            feature = np.where(searches & found, feats[np.arange(nodes), j], -1)
        for table, k in zip(tables, slices):
            table.add_level(tau[k], n_est[k], feature[k], cut[k], grid)
        split = feature >= 0
        if not split.any():
            break
        node = route(flat, base, node, feature, cut)
        position = (2 * position[split, None] + [1, 2]).ravel()
        parent_tau = np.repeat(tau[split], 2)
        tree = np.repeat(tree[split], 2)
    return tables


def fit_forest(
    X: np.ndarray,
    ry: np.ndarray,
    ra: np.ndarray,
    params: ForestParams,
    seed: int,
) -> CausalForest:
    """Fit the bagged honest forest on the rows ``bag_subsamples`` draws.

    All draw seeds derive from (seed, bag, tree), so the result is
    independent of any execution order, and the bags grow side by side on
    the available CPUs (``parallel.map_tasks``).
    """
    X = np.asarray(X, dtype=np.float64)
    ry = np.asarray(ry, dtype=np.float64)
    ra = np.asarray(ra, dtype=np.float64)
    n = X.shape[0]
    if n < 2 * params.min_split:
        raise InsufficientData(f"forest needs at least {2 * params.min_split} rows, got {n}")
    if X.shape[1] > KEYED_SLOTS:
        raise InvalidArgument(f"a forest's feature draws are keyed by column, below {KEYED_SLOTS}; got {X.shape[1]} columns")
    codes, thresholds = bin_features(X, params.max_bins)
    bags = map_tasks(_grow_bag, (codes, thresholds, ry, ra, params, seed), params.bags)
    trees = PackedTrees.pack([table for bag in bags for table in bag])
    return CausalForest(trees=trees, params=params, seed=seed, n=n)


def _grow_bag(shared: tuple, b: int) -> list[NodeTable]:
    """The trees of bag ``b``, in tree order."""
    codes, thresholds, ry, ra, params, seed = shared
    subsamples = bag_subsamples(codes.shape[0], params, seed, b)
    return grow_trees(codes, thresholds, ry, ra, subsamples, params, [seed_for(seed, b, i) for i in range(len(subsamples))])


def predict_tau(forest: CausalForest, X: np.ndarray) -> np.ndarray:
    """Mean leaf slope over all trees for each query row."""
    tau = np.empty(np.shape(X)[0], dtype=np.float64)
    for rows, node in forest.trees.leaves(X):
        tau[rows] = np.add.reduce(forest.trees.value.take(node), axis=1) / node.shape[1]
    return tau


# the standard normal quantile, computed once per confidence level
_normal_quantile = functools.lru_cache(maxsize=16)(NormalDist().inv_cdf)


def predict_interval(forest: CausalForest, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, lower, upper) arrays: each row's point estimate and grouped-bag
    interval at the forest's ``confidence_level``.

    Sums over a bag's trees add them one at a time in tree order, and the
    within-bag total adds the bags in bag order, so each row's figures are
    the same whatever rows share the call.
    """
    p = forest.params
    bags, s = p.bags, p.trees_per_bag
    if bags < 2:
        raise InsufficientData("confidence intervals need at least 2 bags")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    m = np.empty(X.shape[0], dtype=np.float64)
    v = np.empty(X.shape[0], dtype=np.float64)
    # chunk by chunk, so no (rows, trees) matrix of the whole batch is built
    for rows, node in forest.trees.leaves(X):
        per_tree = forest.trees.value.take(node)
        m[rows] = np.add.reduce(per_tree, axis=1) / node.shape[1]
        # a C-order (rows, bags, trees_per_bag) view: every sum runs along one
        # row's own cells, and the (rows, bags) arrays made from it are C order,
        # so the mean over bags is a pairwise sum of each row for any row count
        trees = per_tree.reshape(len(per_tree), bags, s)
        m_b = np.add.accumulate(trees, axis=2)[:, :, -1] / s
        spread = np.add.accumulate((trees - m_b[:, :, None]) ** 2, axis=2)[:, :, -1]
        v_within = np.add.accumulate(spread, axis=1)[:, -1] / (bags * s)
        v_between = np.add.reduce((m_b - m[rows][:, None]) ** 2, axis=1) / bags
        v[rows] = np.maximum(v_between - v_within / s, np.maximum(p.variance_floor_frac * v_between, p.variance_floor))
    half = _normal_quantile(0.5 + p.confidence_level / 2.0) * np.sqrt(v)
    return m, m - half, m + half


def predict_tau_ci(forest: CausalForest, X: np.ndarray) -> list[IteEstimate]:
    """``predict_interval`` as one estimate per row."""
    level = forest.params.confidence_level
    return [
        IteEstimate(tau=t, tau_lower=lo, tau_upper=hi, confidence_level=level)
        for t, lo, hi in zip(*(a.tolist() for a in predict_interval(forest, X)))
    ]


def audit_honesty(forest: CausalForest) -> bool:
    """True when no tree shares a row between structure and estimation.

    The halves are not stored: they are drawn again from (seed, bag, tree,
    n) through the same helpers the fit used. On a loaded model this checks
    the sampler, not rows kept in the file.
    """
    p = forest.params
    return not any(
        np.intersect1d(*honest_halves(sub, p, seed_for(forest.seed, b, i))).size
        for b in range(p.bags)
        for i, sub in enumerate(bag_subsamples(forest.n, p, forest.seed, b))
    )

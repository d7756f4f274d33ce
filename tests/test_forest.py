import json

import numpy as np
import pytest

from nodemend import forest as forest_module
from nodemend.domain import from_record, keyed_uniforms, seed_for, to_record
from nodemend.errors import InsufficientData, InvalidArgument
from nodemend.forest import (
    CausalForest,
    ForestParams,
    audit_honesty,
    fit_forest,
    grow_trees,
    honest_halves,
    predict_tau,
    predict_tau_ci,
)
from nodemend.trees import PackedTrees, bin_features

from conftest import synthetic_residuals

BINS = ForestParams().max_bins


def grow_one(codes, thresholds, ry, ra, subsample, params, seed) -> PackedTrees:
    """One honest tree on ``subsample``, grown as a bag of one tree, as a one-tree record."""
    return PackedTrees.pack([grow_trees(codes, thresholds, ry, ra, [subsample], params, [seed])[0]])


def small_params(**overrides):
    base = dict(bags=10, trees_per_bag=4, max_depth=6, min_split=20, min_leaf_estimate=10)
    base.update(overrides)
    return ForestParams(**base)


def test_grow_tree_two_regime_root_split():
    X, ry, ra, tau = synthetic_residuals(4000, seed=0, noise=0.25)
    tree = grow_one(*bin_features(X, BINS), ry, ra, np.arange(4000), ForestParams(), seed=1)
    # the first split must separate the effect regimes (column 0, near 0)
    assert tree.feature[0] == 0
    assert abs(tree.threshold[0]) < 0.4
    leaves = np.flatnonzero(tree.feature < 0)
    taus = tree.value[leaves]
    # leaves sit within +-1 of one of the true effects; quantile binning can
    # leave a sliver of misrouted rows at the regime boundary, so allow up
    # to 2% of the estimation mass in boundary leaves
    in_band = (np.abs(taus - 5.0) < 1.0) | (np.abs(taus + 5.0) < 1.0)
    mass = tree.count[leaves].astype(float)
    assert mass[~in_band].sum() <= 0.02 * mass.sum()


def test_grow_tree_constant_effect_leaves():
    X, ry, ra, tau = synthetic_residuals(3000, seed=1, kind="constant", noise=0.25)
    tree = grow_one(*bin_features(X, BINS), ry, ra, np.arange(3000), ForestParams(), seed=2)
    leaves = np.flatnonzero(tree.feature < 0)
    assert np.all(np.abs(tree.value[leaves] - 2.0) < 0.5)


def test_grow_tree_min_leaf_larger_than_subsample():
    X, ry, ra, _ = synthetic_residuals(60, seed=2)
    tree = grow_one(*bin_features(X, BINS), ry, ra, np.arange(60), ForestParams(min_leaf_estimate=1000), seed=0)
    assert len(tree.feature) == 1
    assert tree.feature[0] == -1


def test_grow_tree_honesty_disjoint():
    # a tree's subsample is cut with this helper and the tree's seed
    structure, estimate = honest_halves(np.arange(500), ForestParams(), 4)
    assert np.intersect1d(structure, estimate).size == 0
    assert len(structure) + len(estimate) == 500


def test_grow_tree_row_permutation_invariance():
    X, ry, ra, _ = synthetic_residuals(800, seed=4)
    tree = grow_one(*bin_features(X, BINS), ry, ra, np.arange(800), ForestParams(), seed=5)
    rng = np.random.default_rng(0)
    perm = rng.permutation(800)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(800)
    # permute rows and remap the subsample indices consistently
    tree_p = grow_one(*bin_features(X[perm], BINS), ry[perm], ra[perm], inv[np.arange(800)], ForestParams(), seed=5)
    Xq = np.random.default_rng(1).normal(size=(100, X.shape[1]))
    assert np.allclose(tree.values(Xq), tree_p.values(Xq), atol=1e-9)


def test_fit_forest_deterministic():
    X, ry, ra, _ = synthetic_residuals(2000, seed=5)
    f1 = fit_forest(X, ry, ra, small_params(), seed=7)
    f2 = fit_forest(X, ry, ra, small_params(), seed=7)
    Xq = np.random.default_rng(2).normal(size=(50, X.shape[1]))
    assert np.array_equal(f1.trees.values(Xq), f2.trees.values(Xq))
    f3 = fit_forest(X, ry, ra, small_params(), seed=8)
    assert not np.array_equal(f1.trees.values(Xq), f3.trees.values(Xq))


def test_fit_forest_recovers_two_regime():
    X, ry, ra, tau = synthetic_residuals(6000, seed=6)
    forest = fit_forest(X, ry, ra, ForestParams(), seed=9)
    Xq, _, _, tau_q = synthetic_residuals(400, seed=60)
    pred = predict_tau(forest, Xq)
    rmse = np.sqrt(np.mean((pred - tau_q) ** 2))
    assert rmse <= 1.5  # 30% of the effect magnitude


def test_fit_forest_insufficient_rows():
    X, ry, ra, _ = synthetic_residuals(30, seed=7)
    with pytest.raises(InsufficientData):
        fit_forest(X, ry, ra, ForestParams(min_split=20), seed=0)


def test_single_bag_single_tree_reduces_to_grow_tree():
    X, ry, ra, _ = synthetic_residuals(1000, seed=8)
    params = ForestParams(bags=1, trees_per_bag=1, subsample_fraction=1.0)
    forest = fit_forest(X, ry, ra, params, seed=11)
    # replicate the forest's draw chain for bag 0 / tree 0: each draw is the
    # first k rows of a stable sort of keyed uniforms, back in row order
    def first_keyed(seed, n, k):
        return np.sort(np.argsort(keyed_uniforms(seed, np.arange(n), 0, 0), kind="stable")[:k])

    half = first_keyed(seed_for(11, 0), 1000, 500)
    sub = half[first_keyed(seed_for(11, 0, 0, 1), 500, 500)]
    # same binning as the forest fit (computed on the full data)
    tree = grow_one(*bin_features(X, params.max_bins), ry, ra, sub, params, seed_for(11, 0, 0))
    Xq = np.random.default_rng(3).normal(size=(100, X.shape[1]))
    assert np.array_equal(next(iter(forest.trees)).values(Xq), tree.values(Xq))


def _constant_forest(c: float, n_trees: int = 8, bags: int = 4) -> CausalForest:
    # n_trees one-leaf trees of value c and count 10
    trees = PackedTrees(np.arange(n_trees), np.full(n_trees, -1), np.zeros(n_trees), np.full(n_trees, c), np.full(n_trees, 10))
    params = ForestParams(bags=bags, trees_per_bag=n_trees // bags)
    return CausalForest(trees=trees, params=params, seed=0, n=100)


def test_predict_constant_forest():
    forest = _constant_forest(3.5)
    X = np.zeros((5, 2))
    assert np.allclose(predict_tau(forest, X), 3.5)


def test_predict_invariant_to_tree_order():
    X, ry, ra, _ = synthetic_residuals(1500, seed=9)
    forest = fit_forest(X, ry, ra, small_params(), seed=13)
    Xq = np.random.default_rng(5).normal(size=(40, X.shape[1]))
    base = predict_tau(forest, Xq)
    rng = np.random.default_rng(6)
    order = rng.permutation(len(forest.trees))
    trees = list(forest.trees)
    shuffled = CausalForest(
        trees=PackedTrees.pack([trees[i] for i in order]),
        params=forest.params,
        seed=forest.seed,
        n=forest.n,
    )
    assert np.allclose(predict_tau(shuffled, Xq), base, atol=1e-12)


def test_predict_deep_in_regime():
    X, ry, ra, _ = synthetic_residuals(6000, seed=10)
    forest = fit_forest(X, ry, ra, ForestParams(), seed=14)
    deep = np.zeros((1, X.shape[1]))
    deep[0, 0] = 2.0  # far inside the +5 regime
    assert 4.0 <= predict_tau(forest, deep)[0] <= 6.0


def test_ci_zero_variance_floor():
    forest = _constant_forest(1.0)
    est = predict_tau_ci(forest, np.zeros((1, 2)))[0]
    assert est.tau == pytest.approx(1.0)
    assert est.width < 1e-4


def test_ci_needs_two_bags():
    forest = _constant_forest(1.0, n_trees=4, bags=1)
    with pytest.raises(InsufficientData):
        predict_tau_ci(forest, np.zeros((1, 2)))


def test_ci_bounds_bracket_point_estimate(tworegime_bundle):
    from nodemend.dml import estimate_ite

    model = tworegime_bundle["model"]
    for e in tworegime_bundle["test_events"][:50]:
        est = estimate_ite(model, e.signals)
        assert est.tau_lower <= est.tau <= est.tau_upper


def test_zero_effect_randomized_ci_exclusion_rate():
    # on no-effect randomized data at most 15% of 90% intervals exclude 0
    X, ry, ra, _ = synthetic_residuals(4000, seed=11, kind="zero")
    forest = fit_forest(X, ry, ra, ForestParams(), seed=15)
    Xq = np.random.default_rng(7).normal(size=(200, X.shape[1]))
    ests = predict_tau_ci(forest, Xq)
    excluded = np.mean([not (e.tau_lower <= 0.0 <= e.tau_upper) for e in ests])
    assert excluded <= 0.15


def test_width_shrinks_with_training_size():
    widths = []
    for n in (2500, 5000, 10000):
        X, ry, ra, _ = synthetic_residuals(n, seed=12)
        forest = fit_forest(X, ry, ra, ForestParams(), seed=16)
        Xq = np.random.default_rng(8).normal(size=(100, X.shape[1]))
        widths.append(float(np.mean([e.width for e in predict_tau_ci(forest, Xq)])))
    assert widths[1] <= widths[0] * 1.2
    assert widths[2] <= widths[1] * 1.2


def test_forest_honesty_audit(tworegime_bundle):
    assert audit_honesty(tworegime_bundle["model"].forest)


def test_forest_serialization_round_trip():
    X, ry, ra, _ = synthetic_residuals(1000, seed=13)
    forest = fit_forest(X, ry, ra, small_params(), seed=17)
    clone = from_record(CausalForest, json.loads(json.dumps(to_record(forest))))
    Xq = np.random.default_rng(9).normal(size=(30, X.shape[1]))
    assert np.array_equal(forest.trees.values(Xq), clone.trees.values(Xq))


def test_params_validation():
    with pytest.raises(InvalidArgument):
        ForestParams(bags=0)
    with pytest.raises(InvalidArgument):
        ForestParams(honest_fraction=1.0)
    with pytest.raises(InvalidArgument):
        from_record(ForestParams, {"bags": 5, "no_such": 1})
    for field, value in (("max_depth", -1), ("max_bins", 1), ("min_leaf_estimate", 0), ("features_per_split", 0)):
        with pytest.raises(InvalidArgument, match=f"{field} must be >="):
            ForestParams(**{field: value})
    # one bag still grows single trees; only a forest final stage needs two
    assert ForestParams(bags=1, max_depth=0, features_per_split=1).bags == 1


def test_keyed_draws_bound_depth_and_columns(monkeypatch):
    # a node's feature draw is keyed by (heap position, feature): positions
    # stay below 2^32 up to depth 32, and features below 2^8
    assert ForestParams(max_depth=32).max_depth == 32
    with pytest.raises(InvalidArgument, match="max_depth must be <= 32, got 33"):
        ForestParams(max_depth=33)
    monkeypatch.setattr(forest_module, "map_tasks", lambda *a, **k: pytest.fail("a bag grew"))
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidArgument, match="got 257 columns"):
        fit_forest(rng.normal(size=(60, 257)), rng.normal(size=60), rng.normal(size=60), small_params(), seed=0)


def test_tree_does_not_depend_on_the_nodes_grown_beside_it():
    # the keyed draws make a node's features a function of its position: a
    # tree capped at depth 3 is the top of the same tree grown to depth 6
    X, ry, ra, _ = synthetic_residuals(3000, seed=12)
    codes, thresholds = bin_features(X, BINS)
    deep = grow_one(codes, thresholds, ry, ra, np.arange(3000), ForestParams(max_depth=6), seed=3)
    shallow = grow_one(codes, thresholds, ry, ra, np.arange(3000), ForestParams(max_depth=3), seed=3)
    top = len(shallow.feature)
    assert top < len(deep.feature)
    splits = shallow.feature >= 0
    for name in ("feature", "threshold"):
        np.testing.assert_array_equal(getattr(shallow, name)[splits], getattr(deep, name)[:top][splits], err_msg=name)
    # so each split's children, from the numbering, are the same nodes
    np.testing.assert_array_equal(shallow.child.reshape(-1, 2)[splits], deep.child.reshape(-1, 2)[:top][splits])
    np.testing.assert_array_equal(shallow.value, deep.value[:top])

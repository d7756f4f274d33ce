import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodemend import parallel
from nodemend.domain import from_record, rng_for, seed_for, to_record
from nodemend.errors import InvalidArgument
from nodemend.learners import GradientBoostedTrees, LearnerConfig, crossfit_predict, make_folds
from nodemend.trees import MIN_GAIN, PackedTrees, bin_features

from conftest import PreorderTable, breadth_first


def reference_fit(cls, config, seed, X, y):
    """``GradientBoostedTrees.fit`` written out as plain loops over the
    distinct code rows. Each round sums every group's residuals over the
    subsample, in subsample order, then grows a tree over the groups
    present, ordered as their code rows compare, recursively in pre-order,
    and numbers its nodes breadth-first as the level grower does."""
    rng = rng_for(seed, 0)
    codes, thresholds = bin_features(X, config.max_bins)
    keys = sorted({tuple(row) for row in codes.tolist()})
    group_of = {key: g for g, key in enumerate(keys)}
    group = [group_of[tuple(row)] for row in codes.tolist()]
    base_value = float(y.mean())
    current = [base_value] * len(keys)
    tables = []
    n = X.shape[0]
    n_sub = max(1, int(round(config.subsample * n)))
    for _ in range(config.rounds):
        rows = rng.choice(n, size=n_sub, replace=False) if n_sub < n else np.arange(n)
        sums, counts, resid = [0.0] * len(keys), [0] * len(keys), [[] for _ in keys]
        for i in rows.tolist():
            g = group[i]
            r = float(y[i]) - current[g]
            sums[g] += r
            counts[g] += 1
            resid[g].append(r)
        present = [g for g in range(len(keys)) if counts[g]]
        tree = reference_group_tree(keys, thresholds, sums, counts, resid, present, config.max_depth, config.min_leaf)
        tables.append(breadth_first(tree))
        for g, key in enumerate(keys):
            current[g] = current[g] + config.learning_rate * reference_leaf_value(tree, key, thresholds)
    return cls(config, base_value, PackedTrees.pack(tables))


def reference_group_tree(keys, thresholds, sums, counts, resid, groups, max_depth, min_leaf):
    """A per-feature scan over groups: each bin adds its groups' sums and
    counts one by one, in group order."""
    table = PreorderTable()

    def grow(groups, depth):
        n = sum(counts[g] for g in groups)
        total = np.sum([sums[g] for g in groups])
        targets = [r for g in groups for r in resid[g]]
        if depth >= max_depth or n < 2 * min_leaf or min(targets) == max(targets):
            return table.add(total / n, n)
        best_gain, best = MIN_GAIN, None
        for f, thr in enumerate(thresholds):
            hist_sums, hist_counts = [0.0] * (len(thr) + 1), [0] * (len(thr) + 1)
            for g in groups:
                hist_sums[keys[g][f]] += sums[g]
                hist_counts[keys[g][f]] += counts[g]
            csum, nl, best_score, best_bin = 0.0, 0, -math.inf, None
            for b in range(len(thr)):
                csum, nl = csum + hist_sums[b], nl + hist_counts[b]
                if nl >= min_leaf and n - nl >= min_leaf:
                    score = csum * csum / nl + (total - csum) * (total - csum) / (n - nl)
                    if score > best_score:
                        best_score, best_bin = score, b
            if best_bin is not None and best_score - total * total / n > best_gain:
                best_gain, best = best_score - total * total / n, (f, best_bin)
        if best is None:
            return table.add(total / n, n)
        f, b = best
        node = table.add()
        left_id = grow([g for g in groups if keys[g][f] <= b], depth + 1)
        right_id = grow([g for g in groups if keys[g][f] > b], depth + 1)
        table.split(node, f, thresholds[f][b], left_id, right_id)
        return node

    grow(groups, 0)
    return table


def reference_leaf_value(table, key, thresholds):
    node = 0
    while table.feature[node] >= 0:
        f = table.feature[node]
        b = int(np.searchsorted(thresholds[f], table.threshold[node]))
        node = table.left[node] if key[f] <= b else table.right[node]
    return table.value[node]


def crossfit_one(X, y, folds, config, seed=0):
    """``crossfit_predict`` of one target: its predictions and learners."""
    (oof,), learners = crossfit_predict(X, (y,), folds, config, seeds=(seed,))
    return oof, learners


def test_make_folds_exact_division():
    folds = make_folds(10, 5, seed=0)
    sizes = np.bincount(folds, minlength=5)
    assert list(sizes) == [2, 2, 2, 2, 2]


def test_make_folds_remainder():
    folds = make_folds(7, 5, seed=1)
    sizes = sorted(np.bincount(folds, minlength=5))
    assert sizes == [1, 1, 1, 2, 2]


def test_make_folds_determinism_and_errors():
    assert np.array_equal(make_folds(100, 5, seed=3), make_folds(100, 5, seed=3))
    assert not np.array_equal(make_folds(100, 5, seed=3), make_folds(100, 5, seed=4))
    with pytest.raises(InvalidArgument):
        make_folds(3, 5, seed=0)
    with pytest.raises(InvalidArgument):
        make_folds(10, 1, seed=0)


def test_crossfit_constant_target():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 4))
    y = np.full(60, 3.25)
    folds = make_folds(60, 5, seed=0)
    oof, learners = crossfit_one(X, y, folds, LearnerConfig(), seed=0)
    assert len(learners) == 5
    assert np.allclose(oof, 3.25)


@pytest.mark.parametrize("workers", [1, 3])
def test_crossfit_predicts_each_row_with_its_own_fold_and_target(monkeypatch, workers):
    # 2 targets x 4 folds is one map of 8 tasks; 3 workers do not divide it
    monkeypatch.setattr(parallel, "available_cpus", lambda: workers)
    rng = np.random.default_rng(8)
    X = rng.integers(0, 4, size=(90, 3)).astype(np.float64)
    y = X[:, 0] - X[:, 1] + rng.normal(size=90)
    a = (rng.random(90) < 0.3 + 0.1 * X[:, 2]).astype(np.float64)
    folds = make_folds(90, 4, seed=2)
    config = LearnerConfig(rounds=15)
    targets = [(y, 11), (a, 12)]
    predictions, learners = crossfit_predict(X, [t for t, _ in targets], folds, config, seeds=[s for _, s in targets])
    assert len(predictions) == 2 and len(learners) == 8
    for t, (target, seed) in enumerate(targets):
        for j in range(4):
            test = folds == j
            want = GradientBoostedTrees.fit(config, seed_for(seed, j), X[~test], target[~test])
            assert to_record(learners[t * 4 + j]) == to_record(want)
            assert np.array_equal(predictions[t][test], want.predict(X[test]))


def test_crossfit_needs_a_mode_and_a_seed_per_target():
    X = np.zeros((20, 2))
    folds = make_folds(20, 2, seed=0)
    with pytest.raises(InvalidArgument, match="one seed"):
        crossfit_predict(X, (np.zeros(20), np.ones(20)), folds, LearnerConfig(), seeds=(0,))
    # the learner is one plain regressor: there is no mode to choose
    with pytest.raises(TypeError, match="modes"):
        crossfit_predict(X, (np.zeros(20),), folds, LearnerConfig(), modes=("regression",), seeds=(0,))
    with pytest.raises(InvalidArgument, match="equal length"):
        crossfit_predict(X, (np.zeros(19),), folds, LearnerConfig(), seeds=(0,))


def test_no_leakage_of_own_row():
    # Perturbing one row's target must not move that row's own out-of-fold
    # prediction: its predicting model never saw it.
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 4))
    y = X[:, 0] + 0.1 * rng.normal(size=80)
    folds = make_folds(80, 4, seed=5)
    cfg = LearnerConfig(rounds=40)
    oof1, _ = crossfit_one(X, y, folds, cfg, seed=7)
    y2 = y.copy()
    y2[17] += 100.0
    oof2, _ = crossfit_one(X, y2, folds, cfg, seed=7)
    assert oof1[17] == oof2[17]
    # rows sharing fold 17's complement models do move
    assert not np.allclose(oof1, oof2)


def test_gbm_learns_something_on_synthetic_default():
    from nodemend.domain import encode_matrix
    from nodemend.simulate import default_config, generate_observational_dataset

    cfg = default_config(seed=31)
    events, _ = generate_observational_dataset(3000, cfg)
    X = encode_matrix([e.signals for e in events], cfg.schema())
    y = np.array([e.avd for e in events])
    folds = make_folds(len(y), 5, seed=0)
    oof, _ = crossfit_one(X, y, folds, LearnerConfig(), seed=0)
    mse = np.mean((y - oof) ** 2)
    assert mse < y.var()


def test_gbm_deterministic_given_seed():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(200, 6))
    y = X[:, 0] ** 2 + rng.normal(size=200)
    a = GradientBoostedTrees.fit(LearnerConfig(rounds=30), 11, X, y)
    b = GradientBoostedTrees.fit(LearnerConfig(rounds=30), 11, X, y)
    Xq = rng.normal(size=(50, 6))
    assert np.array_equal(a.predict(Xq), b.predict(Xq))


def test_gbm_serialization_round_trip():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(150, 4))
    y = np.sin(X[:, 0]) + 0.2 * rng.normal(size=150)
    learner = GradientBoostedTrees.fit(LearnerConfig(rounds=25), 9, X, y)
    clone = from_record(GradientBoostedTrees, to_record(learner))
    Xq = rng.normal(size=(40, 4))
    assert np.array_equal(learner.predict(Xq), clone.predict(Xq))


def test_degenerate_fold_constant_fit_not_error():
    X = np.ones((30, 2))
    y = np.full(30, 7.0)
    folds = make_folds(30, 3, seed=0)
    oof, _ = crossfit_one(X, y, folds, LearnerConfig(rounds=10), seed=0)
    assert np.allclose(oof, 7.0)


def test_config_validation():
    with pytest.raises(InvalidArgument):
        LearnerConfig(subsample=0.0)
    with pytest.raises(InvalidArgument):
        LearnerConfig(p_min=0.7)
    # each of these would leave every tree a single leaf
    for field, value in (("rounds", 0), ("max_depth", 0), ("max_bins", 1)):
        with pytest.raises(InvalidArgument, match=f"{field} must be >="):
            LearnerConfig(**{field: value})


@settings(max_examples=120)
@given(data=st.data())
def test_gbm_fit_matches_reference(data):
    # small integer grids give exact ties, constant columns and repeated
    # code rows; the leaf size runs past n / 2, where no split is allowed
    wide = data.draw(st.booleans(), label="wide")
    n = data.draw(st.integers(257, 300) if wide else st.integers(2, 60), label="n")
    d = data.draw(st.integers(1, 4), label="d")
    distinct = data.draw(st.integers(1, n), label="distinct")
    grid = data.draw(st.lists(st.integers(-3, 3), min_size=distinct * d, max_size=distinct * d), label="X")
    pick = data.draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n), label="pick")
    scale = data.draw(st.sampled_from([1.0, 0.37]), label="scale")
    X = np.asarray(grid, dtype=np.float64).reshape(distinct, d)[pick] * scale
    if wide:
        # over 256 distinct values: with max_bins above 256, codes need two bytes
        X[:, 0] = np.minimum(np.random.default_rng(n).permutation(n), 280)
    mode = data.draw(st.sampled_from(["regression", "propensity"]), label="mode")
    target = data.draw(st.sampled_from(["varied", "constant", "steps"]), label="target")
    if target == "constant":
        y = np.full(n, data.draw(st.sampled_from([0.0, 1.0, 2.5]), label="constant"))
    elif target == "steps":
        # constant within nodes once split, at an offset whose scores differ
        # by more than MIN_GAIN through rounding alone
        y = (X[:, 0] > 0) * 1.0 if mode == "propensity" else (X[:, 0] > 0) * 1e4 + (X[:, -1] > 1) * 3e3
    elif mode == "propensity":
        y = np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="y"), dtype=np.float64)
    else:
        y = np.asarray(
            data.draw(st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=n, max_size=n), label="y"), dtype=np.float64
        )
    config = LearnerConfig(
        rounds=data.draw(st.integers(1, 8), label="rounds"),
        max_depth=data.draw(st.integers(1, 3), label="max_depth"),
        subsample=data.draw(st.sampled_from([0.5, 0.8, 1.0]), label="subsample"),
        max_bins=data.draw(st.integers(2, 8) | st.integers(250, 300), label="max_bins"),
        min_leaf=data.draw(st.integers(1, n // 2 + 1), label="min_leaf"),
    )
    seed = data.draw(st.integers(0, 2**31), label="seed")
    got = GradientBoostedTrees.fit(config, seed, X, y)
    want = reference_fit(GradientBoostedTrees, config, seed, X, y)
    assert got.base_value == want.base_value
    assert len(got.trees) == len(want.trees)
    for name in ("roots", "feature", "threshold", "value", "count"):
        got_column, want_column = getattr(got.trees, name), getattr(want.trees, name)
        assert got_column.dtype == want_column.dtype
        assert np.array_equal(got_column, want_column)
    Xq = np.vstack([X, X[::-1] + 0.5])
    assert np.array_equal(got.predict(Xq), want.predict(Xq))


@settings(max_examples=80)
@given(n=st.integers(2, 400), k=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
def test_folds_partition_the_rows_evenly_and_repeat(n, k, seed):
    if n < k:
        with pytest.raises(InvalidArgument):
            make_folds(n, k, seed)
        return
    folds = make_folds(n, k, seed)
    assert folds.shape == (n,)  # every row in exactly one fold
    assert 0 <= folds.min() and folds.max() < k
    sizes = np.bincount(folds, minlength=k)
    assert sizes.size == k and sizes.sum() == n
    assert sizes.max() - sizes.min() <= 1
    assert np.array_equal(make_folds(n, k, seed), folds)

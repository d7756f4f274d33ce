import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodemend.domain import from_record, rng_for, to_record
from nodemend.errors import InvalidArgument
from nodemend.learners import (
    GradientBoostedTrees,
    LearnerConfig,
    RidgeRegression,
    crossfit_predict,
    fit_learner,
    make_folds,
)
from nodemend.trees import PackedTrees, bin_features, grow_sse_tree


def reference_fit(cls, config, mode, seed, X, y):
    """``GradientBoostedTrees.fit`` as it was before the fit built its
    binned layout once and routed rows on their codes, kept as it was: a
    fresh grower per round, then a walk over the float matrix."""
    rng = rng_for(seed, 0)
    codes, thresholds = bin_features(X, config.max_bins)
    base_value = float(y.mean())
    tables = []
    current = np.full(X.shape[0], base_value)
    n = X.shape[0]
    n_sub = max(1, int(round(config.subsample * n)))
    for _ in range(config.rounds):
        resid = y - current
        rows = rng.choice(n, size=n_sub, replace=False) if n_sub < n else np.arange(n)
        table = grow_sse_tree(codes, thresholds, resid, rows, config.max_depth, config.min_leaf)
        tables.append(table)
        current = current + config.learning_rate * PackedTrees.pack([table]).values(X)[:, 0]
    return cls(config, mode, int(seed), base_value, PackedTrees.pack(tables))


def test_make_folds_exact_division():
    folds = make_folds(10, 5, seed=0)
    sizes = np.bincount(folds.membership, minlength=5)
    assert list(sizes) == [2, 2, 2, 2, 2]


def test_make_folds_remainder():
    folds = make_folds(7, 5, seed=1)
    sizes = sorted(np.bincount(folds.membership, minlength=5))
    assert sizes == [1, 1, 1, 2, 2]


def test_make_folds_determinism_and_errors():
    assert make_folds(100, 5, seed=3) == make_folds(100, 5, seed=3)
    assert make_folds(100, 5, seed=3) != make_folds(100, 5, seed=4)
    with pytest.raises(InvalidArgument):
        make_folds(3, 5, seed=0)
    with pytest.raises(InvalidArgument):
        make_folds(10, 1, seed=0)


def test_crossfit_constant_target():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 4))
    y = np.full(60, 3.25)
    folds = make_folds(60, 5, seed=0)
    oof, learners = crossfit_predict(X, y, folds, LearnerConfig(), seed=0)
    assert len(learners) == 5
    assert np.allclose(oof, 3.25)


def test_crossfit_linear_oracle():
    # closed-form least squares recovers y = 3*x1 exactly
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 3))
    y = 3.0 * X[:, 0]
    folds = make_folds(100, 5, seed=2)
    oof, _ = crossfit_predict(X, y, folds, LearnerConfig(kind="ridge", ridge_alpha=1e-12), seed=0)
    assert np.max(np.abs(oof - y)) < 1e-8


def test_propensity_clamp_on_pure_stratum():
    X = np.ones((40, 2))
    y = np.ones(40)
    folds = make_folds(40, 4, seed=0)
    oof, _ = crossfit_predict(X, y, folds, LearnerConfig(), mode="propensity", seed=0)
    assert np.allclose(oof, 0.99)


def test_propensity_outputs_bounded():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(300, 5))
    y = (rng.random(300) < 0.5).astype(float)
    folds = make_folds(300, 5, seed=0)
    oof, _ = crossfit_predict(X, y, folds, LearnerConfig(), mode="propensity", seed=0)
    assert oof.min() >= 0.01
    assert oof.max() <= 0.99


def test_no_leakage_of_own_row():
    # Perturbing one row's target must not move that row's own out-of-fold
    # prediction: its predicting model never saw it.
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 4))
    y = X[:, 0] + 0.1 * rng.normal(size=80)
    folds = make_folds(80, 4, seed=5)
    cfg = LearnerConfig(rounds=40)
    oof1, _ = crossfit_predict(X, y, folds, cfg, seed=7)
    y2 = y.copy()
    y2[17] += 100.0
    oof2, _ = crossfit_predict(X, y2, folds, cfg, seed=7)
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
    oof, _ = crossfit_predict(X, y, folds, LearnerConfig(), seed=0)
    mse = np.mean((y - oof) ** 2)
    assert mse < y.var()


def test_gbm_deterministic_given_seed():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(200, 6))
    y = X[:, 0] ** 2 + rng.normal(size=200)
    a = fit_learner(LearnerConfig(rounds=30), "regression", 11, X, y)
    b = fit_learner(LearnerConfig(rounds=30), "regression", 11, X, y)
    Xq = rng.normal(size=(50, 6))
    assert np.array_equal(a.predict(Xq), b.predict(Xq))


def test_gbm_serialization_round_trip():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(150, 4))
    y = np.sin(X[:, 0]) + 0.2 * rng.normal(size=150)
    learner = fit_learner(LearnerConfig(rounds=25), "regression", 9, X, y)
    clone = from_record(GradientBoostedTrees, to_record(learner))
    Xq = rng.normal(size=(40, 4))
    assert np.array_equal(learner.predict(Xq), clone.predict(Xq))


def test_ridge_serialization_round_trip():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(50, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + 4.0
    learner = fit_learner(LearnerConfig(kind="ridge"), "regression", 0, X, y)
    clone = from_record(RidgeRegression, to_record(learner))
    Xq = rng.normal(size=(20, 3))
    assert np.array_equal(learner.predict(Xq), clone.predict(Xq))


def test_degenerate_fold_constant_fit_not_error():
    X = np.ones((30, 2))
    y = np.full(30, 7.0)
    folds = make_folds(30, 3, seed=0)
    oof, _ = crossfit_predict(X, y, folds, LearnerConfig(rounds=10), seed=0)
    assert np.allclose(oof, 7.0)


def test_config_validation():
    with pytest.raises(InvalidArgument):
        LearnerConfig(kind="mlp")
    with pytest.raises(InvalidArgument):
        LearnerConfig(subsample=0.0)
    with pytest.raises(InvalidArgument):
        LearnerConfig(p_min=0.7)


@settings(max_examples=120)
@given(data=st.data())
def test_gbm_fit_matches_reference(data):
    # small integer grids give exact ties and constant columns; the leaf
    # size runs past n / 2, where no split is allowed at all
    n = data.draw(st.integers(2, 60), label="n")
    d = data.draw(st.integers(1, 4), label="d")
    grid = data.draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d), label="X")
    X = np.asarray(grid, dtype=np.float64).reshape(n, d) * data.draw(st.sampled_from([1.0, 0.37]), label="scale")
    mode = data.draw(st.sampled_from(["regression", "propensity"]), label="mode")
    target = data.draw(st.sampled_from(["varied", "constant"]), label="target")
    if target == "constant":
        y = np.full(n, data.draw(st.sampled_from([0.0, 1.0, 2.5]), label="constant"))
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
        max_bins=data.draw(st.integers(2, 8), label="max_bins"),
        min_leaf=data.draw(st.integers(1, n // 2 + 1), label="min_leaf"),
    )
    seed = data.draw(st.integers(0, 2**31), label="seed")
    got = GradientBoostedTrees.fit(config, mode, seed, X, y)
    want = reference_fit(GradientBoostedTrees, config, mode, seed, X, y)
    assert got.base_value == want.base_value
    assert len(got.trees) == len(want.trees)
    for name in ("roots", "feature", "threshold", "left", "right", "value", "count"):
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
    assert folds.membership.shape == (n,)  # every row in exactly one fold
    assert 0 <= folds.membership.min() and folds.membership.max() < k
    sizes = np.bincount(folds.membership, minlength=k)
    assert sizes.size == k and sizes.sum() == n
    assert sizes.max() - sizes.min() <= 1
    assert make_folds(n, k, seed) == folds

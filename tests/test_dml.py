import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodemend.dml import (
    DmlModel,
    LinearTheta,
    ModelMetadata,
    ResidualData,
    TrainConfig,
    effect_bounds,
    estimate_ite,
    estimate_ite_batch,
    final_stage_linear,
    nuisance_predictions,
    psi_loss,
    residualize_dataset,
    theta_values,
    train_dml,
)
from nodemend.decisions import preferred_action
from nodemend.domain import DEFAULT_SCHEMA, MitigationAction, encode_matrix
from nodemend.errors import DegenerateTreatment, InsufficientData, SchemaViolation
from nodemend.learners import LearnerConfig, crossfit_predict, make_folds
from nodemend.simulate import (
    default_config,
    generate_observational_dataset,
    true_tau,
    zero_effect_config,
)


def test_train_requires_rows_and_both_actions():
    cfg = default_config(seed=1)
    events, _ = generate_observational_dataset(400, cfg)
    with pytest.raises(InsufficientData):
        train_dml(events[:30], TrainConfig(), cfg.schema())
    reboots = [e for e in events if e.action == MitigationAction.REBOOT][:120]
    with pytest.raises(DegenerateTreatment):
        train_dml(reboots, TrainConfig(), cfg.schema())


def test_constant_effect_linear_intercept(const2_bundle):
    # the true effect is exactly +2 everywhere, so the linear stage's
    # value on average features must recover it
    model = const2_bundle["linear_model"]
    events = const2_bundle["events"]
    X = encode_matrix([e.signals for e in events], model.schema)
    theta = theta_values(model, X)
    assert float(theta.mean()) == pytest.approx(2.0, abs=0.1)


def test_constant_effect_forest_average(const2_bundle):
    model = const2_bundle["forest_model"]
    events = const2_bundle["events"]
    X = encode_matrix([e.signals for e in events], model.schema)
    theta = theta_values(model, X)
    assert float(theta.mean()) == pytest.approx(2.0, abs=0.15)


def test_null_effect_randomized_forest():
    # fair-coin assignment, outcome independent of the action
    cfg = zero_effect_config(seed=7)
    cfg = type(cfg)(**{**{f: getattr(cfg, f) for f in cfg.__dataclass_fields__}, "legacy_flip_prob": 0.5})
    events, _ = generate_observational_dataset(5000, cfg)
    model = train_dml(events, TrainConfig(seed=7), cfg.schema())
    X = encode_matrix([e.signals for e in events], model.schema)
    assert abs(float(theta_values(model, X).mean())) <= 0.1


def test_train_deterministic(default_bundle):
    cfg = default_bundle["config"]
    events = default_bundle["events"][:800]
    m1 = train_dml(events, TrainConfig(seed=3), cfg.schema())
    m2 = train_dml(events, TrainConfig(seed=3), cfg.schema())
    probe = [e.signals for e in default_bundle["events"][800:900]]
    a = [est.tau for est in estimate_ite_batch(m1, probe)]
    b = [est.tau for est in estimate_ite_batch(m2, probe)]
    assert a == b


def test_final_stage_linear_exact_constant():
    rng = np.random.default_rng(0)
    n = 200
    X = np.zeros((n, 3))
    ra = rng.normal(size=n)
    res = ResidualData(features=X, ry=2.0 * ra, ra=ra)
    theta = final_stage_linear(res)
    assert theta.intercept == pytest.approx(2.0, abs=1e-10)
    assert np.allclose(theta.coef, 0.0, atol=1e-10)


def test_final_stage_linear_exact_feature_term():
    # closed-form normal-equations oracle on a tiny design
    rng = np.random.default_rng(1)
    n = 300
    X = np.zeros((n, 3))
    X[:, 0] = rng.normal(size=n)
    ra = rng.normal(size=n)
    res = ResidualData(features=X, ry=(1.0 + X[:, 0]) * ra, ra=ra)
    theta = final_stage_linear(res)
    assert theta.intercept == pytest.approx(1.0, abs=1e-8)
    assert theta.coef[0] == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(theta.coef[1:], 0.0, atol=1e-8)


def test_final_stage_linear_degenerate_residual():
    res = ResidualData(features=np.zeros((10, 2)), ry=np.ones(10), ra=np.zeros(10))
    with pytest.raises(DegenerateTreatment):
        final_stage_linear(res)


class _ConstLearner:
    """Fixed-output learner for hand-computable scores."""

    def __init__(self, value: float):
        self.value = value

    def predict(self, X):
        return np.full(X.shape[0], self.value)


def _hand_model(schema, y_hat: float, a_hat: float, theta0: float) -> DmlModel:
    return DmlModel(
        schema=schema,
        outcome_learners=[_ConstLearner(y_hat), _ConstLearner(y_hat)],
        propensity_learners=[_ConstLearner(a_hat), _ConstLearner(a_hat)],
        forest=None,
        linear=LinearTheta(intercept=theta0, coef=np.zeros(schema.width)),
        train_config=TrainConfig(folds=2, final_stage="linear"),
        metadata={"version": "1.0"},
    )


def test_propensity_clamp_on_pure_stratum():
    # every row has the same signals and was redeployed: each fold's
    # propensity learner predicts 1, which residualizing clamps to 1 - p_min
    events, _ = generate_observational_dataset(40, default_config(seed=0))
    events = [dataclasses.replace(e, signals=events[0].signals, action=MitigationAction.REDEPLOY) for e in events]
    res, _, _ = residualize_dataset(events, TrainConfig(folds=4), default_config(seed=0).schema())
    assert np.allclose(1.0 - res.ra, 0.99)


def test_propensity_outputs_bounded():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(300, 5))
    y = (rng.random(300) < 0.5).astype(float)
    folds = make_folds(300, 5, seed=0)
    _, learners = crossfit_predict(X, (y,), folds, LearnerConfig(), seeds=(0,))
    model = DmlModel(
        schema=DEFAULT_SCHEMA,
        outcome_learners=tuple(learners),
        propensity_learners=tuple(learners),
        forest=None,
        linear=LinearTheta(intercept=0.0, coef=np.zeros(DEFAULT_SCHEMA.width)),
        train_config=TrainConfig(folds=5, final_stage="linear"),
        metadata=ModelMetadata(n=300, timestamp=0, version="1.0"),
    )
    _, a_hat = nuisance_predictions(model, X)
    assert a_hat.min() >= 0.01
    assert a_hat.max() <= 0.99


def test_nuisance_predictions_clamp_each_fold_learner_before_the_mean():
    # clamped one by one: (0.99 + 0.2) / 2; clamping the mean of 1.2 and
    # 0.2 would give 0.7
    model = _hand_model(DEFAULT_SCHEMA, y_hat=3.0, a_hat=0.5, theta0=0.0)
    model.propensity_learners = (_ConstLearner(1.2), _ConstLearner(0.2))
    y_hat, a_hat = nuisance_predictions(model, np.zeros((3, DEFAULT_SCHEMA.width)))
    assert np.array_equal(y_hat, np.full(3, 3.0))
    assert np.array_equal(a_hat, np.full(3, (0.99 + 0.2) / 2))


def test_psi_loss_hand_computed_four_rows():
    cfg = default_config(seed=11)
    events, _ = generate_observational_dataset(4, cfg)
    schema = cfg.schema()
    y_hat, a_hat, theta0 = 3.0, 0.25, 1.5
    model = _hand_model(schema, y_hat, a_hat, theta0)
    expected = np.mean(
        [((e.avd - y_hat) - theta0 * (int(e.action) - a_hat)) ** 2 for e in events]
    )
    assert psi_loss(model, events) == pytest.approx(expected, abs=1e-12)


def test_psi_loss_zero_when_nuisances_perfect():
    # outcome depends only on signals; theta == 0 and exact nuisances
    cfg = default_config(seed=12)
    events, _ = generate_observational_dataset(6, cfg)
    schema = cfg.schema()
    fixed = [
        type(e)(
            event_id=e.event_id,
            node_id=e.node_id,
            timestamp=e.timestamp,
            signals=e.signals,
            action=e.action,
            avd=7.25,
            interruptions=e.interruptions,
            blackout=e.blackout,
            unallocatable=e.unallocatable,
        )
        for e in events
    ]
    model = _hand_model(schema, y_hat=7.25, a_hat=0.5, theta0=0.0)
    assert psi_loss(model, fixed) == pytest.approx(0.0, abs=1e-15)


def test_psi_nonnegative_and_true_theta_near_optimal(tworegime_bundle):
    model = tworegime_bundle["model"]
    cfg = tworegime_bundle["config"]
    holdout = tworegime_bundle["test_events"]
    psi_model = psi_loss(model, holdout)
    assert psi_model >= 0.0
    # oracle: plug the exact effect into the same score with the same nuisances
    from nodemend.dml import nuisance_predictions, prepare_training_arrays

    X, y, a = prepare_training_arrays(holdout, model.schema)
    y_hat, a_hat = nuisance_predictions(model, X)
    tau_true = np.asarray([true_tau(e.signals, cfg) for e in holdout])
    psi_oracle = float(np.mean(((y - y_hat) - tau_true * (a - a_hat)) ** 2))
    assert psi_oracle <= psi_model * 1.10


def test_psi_loss_predicts_each_distinct_row_once(tworegime_bundle, monkeypatch):
    from nodemend import dml
    from nodemend.dml import clamp_propensity, prepare_training_arrays
    from nodemend.forest import predict_interval
    from nodemend.learners import GradientBoostedTrees
    from nodemend.trees import PackedTrees

    model = tworegime_bundle["model"]
    holdout = tworegime_bundle["test_events"][:120]
    rng = np.random.default_rng(5)
    events = [holdout[i] for i in rng.permutation(np.repeat(np.arange(len(holdout)), 3))]
    # the all-rows formula: every prediction made on every row
    X, y, a = prepare_training_arrays(events, model.schema)
    y_hat = np.mean([lr.predict(X) for lr in model.outcome_learners], axis=0)
    a_hat = np.mean([clamp_propensity(lr.predict(X), model.train_config.learner) for lr in model.propensity_learners], axis=0)
    tau = np.add.reduce(model.forest.trees.values(X), axis=1) / len(model.forest.trees)
    expected = float(np.mean(((y - y_hat) - tau * (a - a_hat)) ** 2))

    # the rows each learner predicts, the rows psi asks an interval for, and
    # the rows each ensemble walks
    predicted, asked, walked = [], [], []
    gbm_predict = GradientBoostedTrees.predict
    leaves = PackedTrees.leaves

    def spy_gbm(self, rows):
        predicted.append(rows)
        return gbm_predict(self, rows)

    def spy_interval(forest, rows):
        asked.append(rows)
        return predict_interval(forest, rows)

    def spy_leaves(self, rows):
        walked.append(rows)
        return leaves(self, rows)

    monkeypatch.setattr(GradientBoostedTrees, "predict", spy_gbm)
    monkeypatch.setattr(dml, "predict_interval", spy_interval)
    monkeypatch.setattr(PackedTrees, "leaves", spy_leaves)
    assert psi_loss(model, events).hex() == expected.hex()
    distinct = len(np.unique(X, axis=0))
    assert distinct < len(holdout) * 3
    assert len(predicted) == len(model.outcome_learners) + len(model.propensity_learners)
    assert len(asked) == 1 and np.array_equal(asked[0], X)
    assert len(walked) == len(predicted) + 1
    assert all(len(rows) == distinct == len(np.unique(rows, axis=0)) for rows in predicted + walked)


def _hex(arrays) -> list[list[str]]:
    return [[float(x).hex() for x in a] for a in arrays]


@settings(max_examples=20, deadline=None)
@given(
    picks=st.lists(st.integers(0, 39), min_size=1, max_size=30),
    stage=st.sampled_from(["forest_model", "linear_model"]),
    data=st.data(),
)
def test_batch_predictions_equal_their_row_by_row_values(const2_bundle, picks, stage, data):
    # a batch with repeats, shuffled: every batch figure is the one its row
    # gets alone, bit for bit, however the batch's distinct rows are shared
    model = const2_bundle[stage]
    pool = const2_bundle["events"][:40]
    signals = [pool[i].signals for i in picks + data.draw(st.permutations(picks), label="shuffled")]
    X = encode_matrix(signals, model.schema)
    rows = [X[i : i + 1] for i in range(len(X))]

    def row_by_row(predict):
        return [np.concatenate(parts) for parts in zip(*(predict(row) for row in rows))]

    assert _hex(effect_bounds(model, X)) == _hex(row_by_row(lambda row: effect_bounds(model, row)))
    assert _hex([theta_values(model, X)]) == _hex(row_by_row(lambda row: [theta_values(model, row)]))
    assert _hex(nuisance_predictions(model, X)) == _hex(row_by_row(lambda row: nuisance_predictions(model, row)))
    batch = estimate_ite_batch(model, signals)
    single = [estimate_ite(model, s) for s in signals]
    assert [(e.tau.hex(), e.tau_lower.hex(), e.tau_upper.hex()) for e in batch] == [
        (e.tau.hex(), e.tau_lower.hex(), e.tau_upper.hex()) for e in single
    ]


def test_psi_schema_mismatch():
    cfg = default_config(seed=13)
    events, _ = generate_observational_dataset(60, cfg)
    other_schema = type(cfg.schema())(hardware_types=("only_one",))
    model = _hand_model(other_schema, 0.0, 0.5, 0.0)
    with pytest.raises(SchemaViolation):
        psi_loss(model, events)


def test_estimate_ite_linear_zero_width(const2_bundle):
    model = const2_bundle["linear_model"]
    sig = const2_bundle["events"][0].signals
    est = estimate_ite(model, sig)
    assert est.width == 0.0
    assert est.tau_lower == est.tau == est.tau_upper


def test_estimate_ite_constant_effect_per_point():
    # per-point +-0.3 needs a low-noise constant-effect construct (per-point
    # spread at the standard preset is wider); the mean-level recovery claim
    # runs on the standard preset in acceptance
    import math
    from dataclasses import replace
    from nodemend.simulate import constant_effect_config

    cfg = replace(
        constant_effect_config(seed=31, delta=2.0),
        base_log_sigma=0.08,
        base_severity_slope=0.08,
        base_log_mu_transient=math.log(3),
        base_log_mu_software=math.log(4),
        base_log_mu_hardware=math.log(5),
    )
    events, _ = generate_observational_dataset(8000, cfg)
    model = train_dml(events, TrainConfig(seed=31), cfg.schema())
    for e in events[:40]:
        est = estimate_ite(model, e.signals)
        assert est.tau == pytest.approx(2.0, abs=0.3)


def test_sign_convention():
    assert preferred_action(1.0) == MitigationAction.REBOOT
    assert preferred_action(0.0) == MitigationAction.REBOOT
    assert preferred_action(-1.0) == MitigationAction.REDEPLOY


def test_estimate_batch_matches_single(tworegime_bundle):
    model = tworegime_bundle["model"]
    rows = [e.signals for e in tworegime_bundle["test_events"][:25]]
    singles = [estimate_ite(model, s) for s in rows]
    batch = estimate_ite_batch(model, rows)
    # every sum runs in a fixed order per row, so bounds agree exactly too
    assert singles == batch


def test_orthogonality_to_outcome_shift():
    # adding a signal-driven term to all outcomes shifts both potential
    # outcomes equally; the effect estimate must stay put
    cfg = default_config(seed=21)
    from nodemend.simulate import constant_effect_config

    cfg = constant_effect_config(seed=21, delta=2.0)
    events, _ = generate_observational_dataset(8000, cfg)
    model_a = train_dml(events, TrainConfig(seed=21), cfg.schema())
    shifted = [
        type(e)(
            event_id=e.event_id,
            node_id=e.node_id,
            timestamp=e.timestamp,
            signals=e.signals,
            action=e.action,
            avd=e.avd + 0.5 * e.signals.vm_count,
            interruptions=e.interruptions,
            blackout=e.blackout,
            unallocatable=e.unallocatable,
        )
        for e in events
    ]
    model_b = train_dml(shifted, TrainConfig(seed=21), cfg.schema())
    X = encode_matrix([e.signals for e in events], cfg.schema())
    tau_a = float(theta_values(model_a, X).mean())
    tau_b = float(theta_values(model_b, X).mean())
    assert abs(tau_a - tau_b) < 0.05

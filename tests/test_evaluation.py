import dataclasses
import json

import numpy as np
import pytest

from nodemend.dml import DmlModel, LinearTheta, TrainConfig
from nodemend.domain import DiagnosticSignals, LabeledEvent, MitigationAction
from nodemend.errors import DegenerateTreatment, InvalidArgument
from nodemend.evaluation import (
    adjusted_effect,
    air,
    avd,
    counterfactual_analysis,
    naive_effect,
    nearest_rank_percentile,
    run_ab_experiment,
    run_policy_comparison,
)
from nodemend.simulate import default_config, generate_observational_dataset


def test_avd_arithmetic():
    assert avd([2.0, 4.0, 6.0]) == 4.0
    assert avd([3.7]) == 3.7
    assert avd([0.0, 0.0, 0.0]) == 0.0
    with pytest.raises(InvalidArgument):
        avd([])


def test_air_formula():
    assert air(2, 100.0) == pytest.approx(730.0)
    assert air(0, 50.0) == 0.0
    assert air(1, 365.0) == pytest.approx(100.0)
    with pytest.raises(InvalidArgument):
        air(1, 0.0)


def test_percentile_nearest_rank_matches_reference():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        values = rng.normal(size=n)
        q = float(rng.uniform(1, 100))
        got = nearest_rank_percentile(values, q)
        ref = sorted(values)[max(1, int(np.ceil(q / 100 * n))) - 1]
        assert got == ref


def make_event(i, y, action, vm_count=1, error_code="none"):
    return LabeledEvent(
        event_id=f"e{i}",
        node_id=f"n{i}",
        timestamp=i,
        signals=DiagnosticSignals(
            vm_count=vm_count,
            has_important_workload=False,
            network_ok=True,
            error_code=error_code,
            repeat_count=0,
            uncorrectable_tag=False,
            hardware_type="gen4_compute",
            session_type="standard",
        ),
        action=action,
        avd=y,
        interruptions=vm_count,
        blackout=0.0,
        unallocatable=0.0,
    )


def test_naive_effect_two_row_hand_case():
    ds = [make_event(0, 5.0, MitigationAction.REDEPLOY), make_event(1, 3.0, MitigationAction.REBOOT)]
    assert naive_effect(ds) == pytest.approx(2.0)


def test_naive_effect_sign_forced_by_construction():
    # Y tracks a covariate and treatment selects on its sign: zero true
    # effect but a mechanically positive naive gap
    rng = np.random.default_rng(1)
    ds = []
    for i in range(400):
        x = float(rng.normal())
        action = MitigationAction.REDEPLOY if x > 0 else MitigationAction.REBOOT
        ds.append(make_event(i, x + 10.0, action))
    assert naive_effect(ds) > 0.0


def test_naive_effect_null_under_randomization():
    rng = np.random.default_rng(2)
    n = 10_000
    ds = [
        make_event(i, float(rng.lognormal(1.0, 0.5)), MitigationAction(int(rng.random() < 0.5)))
        for i in range(n)
    ]
    y = np.array([e.avd for e in ds])
    se = 2 * y.std() / np.sqrt(n / 2)
    assert abs(naive_effect(ds)) <= 3 * se


def test_naive_effect_rejects_single_action():
    ds = [make_event(i, 1.0, MitigationAction.REBOOT) for i in range(10)]
    with pytest.raises(DegenerateTreatment):
        naive_effect(ds)


class _ZeroLearner:
    """A nuisance learner that predicts 0 everywhere."""

    def predict(self, X):
        return np.zeros(X.shape[0])


def _constant_model(schema, c: float) -> DmlModel:
    return DmlModel(
        schema=schema,
        outcome_learners=[_ZeroLearner(), _ZeroLearner()],
        propensity_learners=[_ZeroLearner(), _ZeroLearner()],
        forest=None,
        linear=LinearTheta(intercept=c, coef=np.zeros(schema.width), condition_number=1.0),
        train_config=TrainConfig(folds=2, final_stage="linear"),
        metadata={"version": "1.0"},
    )


def test_adjusted_effect_constant_model_exact():
    cfg = default_config(seed=40)
    events, _ = generate_observational_dataset(200, cfg)
    model = _constant_model(cfg.schema(), -1.25)
    assert adjusted_effect(model, events) == pytest.approx(-1.25, abs=1e-12)


def test_zero_effect_bias_gap(zero_bundle):
    # naive stays large while the adjusted effect collapses toward zero
    events = zero_bundle["events"]
    model = zero_bundle["model"]
    naive = naive_effect(events)
    adjusted = adjusted_effect(model, events)
    assert abs(naive) >= 0.5
    assert abs(adjusted) <= 0.1
    assert abs(naive) / max(abs(adjusted), 0.01) >= 5.0


def test_constant_effect_recovery(const2_bundle):
    got = adjusted_effect(const2_bundle["forest_model"], const2_bundle["events"])
    assert got == pytest.approx(2.0, abs=0.15)


def test_comparison_oracle_dominates(default_bundle):
    cfg = default_bundle["config"]
    report = run_policy_comparison(
        ["random", "legacy", "always_reboot", "always_redeploy", "engine", "oracle"],
        2000,
        cfg,
        seed=7,
        model=default_bundle["model"],
    )
    rows = report.rows
    for name, row in rows.items():
        assert rows["oracle"].avd_mean <= row.avd_mean
        assert row.avd_p50 <= row.avd_p75 <= row.avd_p90 <= row.avd_p99
    # only a policy that never redeploys leaves chains running into the cap
    assert 0 < rows["always_reboot"].convergence_events <= rows["always_reboot"].sample_count
    for name, row in rows.items():
        if name != "always_reboot":
            assert row.convergence_events == 0, name


def test_convergence_events_count_chains_cut_at_the_cap():
    cfg = dataclasses.replace(default_config(seed=56), max_chain_length=1)
    report = run_policy_comparison(["random", "always_reboot", "oracle"], 500, cfg, seed=56)
    for row in report.rows.values():
        assert 0 < row.convergence_events <= row.sample_count
        # with a cap of one step, every chain that recurs is cut at the cap
        assert row.convergence_events == row.recurrence_events
    uncapped = run_policy_comparison(["oracle"], 500, default_config(seed=56), seed=56)
    assert uncapped.rows["oracle"].convergence_events == 0


def test_comparison_byte_reproducible(default_bundle):
    cfg = default_bundle["config"]
    kwargs = dict(n_events=800, config=cfg, seed=11, model=default_bundle["model"])
    r1 = run_policy_comparison(["legacy", "engine", "oracle"], **kwargs)
    r2 = run_policy_comparison(["legacy", "engine", "oracle"], **kwargs)
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)


def test_comparison_avd_matches_manual_reconstruction():
    # the reported AVD is avd() of the concatenated per-VM downtimes
    from nodemend.evaluation import _generate_primaries

    cfg = default_config(seed=55)
    report = run_policy_comparison(["always_reboot"], 500, cfg, seed=55)
    primaries = _generate_primaries(500, cfg)
    downtimes = []
    for _, draw, outs, _ in primaries:
        downtimes.extend([outs.y_reboot] * draw.signals.vm_count)
    assert report.rows["always_reboot"].avd_mean == pytest.approx(avd(downtimes), abs=1e-12)


def test_comparison_requires_model_for_engine():
    cfg = default_config(seed=56)
    with pytest.raises(InvalidArgument):
        run_policy_comparison(["engine"], 100, cfg, seed=0, model=None)


def test_counterfactual_partition_and_degenerate_agreement():
    cfg = default_config(seed=57)
    events, _ = generate_observational_dataset(300, cfg)
    # constant negative tau prefers Redeploy everywhere
    model = _constant_model(cfg.schema(), -3.0)
    redeploy_only = [make_event(i, 1.0, MitigationAction.REDEPLOY) for i in range(50)]
    rep = counterfactual_analysis(model, redeploy_only)
    assert rep.agree_fraction == 1.0
    assert rep.switch_to_reboot_fraction == 0.0
    assert rep.switch_to_redeploy_fraction == 0.0
    rep = counterfactual_analysis(model, events)
    total = rep.agree_fraction + rep.switch_to_reboot_fraction + rep.switch_to_redeploy_fraction
    assert total == pytest.approx(1.0, abs=1e-12)


def test_counterfactual_true_savings_positive(default_bundle):
    rep = counterfactual_analysis(
        default_bundle["model"], default_bundle["events"], default_bundle["truths"]
    )
    assert rep.switch_to_reboot_fraction > 0.0
    assert rep.switch_to_redeploy_fraction > 0.0
    assert rep.true_saving_to_reboot > 0.0
    assert rep.true_saving_to_redeploy > 0.0


def test_ab_experiment_sticky_groups(default_bundle):
    cfg = default_bundle["config"]
    result = run_ab_experiment(
        [("legacy", 0.5), ("engine", 0.5)],
        "module-ab",
        2000,
        cfg,
        seed=9,
        model=default_bundle["model"],
    )
    counts = result["assignment_counts"]
    assert counts["legacy"] + counts["engine"] == 2000
    assert 0.4 <= counts["legacy"] / 2000 <= 0.6
    assert set(result["groups"]) == {"legacy", "engine"}
    # engine group should beat legacy on downtime under the default config
    assert result["groups"]["engine"]["avd_mean"] < result["groups"]["legacy"]["avd_mean"]

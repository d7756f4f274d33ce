"""Acceptance suite: one test per shipped criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import dataclasses
import json
import subprocess
import sys
import time

import numpy as np

from nodemend.decisions import DecisionConfig, DecisionSource, assign_policy_group, decide
from nodemend.dml import (
    TrainConfig,
    assemble_model,
    final_stage_linear,
    psi_loss,
    residualize_dataset,
    estimate_ite_batch,
)
from nodemend.domain import DiagnosticSignals, IteEstimate, MitigationAction
from nodemend.evaluation import adjusted_effect, air, avd, naive_effect, run_policy_comparison
from nodemend.simulate import (
    generate_observational_dataset,
    recurrence_heavy_config,
    true_tau,
    two_regime_config,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_deconfounding(zero_bundle):
    t0 = time.monotonic()
    naive = naive_effect(zero_bundle["events"])
    adjusted = adjusted_effect(zero_bundle["model"], zero_bundle["events"])
    runtime = zero_bundle["elapsed_s"] + (time.monotonic() - t0)
    ok = abs(naive) >= 0.5 and abs(adjusted) <= 0.1 and runtime <= 60.0
    report(
        1,
        ok,
        f"zero-effect n=20000: |naive|={abs(naive):.3f} (>=0.5), "
        f"|adjusted|={abs(adjusted):.4f} (<=0.1), runtime={runtime:.1f}s (<=60)",
    )


def test_criterion_2_effect_recovery(const2_bundle, tworegime_bundle):
    t0 = time.monotonic()
    got = adjusted_effect(const2_bundle["forest_model"], const2_bundle["events"])
    ests = estimate_ite_batch(tworegime_bundle["model"], [e.signals for e in tworegime_bundle["test_events"]])
    tau_true = np.asarray(
        [true_tau(e.signals, tworegime_bundle["config"]) for e in tworegime_bundle["test_events"]]
    )
    rmse = float(np.sqrt(np.mean((np.asarray([e.tau for e in ests]) - tau_true) ** 2)))
    runtime = const2_bundle["elapsed_s"] + tworegime_bundle["elapsed_s"] + (time.monotonic() - t0)
    ok = 1.85 <= got <= 2.15 and rmse <= 1.5 and runtime <= 120.0
    report(
        2,
        ok,
        f"constant-effect adjusted={got:.3f} (in [1.85,2.15]), "
        f"two-regime RMSE={rmse:.3f} (<=1.5) on 500 held-out, runtime={runtime:.1f}s (<=120)",
    )


def test_criterion_3_model_ordering():
    wins = []
    details = []
    for seed in (300, 301, 302, 303, 304):
        cfg = two_regime_config(seed=seed)
        train_events, _ = generate_observational_dataset(4000, cfg)
        holdout, _ = generate_observational_dataset(1500, two_regime_config(seed=seed + 50))
        tc = TrainConfig(seed=seed)
        res, ol, pl = residualize_dataset(train_events, tc, cfg.schema())
        forest_model = assemble_model(res, ol, pl, tc, cfg.schema(), train_events)
        linear_model = assemble_model(res, ol, pl, dataclasses.replace(tc, final_stage="linear"), cfg.schema(), train_events)
        psi_f = psi_loss(forest_model, holdout)
        psi_l = psi_loss(linear_model, holdout)
        wins.append(psi_f < psi_l)
        details.append(f"seed {seed}: forest {psi_f:.3f} vs linear {psi_l:.3f}")
    ok = all(wins)
    report(3, ok, f"forest final stage beats linear {sum(wins)}/5 seeds ({'; '.join(details)})")


def test_criterion_4_ci_calibration(tworegime_bundle):
    ests = estimate_ite_batch(tworegime_bundle["model"], [e.signals for e in tworegime_bundle["test_events"]])
    tau_true = [true_tau(e.signals, tworegime_bundle["config"]) for e in tworegime_bundle["test_events"]]
    coverage = float(np.mean([e.tau_lower <= t <= e.tau_upper for e, t in zip(ests, tau_true)]))
    ok = 0.80 <= coverage <= 0.97
    report(4, ok, f"nominal 90% intervals cover true effect on {coverage:.1%} of 500 points (in [80%,97%])")


def test_criterion_5_policy_ordering(default_bundle):
    cfg = default_bundle["config"]
    rep = run_policy_comparison(
        ["random", "legacy", "always_reboot", "always_redeploy", "engine", "oracle"],
        10_000,
        cfg,
        seed=777,
        model=default_bundle["model"],
    )
    rows = rep.rows
    min_const = min(rows["always_reboot"].avd_mean, rows["always_redeploy"].avd_mean)
    ordering = rows["oracle"].avd_mean < rows["engine"].avd_mean < min_const < rows["random"].avd_mean
    conv = rows["engine"].convergence_events == 0
    air_gain = rows["engine"].air < rows["legacy"].air
    ok = ordering and conv and air_gain
    report(
        5,
        ok,
        f"AVD oracle {rows['oracle'].avd_mean:.2f} < engine {rows['engine'].avd_mean:.2f} "
        f"< min(const) {min_const:.2f} < random {rows['random'].avd_mean:.2f}; "
        f"engine conv={rows['engine'].convergence_events}; "
        f"engine AIR {rows['engine'].air:.0f} < legacy AIR {rows['legacy'].air:.0f}",
    )


def _sig(repeat_count=0, uncorrectable=False):
    return DiagnosticSignals(
        vm_count=2,
        has_important_workload=False,
        network_ok=True,
        error_code="none",
        repeat_count=repeat_count,
        uncorrectable_tag=uncorrectable,
        hardware_type="gen4_compute",
        session_type="standard",
    )


def _ite(tau, width):
    return IteEstimate(tau=tau, tau_lower=tau - width / 2, tau_upper=tau + width / 2, confidence_level=0.9)


def test_criterion_6_decision_truth_table():
    cfg = DecisionConfig()
    defaults_ok = (
        cfg.fallback_tau == 1.0
        and cfg.fallback_width == 15.0
        and cfg.capacity_tau == 1.0
        and cfg.repeat_threshold == 10
    )
    cases = [
        ((0, 0, 0), _ite(-8.0, 2.0), 0, DecisionSource.MODEL),
        ((0, 0, 1), _ite(-0.5, 2.0), 0, DecisionSource.CAPACITY_OVERRIDE),
        ((0, 1, 0), _ite(-1.0, 20.0), 0, DecisionSource.FALLBACK),
        ((0, 1, 1), _ite(-0.5, 20.0), 0, DecisionSource.FALLBACK),
        ((1, 0, 0), _ite(-8.0, 2.0), 11, DecisionSource.REPEAT_OVERRIDE),
        ((1, 0, 1), _ite(-0.5, 2.0), 11, DecisionSource.REPEAT_OVERRIDE),
        ((1, 1, 0), _ite(-1.0, 20.0), 11, DecisionSource.REPEAT_OVERRIDE),
        ((1, 1, 1), _ite(-0.5, 20.0), 11, DecisionSource.REPEAT_OVERRIDE),
    ]
    failures = []
    for combo, est, rc, expected in cases:
        got = decide(est, _sig(repeat_count=rc), cfg).source
        if got != expected:
            failures.append(f"{combo}: got {got}, want {expected}")
    ok = defaults_ok and not failures
    report(6, ok, f"all 8 trigger combinations honor precedence; shipped defaults (1, 15, 1, >10) verified"
           + (f"; failures: {failures}" if failures else ""))


HASH_VECTORS = [
    ("node-000001", "exp-rollout", 6924),
    ("node-000002", "exp-rollout", 2041),
    ("node-042c7f", "exp-rollout", 8953),
    ("node-000001", "pilot-a", 8503),
    ("nodeX", "pilot-a", 3035),
    ("", "empty-node", 15),
    ("node-deadbeef", "", 9264),
    ("node-7f3a2b1c", "regional-52", 4914),
    ("host-99", "regional-52", 7707),
    ("node-000123", "weekly-refresh", 6045),
]


def test_criterion_7_sticky_assignment():
    from nodemend.decisions import assignment_bucket

    groups = [("a", 0.5), ("b", 0.5)]
    counts = {"a": 0, "b": 0}
    first_pass = []
    for i in range(100_000):
        g = assign_policy_group(f"node-{i:06d}", "acceptance-ab", groups)
        counts[g] += 1
        if i < 1000:
            first_pass.append(g)
    balanced = 0.49 <= counts["a"] / 100_000 <= 0.51
    sticky = all(
        assign_policy_group(f"node-{i:06d}", "acceptance-ab", groups) == first_pass[i] for i in range(1000)
    )
    vectors_ok = all(assignment_bucket(n, e) == b for n, e, b in HASH_VECTORS)
    ok = balanced and sticky and vectors_ok
    report(
        7,
        ok,
        f"100k nodes split {counts['a'] / 1000:.1f}%/{counts['b'] / 1000:.1f}% (within [49,51]); "
        f"repeat assignment identical; 10 frozen hash vectors match",
    )


def test_criterion_8_exact_formula_oracles():
    checks = []
    checks.append(abs(avd([2.0, 4.0, 6.0]) - 4.0) < 1e-8)
    checks.append(abs(air(2, 100.0) - 730.0) < 1e-8)
    # psi on 4 hand rows with fixed nuisances and constant effect model
    from nodemend.dml import DmlModel, LinearTheta
    from nodemend.simulate import default_config

    schema = default_config().schema()

    class Const:
        def __init__(self, v):
            self.v = v

        def predict(self, X):
            return np.full(X.shape[0], self.v)

    rows = []
    for i, (y, a) in enumerate([(5.0, 1), (3.0, 0), (8.0, 1), (1.0, 0)]):
        from nodemend.domain import LabeledEvent

        rows.append(
            LabeledEvent(
                event_id=f"h{i}",
                node_id="n",
                timestamp=i,
                signals=_sig(),
                action=MitigationAction(a),
                avd=y,
                interruptions=1,
                blackout=0.0,
                unallocatable=0.0,
            )
        )
    model = DmlModel(
        schema=schema,
        outcome_learners=[Const(4.0), Const(4.0)],
        propensity_learners=[Const(0.5), Const(0.5)],
        forest=None,
        linear=LinearTheta(intercept=1.5, coef=np.zeros(schema.width)),
        train_config=TrainConfig(folds=2, final_stage="linear"),
        metadata={},
    )
    hand = np.mean([((y - 4.0) - 1.5 * (a - 0.5)) ** 2 for y, a in [(5.0, 1), (3.0, 0), (8.0, 1), (1.0, 0)]])
    checks.append(abs(psi_loss(model, rows) - hand) < 1e-8)
    # linear final stage on a 5-row exactly-determined design
    from nodemend.dml import ResidualData

    x = np.asarray([-2.0, -1.0, 0.0, 1.0, 2.0])
    X5 = np.zeros((5, 2))
    X5[:, 0] = x
    ra5 = np.asarray([0.5, -0.5, 0.5, -0.5, 0.5])
    theta = final_stage_linear(ResidualData(features=X5, ry=(1.0 + x) * ra5, ra=ra5))
    checks.append(abs(theta.intercept - 1.0) < 1e-8 and abs(theta.coef[0] - 1.0) < 1e-8)
    ok = all(checks)
    report(8, ok, f"avd, air, psi, linear-final-stage all match hand oracles to 1e-8 ({sum(checks)}/4)")


def test_criterion_9_repeat_override_efficacy():
    cfg = recurrence_heavy_config(seed=900)
    events, _ = generate_observational_dataset(6000, cfg)
    from nodemend.dml import train_dml

    model = train_dml(events, TrainConfig(seed=900), cfg.schema())
    on = run_policy_comparison(["engine"], 4000, cfg, seed=901, model=model, decision_config=DecisionConfig())
    off = run_policy_comparison(
        ["engine"],
        4000,
        cfg,
        seed=901,
        model=model,
        decision_config=DecisionConfig(repeat_threshold=10**9),
    )
    air_on = on.rows["engine"].air
    air_off = off.rows["engine"].air
    ok = air_on < air_off
    report(9, ok, f"recurrence-heavy config: engine AIR with override {air_on:.0f} < without {air_off:.0f}")


def test_criterion_10_end_to_end_reproducibility(tmp_path):
    config = {
        "seed": 1010,
        "sim": {"preset": "default"},
        "nuisance": {},
        "folds": 5,
        "forest": {},
        "decision": {},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    reports, models = [], []
    for run in ("r1", "r2"):
        d = tmp_path / run
        d.mkdir()
        cmds = [
            [
                "simulate",
                "--config",
                str(cfg_path),
                "--out",
                str(d / "events.jsonl"),
                "--truth",
                str(d / "truth.jsonl"),
                "--n",
                "2000",
            ],
            ["train", "--config", str(cfg_path), "--data", str(d / "events.jsonl"), "--out", str(d / "model.bin")],
            [
                "compare",
                "--config",
                str(cfg_path),
                "--model",
                str(d / "model.bin"),
                "--n",
                "2000",
                "--out",
                str(d / "report.json"),
            ],
        ]
        for cmd in cmds:
            proc = subprocess.run(
                [sys.executable, "-m", "nodemend.cli", *cmd], capture_output=True, text=True, timeout=300
            )
            assert proc.returncode == 0, f"{cmd[0]} failed: {proc.stderr}"
        reports.append((d / "report.json").read_bytes())
        models.append((d / "model.bin").read_bytes())
    identical = reports[0] == reports[1] and models[0] == models[1]
    report(
        10,
        identical,
        f"simulate→train→compare twice: report.json ({len(reports[0])} bytes) "
        f"and model.bin ({len(models[0])} bytes) byte-identical",
    )

import dataclasses
import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodemend import dml, evaluation
from nodemend.decisions import DecisionConfig, assign_policy_group, decide, legacy_policy, legacy_redeploys
from nodemend.dml import DmlModel, LinearTheta, TrainConfig, estimate_ite
from nodemend.domain import (
    DiagnosticSignals,
    LabeledEvent,
    MitigationAction,
    encode_matrix,
    keyed_uniforms,
    seed_for,
)
from nodemend.errors import DegenerateTreatment, InvalidArgument, MissingTruth
from nodemend.evaluation import (
    POLICY_NAMES,
    EnginePolicy,
    KpiRow,
    LegacyPolicy,
    _generate_primaries,
    adjusted_effect,
    air,
    avd,
    counterfactual_analysis,
    make_policy,
    naive_effect,
    nearest_rank_percentile,
    run_ab_experiment,
    run_policy_comparison,
)
from nodemend.forest import predict_interval
from nodemend.simulate import (
    PRESETS,
    PotentialOutcomes,
    box_muller,
    default_config,
    generate_observational_dataset,
    sample_event,
)
from nodemend.trees import PackedTrees

from conftest import StubGenerator, history_step, pcg64_stream, signal_columns
from reference_model import _draw_signals, potential_outcomes, reference_events


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
        linear=LinearTheta(intercept=c, coef=np.zeros(schema.width)),
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
    cfg = default_config(seed=55)
    report = run_policy_comparison(["always_reboot"], 500, cfg, seed=55)
    nodes, _, outcomes = _generate_primaries(500, cfg)
    downtimes = []
    for y, vm in zip(outcomes.y_reboot.tolist(), nodes.vm_count.tolist()):
        downtimes.extend([y] * vm)
    assert report.rows["always_reboot"].avd_mean == pytest.approx(avd(downtimes), abs=1e-12)


def test_harness_events_are_a_stream_apart_from_the_training_events():
    cfg = default_config(seed=55)
    _, signals, outcomes = _generate_primaries(300, cfg)
    events, truths = generate_observational_dataset(300, cfg)
    assert sum(s == e.signals for s, e in zip(signals.records(), events)) < 150
    assert not np.isin(outcomes.y_reboot, [t.y_reboot for t in truths]).any()


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


def test_counterfactual_refuses_truths_missing_an_event(default_bundle, monkeypatch):
    # checked before any estimate: the model is never asked
    monkeypatch.setattr(evaluation, "estimate_ite_batch", lambda *a, **k: pytest.fail("estimate_ite_batch ran"))
    events = default_bundle["events"]
    truths = [t for t in default_bundle["truths"] if t.event_id != events[7].event_id]
    with pytest.raises(MissingTruth, match=f"no record of event {events[7].event_id}$"):
        counterfactual_analysis(default_bundle["model"], events, truths)


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


def _choose_one(policy, signals, outcomes, ev_idx, step):
    """A policy's choice for one chain, as a batch of one."""
    column = PotentialOutcomes(*(np.array([getattr(outcomes, f.name)]) for f in dataclasses.fields(PotentialOutcomes)))
    actions, flags = policy.choose(signal_columns([signals]), column, np.array([ev_idx]), step)
    return MitigationAction(int(actions[0])), flags is not None and bool(flags[0])


def reference_run(policy, primaries, config, seed, chain_draws):
    """The harness loop one event at a time, each chain stepped to its end
    before the next event starts. ``chain_draws(ev_idx, step)`` gives the
    uniform that decides whether step ``step`` of event ``ev_idx``'s chain
    recurs and the generator that draws the recurrence's signals and
    outcomes; the repeat count comes from the chain's history of ticks."""
    per_vm_downtimes = []
    blackouts = []
    unallocs = []
    total_vms = 0
    interruptions = 0
    redeploys = 0
    samples = 0
    recurrences = 0
    capped = 0

    for ev_idx, draw, outs in primaries:
        signals = draw.signals
        outcomes = outs
        history = [0]
        chain_step = 0
        while True:
            samples += 1
            action, flagged = _choose_one(policy, signals, outcomes, ev_idx, chain_step)
            y, ints, blackout, unalloc = outcomes.for_action(action)
            if flagged:
                unalloc += config.investigation_hold
            if chain_step == 0:
                per_vm_downtimes.extend([y] * signals.vm_count)
                blackouts.append(blackout)
                unallocs.append(unalloc)
                total_vms += signals.vm_count
            interruptions += ints
            if action == MitigationAction.REDEPLOY:
                redeploys += 1

            if chain_step >= config.max_chain_length:
                capped += 1
                break
            u, chain_rng = chain_draws(ev_idx, chain_step)
            recurs, repeat_count, next_tick = history_step(history, action, draw.latent, config, u)
            if not recurs:
                break
            recurrences += 1
            chain_step += 1
            history.append(next_tick)
            signals = _draw_signals(draw.latent, signals.vm_count, repeat_count, config, chain_rng)
            outcomes = potential_outcomes(draw.latent, signals, config, chain_rng)

    downtimes = np.asarray(per_vm_downtimes, dtype=np.float64)
    unalloc_arr = np.asarray(unallocs, dtype=np.float64)
    positive_unalloc = unalloc_arr[unalloc_arr > 0]
    vm_lifetime_days = total_vms * config.horizon_days
    row = KpiRow(
        policy=policy.name,
        sample_count=samples,
        vm_count=total_vms,
        avd_mean=avd(downtimes),
        avd_p50=nearest_rank_percentile(downtimes, 50),
        avd_p75=nearest_rank_percentile(downtimes, 75),
        avd_p90=nearest_rank_percentile(downtimes, 90),
        avd_p99=nearest_rank_percentile(downtimes, 99),
        air=air(interruptions, vm_lifetime_days),
        blackout_mean=float(np.mean(blackouts)),
        unallocatable_rate=float((unalloc_arr > 0).mean()),
        unallocatable_mean=float(positive_unalloc.mean()) if positive_unalloc.size else 0.0,
        redeploy_count=redeploys,
        recurrence_events=recurrences,
        convergence_events=capped,
    )
    edges = np.linspace(0.0, 60.0, 31)
    counts, _ = np.histogram(np.clip(downtimes, 0, 59.999), bins=edges)
    hist = [(float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))]
    return row, hist


def pcg64_draws(seed):
    """The chain draws before they were keyed: every step seeds its own
    PCG64 stream for (event, step) (``pcg64_stream``); its first uniform
    decides the recurrence and the rest feed the recurrence's draws."""

    def chain_draws(ev_idx, step):
        rng = pcg64_stream(seed, 200, ev_idx, step)
        return rng.random(), rng

    return chain_draws


def keyed_draws(seed):
    """The keyed chain draws of (event, step), by slot: 0 decides the
    recurrence, 1 is the random policy's coin, 2-9 feed the signals, 10 the
    outcomes' uniform and 11-22 their normals in Box-Muller pairs."""

    def chain_draws(ev_idx, step):
        recur = float(keyed_uniforms(seed, ev_idx, step, 0))
        u = keyed_uniforms(seed, ev_idx, step + 1, np.arange(23))
        return recur, StubGenerator(u[2:11], box_muller(u[11:23]))

    return chain_draws


class _KeyedCoin:
    """The random policy as the keyed rule states it: Redeploy when the
    coin of (event, step), slot 1, falls below 0.5."""

    name = "random"

    def __init__(self, seed):
        self.seed = seed

    def choose(self, signals, outcomes, events, step):
        return np.array([int(float(keyed_uniforms(self.seed, events[0], step, 1)) < 0.5)]), None


def _reference_policy(name, seed, model, primaries, decision_config):
    if name == "random":
        return _KeyedCoin(seed)
    return make_policy(name, seed, model=model, decision_config=decision_config)


# Fields that aggregate over primary events only, and so do not depend on
# how chains draw: every policy but random keeps them bitwise from the
# per-step PCG64 streams.
PRIMARY_FIELDS = ("vm_count", "avd_mean", "avd_p50", "avd_p75", "avd_p90", "avd_p99", "blackout_mean",
                  "unallocatable_rate", "unallocatable_mean")


def _check_against_references(row, hist, name, model, subset, config, seed, decision_config):
    """``row`` (and ``hist``, unless None) equal the keyed reference's, and
    outside the random policy their primary fields equal the PCG64 one's."""
    keyed_row, keyed_hist = reference_run(
        _reference_policy(name, seed, model, subset, decision_config), subset, config, seed, keyed_draws(seed)
    )
    assert row == keyed_row
    assert hist in (None, keyed_hist)
    if name != "random":
        old_row, old_hist = reference_run(
            _reference_policy(name, seed, model, subset, decision_config), subset, config, seed, pcg64_draws(seed)
        )
        assert {f: getattr(row, f) for f in PRIMARY_FIELDS} == {f: getattr(old_row, f) for f in PRIMARY_FIELDS}
        assert keyed_hist == old_hist


@settings(max_examples=40)
@given(
    preset=st.sampled_from(["default", "recurrence_heavy", "two_regime", "vm_risk"]),
    seed=st.integers(0, 2**16),
    n=st.integers(1, 300),
    max_chain_length=st.sampled_from([0, 1, 2, 25]),
    policies=st.lists(st.sampled_from(POLICY_NAMES), min_size=1, max_size=len(POLICY_NAMES), unique=True),
    # a low repeat threshold makes the engine flag nodes unallocatable
    repeat_threshold=st.sampled_from([10, 1]),
    data=st.data(),
)
def test_harness_matches_reference_loop(default_bundle, preset, seed, n, max_chain_length, policies, repeat_threshold, data):
    model = default_bundle["model"]
    config = dataclasses.replace(PRESETS[preset](seed=seed), max_chain_length=max_chain_length)
    decisions = DecisionConfig(repeat_threshold=repeat_threshold)
    primaries = [(i, draw, outs) for i, draw, outs, _ in reference_events(n, config, seed_for(config.seed, 300))]

    report = run_policy_comparison(policies, n, config, seed, model=model, decision_config=decisions)
    assert list(report.rows) == policies
    for name in policies:
        _check_against_references(
            report.rows[name], report.downtime_histograms[name], name, model, primaries, config, seed, decisions
        )

    # no row depends on which policies run, or in what order
    reordered = data.draw(st.permutations(policies))
    again = run_policy_comparison(reordered, n, config, seed, model=model, decision_config=decisions)
    for name in policies:
        assert again.rows[name] == report.rows[name]
        assert again.downtime_histograms[name] == report.downtime_histograms[name]

    groups = [(name, 1.0) for name in policies]
    result = run_ab_experiment(groups, "reference", n, config, seed, model=model, decision_config=decisions)
    for name in policies:
        subset = [item for item in primaries if assign_policy_group(item[1].node_id, "reference", groups) == name]
        assert result["assignment_counts"][name] == len(subset)
        if not subset:
            assert name not in result["groups"]
            continue
        _check_against_references(KpiRow(**result["groups"][name]), None, name, model, subset, config, seed, decisions)


def test_comparison_refuses_empty_or_repeated_policies():
    cfg = default_config(seed=58)
    for policies in ([], ["legacy", "legacy"]):
        with pytest.raises(InvalidArgument, match="policies"):
            run_policy_comparison(policies, 50, cfg, seed=0)
    with pytest.raises(InvalidArgument, match="group names"):
        run_ab_experiment([("legacy", 1.0), ("legacy", 1.0)], "dup", 50, cfg, seed=0)


@pytest.mark.parametrize(
    "policies,cause",
    [
        (["legacy", "oracle", "bogus"], "unknown policy 'bogus'"),
        (["legacy", "engine"], "engine policy needs a trained model"),
        (["bogus", "engine"], "unknown policy 'bogus'"),
        (["engine", "engine"], "must be a non-empty list of distinct names"),
    ],
)
def test_runners_check_the_policy_list_before_any_draw(monkeypatch, policies, cause):
    for name in ("_generate_primaries", "_run_one_policy"):
        monkeypatch.setattr(evaluation, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    cfg = default_config(seed=59)
    with pytest.raises(InvalidArgument, match=cause):
        run_policy_comparison(policies, 50, cfg, seed=0, model=None)
    with pytest.raises(InvalidArgument, match=cause):
        run_ab_experiment([(name, 1.0) for name in policies], "early", 50, cfg, seed=0, model=None)


@settings(max_examples=25)
@given(
    picks=st.lists(st.integers(0, 39), min_size=1, max_size=40),
    extra=st.lists(st.integers(0, 79), min_size=1, max_size=20),
    repeat_threshold=st.sampled_from([10, 1]),
    # the shipped fallback, and one wide enough that most rows fall back
    fallback=st.sampled_from([(1.0, 15.0), (50.0, 0.1)]),
    data=st.data(),
)
def test_engine_decides_each_row_as_decide_does_and_estimates_it_once(default_bundle, picks, extra, repeat_threshold, fallback, data):
    # duplicated and shuffled batches, as the harness hands them over: the
    # primaries, then one batch per chain step. The engine keeps no state
    # between steps, so "once" holds within a step: each distinct row of a
    # step is predicted once
    model = default_bundle["model"]
    pool = [e.signals for e in default_bundle["events"][:80]]
    rows = [pool[i] for i in picks]
    batches = [rows, data.draw(st.permutations(rows)), [pool[i] for i in extra]]
    cfg = DecisionConfig(repeat_threshold=repeat_threshold, fallback_tau=fallback[0], fallback_width=fallback[1])
    # the rows the engine asks an interval for, and the rows the forest walks
    asked, walked = [], []
    leaves = PackedTrees.leaves

    def spy_interval(forest, X):
        asked.append(X)
        return predict_interval(forest, X)

    def spy_leaves(trees, X):
        walked.append(X)
        return leaves(trees, X)

    policy = EnginePolicy(model, cfg)
    for step, batch in enumerate(batches):
        with mock.patch.object(dml, "predict_interval", spy_interval), mock.patch.object(PackedTrees, "leaves", spy_leaves):
            actions, flags = policy.choose(signal_columns(batch), None, np.arange(len(batch)), step)
        expected = [decide(estimate_ite(model, s), s, cfg) for s in batch]
        assert actions.tolist() == [int(d.action) for d in expected]
        assert flags.tolist() == [d.unallocatable_flag for d in expected]
        X = encode_matrix(batch, model.schema)
        (interval_rows,) = asked
        (predicted,) = walked
        asked.clear()
        walked.clear()
        assert np.array_equal(interval_rows, X)
        assert Counter(map(tuple, predicted.tolist())) == Counter(set(map(tuple, X.tolist())))
    assert set(vars(policy)) == {"model", "cfg"}


def test_legacy_columns_equal_the_legacy_policy_per_record():
    cfg = default_config(seed=60)
    events, _ = generate_observational_dataset(2000, cfg)
    _, drawn = sample_event(np.arange(2000), cfg, 61)
    for columns in (signal_columns([e.signals for e in events]), drawn):
        # the rule written out: hardware evidence means Redeploy
        want = [int(s.uncorrectable_tag or s.error_code == "hw_failure") for s in columns.records()]
        assert want == [int(legacy_policy(s)) for s in columns.records()]
        assert 0 < sum(want) < len(want)
        assert legacy_redeploys(columns).astype(np.int64).tolist() == want
        actions, flags = LegacyPolicy().choose(columns, None, np.arange(len(want)), 0)
        assert actions.tolist() == want and flags is None


def test_the_harness_builds_no_signal_records(default_bundle):
    cfg = default_bundle["config"]
    model = default_bundle["model"]
    with mock.patch.object(DiagnosticSignals, "__post_init__", side_effect=AssertionError("a DiagnosticSignals was built")):
        with pytest.raises(AssertionError):
            make_event(0, 1.0, MitigationAction.REBOOT)  # the patch is live
        report = run_policy_comparison(list(POLICY_NAMES), 800, cfg, seed=3, model=model)
        result = run_ab_experiment([(name, 1.0) for name in POLICY_NAMES], "columns", 800, cfg, seed=3, model=model)
    assert list(report.rows) == list(POLICY_NAMES)
    assert set(result["groups"]) == set(POLICY_NAMES)

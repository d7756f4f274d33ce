from dataclasses import fields

import numpy as np
import pytest

from nodemend.decisions import legacy_policy
from nodemend.domain import MitigationAction, from_record, to_record
from nodemend.errors import InvalidArgument
from nodemend.simulate import (
    EFFECT_STRUCTURAL,
    OUTCOME_NORMALS,
    OUTCOME_UNIFORMS,
    PRESETS,
    SIGNAL_UNIFORMS,
    Cause,
    EventStream,
    LatentNodeState,
    PotentialOutcomes,
    SimConfig,
    _draw_signals,
    default_config,
    draw_signal_columns,
    generate_observational_dataset,
    legacy_assignment,
    potential_outcome_columns,
    potential_outcomes,
    recurrence_heavy_config,
    sample_event,
    step_node,
    two_regime_config,
    zero_effect_config,
)

from conftest import StubGenerator, history_step


def fresh_rng(seed=0):
    return np.random.default_rng(seed)


def test_degenerate_cause_distribution():
    cfg = SimConfig(seed=1, cause_probs=(1.0, 0.0, 0.0))
    state = EventStream.from_config(cfg)
    for _ in range(200):
        draw = sample_event(state)
        assert draw.latent.cause == Cause.TRANSIENT_FALSE_ALARM


def test_degenerate_missing_rate():
    cfg = SimConfig(seed=2, error_code_missing_rate=1.0)
    state = EventStream.from_config(cfg)
    for _ in range(200):
        assert sample_event(state).signals.error_code is None


def test_stream_determinism():
    cfg = default_config(seed=99)
    a = [sample_event(EventStream.from_config(cfg)) for _ in range(1)]
    s1, s2 = EventStream.from_config(cfg), EventStream.from_config(cfg)
    for _ in range(300):
        assert sample_event(s1) == sample_event(s2)


def test_transient_reboot_beats_redeploy_in_expectation():
    # Monte-Carlo mean comparison; oracle values computed from the raw
    # log-normal families give E[y_rb] ~= 2.27 vs E[y_rd] ~= 8.17.
    cfg = SimConfig(seed=3, cause_probs=(1.0, 0.0, 0.0))
    state = EventStream.from_config(cfg)
    n = 100_000
    rb = np.empty(n)
    rd = np.empty(n)
    for i in range(n):
        draw = sample_event(state)
        out = potential_outcomes(draw.latent, draw.signals, cfg, state.rng)
        rb[i] = out.y_reboot
        rd[i] = out.y_redeploy
    assert rb.mean() < rd.mean()
    assert rb.mean() == pytest.approx(2.27, rel=0.05)
    assert rd.mean() == pytest.approx(8.18, rel=0.05)


def test_forced_reboot_failure_doubles_interruptions():
    cfg = SimConfig(seed=4, hardware_reboot_fail_prob=1.0)
    state = EventStream.from_config(cfg)
    latent = LatentNodeState(cause=Cause.HARDWARE_FAULT, severity=0.7)
    for _ in range(50):
        draw = sample_event(state)
        out = potential_outcomes(latent, draw.signals, cfg, state.rng)
        assert out.interruptions_reboot == 2 * draw.signals.vm_count
        assert out.interruptions_redeploy == draw.signals.vm_count


def test_reboot_downtime_is_bimodal():
    # Histogram-valley oracle: with the default mixture the density in the
    # [8, 14] valley is far below both mode bands [1, 3] and [25, 45].
    cfg = default_config(seed=5)
    state = EventStream.from_config(cfg)
    n = 100_000
    y = np.empty(n)
    for i in range(n):
        draw = sample_event(state)
        y[i] = potential_outcomes(draw.latent, draw.signals, cfg, state.rng).y_reboot
    short = ((y >= 1.0) & (y <= 3.0)).mean() / 2.0
    valley = ((y >= 8.0) & (y <= 14.0)).mean() / 6.0
    longm = ((y >= 25.0) & (y <= 45.0)).mean() / 20.0
    assert valley < 0.5 * min(short, longm)


def test_legacy_forced_rules():
    cfg = SimConfig(seed=6, legacy_flip_prob=0.0)
    rng = fresh_rng()
    state = EventStream.from_config(cfg)
    saw_redeploy = saw_reboot = False
    for _ in range(500):
        s = sample_event(state).signals
        a = legacy_assignment(s, cfg, rng)
        assert a == legacy_policy(s)
        if s.uncorrectable_tag or s.error_code == "hw_failure":
            assert a == MitigationAction.REDEPLOY
            saw_redeploy = True
        else:
            assert a == MitigationAction.REBOOT
            saw_reboot = True
    assert saw_redeploy and saw_reboot


def test_legacy_flip_half_is_a_coin():
    cfg = SimConfig(seed=7, legacy_flip_prob=0.5)
    rng = fresh_rng(17)
    state = EventStream.from_config(cfg)
    picks = []
    for _ in range(10_000):
        s = sample_event(state).signals
        if s.uncorrectable_tag or s.error_code == "hw_failure":
            continue
        picks.append(int(legacy_assignment(s, cfg, rng)))
    frac = np.mean(picks)
    assert abs(frac - 0.5) <= 0.02


def test_dataset_single_draw_matches_truth():
    events, truths = generate_observational_dataset(1, default_config(seed=8))
    assert len(events) == len(truths) == 1
    ev, tr = events[0], truths[0]
    expected = tr.y_redeploy if ev.action == MitigationAction.REDEPLOY else tr.y_reboot
    assert ev.avd == expected


def test_dataset_factual_consistency_and_determinism():
    cfg = default_config(seed=9)
    events, truths = generate_observational_dataset(800, cfg)
    events2, truths2 = generate_observational_dataset(800, cfg)
    assert events == events2
    assert truths == truths2
    by_id = {t.event_id: t for t in truths}
    for ev in events:
        t = by_id[ev.event_id]
        expected = t.y_redeploy if ev.action == MitigationAction.REDEPLOY else t.y_reboot
        assert ev.avd == expected


def test_dataset_rejects_nonpositive_n():
    with pytest.raises(InvalidArgument):
        generate_observational_dataset(0, default_config())


def test_dataset_at_production_training_scale():
    # one month of production logs is on the order of 20218 events
    events, truths = generate_observational_dataset(20_218, default_config(seed=77))
    assert len(events) == 20_218
    assert len(truths) == 20_218
    assert len({e.event_id for e in events}) == 20_218


def test_assignment_rates_overall_and_per_hardware_stratum():
    cfg = default_config(seed=10)
    events, _ = generate_observational_dataset(20_000, cfg)
    acts = np.array([int(e.action) for e in events])
    assert 0.05 < acts.mean() < 0.95
    for hw in cfg.hardware_types:
        rows = [int(e.action) for e in events if e.signals.hardware_type == hw]
        assert len(rows) >= 30
        frac = np.mean(rows)
        assert 0.05 < frac < 0.95


def test_overlap_within_signal_strata():
    # Empirical propensity in (0, 1) for every stratum with >= 30 samples.
    cfg = default_config(seed=23)
    events, _ = generate_observational_dataset(20_000, cfg)
    strata: dict = {}
    for e in events:
        key = (e.signals.uncorrectable_tag, e.signals.error_code, e.signals.hardware_type)
        strata.setdefault(key, []).append(int(e.action))
    checked = 0
    for key, acts in strata.items():
        if len(acts) < 30:
            continue
        checked += 1
        frac = np.mean(acts)
        assert 0.0 < frac < 1.0, key
    assert checked >= 5


def test_confounding_by_construction_zero_effect():
    # With zero true effect the naive actual-vs-actual gap stays large.
    cfg = zero_effect_config(seed=11)
    events, truths = generate_observational_dataset(20_000, cfg)
    for t in truths:
        assert t.y_reboot == t.y_redeploy
    y = np.array([e.avd for e in events])
    a = np.array([int(e.action) for e in events])
    naive = y[a == 1].mean() - y[a == 0].mean()
    assert abs(naive) >= 0.5


def test_two_regime_effect_is_exact():
    cfg = two_regime_config(seed=12)
    events, truths = generate_observational_dataset(2_000, cfg)
    by_id = {t.event_id: t for t in truths}
    for ev in events:
        t = by_id[ev.event_id]
        expected = 5.0 if ev.signals.vm_count < cfg.regime_vm_threshold else -5.0
        assert t.y_redeploy - t.y_reboot == pytest.approx(expected, abs=1e-12)
        assert t.y_redeploy >= 0.0


REBOOT, REDEPLOY = int(MitigationAction.REBOOT), int(MitigationAction.REDEPLOY)
HW, SW, TRANSIENT = int(Cause.HARDWARE_FAULT), int(Cause.SOFTWARE_FAULT), int(Cause.TRANSIENT_FALSE_ALARM)


def test_step_node_forced_branches():
    cfg = SimConfig(seed=13, hw_reboot_recur_prob=1.0, background_recur_prob=0.0)
    u = fresh_rng(3).random(4)
    step = step_node(0, np.array([REBOOT, REDEPLOY, REBOOT, REDEPLOY]), np.array([HW, HW, SW, TRANSIENT]), cfg, u)
    assert step.recurrence.tolist() == [True, False, False, False]


def test_step_node_recurs_only_below_the_probability():
    cfg = SimConfig(seed=13, hw_reboot_recur_prob=0.9, background_recur_prob=0.0)
    u = np.array([np.nextafter(0.9, 0.0), 0.9, 0.0])
    step = step_node(0, np.array([REBOOT, REBOOT, REDEPLOY]), np.array([HW, HW, HW]), cfg, u)
    assert step.recurrence.tolist() == [True, False, False]


def test_step_node_repeat_count_arms_override():
    cfg = SimConfig(seed=14, hw_reboot_recur_prob=1.0)
    rng = fresh_rng(5)
    repeat = 0
    for chain_step in range(12):
        step = step_node(chain_step, np.array([REBOOT]), np.array([HW]), cfg, rng.random(1))
        assert step.recurrence.all()
        repeat = step.repeat_count
    assert repeat > 10


def test_step_node_requires_history():
    # a chain holds at least the event just mitigated: step 0 is the primary
    cfg = default_config()
    with pytest.raises(InvalidArgument):
        step_node(-1, np.array([REBOOT]), np.array([HW]), cfg, fresh_rng().random(1))


@pytest.mark.parametrize(
    "cfg",
    [
        default_config(),
        recurrence_heavy_config(),
        SimConfig(recurrence_delay_days=0.3, repeat_window_days=2.0, ticks_per_day=7),
        SimConfig(recurrence_delay_days=3.0, repeat_window_days=1.0),
        SimConfig(recurrence_delay_days=0.0),
    ],
)
def test_step_node_repeat_count_is_the_window_count_over_the_chain_history(cfg):
    # recurrences come recurrence_delay_ticks apart, so counting the
    # chain's history inside the trailing window reduces to a closed form
    latent = LatentNodeState(Cause.HARDWARE_FAULT, 0.5)
    history = [1234]
    for chain_step in range(40):
        u = fresh_rng(chain_step).random()
        recurs, repeat_count, next_tick = history_step(history, MitigationAction.REBOOT, latent, cfg, u)
        step = step_node(chain_step, np.array([REBOOT]), np.array([HW]), cfg, np.array([u]))
        assert (step.repeat_count, bool(step.recurrence[0])) == (repeat_count, recurs)
        history.append(next_tick)


def _column_draws(n, seed, uniforms, normals):
    rng = fresh_rng(seed)
    return rng.random((uniforms, n)), rng.normal(size=(normals, n))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_column_draws_equal_the_scalar_draws_row_by_row(preset):
    # the scalar draws, fed row i's uniforms and normals in the order they
    # consume them, give row i of the column-wise draws exactly
    cfg = PRESETS[preset](seed=31)
    n = 2000
    state = EventStream.from_config(cfg)
    draws = [sample_event(state) for _ in range(n)]
    cause = np.array([int(d.latent.cause) for d in draws])
    severity = np.array([d.latent.severity for d in draws])
    vm = np.array([d.signals.vm_count for d in draws])
    u, _ = _column_draws(n, 32, SIGNAL_UNIFORMS, 0)
    columns = draw_signal_columns(cause, severity, vm, 7, cfg, u)
    scalar = [_draw_signals(d.latent, d.signals.vm_count, 7, cfg, StubGenerator(u[:, i])) for i, d in enumerate(draws)]
    assert columns == scalar
    assert len({s.error_code for s in columns}) > 2  # the draws reach several branches

    u, z = _column_draws(n, 33, OUTCOME_UNIFORMS, OUTCOME_NORMALS)
    out = potential_outcome_columns(cause, severity, vm, cfg, u, z)
    for i, d in enumerate(draws):
        one = potential_outcomes(d.latent, d.signals, cfg, StubGenerator(u[:, i], z[:, i]))
        assert one == PotentialOutcomes(*(getattr(out, f.name)[i].item() for f in fields(PotentialOutcomes))), i
    if cfg.effect_kind == EFFECT_STRUCTURAL:
        assert 0 < (out.interruptions_reboot > vm).sum() < n  # both reboot branches


def test_config_dict_round_trip_and_fail_closed():
    cfg = two_regime_config(seed=21)
    d = to_record(cfg)
    assert from_record(SimConfig, d) == cfg
    d["no_such_knob"] = 1
    with pytest.raises(InvalidArgument):
        from_record(SimConfig, d)


def test_config_validation():
    with pytest.raises(InvalidArgument):
        SimConfig(cause_probs=(0.5, 0.2, 0.2))
    with pytest.raises(InvalidArgument):
        SimConfig(base_log_sigma=0.0)
    with pytest.raises(InvalidArgument):
        SimConfig(effect_kind="quadratic")

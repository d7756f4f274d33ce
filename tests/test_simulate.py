import hashlib
import math
from dataclasses import fields

import numpy as np
import pytest

from nodemend import modelio
from nodemend.decisions import legacy_policy
from nodemend.domain import MitigationAction, encode_matrix, from_record, keyed_uniforms, seed_for, to_record
from nodemend.errors import InvalidArgument
from nodemend.simulate import (
    EFFECT_STRUCTURAL,
    OUTCOME_SLOTS,
    PRESETS,
    SIGNAL_SLOTS,
    Cause,
    Nodes,
    SimConfig,
    box_muller,
    capped_poisson,
    draw_signals,
    generate_observational_dataset,
    potential_outcomes,
    preset,
    sample_event,
    step_node,
)

from conftest import StubGenerator, history_step
from reference_model import LatentNodeState, _draw_signals, reference_events
from reference_model import potential_outcomes as scalar_outcomes


def fresh_rng(seed=0):
    return np.random.default_rng(seed)


def test_degenerate_cause_distribution():
    cfg = SimConfig(seed=1, cause_probs=(1.0, 0.0, 0.0))
    nodes, _ = sample_event(np.arange(200), cfg, cfg.seed)
    assert (nodes.cause == Cause.TRANSIENT_FALSE_ALARM).all()


def test_degenerate_missing_rate():
    cfg = SimConfig(seed=2, error_code_missing_rate=1.0)
    _, signals = sample_event(np.arange(200), cfg, cfg.seed)
    assert all(s.error_code is None for s in signals.records())


def test_stream_determinism():
    # every draw is a pure function of its key: the same in any batch
    cfg = SimConfig(seed=99)
    events = np.arange(300)
    nodes, signals = sample_event(events, cfg, cfg.seed)
    again, signals_again = sample_event(events, cfg, cfg.seed)
    assert signals.records() == signals_again.records()
    assert all((getattr(nodes, f.name) == getattr(again, f.name)).all() for f in fields(Nodes))
    picked = np.array([299, 3, 150])
    sub_nodes, sub_signals = sample_event(picked, cfg, cfg.seed)
    assert sub_signals.records() == [signals.records()[i] for i in picked]
    assert (sub_nodes.severity == nodes.severity[picked]).all()
    out = potential_outcomes(nodes, cfg, cfg.seed, 0)
    sub_out = potential_outcomes(nodes[picked], cfg, cfg.seed, 0)
    assert (sub_out.y_reboot == out.y_reboot[picked]).all()
    _, other = sample_event(events, cfg, cfg.seed + 1)
    assert other.records() != signals.records()


def _outcomes(cfg, n):
    nodes, _ = sample_event(np.arange(n), cfg, cfg.seed)
    return potential_outcomes(nodes, cfg, cfg.seed, 0)


def test_transient_reboot_beats_redeploy_in_expectation():
    # Monte-Carlo mean comparison; oracle values computed from the raw
    # log-normal families give E[y_rb] ~= 2.27 vs E[y_rd] ~= 8.17.
    cfg = SimConfig(seed=3, cause_probs=(1.0, 0.0, 0.0))
    out = _outcomes(cfg, 100_000)
    rb, rd = out.y_reboot, out.y_redeploy
    assert rb.mean() < rd.mean()
    assert rb.mean() == pytest.approx(2.27, rel=0.05)
    assert rd.mean() == pytest.approx(8.18, rel=0.05)


def test_forced_reboot_failure_doubles_interruptions():
    cfg = SimConfig(seed=4, hardware_reboot_fail_prob=1.0)
    drawn, _ = sample_event(np.arange(50), cfg, cfg.seed)
    nodes = Nodes(drawn.events, np.full(50, int(Cause.HARDWARE_FAULT)), np.full(50, 0.7), drawn.vm_count)
    out = potential_outcomes(nodes, cfg, cfg.seed, 0)
    assert (out.interruptions_reboot == 2 * nodes.vm_count).all()
    assert (out.interruptions_redeploy == nodes.vm_count).all()


def test_reboot_downtime_is_bimodal():
    # Histogram-valley oracle: with the default mixture the density in the
    # [8, 14] valley is far below both mode bands [1, 3] and [25, 45].
    y = _outcomes(SimConfig(seed=5), 100_000).y_reboot
    short = ((y >= 1.0) & (y <= 3.0)).mean() / 2.0
    valley = ((y >= 8.0) & (y <= 14.0)).mean() / 6.0
    longm = ((y >= 25.0) & (y <= 45.0)).mean() / 20.0
    assert valley < 0.5 * min(short, longm)


def test_legacy_forced_rules():
    cfg = SimConfig(seed=6, legacy_flip_prob=0.0)
    events, _ = generate_observational_dataset(500, cfg)
    saw_redeploy = saw_reboot = False
    for e in events:
        s, a = e.signals, e.action
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
    events, _ = generate_observational_dataset(10_000, cfg)
    picks = [int(e.action) for e in events if not (e.signals.uncorrectable_tag or e.signals.error_code == "hw_failure")]
    frac = np.mean(picks)
    assert abs(frac - 0.5) <= 0.02


def test_dataset_single_draw_matches_truth():
    events, truths = generate_observational_dataset(1, SimConfig(seed=8))
    assert len(events) == len(truths) == 1
    ev, tr = events[0], truths[0]
    expected = tr.y_redeploy if ev.action == MitigationAction.REDEPLOY else tr.y_reboot
    assert ev.avd == expected


def test_dataset_factual_consistency_and_determinism():
    cfg = SimConfig(seed=9)
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
        generate_observational_dataset(0, SimConfig())


def test_dataset_at_production_training_scale():
    # one month of production logs is on the order of 20218 events
    events, truths = generate_observational_dataset(20_218, SimConfig(seed=77))
    assert len(events) == 20_218
    assert len(truths) == 20_218
    assert len({e.event_id for e in events}) == 20_218


def test_assignment_rates_overall_and_per_hardware_stratum():
    cfg = SimConfig(seed=10)
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
    cfg = SimConfig(seed=23)
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
    cfg = preset("zero_effect", 11)
    events, truths = generate_observational_dataset(20_000, cfg)
    for t in truths:
        assert t.y_reboot == t.y_redeploy
    y = np.array([e.avd for e in events])
    a = np.array([int(e.action) for e in events])
    naive = y[a == 1].mean() - y[a == 0].mean()
    assert abs(naive) >= 0.5


def test_two_regime_effect_is_exact():
    cfg = preset("two_regime", 12)
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
    cfg = SimConfig()
    with pytest.raises(InvalidArgument):
        step_node(-1, np.array([REBOOT]), np.array([HW]), cfg, fresh_rng().random(1))


@pytest.mark.parametrize(
    "cfg",
    [
        SimConfig(),
        preset("recurrence_heavy"),
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


def _scalar_row(out):
    return tuple(getattr(out, f.name) for f in fields(out))


def _column_row(out, i):
    return tuple(getattr(out, f.name)[i].item() for f in fields(out))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_column_draws_equal_the_scalar_draws_row_by_row(name):
    # the scalar model, fed each event's keyed uniforms in the order it
    # consumes them, gives every row of the column draws exactly
    cfg = preset(name, 31)
    n = 2000
    for seed in (cfg.seed, seed_for(cfg.seed, 300)):  # the dataset's stream and the harness's
        reference = reference_events(n, cfg, seed)
        nodes, columns = sample_event(np.arange(n), cfg, seed)
        signals = columns.records()
        out = potential_outcomes(nodes, cfg, seed, 0)
        assert signals == [draw.signals for _, draw, _, _ in reference]
        assert nodes.cause.tolist() == [int(draw.latent.cause) for _, draw, _, _ in reference]
        for i, (_, _, one, _) in enumerate(reference):
            assert _scalar_row(one) == _column_row(out, i), i
    events, truths = generate_observational_dataset(n, cfg)
    for e, t, (_, draw, one, action) in zip(events, truths, reference_events(n, cfg, cfg.seed)):
        assert (e.signals, e.action, e.node_id) == (draw.signals, action, draw.node_id)
        assert (e.avd, e.interruptions, e.blackout, e.unallocatable) == one.for_action(action)
        assert (t.y_reboot, t.y_redeploy) == (one.y_reboot, one.y_redeploy)
    assert len({s.error_code for s in signals}) > 2  # the draws reach several branches
    assert len({s.repeat_count for s in signals}) > 2

    # a recurrence at step 3 draws its signals and outcomes on the same slots
    step = 3
    u = keyed_uniforms(7, nodes.events, step, np.arange(OUTCOME_SLOTS[-1, 0] + 1)[:, None])
    columns = draw_signals(nodes, 5, cfg, 7, step).records()
    out = potential_outcomes(nodes, cfg, 7, step)
    for i, (_, draw, _, _) in enumerate(reference):
        rng = StubGenerator(u[SIGNAL_SLOTS[:, 0], i].tolist() + u[OUTCOME_SLOTS[:1, 0], i].tolist(), box_muller(u[OUTCOME_SLOTS[1:, 0], i]))
        one = _draw_signals(draw.latent, draw.signals.vm_count, 5, cfg, rng)
        assert columns[i] == one
        assert _scalar_row(scalar_outcomes(draw.latent, one, cfg, rng)) == _column_row(out, i)
    if cfg.effect_kind == EFFECT_STRUCTURAL:
        assert 0 < (out.interruptions_reboot > nodes.vm_count).sum() < n  # both reboot branches


def test_drawn_columns_encode_as_their_records():
    cfg = preset("recurrence_heavy", 32)
    nodes, columns = sample_event(np.arange(500), cfg, cfg.seed)
    for signals in (columns, draw_signals(nodes, 4, cfg, cfg.seed, 2)):
        assert encode_matrix(signals, cfg.schema()).tobytes() == encode_matrix(signals.records(), cfg.schema()).tobytes()


def test_dataset_prefix_does_not_depend_on_its_size():
    cfg = SimConfig(seed=41)
    short, short_truths = generate_observational_dataset(300, cfg)
    long, long_truths = generate_observational_dataset(1000, cfg)
    for a, b in zip(short, long):
        assert (a.signals, a.action, a.avd) == (b.signals, b.action, b.avd)
    assert short_truths == long_truths[:300]


def test_capped_poisson_equals_the_scalar_inversion_loop():
    rng = fresh_rng(42)
    lam = np.concatenate([np.full(500, 0.3), np.full(500, 0.7), 0.5 + 3.0 * rng.random(1000)])
    u = rng.random(lam.size)
    u[:3] = (0.0, np.nextafter(1.0, 0.0), 0.999999)
    for cap in (0, 2, 30):
        scalar = [min(StubGenerator([ui]).poisson(li), cap) for li, ui in zip(lam.tolist(), u.tolist())]
        assert capped_poisson(lam, cap, u).tolist() == scalar


@pytest.mark.parametrize("lam", [0.3, 0.7, 3.5])
@pytest.mark.parametrize("cap", [2, 30])
def test_capped_poisson_frequencies_match_the_distribution(lam, cap):
    n = 100_000
    counts = capped_poisson(np.full(n, lam), cap, fresh_rng(43).random(n))
    for k in range(6):
        pmf = math.exp(-lam) * lam**k / math.factorial(k)
        if k == cap:
            pmf = 1.0 - sum(math.exp(-lam) * lam**j / math.factorial(j) for j in range(cap))
        elif k > cap:
            pmf = 0.0
        freq = float((counts == k).mean())
        assert abs(freq - pmf) <= 5.0 * math.sqrt(pmf * (1.0 - pmf) / n) + 1e-12, (k, freq, pmf)
    assert counts.max() <= cap


def test_config_dict_round_trip_and_fail_closed():
    cfg = preset("two_regime", 21)
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


# sha256 of the events and truth files of 300 events of each preset at seed
# 31, pinned for this environment's numpy: a change to any draw, any preset
# override or the file layout moves them
PRESET_BYTES = {
    "constant_effect": (
        "869624e9c05cda25238697aae4e9a17922591c90a1c28458c394fbe2dc161907",
        "2729658a9a89474b731762e1ae9c73440bebfacb2b2303e242738a79873f8a4c",
    ),
    "default": (
        "97c7ee58337fd547fac707ecbf989223f5bb3b36e4569610aaea5adec4930dfc",
        "eaed401e8e487d4386f7aeb28d0948bbcf322ba1f3fbe9f18b85e032d88033bc",
    ),
    "recurrence_heavy": (
        "371ba62eb0b27513088e7c7cee22bb9cced3dd23198669170175dbe5eee4853c",
        "c3397b432f445e94df5692a3eee7b02544fc4e742798aa65038f749ef55c0c84",
    ),
    "two_regime": (
        "cbe83eaa428896283d539d3f8141da679706ed24251753cde547627c626a11fb",
        "8d7a2dec1e2fbd1c21855439d90e4cf10cfd7d4d8d4bd362c51416b304f1507c",
    ),
    "vm_risk": (
        "c897d771cdfcf47722323922001e050030c4f05234fcd883ff696e90834a9417",
        "0692ec2a605e550c54284eddd78691729da89c1542acc980204595fd0d683e88",
    ),
    "zero_effect": (
        "837f69de8c07d63f67333f4d268d0ce0289b6269c8e6c987fc681df714078216",
        "66ccc07d94330175ef1a274e65f98eca231caf951cc4d25ad44c2cab214c8a36",
    ),
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_writes_its_pinned_bytes(tmp_path, name):
    events, truths = generate_observational_dataset(300, preset(name, 31))
    modelio.write_events_jsonl(events, str(tmp_path / "events.jsonl"))
    modelio.write_truth_jsonl(truths, str(tmp_path / "truth.jsonl"))
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in ("events.jsonl", "truth.jsonl"))
    assert digests == PRESET_BYTES[name], f"numpy {np.__version__}"

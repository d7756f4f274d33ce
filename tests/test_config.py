import dataclasses
import json

import pytest

from nodemend.cli import main
from nodemend.config import load_experiment_config, parse_experiment_config
from nodemend.errors import ConfigError
from nodemend.simulate import PRESETS, SimConfig


def minimal(**over):
    raw = {"seed": 7}
    raw.update(over)
    return raw


def test_defaults_apply():
    cfg = parse_experiment_config(minimal())
    assert cfg.seed == 7
    assert cfg.sim.seed == 7
    assert cfg.train.folds == 5
    assert cfg.train.final_stage == "forest"
    assert cfg.train.forest.bags == 25
    assert cfg.train.forest.trees_per_bag == 8
    assert cfg.train.learner.rounds == 200
    assert cfg.decision.fallback_tau == 1.0
    assert cfg.decision.fallback_width == 15.0
    assert cfg.decision.capacity_tau == 1.0
    assert cfg.decision.repeat_threshold == 10


def test_sim_preset_and_overrides():
    cfg = parse_experiment_config(minimal(sim={"preset": "two_regime", "regime_delta": 4.0}))
    assert cfg.sim.effect_kind == "two_regime"
    assert cfg.sim.regime_delta == 4.0
    assert cfg.sim.base_offset == 6.0  # preset default survives overrides


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError):
        parse_experiment_config(minimal(misspelled=1))
    with pytest.raises(ConfigError):
        parse_experiment_config(minimal(sim={"presett": "default"}))
    with pytest.raises(ConfigError):
        parse_experiment_config(minimal(sim={"cause_probz": [1, 0, 0]}))
    with pytest.raises(ConfigError):
        parse_experiment_config(minimal(nuisance={"roundz": 10}))
    with pytest.raises(ConfigError):
        parse_experiment_config(minimal(forest={"bagz": 10}))
    with pytest.raises(ConfigError):
        parse_experiment_config(minimal(decision={"xi": 1.0}))


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        parse_experiment_config(minimal(sim={"preset": "no_such"}))
    with pytest.raises(ConfigError):
        parse_experiment_config(minimal(sim={"cause_probs": [0.5, 0.1, 0.1]}))
    with pytest.raises(ConfigError):
        parse_experiment_config(minimal(final_stage="spline"))
    with pytest.raises(ConfigError):
        parse_experiment_config(minimal(nuisance={"kind": "mlp"}))
    with pytest.raises(ConfigError, match="min_leaf"):
        parse_experiment_config(minimal(nuisance={"min_leaf": 0}))
    for mistyped in (
        {"seed": "x"},
        {"folds": 2.9},
        {"nuisance": {"rounds": 3.5}},
        {"forest": {"bags": "3"}},
        {"sim": {"vm_count_values": [1.5, 2, 3, 4, 5, 6, 7, 8]}},
    ):
        with pytest.raises(ConfigError):
            parse_experiment_config(mistyped)


@pytest.mark.parametrize("field", ["fallback_tau", "fallback_width", "capacity_tau"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_decision_thresholds_rejected(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        parse_experiment_config(minimal(decision={field: value}))


@pytest.mark.parametrize(
    "field,value",
    [("cause_probs", [float("nan"), 0.5, 0.5]), ("redeploy_log_sigma", float("nan")), ("horizon_days", float("inf"))],
    ids=["nan_cause_prob", "nan_sigma", "inf_horizon"],
)
def test_non_finite_sim_value_exits_2_naming_the_field(tmp_path, capsys, field, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal(sim={field: value})))
    out = tmp_path / "events.jsonl"
    assert main(["simulate", "--config", str(path), "--out", str(out), "--truth", str(tmp_path / "t"), "--n", "50"]) == 2
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_every_sim_float_must_be_finite():
    defaults = SimConfig()
    floats = [
        f.name
        for f in dataclasses.fields(SimConfig)
        if isinstance(getattr(defaults, f.name), float)
        or (isinstance(getattr(defaults, f.name), tuple) and isinstance(getattr(defaults, f.name)[0], float))
    ]
    assert len(floats) > 40 and "cause_probs" in floats and "horizon_days" in floats
    for name in floats:
        default = getattr(defaults, name)
        for bad in (float("nan"), float("inf"), float("-inf")):
            value = [bad, *default[1:]] if isinstance(default, tuple) else bad
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                parse_experiment_config(minimal(sim={name: value}))


@pytest.mark.parametrize(
    "field,value",
    [
        ("ticks_per_day", 0),
        ("max_chain_length", -3),
        ("repeat_count_cap", -1),
        ("vm_count_values", [0, 2, 3, 4, 5, 6, 7, 8]),
        ("horizon_days", 0.0),
        ("horizon_days", -5.0),
        ("recurrence_delay_days", -0.5),
        ("repeat_window_days", -1.0),
        ("investigation_hold", -10.0),
        ("hw_reboot_recur_prob", 1.5),
        ("legacy_flip_prob", 2.0),
        ("error_code_missing_rate", -0.1),
        ("uncorrectable_hw_base", 1.01),
    ],
)
def test_out_of_range_sim_value_exits_2_naming_the_field(tmp_path, capsys, field, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal(sim={field: value})))
    out = tmp_path / "events.jsonl"
    assert main(["simulate", "--config", str(path), "--out", str(out), "--truth", str(tmp_path / "t"), "--n", "50"]) == 2
    assert f"config error: {field} " in capsys.readouterr().err
    assert not out.exists()


def test_every_sim_probability_must_lie_in_the_unit_interval():
    names = [
        f.name
        for f in dataclasses.fields(SimConfig)
        if f.name.endswith(("_prob", "_rate")) or f.name in ("uncorrectable_base", "uncorrectable_hw_base")
    ]
    assert len(names) == 13 and "background_recur_prob" in names and "network_flip_rate" in names
    for name in names:
        for bad in (-0.01, 1.01):
            with pytest.raises(ConfigError, match=f"{name} must lie in \\[0, 1\\]"):
                parse_experiment_config(minimal(sim={name: bad}))
        for edge in (0.0, 1.0):
            assert getattr(parse_experiment_config(minimal(sim={name: edge})).sim, name) == edge


def test_every_preset_is_valid_and_range_edges_are_accepted():
    for name in PRESETS:
        parse_experiment_config(minimal(sim={"preset": name}))
    edges = {"max_chain_length": 0, "repeat_count_cap": 0, "ticks_per_day": 1, "recurrence_delay_days": 0.0,
             "repeat_window_days": 0.0, "investigation_hold": 0.0, "vm_count_values": [1, 1, 1, 1, 1, 1, 1, 1]}
    sim = parse_experiment_config(minimal(sim=edges)).sim
    assert sim.max_chain_length == 0 and sim.recurrence_delay_ticks == 1 and sim.repeat_window_ticks == 0


def test_load_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal(sim={"preset": "zero_effect"})))
    cfg = load_experiment_config(str(path))
    assert cfg.sim.effect_kind == "zero"
    with pytest.raises(ConfigError):
        load_experiment_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_experiment_config(str(bad))


def test_round_trip_through_dict():
    cfg = parse_experiment_config(minimal(sim={"preset": "default"}, folds=4))
    again = parse_experiment_config(cfg.to_dict())
    assert again.train.folds == 4
    assert again.sim == cfg.sim
    assert again.decision == cfg.decision

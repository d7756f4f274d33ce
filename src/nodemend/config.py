"""Experiment configuration file: one JSON document drives every command.

Parsing is fail-closed: any key that no section recognizes, and any value
of the wrong type, aborts before any computation runs. All randomness
flows from the named seeds here; nothing reads entropy from the
environment.

Layout (all sections optional, defaults apply):

    {
      "seed": 42,
      "sim": {"preset": "default", "cause_probs": [...], ...},
      "nuisance": {"rounds": 200, "learning_rate": 0.1, ...},
      "folds": 5,
      "final_stage": "forest",
      "forest": {"bags": 25, "trees_per_bag": 8, ...},
      "decision": {"fallback_tau": 1.0, ...}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .decisions import DecisionConfig
from .dml import TrainConfig
from .domain import from_record, to_record
from .errors import ConfigError, InvalidArgument
from .simulate import PRESETS, SimConfig

# top-level keys that are TrainConfig fields, by the field they fill
_TRAIN_KEYS = {"seed": "seed", "folds": "folds", "final_stage": "final_stage", "nuisance": "learner", "forest": "forest"}
_TOP_KEYS = {*_TRAIN_KEYS, "sim", "decision"}


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    sim: SimConfig
    train: TrainConfig
    decision: DecisionConfig

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "sim": to_record(self.sim),
            "nuisance": to_record(self.train.learner),
            "folds": self.train.folds,
            "final_stage": self.train.final_stage,
            "forest": to_record(self.train.forest),
            "decision": to_record(self.decision),
        }


def parse_section(cls, record, what: str):
    """``from_record`` for a config section: any fault is a ConfigError."""
    try:
        return from_record(cls, record, what)
    except InvalidArgument as exc:
        raise ConfigError(str(exc)) from exc


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    train = parse_section(TrainConfig, {f: raw[k] for k, f in _TRAIN_KEYS.items() if k in raw}, "config")
    sim = _parse_sim(raw.get("sim", {}), train.seed)
    decision = parse_section(DecisionConfig, raw.get("decision", {}), "decision")
    return ExperimentConfig(seed=train.seed, sim=sim, train=train, decision=decision)


def _parse_sim(section: dict, seed: int) -> SimConfig:
    if not isinstance(section, dict):
        raise ConfigError("'sim' must be an object")
    overrides = dict(section)
    preset_name = overrides.pop("preset", "default")
    if not isinstance(preset_name, str) or preset_name not in PRESETS:
        raise ConfigError(f"unknown sim preset {preset_name!r}; choose from {sorted(PRESETS)}")
    return parse_section(SimConfig, {**to_record(PRESETS[preset_name](seed=seed)), **overrides}, "sim")


def load_experiment_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_experiment_config(raw)

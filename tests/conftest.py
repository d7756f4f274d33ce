"""Shared fixtures. Trained models are expensive, so they are session-scoped
and reused by both the module tests and the acceptance suite. Each bundle
records how long its generate+train step took so the acceptance suite can
assert pipeline runtimes without retraining."""

import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import settings

from nodemend.dml import TrainConfig, assemble_model, residualize_dataset, train_dml
from nodemend.simulate import (
    constant_effect_config,
    default_config,
    generate_observational_dataset,
    two_regime_config,
    vm_risk_config,
    zero_effect_config,
)

# Every property test draws the same examples on every run, and none has a
# per-example deadline: a slow machine must not fail a test.
# Each test sets its own max_examples.
settings.register_profile("nodemend", derandomize=True, deadline=None)
settings.load_profile("nodemend")

TWO_REGIME_SEED = 100
TWO_REGIME_TEST_SEED = 200
CONST2_SEED = 110
DEFAULT_SEED = 120
ZERO_SEED = 130


@pytest.fixture(scope="session")
def tworegime_bundle():
    """n=10000 two-regime training set, its forest model, and 500 held-out points."""
    cfg = two_regime_config(seed=TWO_REGIME_SEED)
    t0 = time.monotonic()
    events, truths = generate_observational_dataset(10_000, cfg)
    model = train_dml(events, TrainConfig(seed=TWO_REGIME_SEED), cfg.schema())
    elapsed = time.monotonic() - t0
    test_events, test_truths = generate_observational_dataset(500, two_regime_config(seed=TWO_REGIME_TEST_SEED))
    return {
        "elapsed_s": elapsed,
        "config": cfg,
        "events": events,
        "truths": truths,
        "model": model,
        "test_events": test_events,
        "test_truths": test_truths,
    }


@pytest.fixture(scope="session")
def const2_bundle():
    """Constant-effect(+2) training set with both final stages on shared residuals."""
    cfg = constant_effect_config(seed=CONST2_SEED, delta=2.0)
    t0 = time.monotonic()
    events, truths = generate_observational_dataset(10_000, cfg)
    tc = TrainConfig(seed=CONST2_SEED)
    res, outcome_learners, propensity_learners = residualize_dataset(events, tc, cfg.schema())
    forest_model = assemble_model(res, outcome_learners, propensity_learners, "forest", tc, cfg.schema(), events)
    elapsed = time.monotonic() - t0
    linear_model = assemble_model(res, outcome_learners, propensity_learners, "linear", tc, cfg.schema(), events)
    return {
        "elapsed_s": elapsed,
        "config": cfg,
        "events": events,
        "truths": truths,
        "forest_model": forest_model,
        "linear_model": linear_model,
    }


@pytest.fixture(scope="session")
def default_bundle():
    """Default structural config: training set and forest model."""
    cfg = default_config(seed=DEFAULT_SEED)
    events, truths = generate_observational_dataset(10_000, cfg)
    model = train_dml(events, TrainConfig(seed=DEFAULT_SEED), cfg.schema())
    return {"config": cfg, "events": events, "truths": truths, "model": model}


@pytest.fixture(scope="session")
def vmrisk_bundle():
    """VM-risk config: reboot failure probability grows with VM count."""
    cfg = vm_risk_config(seed=140)
    events, truths = generate_observational_dataset(10_000, cfg)
    model = train_dml(events, TrainConfig(seed=140), cfg.schema())
    return {"config": cfg, "events": events, "truths": truths, "model": model}


@pytest.fixture(scope="session")
def zero_bundle():
    """Zero-true-effect confounded config at the acceptance scale (n=20000)."""
    cfg = zero_effect_config(seed=ZERO_SEED)
    t0 = time.monotonic()
    events, truths = generate_observational_dataset(20_000, cfg)
    model = train_dml(events, TrainConfig(seed=ZERO_SEED), cfg.schema())
    elapsed = time.monotonic() - t0
    return {"config": cfg, "events": events, "truths": truths, "model": model, "elapsed_s": elapsed}


def synthetic_residuals(n: int, seed: int, kind: str = "two_regime", d: int = 6, noise: float = 1.0):
    """Direct residual-space test data for forest-level tests: the true effect
    is a function of column 0 and the residual structure is exact."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if kind == "two_regime":
        tau = np.where(X[:, 0] > 0.0, 5.0, -5.0)
    elif kind == "constant":
        tau = np.full(n, 2.0)
    elif kind == "zero":
        tau = np.zeros(n)
    else:
        raise ValueError(kind)
    propensity = 0.5
    a = (rng.random(n) < propensity).astype(float)
    ra = a - propensity
    ry = tau * ra + rng.normal(scale=noise, size=n)
    return X, ry, ra, tau


def reseal(path, edit) -> None:
    """Apply ``edit`` to the decoded payload of the model file at ``path``
    and seal the file again, header line first: its sha256 then covers the
    edited payload bytes, so only the checks behind the checksum can refuse
    the file."""
    with open(path, "rb") as fh:
        head, _, payload = fh.read().partition(b"\n")
    record = json.loads(payload)
    edit(record)
    payload = json.dumps(record).encode("utf-8")
    header = json.loads(head)
    header["sha256"] = hashlib.sha256(payload).hexdigest()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n" + payload)


def drop_last_tree(trees) -> None:
    """Remove the last tree from a decoded tree-ensemble record."""
    end = trees["roots"].pop()
    for name, column in trees.items():
        if name != "roots":
            del column[end:]


class StubGenerator:
    """Serves given uniforms and standard normals, in order, to the scalar
    draws of ``simulate``: ``random()`` the next uniform, ``lognormal(mu,
    sigma)`` exp(mu + sigma·z) of the next normal."""

    def __init__(self, uniforms, normals=()) -> None:
        self._uniforms = iter(uniforms)
        self._normals = iter(normals)

    def random(self) -> float:
        return float(next(self._uniforms))

    def lognormal(self, mean: float, sigma: float) -> float:
        return float(np.exp(mean + sigma * next(self._normals)))


def history_step(node_history, action, latent, config, u):
    """The recurrence rule over a chain's history of event ticks, as
    ``simulate.step_node`` once stated it per chain: whether the node recurs,
    the repeat count of the recurrence (the history events inside its
    trailing window) and its tick."""
    from nodemend.domain import MitigationAction
    from nodemend.simulate import Cause

    if latent.cause == Cause.HARDWARE_FAULT and action == MitigationAction.REBOOT:
        p = config.hw_reboot_recur_prob
    else:
        p = config.background_recur_prob
    next_tick = node_history[-1] + config.recurrence_delay_ticks
    repeat_count = sum(1 for t in node_history if next_tick - t <= config.repeat_window_ticks)
    return u < p, repeat_count, next_tick

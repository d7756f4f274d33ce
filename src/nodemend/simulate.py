"""Synthetic cluster: unhealthy-event draws with known potential outcomes.

The generator draws a latent node state (cause + severity), emits noisy
diagnostic signals conditioned on it, computes the outcome of *both*
actions for every event, and assigns the logged action with a heuristic
legacy rule. Only the factual outcome lands in the observational dataset;
both potential outcomes go to a separate ground-truth record that training
code never reads.

Outcome families are log-normal: downtimes are positive and right-skewed,
and a reboot is a mixture of a short "worked" mode and a long "failed,
mitigate again" mode, which makes the marginal reboot downtime bi-modal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from .decisions import legacy_policy
from .domain import (
    DEFAULT_HARDWARE_TYPES,
    DEFAULT_SESSION_TYPES,
    DiagnosticSignals,
    FeatureSchema,
    LabeledEvent,
    MitigationAction,
    rng_for,
)
from .errors import InvalidArgument


class Cause(IntEnum):
    TRANSIENT_FALSE_ALARM = 0
    SOFTWARE_FAULT = 1
    HARDWARE_FAULT = 2


CAUSE_NAMES = {
    Cause.TRANSIENT_FALSE_ALARM: "transient_false_alarm",
    Cause.SOFTWARE_FAULT: "software_fault",
    Cause.HARDWARE_FAULT: "hardware_fault",
}
CAUSE_BY_NAME = {v: k for k, v in CAUSE_NAMES.items()}


@dataclass(frozen=True)
class LatentNodeState:
    """Hidden truth behind one unhealthy event; never visible to training."""

    cause: Cause
    severity: float


@dataclass(frozen=True)
class PotentialOutcomes:
    """Outcomes of both actions for one event; all values finite and >= 0."""

    y_reboot: float
    y_redeploy: float
    interruptions_reboot: int
    interruptions_redeploy: int
    blackout_reboot: float
    blackout_redeploy: float
    unallocatable_reboot: float
    unallocatable_redeploy: float

    def for_action(self, action: MitigationAction) -> tuple[float, int, float, float]:
        """(downtime, interruptions, blackout, unallocatable) of one action."""
        if action == MitigationAction.REBOOT:
            return (self.y_reboot, self.interruptions_reboot, self.blackout_reboot, self.unallocatable_reboot)
        return (self.y_redeploy, self.interruptions_redeploy, self.blackout_redeploy, self.unallocatable_redeploy)


# Effect modes. "structural" is the full cloud model; the others pin the
# true effect analytically for estimator benchmarks.
EFFECT_STRUCTURAL = "structural"
EFFECT_ZERO = "zero"
EFFECT_CONSTANT = "constant"
EFFECT_TWO_REGIME = "two_regime"
_EFFECT_KINDS = (EFFECT_STRUCTURAL, EFFECT_ZERO, EFFECT_CONSTANT, EFFECT_TWO_REGIME)


@dataclass(frozen=True)
class SimConfig:
    """All knobs of the synthetic cluster. Every field has a sane default."""

    seed: int = 0

    # latent state
    cause_probs: tuple[float, float, float] = (0.45, 0.35, 0.20)

    # workload
    vm_count_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    vm_count_probs: tuple[float, ...] = (0.30, 0.22, 0.16, 0.11, 0.08, 0.06, 0.04, 0.03)
    important_workload_prob: float = 0.3

    # signal noise
    error_code_missing_rate: float = 0.25
    network_flip_rate: float = 0.05
    net_issue_probs: tuple[float, float, float] = (0.6, 0.15, 0.25)  # per cause
    transient_net_timeout_prob: float = 0.4
    software_swfault_prob: float = 0.75
    hardware_hwfailure_prob: float = 0.85
    uncorrectable_base: float = 0.02
    uncorrectable_hw_base: float = 0.15
    uncorrectable_hw_severity_slope: float = 0.70
    repeat_lambda_transient: float = 0.3
    repeat_lambda_software: float = 0.7
    repeat_lambda_hw_base: float = 0.5
    repeat_lambda_hw_severity_slope: float = 3.0
    repeat_count_cap: int = 30

    hardware_types: tuple[str, ...] = DEFAULT_HARDWARE_TYPES
    hardware_type_probs: tuple[float, ...] = (0.4, 0.3, 0.2, 0.1)
    session_types: tuple[str, ...] = DEFAULT_SESSION_TYPES
    session_type_probs: tuple[float, ...] = (0.6, 0.3, 0.1)

    # structural reboot outcome: short log-normal on success, long on failure
    reboot_success_log_mu: float = math.log(2.0)
    reboot_success_log_sigma: float = 0.5
    reboot_fail_log_mu: float = math.log(30.0)
    reboot_fail_log_sigma: float = 0.4
    reboot_fail_severity_slope: float = 0.5
    software_reboot_fail_prob: float = 0.3
    hardware_reboot_fail_prob: float = 0.9
    reboot_fail_vm_slope: float = 0.0  # adds to failure prob per extra VM

    # structural redeploy outcome: single log-normal, location grows per VM
    redeploy_log_mu: float = math.log(6.0)
    redeploy_log_sigma: float = 0.35
    migration_cost_per_vm: float = 0.08

    # auxiliary outcomes
    blackout_reboot_log_mu: float = math.log(1.0)
    blackout_redeploy_log_mu: float = math.log(0.6)
    blackout_log_sigma: float = 0.3
    unalloc_reboot_fail_log_mu: float = math.log(10.0)
    unalloc_redeploy_log_mu: float = math.log(8.0)
    unalloc_log_sigma: float = 0.4

    # legacy policy exploration
    legacy_flip_prob: float = 0.1

    # node dynamics
    hw_reboot_recur_prob: float = 0.9
    background_recur_prob: float = 0.02
    recurrence_delay_days: float = 0.5
    repeat_window_days: float = 10.0
    max_chain_length: int = 25
    ticks_per_day: int = 100
    horizon_days: float = 120.0
    investigation_hold: float = 50.0  # unallocatable time added when a node is flagged

    # analytic effect modes
    effect_kind: str = EFFECT_STRUCTURAL
    effect_constant: float = 2.0
    regime_vm_threshold: int = 3
    regime_delta: float = 5.0
    base_log_mu_transient: float = math.log(2.0)
    base_log_mu_software: float = math.log(4.0)
    base_log_mu_hardware: float = math.log(8.0)
    base_log_sigma: float = 0.25
    base_severity_slope: float = 0.25
    base_offset: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if any(isinstance(x, float) and not math.isfinite(x) for x in (value if isinstance(value, tuple) else (value,))):
                raise InvalidArgument(f"{f.name} must be finite, got {value}")
        for name in ("cause_probs", "vm_count_probs", "hardware_type_probs", "session_type_probs"):
            probs = getattr(self, name)
            if any(p < 0 or p > 1 for p in probs):
                raise InvalidArgument(f"{name} entries must lie in [0, 1]")
            if abs(sum(probs) - 1.0) > 1e-9:
                raise InvalidArgument(f"{name} must sum to 1, got {sum(probs)}")
        for name in (
            "reboot_success_log_sigma",
            "reboot_fail_log_sigma",
            "redeploy_log_sigma",
            "blackout_log_sigma",
            "unalloc_log_sigma",
            "base_log_sigma",
        ):
            if getattr(self, name) <= 0:
                raise InvalidArgument(f"{name} must be > 0")
        if self.effect_kind not in _EFFECT_KINDS:
            raise InvalidArgument(f"unknown effect_kind {self.effect_kind!r}")
        if len(self.vm_count_values) != len(self.vm_count_probs):
            raise InvalidArgument("vm_count_values and vm_count_probs must align")

    @property
    def repeat_window_ticks(self) -> int:
        return int(round(self.repeat_window_days * self.ticks_per_day))

    @property
    def recurrence_delay_ticks(self) -> int:
        return max(1, int(round(self.recurrence_delay_days * self.ticks_per_day)))

    @property
    def horizon_ticks(self) -> int:
        return int(round(self.horizon_days * self.ticks_per_day))

    def schema(self) -> FeatureSchema:
        return FeatureSchema(hardware_types=self.hardware_types, session_types=self.session_types)


def default_config(seed: int = 0) -> SimConfig:
    return SimConfig(seed=seed)


def zero_effect_config(seed: int = 0) -> SimConfig:
    """Both actions share one outcome draw; assignment stays confounded."""
    return SimConfig(seed=seed, effect_kind=EFFECT_ZERO)


def constant_effect_config(seed: int = 0, delta: float = 2.0) -> SimConfig:
    """Redeploy costs exactly ``delta`` more than Reboot on every event."""
    return SimConfig(seed=seed, effect_kind=EFFECT_CONSTANT, effect_constant=delta)


def two_regime_config(seed: int = 0, delta: float = 5.0, vm_threshold: int = 3) -> SimConfig:
    """True effect is +delta below the VM-count threshold and -delta at or above it.

    The base outcome keeps an offset of 6 so the shifted potential outcome
    stays positive without clipping, preserving the exact +-delta effect.
    """
    return SimConfig(
        seed=seed,
        effect_kind=EFFECT_TWO_REGIME,
        regime_delta=delta,
        regime_vm_threshold=vm_threshold,
        base_offset=6.0,
    )


def vm_risk_config(seed: int = 0) -> SimConfig:
    """Reboot failure risk grows with VM count while migration stays cheap.

    Under this mix the per-VM-count effect curve crosses zero: Reboot wins
    on nearly-empty nodes, Redeploy wins on full ones.
    """
    return SimConfig(
        seed=seed,
        cause_probs=(0.70, 0.25, 0.05),
        software_reboot_fail_prob=0.05,
        reboot_fail_vm_slope=0.08,
        migration_cost_per_vm=0.01,
    )


def recurrence_heavy_config(seed: int = 0) -> SimConfig:
    """Signal-poor cluster where hidden hardware faults loop under reboots.

    Diagnostics are mostly missing and the repeat counter carries no signal
    in the training logs, so the model keeps recommending Reboot on the
    (mostly healthy-looking) ambiguous events; the rare hidden hardware
    fault then relapses until the repeat override steps in.
    """
    return SimConfig(
        seed=seed,
        cause_probs=(0.85, 0.05, 0.10),
        error_code_missing_rate=0.90,
        uncorrectable_base=0.02,
        uncorrectable_hw_base=0.02,
        uncorrectable_hw_severity_slope=0.05,
        repeat_lambda_transient=0.4,
        repeat_lambda_software=0.4,
        repeat_lambda_hw_base=0.4,
        repeat_lambda_hw_severity_slope=0.0,
        hw_reboot_recur_prob=0.98,
        background_recur_prob=0.005,
        recurrence_delay_days=0.3,
    )


PRESETS = {
    "default": default_config,
    "zero_effect": zero_effect_config,
    "constant_effect": constant_effect_config,
    "two_regime": two_regime_config,
    "vm_risk": vm_risk_config,
    "recurrence_heavy": recurrence_heavy_config,
}


@dataclass
class EventStream:
    """Mutable draw state: one RNG plus a counter for ids and timestamps."""

    rng: np.random.Generator
    config: SimConfig
    counter: int = 0

    @staticmethod
    def from_config(config: SimConfig) -> "EventStream":
        return EventStream(rng=rng_for(config.seed), config=config)


@dataclass(frozen=True)
class UnhealthyEventDraw:
    node_id: str
    timestamp: int
    signals: DiagnosticSignals
    latent: LatentNodeState


@dataclass(frozen=True)
class GroundTruth:
    """Per-event oracle record, persisted separately from the training file."""

    event_id: str
    y_reboot: float
    y_redeploy: float
    cause: str


def _draw_signals(latent: LatentNodeState, vm_count: int, repeat_count: int, config: SimConfig, rng: np.random.Generator) -> DiagnosticSignals:
    cause = latent.cause
    important = rng.random() < config.important_workload_prob

    net_issue = rng.random() < config.net_issue_probs[int(cause)]
    if rng.random() < config.network_flip_rate:
        net_issue = not net_issue

    if cause == Cause.TRANSIENT_FALSE_ALARM:
        code = "net_timeout" if rng.random() < config.transient_net_timeout_prob else "none"
    elif cause == Cause.SOFTWARE_FAULT:
        code = "sw_fault" if rng.random() < config.software_swfault_prob else "other"
    else:
        code = "hw_failure" if rng.random() < config.hardware_hwfailure_prob else "other"
    if rng.random() < config.error_code_missing_rate:
        code = None

    if cause == Cause.HARDWARE_FAULT:
        p_unc = config.uncorrectable_hw_base + config.uncorrectable_hw_severity_slope * latent.severity
    else:
        p_unc = config.uncorrectable_base
    uncorrectable = rng.random() < min(p_unc, 1.0)

    hardware_type = config.hardware_types[_choice(rng, config.hardware_type_probs)]
    session_type = config.session_types[_choice(rng, config.session_type_probs)]

    return DiagnosticSignals(
        vm_count=vm_count,
        has_important_workload=important,
        network_ok=not net_issue,
        error_code=code,
        repeat_count=repeat_count,
        uncorrectable_tag=uncorrectable,
        hardware_type=hardware_type,
        session_type=session_type,
    )


def _choice(rng: np.random.Generator, probs: tuple[float, ...]) -> int:
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


def _draw_repeat_count(cause: Cause, severity: float, config: SimConfig, rng: np.random.Generator) -> int:
    if cause == Cause.TRANSIENT_FALSE_ALARM:
        lam = config.repeat_lambda_transient
    elif cause == Cause.SOFTWARE_FAULT:
        lam = config.repeat_lambda_software
    else:
        lam = config.repeat_lambda_hw_base + config.repeat_lambda_hw_severity_slope * severity
    return min(int(rng.poisson(lam)), config.repeat_count_cap)


def sample_event(state: EventStream, config: SimConfig | None = None) -> UnhealthyEventDraw:
    """Draw one unhealthy event: latent state first, then signals given it."""
    config = config or state.config
    rng = state.rng
    cause = Cause(_choice(rng, config.cause_probs))
    severity = float(rng.random())
    latent = LatentNodeState(cause=cause, severity=severity)
    vm_count = config.vm_count_values[_choice(rng, config.vm_count_probs)]
    repeat_count = _draw_repeat_count(cause, severity, config, rng)
    signals = _draw_signals(latent, vm_count, repeat_count, config, rng)
    idx = state.counter
    state.counter += 1
    # timestamp is a placeholder tick; dataset/harness code spaces events
    # over the configured horizon itself.
    return UnhealthyEventDraw(
        node_id=f"node-{idx:06d}",
        timestamp=idx,
        signals=signals,
        latent=latent,
    )


def _reboot_fail_prob(latent: LatentNodeState, vm_count: int, config: SimConfig) -> float:
    if latent.cause == Cause.TRANSIENT_FALSE_ALARM:
        return 0.0
    base = (
        config.software_reboot_fail_prob
        if latent.cause == Cause.SOFTWARE_FAULT
        else config.hardware_reboot_fail_prob
    )
    return float(min(max(base + config.reboot_fail_vm_slope * (vm_count - 1), 0.0), 1.0))


def _base_log_mu(cause: Cause, config: SimConfig) -> float:
    if cause == Cause.TRANSIENT_FALSE_ALARM:
        return config.base_log_mu_transient
    if cause == Cause.SOFTWARE_FAULT:
        return config.base_log_mu_software
    return config.base_log_mu_hardware


def potential_outcomes(
    latent: LatentNodeState,
    signals: DiagnosticSignals,
    config: SimConfig,
    rng: np.random.Generator,
) -> PotentialOutcomes:
    """Draw outcomes of both actions for one event.

    Structural mode: the reboot downtime is a success/failure mixture (the
    failure branch means a second mitigation ran, doubling interruptions),
    while the redeploy downtime is a single log-normal whose location grows
    with VM count through the migration cost coefficient. Analytic modes
    derive the redeploy outcome from the reboot draw so the individual
    effect is exact.
    """
    vm = signals.vm_count
    if config.effect_kind == EFFECT_STRUCTURAL:
        failed = rng.random() < _reboot_fail_prob(latent, vm, config)
        if failed:
            mu = config.reboot_fail_log_mu + config.reboot_fail_severity_slope * latent.severity
            y_rb = float(rng.lognormal(mu, config.reboot_fail_log_sigma))
            ints_rb = 2 * vm
            unalloc_rb = float(rng.lognormal(config.unalloc_reboot_fail_log_mu, config.unalloc_log_sigma))
        else:
            y_rb = float(rng.lognormal(config.reboot_success_log_mu, config.reboot_success_log_sigma))
            ints_rb = vm
            unalloc_rb = 0.0
        y_rd = float(rng.lognormal(config.redeploy_log_mu + config.migration_cost_per_vm * vm, config.redeploy_log_sigma))
    else:
        mu = _base_log_mu(latent.cause, config) + config.base_severity_slope * latent.severity
        base = config.base_offset + float(rng.lognormal(mu, config.base_log_sigma))
        y_rb = base
        if config.effect_kind == EFFECT_ZERO:
            y_rd = base
        elif config.effect_kind == EFFECT_CONSTANT:
            y_rd = base + config.effect_constant
        else:  # two_regime
            y_rd = base + true_tau_two_regime(vm, config)
        ints_rb = vm
        unalloc_rb = 0.0
    blackout_rb = float(rng.lognormal(config.blackout_reboot_log_mu, config.blackout_log_sigma))
    blackout_rd = float(rng.lognormal(config.blackout_redeploy_log_mu, config.blackout_log_sigma))
    unalloc_rd = float(rng.lognormal(config.unalloc_redeploy_log_mu, config.unalloc_log_sigma))
    return PotentialOutcomes(
        y_reboot=y_rb,
        y_redeploy=max(y_rd, 0.0),
        interruptions_reboot=ints_rb,
        interruptions_redeploy=vm,
        blackout_reboot=blackout_rb,
        blackout_redeploy=blackout_rd,
        unallocatable_reboot=unalloc_rb,
        unallocatable_redeploy=unalloc_rd,
    )


def true_tau_two_regime(vm_count: int, config: SimConfig) -> float:
    """Exact individual effect of the two-regime mode for a VM count."""
    return config.regime_delta if vm_count < config.regime_vm_threshold else -config.regime_delta


def true_tau(latent: LatentNodeState, signals: DiagnosticSignals, config: SimConfig) -> float | None:
    """Exact individual effect where the mode defines one; None for structural."""
    if config.effect_kind == EFFECT_ZERO:
        return 0.0
    if config.effect_kind == EFFECT_CONSTANT:
        return config.effect_constant
    if config.effect_kind == EFFECT_TWO_REGIME:
        return true_tau_two_regime(signals.vm_count, config)
    return None


def legacy_assignment(signals: DiagnosticSignals, config: SimConfig, rng: np.random.Generator) -> MitigationAction:
    """Heuristic rule plus an exploration flip that guarantees overlap."""
    action = legacy_policy(signals)
    if config.legacy_flip_prob > 0 and rng.random() < config.legacy_flip_prob:
        action = MitigationAction(1 - int(action))
    return action


def generate_observational_dataset(n: int, config: SimConfig) -> tuple[list[LabeledEvent], list[GroundTruth]]:
    """Draw ``n`` events under the legacy policy.

    Only the factual outcome of the assigned action enters each
    LabeledEvent; both potential outcomes (and the latent cause) go to the
    companion ground-truth list for oracle-side evaluation.
    """
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    state = EventStream.from_config(config)
    horizon = config.horizon_ticks
    events: list[LabeledEvent] = []
    truths: list[GroundTruth] = []
    for i in range(n):
        draw = sample_event(state, config)
        outcomes = potential_outcomes(draw.latent, draw.signals, config, state.rng)
        action = legacy_assignment(draw.signals, config, state.rng)
        y, ints, blackout, unalloc = outcomes.for_action(action)
        timestamp = int(horizon * (i + 1) // (n + 1))
        event_id = f"ev-{i:08d}"
        events.append(
            LabeledEvent(
                event_id=event_id,
                node_id=draw.node_id,
                timestamp=timestamp,
                signals=draw.signals,
                action=action,
                avd=y,
                interruptions=ints,
                blackout=blackout,
                unallocatable=unalloc,
            )
        )
        truths.append(
            GroundTruth(
                event_id=event_id,
                y_reboot=outcomes.y_reboot,
                y_redeploy=outcomes.y_redeploy,
                cause=CAUSE_NAMES[draw.latent.cause],
            )
        )
    return events, truths


@dataclass(frozen=True)
class NodeStep:
    """Result of advancing one node past a mitigation."""

    repeat_count: int
    recurrence: bool
    next_tick: int


def step_node(
    node_history: list[int],
    action: MitigationAction,
    latent: LatentNodeState,
    config: SimConfig,
    rng: np.random.Generator,
) -> NodeStep:
    """Advance a node's repeated-failure process after an action.

    ``node_history`` holds the node's unhealthy-event ticks so far, ending
    with the event just mitigated. A hardware fault answered by Reboot
    recurs shortly with high probability; anything else recurs at the
    background rate. The returned repeat count is the number of history
    events inside the trailing window as of the would-be recurrence tick.
    """
    if not node_history:
        raise InvalidArgument("node_history must contain at least the current event tick")
    if latent.cause == Cause.HARDWARE_FAULT and action == MitigationAction.REBOOT:
        p = config.hw_reboot_recur_prob
    else:
        p = config.background_recur_prob
    recurrence = bool(rng.random() < p)
    next_tick = node_history[-1] + config.recurrence_delay_ticks
    window = config.repeat_window_ticks
    repeat_count = sum(1 for t in node_history if next_tick - t <= window)
    return NodeStep(repeat_count=repeat_count, recurrence=recurrence, next_tick=next_tick)

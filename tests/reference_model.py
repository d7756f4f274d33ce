"""The scalar model of the synthetic cluster, one event at a time from a
generator: the reference the column draws of ``nodemend.simulate`` are
checked against row by row.

Fed a ``StubGenerator`` that serves an event's keyed uniforms in the order
these draws consume them (``reference_events``), it must reproduce the
column draws exactly: signals, outcomes and the logged action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nodemend.decisions import legacy_policy
from nodemend.domain import DiagnosticSignals, MitigationAction, keyed_uniforms
from nodemend.simulate import (
    EFFECT_CONSTANT,
    EFFECT_STRUCTURAL,
    EFFECT_ZERO,
    EVENT_SLOTS,
    FLIP_SLOT,
    OUTCOME_SLOTS,
    SIGNAL_SLOTS,
    Cause,
    SimConfig,
    box_muller,
)

from conftest import StubGenerator


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


@dataclass
class EventStream:
    """Mutable draw state: one RNG plus a counter for ids and timestamps."""

    rng: np.random.Generator
    config: SimConfig
    counter: int = 0


@dataclass(frozen=True)
class UnhealthyEventDraw:
    node_id: str
    timestamp: int
    signals: DiagnosticSignals
    latent: LatentNodeState


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


def legacy_assignment(signals: DiagnosticSignals, config: SimConfig, rng: np.random.Generator) -> MitigationAction:
    """Heuristic rule plus an exploration flip that guarantees overlap."""
    action = legacy_policy(signals)
    if config.legacy_flip_prob > 0 and rng.random() < config.legacy_flip_prob:
        action = MitigationAction(1 - int(action))
    return action


def reference_events(n: int, config: SimConfig, seed: int):
    """Events 0..n-1 of the stream ``seed`` as (index, draw, outcomes,
    action), each drawn by the scalar model from its keyed uniforms at step
    0: the event's draw takes the event slots, then the signal slots; the
    outcomes take the outcome slots; the legacy flip takes its slot."""
    u = keyed_uniforms(seed, np.arange(n), 0, np.arange(FLIP_SLOT + 1)[:, None])
    events = []
    for i in range(n):
        col = u[:, i]
        state = EventStream(rng=StubGenerator([*col[EVENT_SLOTS[:, 0]], *col[SIGNAL_SLOTS[:, 0]]]), config=config, counter=i)
        draw = sample_event(state)
        outcome_u = col[OUTCOME_SLOTS[:, 0]]
        outcomes = potential_outcomes(draw.latent, draw.signals, config, StubGenerator(outcome_u[:1], box_muller(outcome_u[1:])))
        action = legacy_assignment(draw.signals, config, StubGenerator([col[FLIP_SLOT]]))
        events.append((i, draw, outcomes, action))
    return events

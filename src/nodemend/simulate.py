"""Synthetic cluster: unhealthy-event draws with known potential outcomes.

An event's node has a hidden cause and severity; the model draws its VM
count and repeat count, noisy diagnostic signals conditioned on them, the
outcome of *both* actions, and the logged action from a heuristic legacy
rule. Only the factual outcome lands in the observational dataset; both
potential outcomes go to a separate ground-truth record that training code
never reads.

Every draw is column-wise over many events and a pure function of its key:
the uniform of (seed, event, step, slot) from ``domain.keyed_uniforms``. An
event is step 0 of its node's recurrence chain, so the dataset's rows, the
harness's primary events and their recurrences all come from the same
draws on the slots laid out below.

Outcome families are log-normal: downtimes are positive and right-skewed,
and a reboot is a mixture of a short "worked" mode and a long "failed,
mitigate again" mode, which makes the marginal reboot downtime bi-modal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from .decisions import legacy_redeploys
from .domain import (
    DEFAULT_HARDWARE_TYPES,
    DEFAULT_SESSION_TYPES,
    DiagnosticSignals,
    FeatureSchema,
    LabeledEvent,
    MitigationAction,
    SignalColumns,
    _Columns,
    keyed_uniforms,
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


@dataclass(frozen=True)
class Nodes(_Columns):
    """The nodes of many events, one array per field: row i is the node of
    event ``events[i]``, the key of its draws. Its cause and severity are
    the hidden truth that training never sees."""

    events: np.ndarray
    cause: np.ndarray
    severity: np.ndarray
    vm_count: np.ndarray


@dataclass(frozen=True)
class PotentialOutcomes(_Columns):
    """Outcomes of both actions for many events, one array per field; all
    values finite and >= 0."""

    y_reboot: np.ndarray
    y_redeploy: np.ndarray
    interruptions_reboot: np.ndarray
    interruptions_redeploy: np.ndarray
    blackout_reboot: np.ndarray
    blackout_redeploy: np.ndarray
    unallocatable_reboot: np.ndarray
    unallocatable_redeploy: np.ndarray


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
        for f in fields(self):
            if f.name.endswith(("_prob", "_rate")) or f.name in ("uncorrectable_base", "uncorrectable_hw_base"):
                value = getattr(self, f.name)
                if not 0.0 <= value <= 1.0:
                    raise InvalidArgument(f"{f.name} must lie in [0, 1], got {value}")
        for name, low in (("ticks_per_day", 1), ("max_chain_length", 0), ("repeat_count_cap", 0)):
            if getattr(self, name) < low:
                raise InvalidArgument(f"{name} must be >= {low}, got {getattr(self, name)}")
        if any(v < 1 for v in self.vm_count_values):
            raise InvalidArgument(f"vm_count_values entries must be >= 1, got {self.vm_count_values}")
        if self.horizon_days <= 0:
            raise InvalidArgument(f"horizon_days must be > 0, got {self.horizon_days}")
        for name in ("recurrence_delay_days", "repeat_window_days", "investigation_hold"):
            if getattr(self, name) < 0:
                raise InvalidArgument(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.effect_kind not in _EFFECT_KINDS:
            raise InvalidArgument(f"unknown effect_kind {self.effect_kind!r}")
        for values, probs in (
            (tuple(Cause), "cause_probs"),
            (self.vm_count_values, "vm_count_probs"),
            (self.hardware_types, "hardware_type_probs"),
            (self.session_types, "session_type_probs"),
            (tuple(Cause), "net_issue_probs"),
        ):
            if len(getattr(self, probs)) != len(values):
                raise InvalidArgument(f"{probs} needs one entry per category ({len(values)}), got {len(getattr(self, probs))}")

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


@dataclass(frozen=True)
class GroundTruth:
    """Per-event oracle record, persisted separately from the training file."""

    event_id: str
    y_reboot: float
    y_redeploy: float
    cause: str


# The slots of the keyed draws of event e at step s of its chain (step 0 is
# the event itself; domain.keyed_uniforms): slot 0 decides whether the event
# at step s recurs and slot 1 is the random policy's coin there. Slots 2-9
# draw its signals, slot 10 its outcomes' uniform and slots 11-22 the
# uniform pairs of their six normals (Box-Muller). At step 0, slots 23-26
# draw the cause, severity, VM count and repeat count, and slot 27 the
# legacy policy's exploration flip.
RECUR_SLOT = 0
RANDOM_SLOT = 1
SIGNAL_SLOTS = np.arange(2, 10)[:, None]
OUTCOME_SLOTS = np.arange(10, 23)[:, None]
EVENT_SLOTS = np.arange(23, 27)[:, None]
FLIP_SLOT = 27


def node_id(event: int) -> str:
    """The node of event ``event``; every event has its own."""
    return f"node-{event:06d}"


def box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms in [0, 1): rows 2k and 2k + 1 of ``u``
    make row k (the cosine branch of Box & Muller, 1958)."""
    return np.sqrt(-2.0 * np.log1p(-u[0::2])) * np.cos(2.0 * np.pi * u[1::2])


def _categorical(u: np.ndarray, probs: tuple[float, ...]) -> np.ndarray:
    """Per entry of ``u``: the first index whose running sum of ``probs``
    (added in order) exceeds the draw, else the last."""
    return np.minimum(np.searchsorted(list(itertools.accumulate(probs)), u, side="right"), len(probs) - 1)


def capped_poisson(lam: np.ndarray, cap: int, u: np.ndarray) -> np.ndarray:
    """min(Poisson(lam), cap) per entry, by inverting the CDF at ``u``: the
    number of k in 1..cap with u >= P(X <= k - 1), the CDF kept as one
    running sum over k of p(k) = p(k - 1)·lam / k."""
    p = np.exp(-lam)
    cdf = p
    count = np.zeros(np.shape(u), dtype=np.int64)
    for k in range(1, cap + 1):
        more = u >= cdf
        if not more.any():
            break
        count += more
        p = p * lam / k
        cdf = cdf + p
    return count


def sample_event(events: np.ndarray, config: SimConfig, seed: int) -> tuple[Nodes, SignalColumns]:
    """Draw events ``events`` of the stream ``seed``, each step 0 of its
    chain: the latent cause and severity first, then the VM count, the
    repeat count and the signals given them."""
    events = np.asarray(events, dtype=np.int64)
    u = keyed_uniforms(seed, events, 0, EVENT_SLOTS)
    cause = _categorical(u[0], config.cause_probs)
    severity = u[1]
    vm_count = np.asarray(config.vm_count_values, dtype=np.int64)[_categorical(u[2], config.vm_count_probs)]
    lam = np.where(
        cause == Cause.HARDWARE_FAULT,
        config.repeat_lambda_hw_base + config.repeat_lambda_hw_severity_slope * severity,
        np.where(cause == Cause.SOFTWARE_FAULT, config.repeat_lambda_software, config.repeat_lambda_transient),
    )
    nodes = Nodes(events, cause, severity, vm_count)
    return nodes, draw_signals(nodes, capped_poisson(lam, config.repeat_count_cap, u[3]), config, seed, 0)


def draw_signals(nodes: Nodes, repeat_count, config: SimConfig, seed: int, step: int) -> SignalColumns:
    """The diagnostic signals of the nodes' events at ``step``, noisy views
    of each node's latent state; ``repeat_count`` is one per node or one
    for all."""
    u = keyed_uniforms(seed, nodes.events, step, SIGNAL_SLOTS)
    cause = nodes.cause
    important = u[0] < config.important_workload_prob
    network_ok = (u[1] < np.asarray(config.net_issue_probs)[cause]) == (u[2] < config.network_flip_rate)
    # per cause: the code drawn below its probability, else the fallback
    hit_prob = np.array([config.transient_net_timeout_prob, config.software_swfault_prob, config.hardware_hwfailure_prob])
    codes = np.array([["none", "net_timeout"], ["other", "sw_fault"], ["other", "hw_failure"]], dtype=object)
    code = codes[cause, (u[3] < hit_prob[cause]).astype(np.int64)]
    code[u[4] < config.error_code_missing_rate] = None
    p_unc = np.where(
        cause == Cause.HARDWARE_FAULT,
        config.uncorrectable_hw_base + config.uncorrectable_hw_severity_slope * nodes.severity,
        config.uncorrectable_base,
    )
    uncorrectable = u[5] < np.minimum(p_unc, 1.0)
    hardware_type = np.asarray(config.hardware_types, dtype=object)[_categorical(u[6], config.hardware_type_probs)]
    session_type = np.asarray(config.session_types, dtype=object)[_categorical(u[7], config.session_type_probs)]
    repeat_count = np.broadcast_to(np.asarray(repeat_count, dtype=np.int64), cause.shape)
    return SignalColumns(nodes.vm_count, important, network_ok, code, repeat_count, uncorrectable, hardware_type, session_type)


def potential_outcomes(nodes: Nodes, config: SimConfig, seed: int, step: int) -> PotentialOutcomes:
    """Draw the outcomes of both actions for the nodes' events at ``step``.

    Structural mode: the reboot downtime is a success/failure mixture (the
    failure branch means a second mitigation ran, doubling interruptions),
    while the redeploy downtime is a single log-normal whose location grows
    with VM count through the migration cost coefficient. Analytic modes
    derive the redeploy outcome from the reboot draw so the individual
    effect is exact.

    The k-th log-normal an event draws is exp(mu + sigma·z[k]). A structural
    reboot that succeeds draws one log-normal fewer, so the normals after it
    shift up by one on its row.
    """
    cause, severity, vm_count = nodes.cause, nodes.severity, nodes.vm_count
    u = keyed_uniforms(seed, nodes.events, step, OUTCOME_SLOTS)
    z = box_muller(u[1:])
    rows = np.arange(cause.shape[0])
    if config.effect_kind == EFFECT_STRUCTURAL:
        fail_base = np.where(cause == Cause.SOFTWARE_FAULT, config.software_reboot_fail_prob, config.hardware_reboot_fail_prob)
        fail_prob = np.where(
            cause == Cause.TRANSIENT_FALSE_ALARM, 0.0, np.clip(fail_base + config.reboot_fail_vm_slope * (vm_count - 1), 0.0, 1.0)
        )
        failed = u[0] < fail_prob
        fail_mu = config.reboot_fail_log_mu + config.reboot_fail_severity_slope * severity
        y_rb = np.where(
            failed,
            np.exp(fail_mu + config.reboot_fail_log_sigma * z[0]),
            np.exp(config.reboot_success_log_mu + config.reboot_success_log_sigma * z[0]),
        )
        ints_rb = np.where(failed, 2 * vm_count, vm_count)
        unalloc_rb = np.where(failed, np.exp(config.unalloc_reboot_fail_log_mu + config.unalloc_log_sigma * z[1]), 0.0)
        k = 1 + failed
        y_rd = np.exp(config.redeploy_log_mu + config.migration_cost_per_vm * vm_count + config.redeploy_log_sigma * z[k, rows])
        k = k + 1
    else:
        mu = np.asarray([config.base_log_mu_transient, config.base_log_mu_software, config.base_log_mu_hardware])[cause]
        y_rb = config.base_offset + np.exp(mu + config.base_severity_slope * severity + config.base_log_sigma * z[0])
        if config.effect_kind == EFFECT_ZERO:
            y_rd = y_rb
        elif config.effect_kind == EFFECT_CONSTANT:
            y_rd = y_rb + config.effect_constant
        else:  # two_regime
            y_rd = y_rb + np.where(vm_count < config.regime_vm_threshold, config.regime_delta, -config.regime_delta)
        ints_rb = vm_count
        unalloc_rb = np.zeros(rows.shape[0])
        k = np.ones(rows.shape[0], dtype=np.int64)
    return PotentialOutcomes(
        y_reboot=y_rb,
        y_redeploy=np.maximum(y_rd, 0.0),
        interruptions_reboot=ints_rb,
        interruptions_redeploy=vm_count,
        blackout_reboot=np.exp(config.blackout_reboot_log_mu + config.blackout_log_sigma * z[k, rows]),
        blackout_redeploy=np.exp(config.blackout_redeploy_log_mu + config.blackout_log_sigma * z[k + 1, rows]),
        unallocatable_reboot=unalloc_rb,
        unallocatable_redeploy=np.exp(config.unalloc_redeploy_log_mu + config.unalloc_log_sigma * z[k + 2, rows]),
    )


def true_tau(signals: DiagnosticSignals, config: SimConfig) -> float | None:
    """Exact individual effect where the mode defines one; None for structural."""
    if config.effect_kind == EFFECT_ZERO:
        return 0.0
    if config.effect_kind == EFFECT_CONSTANT:
        return config.effect_constant
    if config.effect_kind == EFFECT_TWO_REGIME:
        return config.regime_delta if signals.vm_count < config.regime_vm_threshold else -config.regime_delta
    return None


def generate_observational_dataset(n: int, config: SimConfig) -> tuple[list[LabeledEvent], list[GroundTruth]]:
    """Draw events 0..n-1 of the config's stream under the legacy policy.

    The policy's heuristic rule picks each action and an exploration flip
    (``legacy_flip_prob``) reverses it, which guarantees overlap. Only the
    factual outcome of the action enters each LabeledEvent; both potential
    outcomes (and the latent cause) go to the companion ground-truth list
    for oracle-side evaluation. Event i's draws do not depend on n.
    """
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    events = np.arange(n)
    nodes, signals = sample_event(events, config, config.seed)
    outcomes = potential_outcomes(nodes, config, config.seed, 0)
    flip = keyed_uniforms(config.seed, events, 0, FLIP_SLOT) < config.legacy_flip_prob
    redeploy = legacy_redeploys(signals) != flip

    def factual(if_reboot: np.ndarray, if_redeploy: np.ndarray) -> list:
        return np.where(redeploy, if_redeploy, if_reboot).tolist()

    columns = zip(
        signals.records(),
        redeploy.tolist(),
        factual(outcomes.y_reboot, outcomes.y_redeploy),
        factual(outcomes.interruptions_reboot, outcomes.interruptions_redeploy),
        factual(outcomes.blackout_reboot, outcomes.blackout_redeploy),
        factual(outcomes.unallocatable_reboot, outcomes.unallocatable_redeploy),
    )
    horizon = config.horizon_ticks
    labeled = [
        LabeledEvent(
            event_id=f"ev-{i:08d}",
            node_id=node_id(i),
            timestamp=int(horizon * (i + 1) // (n + 1)),
            signals=s,
            action=MitigationAction(int(r)),
            avd=y,
            interruptions=ints,
            blackout=blackout,
            unallocatable=unalloc,
        )
        for i, (s, r, y, ints, blackout, unalloc) in enumerate(columns)
    ]
    truths = [
        GroundTruth(event_id=f"ev-{i:08d}", y_reboot=rb, y_redeploy=rd, cause=CAUSE_NAMES[c])
        for i, (rb, rd, c) in enumerate(zip(outcomes.y_reboot.tolist(), outcomes.y_redeploy.tolist(), nodes.cause.tolist()))
    ]
    return labeled, truths


@dataclass(frozen=True)
class NodeStep:
    """Result of advancing a step's chains past their mitigations."""

    repeat_count: int
    recurrence: np.ndarray


def step_node(
    chain_step: int,
    actions: np.ndarray,
    causes: np.ndarray,
    config: SimConfig,
    u: np.ndarray,
) -> NodeStep:
    """Advance the repeated-failure process of the chains at ``chain_step``.

    Entry i is a node with latent cause ``causes[i]`` whose ``chain_step``-th
    recurrence (0: the primary event) was just answered by ``actions[i]``. A
    hardware fault answered by Reboot recurs shortly with high probability;
    anything else recurs at the background rate. ``u[i]`` is the uniform draw
    in [0, 1) that decides it: the node recurs when it falls below that
    probability.

    Recurrences follow each other ``recurrence_delay_ticks`` apart, so the
    next event's trailing repeat window holds the min(chain_step + 1,
    window // delay) events before it: its repeat count, the same for every
    chain of the step.
    """
    if chain_step < 0:
        raise InvalidArgument(f"chain_step must be >= 0 (the chain holds at least its current event), got {chain_step}")
    hardware_reboot = (np.asarray(causes) == Cause.HARDWARE_FAULT) & (np.asarray(actions) == MitigationAction.REBOOT)
    p = np.where(hardware_reboot, config.hw_reboot_recur_prob, config.background_recur_prob)
    repeat_count = min(chain_step + 1, config.repeat_window_ticks // config.recurrence_delay_ticks)
    return NodeStep(repeat_count=repeat_count, recurrence=np.asarray(u) < p)

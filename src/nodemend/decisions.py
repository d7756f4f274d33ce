"""Decision layer: turns an effect estimate plus node context into an action.

Rule order is fixed:

  1. repeat override  - too many unhealthy events in the trailing window
                        forces Redeploy and flags the node unallocatable,
                        whatever the model says;
  2. policy fallback  - a near-zero estimate with a wide interval means the
                        model cannot tell the actions apart, so the legacy
                        heuristic decides;
  3. sign rule        - positive effect (Redeploy costs more) picks Reboot,
                        negative picks Redeploy, ties go to Reboot since a
                        reboot consumes no extra nodes;
  4. capacity override- a Redeploy whose predicted saving is below the
                        capacity threshold is downgraded to Reboot.

The sticky experiment-group assignment lives here too: a node's group is a
pure function of (node id, experiment name), so a node keeps its policy
for the lifetime of an experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .domain import DiagnosticSignals, IteEstimate, MitigationAction
from .errors import InvalidArgument

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
_HASH_BUCKETS = 10_000


class DecisionSource(str, Enum):
    MODEL = "Model"
    FALLBACK = "Fallback"
    CAPACITY_OVERRIDE = "CapacityOverride"
    REPEAT_OVERRIDE = "RepeatOverride"


@dataclass(frozen=True)
class DecisionConfig:
    """Thresholds of the decision layer; defaults are the shipped values."""

    fallback_tau: float = 1.0  # |tau| at or below this arms the fallback
    fallback_width: float = 15.0  # interval width at or above this arms it
    capacity_tau: float = 1.0  # Redeploy savings below this get downgraded
    repeat_threshold: int = 10  # repeat_count above this forces Redeploy

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if not 0 <= self.fallback_tau < math.inf:
            raise InvalidArgument(f"fallback_tau must be finite and >= 0, got {self.fallback_tau}")
        if not 0 < self.fallback_width < math.inf:
            raise InvalidArgument(f"fallback_width must be finite and > 0, got {self.fallback_width}")
        if not 0 <= self.capacity_tau < math.inf:
            raise InvalidArgument(f"capacity_tau must be finite and >= 0, got {self.capacity_tau}")
        if self.repeat_threshold < 0:
            raise InvalidArgument(f"repeat_threshold must be >= 0, got {self.repeat_threshold}")


@dataclass(frozen=True)
class PolicyDecision:
    action: MitigationAction
    source: DecisionSource
    ite: IteEstimate | None
    unallocatable_flag: bool
    reason: str = ""

    def __post_init__(self) -> None:
        if self.source == DecisionSource.REPEAT_OVERRIDE:
            if self.action != MitigationAction.REDEPLOY or not self.unallocatable_flag:
                raise InvalidArgument("repeat override must redeploy and flag the node")
        if self.source == DecisionSource.CAPACITY_OVERRIDE and self.action != MitigationAction.REBOOT:
            raise InvalidArgument("capacity override must reboot")

    def to_dict(self) -> dict:
        return {
            "action": int(self.action),
            "source": self.source.value,
            "tau": self.ite.tau if self.ite else None,
            "tau_lower": self.ite.tau_lower if self.ite else None,
            "tau_upper": self.ite.tau_upper if self.ite else None,
            "confidence_level": self.ite.confidence_level if self.ite else None,
            "unallocatable_flag": self.unallocatable_flag,
            "reason": self.reason,
        }


SOURCES = tuple(DecisionSource)
# the rule order as a table: entry 4·repeat + 2·fallback + capacity holds
# the code of the first rule a row arms, or the model's if it arms none
_FIRST_ARMED = np.array([SOURCES.index(s) for s in (
    DecisionSource.MODEL, DecisionSource.CAPACITY_OVERRIDE, *[DecisionSource.FALLBACK] * 2, *[DecisionSource.REPEAT_OVERRIDE] * 4,
)])


def decision_sources(tau, width, repeat_count, cfg: DecisionConfig) -> np.ndarray:
    """The fixed rule order over arrays or scalars: per row, the index in
    ``SOURCES`` of the rule that decides it. A table lookup, as
    ``np.select`` costs ~30 µs on the one row of a served decision."""
    repeat = repeat_count > cfg.repeat_threshold
    fallback = (abs(tau) <= cfg.fallback_tau) & (width >= cfg.fallback_width)
    capacity = (tau < 0.0) & (abs(tau) < cfg.capacity_tau)  # a Redeploy of the sign rule
    return _FIRST_ARMED[4 * repeat + 2 * fallback + capacity]


def decide(ite: IteEstimate, signals: DiagnosticSignals, cfg: DecisionConfig = DecisionConfig()) -> PolicyDecision:
    """Apply the fixed rule order to one estimate."""
    source = SOURCES[int(decision_sources(ite.tau, ite.width, signals.repeat_count, cfg))]
    action, reason = preferred_action(ite.tau), ""
    if source == DecisionSource.REPEAT_OVERRIDE:
        action, reason = MitigationAction.REDEPLOY, f"repeat_count {signals.repeat_count} > {cfg.repeat_threshold}"
    elif source == DecisionSource.FALLBACK:
        action = legacy_policy(signals)
        reason = f"|tau| {abs(ite.tau):.3g} <= {cfg.fallback_tau} and width {ite.width:.3g} >= {cfg.fallback_width}"
    elif source == DecisionSource.CAPACITY_OVERRIDE:
        action, reason = MitigationAction.REBOOT, f"redeploy saving |tau| {abs(ite.tau):.3g} < {cfg.capacity_tau}"
    return PolicyDecision(action, source, ite, source == DecisionSource.REPEAT_OVERRIDE, reason)


def preferred_action(tau: float) -> MitigationAction:
    """The sign rule: a positive effect means Redeploy costs more, so pick
    Reboot; ties go to Reboot, which consumes no extra nodes."""
    return MitigationAction.REBOOT if tau >= 0.0 else MitigationAction.REDEPLOY


def legacy_redeploys(signals):
    """Where the legacy heuristic (the simulator's rule without its flip)
    redeploys, on hardware evidence: over one record or ``SignalColumns``."""
    return signals.uncorrectable_tag | (signals.error_code == "hw_failure")


def legacy_policy(signals: DiagnosticSignals) -> MitigationAction:
    """The legacy heuristic's action for one record."""
    return MitigationAction(int(legacy_redeploys(signals)))


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def assignment_bucket(node_id: str, experiment_name: str) -> int:
    """Quantized hash in [0, 10000); stable across runs and platforms."""
    return fnv1a64(f"{node_id}|{experiment_name}".encode("utf-8")) % _HASH_BUCKETS


def assign_policy_group(node_id: str, experiment_name: str, groups: list[tuple[str, float]]) -> str:
    """Sticky group assignment by cumulative-weight interval.

    Weights are normalized internally; the same (node, experiment) pair maps
    to the same group forever.
    """
    if not groups:
        raise InvalidArgument("at least one group is required")
    total = sum(w for _, w in groups)
    if not math.isfinite(total) or any(not w > 0 for _, w in groups):  # NaN fails every comparison
        raise InvalidArgument(f"group weights must be finite and positive, got {[w for _, w in groups]}")
    u = assignment_bucket(node_id, experiment_name) / _HASH_BUCKETS
    acc = 0.0
    for name, weight in groups:
        acc += weight / total
        if u < acc:
            return name
    return groups[-1][0]

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


def decide(ite: IteEstimate, signals: DiagnosticSignals, cfg: DecisionConfig = DecisionConfig()) -> PolicyDecision:
    """Apply the fixed rule order to one estimate."""
    if signals.repeat_count > cfg.repeat_threshold:
        return PolicyDecision(
            action=MitigationAction.REDEPLOY,
            source=DecisionSource.REPEAT_OVERRIDE,
            ite=ite,
            unallocatable_flag=True,
            reason=f"repeat_count {signals.repeat_count} > {cfg.repeat_threshold}",
        )

    if abs(ite.tau) <= cfg.fallback_tau and ite.width >= cfg.fallback_width:
        return PolicyDecision(
            action=legacy_policy(signals),
            source=DecisionSource.FALLBACK,
            ite=ite,
            unallocatable_flag=False,
            reason=f"|tau| {abs(ite.tau):.3g} <= {cfg.fallback_tau} and width {ite.width:.3g} >= {cfg.fallback_width}",
        )

    action = preferred_action(ite.tau)
    if action == MitigationAction.REDEPLOY and abs(ite.tau) < cfg.capacity_tau:
        return PolicyDecision(
            action=MitigationAction.REBOOT,
            source=DecisionSource.CAPACITY_OVERRIDE,
            ite=ite,
            unallocatable_flag=False,
            reason=f"redeploy saving |tau| {abs(ite.tau):.3g} < {cfg.capacity_tau}",
        )
    return PolicyDecision(action=action, source=DecisionSource.MODEL, ite=ite, unallocatable_flag=False)


def preferred_action(tau: float) -> MitigationAction:
    """The sign rule: a positive effect means Redeploy costs more, so pick
    Reboot; ties go to Reboot, which consumes no extra nodes."""
    return MitigationAction.REBOOT if tau >= 0.0 else MitigationAction.REDEPLOY


def legacy_policy(signals: DiagnosticSignals) -> MitigationAction:
    """Deterministic legacy heuristic (the simulator's rule without its
    exploration flip): hardware evidence means Redeploy, otherwise Reboot."""
    if signals.uncorrectable_tag or signals.error_code == "hw_failure":
        return MitigationAction.REDEPLOY
    return MitigationAction.REBOOT


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

"""KPIs, bias measurement, the policy harness, and counterfactual analysis.

The harness generates fresh events with both potential outcomes, lets each
policy pick actions over the identical event stream, and reads results off
the matching potential outcome. Repeated-failure dynamics are stepped per
node, so a bad reboot spawns recurrences that count toward the
interruption rate. Downtime, blackout and unallocatable KPIs aggregate
over the primary events (every policy faces the same ones); interruptions
count recurrence events too, which is exactly how a reboot-happy policy
pays for repeat failures.

Percentile convention: nearest-rank (the ceil(q*n)-th smallest value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decisions import DecisionConfig, PolicyDecision, decide, legacy_policy, preferred_action
from .dml import DmlModel, estimate_ite, estimate_ite_batch
from .domain import DiagnosticSignals, LabeledEvent, MitigationAction, rng_for, to_record
from .errors import DegenerateTreatment, InvalidArgument
from .simulate import (
    EventStream,
    GroundTruth,
    SimConfig,
    potential_outcomes,
    sample_event,
    step_node,
    _draw_signals,
)

POLICY_NAMES = ("random", "legacy", "always_reboot", "always_redeploy", "engine", "oracle")


def avd(per_vm_downtimes) -> float:
    """Average downtime over a flat list of per-VM downtimes."""
    values = np.asarray(per_vm_downtimes, dtype=np.float64)
    if values.size == 0:
        raise InvalidArgument("avd needs at least one downtime value")
    return float(values.mean())


def air(interruptions: int, vm_lifetime_days: float) -> float:
    """Interruptions per 100 VM-years."""
    if vm_lifetime_days <= 0:
        raise InvalidArgument("vm_lifetime_days must be > 0")
    return interruptions / vm_lifetime_days * 365.0 * 100.0


def nearest_rank_percentile(values, q: float) -> float:
    """The ceil(q/100 * n)-th smallest value (nearest-rank convention)."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    if values.size == 0:
        raise InvalidArgument("percentile of empty list")
    if not (0.0 < q <= 100.0):
        raise InvalidArgument("q must lie in (0, 100]")
    rank = max(1, math.ceil(q / 100.0 * values.size))
    return float(values[rank - 1])


def naive_effect(dataset: list[LabeledEvent]) -> float:
    """Raw actual-vs-actual outcome gap; biased under confounding."""
    y = np.asarray([e.avd for e in dataset], dtype=np.float64)
    a = np.asarray([int(e.action) for e in dataset])
    if not (np.any(a == 0) and np.any(a == 1)):
        raise DegenerateTreatment("naive effect needs both actions in the dataset")
    return float(y[a == 1].mean() - y[a == 0].mean())


def adjusted_effect(model: DmlModel, dataset: list[LabeledEvent]) -> float:
    """Sample-averaged model effect: the deconfounded counterpart."""
    if not dataset:
        raise InvalidArgument("adjusted_effect needs a non-empty dataset")
    estimates = estimate_ite_batch(model, [e.signals for e in dataset])
    return float(np.mean([e.tau for e in estimates]))


# ---------------------------------------------------------------------------
# policies


class RandomPolicy:
    name = "random"

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def choose(self, signals, outcomes):
        return MitigationAction(int(self.rng.random() < 0.5))


class LegacyPolicy:
    name = "legacy"

    def choose(self, signals, outcomes):
        return legacy_policy(signals)


class AlwaysPolicy:
    def __init__(self, action: MitigationAction) -> None:
        self.action = action
        self.name = "always_reboot" if action == MitigationAction.REBOOT else "always_redeploy"

    def choose(self, signals, outcomes):
        return self.action


class OraclePolicy:
    """Reads the ground-truth potential outcomes; lower-bounds downtime."""

    name = "oracle"

    def choose(self, signals, outcomes):
        if outcomes.y_reboot <= outcomes.y_redeploy:
            return MitigationAction.REBOOT
        return MitigationAction.REDEPLOY


class EnginePolicy:
    """The trained model behind the decision layer."""

    name = "engine"

    def __init__(self, model: DmlModel, decision_config: DecisionConfig | None = None) -> None:
        self.model = model
        self.cfg = decision_config or DecisionConfig()
        self._prepared: dict[DiagnosticSignals, object] = {}
        self.last_decision: PolicyDecision | None = None

    def prepare(self, signal_rows: list[DiagnosticSignals]) -> None:
        """Batch-estimate known signals up front; identical signals share
        the same estimate, so collisions are harmless."""
        estimates = estimate_ite_batch(self.model, signal_rows)
        self._prepared = {s: est for s, est in zip(signal_rows, estimates)}

    def choose(self, signals, outcomes):
        est = self._prepared.get(signals)
        if est is None:
            est = estimate_ite(self.model, signals)
        decision = decide(est, signals, self.cfg)
        self.last_decision = decision
        return decision.action


def make_policy(name: str, rng: np.random.Generator, model: DmlModel | None = None,
                decision_config: DecisionConfig | None = None):
    if name == "random":
        return RandomPolicy(rng)
    if name == "legacy":
        return LegacyPolicy()
    if name == "always_reboot":
        return AlwaysPolicy(MitigationAction.REBOOT)
    if name == "always_redeploy":
        return AlwaysPolicy(MitigationAction.REDEPLOY)
    if name == "oracle":
        return OraclePolicy()
    if name == "engine":
        if model is None:
            raise InvalidArgument("engine policy needs a trained model")
        return EnginePolicy(model, decision_config)
    raise InvalidArgument(f"unknown policy {name!r}; choose from {POLICY_NAMES}")


# ---------------------------------------------------------------------------
# harness


@dataclass(frozen=True)
class KpiRow:
    policy: str
    sample_count: int
    vm_count: int
    avd_mean: float
    avd_p50: float
    avd_p75: float
    avd_p90: float
    avd_p99: float
    air: float
    blackout_mean: float
    unallocatable_rate: float
    unallocatable_mean: float
    redeploy_count: int
    recurrence_events: int
    convergence_events: int = 0  # primary events whose chain was cut at max_chain_length


@dataclass(frozen=True)
class KpiReport:
    n_events: int
    seed: int
    horizon_days: float
    rows: dict[str, KpiRow]
    downtime_histograms: dict[str, list] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n_events": self.n_events,
            "seed": self.seed,
            "horizon_days": self.horizon_days,
            "policies": {name: to_record(row) for name, row in sorted(self.rows.items())},
        }

    def to_text_table(self) -> str:
        cols = [
            ("policy", "policy", "s"),
            ("events", "sample_count", "d"),
            ("VMs", "vm_count", "d"),
            ("AVD", "avd_mean", ".3f"),
            ("P50", "avd_p50", ".3f"),
            ("P90", "avd_p90", ".3f"),
            ("AIR", "air", ".1f"),
            ("blackout", "blackout_mean", ".3f"),
            ("unalloc%", "unallocatable_rate", ".3f"),
            ("redeploys", "redeploy_count", "d"),
            ("conv", "convergence_events", "d"),
        ]
        order = [n for n in POLICY_NAMES if n in self.rows] + [n for n in sorted(self.rows) if n not in POLICY_NAMES]
        widths = []
        header = []
        for title, attr, fmt in cols:
            vals = [format(getattr(self.rows[n], attr), fmt) for n in order]
            w = max(len(title), *(len(v) for v in vals)) if vals else len(title)
            widths.append(w)
            header.append(title.rjust(w))
        lines = ["  ".join(header)]
        for n in order:
            cells = []
            for (title, attr, fmt), w in zip(cols, widths):
                cells.append(format(getattr(self.rows[n], attr), fmt).rjust(w))
            lines.append("  ".join(cells))
        return "\n".join(lines)

    def histogram_csv(self) -> str:
        lines = ["policy,bin_left,bin_right,count"]
        for name in sorted(self.downtime_histograms):
            for left, right, count in self.downtime_histograms[name]:
                lines.append(f"{name},{left:.6g},{right:.6g},{count}")
        return "\n".join(lines) + "\n"


def run_policy_comparison(
    policies: list[str],
    n_events: int,
    config: SimConfig,
    seed: int,
    model: DmlModel | None = None,
    decision_config: DecisionConfig | None = None,
) -> KpiReport:
    """Simulate every policy over one identical stream of unhealthy events.

    Per primary event each policy picks an action knowing only the signals
    (the oracle alone reads the ground truth); the factual outcome is the
    matching potential outcome. Node dynamics then decide whether the node
    relapses; recurrence events rejoin the queue with a raised repeat count
    until the chain breaks or the cap is hit.
    """
    if n_events < 1:
        raise InvalidArgument("n_events must be >= 1")
    primaries = _generate_primaries(n_events, config)
    rows = {}
    histograms = {}
    for p_idx, name in enumerate(policies):
        policy_rng = rng_for(seed, 100, p_idx)
        policy = make_policy(name, policy_rng, model=model, decision_config=decision_config)
        if isinstance(policy, EnginePolicy):
            policy.prepare([draw.signals for _, draw, _, _ in primaries])
        rows[name], histograms[name] = _run_one_policy(policy, primaries, config, seed)
    return KpiReport(
        n_events=n_events,
        seed=seed,
        horizon_days=config.horizon_days,
        rows=rows,
        downtime_histograms=histograms,
    )


def _generate_primaries(n_events: int, config: SimConfig):
    """One shared stream so every policy faces identical events."""
    state = EventStream.from_config(config)
    horizon = config.horizon_ticks
    primaries = []
    for i in range(n_events):
        draw = sample_event(state, config)
        outs = potential_outcomes(draw.latent, draw.signals, config, state.rng)
        tick = int(horizon * (i + 1) // (n_events + 1))
        primaries.append((i, draw, outs, tick))
    return primaries


def _run_one_policy(policy, primaries, config: SimConfig, seed: int):
    per_vm_downtimes = []
    blackouts = []
    unallocs = []
    total_vms = 0
    interruptions = 0
    redeploys = 0
    samples = 0
    recurrences = 0
    capped = 0

    for ev_idx, draw, outs, tick in primaries:
        signals = draw.signals
        outcomes = outs
        history = [tick]
        chain_step = 0
        while True:
            samples += 1
            action = policy.choose(signals, outcomes)
            y, ints, blackout, unalloc = outcomes.for_action(action)
            flagged = isinstance(policy, EnginePolicy) and policy.last_decision is not None and policy.last_decision.unallocatable_flag
            if flagged:
                unalloc += config.investigation_hold
            if chain_step == 0:
                per_vm_downtimes.extend([y] * signals.vm_count)
                blackouts.append(blackout)
                unallocs.append(unalloc)
                total_vms += signals.vm_count
            interruptions += ints
            if action == MitigationAction.REDEPLOY:
                redeploys += 1

            if chain_step >= config.max_chain_length:
                capped += 1
                break
            # recurrence draws keyed by (event, step): identical chains across
            # policies see identical randomness
            chain_rng = rng_for(seed, 200, ev_idx, chain_step)
            step = step_node(history, action, draw.latent, config, chain_rng)
            if not step.recurrence:
                break
            recurrences += 1
            chain_step += 1
            history.append(step.next_tick)
            signals = _draw_signals(draw.latent, signals.vm_count, step.repeat_count, config, chain_rng)
            outcomes = potential_outcomes(draw.latent, signals, config, chain_rng)

    downtimes = np.asarray(per_vm_downtimes, dtype=np.float64)
    unalloc_arr = np.asarray(unallocs, dtype=np.float64)
    positive_unalloc = unalloc_arr[unalloc_arr > 0]
    vm_lifetime_days = total_vms * config.horizon_days
    row = KpiRow(
        policy=policy.name,
        sample_count=samples,
        vm_count=total_vms,
        avd_mean=avd(downtimes),
        avd_p50=nearest_rank_percentile(downtimes, 50),
        avd_p75=nearest_rank_percentile(downtimes, 75),
        avd_p90=nearest_rank_percentile(downtimes, 90),
        avd_p99=nearest_rank_percentile(downtimes, 99),
        air=air(interruptions, vm_lifetime_days),
        blackout_mean=float(np.mean(blackouts)),
        unallocatable_rate=float((unalloc_arr > 0).mean()),
        unallocatable_mean=float(positive_unalloc.mean()) if positive_unalloc.size else 0.0,
        redeploy_count=redeploys,
        recurrence_events=recurrences,
        convergence_events=capped,
    )
    edges = np.linspace(0.0, 60.0, 31)
    counts, _ = np.histogram(np.clip(downtimes, 0, 59.999), bins=edges)
    hist = [(float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))]
    return row, hist


def run_ab_experiment(
    groups: list[tuple[str, float]],
    experiment_name: str,
    n_events: int,
    config: SimConfig,
    seed: int,
    model: DmlModel | None = None,
    decision_config: DecisionConfig | None = None,
) -> dict:
    """Sticky-assignment experiment: each node hashes into one policy group
    and stays there; KPIs aggregate per group over that group's events."""
    from .decisions import assign_policy_group

    if n_events < 1:
        raise InvalidArgument("n_events must be >= 1")
    names = [name for name, _ in groups]
    if len(set(names)) != len(names):
        raise InvalidArgument("group names must be unique")
    primaries = _generate_primaries(n_events, config)
    by_group: dict[str, list] = {name: [] for name in names}
    for item in primaries:
        _, draw, _, _ = item
        group = assign_policy_group(draw.node_id, experiment_name, groups)
        by_group[group].append(item)

    result = {"experiment": experiment_name, "n_events": n_events, "groups": {}, "assignment_counts": {}}
    for g_idx, name in enumerate(names):
        subset = by_group[name]
        result["assignment_counts"][name] = len(subset)
        if not subset:
            continue
        policy_rng = rng_for(seed, 300, g_idx)
        policy = make_policy(name, policy_rng, model=model, decision_config=decision_config)
        if isinstance(policy, EnginePolicy):
            policy.prepare([draw.signals for _, draw, _, _ in subset])
        row, _ = _run_one_policy(policy, subset, config, seed)
        result["groups"][name] = to_record(row)
    return result


# ---------------------------------------------------------------------------
# counterfactual analysis


@dataclass(frozen=True)
class CounterfactualReport:
    agree_fraction: float
    switch_to_reboot_fraction: float
    switch_to_redeploy_fraction: float
    predicted_saving_to_reboot: float
    predicted_saving_to_redeploy: float
    true_saving_to_reboot: float | None = None
    true_saving_to_redeploy: float | None = None


def counterfactual_analysis(
    model: DmlModel,
    dataset: list[LabeledEvent],
    truths: list[GroundTruth] | None = None,
) -> CounterfactualReport:
    """Where would the model have disagreed with the logged actions?

    Rows where the sign rule prefers the other action are 'switches'; the
    mean |tau| within a switch group is the predicted per-event saving. On
    simulated data the ground-truth file also yields the realized saving
    (logged outcome minus the outcome of the model's pick).
    """
    if not dataset:
        raise InvalidArgument("counterfactual analysis needs a non-empty dataset")
    estimates = estimate_ite_batch(model, [e.signals for e in dataset])
    taus = np.asarray([e.tau for e in estimates])
    logged = np.asarray([int(e.action) for e in dataset])
    preferred = np.asarray([int(preferred_action(t)) for t in taus])

    agree = preferred == logged
    to_reboot = (logged == 1) & (preferred == 0)
    to_redeploy = (logged == 0) & (preferred == 1)

    def mean_abs(mask) -> float:
        return float(np.abs(taus[mask]).mean()) if mask.any() else 0.0

    true_rb = true_rd = None
    if truths is not None:
        by_id = {t.event_id: t for t in truths}
        y0 = np.asarray([by_id[e.event_id].y_reboot for e in dataset])
        y1 = np.asarray([by_id[e.event_id].y_redeploy for e in dataset])
        saving = np.where(to_reboot, y1 - y0, y0 - y1)  # logged minus preferred
        true_rb = float(saving[to_reboot].mean()) if to_reboot.any() else 0.0
        true_rd = float(saving[to_redeploy].mean()) if to_redeploy.any() else 0.0

    return CounterfactualReport(
        agree_fraction=float(agree.mean()),
        switch_to_reboot_fraction=float(to_reboot.mean()),
        switch_to_redeploy_fraction=float(to_redeploy.mean()),
        predicted_saving_to_reboot=mean_abs(to_reboot),
        predicted_saving_to_redeploy=mean_abs(to_redeploy),
        true_saving_to_reboot=true_rb,
        true_saving_to_redeploy=true_rd,
    )

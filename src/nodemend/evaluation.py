"""KPIs, bias measurement, the policy harness, and counterfactual analysis.

The harness draws fresh events with both potential outcomes through the
same keyed column draws as ``simulate`` (on a stream apart from the
config's training events), lets each policy pick actions over them, and
reads results off the matching potential outcome. Repeated-failure
dynamics are stepped for all of a policy's live chains together, so a bad
reboot spawns recurrences that count toward the interruption rate.
Downtime, blackout and unallocatable KPIs aggregate over the primary
events (every policy faces the same ones); interruptions count recurrence
events too, which is exactly how a reboot-happy policy pays for repeat
failures.

Percentile convention: nearest-rank (the ceil(q*n)-th smallest value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decisions import SOURCES, DecisionConfig, DecisionSource, assign_policy_group, decision_sources, legacy_redeploys, preferred_action
from .decisions import decide  # noqa: F401  perfbench's tracer times evaluation.decide
from .dml import DmlModel, effect_bounds, estimate_ite_batch
from .dml import estimate_ite  # noqa: F401  perfbench's tracer times evaluation.estimate_ite
from .domain import (
    KEYED_EVENTS,
    LabeledEvent,
    MitigationAction,
    SignalColumns,
    encode_matrix,
    keyed_uniforms,
    seed_for,
    to_record,
)
from .errors import DegenerateTreatment, InvalidArgument, MissingTruth
from .simulate import (
    RANDOM_SLOT,
    RECUR_SLOT,
    GroundTruth,
    Nodes,
    PotentialOutcomes,
    SimConfig,
    draw_signals,
    node_id,
    potential_outcomes,
    sample_event,
    step_node,
)

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
#
# A policy chooses for one step of many chains at once: ``choose(signals,
# outcomes, events, step)`` gets the step's ``SignalColumns`` (None for a
# policy that does not read them), its potential outcomes as a record of arrays,
# the chains' event indices and the step number, and returns the actions
# (0/1 per chain) with the unallocatable flags, or None where it never flags.


class RandomPolicy:
    """A fair coin per (event, step), on a keyed draw of its own."""

    name = "random"
    reads_signals = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def choose(self, signals, outcomes, events, step):
        return (keyed_uniforms(self.seed, events, step, RANDOM_SLOT) < 0.5).astype(np.int64), None


class LegacyPolicy:
    name = "legacy"
    reads_signals = True

    def choose(self, signals, outcomes, events, step):
        return legacy_redeploys(signals).astype(np.int64), None


class AlwaysPolicy:
    reads_signals = False

    def __init__(self, action: MitigationAction) -> None:
        self.action = action
        self.name = "always_reboot" if action == MitigationAction.REBOOT else "always_redeploy"

    def choose(self, signals, outcomes, events, step):
        return np.full(len(events), int(self.action), dtype=np.int64), None


class OraclePolicy:
    """Reads the ground-truth potential outcomes; lower-bounds downtime."""

    name = "oracle"
    reads_signals = False

    def choose(self, signals, outcomes, events, step):
        return (outcomes.y_reboot > outcomes.y_redeploy).astype(np.int64), None


class EnginePolicy:
    """The trained model behind the decision layer, in one array pass per
    step over the step's signal rows."""

    name = "engine"
    reads_signals = True

    def __init__(self, model: DmlModel, decision_config: DecisionConfig | None = None) -> None:
        self.model = model
        self.cfg = decision_config or DecisionConfig()

    def prepare(self, signals: SignalColumns) -> tuple[np.ndarray, ...]:
        """The tau, lower and upper of each of the step's rows."""
        tau, lower, upper = effect_bounds(self.model, encode_matrix(signals, self.model.schema))
        i = np.argmin((lower <= tau) & (tau <= upper))  # the first row out of order, if any
        if not lower[i] <= tau[i] <= upper[i]:  # NaN fails it, as in IteEstimate
            raise InvalidArgument(f"bounds must satisfy lower <= tau <= upper, got ({lower[i]}, {tau[i]}, {upper[i]})")
        return tau, lower, upper

    def choose(self, signals: SignalColumns, outcomes, events, step):
        tau, lower, upper = self.prepare(signals)
        source = decision_sources(tau, upper - lower, signals.repeat_count, self.cfg)
        # per source, in the order of SOURCES: the sign rule, the legacy
        # heuristic, the capacity override's Reboot, the repeat override's Redeploy
        redeploy = np.choose(source, [tau < 0.0, legacy_redeploys(signals), False, True])
        flagged = source == SOURCES.index(DecisionSource.REPEAT_OVERRIDE)
        return redeploy.astype(np.int64), flagged


# name -> constructor(seed, model, decision_config)
POLICIES = {
    "random": lambda seed, model, cfg: RandomPolicy(seed),
    "legacy": lambda seed, model, cfg: LegacyPolicy(),
    "always_reboot": lambda seed, model, cfg: AlwaysPolicy(MitigationAction.REBOOT),
    "always_redeploy": lambda seed, model, cfg: AlwaysPolicy(MitigationAction.REDEPLOY),
    "engine": lambda seed, model, cfg: EnginePolicy(model, cfg),
    "oracle": lambda seed, model, cfg: OraclePolicy(),
}
POLICY_NAMES = tuple(POLICIES)


def check_policies(names: list[str], has_model: bool, what: str = "policies") -> None:
    """Refuse an empty or repeating list, an unknown name, or the engine
    without a model, before anything is drawn."""
    if not names or len(set(names)) != len(names):
        raise InvalidArgument(f"{what} must be a non-empty list of distinct names, got {names}")
    for name in names:
        if name not in POLICIES:
            raise InvalidArgument(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
    if "engine" in names and not has_model:
        raise InvalidArgument("engine policy needs a trained model")


def make_policy(name: str, seed: int, model: DmlModel | None = None,
                decision_config: DecisionConfig | None = None):
    check_policies([name], model is not None)
    return POLICIES[name](seed, model, decision_config)


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
        order = [n for n in POLICY_NAMES if n in self.rows]
        cells = [[title for title, _, _ in cols]]
        cells += [[format(getattr(self.rows[n], attr), fmt) for _, attr, fmt in cols] for n in order]
        widths = [max(map(len, column)) for column in zip(*cells)]
        return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells)

    def histogram_csv(self) -> str:
        lines = ["policy,bin_left,bin_right,count"]
        for name in sorted(self.downtime_histograms):
            for left, right, count in self.downtime_histograms[name]:
                lines.append(f"{name},{left:.6g},{right:.6g},{count}")
        return "\n".join(lines) + "\n"


def _check_events(n_events: int) -> None:
    if not 1 <= n_events <= KEYED_EVENTS:
        raise InvalidArgument(f"n_events must lie in [1, {KEYED_EVENTS}], got {n_events}")


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
    check_policies(policies, model is not None)
    _check_events(n_events)
    nodes, signals, outcomes = _generate_primaries(n_events, config)
    rows = {}
    histograms = {}
    for name in policies:
        policy = make_policy(name, seed, model=model, decision_config=decision_config)
        rows[name], histograms[name] = _run_one_policy(policy, nodes, signals, outcomes, config, seed)
    return KpiReport(
        n_events=n_events,
        seed=seed,
        horizon_days=config.horizon_days,
        rows=rows,
        downtime_histograms=histograms,
    )


def _generate_primaries(n_events: int, config: SimConfig) -> tuple[Nodes, SignalColumns, PotentialOutcomes]:
    """Step 0 of every chain, the events every policy faces: events
    0..n_events-1 of a stream of their own, so the engine is never scored
    on the rows it was trained on."""
    seed = seed_for(config.seed, 300)
    nodes, signals = sample_event(np.arange(n_events), config, seed)
    return nodes, signals, potential_outcomes(nodes, config, seed, 0)


def _run_one_policy(policy, nodes: Nodes, signals, outcomes: PotentialOutcomes, config: SimConfig, seed: int):
    """Run one policy over the primary events and their recurrence chains.

    Every live chain takes its next step together with the others. Chain
    draws are keyed by (event, step, slot), so identical chains see
    identical randomness under every policy, whatever the order or the
    company they run in.
    """
    total_vms = int(nodes.vm_count.sum())
    samples = interruptions = redeploys = recurrences = capped = 0
    step = 0
    while True:
        actions, flagged = policy.choose(signals, outcomes, nodes.events, step)
        redeploy = actions == MitigationAction.REDEPLOY
        samples += nodes.events.size
        interruptions += int(np.where(redeploy, outcomes.interruptions_redeploy, outcomes.interruptions_reboot).sum())
        redeploys += int(redeploy.sum())
        if step == 0:
            downtimes = np.repeat(np.where(redeploy, outcomes.y_redeploy, outcomes.y_reboot), nodes.vm_count)
            blackouts = np.where(redeploy, outcomes.blackout_redeploy, outcomes.blackout_reboot)
            unallocs = np.where(redeploy, outcomes.unallocatable_redeploy, outcomes.unallocatable_reboot)
            if flagged is not None:
                unallocs = np.where(flagged, unallocs + config.investigation_hold, unallocs)
        if step >= config.max_chain_length:
            capped += nodes.events.size
            break
        recur = step_node(step, actions, nodes.cause, config, keyed_uniforms(seed, nodes.events, step, RECUR_SLOT))
        if not recur.recurrence.any():
            break
        nodes = nodes[recur.recurrence]
        recurrences += nodes.events.size
        step += 1
        outcomes = potential_outcomes(nodes, config, seed, step)
        signals = draw_signals(nodes, recur.repeat_count, config, seed, step) if policy.reads_signals else None

    positive_unalloc = unallocs[unallocs > 0]
    row = KpiRow(
        policy=policy.name,
        sample_count=samples,
        vm_count=total_vms,
        avd_mean=avd(downtimes),
        avd_p50=nearest_rank_percentile(downtimes, 50),
        avd_p75=nearest_rank_percentile(downtimes, 75),
        avd_p90=nearest_rank_percentile(downtimes, 90),
        avd_p99=nearest_rank_percentile(downtimes, 99),
        air=air(interruptions, total_vms * config.horizon_days),
        blackout_mean=float(np.mean(blackouts)),
        unallocatable_rate=float((unallocs > 0).mean()),
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
    names = [name for name, _ in groups]
    check_policies(names, model is not None, "group names")
    _check_events(n_events)
    nodes, signals, outcomes = _generate_primaries(n_events, config)
    group = np.array([assign_policy_group(node_id(e), experiment_name, groups) for e in nodes.events.tolist()])

    result = {"experiment": experiment_name, "n_events": n_events, "groups": {}, "assignment_counts": {}}
    for name in names:
        rows = np.flatnonzero(group == name)
        result["assignment_counts"][name] = rows.size
        if not rows.size:
            continue
        policy = make_policy(name, seed, model=model, decision_config=decision_config)
        row, _ = _run_one_policy(policy, nodes[rows], signals[rows], outcomes[rows], config, seed)
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
    (logged outcome minus the outcome of the model's pick); it must hold a
    record of every event, or MissingTruth is raised before any estimate.
    """
    if not dataset:
        raise InvalidArgument("counterfactual analysis needs a non-empty dataset")
    if truths is not None:
        by_id = {t.event_id: t for t in truths}
        missing = next((e.event_id for e in dataset if e.event_id not in by_id), None)
        if missing is not None:
            raise MissingTruth(f"no record of event {missing}")
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

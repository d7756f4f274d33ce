"""KPIs, bias measurement, the policy harness, and counterfactual analysis.

The harness generates fresh events with both potential outcomes, lets each
policy pick actions over the identical event stream, and reads results off
the matching potential outcome. Repeated-failure dynamics are stepped for
all of a policy's live chains together, so a bad reboot spawns recurrences
that count toward the interruption rate. Downtime, blackout and unallocatable KPIs aggregate
over the primary events (every policy faces the same ones); interruptions
count recurrence events too, which is exactly how a reboot-happy policy
pays for repeat failures.

Percentile convention: nearest-rank (the ceil(q*n)-th smallest value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .decisions import DecisionConfig, decide, legacy_policy, preferred_action
from .dml import DmlModel, estimate_ite_batch
from .dml import estimate_ite  # noqa: F401  perfbench's tracer times evaluation.estimate_ite
from .domain import KEYED_EVENTS, DiagnosticSignals, IteEstimate, LabeledEvent, MitigationAction, keyed_uniforms, to_record
from .errors import DegenerateTreatment, InvalidArgument
from .simulate import (
    OUTCOME_NORMALS,
    OUTCOME_UNIFORMS,
    SIGNAL_UNIFORMS,
    EventStream,
    GroundTruth,
    PotentialOutcomes,
    SimConfig,
    box_muller,
    draw_signal_columns,
    potential_outcome_columns,
    potential_outcomes,
    sample_event,
    step_node,
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
#
# A policy chooses for one step of many chains at once: ``choose(signals,
# outcomes, events, step)`` gets the step's signal rows (None for a policy
# that does not read them), its potential outcomes as a record of arrays,
# the chains' event indices and the step number, and returns the actions
# (0/1 per chain) with the unallocatable flags, or None where it never flags.


class RandomPolicy:
    """A fair coin per (event, step), on a keyed draw of its own."""

    name = "random"
    reads_signals = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def choose(self, signals, outcomes, events, step):
        return (keyed_uniforms(self.seed, events, step, _RANDOM_SLOT) < 0.5).astype(np.int64), None


class LegacyPolicy:
    name = "legacy"
    reads_signals = True

    def choose(self, signals, outcomes, events, step):
        return np.array([legacy_policy(s) for s in signals], dtype=np.int64), None


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
    """The trained model behind the decision layer."""

    name = "engine"
    reads_signals = True

    def __init__(self, model: DmlModel, decision_config: DecisionConfig | None = None) -> None:
        self.model = model
        self.cfg = decision_config or DecisionConfig()
        self._prepared: dict[DiagnosticSignals, IteEstimate] = {}

    def prepare(self, signal_rows: list[DiagnosticSignals]) -> None:
        """Batch-estimate known signals up front; identical signals share
        the same estimate, so collisions are harmless."""
        estimates = estimate_ite_batch(self.model, signal_rows)
        self._prepared.update(zip(signal_rows, estimates))

    def choose(self, signals, outcomes, events, step):
        unseen = list(dict.fromkeys(s for s in signals if s not in self._prepared))
        if unseen:  # one batch per step; every estimate is a function of its row alone
            self._prepared.update(zip(unseen, estimate_ite_batch(self.model, unseen)))
        decisions = [decide(self._prepared[s], s, self.cfg) for s in signals]
        actions = np.array([d.action for d in decisions], dtype=np.int64)
        return actions, np.array([d.unallocatable_flag for d in decisions], dtype=bool)


def make_policy(name: str, seed: int, model: DmlModel | None = None,
                decision_config: DecisionConfig | None = None):
    if name == "random":
        return RandomPolicy(seed)
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


# Slots of the keyed draws of event e's chain at step s (domain.keyed_uniforms):
# whether the event at step s recurs, the random policy's choice there, and
# for a recurrence (s >= 1) its signals' uniforms, its outcomes' uniform and
# the uniform pairs of its outcomes' normals (Box-Muller).
_RECUR_SLOT = 0
_RANDOM_SLOT = 1
_SIGNAL_SLOTS = 2 + np.arange(SIGNAL_UNIFORMS)[:, None]
_OUTCOME_SLOTS = 2 + SIGNAL_UNIFORMS + np.arange(OUTCOME_UNIFORMS + 2 * OUTCOME_NORMALS)[:, None]


@dataclass(frozen=True)
class _Primaries:
    """Primary events column by column: each is step 0 of its event's
    recurrence chain."""

    events: np.ndarray  # event index: the key of the chain's draws
    cause: np.ndarray
    severity: np.ndarray
    vm_count: np.ndarray
    signals: list[DiagnosticSignals]
    outcomes: PotentialOutcomes  # of arrays

    @staticmethod
    def of(primaries) -> "_Primaries":
        draws = [draw for _, draw, _ in primaries]
        outs = [o for _, _, o in primaries]
        return _Primaries(
            events=np.array([i for i, _, _ in primaries], dtype=np.int64),
            cause=np.array([int(d.latent.cause) for d in draws], dtype=np.int64),
            severity=np.array([d.latent.severity for d in draws]),
            vm_count=np.array([d.signals.vm_count for d in draws], dtype=np.int64),
            signals=[d.signals for d in draws],
            outcomes=PotentialOutcomes(*(np.array([getattr(o, f.name) for o in outs]) for f in fields(PotentialOutcomes))),
        )


def _check_policies(names: list[str], what: str) -> None:
    if not names or len(set(names)) != len(names):
        raise InvalidArgument(f"{what} must be a non-empty list of distinct names, got {names}")


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
    _check_policies(policies, "policies")
    _check_events(n_events)
    primaries = _Primaries.of(_generate_primaries(n_events, config))
    rows = {}
    histograms = {}
    for name in policies:
        policy = make_policy(name, seed, model=model, decision_config=decision_config)
        if isinstance(policy, EnginePolicy):
            policy.prepare(primaries.signals)
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
    primaries = []
    for i in range(n_events):
        draw = sample_event(state, config)
        primaries.append((i, draw, potential_outcomes(draw.latent, draw.signals, config, state.rng)))
    return primaries


def _run_one_policy(policy, primaries: _Primaries, config: SimConfig, seed: int):
    """Run one policy over the primary events and their recurrence chains.

    Every live chain takes its next step together with the others. Chain
    draws are keyed by (event, step, slot), so identical chains see
    identical randomness under every policy, whatever the order or the
    company they run in.
    """
    events, cause, severity, vm = primaries.events, primaries.cause, primaries.severity, primaries.vm_count
    signals, outcomes = primaries.signals, primaries.outcomes
    samples = interruptions = redeploys = recurrences = capped = 0
    step = 0
    while True:
        actions, flagged = policy.choose(signals, outcomes, events, step)
        redeploy = actions == MitigationAction.REDEPLOY
        samples += events.size
        interruptions += int(np.where(redeploy, outcomes.interruptions_redeploy, outcomes.interruptions_reboot).sum())
        redeploys += int(redeploy.sum())
        if step == 0:
            downtimes = np.repeat(np.where(redeploy, outcomes.y_redeploy, outcomes.y_reboot), vm)
            blackouts = np.where(redeploy, outcomes.blackout_redeploy, outcomes.blackout_reboot)
            unallocs = np.where(redeploy, outcomes.unallocatable_redeploy, outcomes.unallocatable_reboot)
            if flagged is not None:
                unallocs = np.where(flagged, unallocs + config.investigation_hold, unallocs)
        if step >= config.max_chain_length:
            capped += events.size
            break
        node = step_node(step, actions, cause, config, keyed_uniforms(seed, events, step, _RECUR_SLOT))
        if not node.recurrence.any():
            break
        events, cause, severity, vm = (a[node.recurrence] for a in (events, cause, severity, vm))
        recurrences += events.size
        step += 1
        u = keyed_uniforms(seed, events, step, _OUTCOME_SLOTS)
        outcomes = potential_outcome_columns(cause, severity, vm, config, u[:OUTCOME_UNIFORMS], box_muller(u[OUTCOME_UNIFORMS:]))
        signals = None
        if policy.reads_signals:
            u = keyed_uniforms(seed, events, step, _SIGNAL_SLOTS)
            signals = draw_signal_columns(cause, severity, vm, node.repeat_count, config, u)

    positive_unalloc = unallocs[unallocs > 0]
    total_vms = int(primaries.vm_count.sum())
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
    from .decisions import assign_policy_group

    names = [name for name, _ in groups]
    _check_policies(names, "group names")
    _check_events(n_events)
    primaries = _generate_primaries(n_events, config)
    by_group: dict[str, list] = {name: [] for name in names}
    for item in primaries:
        by_group[assign_policy_group(item[1].node_id, experiment_name, groups)].append(item)

    result = {"experiment": experiment_name, "n_events": n_events, "groups": {}, "assignment_counts": {}}
    for name in names:
        subset = by_group[name]
        result["assignment_counts"][name] = len(subset)
        if not subset:
            continue
        columns = _Primaries.of(subset)
        policy = make_policy(name, seed, model=model, decision_config=decision_config)
        if isinstance(policy, EnginePolicy):
            policy.prepare(columns.signals)
        row, _ = _run_one_policy(policy, columns, config, seed)
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

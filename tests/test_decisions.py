import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodemend.decisions import (
    SOURCES,
    DecisionConfig,
    DecisionSource,
    PolicyDecision,
    assign_policy_group,
    assignment_bucket,
    decide,
    decision_sources,
    fnv1a64,
    legacy_policy,
)
from nodemend.domain import ERROR_CODES, DiagnosticSignals, IteEstimate, MitigationAction, from_record
from nodemend.errors import InvalidArgument
from nodemend.simulate import SimConfig, generate_observational_dataset

# computed once from the FNV-1a 64 definition (offset 14695981039346656037,
# prime 1099511628211) over utf-8 of "<node>|<experiment>", mod 10000
HASH_VECTORS = [
    ("node-000001", "exp-rollout", 6924),
    ("node-000002", "exp-rollout", 2041),
    ("node-042c7f", "exp-rollout", 8953),
    ("node-000001", "pilot-a", 8503),
    ("nodeX", "pilot-a", 3035),
    ("", "empty-node", 15),
    ("node-deadbeef", "", 9264),
    ("node-7f3a2b1c", "regional-52", 4914),
    ("host-99", "regional-52", 7707),
    ("node-000123", "weekly-refresh", 6045),
]


def sig(repeat_count=0, uncorrectable=False, error_code="none", **kw):
    base = dict(
        vm_count=2,
        has_important_workload=False,
        network_ok=True,
        error_code=error_code,
        repeat_count=repeat_count,
        uncorrectable_tag=uncorrectable,
        hardware_type="gen4_compute",
        session_type="standard",
    )
    base.update(kw)
    return DiagnosticSignals(**base)


def ite(tau, width, level=0.9):
    return IteEstimate(tau=tau, tau_lower=tau - width / 2, tau_upper=tau + width / 2, confidence_level=level)


def test_shipped_defaults():
    cfg = DecisionConfig()
    assert cfg.fallback_tau == 1.0
    assert cfg.fallback_width == 15.0
    assert cfg.capacity_tau == 1.0
    assert cfg.repeat_threshold == 10


def test_paper_worked_examples():
    # tau=0.5 wide interval -> fallback to legacy (legacy says Redeploy here)
    d = decide(ite(0.5, 20.0), sig(uncorrectable=True))
    assert (d.action, d.source) == (MitigationAction.REDEPLOY, DecisionSource.FALLBACK)
    # tau=-0.5 narrow -> capacity override flips Redeploy to Reboot
    d = decide(ite(-0.5, 2.0), sig())
    assert (d.action, d.source) == (MitigationAction.REBOOT, DecisionSource.CAPACITY_OVERRIDE)
    # repeat_count=11 dominates a strong Reboot recommendation
    d = decide(ite(8.0, 2.0), sig(repeat_count=11))
    assert (d.action, d.source) == (MitigationAction.REDEPLOY, DecisionSource.REPEAT_OVERRIDE)
    assert d.unallocatable_flag
    # strong negative tau, nothing triggered -> plain model Redeploy
    d = decide(ite(-8.0, 2.0), sig())
    assert (d.action, d.source) == (MitigationAction.REDEPLOY, DecisionSource.MODEL)
    assert not d.unallocatable_flag


TRUTH_TABLE = [
    # (repeat, fallback, capacity) -> expected source
    ((0, 0, 0), DecisionSource.MODEL),
    ((0, 0, 1), DecisionSource.CAPACITY_OVERRIDE),
    ((0, 1, 0), DecisionSource.FALLBACK),
    ((0, 1, 1), DecisionSource.FALLBACK),
    ((1, 0, 0), DecisionSource.REPEAT_OVERRIDE),
    ((1, 0, 1), DecisionSource.REPEAT_OVERRIDE),
    ((1, 1, 0), DecisionSource.REPEAT_OVERRIDE),
    ((1, 1, 1), DecisionSource.REPEAT_OVERRIDE),
]


def trigger_inputs(repeat: int, fallback: int, capacity: int):
    """Construct (ite, signals) arming exactly the requested triggers.

    fallback needs |tau| <= 1 and width >= 15; capacity needs the sign rule
    to pick Redeploy with |tau| < 1. tau = -1.0 arms fallback but not
    capacity (strict inequality); tau = -0.5 with a narrow interval arms
    capacity but not fallback.
    """
    if fallback and capacity:
        est = ite(-0.5, 20.0)
    elif fallback:
        est = ite(-1.0, 20.0)
    elif capacity:
        est = ite(-0.5, 2.0)
    else:
        est = ite(-8.0, 2.0)
    return est, sig(repeat_count=11 if repeat else 0)


@pytest.mark.parametrize("combo,expected", TRUTH_TABLE)
def test_precedence_truth_table(combo, expected):
    est, signals = trigger_inputs(*combo)
    decision = decide(est, signals)
    assert decision.source == expected
    if expected == DecisionSource.REPEAT_OVERRIDE:
        assert decision.action == MitigationAction.REDEPLOY
        assert decision.unallocatable_flag
    if expected == DecisionSource.CAPACITY_OVERRIDE:
        assert decision.action == MitigationAction.REBOOT
    if expected == DecisionSource.FALLBACK:
        assert decision.action == legacy_policy(signals)
        assert decision.reason


@settings(max_examples=300)
@given(
    tau=st.one_of(st.floats(-20.0, 20.0), st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])),
    width=st.one_of(st.floats(0.0, 40.0), st.sampled_from([0.0, 2.0, 15.0, 20.0])),
    repeat_count=st.integers(0, 30),
    uncorrectable=st.booleans(),
    error_code=st.sampled_from([*ERROR_CODES, None]),
    cfg=st.builds(
        DecisionConfig,
        fallback_tau=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        fallback_width=st.sampled_from([1.0, 2.0, 15.0, 30.0]),
        capacity_tau=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        repeat_threshold=st.integers(0, 20),
    ),
)
def test_rule_precedence_property(tau, width, repeat_count, uncorrectable, error_code, cfg):
    # RepeatOverride, then Fallback, then CapacityOverride, then Model; each
    # rule implies its action and whether the node is flagged
    est = ite(tau, width)
    signals = sig(repeat_count=repeat_count, uncorrectable=uncorrectable, error_code=error_code)
    if repeat_count > cfg.repeat_threshold:
        expected = (DecisionSource.REPEAT_OVERRIDE, MitigationAction.REDEPLOY, True)
    elif abs(tau) <= cfg.fallback_tau and est.width >= cfg.fallback_width:
        expected = (DecisionSource.FALLBACK, legacy_policy(signals), False)
    elif tau < 0 and -tau < cfg.capacity_tau:
        expected = (DecisionSource.CAPACITY_OVERRIDE, MitigationAction.REBOOT, False)
    else:
        expected = (DecisionSource.MODEL, MitigationAction.REDEPLOY if tau < 0 else MitigationAction.REBOOT, False)
    d = decide(est, signals, cfg)
    assert (d.source, d.action, d.unallocatable_flag) == expected
    assert d.ite is est


def readme_rule_order(tau, width, repeat_count, cfg):
    """The README's rule order for one row, written out: the repeat
    override, the fallback, the sign rule, then the capacity override of a
    Redeploy it picks."""
    if repeat_count > cfg.repeat_threshold:
        return DecisionSource.REPEAT_OVERRIDE
    if abs(tau) <= cfg.fallback_tau and width >= cfg.fallback_width:
        return DecisionSource.FALLBACK
    if tau < 0.0 and abs(tau) < cfg.capacity_tau:
        return DecisionSource.CAPACITY_OVERRIDE
    return DecisionSource.MODEL


@settings(max_examples=200)
@given(st.data())
def test_decision_sources_follow_the_rule_order_row_by_row(data):
    cfg = DecisionConfig(
        fallback_tau=data.draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]), label="fallback_tau"),
        fallback_width=data.draw(st.sampled_from([0.5, 15.0]), label="fallback_width"),
        capacity_tau=data.draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]), label="capacity_tau"),
        repeat_threshold=data.draw(st.integers(0, 12), label="repeat_threshold"),
    )
    # values exactly at each threshold, one ulp either side, and anywhere
    edges = [0.0, cfg.fallback_tau, cfg.capacity_tau]
    at_tau = [x for e in edges for x in (e, -e, np.nextafter(e, np.inf), -np.nextafter(e, np.inf), np.nextafter(e, -np.inf))]
    at_width = [cfg.fallback_width, np.nextafter(cfg.fallback_width, 0.0), np.nextafter(cfg.fallback_width, np.inf), 0.0]
    at_repeat = [cfg.repeat_threshold - 1, cfg.repeat_threshold, cfg.repeat_threshold + 1, 0]
    rows = data.draw(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(at_tau), st.floats(-20.0, 20.0)),
                st.one_of(st.sampled_from(at_width), st.floats(0.0, 40.0)),
                st.one_of(st.sampled_from(at_repeat), st.integers(0, 30)),
            ),
            min_size=1,
            max_size=40,
        ),
        label="rows",
    )
    tau, width, repeat = (np.array(column) for column in zip(*rows))
    got = [SOURCES[code] for code in decision_sources(tau, width, repeat, cfg).tolist()]
    assert got == [readme_rule_order(t, w, r, cfg) for t, w, r in rows]
    for t, w, r in rows[:5]:
        assert SOURCES[int(decision_sources(t, w, r, cfg))] == readme_rule_order(t, w, r, cfg)


def test_tie_goes_to_reboot():
    d = decide(ite(0.0, 2.0), sig())
    assert d.action == MitigationAction.REBOOT
    assert d.source == DecisionSource.MODEL


def test_no_model_redeploy_below_capacity_threshold():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        tau = float(rng.uniform(-3, 3))
        width = float(rng.uniform(0, 30))
        rc = int(rng.integers(0, 15))
        d = decide(ite(tau, width), sig(repeat_count=rc))
        if d.source == DecisionSource.MODEL and d.action == MitigationAction.REDEPLOY:
            assert abs(tau) >= DecisionConfig().capacity_tau


def test_unit_invariance():
    rng = np.random.default_rng(1)
    for _ in range(500):
        tau = float(rng.uniform(-5, 5))
        width = float(rng.uniform(0, 40))
        scale = float(rng.uniform(0.1, 10))
        s = sig(repeat_count=int(rng.integers(0, 14)), uncorrectable=bool(rng.integers(0, 2)))
        base_cfg = DecisionConfig()
        scaled_cfg = DecisionConfig(
            fallback_tau=base_cfg.fallback_tau * scale,
            fallback_width=base_cfg.fallback_width * scale,
            capacity_tau=base_cfg.capacity_tau * scale,
        )
        d1 = decide(ite(tau, width), s, base_cfg)
        d2 = decide(ite(tau * scale, width * scale), s, scaled_cfg)
        assert (d1.action, d1.source) == (d2.action, d2.source)


def test_legacy_policy_matches_simulator_rule_without_flip():
    events, _ = generate_observational_dataset(10_000, SimConfig(seed=5, legacy_flip_prob=0.0))
    for e in events:
        assert legacy_policy(e.signals) == e.action


def test_policy_decision_invariants():
    with pytest.raises(InvalidArgument):
        PolicyDecision(
            action=MitigationAction.REBOOT,
            source=DecisionSource.REPEAT_OVERRIDE,
            ite=None,
            unallocatable_flag=True,
        )
    with pytest.raises(InvalidArgument):
        PolicyDecision(
            action=MitigationAction.REDEPLOY,
            source=DecisionSource.CAPACITY_OVERRIDE,
            ite=None,
            unallocatable_flag=False,
        )


def test_fnv_vectors_frozen():
    for node, experiment, bucket in HASH_VECTORS:
        assert assignment_bucket(node, experiment) == bucket


def test_fnv_known_offset():
    # empty input hashes to the offset basis
    assert fnv1a64(b"") == 14695981039346656037


def test_assignment_sticky_and_pure():
    groups = [("control", 0.5), ("treatment", 0.5)]
    for node, experiment, _ in HASH_VECTORS:
        g1 = assign_policy_group(node, experiment, groups)
        g2 = assign_policy_group(node, experiment, groups)
        assert g1 == g2


def test_assignment_single_group():
    assert assign_policy_group("any-node", "exp", [("only", 1.0)]) == "only"


def test_assignment_weight_validation():
    with pytest.raises(InvalidArgument):
        assign_policy_group("n", "e", [])
    with pytest.raises(InvalidArgument):
        assign_policy_group("n", "e", [("a", 0.0), ("b", 1.0)])
    for bad in (float("inf"), float("nan"), float("-inf"), 1e308):
        with pytest.raises(InvalidArgument, match="finite and positive"):
            assign_policy_group("n", "e", [("a", bad), ("b", 1e308)])


def test_assignment_respects_weights():
    counts = {"a": 0, "b": 0}
    for i in range(20_000):
        counts[assign_policy_group(f"node-{i:06d}", "weights-test", [("a", 0.25), ("b", 0.75)])] += 1
    assert counts["a"] / 20_000 == pytest.approx(0.25, abs=0.01)


def test_decision_config_fail_closed():
    with pytest.raises(InvalidArgument):
        from_record(DecisionConfig, {"fallback_tau": 1.0, "unknown_knob": 2})
    with pytest.raises(InvalidArgument):
        DecisionConfig(fallback_width=0.0)


def test_repeat_threshold_must_not_be_negative():
    # -1 would override every decision, repeat_count 0 included
    with pytest.raises(InvalidArgument, match="repeat_threshold must be >= 0"):
        DecisionConfig(repeat_threshold=-1)
    assert DecisionConfig(repeat_threshold=0).repeat_threshold == 0

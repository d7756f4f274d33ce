import numpy as np
import pytest

from nodemend.decisions import preferred_action
from nodemend.domain import MitigationAction, encode_matrix
from nodemend.dml import estimate_ite_batch
from nodemend.errors import InsufficientData, InvalidArgument
from nodemend.evaluation import adjusted_effect
from nodemend.interpret import cate_by_feature, fit_policy_tree, interpret_model, render_policy
from nodemend.simulate import SimConfig, generate_observational_dataset


@pytest.fixture(scope="module")
def hw_clustered():
    """Events where the effect is -5 iff error_code == hw_failure, else +5;
    hardware failures should map to Redeploy at the root."""
    cfg = SimConfig(seed=71)
    events, _ = generate_observational_dataset(1200, cfg)
    X = encode_matrix([e.signals for e in events], cfg.schema())
    hw_col = cfg.schema().column_names.index("error_code=hw_failure")
    tau = np.where(X[:, hw_col] == 1.0, -5.0, 5.0)
    return cfg, events, X, tau, hw_col


def test_policy_tree_splits_on_hw_failure(hw_clustered):
    cfg, events, X, tau, hw_col = hw_clustered
    tree = fit_policy_tree(X, tau, max_depth=3)
    assert tree.feature[0] == hw_col
    # hw side (one-hot == 1 goes right of threshold 0.5) recommends Redeploy
    right, left = tree.child[:2]  # node k's children sit at 2k (right) and 2k + 1 (left)
    assert preferred_action(tree.value[right]) == MitigationAction.REDEPLOY
    assert preferred_action(tree.value[left]) == MitigationAction.REBOOT


def test_policy_tree_constant_tau_single_leaf():
    rng = np.random.default_rng(0)
    # at 5 000 rows the split scores' rounding error exceeds the minimum gain
    for n, value in ((100, 1.5), (5000, 5.3)):
        X = rng.normal(size=(n, 4))
        tree = fit_policy_tree(X, np.full(n, value), max_depth=3)
        assert len(tree.feature) == 1
        assert tree.feature[0] == -1


def test_policy_tree_depth_bound():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(500, 4))
    tau = np.sign(X[:, 0]) + 0.5 * np.sign(X[:, 1])
    tree = fit_policy_tree(X, tau, max_depth=1)
    assert len(tree.feature) <= 3
    assert tree.depth <= 1


def test_policy_tree_requires_rows():
    with pytest.raises(InsufficientData):
        fit_policy_tree(np.zeros((10, 2)), np.zeros(10), max_depth=2)


def test_policy_tree_deterministic(hw_clustered):
    _, _, X, tau, _ = hw_clustered
    t1 = fit_policy_tree(X, tau, max_depth=3)
    t2 = fit_policy_tree(X, tau, max_depth=3)
    assert np.array_equal(t1.feature, t2.feature)
    assert np.array_equal(t1.threshold, t2.threshold)
    assert np.array_equal(t1.value, t2.value)
    assert np.array_equal(t1.count, t2.count)


def test_policy_tree_actions_invariant_to_positive_rescale(hw_clustered):
    _, _, X, tau, _ = hw_clustered
    t1 = fit_policy_tree(X, tau, max_depth=2)
    t2 = fit_policy_tree(X, tau * 7.25, max_depth=2)
    probe = X[:50]
    assert [preferred_action(v) for v in t1.values(probe)[:, 0]] == [preferred_action(v) for v in t2.values(probe)[:, 0]]


def test_render_single_leaf():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 3))
    tree = fit_policy_tree(X, np.full(60, 0.7), max_depth=2)
    text = render_policy(tree, ["a", "b", "c"])
    assert text.startswith("→ Reboot")
    assert len(text.splitlines()) == 1


def test_render_deterministic_and_structured(hw_clustered):
    _, _, X, tau, hw_col = hw_clustered
    tree = fit_policy_tree(X, tau, max_depth=1)
    names = [f"f{i}" for i in range(X.shape[1])]
    names[hw_col] = "error_code=hw_failure"
    text = render_policy(tree, names)
    assert text == render_policy(tree, names)
    assert text.count("if ") == 1
    assert text.count("else:") == 1
    assert "error_code=hw_failure" in text


def test_tree_fidelity_to_sign_rule(default_bundle):
    model = default_bundle["model"]
    events = default_bundle["events"][:4000]
    tree, _ = interpret_model(model, events, max_depth=3)
    X = encode_matrix([e.signals for e in events], model.schema)
    taus = np.asarray([e.tau for e in estimate_ite_batch(model, [ev.signals for ev in events])])
    leaf_tau = tree.values(X)[:, 0]
    agree = np.array([preferred_action(leaf_tau[i]) == preferred_action(taus[i]) for i in range(len(events))])
    # weighted by |tau|: the share of the downtime at stake on which the
    # tree picks the model's action (a near-zero effect is nearly a tie)
    weight = np.abs(taus)
    assert float((weight * agree).sum() / weight.sum()) >= 0.85


def test_cate_single_bin_equals_adjusted_effect(default_bundle):
    model = default_bundle["model"]
    events = default_bundle["events"][:500]
    curve = cate_by_feature(model, events, "vm_count", bins=1)
    assert len(curve) == 1
    _, mean_tau, count = curve[0]
    assert count == 500
    assert mean_tau == pytest.approx(adjusted_effect(model, events), abs=1e-9)


def test_cate_counts_partition(default_bundle):
    model = default_bundle["model"]
    events = default_bundle["events"][:1000]
    curve = cate_by_feature(model, events, "vm_count", bins=8)
    assert sum(c for _, _, c in curve) == 1000


def test_cate_unknown_feature(default_bundle):
    with pytest.raises(InvalidArgument):
        cate_by_feature(default_bundle["model"], default_bundle["events"][:100], "no_such", 4)


def test_cate_categorical_buckets(default_bundle):
    model = default_bundle["model"]
    events = default_bundle["events"][:800]
    curve = cate_by_feature(model, events, "hardware_type", bins=4)
    assert sum(c for _, _, c in curve) == 800
    assert len(curve) == len({e.signals.hardware_type for e in events})


def test_cate_vm_curve_matches_risk_tradeoff(vmrisk_bundle):
    # when reboot failure risk grows with VM count and migration stays
    # cheap, the effect curve starts positive (Reboot wins on nearly-empty
    # nodes) and falls negative for full nodes
    model = vmrisk_bundle["model"]
    events = vmrisk_bundle["events"]
    curve = cate_by_feature(model, events, "vm_count", bins=8)
    centers = [c for c, _, _ in curve]
    taus = [t for _, t, _ in curve]
    assert taus[0] > 0.0  # vm_count = 1: prefer Reboot
    assert taus[-1] < 0.0  # full nodes: prefer Redeploy
    # broadly decreasing: each step down the curve allows small noise
    for a, b in zip(taus, taus[1:]):
        assert b <= a + 0.4

"""Shallow if-else policy extraction and per-feature effect curves.

The policy tree is a plain regression tree over predicted effects whose
split objective is the between-child effect difference,

    n_L * n_R / (n_L + n_R) * (mean_L - mean_R)^2,

so the first splits surface the signals that flip the recommendation. That
objective is the least-squares split gain, so the tree comes from the
shared grower in ``trees``, over exact bins: every midpoint between two
distinct observed values is a candidate threshold. Leaf recommendations
follow the same sign rule as the decision layer.
"""

from __future__ import annotations

import numpy as np

from .decisions import preferred_action
from .dml import DmlModel, estimate_ite_batch
from .domain import LabeledEvent, MitigationAction
from .errors import InsufficientData, InvalidArgument
from .trees import PackedTrees, bin_features, grow_sse_tree

_MIN_LEAF = 10
_MIN_ROWS = 20


def fit_policy_tree(features: np.ndarray, tau_hat: np.ndarray, max_depth: int = 3) -> PackedTrees:
    """Greedy effect-difference tree over per-row effect predictions, as a
    one-tree record: a leaf's value is its mean effect, its count its rows."""
    X = np.asarray(features, dtype=np.float64)
    tau = np.asarray(tau_hat, dtype=np.float64)
    if X.shape[0] != tau.shape[0]:
        raise InvalidArgument("features and tau_hat must align")
    if X.shape[0] < _MIN_ROWS:
        raise InsufficientData(f"policy tree needs >= {_MIN_ROWS} rows, got {X.shape[0]}")
    check_depth(max_depth)

    codes, thresholds = bin_features(X, max_bins=X.shape[0])
    table = grow_sse_tree(codes, thresholds, tau, np.arange(X.shape[0]), max_depth, _MIN_LEAF)
    return PackedTrees.pack([table])


def render_policy(tree: PackedTrees, feature_names: list[str]) -> str:
    """Deterministic indented if/else text; thresholds at 4 significant digits."""
    lines: list[str] = []

    def walk(node: int, indent: str) -> None:
        if tree.feature[node] < 0:
            action = "Reboot" if preferred_action(tree.value[node]) == MitigationAction.REBOOT else "Redeploy"
            lines.append(f"{indent}→ {action} (mean tau_hat={tree.value[node]:.4g}, n={tree.count[node]})")
            return
        name = feature_names[tree.feature[node]]
        lines.append(f"{indent}if {name} <= {tree.threshold[node]:.4g}:")
        walk(tree.child[2 * node + 1], indent + "    ")
        lines.append(f"{indent}else:")
        walk(tree.child[2 * node], indent + "    ")

    walk(0, "")
    return "\n".join(lines)


SIGNAL_FEATURES = (
    "vm_count",
    "has_important_workload",
    "network_ok",
    "repeat_count",
    "uncorrectable_tag",
    "error_code",
    "hardware_type",
    "session_type",
)


def check_depth(max_depth: int) -> None:
    if max_depth < 0:
        raise InvalidArgument("max_depth must be >= 0")


def check_bins(bins: int) -> None:
    if bins < 1:
        raise InvalidArgument("bins must be >= 1")


def check_feature(name: str) -> None:
    if name not in SIGNAL_FEATURES:
        raise InvalidArgument(f"unknown feature {name!r}; choose from {SIGNAL_FEATURES}")


def cate_by_feature(
    model: DmlModel,
    dataset: list[LabeledEvent],
    feature: str,
    bins: int,
) -> list[tuple[float, float, int]]:
    """Mean predicted effect per bucket of a raw signal value.

    Numeric signals are cut into equal-width bins over their observed
    range; boolean and categorical signals get one bucket per value. Empty
    buckets are omitted. Returns (bin center, mean effect, count) rows.
    """
    check_bins(bins)
    if not dataset:
        raise InvalidArgument("cate_by_feature needs a non-empty dataset")
    check_feature(feature)
    values = [getattr(e.signals, feature) for e in dataset]
    estimates = estimate_ite_batch(model, [e.signals for e in dataset])
    taus = np.asarray([e.tau for e in estimates])

    if feature in ("vm_count", "repeat_count"):
        arr = np.asarray(values, dtype=np.float64)
        lo, hi = arr.min(), arr.max()
        if lo == hi or bins == 1:
            return [(float(arr.mean()), float(taus.mean()), len(arr))]
        edges = np.linspace(lo, hi, bins + 1)
        idx = np.clip(np.digitize(arr, edges[1:-1], right=True), 0, bins - 1)
        out = []
        for b in range(bins):
            mask = idx == b
            if not mask.any():
                continue
            center = float((edges[b] + edges[b + 1]) / 2.0)
            out.append((center, float(taus[mask].mean()), int(mask.sum())))
        return out

    # boolean / categorical: one bucket per observed value
    out = []
    for i, v in enumerate(sorted({str(v) for v in values})):
        mask = np.asarray([str(x) == v for x in values])
        out.append((float(i), float(taus[mask].mean()), int(mask.sum())))
    return out


def interpret_model(
    model: DmlModel,
    dataset: list[LabeledEvent],
    max_depth: int = 3,
) -> tuple[PackedTrees, str]:
    """Fit and render the policy tree for a dataset under a model."""
    from .domain import encode_matrix

    X = encode_matrix([e.signals for e in dataset], model.schema)
    estimates = estimate_ite_batch(model, [e.signals for e in dataset])
    taus = np.asarray([e.tau for e in estimates])
    tree = fit_policy_tree(X, taus, max_depth=max_depth)
    return tree, render_policy(tree, list(model.schema.column_names))

"""Shared tree machinery: feature binning, the node table, the walk and the
least-squares grower.

Every tree in the package is a flat table in pre-order: ``feature`` is -1
at a leaf, otherwise a split sends ``x[feature] <= threshold`` left. Split
search runs on binned codes: each column's candidate thresholds are fixed
once, and a row's code is the number of thresholds strictly below its
value, so ``code <= b`` is exactly ``x <= thresholds[b]``.
"""

from __future__ import annotations

import numpy as np

MIN_GAIN = 1e-12


def _thresholds(col: np.ndarray, max_bins: int) -> np.ndarray:
    """Candidate thresholds for one column.

    Low-cardinality columns get exact midpoints; wide ones a quantile grid.
    """
    uniq = np.unique(col)
    if len(uniq) <= 1:
        return np.empty(0, dtype=np.float64)
    if len(uniq) <= max_bins:
        return (uniq[:-1] + uniq[1:]) / 2.0
    return np.unique(np.quantile(col, np.linspace(0.0, 1.0, max_bins + 1)[1:-1]))


def bin_features(X: np.ndarray, max_bins: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-column thresholds and the (n, d) code matrix of X under them.

    Codes use searchsorted(side='left'), so a value equal to a threshold
    lands left, matching the ``x <= threshold`` walk.
    """
    thresholds = [_thresholds(X[:, f], max_bins) for f in range(X.shape[1])]
    codes = np.empty(X.shape, dtype=np.int64)
    for f, thr in enumerate(thresholds):
        codes[:, f] = np.searchsorted(thr, X[:, f], side="left")
    return codes, thresholds


class NodeTable:
    """Builds a flat tree node by node, in pre-order."""

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.count: list[int] = []

    def add(self, value: float = 0.0, count: int = 0) -> int:
        """Append a leaf and return its id; ``split`` may turn it into a split."""
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(value))
        self.count.append(int(count))
        return len(self.feature) - 1

    def split(self, node: int, feature: int, threshold: float, left: int, right: int) -> None:
        self.feature[node] = int(feature)
        self.threshold[node] = float(threshold)
        self.left[node] = left
        self.right[node] = right

    def arrays(self) -> tuple[np.ndarray, ...]:
        """(feature, threshold, left, right, value, count) as numpy arrays."""
        return (
            np.asarray(self.feature, dtype=np.int64),
            np.asarray(self.threshold, dtype=np.float64),
            np.asarray(self.left, dtype=np.int64),
            np.asarray(self.right, dtype=np.int64),
            np.asarray(self.value, dtype=np.float64),
            np.asarray(self.count, dtype=np.int64),
        )


def leaf_index(
    X: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
) -> np.ndarray:
    """The leaf each row of X reaches, walking all rows level by level."""
    idx = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        f = feature[idx]
        leaf = f < 0
        if leaf.all():
            break
        fx = np.where(leaf, 0, f)
        go_left = X[np.arange(X.shape[0]), fx] <= threshold[idx]
        nxt = np.where(go_left, left[idx], right[idx])
        idx = np.where(leaf, idx, nxt)
    return idx


def grow_sse_tree(
    codes: np.ndarray,
    thresholds: list[np.ndarray],
    target: np.ndarray,
    rows: np.ndarray,
    max_depth: int,
    min_leaf: int,
) -> NodeTable:
    """Greedy SSE-minimizing tree over binned columns (exact within bins).

    A split maximizes sum_L^2 / n_L + sum_R^2 / n_R, which is the SSE
    reduction n_L * n_R / n * (mean_L - mean_R)^2 plus a per-node constant.
    Leaves carry the mean target and row count of their rows; split nodes
    keep value 0 and count 0.
    """
    nbins = [len(t) + 1 for t in thresholds]
    table = NodeTable()

    def grow(rows: np.ndarray, depth: int) -> int:
        r = target[rows]
        # a constant target cannot be split; its scores differ only by
        # rounding, which at n * mean^2 scale can exceed MIN_GAIN
        if depth >= max_depth or len(rows) < 2 * min_leaf or r.min() == r.max():
            return table.add(r.mean(), len(rows))
        total_sum = r.sum()
        n = len(rows)
        best_gain = MIN_GAIN
        best = None
        parent_score = total_sum * total_sum / n
        for f in range(codes.shape[1]):
            nb = nbins[f]
            if nb < 2:
                continue
            c = codes[rows, f]
            sums = np.bincount(c, weights=r, minlength=nb)
            cnts = np.bincount(c, minlength=nb)
            csum = np.cumsum(sums)[:-1]
            nl = np.cumsum(cnts)[:-1]
            nr = n - nl
            ok = (nl >= min_leaf) & (nr >= min_leaf)
            if not ok.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                score = np.where(ok, csum * csum / nl + (total_sum - csum) ** 2 / nr, -np.inf)
            b = int(np.argmax(score))
            gain = score[b] - parent_score
            if gain > best_gain:
                best_gain = gain
                best = (f, b)
        if best is None:
            return table.add(r.mean(), len(rows))
        f, b = best
        node = table.add()
        mask = codes[rows, f] <= b
        left_id = grow(rows[mask], depth + 1)
        right_id = grow(rows[~mask], depth + 1)
        table.split(node, f, thresholds[f][b], left_id, right_id)
        return node

    grow(rows, 0)
    return table

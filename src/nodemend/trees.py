"""Shared tree machinery: feature binning, the grower's node table, the
one tree-ensemble record and its walk, and the least-squares grower.

Every tree in the package is grown as a flat table in pre-order:
``feature`` is -1 at a leaf, otherwise a split sends ``x[feature] <=
threshold`` left. Every ensemble, a single tree included, is stored as one
``PackedTrees`` record and walked by its one walk, whether it serves or a
boosting round updates its predictions. Split search runs on binned codes:
each column's candidate thresholds are fixed once, and a row's code is the
number of thresholds strictly below its value, so ``code <= b`` is exactly
``x <= thresholds[b]``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .domain import FloatArray, IntArray
from .errors import InvalidArgument

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


# rows x trees held by one chunk of the packed walk; bounds its temporaries
CHUNK_ELEMENTS = 1 << 14


@dataclass
class PackedTrees:
    """An ensemble of trees as one flat record, walked in lockstep.

    Tree t is nodes ``roots[t]`` up to the next root, in pre-order. Node k
    sends ``x[feature[k]] <= threshold[k]`` to ``left[k]`` and the rest to
    ``right[k]``, both packed node indices; at a leaf ``feature``, ``left``
    and ``right`` are -1. ``value`` and ``count`` are what the grower
    recorded for each node; at a leaf, its value and its row count.

    Construction checks the record once, so a malformed one never serves,
    and derives the walk: ``child`` sends a leaf to itself, so once a row
    reaches a leaf every later step keeps it there, whatever the comparison
    gives (NaN included). ``depth`` steps, the depth of the deepest tree,
    therefore take every row to its leaf in every tree, exactly as a
    per-tree walk would.
    """

    roots: IntArray
    feature: IntArray
    threshold: FloatArray
    left: IntArray
    right: IntArray
    value: FloatArray
    count: IntArray
    child: IntArray = field(init=False, repr=False, compare=False)
    depth: int = field(init=False, repr=False, compare=False)
    n_features: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.feature)
        if any(len(column) != n for column in (self.threshold, self.left, self.right, self.value, self.count)):
            raise InvalidArgument("a tree record's node columns must share their length")
        roots = self.roots
        if (len(roots) > 0) != (n > 0) or (n and (roots[0] != 0 or np.any(np.diff(roots) <= 0) or roots[-1] >= n)):
            raise InvalidArgument("tree roots must start at 0 and rise strictly inside the node columns")
        if np.any(self.count < 0) or np.any(self.feature < -1):
            raise InvalidArgument("a tree record needs counts >= 0 and features >= -1")
        node = np.arange(n, dtype=np.int64)
        ends = np.append(roots[1:], n)[: len(roots)]
        end = np.repeat(ends, ends - roots)
        leaf = self.feature < 0
        left, right = self.left, self.right
        # every child follows its parent inside the tree, and every node but
        # a root is the child of exactly one node: each tree is a tree, so
        # the walk ends and nothing in the columns is unreachable
        inside = (left > node) & (left < end) & (right > node) & (right < end)
        if np.any(np.where(leaf, (left != -1) | (right != -1), ~inside)) or np.any(
            np.bincount(np.concatenate([roots, left[~leaf], right[~leaf]]), minlength=n) != 1
        ):
            raise InvalidArgument("a tree's children must follow their parent inside the tree, once each; a leaf has none")
        self.n_features = int(self.feature.max(initial=-1)) + 1
        # the child of node k sits at 2k + (x <= threshold): right, then left
        self.child = np.column_stack([np.where(leaf, node, right), np.where(leaf, node, left)]).ravel()
        self.depth = 0
        frontier = roots
        while True:
            frontier = frontier[~leaf[frontier]]
            if not frontier.size:
                break
            frontier = np.concatenate([left[frontier], right[frontier]])
            self.depth += 1

    @classmethod
    def pack(cls, tables: Sequence) -> PackedTrees:
        """One record of several trees, each given as pre-order node columns
        whose children count from its own root: a grower's ``NodeTable``,
        or one tree of a record."""
        sizes = np.array([len(t.feature) for t in tables], dtype=np.int64)
        roots = np.cumsum(sizes) - sizes
        offset = np.repeat(roots, sizes)

        def column(name: str, dtype: type) -> np.ndarray:
            return np.concatenate([np.asarray(getattr(t, name), dtype=dtype) for t in tables] or [np.empty(0, dtype)])

        left, right = (np.where(c >= 0, c + offset, -1) for c in (column("left", np.int64), column("right", np.int64)))
        return cls(
            roots,
            column("feature", np.int64),
            column("threshold", np.float64),
            left,
            right,
            column("value", np.float64),
            column("count", np.int64),
        )

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self) -> Iterator[PackedTrees]:
        """Each tree alone, as a one-tree record."""
        for start, stop in zip(self.roots.tolist(), [*self.roots[1:].tolist(), len(self.feature)]):
            nodes = slice(start, stop)
            left, right = (np.where(c[nodes] >= 0, c[nodes] - start, -1) for c in (self.left, self.right))
            yield PackedTrees(
                np.zeros(1, dtype=np.int64),
                self.feature[nodes],
                self.threshold[nodes],
                left,
                right,
                self.value[nodes],
                self.count[nodes],
            )

    def leaves(self, X: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """Per chunk of rows, (rows, node): node[i, t] is the packed leaf that
        tree t routes row ``rows.start + i`` to."""
        X = np.asarray(X, dtype=np.float64)
        n, d = X.shape
        if self.n_features > d:
            raise InvalidArgument(f"trees split on feature {self.n_features - 1}, rows have {d} columns")
        step = max(1, CHUNK_ELEMENTS // max(1, len(self.roots)))
        for start in range(0, n, step):
            chunk = np.ascontiguousarray(X[start : start + step])
            flat = chunk.ravel()
            row_base = np.arange(chunk.shape[0], dtype=np.int64)[:, None] * d
            node = np.repeat(self.roots[None, :], chunk.shape[0], axis=0)
            for _ in range(self.depth):
                # at a leaf, feature -1 reads the cell before the row's
                # first (the last cell for row 0); its child ignores it
                go_left = np.take(flat, row_base + np.take(self.feature, node)) <= np.take(self.threshold, node)
                node = np.take(self.child, 2 * node + go_left)
            yield slice(start, start + chunk.shape[0]), node

    def values(self, X: np.ndarray) -> np.ndarray:
        """(n, trees) matrix of the leaf value each tree gives each row."""
        out = np.empty((np.shape(X)[0], len(self.roots)), dtype=np.float64)
        for rows, node in self.leaves(X):
            out[rows] = self.value[node]
        return out


def bin_layout(thresholds: list[np.ndarray]) -> tuple[int, np.ndarray]:
    """The padded histogram layout of a binned matrix.

    Returns the row width B, the largest bin count, and the (d, B) mask of
    bins that are candidate cuts: bin b of feature f may send ``code <= b``
    left when b < nbins_f - 1. Bin k of feature f is key ``f * B + k``, so
    one bincount over the keys of all features fills a (d, B) histogram.
    """
    nbins = np.array([len(t) + 1 for t in thresholds], dtype=np.int64)
    width = int(nbins.max(initial=1))
    return width, np.arange(width) < (nbins - 1)[:, None]


def best_cut(score: np.ndarray, parent_score: float) -> tuple[int, int] | None:
    """(row, bin) of the best cut in a (features, bins) score matrix, or
    None when no gain over ``parent_score`` exceeds MIN_GAIN.

    Ties resolve as a scan over the rows would: the first maximal bin of a
    row, then the first row whose gain strictly beats every earlier one. A
    row holding NaN never wins, as np.argmax lands on the NaN.
    """
    if score.size == 0:
        return None
    bins = np.argmax(score, axis=1)
    gain = score[np.arange(score.shape[0]), bins] - parent_score
    gain[np.isnan(gain)] = -np.inf
    row = int(np.argmax(gain))
    if not gain[row] > MIN_GAIN:
        return None
    return row, int(bins[row])


class SseGrower:
    """Greedy SSE-minimizing trees over weighted items of one binned matrix
    (exact within bins).

    An item is one row of ``codes`` standing for rows of targets: it
    carries their sum and count, and their least and greatest target. A
    boosting round folds its rows into their distinct code rows;
    ``grow_sse_tree`` makes each row its own item.

    A split maximizes sum_L^2 / n_L + sum_R^2 / n_R over the rows the items
    stand for, which is the SSE reduction n_L * n_R / n * (mean_L -
    mean_R)^2 plus a per-node constant. Leaves carry the mean target and
    row count of their rows; split nodes keep value 0 and count 0.

    A node scores every (feature, bin) cut at once from two weighted
    bincounts over its items' keys (see ``bin_layout``); a row of the
    cumsum adds the bins in the order a per-feature cumsum would. A node
    whose children search again builds both children's histograms from its
    own keys in one more pair, with the child folded into the key. Each bin
    adds its items in item order, so with one item per row, in row order,
    every sum, score and split is bitwise that of a per-feature search over
    the rows.

    The keyed codes and the layout are built once, here, and shared by
    every tree grown on the matrix, as by the rounds of a boosting fit.
    """

    def __init__(self, codes: np.ndarray, thresholds: list[np.ndarray]) -> None:
        """``codes`` holds each item's code row under ``thresholds``, both
        from ``bin_features``."""
        self.codes = codes
        self.thresholds = thresholds
        self.width, self.is_cut = bin_layout(thresholds)
        self.keyed = codes + np.arange(codes.shape[1], dtype=np.int64) * self.width

    def grow(
        self,
        sums: np.ndarray,
        counts: np.ndarray,
        low: np.ndarray,
        high: np.ndarray,
        max_depth: int,
        min_leaf: int,
    ) -> NodeTable:
        """A tree fitted to the items of nonzero count: per item, the sum and
        count of its rows' targets and their least and greatest target."""
        codes, thresholds, width, is_cut, keyed = self.codes, self.thresholds, self.width, self.is_cut, self.keyed
        d = codes.shape[1]
        table = NodeTable()

        def searches(items: np.ndarray, depth: int) -> bool:
            # a constant target cannot be split; its scores differ only by
            # rounding, which at n * mean^2 scale can exceed MIN_GAIN
            return depth < max_depth and counts[items].sum() >= 2 * min_leaf and low[items].min() != high[items].max()

        def gather(items: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            # each item's keys, and its sum and count once per key
            return np.take(keyed, items, axis=0), np.repeat(sums[items], d), np.repeat(counts[items], d)

        def histograms(keys: np.ndarray, sum_weights: np.ndarray, count_weights: np.ndarray, groups: int) -> list:
            # (sums, counts) of each group of keys, as (d, width) histograms
            size = groups * d * width
            hist_sums, hist_counts = (
                np.bincount(keys.ravel(), weights=w, minlength=size).reshape(groups, d, width)
                for w in (sum_weights, count_weights)
            )
            return list(zip(hist_sums, hist_counts))

        def grow(items: np.ndarray, depth: int, hist: tuple[np.ndarray, np.ndarray] | None) -> int:
            n = int(counts[items].sum())
            total_sum = sums[items].sum()
            if not searches(items, depth):
                return table.add(total_sum / n, n)
            gathered = None
            if hist is None:
                gathered = gather(items)
                (hist,) = histograms(*gathered, 1)
            csum = np.cumsum(hist[0], axis=1)
            nl = np.cumsum(hist[1], axis=1)
            nr = n - nl
            ok = is_cut & (nl >= min_leaf) & (nr >= min_leaf)
            with np.errstate(divide="ignore", invalid="ignore"):
                score = np.where(ok, csum * csum / nl + (total_sum - csum) ** 2 / nr, -np.inf)
            cut = best_cut(score, total_sum * total_sum / n)
            if cut is None:
                return table.add(total_sum / n, n)
            f, b = cut
            node = table.add()
            go_left = codes[items, f] <= b
            left_items, right_items = items[go_left], items[~go_left]
            left_hist = right_hist = None
            if searches(left_items, depth + 1) or searches(right_items, depth + 1):
                keys, sum_weights, count_weights = gathered or gather(items)
                child_keys = keys + np.where(go_left, 0, d * width)[:, None]
                left_hist, right_hist = histograms(child_keys, sum_weights, count_weights, 2)
            left_id = grow(left_items, depth + 1, left_hist)
            right_id = grow(right_items, depth + 1, right_hist)
            table.split(node, f, thresholds[f][b], left_id, right_id)
            return node

        grow(np.flatnonzero(counts), 0, None)
        # grow reaches itself through its closure; unbinding it frees the
        # item arrays now rather than at the next cyclic garbage collection
        del grow
        return table


def grow_sse_tree(
    codes: np.ndarray,
    thresholds: list[np.ndarray],
    target: np.ndarray,
    rows: np.ndarray,
    max_depth: int,
    min_leaf: int,
) -> NodeTable:
    """One tree of an ``SseGrower`` over the matrix rows ``rows``, each its
    own item, in the order given."""
    r = target[rows]
    return SseGrower(codes[rows], thresholds).grow(r, np.ones(len(r), dtype=np.int64), r, r, max_depth, min_leaf)

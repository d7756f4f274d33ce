"""Shared tree machinery: feature binning, the node table, the one
tree-ensemble record and its walk, the level kernel every grower runs on,
and the least-squares grower.

Every tree grows breadth-first, a level at a time, as a flat table:
``feature`` is -1 at a leaf, otherwise a split sends ``x[feature] <=
threshold`` left. Every ensemble, a single tree included, is one
``PackedTrees`` record, served by its one walk. Split search runs on binned
codes: a row's code is the number of its column's thresholds strictly
below its value, so ``code <= b`` is exactly ``x <= thresholds[b]``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .domain import FloatArray, IntArray
from .errors import InvalidArgument

MIN_GAIN = 1e-12
_NO_CUT = np.iinfo(np.int64).max  # a cut no code passes (``route``)


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
    """Builds a flat tree a level at a time (``add_level``), as the growers
    number their nodes breadth-first."""

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.value: list[float] = []
        self.count: list[int] = []

    def add_level(self, value: np.ndarray, count: np.ndarray, feature: np.ndarray, cut: np.ndarray, grid: np.ndarray) -> None:
        """Append a level. Node k splits when ``feature[k] >= 0``, sending ``x
        <= grid[feature[k], cut[k]]`` left (``bin_layout``); the next level
        holds the children of the splits, left then right, in node order."""
        split = feature >= 0
        threshold = np.zeros(len(feature))
        threshold[split] = grid[feature[split], cut[split]]
        self.feature += feature.tolist()
        self.threshold += threshold.tolist()
        self.value += np.asarray(value, dtype=np.float64).tolist()
        self.count += np.asarray(count, dtype=np.int64).tolist()


# rows x trees held by one chunk of the packed walk; bounds its temporaries
CHUNK_ELEMENTS = 1 << 14


@dataclass
class PackedTrees:
    """An ensemble of trees as one flat record, walked in lockstep.

    Tree t is nodes ``roots[t]`` up to the next root, numbered breadth-first
    as the growers number them: the i-th split of a tree, counting its
    splits in node order, has its left child at ``root + 2i + 1`` and its
    right child next to it. Node k is a leaf where ``feature[k]`` is -1,
    and otherwise sends ``x[feature[k]] <= threshold[k]`` left. ``value``
    and ``count`` are what the grower recorded for each node; at a leaf,
    its value and its row count.

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
    value: FloatArray
    count: IntArray
    child: IntArray = field(init=False, repr=False, compare=False)
    depth: int = field(init=False, repr=False, compare=False)
    n_features: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.feature)
        if any(len(column) != n for column in (self.threshold, self.value, self.count)):
            raise InvalidArgument("a tree record's node columns must share their length")
        roots = self.roots
        if (len(roots) > 0) != (n > 0) or (n and (roots[0] != 0 or np.any(np.diff(roots) <= 0) or roots[-1] >= n)):
            raise InvalidArgument("tree roots must start at 0 and rise strictly inside the node columns")
        if np.any(self.count < 0) or np.any(self.feature < -1):
            raise InvalidArgument("a tree record needs counts >= 0 and features >= -1")
        node = np.arange(n, dtype=np.int64)
        sizes = np.diff(roots, append=n)
        root = np.repeat(roots, sizes)
        split = self.feature >= 0
        # the splits before node k, for k up to n; so a split's rank in its tree
        seen = np.concatenate([[0], np.cumsum(split)])
        rank = seen[:-1] - seen[root]
        # a tree of s splits holds 2s + 1 nodes, its i-th split at most 2i past
        # its root: then every child follows its parent inside the tree, and
        # every node but a root is the child of exactly one split, so the
        # walk ends and nothing in the columns is unreachable
        if np.any(sizes != 2 * np.diff(seen[np.append(roots, n)]) + 1) or np.any(split & (node - root > 2 * rank)):
            raise InvalidArgument("a tree of s splits must hold 2s + 1 nodes, its i-th split at most 2i past its root")
        left = root + 2 * rank + 1
        self.n_features = int(self.feature.max(initial=-1)) + 1
        # the child of node k sits at 2k + (x <= threshold): right, then left
        self.child = np.column_stack([np.where(split, left + 1, node), np.where(split, left, node)]).ravel()
        self.depth = 0
        frontier = roots[split[roots]]  # the splits of a level
        while frontier.size:
            frontier = np.concatenate([left[frontier], left[frontier] + 1])
            frontier = frontier[split[frontier]]
            self.depth += 1

    @classmethod
    def pack(cls, tables: Sequence) -> PackedTrees:
        """One record of several trees, each given as its node columns: a
        grower's ``NodeTable``, or one tree of a record."""
        sizes = np.array([len(t.feature) for t in tables], dtype=np.int64)

        def column(name: str, dtype: type) -> np.ndarray:
            return np.concatenate([np.asarray(getattr(t, name), dtype=dtype) for t in tables] or [np.empty(0, dtype)])

        return cls(
            np.cumsum(sizes) - sizes,
            column("feature", np.int64),
            column("threshold", np.float64),
            column("value", np.float64),
            column("count", np.int64),
        )

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self) -> Iterator[PackedTrees]:
        """Each tree alone, as a one-tree record."""
        for start, stop in zip(self.roots.tolist(), [*self.roots[1:].tolist(), len(self.feature)]):
            nodes = slice(start, stop)
            yield PackedTrees(np.zeros(1, dtype=np.int64), self.feature[nodes], self.threshold[nodes], self.value[nodes], self.count[nodes])

    def leaves(self, X: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """Per chunk of rows, (rows, node): node[i, t] is the packed leaf that
        tree t routes row ``rows.start + i`` to."""
        X = np.asarray(X, dtype=np.float64)
        n, d = X.shape
        if self.n_features > d:
            raise InvalidArgument(f"trees split on feature {self.n_features - 1}, rows have {d} columns")
        step = max(1, CHUNK_ELEMENTS // max(1, len(self.roots)))
        for start in range(0, n, step):
            flat = np.ascontiguousarray(X[start : start + step]).ravel()
            rows = min(step, n - start)
            # per (row, tree), row-major: the index of the row's first cell, and the node
            row_base = np.repeat(np.arange(rows, dtype=np.int64) * d, len(self.roots))
            node = np.tile(self.roots, rows)
            for _ in range(self.depth):
                # at a leaf, feature -1 reads the cell before the row's first (the
                # last cell for row 0); the leaf's child is itself either way
                node = self.child.take(2 * node + (flat.take(row_base + self.feature.take(node)) <= self.threshold.take(node)))
            yield slice(start, start + rows), node.reshape(rows, len(self.roots))

    def values(self, X: np.ndarray) -> np.ndarray:
        """(n, trees) matrix of the leaf value each tree gives each row."""
        out = np.empty((np.shape(X)[0], len(self.roots)), dtype=np.float64)
        for rows, node in self.leaves(X):
            out[rows] = self.value.take(node)
        return out


def bin_layout(thresholds: list[np.ndarray]) -> np.ndarray:
    """The padded histogram layout of a binned matrix: the (d, B) grid whose
    cell (f, b) is the threshold of the cut that sends ``code <= b`` of
    feature f left, NaN where bin b of f is no cut. B, the largest bin
    count, is the width of every histogram row (``level_histograms``)."""
    grid = np.full((len(thresholds), max((len(t) + 1 for t in thresholds), default=1)), np.nan)
    for f, t in enumerate(thresholds):
        grid[f, : len(t)] = t
    return grid


def node_sums(node: np.ndarray, nodes: int, *values: np.ndarray) -> list[np.ndarray]:
    """For each array of per-row values, the sum of each node's values, for
    the nodes below ``nodes``: in row order and pairwise, as ``v[node ==
    k].sum()`` adds them (``np.add.reduceat`` adds in sequence)."""
    # labels in their smallest unsigned type: below 2^16, a radix sort
    order = np.argsort(node.astype(np.min_scalar_type(node.max(initial=0))), kind="stable")
    ends = np.cumsum(np.bincount(node, minlength=nodes)[:nodes]).tolist()
    bounds = list(zip([0, *ends[:-1]], ends))
    return [np.array([np.add.reduce(v[a:b]) for a, b in bounds]) for v in (v[order] for v in values)]


def level_histograms(keys: np.ndarray, nodes: int, m: int, width: int, *weights: np.ndarray | None) -> list:
    """Left-side totals of every cut of every open node of one level.

    A key is node·m·B + j·B + code (B is ``width``) for a code in the j-th
    of the m features its node searches; a key of node ``nodes`` is in none.
    Each channel of ``weights``, one weight per key or None to count the
    keys, fills a padded (nodes, m, B) histogram with one bincount, adding
    each bin's keys in key order, then a cumsum.
    """
    size = (nodes + 1) * m * width
    return [np.bincount(keys, w, minlength=size).reshape(nodes + 1, m, width)[:nodes].cumsum(axis=2) for w in weights]


def best_cuts(score: np.ndarray, parent_score: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per node of a (nodes, features, bins) score array: the feature and
    bin of its best cut, and whether that cut's gain over the node's
    ``parent_score`` exceeds MIN_GAIN.

    Ties resolve as a scan over a node's features would: the first maximal
    bin of a feature, then the first feature whose gain strictly beats
    every earlier one. A feature holding NaN never wins, as np.argmax lands
    on the NaN. With no feature, no node gains.
    """
    score = score if score.shape[1] else np.full((len(score), 1, 1), -np.inf)
    bins = np.argmax(score, axis=2)
    # the maximum is the score at that bin, NaN included
    gain = score.max(axis=2) - parent_score[:, None]
    gain[np.isnan(gain)] = -np.inf
    feature = np.argmax(gain, axis=1)
    nodes = np.arange(len(score))
    return feature, bins[nodes, feature], gain[nodes, feature] > MIN_GAIN


def route(flat: np.ndarray, base: np.ndarray, node: np.ndarray, feature: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Each row's node on the next level.

    Row i's codes start at ``flat[base[i]]`` of a flat code matrix, and it
    sits in node ``node[i]``, or in none when that is ``len(feature)``.
    Node k splits when ``feature[k] >= 0``, sending a code ``<= cut[k]`` of
    that feature left to node 2j and the rest right to 2j + 1, j its rank
    among the splits, as ``NodeTable.add_level`` numbers them; every other
    row gets node 2·splits, in none.
    """
    split = feature >= 0
    # per node, then for the rows of none: left child, column read, and a cut no code passes
    child = np.append(np.where(split, 2 * np.cumsum(split) - 2, 2 * split.sum()), 2 * split.sum())
    column = np.append(np.maximum(feature, 0), 0)
    last = np.append(np.where(split, cut, _NO_CUT), _NO_CUT)
    return child.take(node) + (flat.take(base + column.take(node)) > last.take(node))


class SseGrower:
    """Greedy SSE-minimizing trees over weighted items of one binned matrix
    (exact within bins).

    An item is one row of ``codes`` standing for rows of targets: it
    carries their sum and count, and their least and greatest target. A
    boosting round folds its rows into their distinct code rows;
    ``grow_sse_tree`` makes each row its own item.

    A split maximizes sum_L^2 / n_L + sum_R^2 / n_R over the rows the items
    stand for, the SSE reduction n_L * n_R / n * (mean_L - mean_R)^2 plus a
    per-node constant. Leaves carry the mean target and row count of their
    rows; split nodes keep value 0 and count 0. Items keep their order from
    level to level, so with one item per row, in row order, every sum,
    score and split is bitwise that of a per-feature search over the rows.
    """

    def __init__(self, codes: np.ndarray, thresholds: list[np.ndarray]) -> None:
        """``codes`` holds each item's code row under ``thresholds``, both
        from ``bin_features``. The layout and the key lists built here serve
        every tree grown on the matrix, as the rounds of a boosting fit."""
        self.grid = bin_layout(thresholds)
        self.is_cut = ~np.isnan(self.grid)
        d = codes.shape[1]
        self.flat = codes.ravel()
        self.base = np.arange(len(codes), dtype=np.int64) * d
        keyed = (codes + np.arange(d, dtype=np.int64) * self.grid.shape[1]).ravel()
        # every item keys every histogram, row-major so that ``repeat`` spreads a
        # per-item value over its keys, but the residual sums skip each feature's
        # last bin, never a cut, and the counts skip bin 0 (``grow``)
        sums, counts = codes != [len(t) for t in thresholds], codes != 0
        self.sum_keys, self.sum_repeat = keyed[sums.ravel()], sums.sum(axis=1)
        self.count_keys, self.count_repeat = keyed[counts.ravel()], counts.sum(axis=1)

    def grow(
        self,
        sums: np.ndarray,
        counts: np.ndarray,
        low: np.ndarray,
        high: np.ndarray,
        max_depth: int,
        min_leaf: int,
    ) -> tuple[NodeTable, np.ndarray]:
        """A tree fitted to the items of nonzero count: per item, the sum and
        count of its rows' targets and their least and greatest target.
        Returns it with the value of the leaf each code row reaches, items
        of count 0 included. Such an item keys the histograms, where its +0.0
        changes no bin (a bincount sum starts at +0.0, never turns -0.0), but
        not the node totals, which add items pairwise in item order."""
        table = NodeTable()
        items = np.flatnonzero(counts)
        item_sums, low, high = sums[items], low[items], high[items]
        counts = counts.astype(np.float64)
        key_sums, key_counts = np.repeat(sums, self.sum_repeat), np.repeat(counts, self.count_repeat)
        d, width = self.grid.shape
        # every code row's node on the level, and the value of its leaf
        node = np.zeros(len(self.base), dtype=np.int64)
        value = np.zeros(len(self.base))
        nodes = 1
        for depth in range(max_depth + 1):
            n = np.bincount(node, counts, minlength=nodes)[:nodes]
            # the root holds every item: no sort, no node offset
            at = node.take(items) if depth else None
            total = node_sums(at, nodes, item_sums)[0] if depth else np.array([np.add.reduce(item_sums)])
            feature = np.full(nodes, -1)
            cut = np.zeros(nodes, dtype=np.int64)
            searches = (depth < max_depth) & (n >= 2 * min_leaf)
            if searches.any():
                # a constant target cannot be split; its scores differ only
                # by rounding, which at n * mean^2 scale can exceed MIN_GAIN
                if depth:
                    lo = np.full(nodes + 1, np.inf)
                    hi = np.full(nodes + 1, -np.inf)
                    np.minimum.at(lo, at, low)
                    np.maximum.at(hi, at, high)
                    searches &= lo[:nodes] != hi[:nodes]
                    offset = node * (d * width)
                    keys = (self.sum_keys + np.repeat(offset, self.sum_repeat), self.count_keys + np.repeat(offset, self.count_repeat))
                else:
                    searches &= low.min() != high.max()
                    keys = (self.sum_keys, self.count_keys)
                (csum,), (nl,) = (level_histograms(k, nodes, d, width, w) for k, w in zip(keys, (key_sums, key_counts)))
                # bin 0 holds the node's count less the other bins': exact, as counts are whole numbers
                nl = nl + (n[:, None] - nl[:, :, -1])[:, :, None]
                nr = n[:, None, None] - nl
                ok = self.is_cut & (nl >= min_leaf) & (nr >= min_leaf)
                with np.errstate(divide="ignore", invalid="ignore"):
                    score = np.where(ok, csum * csum / nl + (total[:, None, None] - csum) ** 2 / nr, -np.inf)
                f, cut, found = best_cuts(score, total * total / n)
                feature = np.where(searches & found, f, -1)
            leaf = feature < 0
            leaf_value = np.where(leaf, total / n, 0.0)
            table.add_level(leaf_value, np.where(leaf, n, 0), feature, cut, self.grid)
            value = np.where(np.append(leaf, False)[node], np.append(leaf_value, 0.0)[node], value)
            if leaf.all():
                break
            node = route(self.flat, self.base, node, feature, cut)
            nodes = 2 * int((~leaf).sum())
        return table, value


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
    return SseGrower(codes[rows], thresholds).grow(r, np.ones(len(r), dtype=np.int64), r, r, max_depth, min_leaf)[0]

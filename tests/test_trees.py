"""The one-histogram-per-node split search picks exactly the splits of a
per-feature scan.

The reference growers below are the per-feature loops that
``trees.grow_sse_tree`` and ``forest.grow_tree`` used before their search
was vectorized, kept as they were. On random inputs, including exact score
ties, constant targets and columns, rows at the leaf-size boundaries, a
quantile grid and exact bins, every node table must equal the reference's
array for array.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nodemend.domain import rng_for
from nodemend.forest import _MIN_STRUCTURE_CHILD, ForestParams, grow_tree
from nodemend.trees import MIN_GAIN, NodeTable, best_cut, bin_features, grow_sse_tree

PROPERTY = settings(derandomize=True, max_examples=80, deadline=None)


def reference_sse_tree(codes, thresholds, target, rows, max_depth, min_leaf):
    nbins = [len(t) + 1 for t in thresholds]
    table = NodeTable()

    def grow(rows, depth):
        r = target[rows]
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


def reference_forest_tree(codes, thresholds, ry, ra, subsample, params, seed):
    """(feature, threshold, left, right, tau, n_estimate, structure, estimate)."""
    rng = rng_for(seed)
    perm = subsample[rng.permutation(len(subsample))]
    n_structure = max(1, int(round(params.honest_fraction * len(perm))))
    structure_idx = perm[:n_structure]
    estimate_idx = perm[n_structure:]

    u = ry * ra
    w = ra * ra
    has_ra = w > 0.0
    d = codes.shape[1]
    if params.features_per_split is not None:
        mtry = max(1, min(params.features_per_split, d))
    else:
        mtry = max(1, min(max(math.ceil(math.sqrt(d)), math.ceil(d / 3)), d))
    table = NodeTable()

    def leaf_tau(est_rows, parent_tau):
        sw = w[est_rows].sum()
        n_est = int(has_ra[est_rows].sum())
        if sw <= 0.0:
            return parent_tau, n_est
        return float(u[est_rows].sum() / sw), n_est

    def grow(struct_rows, est_rows, depth, parent_tau):
        tau_here, n_est_here = leaf_tau(est_rows, parent_tau)
        node = table.add(tau_here, n_est_here)
        n = len(struct_rows)
        if depth >= params.max_depth or n < params.min_split:
            return node
        sw_all = w[struct_rows].sum()
        su_all = u[struct_rows].sum()
        if sw_all <= 0.0:
            return node
        parent_score = n * (su_all / sw_all) ** 2

        est_flag = has_ra[est_rows].astype(np.float64)
        feats = rng.choice(d, size=min(mtry, d), replace=False)
        best_gain = MIN_GAIN
        best = None
        for f in feats:
            thr = thresholds[f]
            nb = len(thr) + 1
            if nb < 2:
                continue
            c = codes[struct_rows, f]
            cnt = np.bincount(c, minlength=nb)[:-1].cumsum()
            csu = np.bincount(c, weights=u[struct_rows], minlength=nb)[:-1].cumsum()
            csw = np.bincount(c, weights=w[struct_rows], minlength=nb)[:-1].cumsum()
            ce = codes[est_rows, f]
            cest = np.bincount(ce, weights=est_flag, minlength=nb)[:-1].cumsum()
            n_est_total = est_flag.sum()
            nl = cnt
            nr = n - nl
            wl = csw
            wr = sw_all - csw
            el = cest
            er = n_est_total - cest
            ok = (
                (nl >= _MIN_STRUCTURE_CHILD)
                & (nr >= _MIN_STRUCTURE_CHILD)
                & (wl > 0.0)
                & (wr > 0.0)
                & (el >= params.min_leaf_estimate)
                & (er >= params.min_leaf_estimate)
            )
            if not ok.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                tl = np.where(wl > 0, csu / np.where(wl > 0, wl, 1.0), 0.0)
                tr = np.where(wr > 0, (su_all - csu) / np.where(wr > 0, wr, 1.0), 0.0)
                score = np.where(ok, nl * tl * tl + nr * tr * tr, -np.inf)
            b = int(np.argmax(score))
            gain = score[b] - parent_score
            if gain > best_gain:
                best_gain = gain
                best = (int(f), b)
        if best is None:
            return node
        f, b = best
        s_mask = codes[struct_rows, f] <= b
        e_mask = codes[est_rows, f] <= b
        left_id = grow(struct_rows[s_mask], est_rows[e_mask], depth + 1, tau_here)
        right_id = grow(struct_rows[~s_mask], est_rows[~e_mask], depth + 1, tau_here)
        table.split(node, f, thresholds[f][b], left_id, right_id)
        return node

    grow(structure_idx, estimate_idx, 0, 0.0)
    return (*table.arrays(), structure_idx, estimate_idx)


COLUMN_KINDS = ("normal", "few_values", "constant", "copy", "mirror")


def make_matrix(rng, n, kinds):
    """Columns of the given kinds; "copy" and "mirror" repeat or negate the
    previous column, so two features tie exactly or nearly."""
    cols = []
    for kind in kinds:
        if kind == "copy" and cols:
            cols.append(cols[-1].copy())
        elif kind == "mirror" and cols:
            cols.append(-cols[-1])
        elif kind == "few_values":
            cols.append(rng.integers(0, 3, size=n).astype(np.float64))
        elif kind == "constant":
            cols.append(np.full(n, 1.5))
        else:
            cols.append(rng.normal(size=n))
    return np.column_stack(cols)


def make_target(rng, n, kind):
    if kind == "integer":  # many exact score ties between bins
        return rng.integers(-2, 3, size=n).astype(np.float64)
    if kind == "constant":
        return np.full(n, 0.7)
    if kind == "offset":  # large mean, small spread: the rounding-prone case
        return 1e4 + rng.normal(size=n)
    return rng.normal(size=n)


def draw_rows(data, rng, n):
    """All rows in order, or a shuffled subset as boosting's subsample."""
    if data.draw(st.booleans(), label="all_rows"):
        return np.arange(n)
    size = data.draw(st.integers(1, n), label="row_count")
    return rng.choice(n, size=size, replace=False)


@PROPERTY
@given(st.data())
def test_sse_tree_matches_per_feature_scan(data):
    n = data.draw(st.integers(2, 120), label="n")
    kinds = data.draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6), label="kinds")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    X = make_matrix(rng, n, kinds)
    target = make_target(rng, n, data.draw(st.sampled_from(("normal", "integer", "constant", "offset")), label="target"))
    # a quantile grid below the cardinality, or exact bins as the policy tree uses
    max_bins = n if data.draw(st.booleans(), label="exact_bins") else data.draw(st.integers(2, 8), label="max_bins")
    rows = draw_rows(data, rng, n)
    # leaf sizes at the boundary: the node holds exactly 2 * min_leaf rows, or one fewer
    half = len(rows) // 2
    min_leaf = data.draw(st.sampled_from((1, 2, 5, max(1, half), half + 1)), label="min_leaf")
    max_depth = data.draw(st.integers(0, 4), label="max_depth")

    codes, thresholds = bin_features(X, max_bins)
    got = grow_sse_tree(codes, thresholds, target, rows, max_depth, min_leaf).arrays()
    want = reference_sse_tree(codes, thresholds, target, rows, max_depth, min_leaf).arrays()
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@PROPERTY
@given(st.data())
def test_forest_tree_matches_per_feature_scan(data):
    n = data.draw(st.integers(4, 200), label="n")
    kinds = data.draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=8), label="kinds")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    X = make_matrix(rng, n, kinds)
    # treatment residuals with exact zeros exercise the estimation-flag counts
    ra = rng.normal(size=n) * (rng.random(n) < data.draw(st.sampled_from((1.0, 0.6, 0.0)), label="ra_share"))
    ry = make_target(rng, n, data.draw(st.sampled_from(("normal", "integer", "constant")), label="ry")) * ra
    if data.draw(st.booleans(), label="noise"):
        ry = ry + rng.normal(size=n)
    max_bins = n if data.draw(st.booleans(), label="exact_bins") else data.draw(st.integers(2, 8), label="max_bins")
    subsample = draw_rows(data, rng, n)
    est_half = (len(subsample) - max(1, int(round(0.5 * len(subsample))))) // 2
    params = ForestParams(
        max_depth=data.draw(st.integers(0, 6), label="max_depth"),
        min_split=data.draw(st.sampled_from((2, 10, 20)), label="min_split"),
        # at the boundary: each estimation child needs half the estimation rows
        min_leaf_estimate=data.draw(st.sampled_from((1, 3, 10, max(1, est_half), est_half + 1)), label="min_leaf_est"),
        max_bins=max_bins,
        features_per_split=data.draw(st.sampled_from((None, 1, 2, len(kinds))), label="mtry"),
    )
    seed = data.draw(st.integers(0, 2**31 - 1), label="tree_seed")

    codes, thresholds = bin_features(X, max_bins)
    tree = grow_tree(codes, thresholds, ry, ra, subsample, params, seed)
    want = reference_forest_tree(codes, thresholds, ry, ra, subsample, params, seed)
    got = (
        tree.feature,
        tree.threshold,
        tree.left,
        tree.right,
        tree.tau,
        tree.n_estimate,
        tree.structure_idx,
        tree.estimate_idx,
    )
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_best_cut_resolves_ties_like_a_scan():
    score = np.array(
        [
            [0.0, 3.0, 3.0],  # first maximal bin of a row wins
            [3.0, 1.0, -np.inf],  # an equal later row does not replace it
            [np.nan, 9.0, 9.0],  # a row holding NaN never wins
        ]
    )
    assert best_cut(score, 1.0) == (0, 1)
    assert best_cut(score, 3.0) is None  # gain 0 does not beat MIN_GAIN
    assert best_cut(np.full((2, 3), -np.inf), 0.0) is None
    assert best_cut(np.empty((0, 4)), 0.0) is None

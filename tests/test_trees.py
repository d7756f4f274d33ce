"""The vectorized tree kernels give exactly what the loops they replaced gave.

The reference growers below are the recursive per-feature loops that
``trees.grow_sse_tree`` and ``forest.grow_trees`` used before their search
was vectorized and before they grew a level at a time, kept as they were
but for three edits: the forest reference draws each node's features from
the same keyed uniforms of (tree seed, heap position, feature) as
``grow_trees``, both build a ``PreorderTable``, whose splits name their
children, and both renumber it breadth-first (``breadth_first``), as the
level growers number nodes. On random inputs, including exact score ties,
constant targets and columns, rows at the leaf-size boundaries, a quantile
grid and exact bins, every node table must equal the reference's array for
array.

``reference_leaf_index`` is the per-tree walk that ``trees.PackedTrees``
replaced, kept as it was. It follows explicit children: a pre-order
table's own, or those ``decode_breadth_first`` reads off a breadth-first
tree. The packed walk, whose children follow from the numbering, must route
every row to the same leaf of every tree, and the GBM, forest and psi
predictions built on it must equal per-tree loops over the reference bit
for bit. A record is accepted exactly when every tree in it decodes.

``reference_interval`` computes one row's grouped-bag interval in the
order that ``forest.predict_interval`` documents; ``predict_tau_ci`` must
equal it bit for bit on random forests, whatever rows share its call.
"""

import json
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodemend.dml import estimate_ite, estimate_ite_batch, nuisance_predictions, prepare_training_arrays, psi_loss
from nodemend.domain import from_record, keyed_uniforms, rng_for, to_record
from nodemend.errors import InvalidArgument
from nodemend.forest import (
    _MIN_STRUCTURE_CHILD,
    CausalForest,
    ForestParams,
    grow_trees,
    honest_halves,
    predict_tau,
    predict_tau_ci,
)
from nodemend.modelio import load_model, save_model
from nodemend.trees import (
    CHUNK_ELEMENTS,
    MIN_GAIN,
    PackedTrees,
    best_cuts,
    bin_features,
    grow_sse_tree,
    node_sums,
)

from conftest import PreorderTable, breadth_first

PROPERTY = settings(max_examples=80)


def reference_sse_tree(codes, thresholds, target, rows, max_depth, min_leaf):
    nbins = [len(t) + 1 for t in thresholds]
    table = PreorderTable()

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
    return breadth_first(table)


def reference_forest_tree(codes, thresholds, ry, ra, subsample, params, seed):
    """(node table, structure rows, estimation rows)."""
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
    table = PreorderTable()

    def leaf_tau(est_rows, parent_tau):
        sw = w[est_rows].sum()
        n_est = int(has_ra[est_rows].sum())
        if sw <= 0.0:
            return parent_tau, n_est
        return float(u[est_rows].sum() / sw), n_est

    def grow(struct_rows, est_rows, depth, parent_tau, position):
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
        feats = np.argsort(keyed_uniforms(seed, position, 0, np.arange(d)), kind="stable")[:mtry]
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
        left_id = grow(struct_rows[s_mask], est_rows[e_mask], depth + 1, tau_here, 2 * position + 1)
        right_id = grow(struct_rows[~s_mask], est_rows[~e_mask], depth + 1, tau_here, 2 * position + 2)
        table.split(node, f, thresholds[f][b], left_id, right_id)
        return node

    grow(structure_idx, estimate_idx, 0, 0.0, 0)
    return breadth_first(table), structure_idx, estimate_idx


def assert_same_table(got, want):
    assert vars(got).keys() == vars(want).keys()
    for name, column in vars(want).items():
        np.testing.assert_array_equal(getattr(got, name), column, err_msg=name)


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
    got = grow_sse_tree(codes, thresholds, target, rows, max_depth, min_leaf)
    want = reference_sse_tree(codes, thresholds, target, rows, max_depth, min_leaf)
    assert_same_table(got, want)


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
    want, structure, estimate = reference_forest_tree(codes, thresholds, ry, ra, subsample, params, seed)
    assert_same_table(grow_trees(codes, thresholds, ry, ra, [subsample], params, [seed])[0], want)
    for g, w in zip(honest_halves(np.asarray(subsample, dtype=np.int64), params, rng_for(seed)), (structure, estimate)):
        np.testing.assert_array_equal(g, w)


@PROPERTY
@given(st.data())
def test_every_tree_of_a_bag_matches_its_own_scan(data):
    # a bag grows its trees in one level loop; each tree must be the tree its
    # own subsample and seed grow alone, whatever trees grow beside it
    n = data.draw(st.integers(4, 160), label="n")
    kinds = data.draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=8), label="kinds")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    X = make_matrix(rng, n, kinds)
    ra = rng.normal(size=n) * (rng.random(n) < data.draw(st.sampled_from((1.0, 0.6)), label="ra_share"))
    ry = make_target(rng, n, data.draw(st.sampled_from(("normal", "integer")), label="ry")) * ra + rng.normal(size=n)
    max_bins = n if data.draw(st.booleans(), label="exact_bins") else data.draw(st.integers(2, 8), label="max_bins")
    params = ForestParams(
        max_depth=data.draw(st.integers(0, 6), label="max_depth"),
        min_split=data.draw(st.sampled_from((2, 10, 20)), label="min_split"),
        min_leaf_estimate=data.draw(st.sampled_from((1, 3, 10)), label="min_leaf_est"),
        max_bins=max_bins,
        features_per_split=data.draw(st.sampled_from((None, 1, 2, len(kinds))), label="mtry"),
    )
    subsamples, seeds = [], []
    for t in range(data.draw(st.integers(1, 4), label="trees")):
        # a tiny subsample grows a tree that never splits; sizes differ, so
        # the trees stop at different depths
        if data.draw(st.booleans(), label=f"tiny_{t}"):
            subsamples.append(rng.choice(n, size=min(n, data.draw(st.integers(1, 3), label=f"tiny_size_{t}")), replace=False))
        else:
            subsamples.append(draw_rows(data, rng, n))
        seeds.append(data.draw(st.integers(0, 2**31 - 1), label=f"tree_seed_{t}"))

    codes, thresholds = bin_features(X, max_bins)
    tables = grow_trees(codes, thresholds, ry, ra, subsamples, params, seeds)
    assert len(tables) == len(subsamples)
    for table, subsample, seed in zip(tables, subsamples, seeds):
        assert_same_table(table, reference_forest_tree(codes, thresholds, ry, ra, subsample, params, seed)[0])


def test_best_cut_resolves_ties_like_a_scan():
    score = np.array(
        [
            [0.0, 3.0, 3.0],  # first maximal bin of a feature wins
            [3.0, 1.0, -np.inf],  # an equal later feature does not replace it
            [np.nan, 9.0, 9.0],  # a feature holding NaN never wins
        ]
    )

    def cut(node_scores, parent_scores):
        """Each node's (feature, bin), or None where it finds no cut."""
        feature, bins, found = best_cuts(np.asarray(node_scores, dtype=np.float64), np.asarray(parent_scores, dtype=np.float64))
        return [(int(f), int(b)) if ok else None for f, b, ok in zip(feature, bins, found)]

    assert cut([score], [1.0]) == [(0, 1)]
    assert cut([score], [3.0]) == [None]  # gain 0 does not beat MIN_GAIN
    assert cut([np.full((2, 3), -np.inf)], [0.0]) == [None]
    assert cut(np.empty((1, 0, 4)), [0.0]) == [None]
    # each node resolves alone, against its own parent score
    assert cut([score, score[::-1], np.full((3, 3), -np.inf)], [1.0, 1.0, 0.0]) == [(0, 1), (1, 0), None]
    assert cut(np.empty((0, 3, 3)), []) == []


@pytest.mark.parametrize("nodes", [1, 3, 300])
def test_node_sums_add_each_node_as_its_own_sum(nodes):
    # labels past one byte take the two-byte sort; label ``nodes`` is a row
    # in no node, and past one node, one node holds no row
    rng = np.random.default_rng(nodes)
    node = rng.integers(0, nodes + 1, size=5000)
    if nodes > 1:
        node[node == nodes // 2] = nodes
    values = rng.normal(size=(2, 5000)) * 10.0 ** rng.integers(-3, 6, size=(2, 5000))
    got = node_sums(node, nodes, *values)
    for v, sums in zip(values, got, strict=True):
        np.testing.assert_array_equal(sums, [v[node == k].sum() for k in range(nodes)])


def reference_leaf_index(X, feature, threshold, left, right):
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


def decode_breadth_first(feature):
    """(left, right) of one tree numbered breadth-first, -1 at a leaf, or
    None where its nodes are no such tree. Level by level, each split of a
    level, in node order, takes the next two untaken nodes as its children,
    left then right; the tree decodes when every node is taken exactly
    once."""
    n = len(feature)
    left, right = [-1] * n, [-1] * n

    def level(nodes, taken):
        if not nodes:
            return taken == n
        children = []
        for k in nodes:
            if feature[k] >= 0:
                left[k], right[k] = taken, taken + 1
                children += [taken, taken + 1]
                taken += 2
        return taken <= n and level(children, taken)

    return (left, right) if n and level([0], 1) else None


def decode_record(roots, feature):
    """Each tree's ``decode_breadth_first`` children, or None where the
    record's roots or features are out of range or a tree does not decode."""
    n = len(feature)
    if (len(roots) > 0) != (n > 0) or any(f < -1 for f in feature):
        return None
    if roots and (roots[0] != 0 or roots[-1] >= n or any(a >= b for a, b in zip(roots, roots[1:]))):
        return None
    trees = [decode_breadth_first(feature[start:stop]) for start, stop in zip(roots, [*roots[1:], n])]
    return None if None in trees else trees


def walk_columns(table):
    """(feature, threshold, left, right) of one tree as arrays: a pre-order
    table's own children, or those its breadth-first numbering decodes to."""
    left, right = (table.left, table.right) if isinstance(table, PreorderTable) else decode_breadth_first(list(table.feature))
    return tuple(np.asarray(c) for c in (table.feature, table.threshold, left, right))


def tree_depth(table, node):
    if table.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(table, table.left[node]), tree_depth(table, table.right[node]))


SPECIAL_VALUES = (np.nan, np.inf, -np.inf, 0.0, -0.0)


def random_tree(data, rng, d, cuts, label):
    """A pre-order table of random splits over the given cut values."""
    max_depth = data.draw(st.integers(0, 6), label=f"{label}_depth")
    stop = data.draw(st.sampled_from((0.0, 0.3, 0.6)), label=f"{label}_stop")
    table = PreorderTable()

    def grow(depth):
        if depth >= max_depth or rng.random() < stop:
            return table.add(rng.normal(), rng.integers(100))
        node = table.add()
        feature = int(rng.integers(d))
        left = grow(depth + 1)
        right = grow(depth + 1)
        table.split(node, feature, float(rng.choice(cuts)), left, right)
        return node

    grow(0)
    return table


@PROPERTY
@given(st.data())
def test_packed_walk_matches_per_tree_walk(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    d = data.draw(st.integers(1, 5), label="d")
    n_trees = data.draw(st.integers(1, 8), label="n_trees")
    # a few distinct values, so rows often equal a threshold exactly
    grid = np.round(rng.normal(size=6), 1)
    cuts = np.concatenate([grid, [np.inf, -np.inf]]) if data.draw(st.booleans(), label="infinite_cuts") else grid
    tables = [random_tree(data, rng, d, cuts, f"tree{t}") for t in range(n_trees)]
    step = CHUNK_ELEMENTS // n_trees
    n = data.draw(st.sampled_from((0, 1, 2, 17, step - 1, step, step + 1, 2 * step + 1)), label="n")
    X = rng.choice(np.concatenate([grid, SPECIAL_VALUES]), size=(n, d))

    packed = PackedTrees.pack([breadth_first(t) for t in tables])
    assert len(packed) == n_trees
    assert packed.depth == max(tree_depth(t, 0) for t in tables)
    node = np.empty((n, n_trees), dtype=np.int64)
    seen = 0
    for rows, chunk in packed.leaves(X):
        assert rows.start == seen and chunk.shape == (rows.stop - rows.start, n_trees)
        assert chunk.size <= max(CHUNK_ELEMENTS, n_trees)
        node[rows] = chunk
        seen = rows.stop
    assert seen == n
    values = packed.values(X)
    # every row reaches the leaf of the breadth-first tree, decoded, that it
    # reaches in the pre-order table; each tree taken out of the record is the
    # table it was packed from
    for t, (table, tree) in enumerate(zip(tables, packed, strict=True)):
        want = reference_leaf_index(X, *walk_columns(breadth_first(table)))
        np.testing.assert_array_equal(node[:, t] - packed.roots[t], want)
        np.testing.assert_array_equal(values[:, t], np.asarray(table.value)[reference_leaf_index(X, *walk_columns(table))])
        assert_same_table(tree, PackedTrees.pack([breadth_first(table)]))
    # saved and loaded through the record codec, then packed again from its
    # own trees, the record keeps every column and routes every row alike;
    # the codec refuses a threshold that is not finite
    saved = json.loads(json.dumps(to_record(packed)))
    if not np.isfinite(packed.threshold).all():
        with pytest.raises(InvalidArgument, match="threshold must be a list of finite numbers"):
            from_record(PackedTrees, saved)
        saved = None
    for copy in (PackedTrees.pack(list(packed)), *([from_record(PackedTrees, saved)] if saved else [])):
        for name in ("roots", "feature", "threshold", "value", "count"):
            np.testing.assert_array_equal(getattr(copy, name), getattr(packed, name), err_msg=name)
            assert getattr(copy, name).dtype == getattr(packed, name).dtype
        np.testing.assert_array_equal(np.vstack([c for _, c in copy.leaves(X)] or [node]), node)


def reference_interval(values, params):
    """One row's (tau, lower, upper) from its per-tree leaf values, in the
    order ``forest.predict_interval`` documents: each bag's trees added one
    at a time in tree order, then the within-bag total over the bags in bag
    order; the mean over all trees and the mean over bags are numpy means of
    the row's own values."""
    bags, s = params.bags, params.trees_per_bag
    tau = float(np.mean(values))
    means, spreads = [], []
    for b in range(bags):
        trees = values[b * s : (b + 1) * s]
        total = trees[0]
        for v in trees[1:]:
            total += v
        mean = total / s
        spread = 0.0
        for v in trees:
            spread += (v - mean) * (v - mean)
        means.append(mean)
        spreads.append(spread)
    within = spreads[0]
    for spread in spreads[1:]:
        within += spread
    within /= bags * s
    between = float(np.mean([(m - tau) * (m - tau) for m in means]))
    variance = max(between - within / s, max(params.variance_floor_frac * between, params.variance_floor))
    half = NormalDist().inv_cdf(0.5 + params.confidence_level / 2.0) * math.sqrt(variance)
    return tau, tau - half, tau + half


@settings(max_examples=30)
@given(st.data())
def test_forest_interval_matches_a_per_row_reference(data):
    """``predict_tau_ci`` on random forests equals, bit for bit, the per-row
    reference over the per-tree walk, for one row, a chunk of rows and one
    row either side of it, on duplicated and shuffled rows."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    d = data.draw(st.integers(1, 4), label="d")
    params = ForestParams(
        bags=data.draw(st.integers(2, 12), label="bags"),
        trees_per_bag=data.draw(st.integers(1, 12), label="trees_per_bag"),
        confidence_level=data.draw(st.sampled_from((0.5, 0.9, 0.95)), label="level"),
        variance_floor_frac=data.draw(st.sampled_from((0.0, 0.2)), label="floor_frac"),
    )
    grid = np.round(rng.normal(size=6), 1)
    tables = [random_tree(data, rng, d, grid, f"tree{t}") for t in range(params.n_trees)]
    for table in tables:
        # leaf values of mixed magnitude, so every change of summation order shows
        table.value = (np.asarray(table.value) * 10.0 ** rng.integers(-4, 5, len(table.value))).tolist()
    forest = CausalForest(trees=PackedTrees.pack([breadth_first(t) for t in tables]), params=params, seed=0, n=100)
    step = CHUNK_ELEMENTS // params.n_trees
    pool = rng.choice(np.concatenate([grid, SPECIAL_VALUES]), size=(8, d))
    X = pool[rng.integers(len(pool), size=step + 1)]
    per_tree = np.column_stack([np.asarray(t.value)[reference_leaf_index(X, *walk_columns(t))] for t in tables])
    want = [reference_interval(row, params) for row in per_tree.tolist()]
    for n in (1, step - 1, step, step + 1):
        got = predict_tau_ci(forest, X[:n])
        assert [(e.tau, e.tau_lower, e.tau_upper) for e in got] == want[:n]
        assert predict_tau(forest, X[:n]).tolist() == [e.tau for e in got]
    order = rng.permutation(len(X))
    assert [(e.tau, e.tau_lower, e.tau_upper) for e in predict_tau_ci(forest, X[order])] == [want[i] for i in order]


def test_packed_depth_is_the_deepest_tree():
    leaf = PreorderTable()
    leaf.add(2.5, 4)
    chain = PreorderTable()
    root = chain.add()
    inner = chain.add()
    chain.split(inner, 0, 1.0, chain.add(1.0), chain.add(2.0))
    chain.split(root, 1, 0.0, inner, chain.add(3.0))
    packed = PackedTrees.pack([breadth_first(t) for t in (leaf, chain, leaf)])
    assert packed.depth == 2
    assert list(packed.roots) == [0, 1, 6]
    # node k's children sit at 2k (right) and 2k + 1 (left) of ``child``; a leaf is its own
    right, left = packed.child.reshape(-1, 2).T
    assert list(left) == [0, 2, 4, 3, 4, 5, 6]
    assert list(right) == [0, 3, 5, 3, 4, 5, 6]
    X = np.array([[0.5, -1.0], [np.nan, -1.0], [0.0, np.nan], [0.0, 1.0]])
    np.testing.assert_array_equal(packed.values(X)[:, 1], [1.0, 2.0, 3.0, 3.0])
    np.testing.assert_array_equal(packed.values(X)[:, [0, 2]], np.full((4, 2), 2.5))
    assert PackedTrees.pack([breadth_first(leaf)]).depth == 0
    assert len(PackedTrees.pack([])) == 0
    assert PackedTrees.pack([]).values(X).shape == (4, 0)


def record(roots, feature, count=None, threshold=None):
    """A record from plain lists; value 0 and count 1 unless given."""
    n = len(feature)
    return PackedTrees(
        np.array(roots, dtype=np.int64),
        np.array(feature, dtype=np.int64),
        np.zeros(n) if threshold is None else np.array(threshold, dtype=np.float64),
        np.zeros(n),
        np.ones(n, dtype=np.int64) if count is None else np.array(count, dtype=np.int64),
    )


# two stumps, nodes 0-2 and 3-5, in the columns ``record`` takes
STUMPS = ([0, 3], [0, -1, -1, 1, -1, -1])


def test_packed_rejects_bad_tables():
    roots, feature = STUMPS
    assert record(*STUMPS).depth == 1
    assert list(record(*STUMPS).child) == [2, 1, 1, 1, 2, 2, 5, 4, 4, 4, 5, 5]
    bad = {
        "first root is not node 0": ([1, 3], feature, None, None),
        "roots fall": ([3, 0], feature, None, None),
        "a tree of no nodes": ([0, 0, 3], feature, None, None),
        "a root past the end": ([0, 6], feature, None, None),
        "columns of unequal length": (roots, feature, None, [0.0] * 5),
        "a split's child in the next tree": ([0, 2], feature, None, None),
        "a split turned leaf": (roots, [-1, -1, -1, 1, -1, -1], None, None),
        "a leaf turned split": (roots, [0, -1, 0, 1, -1, -1], None, None),
        "a split its own child": (roots, [-1, 0, -1, 1, -1, -1], None, None),
        "the last node dropped": (roots, feature[:-1], None, None),
        "a feature below -1": (roots, [0, -1, -1, -2, -1, -1], None, None),
        "a negative count": (roots, feature, [1, 1, -1, 1, 1, 1], None),
    }
    for case, columns in bad.items():
        with pytest.raises(InvalidArgument):
            record(*columns)
            pytest.fail(case)
    with pytest.raises(InvalidArgument, match="trees split on feature 2, rows have 2 columns"):
        next(record([0], [2, -1, -1]).leaves(np.zeros((3, 2))))


MUTATIONS = ("leaf_to_split", "split_to_leaf", "move_root", "drop_last")


@settings(max_examples=200)
@given(st.data())
def test_a_record_is_accepted_exactly_when_its_trees_decode(data):
    """Random trees, renumbered breadth-first and packed, then edited 0-2
    times: a leaf turned split, a split turned leaf, a root moved by one, or
    the last node dropped. Construction accepts the record exactly when
    ``decode_record`` does, and an accepted record walks every row as the
    per-tree reference walks the decoded children."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    d = data.draw(st.integers(1, 4), label="d")
    grid = np.round(rng.normal(size=6), 1)
    tables = [breadth_first(random_tree(data, rng, d, grid, f"tree{t}")) for t in range(data.draw(st.integers(1, 4), label="trees"))]
    packed = PackedTrees.pack(tables)
    roots, feature, threshold = (getattr(packed, name).tolist() for name in ("roots", "feature", "threshold"))
    for m in range(data.draw(st.integers(0, 2), label="mutations")):
        mutation = data.draw(st.sampled_from(MUTATIONS), label=f"mutation_{m}")
        leaves, splits = ([k for k, f in enumerate(feature) if (f >= 0) == s] for s in (False, True))
        if mutation == "leaf_to_split" and leaves:
            feature[data.draw(st.sampled_from(leaves), label=f"node_{m}")] = data.draw(st.integers(0, d - 1), label=f"feature_{m}")
        elif mutation == "split_to_leaf" and splits:
            feature[data.draw(st.sampled_from(splits), label=f"node_{m}")] = -1
        elif mutation == "move_root":
            roots[data.draw(st.integers(0, len(roots) - 1), label=f"root_{m}")] += data.draw(st.sampled_from((-1, 1)), label=f"step_{m}")
        elif mutation == "drop_last" and feature:
            del feature[-1], threshold[-1]
    n = len(feature)
    columns = (np.array(roots, dtype=np.int64), np.array(feature, dtype=np.int64), np.array(threshold), np.zeros(n), np.ones(n, dtype=np.int64))
    decoded = decode_record(roots, feature)
    if decoded is None:
        with pytest.raises(InvalidArgument):
            PackedTrees(*columns)
        return
    accepted = PackedTrees(*columns)
    assert accepted.depth < n
    X = rng.choice(np.concatenate([grid, SPECIAL_VALUES]), size=(30, d))
    node = np.vstack([chunk for _, chunk in accepted.leaves(X)])
    for t, (start, (left, right)) in enumerate(zip(roots, decoded, strict=True)):
        nodes = slice(start, start + len(left))
        want = reference_leaf_index(X, np.array(feature[nodes]), np.array(threshold[nodes]), np.array(left), np.array(right))
        np.testing.assert_array_equal(node[:, t] - start, want)


def reference_gbm_predict(learner, X):
    out = np.full(X.shape[0], learner.base_value)
    for tree in learner.trees:
        out = out + learner.config.learning_rate * tree.value[reference_leaf_index(X, *walk_columns(tree))]
    return out


def test_serving_matches_per_tree_loops(tworegime_bundle, tmp_path):
    """A saved and reloaded forest model serves one row exactly as a batch,
    and its nuisances and psi equal per-tree loops, across chunk boundaries."""
    path = str(tmp_path / "model.bin")
    save_model(tworegime_bundle["model"], path)
    model = load_model(path)
    events = tworegime_bundle["test_events"]
    forest = model.forest
    assert len(events) > CHUNK_ELEMENTS // len(forest.trees) + 1
    assert len(events) > CHUNK_ELEMENTS // len(model.outcome_learners[0].trees) + 1

    batch = estimate_ite_batch(model, [e.signals for e in events])
    assert [estimate_ite(model, e.signals) for e in events] == batch

    X, y, a = prepare_training_arrays(events, model.schema)
    per_tree = np.column_stack([t.value[reference_leaf_index(X, *walk_columns(t))] for t in forest.trees])
    np.testing.assert_array_equal(forest.trees.values(X), per_tree)
    y_hat = np.mean([reference_gbm_predict(lr, X) for lr in model.outcome_learners], axis=0)
    # dml clamps each propensity learner's prediction before the mean
    p_min = model.train_config.learner.p_min
    a_hat = np.mean([np.clip(reference_gbm_predict(lr, X), p_min, 1.0 - p_min) for lr in model.propensity_learners], axis=0)
    got_y, got_a = nuisance_predictions(model, X)
    np.testing.assert_array_equal(got_y, y_hat)
    np.testing.assert_array_equal(got_a, a_hat)
    resid = (y - y_hat) - per_tree.mean(axis=1) * (a - a_hat)
    assert psi_loss(model, events) == float(np.mean(resid**2))

"""Tests for the HDBSCAN* pipeline (repro.hdbscan)."""

import json
from typing import Dict, Tuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.cluster.hierarchy import linkage as scipy_linkage

from repro.core.emst import emst, mutual_reachability_emst
from repro.errors import InvalidInputError
from repro.hdbscan import (
    CondensedTree,
    condense_tree,
    core_distances,
    hdbscan,
    single_linkage_tree,
)
from repro.hdbscan.stability import cluster_stabilities, extract_clusters
from repro.mst.union_find import UnionFind


@pytest.fixture
def blobs(rng):
    clusters = [rng.normal(c, 0.05, size=(100, 2))
                for c in [(0, 0), (4, 0), (0, 4)]]
    noise = rng.uniform(-1, 5, size=(30, 2))
    return np.concatenate(clusters + [noise])


class TestCoreDistances:
    def test_k1_is_zero(self, uniform_2d):
        assert np.allclose(core_distances(uniform_2d, 1), 0.0)

    def test_monotone_in_k(self, uniform_2d):
        c2 = core_distances(uniform_2d, 2)
        c5 = core_distances(uniform_2d, 5)
        assert np.all(c5 >= c2)

    def test_matches_brute_force(self, rng):
        pts = rng.random((60, 3))
        k = 4
        d = np.sqrt(np.sum((pts[:, None] - pts[None]) ** 2, axis=2))
        expected = np.sort(d, axis=1)[:, k - 1]  # row includes self (0)
        assert np.allclose(core_distances(pts, k), expected)

    def test_caller_order(self, rng):
        # Results must be in the caller's point order, not Z-order.
        pts = rng.random((50, 2))
        c = core_distances(pts, 3)
        perm = rng.permutation(50)
        c_perm = core_distances(pts[perm], 3)
        assert np.allclose(c_perm, c[perm])

    def test_rejects_bad_k(self, uniform_2d):
        with pytest.raises(InvalidInputError):
            core_distances(uniform_2d, 0)
        with pytest.raises(InvalidInputError):
            core_distances(uniform_2d, len(uniform_2d) + 1)

    def test_dense_region_smaller_core(self, rng):
        dense = rng.normal(0, 0.01, size=(50, 2))
        sparse = rng.normal(5, 1.0, size=(50, 2))
        c = core_distances(np.concatenate([dense, sparse]), 5)
        assert c[:50].mean() < c[50:].mean()


class TestSingleLinkage:
    def test_matches_scipy(self, rng):
        pts = rng.random((40, 2))
        result = emst(pts)
        Z = single_linkage_tree(40, result.edges[:, 0], result.edges[:, 1],
                                result.weights)
        Zs = scipy_linkage(pts, method="single")
        assert np.allclose(np.sort(Z[:, 2]), np.sort(Zs[:, 2]), atol=1e-12)
        assert np.allclose(Z[:, 3], Zs[:, 3])

    def test_sizes_accumulate(self, rng):
        pts = rng.random((30, 2))
        r = emst(pts)
        Z = single_linkage_tree(30, r.edges[:, 0], r.edges[:, 1], r.weights)
        assert Z[-1, 3] == 30
        assert np.all(np.diff(Z[:, 2]) >= 0)

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(InvalidInputError):
            single_linkage_tree(5, np.array([0]), np.array([1]),
                                np.array([1.0]))

    def test_rejects_cycle(self):
        with pytest.raises(InvalidInputError):
            single_linkage_tree(3, np.array([0, 1]), np.array([1, 0]),
                                np.array([1.0, 2.0]))

    @pytest.mark.parametrize("u, v, w", [
        ([0, -1], [1, 0], [1.0, 2.0]),      # -1 must not wrap to vertex 2
        ([0, 5], [1, 0], [1.0, 2.0]),       # past the last vertex
        ([0, 1], [1, 2], [1.0, np.nan]),    # NaN would land in Z
        ([0, 1], [1, 2], [np.inf, 1.0]),
    ])
    def test_rejects_bad_ids_and_weights(self, u, v, w):
        with pytest.raises(InvalidInputError):
            single_linkage_tree(3, np.array(u), np.array(v), np.array(w))


class TestCondense:
    def _linkage(self, pts):
        r = emst(pts)
        return single_linkage_tree(len(pts), r.edges[:, 0], r.edges[:, 1],
                                   r.weights)

    def test_point_rows_cover_all_points(self, blobs):
        tree = condense_tree(self._linkage(blobs), 10)
        points = tree.child[tree.child < tree.n_points]
        assert np.array_equal(np.sort(points), np.arange(len(blobs)))

    def test_sizes_consistent(self, blobs):
        tree = condense_tree(self._linkage(blobs), 10)
        cluster_rows = tree.child >= tree.n_points
        for parent, child, size in zip(tree.parent[cluster_rows],
                                       tree.child[cluster_rows],
                                       tree.child_size[cluster_rows]):
            # A cluster child's size equals the sum of everything that
            # ever leaves it (points are counted once).
            member_rows = _subtree_point_count(tree, int(child))
            assert member_rows == size

    def test_three_blobs_recovered(self, blobs):
        # Plain-Euclidean single linkage (no core-distance smoothing, i.e.
        # k_pts=1) may grant a small noise clump its own cluster; the three
        # real blobs must be found, possibly plus such a fragment.
        tree = condense_tree(self._linkage(blobs), 10)
        stabilities = cluster_stabilities(tree)
        assert all(np.isfinite(v) for v in stabilities.values())
        labels, _ = extract_clusters(tree)
        n_found = len(set(labels[labels >= 0]))
        assert 3 <= n_found <= 4

    def test_min_cluster_size_2_valid(self, rng):
        tree = condense_tree(self._linkage(rng.random((30, 2))), 2)
        assert tree.n_points == 30

    def test_rejects_min_cluster_size_1(self, rng):
        with pytest.raises(InvalidInputError):
            condense_tree(self._linkage(rng.random((10, 2))), 1)

    def test_lambda_nonnegative(self, blobs):
        tree = condense_tree(self._linkage(blobs), 5)
        assert np.all(tree.lambda_val >= 0)

    @pytest.mark.parametrize("linkage", [
        # Row 0 names id 4, which is row 1's own id: 3 -> 4 -> 3 ...
        [[4, 0, 1.0, 2], [3, 1, 2.0, 3]],
        # Point 1 is a child of both rows.
        [[0, 1, 1.0, 2], [3, 1, 2.0, 3]],
        [[0, -1, 1.0, 2], [3, 2, 2.0, 3]],
        [[0, 1.5, 1.0, 2], [3, 2, 2.0, 3]],
        [[0, np.nan, 1.0, 2], [3, 2, 2.0, 3]],
        [[0, 1, 1.0, np.nan], [3, 2, 2.0, 3]],
    ])
    def test_rejects_malformed_linkage(self, linkage):
        with pytest.raises(InvalidInputError):
            condense_tree(np.array(linkage, dtype=np.float64), 2)

    def test_extraction_rejects_unknown_parent(self):
        # Row 1's parent 7 is neither the root (3) nor a cluster child.
        tree = CondensedTree(
            parent=np.array([3, 7, 3]), child=np.array([0, 1, 2]),
            lambda_val=np.ones(3), child_size=np.ones(3, dtype=np.int64),
            n_points=3)
        with pytest.raises(InvalidInputError):
            cluster_stabilities(tree)
        with pytest.raises(InvalidInputError):
            extract_clusters(tree)


def _subtree_point_count(tree, cluster):
    count = 0
    stack = [cluster]
    while stack:
        c = stack.pop()
        rows = tree.parent == c
        for child, size in zip(tree.child[rows], tree.child_size[rows]):
            if child < tree.n_points:
                count += 1
            else:
                stack.append(int(child))
    return count


class TestHDBSCAN:
    def test_recovers_blobs(self, blobs):
        result = hdbscan(blobs, min_cluster_size=10, k_pts=5)
        assert result.n_clusters == 3
        for i in range(3):
            seg = result.labels[i * 100:(i + 1) * 100]
            values, counts = np.unique(seg[seg >= 0], return_counts=True)
            assert counts.max() >= 90  # each blob ~pure

    def test_blob_purity(self, blobs):
        result = hdbscan(blobs, min_cluster_size=10, k_pts=5)
        # Majority labels of the three blobs are distinct clusters.
        majors = []
        for i in range(3):
            seg = result.labels[i * 100:(i + 1) * 100]
            values, counts = np.unique(seg[seg >= 0], return_counts=True)
            majors.append(values[np.argmax(counts)])
        assert len(set(majors)) == 3

    def test_noise_detected(self, blobs):
        result = hdbscan(blobs, min_cluster_size=10, k_pts=5)
        assert 0.0 < result.noise_fraction < 0.3

    def test_probabilities_range(self, blobs):
        result = hdbscan(blobs, min_cluster_size=10)
        assert np.all(result.probabilities >= 0)
        assert np.all(result.probabilities <= 1)
        assert np.all(result.probabilities[result.labels < 0] == 0)

    def test_uniform_mostly_one_or_no_cluster(self, rng):
        result = hdbscan(rng.random((200, 2)), min_cluster_size=20)
        assert result.n_clusters <= 3

    def test_deterministic(self, blobs):
        r1 = hdbscan(blobs, min_cluster_size=10)
        r2 = hdbscan(blobs, min_cluster_size=10)
        assert np.array_equal(r1.labels, r2.labels)

    def test_rejects_tiny_input(self):
        with pytest.raises(InvalidInputError):
            hdbscan(np.array([[0.0, 0.0]]))

    def test_rejects_bad_min_cluster_size(self, blobs):
        with pytest.raises(InvalidInputError):
            hdbscan(blobs, min_cluster_size=1)

    def test_emst_attached(self, blobs):
        result = hdbscan(blobs, min_cluster_size=10, k_pts=3)
        assert result.emst.edges.shape == (len(blobs) - 1, 2)
        assert "core" in result.phases

    def test_duplicate_heavy_data(self, rng):
        pts = np.repeat(rng.random((8, 2)) * 10, 25, axis=0)
        pts += 0.001 * rng.standard_normal(pts.shape)
        result = hdbscan(pts, min_cluster_size=10, k_pts=3)
        assert result.n_clusters == 8


# ------------------------------------------------------- loop reference
#
# The element-at-a-time loop implementations the library shipped before
# its post-processing moved to list passes and array operations, kept
# verbatim (renamed ``ref_*``) as the oracle: the library must reproduce
# every bit of their output.

def ref_single_linkage_tree(n: int, u: np.ndarray, v: np.ndarray,
                            w: np.ndarray) -> np.ndarray:
    """SciPy-convention linkage matrix from a spanning tree's edges."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    if u.shape != v.shape or u.shape != w.shape:
        raise InvalidInputError("edge arrays must have matching shapes")
    if u.size != n - 1:
        raise InvalidInputError(
            f"spanning tree of {n} points needs {n - 1} edges, got {u.size}")

    order = np.argsort(w, kind="stable")
    uf = UnionFind(n)
    # cluster id of each union-find root; starts as the point itself.
    cluster_of_root = np.arange(n, dtype=np.int64)
    sizes = np.ones(2 * n - 1, dtype=np.int64)
    Z = np.empty((n - 1, 4), dtype=np.float64)
    for row, e in enumerate(order):
        a, b = int(u[e]), int(v[e])
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            raise InvalidInputError("edges contain a cycle")
        ca, cb = int(cluster_of_root[ra]), int(cluster_of_root[rb])
        new_id = n + row
        Z[row, 0] = min(ca, cb)
        Z[row, 1] = max(ca, cb)
        Z[row, 2] = w[e]
        Z[row, 3] = sizes[ca] + sizes[cb]
        sizes[new_id] = sizes[ca] + sizes[cb]
        uf.union(ra, rb)
        cluster_of_root[uf.find(ra)] = new_id
    return Z


def _ref_leaves_of(linkage: np.ndarray, n: int, node: int) -> list:
    """Point ids under dendrogram ``node`` (iterative DFS)."""
    out = []
    stack = [node]
    while stack:
        x = stack.pop()
        if x < n:
            out.append(x)
        else:
            row = x - n
            stack.append(int(linkage[row, 0]))
            stack.append(int(linkage[row, 1]))
    return out


def ref_condense_tree(linkage: np.ndarray,
                      min_cluster_size: int) -> CondensedTree:
    """Condense a SciPy-convention linkage under ``min_cluster_size``."""
    if min_cluster_size < 2:
        raise InvalidInputError(
            f"min_cluster_size must be >= 2, got {min_cluster_size}")
    linkage = np.asarray(linkage, dtype=np.float64)
    if linkage.ndim != 2 or linkage.shape[1] != 4:
        raise InvalidInputError("linkage must be an (n-1, 4) matrix")
    n = linkage.shape[0] + 1

    parents, children, lambdas, sizes = [], [], [], []
    next_cluster = n + 1  # n is the root's condensed id
    root_dendro = 2 * n - 2  # dendrogram id of the top merge

    def size_of(node: int) -> int:
        return 1 if node < n else int(linkage[node - n, 3])

    def lam_of(row: int) -> float:
        d = linkage[row, 2]
        return 1.0 / d if d > 0.0 else np.inf

    # Stack of (dendrogram node, condensed cluster it belongs to).
    stack = [(root_dendro, n)]
    while stack:
        node, cluster = stack.pop()
        if node < n:
            # A singleton reached the top of its cluster: it exits when its
            # parent merge dissolves; handled by the caller pushing it with
            # the right lambda below, so a bare leaf here means n == 1.
            continue
        row = node - n
        left = int(linkage[row, 0])
        right = int(linkage[row, 1])
        lam = lam_of(row)
        big_l = size_of(left) >= min_cluster_size
        big_r = size_of(right) >= min_cluster_size
        if big_l and big_r:
            # True split: two new condensed clusters are born.
            for side in (left, right):
                nonlocal_id = next_cluster
                next_cluster += 1
                parents.append(cluster)
                children.append(nonlocal_id)
                lambdas.append(lam)
                sizes.append(size_of(side))
                stack.append((side, nonlocal_id))
        else:
            # Undersized side(s) fall out as points at this lambda; a
            # surviving big side continues as the same condensed cluster.
            for side, big in ((left, big_l), (right, big_r)):
                if big:
                    stack.append((side, cluster))
                else:
                    for p in _ref_leaves_of(linkage, n, side):
                        parents.append(cluster)
                        children.append(p)
                        lambdas.append(lam)
                        sizes.append(1)

    return CondensedTree(
        parent=np.asarray(parents, dtype=np.int64),
        child=np.asarray(children, dtype=np.int64),
        lambda_val=np.asarray(lambdas, dtype=np.float64),
        child_size=np.asarray(sizes, dtype=np.int64),
        n_points=n,
    )


def ref_cluster_stabilities(tree: CondensedTree) -> Dict[int, float]:
    """Stability sigma(c) for every condensed cluster id."""
    births: Dict[int, float] = {tree.root: 0.0}
    cluster_children = tree.child >= tree.n_points
    for child, lam in zip(tree.child[cluster_children],
                          tree.lambda_val[cluster_children]):
        births[int(child)] = float(lam)

    stabilities: Dict[int, float] = {cid: 0.0 for cid in births}
    finite_lambda = tree.lambda_val[np.isfinite(tree.lambda_val)]
    lam_cap = float(finite_lambda.max()) if finite_lambda.size else 0.0
    for parent, lam, size in zip(tree.parent, tree.lambda_val,
                                 tree.child_size):
        lam_eff = float(lam) if np.isfinite(lam) else lam_cap
        birth = births[int(parent)]
        birth_eff = birth if np.isfinite(birth) else lam_cap
        stabilities[int(parent)] += (lam_eff - birth_eff) * float(size)
    return stabilities


def ref_extract_clusters(tree: CondensedTree
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Point labels and membership probabilities by excess of mass."""
    n = tree.n_points
    stabilities = ref_cluster_stabilities(tree)

    # Children clusters per parent.
    kids: Dict[int, list] = {cid: [] for cid in stabilities}
    cluster_rows = tree.child >= n
    for parent, child in zip(tree.parent[cluster_rows],
                             tree.child[cluster_rows]):
        kids[int(parent)].append(int(child))

    # Bottom-up (descending id = children first): excess of mass.
    selected: Dict[int, bool] = {}
    subtree_value: Dict[int, float] = {}
    for cid in sorted(stabilities, reverse=True):
        child_sum = sum(subtree_value[k] for k in kids[cid])
        if cid == tree.root:
            selected[cid] = False
            subtree_value[cid] = child_sum
        elif stabilities[cid] >= child_sum and not kids[cid] == []:
            # An internal cluster beating its children absorbs them.
            selected[cid] = True
            subtree_value[cid] = stabilities[cid]
        elif not kids[cid]:
            selected[cid] = True  # leaves of the condensed tree
            subtree_value[cid] = stabilities[cid]
        else:
            selected[cid] = False
            subtree_value[cid] = child_sum

    # Deselect descendants of selected clusters (top-down).
    for cid in sorted(stabilities):
        if not selected.get(cid, False):
            continue
        stack = list(kids[cid])
        while stack:
            k = stack.pop()
            selected[k] = False
            stack.extend(kids[k])

    chosen = sorted(cid for cid, sel in selected.items() if sel)
    index_of = {cid: i for i, cid in enumerate(chosen)}

    # Map every condensed cluster to its owning selected ancestor (if any).
    owner: Dict[int, int] = {}
    for cid in sorted(stabilities):
        if cid in index_of:
            owner[cid] = cid
        else:
            parent_owner = owner.get(_ref_parent_of(tree, cid), None) \
                if cid != tree.root else None
            if parent_owner is not None and not selected.get(cid, False):
                # Inside a selected ancestor only if that ancestor is
                # selected; otherwise unowned.
                owner[cid] = parent_owner

    labels = np.full(n, -1, dtype=np.int64)
    probabilities = np.zeros(n, dtype=np.float64)
    point_rows = tree.child < n
    parents = tree.parent[point_rows]
    points = tree.child[point_rows]
    lams = tree.lambda_val[point_rows]

    # Per-cluster max lambda for probability normalization.
    max_lam: Dict[int, float] = {}
    for parent, lam in zip(parents, lams):
        own = owner.get(int(parent))
        if own is None:
            continue
        lam_eff = float(lam) if np.isfinite(lam) else 1.0
        max_lam[own] = max(max_lam.get(own, 0.0), lam_eff)

    for parent, point, lam in zip(parents, points, lams):
        own = owner.get(int(parent))
        if own is None:
            continue
        labels[int(point)] = index_of[own]
        denom = max_lam.get(own, 0.0)
        if denom <= 0.0 or not np.isfinite(lam):
            probabilities[int(point)] = 1.0
        else:
            probabilities[int(point)] = min(float(lam) / denom, 1.0)
    return labels, probabilities


def _ref_parent_of(tree: CondensedTree, cid: int) -> int:
    """Condensed parent of cluster ``cid`` (root returns itself)."""
    rows = np.nonzero(tree.child == cid)[0]
    if rows.size == 0:
        return cid
    return int(tree.parent[rows[0]])


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_matches_reference(n, u, v, w, min_cluster_sizes):
    """Every stage equals the loop reference bit for bit."""
    Z = single_linkage_tree(n, u, v, w)
    _assert_same_bits(Z, ref_single_linkage_tree(n, u, v, w))
    for m in min_cluster_sizes:
        tree, ref = condense_tree(Z, m), ref_condense_tree(Z, m)
        for col in ("parent", "child", "lambda_val", "child_size"):
            _assert_same_bits(getattr(tree, col), getattr(ref, col))
        assert tree.n_points == ref.n_points
        stab, ref_stab = cluster_stabilities(tree), ref_cluster_stabilities(ref)
        assert list(stab) == list(ref_stab)
        _assert_same_bits(list(stab.values()), list(ref_stab.values()))
        labels, probs = extract_clusters(tree)
        ref_labels, ref_probs = ref_extract_clusters(ref)
        _assert_same_bits(labels, ref_labels)
        _assert_same_bits(probs, ref_probs)


def _random_tree(rng, n):
    """A random spanning tree's edges, in shuffled order."""
    u = np.arange(1, n)
    v = np.array([rng.integers(0, i) for i in range(1, n)], dtype=np.int64)
    perm = rng.permutation(n - 1)
    return u[perm], v[perm]


def _mrd_edges(points, k_pts):
    result = mutual_reachability_emst(points, k_pts)
    return (len(points), result.edges[:, 0], result.edges[:, 1],
            result.weights)


class TestMatchesLoopReference:
    def test_tied_weights(self, rng):
        # Only three distinct weights: stable order decides every merge.
        n = 80
        u, v = _random_tree(rng, n)
        w = rng.choice([1.0, 2.0, 3.0], size=n - 1)
        assert_matches_reference(n, u, v, w, (2, 5, n))

    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_zero_length_edges(self, rng, scale):
        # Distance 0 gives lambda = inf for those rows.  At scale 10 every
        # finite lambda is below 1, the value an infinite one counts as
        # in a cluster's maximum.
        n = 60
        u, v = _random_tree(rng, n)
        w = np.where(rng.random(n - 1) < 0.5, 0.0,
                     scale * (1.0 + rng.random(n - 1)))
        assert_matches_reference(n, u, v, w, (2, 5, n))

    def test_all_duplicate_points(self):
        points = np.zeros((25, 2))
        for k_pts in (1, 3):
            n, u, v, w = _mrd_edges(points, k_pts)
            assert not w.any()
            assert_matches_reference(n, u, v, w, (2, 5, n))

    def test_chain(self, rng):
        n = 50
        u, v = np.arange(n - 1), np.arange(1, n)
        for w in (rng.random(n - 1), np.arange(n - 1, dtype=np.float64),
                  np.arange(n - 1, 0, -1, dtype=np.float64)):
            assert_matches_reference(n, u, v, w, (2, 5, n))

    def test_star(self, rng):
        n = 50
        u, v = np.zeros(n - 1, dtype=np.int64), np.arange(1, n)
        for w in (rng.random(n - 1), np.ones(n - 1)):
            assert_matches_reference(n, u, v, w, (2, 5, n))

    @pytest.mark.parametrize("w", [0.0, 0.5])
    def test_two_points(self, w):
        assert_matches_reference(2, [0], [1], [w], (2,))

    def test_one_point(self):
        assert_matches_reference(1, [], [], [], (2,))

    def test_clustered_points(self, blobs):
        for k_pts in (1, 5):
            n, u, v, w = _mrd_edges(blobs, k_pts)
            assert_matches_reference(n, u, v, w, (2, 5, 10, n))

    @given(n=st.integers(2, 40), k_pts=st.integers(1, 4),
           min_cluster_size=st.integers(2, 40), seed=st.integers(0, 2**31))
    def test_small_point_sets_with_duplicates(self, n, k_pts,
                                              min_cluster_size, seed):
        # A 4 x 4 integer grid: most sets repeat points and tie distances.
        points = np.random.default_rng(seed).integers(
            0, 4, size=(n, 2)).astype(np.float64)
        k_pts = min(k_pts, n)
        n, u, v, w = _mrd_edges(points, k_pts)
        assert_matches_reference(n, u, v, w, (min(min_cluster_size, n),))


def test_production_answer_matches_perfbench_digest():
    """One pool job of the end-to-end benchmark, checked against the
    digest its reference engine run recorded (read, never rewritten)."""
    from perfbench.oracle import answer_digest, load_table
    from repro.data import generate_from_spec
    from repro.service.executor import execute_spec, make_exec_spec
    from repro.service.jobs import JobSpec

    source = "PortoTaxi:10000:1"
    spec = JobSpec(dataset=source, algorithm="hdbscan", k_pts=4)
    outcome = execute_spec(make_exec_spec(
        spec, points=generate_from_spec(source)))
    assert answer_digest(json.loads(json.dumps(outcome["payload"]))) == \
        load_table()[f"hdbscan:4:{source}"]

"""Traversal engines: equivalence, counters, workspaces, plans.

Every engine in ``ENGINES`` must be *indistinguishable by answer* from the
single-pop reference engine on every query the EMST pipeline issues —
including adversarial inputs (duplicate points, collinear sets,
all-identical points) under every constraint combination (component
labels x mutual-reachability x self-exclusion x initial radius).  The
canonical payload bytes certify that end to end; pinned-counter
regressions keep the multi-pop accounting semantics from drifting, and
the compiled engine must match the reference on every counter too.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given

from repro.bvh import (
    TraversalWorkspace,
    batched_knn,
    batched_nearest,
    build_bvh,
    radius_search,
    traversal_engine,
)
from repro.bvh import compiled
from repro.bvh.plan import build_query_plan, tree_coords
from repro.bvh.traversal import (
    ENGINES,
    get_default_engine,
    set_default_engine,
)
from repro.core.boruvka_emst import SingleTreeConfig
from repro.core.emst import emst, mutual_reachability_emst
from repro.core.labels import reduce_labels
from repro.data import generate
from repro.errors import InvalidInputError
from repro.geometry.distance import point_box_sq
from repro.hdbscan.hdbscan import hdbscan
from repro.kokkos.counters import CostCounters
from repro.service.jobs import (
    canonical_payload_bytes,
    emst_result_to_dict,
    hdbscan_result_to_dict,
)
from tests.conftest import finite_points

#: The pre-wavefront configuration: the semantics every new knob must
#: reproduce byte for byte.
OLD_CONFIG = SingleTreeConfig(leaf_size=1, warm_frontier=False,
                              bound_window=1)

#: 2^-27 (1 + 2^-20): the squared distance from the origin to
#: (1, DELTA, DELTA) is 1.0 summed left to right, as ``np.sum`` does, and
#: 1.0000000000000002 under any other association of the three terms.
DELTA = 2.0 ** -27 * (1 + 2.0 ** -20)


def adversarial_point_sets():
    rng = np.random.default_rng(7)
    uniform = rng.random((120, 2))
    return [
        ("uniform", uniform),
        ("duplicates", np.repeat(rng.random((40, 2)), 3, axis=0)),
        ("collinear", np.stack([np.linspace(0.0, 1.0, 90),
                                np.zeros(90)], axis=1)),
        ("identical", np.zeros((33, 2))),
        ("two-clusters", np.concatenate([uniform * 0.01,
                                         uniform * 0.01 + 5.0])),
        # A 2D distance sums two terms, which no order can round apart;
        # these pin the 3D accumulation order the kernels rely on.
        ("3d-delta-pair", np.concatenate([[[0.0, 0.0, 0.0],
                                           [1.0, DELTA, DELTA]],
                                          rng.random((60, 3)) + 3.0])),
        # Clustered, tree height 42: long, uneven query-plan rows.
        ("hacc-2000", generate("Hacc37M", 2000)),
    ]


class TestEngineSelection:
    def test_default_is_compiled_when_loadable(self):
        want = "compiled" if compiled.load() is not None else "wavefront"
        assert get_default_engine() == want
        assert set(ENGINES) == {"compiled", "wavefront", "reference"}

    def test_context_manager_restores(self):
        before = get_default_engine()
        with traversal_engine("reference"):
            assert get_default_engine() == "reference"
        assert get_default_engine() == before

    def test_rejects_unknown_engine(self):
        with pytest.raises(InvalidInputError):
            set_default_engine("gpu")
        rng = np.random.default_rng(0)
        bvh = build_bvh(rng.random((10, 2)))
        with pytest.raises(InvalidInputError):
            batched_nearest(bvh, bvh.points, engine="cuda")


class TestByteIdentity:
    """New vs reference results on adversarial inputs, every constraint."""

    @pytest.mark.parametrize("name,pts", adversarial_point_sets())
    @pytest.mark.parametrize("leaf_size", [1, 3])
    @pytest.mark.parametrize("warm", [False, True])
    def test_emst_canonical_bytes(self, name, pts, leaf_size, warm):
        reference = emst(pts, config=OLD_CONFIG)
        want = canonical_payload_bytes(emst_result_to_dict(reference))
        config = SingleTreeConfig(leaf_size=leaf_size, warm_frontier=warm)
        for engine in ENGINES:
            with traversal_engine(engine):
                got = emst(pts, config=config)
            assert canonical_payload_bytes(emst_result_to_dict(got)) \
                == want, (name, leaf_size, warm, engine)

    @pytest.mark.parametrize("name,pts", adversarial_point_sets())
    def test_mrd_emst_canonical_bytes(self, name, pts):
        reference = mutual_reachability_emst(pts, 4, config=OLD_CONFIG)
        want = canonical_payload_bytes(emst_result_to_dict(reference))
        for engine in ENGINES:
            for leaf_size in (1, 4):
                with traversal_engine(engine):
                    got = mutual_reachability_emst(
                        pts, 4, config=SingleTreeConfig(leaf_size=leaf_size))
                assert canonical_payload_bytes(emst_result_to_dict(got)) \
                    == want, (name, engine, leaf_size)

    def test_hdbscan_canonical_bytes(self):
        rng = np.random.default_rng(3)
        centers = rng.random((4, 2)) * 10
        pts = np.concatenate([c + rng.normal(0, 0.1, (50, 2))
                              for c in centers])
        reference = hdbscan(pts, min_cluster_size=6, k_pts=4,
                            config=OLD_CONFIG)
        want = canonical_payload_bytes(hdbscan_result_to_dict(reference))
        for engine in ENGINES:
            with traversal_engine(engine):
                got = hdbscan(pts, min_cluster_size=6, k_pts=4)
            assert canonical_payload_bytes(hdbscan_result_to_dict(got)) \
                == want, engine

    @given(finite_points(min_n=2, max_n=60))
    def test_property_engines_agree_on_emst(self, pts):
        with traversal_engine("reference"):
            want = emst(pts)
        for engine in ENGINES:
            with traversal_engine(engine):
                got = emst(pts)
            assert np.array_equal(got.edges, want.edges), engine
            assert np.array_equal(got.weights, want.weights), engine

    @pytest.mark.parametrize("name,pts", adversarial_point_sets())
    def test_constrained_nearest_all_combos(self, name, pts):
        """labels x mrd x exclude x init-radius, keyed: identical answers."""
        bvh = build_bvh(pts)
        for combo, kwargs in constraint_combos(bvh):
            want = batched_nearest(bvh, bvh.points, engine="reference",
                                   **kwargs)
            for engine in ENGINES:
                got = batched_nearest(bvh, bvh.points, engine=engine,
                                      **kwargs)
                where = (name, combo, engine)
                assert np.array_equal(got.position, want.position), where
                assert np.array_equal(got.distance_sq, want.distance_sq), \
                    where
                assert np.array_equal(got.key, want.key), where

    def test_knn_distances_agree(self):
        for name, pts in adversarial_point_sets():
            bvh = build_bvh(pts)
            for k in (1, 4):
                want = batched_knn(bvh, bvh.points, k, engine="reference")
                for engine in ENGINES:
                    got = batched_knn(bvh, bvh.points, k, engine=engine)
                    assert np.array_equal(got.distance_sq,
                                          want.distance_sq), (name, k, engine)

    def test_radius_sets_agree(self):
        for name, pts in adversarial_point_sets():
            bvh = build_bvh(pts)
            offs_b, pos_b, _ = radius_search(bvh, bvh.points, 0.2,
                                             engine="reference")
            for engine in ENGINES:
                offs_a, pos_a, _ = radius_search(bvh, bvh.points, 0.2,
                                                 engine=engine)
                assert np.array_equal(offs_a, offs_b), (name, engine)
                for i in range(bvh.n):
                    assert set(pos_a[offs_a[i]:offs_a[i + 1]]) == \
                        set(pos_b[offs_b[i]:offs_b[i + 1]]), (name, i, engine)


def constraint_combos(bvh):
    """``(combo, kwargs)`` for labels x mrd x exclude x init-radius, keyed."""
    rng = np.random.default_rng(11)
    n = bvh.n
    labels = rng.integers(0, 3, size=n)
    node_labels = reduce_labels(bvh, labels)
    core = rng.random(n) * 0.05
    for combo in itertools.product((False, True), repeat=4):
        use_labels, use_mrd, use_excl, use_radius = combo
        kwargs = dict(query_ids=bvh.order, point_ids=bvh.order)
        if use_labels:
            kwargs.update(query_labels=labels, node_labels=node_labels,
                          point_labels=labels)
        if use_mrd:
            kwargs.update(query_core_sq=core, point_core_sq=core)
        if use_excl:
            kwargs.update(exclude_position=np.arange(n))
        if use_radius:
            kwargs.update(init_radius_sq=np.full(n, 0.3))
        yield combo, kwargs


def _with_counters(kernel, *args, engine, **kwargs):
    counters = CostCounters()
    out = kernel(*args, engine=engine, counters=counters, **kwargs)
    return out, counters.as_dict()


class TestCompiledCounters:
    """The compiled engine runs the reference loop: every answer (tie
    positions and output order included) and every counter agree."""

    @pytest.mark.parametrize("name,pts", adversarial_point_sets())
    @pytest.mark.parametrize("leaf_size", [1, 3])
    def test_nearest_all_combos(self, name, pts, leaf_size):
        bvh = build_bvh(pts, leaf_size=leaf_size)
        for (combo, kwargs), keyed in itertools.product(
                constraint_combos(bvh), (True, False)):
            if not keyed:  # unkeyed ties keep the first found
                kwargs = {key: value for key, value in kwargs.items()
                          if key not in ("query_ids", "point_ids")}
            got, got_c = _with_counters(batched_nearest, bvh, bvh.points,
                                        engine="compiled", **kwargs)
            want, want_c = _with_counters(batched_nearest, bvh, bvh.points,
                                          engine="reference", **kwargs)
            where = (name, leaf_size, combo, keyed)
            assert np.array_equal(got.position, want.position), where
            assert np.array_equal(got.distance_sq, want.distance_sq), where
            assert np.array_equal(got.key, want.key), where
            assert got_c == want_c, where

    @pytest.mark.parametrize("leaf_size", [1, 3])
    def test_knn_with_tie_positions(self, leaf_size):
        for name, pts in adversarial_point_sets():
            bvh = build_bvh(pts, leaf_size=leaf_size)
            for k, exclude in itertools.product(
                    (1, 4), (None, np.arange(bvh.n))):
                got, got_c = _with_counters(
                    batched_knn, bvh, bvh.points, k, engine="compiled",
                    exclude_position=exclude)
                want, want_c = _with_counters(
                    batched_knn, bvh, bvh.points, k, engine="reference",
                    exclude_position=exclude)
                where = (name, leaf_size, k, exclude is not None)
                assert np.array_equal(got.positions, want.positions), where
                assert np.array_equal(got.distance_sq, want.distance_sq), \
                    where
                assert got_c == want_c, where

    @pytest.mark.parametrize("leaf_size", [1, 3])
    def test_radius_in_output_order(self, leaf_size):
        for name, pts in adversarial_point_sets():
            bvh = build_bvh(pts, leaf_size=leaf_size)
            for radius in (0.0, 0.2):
                got, got_c = _with_counters(radius_search, bvh, bvh.points,
                                            radius, engine="compiled")
                want, want_c = _with_counters(radius_search, bvh,
                                              bvh.points, radius,
                                              engine="reference")
                where = (name, leaf_size, radius)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b), where
                assert got_c == want_c, where


def _grid16():
    xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0))
    return np.stack([xs.ravel(), ys.ravel()], axis=1)


class TestCounterRegression:
    """Exact visit counts on a fixed 16-point grid — pinned so the
    multi-pop counter semantics cannot silently drift."""

    def _count(self, bvh, engine, width=None, **kwargs):
        counters = CostCounters()
        extra = {} if width is None else {"width": width}
        batched_nearest(bvh, bvh.points, engine=engine, counters=counters,
                        exclude_position=np.arange(bvh.n), **extra, **kwargs)
        return counters

    def test_reference_counts(self):
        c = self._count(build_bvh(_grid16()), "reference")
        assert (c.nodes_visited, c.stack_ops, c.box_distance_evals,
                c.distance_evals, c.leaf_visits, c.lane_steps,
                c.warp_steps) == (136, 256, 376, 48, 48, 136, 10)

    def test_compiled_counts_equal_reference(self):
        c = self._count(build_bvh(_grid16()), "compiled")
        assert (c.nodes_visited, c.stack_ops, c.box_distance_evals,
                c.distance_evals, c.leaf_visits, c.lane_steps,
                c.warp_steps) == (136, 256, 376, 48, 48, 136, 10)

    def test_wavefront_width1_matches_reference_pops(self):
        # Single-pop wavefront: identical traversal, remembered bounds
        # (the only divergence is box evals: root seed + 2 per survivor
        # instead of 3 recomputes per pop).
        c = self._count(build_bvh(_grid16()), "wavefront", width=1)
        assert (c.nodes_visited, c.stack_ops, c.distance_evals,
                c.leaf_visits, c.lane_steps, c.warp_steps) \
            == (136, 256, 48, 48, 136, 10)
        assert c.box_distance_evals == 256

    def test_wavefront_multi_pop_counts(self):
        # Draining 2 entries per lane per iteration halves the lane steps
        # and overvisits nodes against the per-drain (staler) radii —
        # both effects pinned exactly.
        c = self._count(build_bvh(_grid16()), "wavefront", width=2)
        assert (c.nodes_visited, c.stack_ops, c.box_distance_evals,
                c.distance_evals, c.leaf_visits, c.lane_steps,
                c.warp_steps) == (184, 352, 288, 64, 64, 104, 7)

    def test_wavefront_seeded_counts(self):
        # Plan seeding starts each lane at its path siblings: node visits
        # drop from 136 to 88 and lane steps from 136 to 36 on the grid.
        c = CostCounters()
        bvh = build_bvh(_grid16())
        batched_nearest(bvh, bvh.points, engine="wavefront", width=4,
                        workspace=TraversalWorkspace(),
                        exclude_position=np.arange(16), counters=c,
                        self_queries=True)
        assert (c.nodes_visited, c.stack_ops, c.distance_evals,
                c.leaf_visits, c.lane_steps, c.warp_steps) \
            == (88, 176, 48, 48, 36, 3)

    def test_blocked_leaves_counts(self):
        # leaf_size=4: a quarter of the leaves, whole-block evaluation.
        c = self._count(build_bvh(_grid16(), leaf_size=4), "wavefront",
                        width=2)
        assert (c.nodes_visited, c.stack_ops, c.box_distance_evals,
                c.distance_evals, c.leaf_visits, c.lane_steps,
                c.warp_steps) == (48, 80, 112, 240, 64, 32, 2)

    def test_emst_round_counters_populated(self):
        # RoundStats survive the new kernels (used by the figure benches).
        result = emst(np.random.default_rng(0).random((256, 2)))
        for r in result.rounds:
            assert r.nodes_visited > 0
            assert r.warp_steps > 0
            assert r.lane_steps >= r.warp_steps


class TestWorkspace:
    def test_stack_reuse_across_launches(self):
        rng = np.random.default_rng(1)
        bvh = build_bvh(rng.random((300, 3)))
        ws = TraversalWorkspace()
        batched_knn(bvh, bvh.points, 4, workspace=ws)
        allocations = ws.allocations
        for _ in range(3):
            batched_knn(bvh, bvh.points, 4, workspace=ws)
        assert ws.allocations == allocations  # steady state: no reallocs
        assert ws.nbytes == _held_nbytes(ws)

    def test_take_grows_and_reuses(self):
        ws = TraversalWorkspace()
        a = ws.take("x", 100)
        before = ws.allocations
        b = ws.take("x", 50)
        assert ws.allocations == before  # served from the same buffer
        assert b.base is a.base or b.base is a  # same arena memory
        ws.take("x", 10_000)
        assert ws.allocations == before + 1

    def test_emst_accepts_shared_workspace(self):
        rng = np.random.default_rng(2)
        pts = rng.random((200, 2))
        ws = TraversalWorkspace()
        first = emst(pts, workspace=ws)
        second = emst(pts, workspace=ws)
        assert np.array_equal(first.edges, second.edges)

    def test_plan_cached_per_tree(self):
        rng = np.random.default_rng(3)
        ws = TraversalWorkspace()
        bvh_a = build_bvh(rng.random((64, 2)))
        plan_a, built_a = ws.plan_for(bvh_a)
        plan_a2, built_a2 = ws.plan_for(bvh_a)
        assert built_a and not built_a2 and plan_a is plan_a2
        bvh_b = build_bvh(rng.random((64, 2)))
        _, built_b = ws.plan_for(bvh_b)
        assert built_b  # different tree -> new plan


def _held_nbytes(obj) -> int:
    """Summed ``.nbytes`` of every array reachable from ``obj``'s state."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_held_nbytes(v) for v in obj.values())
    if isinstance(obj, (tuple, list)):
        return sum(_held_nbytes(v) for v in obj)
    if hasattr(obj, "__dict__"):
        return _held_nbytes(vars(obj))
    return 0


def _root_path_length(bvh, leaf):
    length = 0
    while bvh.parent[leaf] >= 0:
        leaf = int(bvh.parent[leaf])
        length += 1
    return length


class TestQueryPlan:
    def test_path_siblings_partition_tree(self):
        rng = np.random.default_rng(5)
        bvh = build_bvh(rng.random((37, 2)))
        plan = build_query_plan(bvh, tree_coords(bvh))
        for lane in (0, 17, 36):
            row = plan.nodes[plan.offsets[lane]:plan.offsets[lane + 1]]
            nodes = [int(x) for x in row]
            # Own leaf is the last entry.
            assert nodes[-1] >= bvh.leaf_base
            # The union of all subtree leaves is every sorted position.
            seen = []
            for node in nodes:
                stack = [node]
                while stack:
                    x = stack.pop()
                    if x >= bvh.leaf_base:
                        block = x - bvh.leaf_base
                        start = int(bvh.leaf_start[block])
                        seen.extend(range(start,
                                          start + int(bvh.leaf_count[block])))
                    else:
                        stack.extend([int(bvh.left[x]), int(bvh.right[x])])
            assert sorted(seen) == list(range(bvh.n))

    @pytest.mark.parametrize("leaf_size", [1, 3])
    def test_ragged_layout(self, leaf_size):
        bvh = build_bvh(generate("Hacc37M", 600), leaf_size=leaf_size)
        plan = build_query_plan(bvh, tree_coords(bvh))
        rows = np.diff(plan.offsets)
        assert plan.offsets[0] == 0 and plan.offsets[-1] == plan.nodes.size
        assert plan.build_box_evals == plan.nodes.size == plan.dist.size
        assert np.array_equal(plan.lane, np.repeat(np.arange(bvh.n), rows))
        assert plan.depth == rows.max()
        for lane in range(bvh.n):
            row = plan.nodes[plan.offsets[lane]:plan.offsets[lane + 1]]
            leaf = row[-1]
            block = leaf - bvh.leaf_base
            assert bvh.leaf_start[block] <= lane \
                < bvh.leaf_start[block] + bvh.leaf_count[block]
            # One sibling per ancestor, root side first, then the leaf.
            assert row.size == _root_path_length(bvh, leaf) + 1
            node = leaf
            for sibling in row[-2::-1]:
                par = bvh.parent[node]
                assert sibling in (bvh.left[par], bvh.right[par])
                assert sibling != node
                node = par
            assert node == 0
        # Plan bounds equal the row-layout oracle bit for bit.
        want = point_box_sq(bvh.points[plan.lane], bvh.lo[plan.nodes],
                            bvh.hi[plan.nodes])
        assert np.array_equal(plan.dist.view(np.uint64),
                              want.view(np.uint64))

    def test_self_queries_requires_full_batch(self):
        rng = np.random.default_rng(6)
        bvh = build_bvh(rng.random((50, 2)))
        with pytest.raises(InvalidInputError):
            batched_nearest(bvh, bvh.points[:10], engine="wavefront",
                            self_queries=True)

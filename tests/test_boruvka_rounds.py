"""Tests of the Borůvka iteration structure and its paper-stated properties."""

import numpy as np

from repro.core.boruvka_emst import SingleTreeConfig
from repro.core.emst import emst
from repro.data import hacc, uniform


class TestRoundStructure:
    def test_components_at_least_halve(self, rng):
        # Every component merges with at least one other each round.
        result = emst(rng.random((512, 2)))
        for r in result.rounds:
            assert r.components_after <= r.components_before // 2 \
                or r.components_after == 1

    def test_chains_merge_faster_than_halving(self):
        # Section 2: chains let Borůvka need far fewer than log2(n)
        # rounds in practice.
        pts = hacc(4000, seed=2)
        result = emst(pts)
        assert result.n_iterations < np.log2(4000)

    def test_late_rounds_cheaper_with_optimizations(self):
        # Section 3: "the cost of Borůvka's iterations tends to
        # progressively decrease, with later iterations typically taking
        # a small fraction of the earlier ones."
        pts = uniform(8000, 3, seed=1)
        result = emst(pts)
        evals = [r.distance_evals for r in result.rounds]
        assert evals[-1] < 0.5 * max(evals)

    def test_subtree_skipping_helps_late_rounds_most(self):
        # Section 3: "the benefit of this approach is limited on the
        # earlier iterations ... it is critical on the later iterations."
        pts = uniform(4000, 2, seed=3)
        on = emst(pts).rounds
        off = emst(pts, config=SingleTreeConfig(
            subtree_skipping=False)).rounds
        n_common = min(len(on), len(off))
        ratio_first = off[0].nodes_visited / max(on[0].nodes_visited, 1)
        ratio_late = (off[n_common - 1].nodes_visited
                      / max(on[n_common - 1].nodes_visited, 1))
        assert ratio_late > ratio_first

    def test_bounds_cut_distance_evals_every_round(self):
        # Optimization 2 prunes every round's traversal: on these points
        # the per-round node-visit ratio (bounds on / off) falls from
        # 0.61 in round 0 to 0.22 in round 6.  The first rounds evaluate
        # more point distances with bounds than without, because the
        # bound scan's own pairs count, so distance evaluations are
        # compared in total (0.83 here).
        pts = uniform(4000, 2, seed=4)
        on = emst(pts).rounds
        off = emst(pts, config=SingleTreeConfig(
            component_bounds=False)).rounds
        assert len(on) == len(off)
        for r_on, r_off in zip(on, off):
            assert r_on.nodes_visited < 0.7 * r_off.nodes_visited, \
                r_on.iteration
        total_on = sum(r.distance_evals for r in on)
        total_off = sum(r.distance_evals for r in off)
        assert total_on < 0.9 * total_off

    def test_round_work_recorded(self, rng):
        result = emst(rng.random((256, 3)))
        for r in result.rounds:
            assert r.distance_evals >= 0
            assert r.nodes_visited > 0
            assert r.warp_steps > 0
            assert r.lane_steps >= r.warp_steps

    def test_iterations_match_rounds(self, rng):
        result = emst(rng.random((300, 2)))
        assert result.rounds[-1].components_after == 1
        assert result.rounds[0].components_before == 300


class TestWorkScaling:
    def test_linear_work_growth(self):
        # Asymptotically linear cost (the paper's Figure 7 argument):
        # doubling n should not quadruple the distance evaluations.
        evals = []
        for n in (2000, 4000, 8000):
            result = emst(uniform(n, 3, seed=0))
            evals.append(result.total_counters.distance_evals)
        assert evals[1] < 3.0 * evals[0]
        assert evals[2] < 3.0 * evals[1]

    def test_distance_evals_per_point_bounded(self):
        # The optimizations keep per-point work ~constant: far below the
        # hundreds a naive implementation would need.
        for gen, name in ((uniform, "uniform"), (None, "hacc")):
            pts = hacc(10_000, seed=0) if gen is None \
                else uniform(10_000, 3, seed=0)
            result = emst(pts)
            per_point = result.total_counters.distance_evals / 10_000
            assert per_point < 40, (name, per_point)

    def test_divergence_factor_moderate(self):
        # Morton-presorted queries keep warps coherent: the measured
        # divergence stays far below the worst case of 32.
        result = emst(uniform(10_000, 3, seed=5))
        assert result.total_counters.divergence_factor < 6.0

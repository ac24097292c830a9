"""End-to-end tests of the ADDS solver: correctness covered in
tests/baselines/test_solver_correctness.py; here we test ADDS-specific
behaviour — protocol stats, ablations, the cramming failure mode,
configuration handling, resource accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import davidson_delta, solve_nf
from repro.core import AddsConfig, solve_adds
from repro.dynamic import EdgeDeltas
from repro.errors import SolverError
from repro.graphs import from_edge_list, grid_road

SCHEDULERS = ("bucket", "mlmq")


class TestConfigHandling:
    def test_default_uses_davidson_initial_delta(self, small_road):
        r = solve_adds(small_road, 0)
        assert r.stats["initial_delta"] == pytest.approx(davidson_delta(small_road))

    def test_delta_argument_overrides(self, small_road):
        r = solve_adds(small_road, 0, delta=123.0)
        assert r.stats["initial_delta"] == 123.0

    def test_config_initial_delta(self, small_road):
        r = solve_adds(small_road, 0, config=AddsConfig(initial_delta=77.0))
        assert r.stats["initial_delta"] == 77.0

    def test_invalid_delta(self, small_road):
        with pytest.raises(SolverError):
            solve_adds(small_road, 0, delta=-5)

    def test_empty_graph_rejected(self):
        with pytest.raises(SolverError):
            solve_adds(from_edge_list(0, []), 0)

    def test_explicit_wtb_count(self, small_road):
        r = solve_adds(small_road, 0, config=AddsConfig(n_wtbs=3))
        assert r.stats["n_wtbs"] == 3

    def test_too_many_wtbs_rejected(self, small_road):
        with pytest.raises(SolverError, match="resident"):
            solve_adds(small_road, 0, config=AddsConfig(n_wtbs=10_000))


class TestProtocolStats:
    def test_pushed_equals_completed_at_exit(self, small_road):
        """Termination requires all in-flight work accounted (§5.4)."""
        r = solve_adds(small_road, 0)
        assert r.stats["total_pushed"] == r.stats["total_completed"]

    def test_work_not_more_than_pushed(self, small_road):
        r = solve_adds(small_road, 0)
        assert r.work_count <= r.stats["total_pushed"]

    def test_fences_used(self, small_road):
        r = solve_adds(small_road, 0)
        assert r.stats["fences"] > 0

    def test_translation_cache_mostly_hits(self, small_mesh):
        r = solve_adds(small_mesh, 0)
        hits, misses = r.stats["translation_hits"], r.stats["translation_misses"]
        assert hits / max(1, hits + misses) > 0.9

    def test_pool_high_water_reported(self, small_road):
        r = solve_adds(small_road, 0)
        assert r.stats["pool_high_water"] >= 1

    def test_timeline_nonempty_and_ends_idle(self, small_road):
        r = solve_adds(small_road, 0)
        ts, vs = r.timeline.series()
        assert len(ts) > 2
        assert vs[-1] == 0.0

    def test_deterministic(self, small_rmat):
        a = solve_adds(small_rmat, 0)
        b = solve_adds(small_rmat, 0)
        assert a.time_us == b.time_us
        assert a.work_count == b.work_count
        assert np.array_equal(a.dist, b.dist)


class TestDynamicDelta:
    def test_static_mode_never_adjusts(self, small_road):
        r = solve_adds(small_road, 0, config=AddsConfig().static_delta_ablation())
        assert r.stats["delta_adjustments"] == 0
        assert r.stats["final_delta"] == r.stats["initial_delta"]

    def test_dynamic_mode_records_trace(self, small_mesh):
        r = solve_adds(small_mesh, 0, config=AddsConfig(warmup_passes=10, settle_passes=10))
        assert r.stats["delta_adjustments"] == len(r.stats["delta_trace"])

    def test_tiny_initial_delta_recovers_via_clip_guard(self, small_mesh, oracle):
        """Start in the Figure 6(b) clipping regime; the 65 % guard must
        pull Δ back up and the answer must stay exact."""
        r = solve_adds(
            small_mesh, 0, delta=0.5,
            config=AddsConfig(warmup_passes=10, settle_passes=10),
        )
        assert r.stats["final_delta"] > 0.5
        np.testing.assert_allclose(
            np.nan_to_num(r.dist, posinf=-1),
            np.nan_to_num(oracle(small_mesh, 0), posinf=-1),
        )

    def test_huge_initial_delta_still_exact(self, small_road, oracle):
        r = solve_adds(small_road, 0, delta=1e12)
        np.testing.assert_allclose(
            np.nan_to_num(r.dist, posinf=-1),
            np.nan_to_num(oracle(small_road, 0), posinf=-1),
        )


class TestAblations:
    def test_two_buckets_does_more_work(self, small_mesh):
        """Fewer buckets -> coarser priority -> more redundant work, on an
        ordering-sensitive graph (the §6.3 mechanism)."""
        full = solve_adds(small_mesh, 0, config=AddsConfig().static_delta_ablation())
        two = solve_adds(small_mesh, 0, config=AddsConfig().two_buckets_ablation())
        assert two.work_count >= full.work_count

    def test_ablations_remain_correct(self, small_road, oracle):
        for cfg in (
            AddsConfig().static_delta_ablation(),
            AddsConfig().two_buckets_ablation(),
        ):
            r = solve_adds(small_road, 0, config=cfg)
            np.testing.assert_allclose(
                np.nan_to_num(r.dist, posinf=-1),
                np.nan_to_num(oracle(small_road, 0), posinf=-1),
            )


class TestUnsafeRotation:
    def test_cramming_costs_work_but_stays_correct(self, small_road, oracle):
        """§5.4: rotating before CWC matches resv_ptr crams spawned work
        into lower-priority buckets.  The result stays correct (clipping
        only degrades ordering) but work must not improve."""
        safe = solve_adds(small_road, 0, config=AddsConfig(n_wtbs=4))
        unsafe = solve_adds(
            small_road, 0, config=AddsConfig(n_wtbs=4, unsafe_rotation=True)
        )
        np.testing.assert_allclose(
            np.nan_to_num(unsafe.dist, posinf=-1),
            np.nan_to_num(oracle(small_road, 0), posinf=-1),
        )
        assert unsafe.stats["low_clips"] >= safe.stats["low_clips"]


class TestDeviceChoice:
    def test_custom_scaled_device(self, small_road):
        from repro.calibration import sim_cost, sim_gpu
        from repro.gpu.specs import RTX_3090

        spec = sim_gpu(RTX_3090)
        r = solve_adds(small_road, 0, spec=spec, cost=sim_cost(spec))
        assert r.time_us > 0

    def test_3090_not_slower_when_saturated(self, small_rmat):
        from repro.calibration import sim_cost, sim_gpu
        from repro.gpu.specs import RTX_2080TI, RTX_3090

        t2080 = solve_adds(
            small_rmat, 0, spec=sim_gpu(RTX_2080TI), cost=sim_cost(sim_gpu(RTX_2080TI))
        ).time_us
        t3090 = solve_adds(
            small_rmat, 0, spec=sim_gpu(RTX_3090), cost=sim_cost(sim_gpu(RTX_3090))
        ).time_us
        assert t3090 <= t2080 * 1.05


class TestDegenerateInputs:
    """Solves where the WTBs have nothing, or almost nothing, to relax."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_empty_dirty_frontier(self, scheduler):
        # a warm start with no edge changes seeds nothing: the MTB must
        # terminate on its own at the same fixpoint
        g = grid_road(10, 10, seed=9)
        warm = solve_adds(g, 0, scheduler=scheduler).dist
        res = solve_adds(
            g, 0, scheduler=scheduler,
            warm_from=warm, updates=EdgeDeltas.empty(),
        )
        np.testing.assert_array_equal(res.dist, warm)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_single_vertex(self, scheduler):
        r = solve_adds(from_edge_list(1, []), 0, scheduler=scheduler)
        assert r.dist[0] == 0.0
        assert r.work_count == 1

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_single_vertex_self_loop(self, scheduler):
        g = from_edge_list(1, [(0, 0, 3)])
        r = solve_adds(g, 0, scheduler=scheduler)
        assert r.dist[0] == 0.0

"""The uniform SolveRequest entry point and capability flags."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.common import (
    SOLVERS,
    SolveRequest,
    get_solver,
    get_solver_info,
    solver_names,
)
from repro.calibration import default_cost, default_gpu
from repro.errors import SolverError
from repro.trace import Tracer


class TestSolveRequest:
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_request_matches_legacy_call(self, name, small_road):
        """Every registered solver gives bit-identical results through the
        request path and the legacy keyword path."""
        info = get_solver_info(name)
        spec = default_gpu()
        cost = default_cost(spec)
        kwargs = {}
        if info.needs_device:
            kwargs = {"spec": spec, "cost": cost}
        legacy = info(small_road, 0, **kwargs)
        via_request = info.solve(
            SolveRequest(graph=small_road, source=0, spec=spec, cost=cost)
        )
        assert np.array_equal(legacy.dist, via_request.dist)
        assert legacy.work_count == via_request.work_count
        assert legacy.time_us == via_request.time_us

    def test_sources_forwarded(self, small_road):
        info = get_solver_info("dijkstra")
        res = info.solve(
            SolveRequest(graph=small_road, source=0, sources=[0, 5])
        )
        assert res.dist[0] == 0.0 and res.dist[5] == 0.0

    def test_delta_forwarded(self, small_road):
        info = get_solver_info("cpu-ds")
        a = info.solve(SolveRequest(graph=small_road, delta=3.0))
        b = info.solve(SolveRequest(graph=small_road, delta=200.0))
        assert np.array_equal(a.dist, b.dist)  # same answer, different Δ

    def test_options_reach_the_solver(self, small_road):
        from repro.core import AddsConfig

        spec = default_gpu()
        res = get_solver("adds").solve(
            SolveRequest(
                graph=small_road,
                spec=spec,
                cost=default_cost(spec),
                options={"config": AddsConfig(n_wtbs=2)},
            )
        )
        assert res.stats["n_wtbs"] == 2

    def test_tracer_rejected_by_untraceable(self, small_road):
        with pytest.raises(SolverError, match="does not support tracing"):
            get_solver("dijkstra").solve(
                SolveRequest(graph=small_road, tracer=Tracer())
            )

    def test_delta_rejected_without_capability(self, small_road):
        with pytest.raises(SolverError, match="delta"):
            get_solver("dijkstra").solve(
                SolveRequest(graph=small_road, delta=5.0)
            )

    def test_config_rejected_without_capability(self, small_road):
        spec = default_gpu()
        with pytest.raises(SolverError, match="config"):
            get_solver("nf").solve(
                SolveRequest(graph=small_road, spec=spec, config=object())
            )


class TestCapabilityFlags:
    def test_device_solvers(self):
        assert solver_names(needs_device=True) == [
            "adds", "gun-bf", "gun-nf", "nf", "nv",
        ]

    def test_traceable_solvers(self):
        assert solver_names(traceable=True) == [
            "adds", "gun-bf", "gun-nf", "nf", "nv",
        ]
        assert "dijkstra" not in solver_names(traceable=True)

    def test_delta_family(self):
        names = solver_names(accepts_delta=True)
        assert "adds" in names and "cpu-ds" in names
        assert "gun-bf" not in names

    def test_registry_values_are_callable(self):
        for name, info in SOLVERS.items():
            assert callable(info)
            assert info.name == name

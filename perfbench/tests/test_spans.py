import numpy as np
import pytest

from perfbench import spans
from perfbench.inputs import BenchmarkError
from perfbench.spans import Probes, SpanRecorder, self_times, summarize


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 3];  root > c [7, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 7.0])
    end = np.array([10.0, 6.0, 3.0, 9.0])
    assert self_times(parent, start, end).tolist() == [3.0, 4.0, 1.0, 2.0]


def test_self_times_sum_to_root_durations():
    parent = np.array([-1, 0, 1, 1, -1, 4])
    start = np.array([0.0, 1.0, 1.5, 3.0, 20.0, 21.0])
    end = np.array([10.0, 8.0, 2.5, 7.0, 30.0, 22.0])
    roots = parent < 0
    assert self_times(parent, start, end).sum() == pytest.approx(
        (end - start)[roots].sum())


def _fake_clock(monkeypatch, ticks):
    it = iter(ticks)
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(it))


def test_recorder_nests_and_summarizes(monkeypatch):
    rec = SpanRecorder()
    seen = []

    def leaf():
        return "x"

    def middle():
        return wleaf() + wleaf()

    wleaf = rec.wrap(leaf, "core.scheduler:leaf", after=lambda out, a, k: seen.append(out))
    wmid = rec.wrap(middle, "gpu.device:run")
    # clock reads: mid open, leaf open/close, leaf open/close, mid close
    _fake_clock(monkeypatch, [0.0, 1.0, 2.0, 4.0, 7.0, 10.0])
    rec.op = 5
    assert wmid() == "xx"
    assert seen == ["x", "x"]
    a = rec.arrays()
    assert a["parent"].tolist() == [-1, 0, 0]
    assert a["op"].tolist() == [5, 5, 5]
    s = summarize(rec)
    assert s["gpu.device:run"] == {"count": 1, "total_s": 10.0, "self_s": 6.0, "entries": 1}
    assert s["core.scheduler:leaf"] == {"count": 2, "total_s": 4.0, "self_s": 4.0, "entries": 2}
    assert s.layer("core.scheduler", "self_s") == 4.0


def test_entries_count_only_calls_from_another_layer(monkeypatch):
    rec = SpanRecorder()
    inner = rec.wrap(lambda: None, "core.scheduler:inner")
    outer = rec.wrap(lambda: inner(), "core.scheduler:outer")
    _fake_clock(monkeypatch, [0.0, 1.0, 2.0, 3.0])
    outer()
    s = summarize(rec)
    assert s["core.scheduler:outer"]["entries"] == 1
    assert s["core.scheduler:inner"]["entries"] == 0
    assert s.layer("core.scheduler", "entries") == 1


def test_require_stops_on_a_span_or_layer_that_never_fired():
    rec = SpanRecorder()
    rec.wrap(lambda: None, "core.scheduler:publish")()
    rec.name_id("core.mlmq:rotate")  # wrapped, but never called
    s = summarize(rec)
    s.require(["core.scheduler", "core.scheduler:publish"])
    with pytest.raises(BenchmarkError, match="core.mlmq, gpu.device:run"):
        s.require(["core.scheduler", "core.mlmq", "gpu.device:run"])
    assert s.span("gpu.device:run", "self_s") == 0.0


def test_span_closes_when_the_call_raises():
    rec = SpanRecorder()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        rec.wrap(boom, "x:boom")()
    assert rec.end[0] >= rec.start[0]
    assert rec._stack == [-1]


def test_probes_restore_every_patched_attribute():
    import repro.core.adds as adds
    import repro.dynamic.frontier as frontier
    from repro.baselines.common import SolverInfo
    from repro.core.scheduler import WorkScheduler
    from repro.serve.session import Session

    before = (adds.make_relax_kernel, frontier.changes_affect,
              vars(WorkScheduler)["reserve"], vars(Session)["submit"],
              vars(SolverInfo)["solve"])
    with Probes(SpanRecorder(), ("graphs", "sim", "serve", "solvers")):
        assert adds.make_relax_kernel is not before[0]
        assert vars(WorkScheduler)["reserve"] is not before[2]
    after = (adds.make_relax_kernel, frontier.changes_affect,
             vars(WorkScheduler)["reserve"], vars(Session)["submit"],
             vars(SolverInfo)["solve"])
    assert after == before


def test_traced_solve_is_bit_identical_and_attributed():
    from repro.baselines.common import SolveRequest, get_solver_info
    from repro.graphs import grid_road

    g = grid_road(12, 12, seed=3).prepare()
    req = SolveRequest(graph=g, source=0)
    plain = get_solver_info("adds").solve(req)
    rec = SpanRecorder()
    with Probes(rec, ("sim", "solvers")) as probes:
        traced = get_solver_info("adds").solve(req)
    assert np.array_equal(plain.dist, traced.dist)
    assert (plain.work_count, plain.time_us) == (traced.work_count, traced.time_us)
    s = summarize(rec)
    assert s["core.adds:solve"]["count"] == 1
    assert s["gpu.device:run"]["count"] == 1
    assert s["core.wtb:dispatch"]["count"] > 0
    assert probes.counts["dispatch.live"] == plain.work_count
    assert 0 < probes.counts["dispatch.small"] <= s["core.wtb:dispatch"]["count"]
    assert s.layer("core.mlmq", "count") == 0

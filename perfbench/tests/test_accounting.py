import math
import time
from types import SimpleNamespace

import numpy as np

from perfbench import measure, oracle, serve_mixed, sim
from perfbench.measure import Ledger, per_op_min, percentile


def test_ledger_counts_attempts_and_failures():
    led = Ledger()
    led.ok()
    assert led.check(True, "unused")
    assert not led.check(False, "wrong answer")
    led.fail("refused")
    assert (led.attempted, led.failed) == (4, 2)
    assert led.failures == ["wrong answer", "refused"]


def test_failed_ops_miss_every_latency_limit():
    lat = [1.0] * 98 + [float("inf")] * 2
    assert percentile(lat, 0.5) == 1.0
    assert math.isinf(percentile(lat, 0.99))


def test_per_op_min_is_infinite_if_the_op_ever_failed():
    samples = [[3.0, 2.0, 4.0], [1.0, math.inf, 1.5], [2.0, 5.0, 1.0, 0.5]]
    assert per_op_min(samples) == [2.0, math.inf, 0.5]


def _line_inputs(trace, updates, n=4):
    """Fake serve inputs over one path graph 0 -> 1 -> ... -> n-1."""
    src, dst = list(range(n - 1)), list(range(1, n))
    return SimpleNamespace(
        trace=trace,
        updates=updates,
        states=lambda: {"g": oracle.EdgeState(n, src, dst, [1.0] * (n - 1))},
    ), (src, dst)


def _session(edges, n=4, **kw):
    from repro.graphs import from_edge_list
    from repro.serve import Session

    session = Session(solver="dijkstra", jobs=1, autostart=False, **kw)
    session.add_graph("g", from_edge_list(n, edges))
    return session


def test_replay_counts_refused_queries_as_failed():
    inputs, (src, dst) = _line_inputs([[("g", 0, None), ("g", 1, (3,))]], [])
    session = _session([(u, v, 1) for u, v in zip(src, dst)], max_pending=1)
    replay = serve_mixed._Replay(session, inputs, Ledger())
    replay._round(inputs.trace[0])
    assert (replay.ledger.attempted, replay.ledger.failed) == (2, 1)
    assert "AdmissionError" in replay.ledger.failures[0]
    assert math.isfinite(replay.latencies[0]) and math.isinf(replay.latencies[1])


def test_replay_counts_wrong_answers_as_failed():
    inputs, (src, dst) = _line_inputs([[("g", 0, None), ("g", 0, (3,))]], [])
    # the program's graph has a heavier last edge than the oracle's copy
    session = _session([(0, 1, 1), (1, 2, 1), (2, 3, 5)])
    replay = serve_mixed._Replay(session, inputs, Ledger())
    replay._round(inputs.trace[0])
    assert replay.ledger.failed == 2
    assert all(math.isinf(x) for x in replay.latencies)


def test_replay_counts_rejected_updates_and_the_stale_answers_after():
    # the program's int32 graph rejects a fractional weight that the
    # oracle's float copy takes, so the answer after the update disagrees
    trace = [[("g", 0, None)], [("g", 0, None)], [("g", 0, None)]]
    inputs, (src, dst) = _line_inputs(trace, [("g", (("increase", 2, 3, 2.5),))])
    session = _session([(u, v, 1) for u, v in zip(src, dst)])
    replay = serve_mixed._Replay(session, inputs, Ledger())
    replay.run()
    assert replay.ledger.attempted == 4  # three queries, one update batch
    assert replay.ledger.failed == 2
    assert "update batch" in replay.ledger.failures[0]
    assert "differ from the oracle" in replay.ledger.failures[1]
    assert all(math.isfinite(x) for x in replay.latencies[:2])
    assert math.isinf(replay.latencies[2])


def test_sim_check_flags_oracle_and_determinism_mismatches():
    sweep = SimpleNamespace(ops=[("g", 0)], oracle=[np.array([0.0, 1.0])])
    led = Ledger()
    good = SimpleNamespace(solver="adds", dist=np.array([0.0, 1.0]), work_count=3, time_us=2.0)
    bad = SimpleNamespace(solver="adds", dist=np.array([0.0, 2.0]), work_count=3, time_us=2.0)
    drift = SimpleNamespace(solver="adds", dist=np.array([0.0, 1.0]), work_count=4, time_us=2.0)
    assert sim._check(led, sweep, 0, good, None)
    assert not sim._check(led, sweep, 0, bad, None)
    assert not sim._check(led, sweep, 0, drift, (3, 2.0))
    assert sim._check(led, sweep, 0, good, (3, 2.0))
    assert (led.attempted, led.failed) == (4, 2)


def test_percentile_interpolates_until_it_reaches_a_failure():
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert percentile([1.0, 2.0, 3.0, math.inf], 0.5) == 2.5
    assert math.isinf(percentile([1.0, 2.0, math.inf, math.inf], 0.5))


def test_host_probe_keeps_the_fastest_repeat(monkeypatch):
    waits = iter([0.03, 0.01, 0.02])
    monkeypatch.setattr(measure, "_probe_body", lambda: time.sleep(next(waits)))
    best = measure.host_probe(3)
    assert 0.01 <= best < 0.02


def test_sim_ops_are_timed_in_reference_host_seconds(monkeypatch):
    res = SimpleNamespace(solver="adds", dist=np.array([0.0, 1.0]), work_count=3, time_us=2.0)
    monkeypatch.setattr(sim, "_solve", lambda *a: (0.5, res))
    monkeypatch.setattr(sim, "host_scale", lambda: 2.0)
    sweep = SimpleNamespace(ops=[("g", 0)], oracle=[np.array([0.0, 1.0])])
    dt, got = sim._run_op(Ledger(), sweep, {"g": None}, "bucket", {}, 0)
    assert (dt, got) == (1.0, res)


def test_replay_scales_every_timing_by_the_host_probe(monkeypatch):
    monkeypatch.setattr(serve_mixed, "host_scale", lambda repeats=3: 0.0)
    trace = [[("g", 0, None), ("g", 1, (3,))], [("g", 0, None)]]
    inputs, (src, dst) = _line_inputs(trace, [("g", (("increase", 2, 3, 2),))])
    replay = serve_mixed._Replay(_session([(u, v, 1) for u, v in zip(src, dst)]), inputs, Ledger())
    replay.run()
    assert replay.ledger.failed == 0
    assert replay.latencies == [0.0] * 3
    assert replay.round_s == [0.0] * 2 and replay.update_s == [0.0]

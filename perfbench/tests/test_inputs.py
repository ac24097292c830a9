import numpy as np
import pytest

from perfbench import oracle
from perfbench.inputs import (
    GRAPH_SHA256,
    RECIPES,
    BenchmarkError,
    digest,
    draw_sources,
    make_trace,
    make_updates,
    rng_for,
)


def _grid_state():
    from repro.graphs import grid_road

    g = grid_road(8, 8, seed=2)
    return g, oracle.EdgeState(
        g.num_vertices, *oracle.csr_edges(g.row_offsets, g.col_indices, g.weights))


def _trace(seed):
    graphs = {"a": (64, [1, 5, 9]), "b": (30, [2, 3])}
    return make_trace(graphs, rng_for(seed, 200), rounds=20, per_round=8)


def test_trace_is_a_function_of_the_seed():
    assert digest(_trace(3)) == digest(_trace(3))
    assert digest(_trace(3)) != digest(_trace(4))


def test_every_round_has_the_same_mix():
    hot = {"a": {1, 5, 9}, "b": {2, 3}}
    trace = _trace(1)
    assert len(trace) == 20
    for r in trace:
        assert len(r) == 8
        assert sorted(gid for gid, _, _ in r) == ["a"] * 4 + ["b"] * 4
        assert sum(t is not None for _, _, t in r) == 4
        # 3 or 4 of each graph's 4 are drawn hot (3.2 on average); a
        # cold draw may land on a hot vertex too
        for gid in hot:
            assert sum(src in hot[gid] for g, src, _ in r if g == gid) >= 3


def test_each_graph_gets_the_same_targets_and_hot_share_in_every_seed():
    def per_graph(seed, gid):
        trace = _trace(seed)
        return [sum(t is not None for g, _, t in r if g == gid) for r in trace]

    for gid in ("a", "b"):
        assert per_graph(1, gid) == per_graph(2, gid) == [2] * 20
    hot_a = sum(src in {1, 5, 9} for r in _trace(5) for g, src, _ in r if g == "a")
    assert hot_a >= 64  # 0.8 of a's 80 queries


def test_update_stream_is_a_function_of_the_seed_and_valid():
    def stream(seed):
        _, st = _grid_state()
        return make_updates({"g": st}, {"g": 50}, rng_for(seed, 300), batches=12)

    assert digest(stream(7)) == digest(stream(7))
    assert digest(stream(7)) != digest(stream(8))
    kinds = {k for _, batch in stream(7) for k, *_ in batch}
    assert kinds == {"increase", "decrease", "insert", "delete"}


def test_update_stream_matches_the_program_edge_for_edge():
    from repro.dynamic import EdgeUpdate, UpdateBatch, apply_updates

    g, st = _grid_state()
    stream = make_updates({"g": st}, {"g": 50}, rng_for(1, 300), batches=12)
    mine = _grid_state()[1]
    for _, batch in stream:
        g = apply_updates(g, UpdateBatch(EdgeUpdate(*u) for u in batch)).graph
        mine.apply(batch)
    src, dst, w = oracle.csr_edges(g.row_offsets, g.col_indices, g.weights)
    assert dict(zip(zip(src.tolist(), dst.tolist()), w.tolist())) == mine.w


def test_sources_are_stratified_and_seeded():
    pool = np.arange(100, 200)
    a = draw_sources(pool, 4, rng_for(9, 0))
    assert a == draw_sources(pool, 4, rng_for(9, 0))
    assert [s // 25 for s in a] == [4, 5, 6, 7]
    with pytest.raises(BenchmarkError):
        draw_sources(pool[:3], 4, rng_for(9, 0))


def test_every_recipe_is_pinned():
    assert set(RECIPES) == set(GRAPH_SHA256)

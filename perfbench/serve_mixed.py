"""The serving workload: a closed loop of queries plus edge updates.

One synchronous ``Session(solver="dijkstra", jobs=1, autostart=False)``
serves four small pinned graphs.  Each round submits 32 queries (32
callers, each waiting for its answer before it asks again) and drains
them with ``serve_pending``; every second round is followed by one
edge-update batch.  The loop is closed because Session callers block on
futures; the synchronous drain keeps batch composition identical from
run to run, so every pass over the same rounds does identical work.
A timed run replays four independent parts of the seed's inputs (hot
sets, trace, update stream), each on a fresh session, in whole cycles
of at least two, and times each query and update by its fastest pass.

Every answer is checked, outside the timed region, against scipy's
Dijkstra on the benchmark's own copy of the edges, to which each update
batch is applied by this file, not by the program.
"""

from __future__ import annotations

import functools
import gc
import math
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

from perfbench import oracle
from perfbench.inputs import (
    digest,
    draw_sources,
    make_trace,
    make_updates,
    rng_for,
)
from perfbench.measure import (
    Ledger,
    host_scale,
    peak_rss_mb,
    per_op_min,
    percentile,
    ratio,
)
from perfbench.sim import build_graph, check_graph
from perfbench.spans import Probes, SpanRecorder, summarize

__all__ = ["GRAPHS", "run"]

GRAPHS = ("road32", "road40d", "rmat10", "rmat11")
#: hot sources per graph: 4 x 12 = 48 fit the session's 64-entry cache
HOT_PER_GRAPH = 12
PER_ROUND = 32
#: rounds per pass (1024 queries)
ROUNDS = 32
#: an edge-update batch follows every UPDATE_EVERY-th round
UPDATE_EVERY = 2
#: independent input sets (hot sets, trace, update stream) a timed run
#: replays: what one set's few hot sources and update batches cost moves
#: its figures by up to 20% from seed to seed, and more rounds of the
#: same set do not average that out
PARTS = 4
#: replays of every part a timed run makes at least
MIN_CYCLES = 2
#: spans a traced run must record
REQUIRED_SPANS = (
    "graphs:build", "graphs:prepare", "serve.session:submit",
    "serve.session:serve_pending", "serve.session:apply_updates",
    "serve.batcher:plan", "serve.cache", "engine.executor:submit",
    "baselines.dijkstra:solve", "dynamic:apply_updates",
    "dynamic:changes_affect", "dynamic:incremental_seed",
)


@functools.lru_cache(maxsize=None)
def _graph(name: str):
    """One pinned graph's edges, largest weight, hash, and its largest
    strongly connected component ordered by reach."""
    g = build_graph(name)
    sha = check_graph(name, g)
    edges = (g.num_vertices,) + oracle.csr_edges(g.row_offsets, g.col_indices, g.weights)
    matrix = oracle.EdgeState(*edges).matrix()
    return edges, int(g.weights.max()), sha, oracle.by_reach(matrix, oracle.largest_scc(matrix))


class _Inputs:
    """One part of the seed's inputs: hot sets, query trace and update
    stream."""

    def __init__(self, seed: int, part: int = 0) -> None:
        self.edges = {}
        self.max_weight = {}
        hot = {}
        hashes = {}
        for gi, name in enumerate(GRAPHS):
            self.edges[name], self.max_weight[name], hashes[name], by_reach = _graph(name)
            # one hot source per stratum of reach, nearest first, so the
            # Zipf ranks meet the same mix of near and far sources in
            # every seed
            hot[name] = draw_sources(by_reach, HOT_PER_GRAPH, rng_for(seed, part, 100 + gi))
        self.hot = hot
        self.trace = make_trace(
            {n: (self.edges[n][0], hot[n]) for n in GRAPHS},
            rng_for(seed, part, 200), rounds=ROUNDS, per_round=PER_ROUND)
        self.updates = make_updates(
            self.states(), self.max_weight, rng_for(seed, part, 300),
            batches=ROUNDS // UPDATE_EVERY)
        self.hashes = {
            "graphs": digest(hashes),
            "trace": digest(self.trace),
            "updates": digest(self.updates),
        }

    def states(self) -> Dict[str, oracle.EdgeState]:
        """Fresh oracle edge copies at the graphs' initial state."""
        return {n: oracle.EdgeState(*self.edges[n]) for n in GRAPHS}


def _setup(inputs: _Inputs):
    """Build the graphs, load them into a fresh session and warm the
    cache with one query per hot source.  Returns (seconds, session)."""
    from repro.serve import Session

    t0 = time.perf_counter()
    session = Session(solver="dijkstra", jobs=1, autostart=False)
    graphs = {name: session.add_graph(name, build_graph(name)) for name in GRAPHS}
    futures = [session.submit(n, s) for n in GRAPHS for s in inputs.hot[n]]
    session.serve_pending()
    for f in futures:
        f.result()
    elapsed = time.perf_counter() - t0
    for name, g in graphs.items():
        check_graph(name, g)
    return elapsed, session


def _stamp(ends: List[float], j: int, _future) -> None:
    ends[j] = time.perf_counter()


class _Replay:
    """One closed-loop replay over a session, with its own oracle.

    ``answers`` caches oracle answers by (graph, update batches applied
    to it, source); replays of the same inputs may share it, since every
    replay applies the same batches in the same order.
    """

    def __init__(self, session, inputs: _Inputs, ledger: Ledger, *,
                 count_kept: bool = True, answers=None) -> None:
        self.session = session
        # counting cached sources calls into the cache, so a traced
        # replay leaves it to its untraced twin
        self.count_kept = count_kept
        self.inputs = inputs
        self.ledger = ledger
        self.states = inputs.states()
        self._generation: Dict[str, int] = {}
        self._answers: Dict[Tuple[str, int, int], np.ndarray] = (
            {} if answers is None else answers)
        #: per query, per round and per update batch, in replay order,
        #: in seconds of the reference host
        self.latencies: List[float] = []
        self.round_s: List[float] = []
        self.update_s: List[float] = []
        self.kept = [0, 0]  # cached sources after / before each update
        self._scale = 1.0  # host_scale() before the latest round

    def _expected(self, gid: str, src: int) -> np.ndarray:
        key = (gid, self._generation.get(gid, 0), src)
        if key not in self._answers:
            self._answers[key] = oracle.distances(self.states[gid].matrix(), src)
        return self._answers[key]

    def _round(self, queries) -> None:
        session, ledger = self.session, self.ledger
        ends = [0.0] * len(queries)
        pending = []
        # a round takes about 50 ms: a shorter probe than a solve's
        self._scale = scale = host_scale(2)
        t_round = time.perf_counter()
        for j, (gid, src, targets) in enumerate(queries):
            t0 = time.perf_counter()
            try:
                fut = session.submit(gid, src, targets)
            except Exception as exc:  # refused at the door: a failed op
                pending.append((t0, None, f"{type(exc).__name__}: {exc}"))
                continue
            fut.add_done_callback(functools.partial(_stamp, ends, j))
            pending.append((t0, fut, None))
        try:
            session.serve_pending()
        except Exception as exc:
            drain_error = f"{type(exc).__name__}: {exc}"
        else:
            drain_error = None
        self.round_s.append((time.perf_counter() - t_round) * scale)

        # outside the timed region: check every answer
        for j, ((gid, src, targets), (t0, fut, err)) in enumerate(zip(queries, pending)):
            if err is None and not fut.done():
                err = drain_error or "never answered"
            if err is None and fut.exception() is not None:
                exc = fut.exception()
                err = f"{type(exc).__name__}: {exc}"
            if err is None:
                res = fut.result()
                want = self._expected(gid, src)
                if not np.array_equal(res.dist, want):
                    err = "distances differ from the oracle"
                elif targets is not None and not np.array_equal(
                        res.target_dist, want[list(targets)]):
                    err = "target distances differ from the oracle"
            if err is None:
                self.ledger.ok()
                self.latencies.append((ends[j] - t0) * scale)
            else:
                self.ledger.fail(f"query {gid} from {src}: {err}")
                self.latencies.append(float("inf"))

    def _update(self, gid: str, batch) -> None:
        from repro.dynamic import EdgeUpdate, UpdateBatch

        program_batch = UpdateBatch(EdgeUpdate(k, u, v, w) for k, u, v, w in batch)
        cache = self.session.cache
        before = len(cache.sources(gid)) if self.count_kept else 0
        t0 = time.perf_counter()
        try:
            self.session.apply_updates(gid, program_batch)
        except Exception as exc:
            err = f"{type(exc).__name__}: {exc}"
        else:
            err = None
        self.update_s.append((time.perf_counter() - t0) * self._scale)
        if self.count_kept:
            self.kept[0] += len(cache.sources(gid))
            self.kept[1] += before
        self.ledger.check(err is None, f"update batch on {gid}: {err}")
        self.states[gid].apply(batch)
        self._generation[gid] = self._generation.get(gid, 0) + 1

    def run(self, rec=None) -> None:
        """Replay every round, with an update batch after each
        UPDATE_EVERY-th; ``rec`` (traced runs) gets each op's id."""
        for r, queries in enumerate(self.inputs.trace):
            if rec is not None:
                rec.op = 2 * r
            self._round(queries)
            if (r + 1) % UPDATE_EVERY == 0:
                if rec is not None:
                    rec.op = 2 * r + 1
                self._update(*self.inputs.updates[r // UPDATE_EVERY])


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir):
    parts = [_Inputs(seed, p) for p in range(PARTS)]
    if trace:
        return _run_traced(workload, parts[0], seed, out_dir)

    ledger = Ledger()
    setup_times = []
    # per part, per pass: (query latencies, round times, update times);
    # the replay itself is dropped, so its sessions do not pile up; the
    # oracle's answers are the same in every pass of a part and are kept
    passes: List[list] = [[] for _ in parts]
    answers = [{} for _ in parts]
    counters = [{} for _ in parts]
    start = time.perf_counter()
    cycle_s = 0.0
    # whole cycles over the parts, so every op gets as many samples as
    # the others; another one only if it should end nearer to
    # ``seconds`` than this one
    while len(passes[0]) < MIN_CYCLES or time.perf_counter() - start + cycle_s / 2 < seconds:
        t_cycle = time.perf_counter()
        for p, inputs in enumerate(parts):
            gc.collect()
            before = host_scale()
            dt, session = _setup(inputs)
            setup_times.append(dt * math.sqrt(before * host_scale()))
            replay = _Replay(session, inputs, ledger, answers=answers[p])
            try:
                replay.run()
                counters[p] = session.counters()
            finally:
                session.close()
            passes[p].append((replay.latencies, replay.round_s, replay.update_s))
            del replay, session
        cycle_s = time.perf_counter() - t_cycle
    latencies: List[float] = []
    round_s: List[float] = []
    update_s: List[float] = []
    for part in passes:
        lat, rnd, upd = (per_op_min(list(zip(*per_pass))) for per_pass in zip(*part))
        latencies += lat
        round_s += rnd
        update_s += upd
    total = {k: sum(c[k] for c in counters) for k in counters[0]}
    busy = sum(round_s) + sum(update_s)
    metrics = {
        "op_ms_p50": percentile(latencies, 0.5) * 1e3,
        # the p99 is set by the few heaviest drains, so it moves with
        # the seed; the p90 spans about ten per part
        "op_ms_tail": percentile(latencies, 0.9) * 1e3,
        "throughput_per_s": sum(map(math.isfinite, latencies)) / busy,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "passes_per_part": len(passes[0]),
        "queries": len(latencies),
        "query_ms_p99": percentile(latencies, 0.99) * 1e3,
        "update_ms_p50": statistics.median(update_s) * 1e3,
        "cache_hit_rate": _hit_rate(total),
        "counters": total,
        "setup_runs_s": setup_times,
        "input_sha256": [inputs.hashes for inputs in parts],
    }
    return ledger, metrics, details


def _hit_rate(counters) -> float:
    answered = counters["serve_cache_hits"] + counters["serve_batched"]
    return counters["serve_cache_hits"] / answered if answered else 0.0


def _run_traced(workload, inputs, seed, out_dir):
    """Per-layer figures: one pass replayed untraced and once traced,
    each on a freshly set-up session."""
    ledger = Ledger()
    rec = SpanRecorder()
    with Probes(rec, ("graphs",)):
        _, session = _setup(inputs)
    answers: Dict[Tuple[str, int, int], np.ndarray] = {}
    plain = _Replay(session, inputs, ledger, answers=answers)
    try:
        plain.run()
    finally:
        session.close()

    _, session = _setup(inputs)
    traced = _Replay(session, inputs, ledger, count_kept=False, answers=answers)
    try:
        with Probes(rec, ("serve", "solvers", "graphs")) as probes:
            traced.run(rec)
        counters = session.counters()
        evictions = session.cache.evictions
    finally:
        session.close()
    rec.save(out_dir / f"spans-{workload}-{seed}.npz")

    s = summarize(rec)
    s.require(REQUIRED_SPANS)
    c = probes.counts

    solves = s.span("baselines.dijkstra:solve", "count")
    metrics = {
        "graphs.build_s": s.span("graphs:build", "total_s"),
        "graphs.prepare_s": s.span("graphs:prepare", "total_s"),
        "baselines.dijkstra.solve_s": s.span("baselines.dijkstra:solve", "total_s"),
        "baselines.dijkstra.solves": solves,
        "engine.executor.self_s": s.layer("engine.executor", "self_s"),
        "serve.session.submit_s": s.span("serve.session:submit", "self_s"),
        "serve.session.self_s": s.span("serve.session:serve_pending", "self_s"),
        "serve.session.apply_updates_s": s.span("serve.session:apply_updates", "self_s"),
        "serve.session.update_ms_p50": statistics.median(plain.update_s) * 1e3,
        "serve.session.incremental_share": ratio(counters["serve_incremental"], solves),
        "serve.batcher.plan_s": s.span("serve.batcher:plan", "total_s"),
        "serve.batcher.sources_per_plan": ratio(c["plan.sources"], c["plan.plans"]),
        "serve.batcher.queries_per_source": ratio(c["plan.queries"], c["plan.sources"]),
        "serve.cache.self_s": s.layer("serve.cache", "self_s"),
        "serve.cache.hit_rate": _hit_rate(counters),
        "serve.cache.evictions": evictions,
        "dynamic.apply_updates_s": s.span("dynamic:apply_updates", "total_s"),
        "dynamic.changes_affect_s": s.span("dynamic:changes_affect", "total_s"),
        "dynamic.incremental_seed_s": s.span("dynamic:incremental_seed", "total_s"),
        "dynamic.kept_ratio": ratio(*plain.kept),
        "trace_overhead": ratio(sum(traced.round_s) + sum(traced.update_s),
                                sum(plain.round_s) + sum(plain.update_s)),
    }
    details = {
        "rounds": ROUNDS,
        "spans": len(rec.start),
        "counters": counters,
        "input_sha256": inputs.hashes,
        "layers": s,
    }
    return ledger, metrics, details

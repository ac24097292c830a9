"""The simulated-GPU workloads: ADDS full solves over pinned graphs.

``road`` solves high-diameter grids with the paper's bucket queue, and
``mlmq`` low-diameter graphs under the MLMQ scheduler.  A run draws
twelve sources per graph from the seed, solves every (graph, source) pair
once per pass, and repeats whole passes until ``--seconds`` have
passed, so every op gets the same number of samples.  Every solve is
checked, outside its timed region, against the scipy oracle and against
the first pass's result for the same pair.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

from perfbench import oracle
from perfbench.inputs import (
    GRAPH_SHA256,
    RECIPES,
    BenchmarkError,
    digest,
    draw_sources,
    graph_sha256,
    rng_for,
)
from perfbench.measure import (
    Ledger,
    geomean,
    host_scale,
    peak_rss_mb,
    per_op_min,
    percentile,
    ratio,
)
from perfbench.spans import Probes, SpanRecorder, summarize

__all__ = ["WORKLOADS", "run"]

#: workload -> (graph recipes, ADDS scheduler)
WORKLOADS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "road": (("road100", "road100d"), "bucket"),
    "mlmq": (("rmat13", "gnm10k"), "mlmq"),
}
#: 24 ops of about 0.1-0.2 s each: a pass takes about 5 s.  Short ops
#: are the point: the host's fast spells rarely last 250 ms, so an op
#: much longer than that seldom runs undisturbed
SOURCES_PER_GRAPH = 12
#: a traced run times each op twice (untraced, traced): fewer sources
TRACE_SOURCES_PER_GRAPH = 4
#: whole passes a timed run makes at least
MIN_PASSES = 3
SETUP_REPEATS = 5
#: spans a traced run must record, and the policy layer of each scheduler
REQUIRED_SPANS = (
    "graphs:build", "graphs:prepare", "baselines.nf:solve", "core.adds:solve",
    "gpu.device:run", "core.wtb:dispatch", "gpu.memory:atomic_min_batch",
    "core.scheduler", "core.block_alloc", "core.delta_controller",
)
POLICY_LAYER = {"bucket": "core.bucket_queue", "mlmq": "core.mlmq"}


def build_graph(name: str):
    """Build one pinned recipe through ``GraphSpec.build``."""
    from repro.graphs.suite import GraphSpec

    generator, params = RECIPES[name]
    return GraphSpec.make(generator, **params).build()


def check_graph(name: str, g) -> str:
    """The graph's hash, which must be the pinned one: a mismatch means
    the inputs changed, a benchmark error rather than a failed op."""
    got = graph_sha256(g.row_offsets, g.col_indices, g.weights)
    if got != GRAPH_SHA256[name]:
        raise BenchmarkError(
            f"graph {name} changed: sha256 {got}, pinned {GRAPH_SHA256[name]}; "
            "the benchmark's inputs are no longer the ones its figures describe"
        )
    return got


def _solve(solver: str, graph, source: int, scheduler=None):
    from repro.baselines.common import SolveRequest, get_solver_info

    request = SolveRequest(graph=graph, source=source, scheduler=scheduler)
    info = get_solver_info(solver)
    t0 = time.perf_counter()
    result = info.solve(request)
    return time.perf_counter() - t0, result


def _setup(names, scheduler) -> Tuple[float, Dict[str, object]]:
    """Build and prepare every graph, then run one untimed warm-up solve
    per graph (from its highest-degree vertex), which also fills the
    prepared adjacency cache.  Returns (seconds, graphs)."""
    t0 = time.perf_counter()
    graphs = {}
    for name in names:
        g = build_graph(name).prepare()
        _solve("adds", g, int(np.argmax(np.diff(g.row_offsets))), scheduler)
        graphs[name] = g
    elapsed = time.perf_counter() - t0
    for name, g in graphs.items():
        check_graph(name, g)
    return elapsed, graphs


class _Sweep:
    """The seed's (graph, source) ops plus their oracle answers."""

    def __init__(self, graphs, seed: int, per_graph: int) -> None:
        sources = {}
        matrices = {}
        for gi, (name, g) in enumerate(sorted(graphs.items())):
            src, dst, w = oracle.csr_edges(g.row_offsets, g.col_indices, g.weights)
            matrices[name] = oracle.min_edge_matrix(g.num_vertices, src, dst, w)
            pool = oracle.by_reach(matrices[name], oracle.largest_scc(matrices[name]))
            sources[name] = draw_sources(pool, per_graph, rng_for(seed, gi))
        # interleave graphs so a pass alternates between them
        self.ops = [
            (name, sources[name][j]) for j in range(per_graph) for name in sorted(sources)
        ]
        self.oracle: List[np.ndarray] = [
            oracle.distances(matrices[n], s) for n, s in self.ops]
        self.input_hash = digest({n: GRAPH_SHA256[n] for n in graphs}, self.ops)


def _check(ledger: Ledger, sweep: _Sweep, i: int, result, first) -> bool:
    name, src = sweep.ops[i]
    if not np.array_equal(result.dist, sweep.oracle[i]):
        return ledger.check(False, f"{result.solver} {name} from {src}: distances differ from the oracle")
    if first is not None and (result.work_count, result.time_us) != first:
        return ledger.check(False, f"{result.solver} {name} from {src}: simulated output changed between passes")
    return ledger.check(True, "")


def _nf_references(ledger, sweep, graphs):
    out = []
    for i, (name, src) in enumerate(sweep.ops):
        _, res = _solve("nf", graphs[name], src)
        _check(ledger, sweep, i, res, None)
        out.append(res)
    return out


def _run_op(ledger, sweep, graphs, scheduler, firsts, i):
    """Solve op ``i`` once and check it; returns (seconds of the
    reference host, result), or (inf, None) when the solve raised."""
    name, src = sweep.ops[i]
    scale = host_scale()
    try:
        dt, res = _solve("adds", graphs[name], src, scheduler)
        dt *= scale
    except Exception as exc:  # a failed op, not a benchmark error
        ledger.fail(f"adds {name} from {src}: {type(exc).__name__}: {exc}")
        return float("inf"), None
    first = firsts.get(i)
    _check(ledger, sweep, i, res, first)
    if first is None:
        firsts[i] = (res.work_count, res.time_us)
    return dt, res


def _pass(ledger, sweep, graphs, scheduler, firsts, rec=None):
    """One solve of every op; returns per-op (seconds, result)."""
    out = []
    for i in range(len(sweep.ops)):
        if rec is not None:
            rec.op = i
        out.append(_run_op(ledger, sweep, graphs, scheduler, firsts, i))
    return out


def _sim_summary(first_pass, nf) -> Dict[str, object]:
    """The exact simulated figures of one pass; a host-only change must
    leave every one of them, and the digest, bit-identical."""
    adds = [r for _, r in first_pass]
    if any(r is None for r in adds):
        return {}
    return {
        "sim_time_us": sum(r.time_us for r in adds),
        "sim_speedup_vs_nf": geomean([b.time_us / a.time_us for a, b in zip(adds, nf)]),
        "work_ratio_vs_nf": geomean([a.work_count / b.work_count for a, b in zip(adds, nf)]),
        "output_digest": digest(*[x for r in adds for x in (r.dist, r.work_count, r.time_us)]),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir) -> Tuple[Ledger, Dict[str, float], Dict[str, object]]:
    names, scheduler = WORKLOADS[workload]
    if trace:
        return _run_traced(workload, names, scheduler, seed, out_dir)
    ledger = Ledger()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        graphs = None  # free the previous repetition's graphs first
        gc.collect()
        before = host_scale()
        dt, graphs = _setup(names, scheduler)
        setup_times.append(dt * math.sqrt(before * host_scale()))
    sweep = _Sweep(graphs, seed, SOURCES_PER_GRAPH)
    nf = _nf_references(ledger, sweep, graphs)

    firsts: Dict[int, Tuple[int, float]] = {}
    gc.collect()
    start = time.perf_counter()
    first = _pass(ledger, sweep, graphs, scheduler, firsts)
    pass_s = time.perf_counter() - start
    # keep only figures, not results: holding every pass's distance
    # arrays and timelines would make peak RSS grow with the pass count
    summary = _sim_summary(first, nf)
    work = [res.work_count if res is not None else 0 for _, res in first]
    samples = [[dt] for dt, _ in first]
    del first, nf
    # whole passes, so every op gets as many samples as the others;
    # another one only if it should end nearer to ``seconds`` than this one
    while len(samples[0]) < MIN_PASSES or time.perf_counter() - start + pass_s / 2 < seconds:
        t_pass = time.perf_counter()
        for i in range(len(samples)):
            samples[i].append(_run_op(ledger, sweep, graphs, scheduler, firsts, i)[0])
        pass_s = time.perf_counter() - t_pass
    times = per_op_min(samples)
    metrics = {
        "op_ms_p50": percentile(times, 0.5) * 1e3,
        # 24 ops are too few for a high percentile: the upper quartile
        "op_ms_tail": percentile(times, 0.75) * 1e3,
        "throughput_per_s": sum(work) / sum(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "ops": sweep.ops,
        "passes": len(samples[0]),
        "op_ms": [round(t * 1e3, 3) for t in times],
        "setup_runs_s": setup_times,
        "input_sha256": sweep.input_hash,
        **summary,
    }
    return ledger, metrics, details


def _run_traced(workload, names, scheduler, seed, out_dir):
    """Per-layer figures: one untraced pass and one traced pass over the
    same ops, on the same warm graphs."""
    ledger = Ledger()
    rec = SpanRecorder()
    with Probes(rec, ("graphs",)):
        _, graphs = _setup(names, scheduler)
    sweep = _Sweep(graphs, seed, TRACE_SOURCES_PER_GRAPH)
    with Probes(rec, ("solvers",)):
        nf = _nf_references(ledger, sweep, graphs)
    firsts: Dict[int, Tuple[int, float]] = {}
    plain = _pass(ledger, sweep, graphs, scheduler, firsts)
    with Probes(rec, ("sim", "solvers")) as probes:
        traced = _pass(ledger, sweep, graphs, scheduler, firsts, rec)
    rec.save(out_dir / f"spans-{workload}-{seed}.npz")

    s = summarize(rec)
    s.require(REQUIRED_SPANS + (POLICY_LAYER[scheduler],))
    c = probes.counts

    def stat(key):
        return sum(r.stats[key] for _, r in plain if r is not None)

    dispatches = s.span("core.wtb:dispatch", "count")
    wakeups, spurious = stat("wakeups"), stat("spurious_wakeups")
    hits, misses = stat("translation_hits"), stat("translation_misses")
    sim = _sim_summary(plain, nf)
    metrics = {
        "graphs.build_s": s.span("graphs:build", "total_s"),
        "graphs.prepare_s": s.span("graphs:prepare", "total_s"),
        "core.adds.self_s": s.span("core.adds:solve", "self_s"),
        "core.adds.sim_time_us": sim.get("sim_time_us", 0.0),
        "core.adds.speedup_vs_nf": sim.get("sim_speedup_vs_nf", 0.0),
        "core.adds.work_ratio_vs_nf": sim.get("work_ratio_vs_nf", 0.0),
        "gpu.device.self_s": s.span("gpu.device:run", "self_s"),
        "gpu.device.wakeups": wakeups,
        "gpu.device.spurious_ratio": ratio(spurious, wakeups + spurious),
        "core.wtb.dispatch_s": s.span("core.wtb:dispatch", "self_s"),
        "core.wtb.dispatches": dispatches,
        "core.wtb.items_per_dispatch": ratio(c["dispatch.items"], dispatches),
        "core.wtb.edges_per_dispatch": ratio(c["dispatch.edges"], dispatches),
        "core.wtb.small_share": ratio(c["dispatch.small"], dispatches),
        "core.wtb.live_ratio": ratio(c["dispatch.live"], c["dispatch.items"]),
        "gpu.memory.atomic_min_s": s.span("gpu.memory:atomic_min_batch", "self_s"),
        "gpu.memory.win_ratio": ratio(c["atomic_min.winners"], c["atomic_min.candidates"]),
        "gpu.memory.atomics": stat("atomics"),
        "gpu.memory.fences": stat("fences"),
        "core.scheduler.self_s": s.layer("core.scheduler", "self_s"),
        "core.scheduler.calls": s.layer("core.scheduler", "entries"),
        "core.scheduler.pushed": stat("total_pushed"),
        "core.bucket_queue.self_s": s.layer("core.bucket_queue", "self_s"),
        "core.mlmq.self_s": s.layer("core.mlmq", "self_s"),
        "core.block_alloc.self_s": s.layer("core.block_alloc", "self_s"),
        "core.block_alloc.translation_hit_ratio": ratio(hits, hits + misses),
        "core.block_alloc.pool_high_water": max(
            (r.stats["pool_high_water"] for _, r in plain if r is not None), default=0),
        "core.mtb.rotations": stat("rotations"),
        "core.delta_controller.self_s": s.layer("core.delta_controller", "self_s"),
        "core.delta_controller.adjustments": stat("delta_adjustments"),
        "baselines.nf.solve_s": s.span("baselines.nf:solve", "total_s"),
        "trace_overhead": ratio(sum(dt for dt, _ in traced), sum(dt for dt, _ in plain)),
    }
    details = {
        "ops": sweep.ops,
        "spans": len(rec.start),
        "input_sha256": sweep.input_hash,
        "layers": s,
        **sim,
    }
    return ledger, metrics, details

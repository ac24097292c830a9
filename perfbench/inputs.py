"""Pinned graph recipes and the seed-driven inputs drawn over them.

Every workload pins its graph recipes here, so a run's graphs never
depend on the seed; the seed only picks sources, the serve trace and the
update stream.  Each built graph is hashed and checked against
:data:`GRAPH_SHA256`: a changed generator changes what the benchmark
measures, so it stops the run instead of producing figures that no
longer compare with earlier ones.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.oracle import EdgeState

__all__ = [
    "BenchmarkError",
    "GRAPH_SHA256",
    "RECIPES",
    "digest",
    "draw_sources",
    "graph_sha256",
    "make_trace",
    "make_updates",
    "rng_for",
]

#: Recipes: name -> (generator in ``repro.graphs.generators``, params).
RECIPES: Dict[str, Tuple[str, Dict[str, object]]] = {
    # road: high-diameter grids, plain and with 10% diagonal shortcuts
    "road100": ("grid_road", {"width": 100, "height": 100, "seed": 1}),
    "road100d": ("grid_road", {"width": 100, "height": 100,
                               "diagonal_fraction": 0.1, "seed": 2}),
    # mlmq: low diameter, wide frontiers, hub vertices
    "rmat13": ("rmat", {"scale": 13, "edge_factor": 8, "seed": 3}),
    "gnm10k": ("random_gnm", {"n": 10000, "m": 40000, "seed": 4}),
    # serve-mixed: small graphs, so the serving layers are visible
    "road32": ("grid_road", {"width": 32, "height": 32, "seed": 11}),
    "road40d": ("grid_road", {"width": 40, "height": 40,
                              "diagonal_fraction": 0.1, "seed": 12}),
    "rmat10": ("rmat", {"scale": 10, "edge_factor": 8, "seed": 13}),
    "rmat11": ("rmat", {"scale": 11, "edge_factor": 8, "seed": 14}),
}

#: sha256 of each recipe's graph, as :func:`graph_sha256` computes it.
GRAPH_SHA256: Dict[str, str] = {
    "road100": "979d553ff8231174bbaaf38cfc49e9a9f818cb96975bb2b97718bac0d8b933b4",
    "road100d": "673aa3c446fe23158d0520c8cb1d7eb8057100b6e84074537c58808869533ed6",
    "rmat13": "48ee1b0b96eccb5140648fd731182b79b67e12faeddd4fe89547baa6f724e74b",
    "gnm10k": "a8485e2e2c0b95f9e5eed50341da159114a4dd8b8e997ee345b958169907b3c8",
    "road32": "aaef33e4f8660dd8cd0247959a9d5181367741485100702ca8e7ca693f1c3962",
    "road40d": "198c4ced615774c241bc6ea8838e68462177e03551b4c89b59fe0c021718d7e7",
    "rmat10": "3d6ca595a6b62999c6c013961bb6f8e8878dc0fc5c198e08e38e9b95fb96134c",
    "rmat11": "1763d7cfd03bb6abd166b1476cd02b686eb746083f3979d033ab1421857a4bd5",
}

class BenchmarkError(RuntimeError):
    """The benchmark cannot produce valid figures (not a failed op)."""


def rng_for(seed: int, *salt: int) -> np.random.Generator:
    """A generator keyed by the run seed plus a per-use salt, so each
    input stream is independent of how much the others consumed."""
    return np.random.default_rng([int(seed) % (1 << 63), *salt])


def digest(*parts: object) -> str:
    """sha256 over a sequence of arrays, strings and JSON-able values."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(str(p.dtype).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(json.dumps(p, sort_keys=True).encode())
        h.update(b"|")
    return h.hexdigest()


def graph_sha256(row_offsets, col_indices, weights) -> str:
    """Hash of a CSR graph with dtypes normalised, so a storage-dtype
    change alone does not read as an input change."""
    return digest(
        np.asarray(row_offsets, dtype=np.int64),
        np.asarray(col_indices, dtype=np.int64),
        np.asarray(weights, dtype=np.float64),
    )


def draw_sources(pool: np.ndarray, k: int, rng: np.random.Generator) -> List[int]:
    """One source drawn uniformly from each of ``k`` equal strata of
    ``pool``, in the order given.  With the pool ordered by how far a
    solve goes (:func:`perfbench.oracle.by_reach`), every seed's source
    set mixes near and far sources alike, so the figures vary less from
    seed to seed than with ``k`` independent draws."""
    if len(pool) < k:
        raise BenchmarkError(f"need {k} sources from a pool of {len(pool)}")
    return [int(s[rng.integers(len(s))]) for s in np.array_split(np.asarray(pool), k)]


def make_trace(
    graphs: Dict[str, Tuple[int, Sequence[int]]],
    rng: np.random.Generator,
    *,
    rounds: int,
    per_round: int,
    p_hot: float = 0.8,
    p_targets: float = 0.5,
    max_targets: int = 8,
) -> List[List[Tuple[str, int, Optional[Tuple[int, ...]]]]]:
    """A skewed query trace: ``rounds`` rounds of ``per_round`` queries.

    ``graphs`` maps a graph id to ``(vertex count, hot sources)``.  Every
    round gives each graph an equal share of its queries, and within
    each graph's share a fixed count has a hot source, drawn Zipf-skewed
    by rank, and the rest any vertex (the cold tail); a fixed count
    names 1..``max_targets`` explicit targets.  The counts are the
    ``p_hot`` and ``p_targets`` shares, spread over the rounds so that
    their running totals stay rounded to the exact share.  Fixing the
    mix per graph and round keeps the seed from changing how much work
    a round holds (a cold query on the largest graph costs several on
    the smallest); the seed still picks every source, target and order.
    """
    names = sorted(graphs)
    if per_round % len(names):
        raise BenchmarkError(f"{per_round} queries per round do not split over {len(names)} graphs")
    share = per_round // len(names)
    zipf_cdf = {}
    for gid in names:
        zipf = 1.0 / np.arange(1, len(graphs[gid][1]) + 1)
        zipf_cdf[gid] = np.cumsum(zipf / zipf.sum())
    trace = []
    for r in range(rounds):
        n_hot = _quota(p_hot * share, r)
        n_targets = _quota(p_targets * share, r)
        batch = []
        for gid in names:
            n, hot = graphs[gid]
            hot_at = set(rng.permutation(share)[:n_hot].tolist())
            targets_at = set(rng.permutation(share)[:n_targets].tolist())
            for j in range(share):
                if j in hot_at:
                    rank = int(np.searchsorted(zipf_cdf[gid], rng.random(), side="right"))
                    src = int(hot[min(rank, len(hot) - 1)])
                else:
                    src = int(rng.integers(n))
                targets = None
                if j in targets_at:
                    k = int(rng.integers(1, max_targets + 1))
                    targets = tuple(int(t) for t in rng.integers(n, size=k))
                batch.append((gid, src, targets))
        trace.append([batch[i] for i in rng.permutation(len(batch)).tolist()])
    return trace


def _quota(per_round: float, r: int) -> int:
    """Round ``r``'s whole share of ``per_round`` items per round: rounds
    ``0..r`` together get ``per_round * (r + 1)``, rounded."""
    return math.floor(per_round * (r + 1) + 0.5) - math.floor(per_round * r + 0.5)


def make_updates(
    states: Dict[str, EdgeState],
    max_weight: Dict[str, int],
    rng: np.random.Generator,
    *,
    batches: int,
) -> List[Tuple[str, Tuple[Tuple[str, int, int, Optional[float]], ...]]]:
    """An update stream valid when applied in order from ``states``.

    Batch ``i`` goes to graph ``i mod G`` (ids sorted).  Three of every
    four batches per graph change weights only (two increases, two
    decreases); the fourth also inserts and deletes one edge, which
    forces a CSR rebuild and drops that graph's cached answers.  The
    ``states`` are advanced in place.
    """
    names = sorted(states)
    out = []
    for i in range(batches):
        gid = names[i % len(names)]
        st = states[gid]
        mw = max_weight[gid]
        topo = (i // len(names)) % 4 == 3
        kinds = ("increase", "decrease", "insert", "delete") if topo else (
            "increase", "decrease", "increase", "decrease")
        used = set()
        batch = []
        for kind in kinds:
            for _ in range(100):
                if kind == "insert":
                    u, v = (int(x) for x in rng.integers(st.n, size=2))
                    if u == v or (u, v) in st.w or (u, v) in used:
                        continue
                    upd = (kind, u, v, float(rng.integers(1, mw + 1)))
                else:
                    u, v = st.edges[int(rng.integers(len(st.edges)))]
                    w = st.w[(u, v)]
                    if (u, v) in used or (kind == "decrease" and w <= 1):
                        continue
                    if kind == "delete":
                        upd = (kind, u, v, None)
                    elif kind == "increase":
                        upd = (kind, u, v, w + float(rng.integers(1, mw + 1)))
                    else:
                        upd = (kind, u, v, float(rng.integers(1, int(w))))
                used.add((u, v))
                batch.append(upd)
                break
            else:
                raise BenchmarkError(f"no valid {kind} update found on {gid}")
        st.apply(batch)
        out.append((gid, tuple(batch)))
    return out

"""Timing spans around the program's layer entry points.

A traced run patches the public functions of each layer with wrappers
from this file (:class:`Probes`), which record one span per call into a
:class:`SpanRecorder`: the span's name (``"<layer>:<function>"``), its
start and end on ``time.perf_counter``, the span that was open when it
started (its parent, the caller) and the id of the benchmark op it
belongs to.  Spans stay in memory in flat typed arrays and are written
out once, when the run ends.

A layer's **self time** is the time inside its spans minus the time
inside their direct child spans.  Calls run on one thread and nest
strictly, so the children of one span never overlap and their summed
durations are exactly the part of the parent's interval they cover.
"""

from __future__ import annotations

import dataclasses
import functools
import time
import types
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.inputs import BenchmarkError

__all__ = [
    "SMALL_DISPATCH",
    "Probes",
    "SpanRecorder",
    "Summary",
    "layer_of",
    "self_times",
    "summarize",
]

#: A relaxation dispatch of at most this many items takes the kernel's
#: fused scalar path (``k <= 12`` in ``repro.core.wtb``), a wider one
#: the vector path.
SMALL_DISPATCH = 12


def layer_of(name: str) -> str:
    """``"core.scheduler:publish"`` -> ``"core.scheduler"``."""
    return name.split(":", 1)[0]


class SpanRecorder:
    """Append-only span store; ``op`` tags every span opened after it is
    set, so all spans of one benchmark op share that op's id."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span named ``name`` per call; ``after``
        (if given) sees ``(result, args, kwargs)`` of each call."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(i)
            if after is not None:
                after(out, args, kwargs)
            return out

        return wrapper

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_of, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span (plus the name table) as one ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of its direct
    children (``parent`` holds each span's parent index, -1 for roots)."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    return dur - child


class Summary(dict):
    """Per span name, its figures (see :func:`summarize`)."""

    def span(self, name: str, key: str) -> float:
        """``key`` of one span name; 0 if it recorded no call."""
        return self.get(name, {}).get(key, 0.0)

    def layer(self, layer: str, key: str) -> float:
        """``key`` summed over every span name of ``layer``."""
        return sum(v[key] for n, v in self.items() if layer_of(n) == layer)

    def require(self, names) -> None:
        """Stop the run if one of ``names`` recorded no call.

        A name is a span (``"layer:function"``) or a whole layer.  A
        span that never fires would read as zero time, i.e. as a 100%
        gain, when its work has only moved to another layer; so a
        workload names the spans its layers must record, and a missing
        one is a benchmark error, not a figure.
        """
        missing = [
            n for n in names
            if (self.span(n, "count") if ":" in n else self.layer(n, "count")) == 0
        ]
        if missing:
            raise BenchmarkError(
                f"no calls recorded for {', '.join(missing)}: the probes no "
                "longer cover where these layers run"
            )


def summarize(rec: SpanRecorder) -> Summary:
    """Per span name: ``count``, inclusive ``total_s``, ``self_s``, and
    ``entries`` — calls whose caller is in another layer (or is the
    benchmark itself), i.e. crossings of the layer's boundary."""
    a = rec.arrays()
    own = self_times(a["parent"], a["start"], a["end"])
    dur = a["end"] - a["start"]
    layers: Dict[str, int] = {}
    layer_ids = np.array(
        [layers.setdefault(layer_of(n), len(layers)) for n in rec.names] or [0],
        dtype=np.int64,
    )
    span_layer = layer_ids[a["name"]]
    parent_layer = np.where(a["parent"] >= 0, span_layer[a["parent"]], -1)
    entry = (a["parent"] < 0) | (parent_layer != span_layer)
    k = len(rec.names)
    count = np.bincount(a["name"], minlength=k)
    total = np.bincount(a["name"], weights=dur, minlength=k)
    selfs = np.bincount(a["name"], weights=own, minlength=k)
    entries = np.bincount(a["name"], weights=entry, minlength=k)
    return Summary(
        (n, {"count": int(count[i]), "total_s": float(total[i]),
             "self_s": float(selfs[i]), "entries": int(entries[i])})
        for i, n in enumerate(rec.names)
    )


def _own_functions(cls) -> List[str]:
    """Methods defined on ``cls`` itself, minus dunders and minus
    dataclass field defaults that happen to be functions."""
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return [
        n for n, v in vars(cls).items()
        if isinstance(v, types.FunctionType) and not n.startswith("__") and n not in fields
    ]


class Probes:
    """Install span wrappers on the program's layers; restore on exit.

    ``groups`` selects what to wrap: ``"graphs"`` (graph build and
    prepare), ``"sim"`` (the simulated-GPU stack under ADDS), ``"serve"``
    (session, batcher, cache, executor, dynamic) and ``"solvers"``
    (every ``SolverInfo.solve``, named after the solver's layer).
    ``counts`` accumulates the per-call observations the wrappers make
    (items per dispatch, small dispatches, atomic-min winners, plan shapes).

    Wrappers must be installed before a solve starts: the WTB and MTB
    programs and the relaxation kernel bind methods once, at start.
    """

    #: Span layer of each registered solver's ``solve``.
    SOLVER_LAYERS = {"adds": "core.adds", "nf": "baselines.nf",
                     "dijkstra": "baselines.dijkstra"}

    def __init__(self, rec: SpanRecorder, groups: Tuple[str, ...]) -> None:
        self.rec = rec
        self.groups = groups
        self.counts: Counter = Counter()
        self._saved: List[Tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------- #

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_attr(self, owner, attr: str, name: str, after=None) -> None:
        self._patch(owner, attr, self.rec.wrap(getattr(owner, attr), name, after))

    def _wrap_class(self, cls, layer: str) -> None:
        for fn in _own_functions(cls):
            self._wrap_attr(cls, fn, f"{layer}:{fn}")

    def install(self) -> "Probes":
        for group in self.groups:
            getattr(self, f"_install_{group}")()
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Probes":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- groups ------------------------------------------------------------ #

    def _install_graphs(self) -> None:
        from repro.graphs.csr import CSRGraph
        from repro.graphs.suite import GraphSpec

        self._wrap_attr(GraphSpec, "build", "graphs:build")
        self._wrap_attr(CSRGraph, "prepare", "graphs:prepare")

    def _install_solvers(self) -> None:
        from repro.baselines.common import SolverInfo

        rec, inner = self.rec, SolverInfo.solve
        ids = {}

        def solve(info, request):
            nid = ids.get(info.name)
            if nid is None:
                layer = self.SOLVER_LAYERS.get(info.name, f"baselines.{info.name}")
                nid = ids[info.name] = rec.name_id(f"{layer}:solve")
            i = rec.open(nid)
            try:
                return inner(info, request)
            finally:
                rec.close(i)

        self._patch(SolverInfo, "solve", solve)

    def _install_sim(self) -> None:
        import repro.core.adds as adds
        from repro.core.block_alloc import BucketStorage, TranslationCache
        from repro.core.bucket_queue import BucketQueue
        from repro.core.delta_controller import DeltaController
        from repro.core.mlmq import MLMQScheduler
        from repro.core.scheduler import WorkScheduler
        from repro.gpu.device import Device
        from repro.gpu.memory import SimMemory

        counts = self.counts
        self._wrap_attr(Device, "run", "gpu.device:run")

        def on_atomic_min(winners, args, kwargs):
            counts["atomic_min.candidates"] += len(winners)
            counts["atomic_min.winners"] += int(np.count_nonzero(winners))

        self._wrap_attr(SimMemory, "atomic_min_batch",
                        "gpu.memory:atomic_min_batch", on_atomic_min)
        self._wrap_class(WorkScheduler, "core.scheduler")
        self._wrap_class(BucketQueue, "core.bucket_queue")
        self._wrap_class(MLMQScheduler, "core.mlmq")
        self._wrap_class(BucketStorage, "core.block_alloc")
        self._wrap_class(TranslationCache, "core.block_alloc")
        self._wrap_class(DeltaController, "core.delta_controller")

        def on_dispatch(res, args, kwargs):
            # dispatch returns (slot, k, epoch, n_live, edges, ...)
            counts["dispatch.items"] += res[1]
            counts["dispatch.live"] += res[3]
            counts["dispatch.edges"] += res[4]
            if res[1] <= SMALL_DISPATCH:
                counts["dispatch.small"] += 1

        rec, make = self.rec, adds.make_relax_kernel

        def make_relax_kernel(state):
            kernel = make(state)
            kernel.dispatch = rec.wrap(kernel.dispatch, "core.wtb:dispatch", on_dispatch)
            return kernel

        self._patch(adds, "make_relax_kernel", make_relax_kernel)

    def _install_serve(self) -> None:
        import repro.dynamic.frontier as frontier
        import repro.dynamic.updates as updates
        from repro.engine.executor import QueryExecutor
        from repro.serve.batcher import Batcher
        from repro.serve.cache import DistanceCache
        from repro.serve.session import Session

        counts = self.counts
        for fn in ("submit", "serve_pending", "apply_updates"):
            self._wrap_attr(Session, fn, f"serve.session:{fn}")

        def on_plan(res, args, kwargs):
            plans, _expired = res
            counts["plan.plans"] += len(plans)
            counts["plan.sources"] += sum(len(p.sources) for p in plans)
            counts["plan.queries"] += sum(len(p.queries) for p in plans)

        self._wrap_attr(Batcher, "plan", "serve.batcher:plan", on_plan)
        self._wrap_class(DistanceCache, "serve.cache")
        self._wrap_attr(QueryExecutor, "submit", "engine.executor:submit")
        # Session and the solvers import these at call time, so the
        # module attributes are the ones they will find
        self._wrap_attr(updates, "apply_updates", "dynamic:apply_updates")
        self._wrap_attr(frontier, "changes_affect", "dynamic:changes_affect")
        self._wrap_attr(frontier, "incremental_seed", "dynamic:incremental_seed")

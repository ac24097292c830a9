"""§5.1: the worker thread block (WTB) program.

Each WTB loops forever:

1. spin on its **assignment flag** (AF) in scratchpad — "Each idle WTB
   polls its respective AF ... and thus receives work from the MTB
   without contention with other WTBs";
2. on assignment ``(bucket, start, end)``: read the work items, drop
   stale ones (their vertex has improved since the push), expand the rest
   and atomically relax their out-edges on the shared distance array;
3. push every *winning* relaxation as a new work item: compute its band
   under the current Δ, atomically reserve slots (``resv_ptr``), write,
   fence, bump the segment WCCs — the multi-writer half of §5.2.  If the
   reservation outruns the allocated blocks the WTB waits for the MTB's
   allocator to catch up (§5.3: all memory management is the MTB's job);
4. report completion: bump the source bucket's CWC by the full assignment
   size (stale items included — they were assigned work), then clear the
   AF.

The relaxation itself is one vectorized batch priced by the cost model;
its memory effects land when the batch *finishes*, so concurrent WTBs
genuinely race on the distance array and redundant work arises exactly as
it does on hardware.

The relaxation phase (steps 1–2) is the ``dispatch`` closure built by
:func:`make_relax_kernel` once per solve and shared by every worker.
"""

from __future__ import annotations

from bisect import bisect_right
from types import SimpleNamespace

import numpy as np

from repro.graphs.csr import expand_frontier

__all__ = [
    "wtb_program",
    "make_relax_kernel",
    "AF_IDLE",
    "AF_ASSIGNED",
    "AF_STOP",
]

AF_IDLE = 0
AF_ASSIGNED = 1
AF_STOP = 2


def make_relax_kernel(state):
    """The WTB relaxation phase (claim, stale filter, expand, price,
    atomic-min relax) as one ``dispatch(wid)`` closure.

    Returns a namespace whose ``dispatch`` shares one set of per-solve
    hoisted bindings (the int64/float64 CSR twins, the per-vertex
    adjacency cache, the batch price memo) and returns the plain tuple
    ``(slot, k, epoch, n_live, edges, latency, nbytes, new_v, nw)``.
    ``wtb_program`` reads ``dispatch`` off the namespace, so the traced
    benchmark (``perfbench/spans.py``) can wrap it by attribute.
    """
    dev = state.device
    cost = dev.cost
    mem = dev.mem
    q = state.queue
    graph = state.graph
    dist = state.dist
    pred_out = state.pred
    float_weights = state.float_weights
    avg_deg = max(graph.average_degree(), 1.0)
    # Pre-cast CSR view: expand_frontier's output feeds float64 distance
    # math and int64 atomics, so gathering from 64-bit twins of the CSR
    # arrays skips two per-batch ``astype`` copies.  Values are identical
    # (int32→int64 and int32/float32→float64 are exact).
    col64 = state.col64 if state.col64 is not None else graph.col_indices.astype(np.int64)
    w64 = state.w64 if state.w64 is not None else graph.weights.astype(np.float64)
    exp_graph = SimpleNamespace(
        row_offsets=graph.row_offsets, col_indices=col64, weights=w64
    )
    # Hoisted hot-path lookups: dispatch runs once per assignment,
    # tens of thousands of times per solve.
    af_slot_item = state.af_slot.item
    af_start_item = state.af_start.item
    af_end_item = state.af_end.item
    af_epoch_item = state.af_epoch.item
    read_items = q.read_items
    atomic_min_batch = mem.atomic_min_batch
    batch_price = cost.wtb_batch_price
    # Local int-keyed view of the cost model's price memo: avg_deg and
    # float_weights are fixed for the whole solve.
    price_memo: dict = {}
    count_nonzero = np.count_nonzero
    concatenate = np.concatenate
    adj = state.adj
    ro_item = graph.row_offsets.item
    dist_item = dist.item
    # dynamic protocol checker (repro.check); getattr so hand-built test
    # states without the field keep working
    checker = getattr(state, "checker", None)

    def dispatch(wid: int):
        # claim: decode the AF and read the assigned items
        slot = af_slot_item(wid)
        start = af_start_item(wid)
        end = af_end_item(wid)
        epoch = af_epoch_item(wid)
        k = end - start
        if checker is not None:
            # the claim check: what this WTB decoded from its AF must be
            # exactly what the MTB assigned, in the epoch it was made
            checker.on_claim(wid, slot, start, end, epoch)
        verts, pushed = read_items(slot, start, end)
        if adj is not None and k <= 12:
            # Fused scalar path for small chunks (the dominant shape on
            # mesh/road graphs): one pass does the stale check and gathers
            # each live vertex's cached adjacency — the same slices
            # ``expand_frontier`` would take, concatenated in the same
            # order, so the batch below is bit-identical.
            src_parts = []
            dst_parts = []
            w_parts = []
            n_live = 0
            verts_l = verts.tolist()
            pushed_l = pushed.tolist()
            for i in range(k):
                v = verts_l[i]
                # stale check: the pushed distance is current iff the
                # vertex has not improved since (distances only decrease)
                if pushed_l[i] <= dist_item(v):
                    n_live += 1
                    ent = adj[v]
                    if ent is None:
                        s = ro_item(v)
                        e = ro_item(v + 1)
                        sv = np.empty(e - s, dtype=np.int64)
                        sv.fill(v)
                        ent = adj[v] = (sv, col64[s:e], w64[s:e])
                    src_parts.append(ent[0])
                    dst_parts.append(ent[1])
                    w_parts.append(ent[2])
            if n_live:
                srcs = concatenate(src_parts)
                dsts = concatenate(dst_parts)
                ws = concatenate(w_parts)
                edges = int(dsts.size)
            else:
                edges = 0
        else:
            # stale check: the pushed distance is current iff the vertex
            # has not improved since (distances only decrease)
            live = pushed <= dist[verts]
            n_live = int(count_nonzero(live))
            live_verts = verts if n_live == k else verts[live]

            srcs, dsts, ws = expand_frontier(exp_graph, live_verts)
            edges = int(dsts.size)
        priced = price_memo.get(edges)
        if priced is None:
            priced = price_memo[edges] = batch_price(
                edges, avg_deg, float_weights=float_weights
            )
        latency, nbytes = priced
        # Distance updates commit as the batch runs (hardware atomics are
        # visible to concurrently running blocks), so they are applied at
        # dispatch; the *work items* this batch spawns only become visible
        # when the push instructions + WCC increments execute, i.e. after
        # the batch's duration.
        state.work_count += n_live
        nw = 0
        new_v = None
        if edges:
            winners = atomic_min_batch(
                dist, dsts, dist[srcs] + ws, payload=srcs, payload_out=pred_out
            )
            new_v = dsts[winners]
            nw = int(new_v.size)
        return (slot, k, epoch, n_live, edges, latency, nbytes, new_v, nw)

    return SimpleNamespace(dispatch=dispatch)


def wtb_program(state, wid: int, kernel=None):
    """Generator program for worker ``wid`` over the shared solver state.

    ``kernel`` is a shared :func:`make_relax_kernel` namespace (built
    per-worker when omitted, for hand-built test states).
    """
    dev = state.device
    q = state.queue
    dist = state.dist
    af_state = state.af_state
    tracer = dev.tracer
    track = f"WTB{wid}"
    if kernel is None:
        kernel = make_relax_kernel(state)
    dispatch = kernel.dispatch
    assigned = lambda: af_state[wid] != AF_IDLE  # noqa: E731 - hot predicate
    # Wake channel for the assignment flag: the MTB notifies ("af", wid)
    # when it writes this worker's AF, so the engine re-evaluates the
    # predicate O(assignments) times instead of on every event.
    af_key = ("af", wid)
    cap_keys = q.cap_keys
    # Hoisted hot-path lookups: this loop body runs once per assignment,
    # tens of thousands of times per solve.
    trace_on = tracer.enabled
    push_slots = q.push_slots
    reserve = q.reserve
    capacity = q.capacity
    publish = q.publish
    complete = q.complete
    atomic_cycles = dev.cost.atomic_cycles
    af_edges = state.af_edges

    while True:
        yield ("wait", assigned, af_key)
        if af_state[wid] == AF_STOP:
            return

        slot, k, epoch, n_live, edges, latency, nbytes, new_v, nw = dispatch(wid)

        if trace_on:
            dev.annotate(
                "relax_batch", bucket=slot, items=k,
                live=n_live, stale=k - n_live, wins=nw,
            )
        yield ("relax", latency, edges, nbytes)

        # ---- publication at batch completion ---------------------------------
        if nw:
            new_d = dist[new_v]
            slots = push_slots(new_v, new_d)
            push_cost = 0.0
            # group by physical slot, ascending (reserve/publish order is
            # protocol-visible); the stable sort keeps push order within
            # a slot, so each group is a contiguous slice of the sorted
            # batch, cut where the slot changes
            order = slots.argsort(kind="stable")
            sl = slots[order].tolist()
            if sl[0] == sl[-1]:
                # common case: the whole batch lands in one slot
                groups = ((sl[0], new_v, new_d),)
            else:
                new_v = new_v[order]
                new_d = new_d[order]
                groups = []
                a = 0
                while a < nw:
                    b = bisect_right(sl, sl[a], a)
                    groups.append((sl[a], new_v[a:b], new_d[a:b]))
                    a = b
            for s, vs, ds in groups:
                kk = int(vs.size)
                idx0 = reserve(s, kk)
                if capacity(s) < idx0 + kk:
                    # block not allocated yet: wait for the MTB
                    # (bind loop variables via defaults)
                    if trace_on:
                        tracer.instant(
                            track, "alloc_wait", dev.now_us, cat="alloc",
                            bucket=s, need=idx0 + kk,
                            capacity=capacity(s),
                        )
                    yield (
                        "wait",
                        lambda s=s, need=idx0 + kk: capacity(s) >= need,
                        cap_keys[s],
                    )
                segs = publish(s, idx0, vs, ds)
                push_cost += atomic_cycles * (1 + segs) + 4.0 * kk
            yield ("busy", push_cost)

        complete(slot, k, epoch)
        state.outstanding_edges -= af_edges.item(wid)
        af_edges[wid] = 0.0
        af_state[wid] = AF_IDLE
        if trace_on:
            tracer.instant(
                track, "wtb_complete", dev.now_us, cat="wtb",
                bucket=slot, items=k,
            )

"""The independent oracle: scipy's Dijkstra on a matrix this file builds.

Nothing here imports the program under test.  The oracle sees a graph
only as plain edge arrays ``(src, dst, weight)``: for a generated graph
the benchmark reads them off the CSR arrays, and for the serve workload
it keeps its own edge copy (:class:`EdgeState`) and applies every update
batch to that copy itself.

``scipy.sparse.csr_matrix`` *sums* duplicate entries, which would turn
two parallel edges of weights 3 and 5 into one edge of weight 8, so the
builder keeps only the minimum-weight copy of each ``(src, dst)`` pair
before the matrix is formed.  Distances are float64 sums along paths, so
they are bit-comparable with the program's float64 distance arrays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

__all__ = [
    "EdgeState",
    "by_reach",
    "csr_edges",
    "distances",
    "largest_scc",
    "min_edge_matrix",
]


def csr_edges(row_offsets, col_indices, weights) -> Tuple[np.ndarray, ...]:
    """``(src, dst, weight)`` arrays of a CSR adjacency."""
    ro = np.asarray(row_offsets, dtype=np.int64)
    n = ro.size - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(ro))
    return src, np.asarray(col_indices, dtype=np.int64), np.asarray(
        weights, dtype=np.float64
    )


def min_edge_matrix(n: int, src, dst, w) -> csr_matrix:
    """An ``n × n`` CSR matrix holding the minimum weight of each edge.

    csgraph reads a stored zero as a zero-weight edge only while it stays
    stored, and any sparse cleanup drops it, so zero weights are refused
    instead of depending on that; the workloads' weights are all >= 1.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    if w.size and not (w > 0).all():
        raise ValueError("the oracle needs strictly positive edge weights")
    key = src * n + dst
    order = np.lexsort((w, key))  # by edge, then lightest copy first
    first = np.ones(order.size, dtype=bool)
    first[1:] = key[order][1:] != key[order][:-1]
    keep = order[first]
    return csr_matrix((w[keep], (src[keep], dst[keep])), shape=(n, n))


def distances(matrix: csr_matrix, source: int) -> np.ndarray:
    """float64 shortest-path distances from ``source`` (``inf`` if
    unreachable)."""
    return dijkstra(matrix, directed=True, indices=int(source))


def largest_scc(matrix: csr_matrix) -> np.ndarray:
    """Sorted vertex ids of the largest strongly connected component:
    every member reaches every other, so each is a source whose solve
    covers the same large reachable set."""
    _, labels = connected_components(matrix, directed=True, connection="strong")
    return np.flatnonzero(labels == np.bincount(labels).argmax())


#: landmarks :func:`by_reach` measures distances to
LANDMARKS = 4


def by_reach(matrix: csr_matrix, scc: np.ndarray) -> np.ndarray:
    """The vertices of the strongly connected component ``scc``, ordered
    by how far a solve from each has to go.

    The measure is a vertex's longest distance to :data:`LANDMARKS` vertices
    picked by farthest-point traversal from ``scc[0]``, a cheap stand-in
    for its eccentricity: on a grid, a corner's solve runs about twice
    as far as the centre's.  Drawing one source per stratum of this
    order gives every seed the same mix of near and far sources.
    """
    scc = np.asarray(scc)
    reverse = matrix.T.tocsr()
    to_marks = []  # per landmark, distance from each scc vertex to it
    mark = int(scc[0])
    for _ in range(LANDMARKS):
        to_marks.append(dijkstra(reverse, directed=True, indices=mark)[scc])
        mark = int(scc[np.argmax(np.min(to_marks, axis=0))])
    reach = np.max(to_marks, axis=0)
    return scc[np.lexsort((scc, reach))]


class EdgeState:
    """The benchmark's own mutable copy of a graph's edges.

    Applies ``(kind, src, dst, weight)`` updates with the semantics the
    serve workload promises its callers: ``increase``/``decrease`` set a
    strictly higher/lower weight on an existing edge, ``insert`` adds a
    missing edge and ``delete`` removes one.  A violation raises
    ``ValueError``; the generator never produces one.
    """

    def __init__(self, n: int, src, dst, w) -> None:
        self.n = int(n)
        self.w: Dict[Tuple[int, int], float] = {}
        # (src, dst) pairs in a list + position map: O(1) uniform draws
        # of an existing edge and O(1) removal by swap-with-last
        self.edges: List[Tuple[int, int]] = []
        self._pos: Dict[Tuple[int, int], int] = {}
        for u, v, x in zip(np.asarray(src).tolist(), np.asarray(dst).tolist(),
                           np.asarray(w, dtype=np.float64).tolist()):
            if (u, v) in self.w:
                raise ValueError(f"parallel edge ({u}, {v}) in the input")
            self._add(u, v, x)
        self._matrix: Optional[csr_matrix] = None

    def _add(self, u: int, v: int, x: float) -> None:
        self.w[(u, v)] = x
        self._pos[(u, v)] = len(self.edges)
        self.edges.append((u, v))

    def _remove(self, u: int, v: int) -> None:
        del self.w[(u, v)]
        i = self._pos.pop((u, v))
        last = self.edges.pop()
        if last != (u, v):
            self.edges[i] = last
            self._pos[last] = i

    def apply(self, batch: Sequence[Tuple[str, int, int, Optional[float]]]) -> None:
        """Apply one batch, update by update, in order."""
        for kind, u, v, x in batch:
            old = self.w.get((u, v))
            if kind == "insert" and old is None and u != v:
                self._add(u, v, float(x))
            elif kind == "delete" and old is not None:
                self._remove(u, v)
            elif kind == "increase" and old is not None and x > old:
                self.w[(u, v)] = float(x)
            elif kind == "decrease" and old is not None and x < old:
                self.w[(u, v)] = float(x)
            else:
                raise ValueError(f"invalid update {kind} ({u}, {v}, {x})")
        self._matrix = None

    def matrix(self) -> csr_matrix:
        """The oracle matrix of the current edge set (built once per
        state)."""
        if self._matrix is None:
            if self.edges:
                uv = np.asarray(self.edges, dtype=np.int64)
                w = np.fromiter((self.w[e] for e in self.edges), dtype=np.float64,
                                count=len(self.edges))
                self._matrix = min_edge_matrix(self.n, uv[:, 0], uv[:, 1], w)
            else:
                self._matrix = csr_matrix((self.n, self.n), dtype=np.float64)
        return self._matrix

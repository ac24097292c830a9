import numpy as np
import pytest

from perfbench import oracle


def test_parallel_edges_keep_the_lightest_copy():
    # 0 -> 1 three times (5, 2, 9), 1 -> 2 once; csr_matrix alone would
    # sum the copies into one edge of weight 16
    m = oracle.min_edge_matrix(3, [0, 0, 0, 1], [1, 1, 1, 2], [5.0, 2.0, 9.0, 4.0])
    assert m[0, 1] == 2.0
    assert oracle.distances(m, 0).tolist() == [0.0, 2.0, 6.0]


def test_unreachable_vertices_are_infinite():
    m = oracle.min_edge_matrix(4, [0, 2], [1, 3], [1.0, 1.0])
    d = oracle.distances(m, 0)
    assert d[0] == 0.0 and d[1] == 1.0
    assert np.isinf(d[2]) and np.isinf(d[3])


def test_zero_weights_are_refused():
    with pytest.raises(ValueError):
        oracle.min_edge_matrix(2, [0], [1], [0.0])


def test_bit_equal_to_the_program_with_parallel_edges():
    from repro.baselines.common import SolveRequest, get_solver_info
    from repro.graphs import from_edge_list

    rng = np.random.default_rng(5)
    n, m = 60, 400
    edges = np.stack([rng.integers(n, size=m), rng.integers(n, size=m),
                      rng.integers(1, 50, size=m)], axis=1)
    edges = edges[edges[:, 0] != edges[:, 1]]
    edges = np.concatenate([edges, edges[:40] + [0, 0, 7]])  # heavier twins
    g = from_edge_list(n, edges)
    mat = oracle.min_edge_matrix(n, *oracle.csr_edges(g.row_offsets, g.col_indices, g.weights))
    for solver in ("adds", "nf", "dijkstra"):
        for s in (0, 17):
            got = get_solver_info(solver).solve(SolveRequest(graph=g, source=s)).dist
            assert np.array_equal(got, oracle.distances(mat, s)), (solver, s)


def test_largest_scc():
    # 0 <-> 1 <-> 2 is one component, 3 -> 0 and 4 alone are not
    m = oracle.min_edge_matrix(5, [0, 1, 1, 2, 3], [1, 0, 2, 1, 0], [1.0] * 5)
    assert oracle.largest_scc(m).tolist() == [0, 1, 2]


def test_by_reach_puts_the_middle_of_a_path_first_and_its_ends_last():
    n = 9  # 0 <-> 1 <-> ... <-> 8
    src = list(range(n - 1)) + list(range(1, n))
    dst = list(range(1, n)) + list(range(n - 1))
    m = oracle.min_edge_matrix(n, src, dst, [1.0] * len(src))
    order = oracle.by_reach(m, oracle.largest_scc(m)).tolist()
    assert order[0] == 4 and set(order[-2:]) == {0, 8}
    assert sorted(order) == list(range(n))


def test_edge_state_applies_all_four_kinds():
    st = oracle.EdgeState(3, [0, 1], [1, 2], [5.0, 5.0])
    st.apply([("increase", 0, 1, 7.0), ("decrease", 1, 2, 1.0),
              ("insert", 2, 0, 3.0), ("delete", 0, 1, None)])
    assert st.w == {(1, 2): 1.0, (2, 0): 3.0}
    assert sorted(st.edges) == [(1, 2), (2, 0)]
    assert oracle.distances(st.matrix(), 1).tolist() == [4.0, 0.0, 1.0]


@pytest.mark.parametrize("bad", [
    ("increase", 0, 1, 5.0),   # not strictly higher
    ("decrease", 0, 1, 6.0),   # not strictly lower
    ("insert", 0, 1, 2.0),     # already there
    ("delete", 1, 0, None),    # not there
])
def test_edge_state_rejects_invalid_updates(bad):
    st = oracle.EdgeState(2, [0], [1], [5.0])
    with pytest.raises(ValueError):
        st.apply([bad])


def test_edge_state_rejects_parallel_input_edges():
    with pytest.raises(ValueError):
        oracle.EdgeState(2, [0, 0], [1, 1], [1.0, 2.0])

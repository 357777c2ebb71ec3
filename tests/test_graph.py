import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import cactusrank as cr

from .helpers import (apply_firing, cycle_graph, edge_orders, grows_late, index_divisor,
                      is_effective, k4, laplacian_row, path_graph, random_cactus)


def test_multigraph_basic():
    g = cr.Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.n == 3
    assert g.degrees == (2, 2, 2)
    assert g.adjacency[0] == {1: 1, 2: 1}
    assert g.is_connected()


def test_multigraph_parallel_edges_counted():
    g = cr.Multigraph(2, [(0, 1), (1, 0)])
    assert g.degrees == (2, 2)
    assert g.adjacency[0][1] == 2


def test_multigraph_rejects_loops():
    with pytest.raises(cr.GraphError):
        cr.Multigraph(2, [(0, 0)])


def test_multigraph_rejects_out_of_range():
    with pytest.raises(cr.GraphError):
        cr.Multigraph(2, [(0, 2)])
    with pytest.raises(cr.GraphError):
        cr.Multigraph(0, [])


def test_multigraph_rejects_non_integer_endpoints():
    # a GraphError, not a TypeError or an unpacking ValueError
    for e in ((0, 1.0), (0, "1"), (0, 1, 2), (0,)):
        with pytest.raises(cr.GraphError, match="not a pair of integer vertex ids"):
            cr.Multigraph(3, [e])
    # other integer types stay vertex ids
    assert cr.Multigraph(3, [(False, True), (1, 2)]).edges == ((0, 1), (1, 2))


def test_multigraph_vertex_count_is_an_index():
    # read as the endpoints are, and stored as a plain int
    np = pytest.importorskip("numpy")
    g = cr.Multigraph(np.int64(3), [(0, 1), (1, 2)])
    assert type(g.n) is int and g.n == 3 and g.is_connected()
    g = cr.Multigraph(True, [])
    assert type(g.n) is int and repr(g) == "Multigraph(n=1, m=0)"
    for n in (3.0, "3", None, False, 2 ** 31):
        with pytest.raises(cr.GraphError, match=r"vertex count must be an integer in 1\.\.2147483647"):
            cr.Multigraph(n, [])


def test_multigraph_eq_ignores_edge_orientation_and_order():
    a = cr.Multigraph(3, [(0, 1), (1, 2)])
    b = cr.Multigraph(3, [(2, 1), (0, 1)])
    assert a == b
    assert a != cr.Multigraph(3, [(0, 1), (0, 2)])


def test_disconnected_detected():
    g = cr.Multigraph(2, [])
    assert not g.is_connected()
    with pytest.raises(cr.DisconnectedGraphError):
        cr.genus(g)


def _reaches_all(g):
    seen = {0}
    stack = [0]
    while stack:
        for y in g.adjacency[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == g.n


def test_is_connected_agrees_with_reachability():
    # random multigraphs with parallel edges, and cacti alone or two side by
    # side, relabelled, in stored, shuffled and reversed edge order: where an
    # edge has neither end reached, the tree grows over half-edge lists,
    # which must reach what a plain search over the adjacency reaches
    rng = random.Random(2911)
    kinds = Counter()
    for _ in range(1000):
        if rng.random() < 0.5:
            parts = [random_cactus(rng, max_n=7, max_genus=3, max_cycle_len=4)
                     for _ in range(rng.randint(1, 2))]
            n = sum(p.n for p in parts)
            edges = [(u + parts[0].n, v + parts[0].n) for p in parts[1:] for u, v in p.edges]
            edges += parts[0].edges
        else:
            n = rng.randint(2, 14)
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
            edges += rng.choices(edges, k=rng.randint(0, 3)) if edges else []
        label = rng.sample(range(n), n)
        g = cr.Multigraph(n, [(label[u], label[v]) for u, v in edges])
        want = _reaches_all(g)
        for h in edge_orders(rng, g):
            assert h.is_connected() == want, (h.n, h.edges)
            kinds[want, grows_late(h)] += 1
    assert min(kinds.values()) >= 200, kinds


def test_genus_values():
    assert cr.genus(path_graph(5)) == 0
    assert cr.genus(cycle_graph(3)) == 1
    assert cr.genus(cycle_graph(2)) == 1
    assert cr.genus(k4()) == 3


def test_divisor_arithmetic():
    a = cr.Divisor([1, -2, 3])
    b = cr.Divisor([0, 1, 1])
    assert (a + b) == cr.Divisor([1, -1, 4])
    assert (a - b) == cr.Divisor([1, -3, 2])
    assert (-a) == cr.Divisor([-1, 2, -3])
    assert a.degree == 2
    assert not is_effective(a)
    assert is_effective(b)
    for op in (a.__add__, a.__sub__):
        with pytest.raises(cr.GraphError, match="divisor length mismatch"):
            op(cr.Divisor([1, 2]))


def test_index_divisor():
    e = index_divisor(4, 2)
    assert tuple(e) == (0, 0, 1, 0)
    assert e.degree == 1


def test_vertex_arguments_out_of_range():
    g = cycle_graph(3)
    for call in (lambda: index_divisor(3, 3), lambda: index_divisor(3, -1),
                 lambda: laplacian_row(g, 3), lambda: laplacian_row(g, -1)):
        with pytest.raises(cr.GraphError, match="out of range"):
            call()
    f = [0, 0, 0]
    for v in (1.5, "1"):
        for call in (lambda v: index_divisor(3, v), lambda v: laplacian_row(g, v),
                     lambda v: cr.q_reduce(g, f, v)):
            with pytest.raises(cr.GraphError, match="is not an integer"):
                call(v)
    for q in (3, -1):
        with pytest.raises(cr.GraphError, match="out of range"):
            cr.q_reduce(g, f, q)
    np = pytest.importorskip("numpy")
    one = np.int64(1)
    assert index_divisor(3, one) == (0, 1, 0)
    assert laplacian_row(g, one) == (-1, 2, -1)
    assert cr.q_reduce(g, [1, 0, 0], one) == ((1, 0, 0), 1)


def test_apply_firing_length_mismatch():
    g = cycle_graph(3)
    for f, x in (([0, 0], [0, 0, 0]), ([0, 0, 0], [1, 1]), ([0] * 4, [0] * 4)):
        with pytest.raises(cr.GraphError, match="length mismatch"):
            apply_firing(g, f, x)
    for f, x in (([1, 0, 0], [0.5, 0, 0]), ([0.5, 0, 0], [1, 0, 0]),
                 ([1, 0, 0], [Fraction(1, 2), 0, 0]), ([Fraction(1, 2), 0, 0], [0, 0, 0])):
        with pytest.raises(cr.GraphError, match="divisor entries must be integers"):
            apply_firing(g, f, x)


def test_multigraph_eq_other_types_and_sizes():
    g = cycle_graph(3)
    assert g != "graph" and g != g.edges
    assert g.__eq__(g.edges) is NotImplemented
    assert cr.Multigraph(3, [(0, 1)]) != cr.Multigraph(4, [(0, 1)])


def test_laplacian_rows():
    g = cycle_graph(3)
    assert laplacian_row(g, 0) == (2, -1, -1)
    p = path_graph(3)
    assert laplacian_row(p, 1) == (-1, 2, -1)


def test_apply_firing_single_vertex_fires():
    # x[v] = -1 sends one chip along each incident edge away from v
    g = cycle_graph(3)
    f = cr.Divisor([1, -2, 1])
    out = apply_firing(g, f, [-1, 0, 0])
    assert tuple(out) == (-1, -1, 2)


def test_apply_firing_uniform_is_identity():
    g = k4()
    f = cr.Divisor([3, 0, -1, 2])
    assert apply_firing(g, f, [5, 5, 5, 5]) == f


def test_canonical_divisor():
    assert tuple(cr.canonical_divisor(cycle_graph(4))) == (0, 0, 0, 0)
    assert tuple(cr.canonical_divisor(path_graph(3))) == (-1, 0, -1)
    assert tuple(cr.canonical_divisor(k4())) == (1, 1, 1, 1)
    g = cycle_graph(5)
    assert cr.canonical_divisor(g).degree == 2 * cr.genus(g) - 2


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                min_size=1,
                max_size=12,
            ),
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        )
    )
)
def test_firing_preserves_degree(data):
    n, edges, fvals, x = data
    g = cr.Multigraph(n, edges)
    f = cr.Divisor(fvals)
    assert apply_firing(g, f, x).degree == f.degree

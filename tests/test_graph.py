from __future__ import annotations

import io

import pytest
from hypothesis import given, strategies as st

from domlab import (
    Graph,
    GraphFormatError,
    closed_neighborhood,
    delete_closed_neighborhood,
    heavy_vertices,
    load_graph,
    save_graph,
)

from .conftest import complete_graph, cycle_graph, path_graph, random_graph, star_graph


def test_load_edgelist_basic():
    G = load_graph(b"3 2\n0 1\n1 2")
    assert (G.n, G.m) == (3, 2)
    assert list(G.edges()) == [(0, 1), (1, 2)]


def test_load_edgelist_dedups_reversed_lines():
    G = load_graph(b"3 3\n0 1\n1 0\n1 2")
    assert G.m == 2


def test_load_edgelist_rejects_self_loop():
    with pytest.raises(GraphFormatError):
        load_graph(b"2 1\n0 0")


def test_load_edgelist_rejects_out_of_range():
    with pytest.raises(GraphFormatError):
        load_graph(b"2 1\n0 5")


def test_load_edgelist_comments_and_blank_lines():
    G = load_graph(b"# header comment\n3 2\n\n0 1  # edge\n1 2\n")
    assert G.m == 2


def test_load_dimacs_shifts_to_zero_indexed():
    G = load_graph(b"c comment\np edge 3 2\ne 1 2\ne 2 3", fmt="dimacs")
    assert list(G.edges()) == [(0, 1), (1, 2)]


def test_save_load_round_trip_edgelist():
    G = random_graph(11, 9, 0.4)
    assert load_graph(save_graph(G).encode()) == G


def test_load_dimacs_bad_header_count_names_line():
    with pytest.raises(GraphFormatError, match="line 2"):
        load_graph(b"c comment\np edge x 1\n", fmt="dimacs")


def test_load_edgelist_rejects_wrong_edge_count():
    with pytest.raises(GraphFormatError, match="line 1: header declares 2 edges, found 1"):
        load_graph(b"3 2\n0 1")
    with pytest.raises(GraphFormatError, match="line 2: header declares 1 edges, found 2"):
        load_graph(b"# c\n3 1\n0 1\n1 2")


def test_load_dimacs_rejects_wrong_edge_count():
    with pytest.raises(GraphFormatError, match="line 2: header declares 5 edges, found 1"):
        load_graph(b"c comment\np edge 3 5\ne 1 2", fmt="dimacs")
    with pytest.raises(GraphFormatError, match="line 1: header declares 0 edges, found 1"):
        load_graph(b"p edge 3 0\ne 1 2", fmt="dimacs")


def test_load_dimacs_non_integer_edge_count_names_line():
    with pytest.raises(GraphFormatError, match="line 2"):
        load_graph(b"c comment\np edge 3 x\ne 1 2", fmt="dimacs")


def test_save_load_round_trip_dimacs():
    G = random_graph(12, 8, 0.5)
    text = save_graph(G, fmt="dimacs")
    assert load_graph(text.encode(), fmt="dimacs") == G


def test_save_to_stream():
    buf = io.StringIO()
    save_graph(path_graph(3), buf)
    assert buf.getvalue() == "3 2\n0 1\n1 2\n"


def test_closed_neighborhood_cycle():
    assert closed_neighborhood(cycle_graph(5), 0) == (0, 1, 4)


def test_closed_neighborhood_isolated_vertex():
    assert closed_neighborhood(Graph(3, []), 1) == (1,)


def test_closed_neighborhood_complete():
    assert closed_neighborhood(complete_graph(4), 2) == (0, 1, 2, 3)


def test_heavy_vertices_star():
    # center deg*=5 >= 5/2, leaves deg*=2 < 5/2
    assert heavy_vertices(star_graph(4), 2) == (0,)


def test_heavy_vertices_complete():
    assert heavy_vertices(complete_graph(3), 3) == (0, 1, 2)


def test_heavy_vertices_edgeless():
    assert heavy_vertices(Graph(4, []), 2) == ()


def test_heavy_threshold_is_exact_at_boundary():
    # P3 with k=3: deg*(leaf)=2, threshold n/k=1, everything qualifies;
    # with k=1 only a universal closed neighborhood would
    assert heavy_vertices(path_graph(3), 3) == (0, 1, 2)
    assert heavy_vertices(path_graph(3), 1) == (1,)


def test_delete_closed_neighborhood_path():
    sub, id_map = delete_closed_neighborhood(path_graph(4), 1)
    assert sub.n == 1 and sub.m == 0
    assert id_map == (3,)


def test_delete_closed_neighborhood_complete():
    sub, id_map = delete_closed_neighborhood(complete_graph(4), 2)
    assert sub.n == 0 and id_map == ()


def test_delete_closed_neighborhood_cycle():
    sub, id_map = delete_closed_neighborhood(cycle_graph(5), 0)
    assert id_map == (2, 3)
    assert list(sub.edges()) == [(0, 1)]


@given(st.integers(0, 400), st.integers(2, 12), st.floats(0.0, 1.0))
def test_degstar_sum_identity(seed, n, p):
    G = random_graph(seed, n, p)
    assert sum(G.degstar(v) for v in range(n)) == n + 2 * G.m


@given(st.integers(0, 400), st.integers(2, 12), st.integers(1, 5))
def test_heavy_count_bound(seed, n, k):
    G = random_graph(seed, n, 0.3)
    # |H| * (n/k) <= n + 2m, compared without division
    assert len(heavy_vertices(G, k)) * n <= (n + 2 * G.m) * k


@given(st.integers(0, 400), st.integers(2, 10))
def test_delete_preserves_adjacency(seed, n):
    G = random_graph(seed, n, 0.4)
    sub, id_map = delete_closed_neighborhood(G, 0)
    for u in range(sub.n):
        for w in range(u + 1, sub.n):
            assert sub.has_edge(u, w) == G.has_edge(id_map[u], id_map[w])


@given(st.integers(0, 400), st.integers(1, 10), st.floats(0.0, 1.0))
def test_roundtrip_random(seed, n, p):
    G = random_graph(seed, n, p)
    assert load_graph(save_graph(G).encode()) == G

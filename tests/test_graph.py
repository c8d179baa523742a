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
from domlab.graph import MAX_VERTICES

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


def test_load_edgelist_rejects_oversized_header():
    with pytest.raises(GraphFormatError, match="line 1: header declares 4000000000 vertices"):
        load_graph(b"4000000000 0")
    # raised at the header, before any later line is read
    with pytest.raises(GraphFormatError, match="line 2: header declares 4000000000 vertices"):
        load_graph(b"# big\n4000000000 1\n0 x")
    with pytest.raises(GraphFormatError, match="line 1: header declares"):
        load_graph(f"{MAX_VERTICES + 1} 0".encode())


def test_load_dimacs_rejects_oversized_header():
    with pytest.raises(GraphFormatError, match="line 2: header declares 4000000000 vertices"):
        load_graph(b"c comment\np edge 4000000000 0\n", fmt="dimacs")


def test_load_edgelist_bulk_and_line_paths_agree():
    plain = b"4 3\n0 1\n\n2 3\n1 2\n"
    commented = b"4 3 # header\n0 1\n# gap\n2 3  # edge\n1 2\n"
    assert load_graph(plain) == load_graph(commented) == Graph(4, [(0, 1), (1, 2), (2, 3)])


def test_load_edgelist_names_first_bad_line():
    with pytest.raises(GraphFormatError, match="line 3: expected edge 'u v'"):
        load_graph(b"3 2\n0 1\n1 2 0\nx y")
    with pytest.raises(GraphFormatError, match="line 3: not integers"):
        load_graph(b"3 2\n0 1\nx y\n1 2 0")


def test_first_bad_edge_in_input_order():
    with pytest.raises(GraphFormatError, match="self-loop at vertex 1"):
        load_graph(b"3 2\n1 1\n0 9")
    with pytest.raises(GraphFormatError, match=r"edge \(0,9\) out of range"):
        Graph(3, [(0, 9), (1, 1)])


def test_graph_normalises_edge_order_direction_and_repeats():
    G = Graph(5, [(3, 1), (0, 4), (1, 3), (4, 0), (2, 1)])
    assert G == Graph(5, [(0, 4), (1, 2), (1, 3)])
    assert G == load_graph(b"5 5\n3 1\n0 4\n1 3\n4 0\n2 1")
    assert G.offsets == (0, 1, 3, 4, 5, 6)
    assert G.neighbors == (4, 2, 3, 1, 1, 0)


def test_neighbor_mask_built_once_per_vertex(monkeypatch):
    G = cycle_graph(6)
    built = []
    original = Graph._build_mask
    monkeypatch.setattr(Graph, "_build_mask", lambda self, v: built.append(v) or original(self, v))
    assert G.neighbor_mask(2) == 0b1010
    assert G.closed_mask(2) == 0b1110 and G.has_edge(2, 3) and not G.has_edge(2, 4)
    assert built == [2]
    with pytest.raises(IndexError):
        G.neighbor_mask(6)


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

from __future__ import annotations

import gc
import io
import random
import re

import pytest
from hypothesis import example, given, strategies as st

from domlab import (
    Graph,
    GraphFormatError,
    load_graph,
    save_graph,
)
from domlab import graph
from domlab.graph import MAX_VERTICES, delete_closed_neighborhood, heavy_vertices

from .conftest import (complete_graph, cycle_graph, dimacs_text, path_graph, random_graph,
                       star_graph)


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
    G = load_graph(b"c comment\np edge 3 2\ne 1 2\ne 2 3")
    assert list(G.edges()) == [(0, 1), (1, 2)]


def test_load_reads_the_format_from_the_first_significant_line():
    # blank and '#' comment lines are skipped; a letter first means DIMACS
    G = load_graph(b"\n  \n  c a comment\np edge 3 1\ne 1 2\n")
    assert (G.n, list(G.edges())) == (3, [(0, 1)])
    assert load_graph(b"# c\r\n\t3 1\r\n0 1\r\n") == G


def test_save_load_round_trip_edgelist():
    G = random_graph(11, 9, 0.4)
    assert load_graph(save_graph(G).encode()) == G


def test_load_dimacs_bad_header_count_names_line():
    with pytest.raises(GraphFormatError, match="line 2"):
        load_graph(b"c comment\np edge x 1\n")


def test_load_edgelist_rejects_wrong_edge_count():
    with pytest.raises(GraphFormatError, match="line 1: header declares 2 edges, found 1"):
        load_graph(b"3 2\n0 1")
    with pytest.raises(GraphFormatError, match="line 2: header declares 1 edges, found 2"):
        load_graph(b"# c\n3 1\n0 1\n1 2")


def test_load_dimacs_rejects_wrong_edge_count():
    with pytest.raises(GraphFormatError, match="line 2: header declares 5 edges, found 1"):
        load_graph(b"c comment\np edge 3 5\ne 1 2")
    with pytest.raises(GraphFormatError, match="line 1: header declares 0 edges, found 1"):
        load_graph(b"p edge 3 0\ne 1 2")


@pytest.mark.parametrize("line, message", [
    ("e 0 1", "line 3: edge (0,1) out of range 1..3"),
    ("e 1 4", "line 3: edge (1,4) out of range 1..3"),
    ("e 2 2", "line 3: self-loop at vertex 2"),
])
def test_load_dimacs_bad_edge_names_line_and_ids_as_written(line, message):
    text = f"c comment\np edge 3 2\n{line}\ne 1 2\n"
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        load_graph(text.encode())


def test_load_dimacs_rejects_a_second_problem_line():
    # the second header must not replace the first (n = 5 here)
    with pytest.raises(GraphFormatError, match="^line 3: second problem line, the first is line 1"):
        load_graph(b"p edge 3 1\ne 1 2\np edge 5 1\n")


@pytest.mark.parametrize("text, message", [
    ("p col 3 1\ne 1 2\n", "line 1: bad problem line: 'p col 3 1'"),
    ("c comment\ne 1 2\np edge 3 1\n", "line 2: edge before 'p edge' header"),
    ("p edge 3 1\ne 1\n", "line 2: expected 'e u v'"),
    ("p edge 3 1\ne 1 x\n", "line 2: not integers: 'e 1 x'"),
    ("p edge 3 1\na 1 2\n", "line 2: unrecognized line: 'a 1 2'"),
    ("c only a comment\n", "missing 'p edge n m' header"),
])
def test_load_dimacs_malformed_line_messages(text, message):
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        load_graph(text.encode())


def test_load_edgelist_header_with_an_empty_token_is_read_by_lines():
    # " 5" passes the bulk reader's digit check but splits into an empty
    # token, so the line reader reports it
    with pytest.raises(GraphFormatError, match="^line 1: expected header 'n m'$"):
        load_graph(b" 5\n")


def test_load_dimacs_non_integer_edge_count_names_line():
    with pytest.raises(GraphFormatError, match="line 2"):
        load_graph(b"c comment\np edge 3 x\ne 1 2")


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
        load_graph(b"c comment\np edge 4000000000 0\n")


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
    assert G.adj == [[4], [2, 3], [1], [1], [0]]
    assert G.m == 3


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
    assert load_graph(dimacs_text(G).encode()) == G


def test_save_to_stream():
    buf = io.StringIO()
    save_graph(path_graph(3), buf)
    assert buf.getvalue() == "3 2\n0 1\n1 2\n"


def test_closed_neighborhood_cycle():
    assert cycle_graph(5).closed_mask(0) == 0b10011


def test_closed_neighborhood_isolated_vertex():
    assert Graph(3, []).closed_mask(1) == 0b010


def test_closed_neighborhood_complete():
    assert complete_graph(4).closed_mask(2) == 0b1111


@given(st.integers(0, 3000), st.floats(0, 1), st.integers(0, 2**16), st.booleans())
@example(0, 1.0, 0, True)  # width 0: no index
@example(1, 1.0, 0, False)  # the one index 0
@example(15, 1.0, 0, False)  # 15 indices: the sum
@example(16, 1.0, 0, False)  # 16 dense indices: the digit buffer
@example(3000, 0.0, 0, True)  # the one index width - 1
@example(3000, 0.02, 1, True)  # 68 sparse indices: the sum
@example(3000, 0.06, 1, True)  # 201 sparse indices: the digit buffer
def test_index_mask_is_the_sum_of_its_bits(width, density, seed, top):
    rng = random.Random(seed)
    indices = [i for i in range(width) if rng.random() < density or top and i == width - 1]
    assert graph._index_mask(indices) == sum(1 << i for i in indices)


def _spread(d, w):
    """d distinct indices below w, ascending, the last one w - 1."""
    return sorted(random.Random(31 * w + d).sample(range(w - 1), d - 1)) + [w - 1]


# (d, w): the table's last slot and one past it, at and past its degree
# bound; the 16, 32·d and 4096 bounds of the sum and the digit buffer
_MASK_EDGES = [(1, 256), (1, 257), (47, 256), (47, 257), (48, 256), (48, 257),
               (15, 5000), (16, 511), (16, 512), (16, 513), (20, 640), (20, 641),
               (127, 4064), (127, 4065), (127, 4097), (128, 4096), (128, 5000), (129, 10_000)]
_MASK_GRID = [(d, w) for w in (1, 2, 47, 48, 64, 128, 200, 255, 256, 257, 300, 512, 1024)
              for d in (1, 2, 8, 16, 32, 46, 47, 48, 49, 64, 96, 128) if d <= w]


def test_index_mask_of_no_index_and_of_one():
    assert graph._index_mask([]) == 0
    assert graph._index_mask([0]) == 1
    assert graph._index_mask([255]) == 1 << 255
    assert graph._index_mask([256]) == 1 << 256


class _CountingTable(list):
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("d, w", _MASK_EDGES + _MASK_GRID)
def test_index_mask_reads_the_table_below_its_bounds(monkeypatch, d, w):
    table = _CountingTable(graph._BITS)
    monkeypatch.setattr(graph, "_BITS", table)
    indices = _spread(d, w)
    assert graph._index_mask(indices) == sum(1 << i for i in indices)
    assert table.reads == (d if d < 48 and w <= 256 else 0)


def test_hub_masks_of_a_star():
    # the hub's 300 neighbours take the digit buffer, each leaf the sum
    G = star_graph(300)
    assert G.neighbor_mask(0) == sum(1 << v for v in range(1, 301))
    assert G.closed_mask(0) == (1 << 301) - 1
    assert all(G.neighbor_mask(v) == 1 and G.closed_mask(v) == 1 | 1 << v for v in range(1, 301))


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
    assert sum(len(G.adjacency(v)) + 1 for v in range(n)) == n + 2 * G.m


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


def _stringio_save_graph(G):
    """The edge-list text as `save_graph` wrote it with one StringIO write
    per edge: the reference its text must equal byte for byte."""
    buf = io.StringIO()
    buf.write(f"{G.n} {G.m}\n")
    for u, v in G.edges():
        buf.write(f"{u} {v}\n")
    return buf.getvalue()


@pytest.mark.parametrize("G", [
    Graph(0, []), Graph(5, []),
    Graph(4, [(0, 3), (1, 3), (2, 3)]),  # vertex 3 has only lower neighbours
    Graph(3, [(0, 1)]),  # vertex 2 has none
], ids=["n0", "edgeless", "only-lower", "isolated-last"])
def test_save_graph_text_is_the_stringio_writers(G):
    assert save_graph(G) == _stringio_save_graph(G)


@given(st.integers(0, 400), st.integers(0, 40), st.integers(0, 300),
       st.sampled_from(["constructor", "bulk", "shuffled"]))
def test_save_graph_text_matches_the_stringio_writer(seed, n, m, build):
    # random G(n, m) through the constructor and through both loader paths:
    # canonical text (the bulk builder) and shuffled, reversed lines (the
    # constructor fallback)
    rng = random.Random(seed)
    edges = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)],
                       min(m, n * (n - 1) // 2))
    G = Graph(n, edges)
    if build == "bulk":
        G = load_graph(_stringio_save_graph(G).encode())
    elif build == "shuffled":
        G = load_graph((f"{n} {len(edges)}\n"
                        + "".join(f"{v} {u}\n" for u, v in edges)).encode())
    assert save_graph(G) == _stringio_save_graph(G)


@given(st.integers(0, 400), st.integers(1, 10), st.floats(0.0, 1.0))
def test_builders_agree_on_graph_and_hash(seed, n, p):
    G = random_graph(seed, n, p)
    edges = list(G.edges())
    built = Graph(n, [(v, u) for u, v in reversed(edges)])
    bulk = load_graph(save_graph(G).encode())
    by_lines = load_graph(("# read line by line\n" + save_graph(G)).encode())
    assert built == bulk == by_lines
    assert hash(built) == hash(bulk) == hash(by_lines)
    assert built.m == bulk.m == by_lines.m == len(edges)
    for H in (built, bulk, by_lines):
        assert all(type(H.adjacency(v)) is tuple for v in range(n))


# --- a line-by-line edge-list reader, kept as the reference ------------------

def _reference_edgelist_ints(lineno, raw):
    parts = raw.split("#", 1)[0].split()
    if not parts:
        return None
    try:
        return list(map(int, parts))
    except ValueError:
        raise GraphFormatError(f"line {lineno}: not integers: {raw!r}") from None


def _reference_parse_edgelist(text):
    """Header search, then every edge line read on its own; the Graph is
    built by `Graph.__init__`, which names the first bad edge."""
    lines = text.splitlines()
    for header_line, raw in enumerate(lines, 1):
        nums = _reference_edgelist_ints(header_line, raw)
        if nums is None:
            continue
        if len(nums) != 2:
            raise GraphFormatError(f"line {header_line}: expected header 'n m'")
        n, m = nums
        if n > MAX_VERTICES:
            raise GraphFormatError(
                f"line {header_line}: header declares {n} vertices, more than the limit {MAX_VERTICES}")
        break
    else:
        raise GraphFormatError("empty input: missing 'n m' header")
    edges = []
    for lineno, raw in enumerate(lines[header_line:], header_line + 1):
        nums = _reference_edgelist_ints(lineno, raw)
        if nums is None:
            continue
        if len(nums) != 2:
            raise GraphFormatError(f"line {lineno}: expected edge 'u v'")
        edges.append(tuple(nums))
    if len(edges) != m:
        raise GraphFormatError(f"line {header_line}: header declares {m} edges, found {len(edges)}")
    return Graph(n, edges)


def _load_outcome(load, data):
    try:
        G = load(data)
    except GraphFormatError as exc:
        return "error", str(exc)
    return G.n, G.m, G.adj


def _edgelist_variants(rng, text):
    """`text` (save_graph output) and variants of it, valid or not."""
    header, *lines = text.splitlines()
    n, m = map(int, header.split())

    def joined(head, body, end="\n"):
        return end.join([head, *body]) + end

    def with_line(i, new):
        return joined(header, lines[:i] + [new] + lines[i + 1:])

    yield text
    yield text[:-1]
    yield text + "7"
    yield text + "12"
    yield text.replace("\n", "\r\n")
    yield "# generated\n" + text
    yield joined(f"{n} {m}  # header", lines)
    yield joined(f"0{n} {m}", lines)
    yield joined(f"{n} {m - 1}", lines)
    yield joined(f"{n} {m + 1}", lines)
    yield joined(f"{n} {10**15}", lines)
    yield joined(f"{MAX_VERTICES + 1} {m}", lines)
    yield joined(header, rng.sample(lines, len(lines)))
    blank = rng.randint(0, len(lines))
    yield joined(header, lines[:blank] + [""] + lines[blank:])
    if not lines:
        return
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    u, v = lines[i].split()
    yield with_line(i, f"0{u} {v}")
    yield with_line(i, f"{u} 00{v}")
    yield with_line(i, f" {v}")
    yield with_line(i, f"{u} ")
    yield with_line(i, f"{u}  {v}")
    yield with_line(i, f"{u}\t{v}")
    yield with_line(i, f"{u} {v} # edge")
    yield with_line(i, f"{u} {v}".translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")))
    yield with_line(i, f"{u} {u}")
    yield with_line(i, f"{u} {n}")
    yield with_line(i, f"-1 {v}")
    yield with_line(i, f"{v} {u}")
    yield joined(f"{n} {m + 1}", lines + [lines[j]])
    yield joined(f"{n} {m + 1}", lines + [" ".join(reversed(lines[j].split()))])
    if len(lines) >= 2 and i != j:
        # the same length as before: "u v w" plus "x" in place of two edges
        yield joined(header, [f"{u} {v} {u}" if t == i else u if t == j else line
                              for t, line in enumerate(lines)])


def test_edgelist_loader_matches_reference():
    rng = random.Random(8)
    texts = ["0 0\n", "0 0", "5 0\n", "5 0\n7", "0 0\n1", "0 0\n12", "2 1\n0 1\n55",
             "", "\n", "# only a comment\n", "3\n", "3 1 2\n0 1\n"]
    for seed in range(60):
        G = random_graph(seed, rng.randint(1, 14), rng.choice((0.0, 0.2, 0.5, 0.9)))
        texts.extend(_edgelist_variants(rng, save_graph(G)))
    outcomes = [_load_outcome(load_graph, t.encode()) for t in texts]
    assert outcomes == [_load_outcome(_reference_parse_edgelist, t) for t in texts]
    assert sum(o[0] == "error" for o in outcomes) >= len(texts) // 3


def test_edgelist_canonical_shape_is_read_in_bulk(monkeypatch, tmp_path):
    G = random_graph(3, 30, 0.3)
    text = save_graph(G)
    path = tmp_path / "g.txt"
    path.write_text(text)

    def line_reader(*args):
        raise AssertionError("canonical text went to the line reader")

    monkeypatch.setattr(graph, "_edgelist_ints", line_reader)
    assert load_graph(text.encode()) == load_graph(path) == load_graph(io.StringIO(text)) == G
    assert load_graph(str(path)) == load_graph(io.BytesIO(text.encode())) == G
    with pytest.raises(AssertionError):
        load_graph(("# comment\n" + text).encode())


# --- every input form reads the same bytes to the same outcome ----------------

_G5 = Graph(5, [(0, 1), (0, 2), (1, 3), (3, 4)])
_CANONICAL5 = b"5 4\n0 1\n0 2\n1 3\n3 4\n"
_DIMACS5 = b"c five\np edge 5 4\ne 1 2\ne 1 3\ne 2 4\ne 4 5\n"

# contents and their outcome: the Graph, or the error's type and message, as
# a text-mode read (universal newlines, UTF-8) of each gave them
_LOAD_CONTENTS = {
    "canonical": (_CANONICAL5, _G5),
    "crlf": (_CANONICAL5.replace(b"\n", b"\r\n"), _G5),
    "cr": (_CANONICAL5.replace(b"\n", b"\r"), _G5),
    "comments": (b"# five\r\n" + _CANONICAL5.replace(b"0 2\n", b"0 2  # edge\n"), _G5),
    "dimacs": (_DIMACS5, _G5),
    "dimacs-crlf": (_DIMACS5.replace(b"\n", b"\r\n"), _G5),
    "leading-zero": (_CANONICAL5.replace(b"\n0 2", b"\n00 2"), _G5),
    "invalid-utf8": (_CANONICAL5.replace(b"1 3", b"1 \xff3"),
                     ("UnicodeDecodeError",
                      "'utf-8' codec can't decode byte 0xff in position 14: invalid start byte")),
    "bom": (b"\xef\xbb\xbf" + _CANONICAL5,
            ("GraphFormatError", "line 1: not integers: '\\ufeff5 4'")),
    "bad-line-crlf": (b"5 4\r\n0 1\r\n0 x\r\n", ("GraphFormatError", "line 3: not integers: '0 x'")),
}


def _outcome(load, source):
    try:
        return load(source)
    except ValueError as exc:  # GraphFormatError and UnicodeDecodeError included
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", _LOAD_CONTENTS)
def test_every_input_form_loads_to_the_same_outcome(tmp_path, name):
    data, expected = _LOAD_CONTENTS[name]
    path = tmp_path / f"{name}.graph"
    path.write_bytes(data)
    with open(path, encoding="utf-8") as text_stream:
        outcomes = {form: _outcome(load_graph, source) for form, source in (
            ("path", path), ("str path", str(path)), ("bytes", data),
            ("binary stream", io.BytesIO(data)), ("text stream", text_stream))}
    assert outcomes == dict.fromkeys(outcomes, expected)


def test_crlf_canonical_text_is_read_by_lines(monkeypatch, tmp_path):
    lines = []
    original = graph._edgelist_ints
    monkeypatch.setattr(graph, "_edgelist_ints", lambda *args: lines.append(args[0]) or original(*args))
    path = tmp_path / "g.graph"
    path.write_bytes(_CANONICAL5)
    assert load_graph(path) == _G5 and lines == []
    # a text-mode read saw "\n" here and took the bulk path; the bytes are read as they are
    path.write_bytes(_CANONICAL5.replace(b"\n", b"\r\n"))
    assert load_graph(path) == _G5 and lines == [1, 2, 3, 4, 5]


def test_text_stream_with_a_lone_surrogate_fails_on_its_line():
    # no bytes for the bulk check: the line reader gets the str itself
    with pytest.raises(GraphFormatError, match=re.escape("line 2: not integers: '0 \\udc80'")):
        load_graph(io.StringIO("5 4\n0 \udc80\n"))
    with pytest.raises(GraphFormatError, match=re.escape("line 3: not integers: '\\udc80'")):
        load_graph(io.StringIO("2 1\n0 1\n\udc80"))


def _flat_outcome(build, n, flat):
    try:
        G = build(n, flat)
    except ValueError as exc:  # GraphFormatError included
        return type(exc).__name__, str(exc)
    return G.n, G.m, G.adj


def _flat_variants(rng, n, flat):
    """`flat` (canonical: u < v, sorted, no repeats) and variants of it."""
    yield n, flat
    yield n + 3, flat
    yield -1, flat
    if not flat:
        return
    i = 2 * rng.randrange(len(flat) // 2)
    pairs = [flat[j:j + 2] for j in range(0, len(flat), 2)]
    yield n, flat[:i] + flat[i:i + 2][::-1] + flat[i + 2:]
    yield n, flat[:i + 2] + flat[i:]
    yield n, [x for pair in rng.sample(pairs, len(pairs)) for x in pair]
    yield n, flat + flat[:2]
    yield n, flat[:i] + [flat[i], n] + flat[i + 2:]
    yield n, flat[:i] + [-1, flat[i + 1]] + flat[i + 2:]
    yield n, flat[:i] + [flat[i], flat[i]] + flat[i + 2:]
    yield max(flat) - 1, flat


def test_from_flat_matches_constructor():
    """The bulk builder reads only canonical lists itself; on any list it
    must give what the constructor gives: the same graph or the same error."""
    rng = random.Random(19)
    cases = [(0, []), (4, []), (-1, []), (2, [0, 1])]
    for seed in range(80):
        n = rng.randint(1, 12)
        G = random_graph(seed, n, rng.choice((0.2, 0.5, 0.9)))
        cases.extend(_flat_variants(rng, n, [x for e in G.edges() for x in e]))
    outcomes = [_flat_outcome(Graph._from_flat, n, flat) for n, flat in cases]
    assert outcomes == [_flat_outcome(lambda n, f: Graph(n, zip(f[0::2], f[1::2])), n, flat)
                        for n, flat in cases]
    errors = sum(isinstance(o[0], str) for o in outcomes)
    assert len(cases) // 4 <= errors <= 3 * len(cases) // 4


def _constructor_outcome(n, flat):
    return _flat_outcome(lambda n, f: Graph(n, zip(f[0::2], f[1::2])), n, flat)


def _sentinel_cases():
    """(n, flat, the constructor raises): lists that meet the bulk loop's
    sentinel (-1, n) or one of its comparisons with the previous edge."""
    n = 6
    run = [1, 2, 1, 4, 1, 5]  # an equal-u run
    for v in (0, 1, n - 1, n, n + 1):
        yield n, [-1, v] + run, True
    yield n, run + [2, n], True
    yield n, [1, 2, 1, 1, 1, 4], True
    yield n, [1, 2, 1, 4, 1, 4, 2, 3], False  # a repeat of the previous edge
    yield n, [1, 2, 1, 5, 1, 4, 2, 3], False  # (u, v) right after (u, v+1)
    yield n, [0, 1, 2, 2**63], True
    yield n, [2**63, 2**64], True
    yield n, [0, 2**64, 1, 2], True
    yield 0, [0, 1], True
    yield 0, [-1, 0], True
    yield 0, [], False
    yield -1, [], True
    yield -2, [], True


@pytest.mark.parametrize("n, flat, fails", _sentinel_cases())
def test_from_flat_sentinels_match_constructor(n, flat, fails):
    outcome = _flat_outcome(Graph._from_flat, n, flat)
    assert outcome == _constructor_outcome(n, flat)
    assert isinstance(outcome[0], str) == fails


_flat_pairs = st.lists(st.tuples(st.integers(-3, 35), st.integers(-3, 35)), max_size=40)


@given(st.integers(-2, 30), _flat_pairs, st.booleans())
def test_from_flat_matches_constructor_on_any_list(n, pairs, canonical_order):
    # sorted, deduplicated pairs reach the bulk loop's placing more often
    if canonical_order:
        pairs = sorted(set(pairs))
    flat = [x for pair in pairs for x in pair]
    assert _flat_outcome(Graph._from_flat, n, flat) == _constructor_outcome(n, flat)


def test_canonical_flat_lists_never_reach_the_constructor(monkeypatch):
    canonical = [(0, []), (1, []), (5, [0, 4]), (5, [0, 1, 0, 4, 1, 2, 3, 4])]
    for seed in range(20):
        G = random_graph(seed, 15, 0.3)
        canonical.append((G.n, [x for e in G.edges() for x in e]))
    expected = [_constructor_outcome(n, flat) for n, flat in canonical]

    def constructor(*args):
        raise AssertionError("a canonical list reached Graph.__init__")

    monkeypatch.setattr(Graph, "__init__", constructor)
    assert [_flat_outcome(Graph._from_flat, n, flat) for n, flat in canonical] == expected
    for n, flat in ((5, [0, 4, 0, 1]), (5, [0, 5]), (-1, [])):
        with pytest.raises(AssertionError):
            Graph._from_flat(n, flat)


def _sparse_edges(seed, n, m):
    """m distinct random edges (u, v), u < v, sorted: a sparse G(n, m)."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def test_sparse_builds_run_no_collection():
    # the builders' n temporary adjacency containers set off young, then
    # full, collections with the collector on; both run with it paused
    n = 10**4
    edges = _sparse_edges(1, n, 3 * n)
    data = save_graph(Graph(n, edges)).encode()
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        gc.collect()
        starts.clear()
        G = load_graph(data)
        loaded = len(starts)
        gc.collect()
        starts.clear()
        H = Graph(n, edges)
        built = len(starts)
    finally:
        gc.callbacks.remove(count)
    assert G == H and G.m == 3 * n
    assert (loaded, built) == (0, 0)
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_builds_restore_the_collector_state(enabled):
    """The collector is off while a graph is built, and as it was before the
    build afterwards, whether the build returns or raises."""
    failures = [
        lambda: load_graph(b"3 1\n0 5\n"),  # bulk path, out of range
        lambda: load_graph(b"3 1\n1 1\n"),  # bulk path, self-loop
        lambda: load_graph(b"3 1\n0  5\n"),  # line-by-line path
        lambda: load_graph(b"3 2\n0 1\n"),  # line-by-line path, edge count
        lambda: load_graph(b"p edge 3 1\ne 1 5\n"),  # DIMACS
        lambda: Graph(3, [(0, 1), (2, 2)]),  # constructor
        lambda: Graph(3, (e for e in [(0, 1), (0, 3)])),
    ]
    (gc.enable if enabled else gc.disable)()
    try:
        for fail in failures:
            with pytest.raises(GraphFormatError):
                fail()
            assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="nonnegative"):
            Graph(-1, [])
        assert gc.isenabled() is enabled

        def broken_edges():
            yield (0, 1)
            raise KeyError("from the caller's iterable")

        with pytest.raises(KeyError):
            Graph(3, broken_edges())
        assert gc.isenabled() is enabled
        seen = []

        def edges():
            seen.append(gc.isenabled())
            yield from [(0, 1), (1, 2)]

        assert Graph(3, edges()) == path_graph(3)
        assert seen == [False]
        assert gc.isenabled() is enabled
        assert load_graph(b"3 2\n0 1\n1 2\n") == load_graph(b"3 2\n1 2\n0 1\n") == path_graph(3)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_loads_and_builds_leave_no_reference_cycles():
    # the pause must not be what keeps the builders clean: with the
    # collector off throughout, nothing they leave needs it
    n = 2000
    edges = _sparse_edges(2, n, 3 * n)
    text = save_graph(Graph(n, edges))
    inputs = [text.encode(), text.replace("\n", "\r\n").encode(),
              dimacs_text(Graph(n, edges)).encode()]
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            graphs = [load_graph(data) for data in inputs]
            graphs.append(Graph(n, edges))
            graphs.append(Graph(n, iter(edges)))
            assert all(G.m == 3 * n for G in graphs)
        del graphs
        assert gc.collect() == 0
    finally:
        gc.enable()

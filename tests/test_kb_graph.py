import ast
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sqe
import sqe.kb_graph
from sqe.entity_linker import EntityLinker
from sqe.errors import FormatError, KindMismatch, NotAnArticle, NotACategory
from sqe.kb_graph import (
    EdgeKind,
    KBNode,
    NodeKind,
    build_graph,
    load_graph,
    load_snapshot,
    save_snapshot,
)
from sqe.text import normalize_title, tokenize

from conftest import write_tsv
from generators import random_graph

MINI_NODES = [("1", "A", "Alpha"), ("2", "A", "Beta"), ("3", "C", "Things")]
MINI_EDGES = [
    ("1", "2", "AA"),
    ("2", "1", "AA"),
    ("1", "3", "AC"),
    ("2", "3", "AC"),
]


def test_tokenize_and_normalize():
    assert tokenize("Graffiti, street-art ON walls!") == [
        "graffiti", "street", "art", "on", "walls",
    ]
    assert normalize_title("Above_(artist)") == "above (artist)"
    assert normalize_title("  Yarn   Bombing ") == "yarn bombing"


def test_minimal_load(tmp_path):
    nodes = write_tsv(tmp_path / "n.tsv", MINI_NODES)
    edges = write_tsv(tmp_path / "e.tsv", MINI_EDGES)
    g = load_graph(nodes, edges)
    assert len(g) == 3
    assert g.edge_count(EdgeKind.AA) == 2
    assert g.edge_count(EdgeKind.AC) == 2
    assert g.kind(2) is NodeKind.CATEGORY
    assert g.article_by_title("alpha") == 0
    assert g.article_by_title("missing") is None


def test_kind_mismatch_carries_line(tmp_path):
    nodes = write_tsv(tmp_path / "n.tsv", MINI_NODES)
    edges = write_tsv(tmp_path / "e.tsv", [("1", "2", "AA"), ("1", "2", "AC")])
    with pytest.raises(KindMismatch) as err:
        load_graph(nodes, edges)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "bad_row, reason",
    [
        (("1", "2"), "columns"),
        (("1", "9", "AA"), "unknown node"),
        (("1", "1", "AA"), "self-loop"),
        (("1", "2", "XX"), "unknown edge kind"),
    ],
)
def test_bad_edge_rows(tmp_path, bad_row, reason):
    nodes = write_tsv(tmp_path / "n.tsv", MINI_NODES)
    edges = write_tsv(tmp_path / "e.tsv", [bad_row])
    with pytest.raises(FormatError) as err:
        load_graph(nodes, edges)
    assert err.value.line == 1
    assert reason in str(err.value)


STRUCTURAL_FAULTS = {"self-loop": ("1", "1", "AA"), "wrong kinds": ("1", "2", "AC")}
PARSE_FAULTS = {"unknown kind": ("1", "2", "XX"), "columns": ("1", "2")}


@pytest.mark.parametrize("structural", sorted(STRUCTURAL_FAULTS))
@pytest.mark.parametrize("parse", sorted(PARSE_FAULTS))
@pytest.mark.parametrize("parse_first", [False, True])
def test_earlier_of_two_edge_faults_is_reported(tmp_path, structural, parse, parse_first):
    """Parse faults and rule faults are found in separate passes; the earlier line wins."""
    first, later = STRUCTURAL_FAULTS[structural], PARSE_FAULTS[parse]
    if parse_first:
        first, later = later, first
    rows = [MINI_EDGES[0], first, MINI_EDGES[1], later, MINI_EDGES[2]]
    nodes = write_tsv(tmp_path / "n.tsv", MINI_NODES)
    edges = write_tsv(tmp_path / "e.tsv", rows)
    with pytest.raises((FormatError, KindMismatch)) as err:
        load_graph(nodes, edges)
    assert err.value.line == 2
    assert f"{edges}:" in str(err.value)
    wrong_kinds = not parse_first and structural == "wrong kinds"
    assert isinstance(err.value, KindMismatch) == wrong_kinds


def test_bad_node_rows(tmp_path):
    with pytest.raises(FormatError):
        load_graph(write_tsv(tmp_path / "n.tsv", [("1", "Q", "X")]), write_tsv(tmp_path / "e.tsv", []))
    with pytest.raises(FormatError):
        load_graph(
            write_tsv(tmp_path / "n2.tsv", [("1", "A", "X"), ("1", "A", "Y")]),
            write_tsv(tmp_path / "e2.tsv", []),
        )
    # same normalized title within a kind is rejected, across kinds is fine
    with pytest.raises(FormatError, match="duplicate normalized title 'cable car' for kind A$"):
        build_graph([("1", "A", "Cable car"), ("2", "A", "cable_car")], [])
    g = build_graph([("1", "A", "Graffiti"), ("2", "C", "Graffiti")], [])
    assert len(g) == 2
    assert (g.article_by_title("graffiti"), g.category_by_title("Graffiti")) == (0, 1)


def test_duplicate_title_names_the_later_row(tmp_path):
    rows = [("1", "A", "Cable car"), ("2", "C", "Cable car"), ("3", "A", "Funicular"),
            ("4", "A", "cable_car")]
    nodes = write_tsv(tmp_path / "n.tsv", rows)
    with pytest.raises(FormatError) as err:
        load_graph(nodes, write_tsv(tmp_path / "e.tsv", []))
    assert err.value.line == 4 and f"{nodes}:" in str(err.value)

    # a snapshot whose title column repeats a title within a kind
    path = str(tmp_path / "kb.bin")
    save_snapshot(build_graph(rows[:3] + [("4", "A", "Gondola")], []), path)
    fmt = sqe.kb_graph._SNAPSHOT_FORMAT
    columns = fmt.load(path, ["kinds", "AA_src", "AA_dst", "AC_src", "AC_dst", "CC_src", "CC_dst"],
                       ["ext_ids", "titles"])
    strings = {"ext_ids": columns.pop("ext_ids"), "titles": [t for _e, _k, t in rows]}
    fmt.save(path, columns, strings)
    with pytest.raises(FormatError) as err:
        load_snapshot(path)
    assert err.value.line == 4 and f"{path}:" in str(err.value)


def write_spaced_tsv(path, rows):
    """``rows`` as TSV lines, each after a blank or whitespace-only line, and two more
    such lines at the end: row ``i`` (from 0) is line ``2 * i + 2``."""
    blanks = ["", " ", "\t", " \t "]
    text = "".join(f"{blanks[i % 4]}\n" + "\t".join(row) + "\n" for i, row in enumerate(rows))
    path.write_text(text + "\n\t\n", encoding="utf-8")
    return str(path)


def test_blank_lines_are_skipped_and_faults_keep_their_file_line(tmp_path):
    plain = load_graph(write_tsv(tmp_path / "n.tsv", MINI_NODES), write_tsv(tmp_path / "e.tsv", MINI_EDGES))
    nodes = write_spaced_tsv(tmp_path / "n2.tsv", MINI_NODES)
    _assert_same_graph(load_graph(nodes, write_spaced_tsv(tmp_path / "e2.tsv", MINI_EDGES)), plain)
    # a bad third row, found by each check that raises, is reported at line 6
    for nodes_rows, edge_rows, fault in [
        (MINI_NODES[:2] + [("3", "Q", "Things")], [], FormatError),
        (MINI_NODES[:2] + [("4", "A", "alpha")], [], FormatError),  # a repeated title, found last
        (MINI_NODES, MINI_EDGES[:2] + [("1", "3")], FormatError),
        (MINI_NODES, MINI_EDGES[:2] + [("1", "1", "AA")], FormatError),
        (MINI_NODES, MINI_EDGES[:2] + [("1", "3", "AA")], KindMismatch),
    ]:
        nodes = write_spaced_tsv(tmp_path / "n3.tsv", nodes_rows)
        edges = write_spaced_tsv(tmp_path / "e3.tsv", edge_rows)
        with pytest.raises(FormatError) as err:
            load_graph(nodes, edges)
        assert type(err.value) is fault and err.value.line == 6
        assert str(err.value).startswith(f"line 6: {edges if edge_rows else nodes}: ")


def test_duplicate_edge_rows_dedup(tmp_path):
    # oracle: the file has 5 edge rows but only 4 distinct ones
    rows = MINI_EDGES + [("1", "2", "AA")]
    distinct = len(set(rows))
    nodes = write_tsv(tmp_path / "n.tsv", MINI_NODES)
    edges = write_tsv(tmp_path / "e.tsv", rows)
    g = load_graph(nodes, edges)
    assert sum(g.edge_count(k) for k in EdgeKind) == distinct == 4


def test_doubly_linked():
    g = build_graph(MINI_NODES, [("1", "2", "AA")])
    assert not g.doubly_linked(0, 1)
    g2 = build_graph(MINI_NODES, MINI_EDGES)
    assert g2.doubly_linked(0, 1)
    assert g2.doubly_linked(1, 0)  # symmetric
    assert not g2.doubly_linked(0, 0)  # self-edges banned, no error
    with pytest.raises(NotAnArticle):
        g2.doubly_linked(0, 2)
    with pytest.raises(NotAnArticle):
        g2.doubly_linked_neighbors(2)


def test_link_table_and_node_kinds_are_read_only():
    g = build_graph(MINI_NODES, MINI_EDGES)
    neighbors, counts = g.links(0)
    with pytest.raises(ValueError, match="read-only"):
        neighbors[0] = 0  # would give node 0 a self-loop
    for column in (counts, *g._links[1:], g._is_category):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), n_nodes=st.integers(2, 25), reciprocal_cc=st.booleans())
def test_link_row_counts_each_distinct_edge_row(seed, n_nodes, reciprocal_cc):
    nodes, edges = random_graph(random.Random(seed), n_nodes, reciprocal_cc=reciprocal_cc)
    edges += edges[: len(edges) // 3]  # repeated rows are one stored edge
    g = build_graph(nodes, edges)
    ids = {ext: i for i, (ext, _k, _t) in enumerate(nodes)}
    rows = {(ids[s], ids[d], k) for s, d, k in edges}
    for i in range(len(g)):
        neighbors, counts = g.links(i)
        assert neighbors.dtype == counts.dtype == np.int32
        assert np.all(neighbors[:-1] < neighbors[1:]) and np.all(counts > 0)
        stored = dict(zip(neighbors.tolist(), counts.tolist()))
        cc_partners = g.linked_categories(i).tolist()
        both_ways = []
        for j in range(len(g)):
            joining = [k for s, d, k in rows if (s, d) in ((i, j), (j, i))]
            assert stored.get(j, 0) == g.link_count(i, j) == len(joining)
            if nodes[i][1] == "C":
                assert (j in cc_partners) == ("CC" in joining)
            elif nodes[j][1] == "A":
                linked = (i, j, "AA") in rows and (j, i, "AA") in rows
                assert g.doubly_linked(i, j) == linked
                both_ways += [j] * linked
        if nodes[i][1] == "A":
            assert g.doubly_linked_neighbors(i).tolist() == both_ways
    ends = {n for s, d, _k in rows for n in (s, d)}
    assert g.validate().orphan_categories == [
        c for c, (_e, kind, _t) in enumerate(nodes) if kind == "C" and c not in ends
    ]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), n_nodes=st.integers(2, 25), reciprocal_cc=st.booleans())
def test_directed_reads_match_the_distinct_rows(seed, n_nodes, reciprocal_cc):
    rng = random.Random(seed)
    nodes, edges = random_graph(rng, n_nodes, reciprocal_cc=reciprocal_cc)
    edges += edges[: len(edges) // 3]  # repeated rows are one stored edge
    rng.shuffle(edges)
    g = build_graph(nodes, edges)
    ids = {ext: i for i, (ext, _k, _t) in enumerate(nodes)}
    rows = sorted({(k, ids[s], ids[d]) for s, d, k in edges})
    with tempfile.TemporaryDirectory() as tmp:
        save_snapshot(g, f"{tmp}/kb.npz")
        with np.load(f"{tmp}/kb.npz") as snapshot:
            columns = {name: snapshot[name] for name in snapshot.files}
        back = load_snapshot(f"{tmp}/kb.npz")
    for h in (g, back):  # node reads, before and after a snapshot round trip
        assert len(h) == len(nodes)
        assert h.nodes == [KBNode(i, NodeKind(k), t, e) for i, (e, k, t) in enumerate(nodes)]
        for i, (ext, kind, title) in enumerate(nodes):
            assert h.node(i) == KBNode(i, NodeKind(kind), title, ext)
            assert (h.kind(i), h.title(i), h.is_article(i)) == (NodeKind(kind), title, kind == "A")
            by_title = h.article_by_title if kind == "A" else h.category_by_title
            assert by_title(title) == i
        assert h.article_ids() == [i for i, (_e, kind, _t) in enumerate(nodes) if kind == "A"]
    for k in EdgeKind:
        want = [(s, d) for kind, s, d in rows if kind == k.value]
        assert g.edge_count(k) == len(want)
        for i in range(len(g)):
            assert g.out_neighbors(i, k).tolist() == [d for s, d in want if s == i]
        src, dst = columns[f"{k.value}_src"], columns[f"{k.value}_dst"]
        assert src.dtype == dst.dtype == np.int32
        assert list(zip(src.tolist(), dst.tolist())) == want  # ordered by source, then destination
    cats = {i: {d for kind, s, d in rows if kind == "AC" and s == i}
            for i, (_e, kind, _t) in enumerate(nodes) if kind == "A"}
    assert all(g.categories_of(a) == cats[a] for a in cats)
    assert g.validate().articles_without_category == [a for a in cats if not cats[a]]


def test_link_rows_of_the_mini_graph():
    g = build_graph(MINI_NODES, MINI_EDGES)
    rows = [tuple(a.tolist() for a in g.links(i)) for i in range(len(g))]
    assert rows == [([1, 2], [2, 1]), ([0, 2], [2, 1]), ([0, 1], [1, 1])]  # AA both ways, one AC
    assert [g.linked_categories(i).tolist() for i in range(len(g))] == [[2], [2], []]
    assert g.link_count(0, 1) == 2 and g.link_count(2, 0) == 1 and g.link_count(2, 2) == 0


def test_categories_of_and_category_linked(cable_graph):
    g = cable_graph
    cable = g.article_by_title("Cable_car")
    funicular = g.article_by_title("Funicular")
    shared = g.category_by_title("Cable_transport")
    assert g.categories_of(cable) == {shared}
    assert g.categories_of(funicular) >= g.categories_of(cable)
    with pytest.raises(NotAnArticle):
        g.categories_of(shared)

    g2 = build_graph(
        [("1", "C", "X"), ("2", "C", "Y"), ("3", "C", "Z"), ("4", "A", "W")],
        [("1", "2", "CC")],
    )
    assert g2.category_linked(0, 1)
    assert g2.category_linked(1, 0)  # dashed-arrow direction counts too
    assert not g2.category_linked(0, 2)
    with pytest.raises(NotACategory):
        g2.category_linked(3, 0)


def test_validate_counts_and_warnings():
    g = build_graph(MINI_NODES, MINI_EDGES)
    rep = g.validate()
    assert (rep.n_articles, rep.n_categories) == (2, 1)
    assert rep.edge_counts[EdgeKind.AA] == 2
    assert rep.edge_counts[EdgeKind.AC] == 2
    assert rep.warnings == []

    g2 = build_graph(MINI_NODES + [("4", "A", "Loner"), ("5", "C", "Empty")], MINI_EDGES)
    rep2 = g2.validate()
    assert rep2.articles_without_category == [3]
    assert rep2.orphan_categories == [4]
    assert len(rep2.warnings) == 2
    assert "articles\t3" in g2.validate().summary()


def test_validate_against_line_count_oracle(tmp_path):
    rng = random.Random(7)
    nodes, edges = random_graph(rng, 100)
    distinct = set(edges)
    by_kind = {k: sum(1 for r in distinct if r[2] == k) for k in ("AA", "AC", "CC")}
    g = load_graph(
        write_tsv(tmp_path / "n.tsv", nodes), write_tsv(tmp_path / "e.tsv", edges)
    )
    rep = g.validate()
    assert rep.n_articles == sum(1 for r in nodes if r[1] == "A")
    assert rep.n_categories == sum(1 for r in nodes if r[1] == "C")
    for k in EdgeKind:
        assert rep.edge_counts[k] == by_kind[k.value]


def test_loading_is_idempotent(tmp_path):
    rng = random.Random(11)
    nodes, edges = random_graph(rng, 60)
    np_, ep = write_tsv(tmp_path / "n.tsv", nodes), write_tsv(tmp_path / "e.tsv", edges)
    g1, g2 = load_graph(np_, ep), load_graph(np_, ep)
    assert [n.title for n in g1.nodes] == [n.title for n in g2.nodes]
    for k in EdgeKind:
        for i in range(len(g1)):
            assert np.array_equal(g1.out_neighbors(i, k), g2.out_neighbors(i, k))


def test_adjacency_sorted_and_consistent():
    rng = random.Random(13)
    nodes, edges = random_graph(rng, 80)
    g = build_graph(nodes, edges)
    for k in EdgeKind:
        for i in range(len(g)):
            arr = g.out_neighbors(i, k)
            assert np.all(arr[:-1] < arr[1:])  # sorted, deduplicated
            assert all(0 <= int(j) < len(g) for j in arr)


def test_edge_kind_invariants_hold_by_full_scan():
    rng = random.Random(29)
    nodes, edges = random_graph(rng, 60)
    g = build_graph(nodes, edges)
    want = {
        EdgeKind.AA: (NodeKind.ARTICLE, NodeKind.ARTICLE),
        EdgeKind.AC: (NodeKind.ARTICLE, NodeKind.CATEGORY),
        EdgeKind.CC: (NodeKind.CATEGORY, NodeKind.CATEGORY),
    }
    for k, (src_kind, dst_kind) in want.items():
        for src in range(len(g)):
            for dst in map(int, g.out_neighbors(src, k)):
                assert g.kind(src) is src_kind and g.kind(dst) is dst_kind
                assert src != dst


def _assert_same_graph(g1, g2):
    assert [(n.id, n.kind, n.title, n.ext_id) for n in g1.nodes] == [
        (n.id, n.kind, n.title, n.ext_id) for n in g2.nodes
    ]
    for k in EdgeKind:
        for i in range(len(g1)):
            assert np.array_equal(g1.out_neighbors(i, k), g2.out_neighbors(i, k))
    assert g1.validate() == g2.validate()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**16), n_nodes=st.integers(2, 25))
def test_normalized_title_column_equals_normalize_title(seed, n_nodes):
    rng = random.Random(seed)
    nodes, edges = random_graph(rng, n_nodes)
    # the same titles in forms that normalize alike: case, underscores, spacing
    forms = (str.upper, lambda t: t.replace("_", "  "), lambda t: f"  {t}   x ", str)
    nodes = [(e, k, rng.choice(forms)(t)) for e, k, t in nodes]
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_tsv(Path(tmp, "n.tsv"), nodes), write_tsv(Path(tmp, "e.tsv"), edges)
        built, loaded = build_graph(nodes, edges), load_graph(*paths)
        save_snapshot(built, f"{tmp}/kb.npz")
        back = load_snapshot(f"{tmp}/kb.npz")
    for h in (built, loaded, back):
        assert [h.normalized_title(i) for i in range(len(h))] == [normalize_title(t) for _e, _k, t in nodes]


def test_snapshot_round_trip(tmp_path):
    nodes, edges = random_graph(random.Random(17), 80)
    nodes += [("lone-a", "A", "Lone article"), ("lone-c", "C", "Lone category")]
    g = build_graph(nodes, edges + edges[::5])  # repeated rows are parallel edges
    rep = g.validate()
    assert len(rep.articles_without_category) >= 1 and len(rep.orphan_categories) >= 1
    path = tmp_path / "kb.bin"
    save_snapshot(g, str(path))
    _assert_same_graph(g, load_snapshot(str(path)))


def test_snapshot_round_trip_with_non_ascii_titles(tmp_path):
    nodes = [("é1", "A", "Café"), ("2", "A", "Straße_art"), ("3", "C", "Граффити"),
             ("4", "C", "Plain"), ("5", "A", "日本の落書き")]
    edges = [("é1", "2", "AA"), ("2", "é1", "AA"), ("é1", "3", "AC"), ("5", "4", "AC"), ("3", "4", "CC")]
    g = build_graph(nodes, edges)
    path = str(tmp_path / "kb.bin")
    save_snapshot(g, path)
    back = load_snapshot(path)
    _assert_same_graph(g, back)
    assert back.article_by_title("café") == 0 and back.category_by_title("граффити") == 2


@pytest.mark.parametrize("values", [[], [""], ["a", "", "bc"], ["é", "", "x", "日本語", "ß"]])
def test_archive_string_columns_round_trip(tmp_path, values):
    fmt = sqe.kb_graph._SNAPSHOT_FORMAT
    path = str(tmp_path / "strings.bin")
    fmt.save(path, {}, {"names": values})
    assert fmt.load(path, [], ["names"])["names"] == values


def test_empty_snapshot_round_trip(tmp_path):
    g = build_graph([], [])
    path = tmp_path / "kb.bin"
    save_snapshot(g, str(path))
    g2 = load_snapshot(str(path))
    assert len(g2) == 0
    _assert_same_graph(g, g2)


def test_snapshot_rejects_other_files(tmp_path):
    path = tmp_path / "junk.bin"
    with open(path, "wb") as fh:
        np.savez(fh, something=np.array(1))
    with pytest.raises(FormatError):
        load_snapshot(str(path))
    # the right magic with another format version
    with open(path, "wb") as fh:
        np.savez(fh, magic=np.array("sqe-kb-snapshot"), version=np.array(99))
    with pytest.raises(FormatError, match="version 99"):
        load_snapshot(str(path))


def test_package_never_imports_pickle():
    """Indexes and snapshots are read without unpickling, so nothing may import it."""
    for path in Path(sqe.__file__).parent.rglob("*.py"):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] in ("pickle", "_pickle") for m in modules), path
        assert "allow_pickle=True" not in source, path


def test_each_title_is_normalized_once_per_load(tmp_path, monkeypatch):
    nodes, edges = random_graph(random.Random(5), 40)
    nodes_path = write_tsv(tmp_path / "n.tsv", nodes)
    edges_path = write_tsv(tmp_path / "e.tsv", edges)
    snapshot = str(tmp_path / "kb.bin")
    save_snapshot(load_graph(nodes_path, edges_path), snapshot)
    calls = []

    def counting(title):
        calls.append(title)
        return normalize_title(title)

    monkeypatch.setattr(sqe.kb_graph, "normalize_title", counting)
    load_graph(nodes_path, edges_path)
    assert len(calls) == len(nodes)
    calls.clear()
    load_snapshot(snapshot)
    assert len(calls) == len(nodes)


def test_loading_builds_no_node_objects(tmp_path, monkeypatch):
    nodes, edges = random_graph(random.Random(5), 40)
    nodes_path = write_tsv(tmp_path / "n.tsv", nodes)
    edges_path = write_tsv(tmp_path / "e.tsv", edges)
    snapshot = str(tmp_path / "kb.bin")
    built = []

    class Counting(KBNode):
        def __init__(self, *fields):
            built.append(fields[0])
            super().__init__(*fields)

    monkeypatch.setattr(sqe.kb_graph, "KBNode", Counting)
    g = load_graph(nodes_path, edges_path)
    build_graph(nodes, edges)
    save_snapshot(g, snapshot)
    EntityLinker(load_snapshot(snapshot))
    assert built == []
    assert g.node(3).id == 3 and built == [3]  # the counter sees a node built on read


def _bad_edge(draw, fault, articles, categories):
    """An edge row that breaks exactly one edge rule."""
    a, c = draw(st.sampled_from(articles)), draw(st.sampled_from(categories))
    if fault == "unknown id":
        return draw(st.sampled_from([("nowhere", c, "AC"), (a, "nowhere", "AC")]))
    if fault == "self-loop":
        return draw(st.sampled_from([(a, a, "AA"), (c, c, "CC")]))
    return draw(st.sampled_from([(a, c, "AA"), (c, a, "AC"), (a, c, "CC")]))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_nodes=st.integers(4, 30),
    fault=st.sampled_from(["unknown id", "self-loop", "wrong kinds"]),
    data=st.data(),
)
def test_one_bad_edge_is_named_in_rows_and_snapshots(tmp_path_factory, seed, n_nodes, fault, data):
    nodes, edges = random_graph(random.Random(seed), n_nodes)
    articles = [e for e, k, _t in nodes if k == "A"]
    categories = [e for e, k, _t in nodes if k == "C"]
    bad = _bad_edge(data.draw, fault, articles, categories)

    at = data.draw(st.integers(0, len(edges)))
    with pytest.raises((FormatError, KindMismatch)) as err:
        build_graph(nodes, edges[:at] + [bad] + edges[at:])
    assert err.value.line == at + 1
    assert "edges:" in str(err.value)
    assert isinstance(err.value, KindMismatch) == (fault == "wrong kinds")
    if fault == "unknown id":
        assert "'nowhere'" in str(err.value)

    # the same edge inserted into the good graph's snapshot column of its kind
    path = tmp_path_factory.mktemp("snapshot") / "kb.bin"
    save_snapshot(build_graph(nodes, edges), str(path))
    with np.load(path) as stored:
        arrays = dict(stored)
    ids = {ext: i for i, (ext, _k, _t) in enumerate(nodes)}
    unknown = data.draw(st.sampled_from([-1, len(nodes), 10**6]))
    src, dst, kind = bad
    pos = data.draw(st.integers(0, arrays[f"{kind}_src"].size))
    arrays[f"{kind}_src"] = np.insert(arrays[f"{kind}_src"], pos, ids.get(src, unknown))
    arrays[f"{kind}_dst"] = np.insert(arrays[f"{kind}_dst"], pos, ids.get(dst, unknown))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(FormatError, match=f"{kind} edge at index {pos}: "):
        load_snapshot(str(path))

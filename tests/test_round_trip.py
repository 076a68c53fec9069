"""What the library builds, it reads back: an index, a graph or a ranked list
that its in-memory builder accepts survives its file's save and load."""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sqe.errors import DuplicateDocId, FormatError
from sqe.kb_graph import build_graph, load_snapshot, save_snapshot
from sqe.query_lang import Combine, Term, Window
from sqe.search_engine import (
    Document,
    RankedList,
    build_index,
    load_index,
    read_trec_run,
    save_index,
    search,
    write_trec_run,
)

# small alphabets, so that repeats are common; each test draws either strings that fit a
# file (still with repeats, upper case and non-ASCII) or any strings
ANY = st.text(st.sampled_from(["a", "b", "1", "A", "é", "_", " ", "\t", "\n", "\r"]), max_size=3)
RUN_ID = st.text(st.sampled_from(["a", "b", "1", "A", "é", "_", "-"]), min_size=1, max_size=3)
WORD = st.sampled_from(["a", "b", "1", "ab", "b1"])  # one token each
TITLE = st.text(st.sampled_from(["a", "b", "1", "A", "é", "_", " "]), min_size=1, max_size=4)
DOCS = st.sampled_from([(RUN_ID, WORD), (ANY, st.one_of(WORD, ANY))]).flatmap(
    lambda s: st.lists(st.tuples(s[0], st.lists(s[1], max_size=4)), max_size=4))


@settings(max_examples=200, deadline=None)
@given(docs=DOCS)
@example(docs=[("d 1", ["banksy"])])
@example(docs=[("d", ["Wall Art"])])
@example(docs=[("d", ["a"]), ("d", ["b"])])
@example(docs=[("d1", ["a", "b", "a"]), ("dé", []), ("d3", ["b", "a"])])
def test_a_built_index_reads_back(docs, tmp_path_factory):
    try:
        idx = build_index([Document(doc_id, words) for doc_id, words in docs])
    except (ValueError, DuplicateDocId):
        return
    path = str(tmp_path_factory.mktemp("index") / "idx.npz")
    save_index(idx, path)
    back = load_index(path)
    assert back.doc_ids == idx.doc_ids and back.vocab == idx.vocab
    assert back.doc_lengths.tolist() == idx.doc_lengths.tolist()
    assert back.tokens.tolist() == idx.tokens.tolist()
    if idx.collection_length:
        q = Combine((*map(Term, idx.vocab), Window(2, tuple(idx.vocab[:2]))))
        assert search(back, q, 5) == search(idx, q, 5)


@st.composite
def graph_rows(draw):
    """Node rows, and edge rows between distinct nodes of the kinds their endpoints give."""
    text = draw(st.sampled_from([TITLE, ANY]))
    nodes = draw(st.lists(st.tuples(text, st.sampled_from("AC"), text), max_size=5))
    pairs = st.tuples(st.integers(0, len(nodes) - 1), st.integers(0, len(nodes) - 1))
    edges = []
    for i, j in draw(st.lists(pairs, max_size=6)) if nodes else []:
        if nodes[i][1] + nodes[j][1] == "CA":  # no edge kind runs from a category to an article
            i, j = j, i
        if i != j:
            edges.append((nodes[i][0], nodes[j][0], nodes[i][1] + nodes[j][1]))
    return nodes, edges


@settings(max_examples=200, deadline=None)
@given(rows=graph_rows())
@example(rows=([("a1", "A", "Graffiti\nart")], []))
@example(rows=([("a\t1", "A", "Graffiti")], []))
@example(rows=([("a1", "A", "Graffiti\r")], []))
@example(rows=([("a1", "A", "Graffiti"), ("c 1", "C", "Street art é")], [("a1", "c 1", "AC")]))
@example(rows=([("", "A", "Graffiti"), ("c1", "C", "Street art")], [("", "c1", "AC")]))  # an empty ext id
def test_a_built_graph_reads_back(rows, tmp_path_factory):
    try:
        g = build_graph(*rows)
    except (ValueError, FormatError):  # a row that a TSV file would be refused for, or cannot hold
        return
    path = str(tmp_path_factory.mktemp("kb") / "kb.npz")
    save_snapshot(g, path)
    back = load_snapshot(path)
    assert back.nodes == g.nodes and back._title_index == g._title_index
    assert all(np.array_equal(a, b) for a, b in zip(back._links, g._links))
    assert {k: (s.tolist(), d.tolist()) for k, (s, d) in back._edges().items()} == \
        {k: (s.tolist(), d.tolist()) for k, (s, d) in g._edges().items()}


@settings(max_examples=200, deadline=None)
@given(fields=st.sampled_from([RUN_ID, ANY]).flatmap(lambda s: st.tuples(s, s, st.lists(s, max_size=4))),
       scores=st.lists(st.integers(-3, 3)))
@example(fields=("q 1", "t", ["d1"]), scores=[1])
@example(fields=("q1", "my tag", ["d1"]), scores=[1])
@example(fields=("q1", "t", ["d 1"]), scores=[1])
@example(fields=("q1", "t", [""]), scores=[1])
def test_a_built_ranked_list_reads_back(fields, scores, tmp_path_factory):
    request_id, tag, ids = fields
    entries = list(zip(ids, sorted(map(float, scores), reverse=True)))  # exact at 6 decimals
    try:
        run = RankedList(request_id, entries, tag)
    except ValueError:
        return
    out = io.StringIO()
    write_trec_run([run], out)
    path = tmp_path_factory.mktemp("run") / "run.trec"
    path.write_text(out.getvalue())
    assert read_trec_run(str(path)) == ([run] if entries else [])  # a list with no rows writes no line


# each file format's (magic, version) and the columns, with their dtypes, that its files hold: a
# change of layout that keeps the version fails here, as it would fail to read an older file
LAYOUTS = {
    ("sqe-index", 3): {"doc_ids": "uint8", "doc_lengths": "int64", "tokens": "int32", "vocab": "uint8"},
    ("sqe-kb-snapshot", 3): {
        "AA_dst": "int32", "AA_src": "int32", "AC_dst": "int32", "AC_src": "int32", "CC_dst": "int32",
        "CC_src": "int32", "ext_ids": "uint8", "kinds": "uint8", "titles": "uint8",
    },
}


def test_each_file_layout_is_pinned_to_its_version(tmp_path):
    index, snapshot = str(tmp_path / "idx.npz"), str(tmp_path / "kb.npz")
    save_index(build_index([Document("d1", ["banksy"])]), index)
    save_snapshot(build_graph([("a1", "A", "Graffiti"), ("c1", "C", "Art")], [("a1", "c1", "AC")]), snapshot)
    layouts = {}
    for path in (index, snapshot):
        with np.load(path) as data:
            key = (data["magic"].item(), int(data["version"]))
            layouts[key] = {name: data[name].dtype.name for name in data.files
                            if name not in ("magic", "version")}
    assert layouts == LAYOUTS


def test_the_builders_refuse_what_no_file_can_hold():
    with pytest.raises(ValueError, match="not one token"):
        build_index([Document("d", ["Wall Art"])])
    with pytest.raises(ValueError, match="empty or holds whitespace"):
        build_index([Document("d 1", ["banksy"])])
    with pytest.raises(ValueError, match="tab or line break"):
        build_graph([("a1", "A", "Graffiti\nart")], [])

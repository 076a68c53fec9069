import pytest

import sqe.entity_linker
from sqe.entity_linker import EntityLinker, InputRequest, link
from sqe.errors import NoEntities
from sqe.kb_graph import KBGraph, build_graph
from sqe.text import normalize_title


def titles(g, linked):
    return [g.title(n) for n in linked.input_nodes]


def test_table_examples(graffiti_graph):
    g = graffiti_graph
    linked = link(g, InputRequest("73", "graffiti street art on walls"))
    assert titles(g, linked) == ["Graffiti", "Street_art"]
    assert linked.matched_spans == [(0, 1), (1, 3)]


def test_single_entity(cable_graph):
    g = cable_graph
    linked = link(g, InputRequest("93", "cable car"))
    assert titles(g, linked) == ["Cable_car"]


def test_no_entities(cable_graph):
    with pytest.raises(NoEntities):
        link(cable_graph, InputRequest("110", "male color portrait"))
    with pytest.raises(NoEntities):
        link(cable_graph, InputRequest("x", "   "))


def test_longest_match_dominates():
    g = build_graph(
        [("1", "A", "Cable"), ("2", "A", "Cable_car"), ("3", "C", "T")],
        [("1", "3", "AC"), ("2", "3", "AC")],
    )
    linked = link(g, InputRequest("q", "cable car routes"))
    assert titles(g, linked) == ["Cable_car"]
    # the unigram still matches when the bigram cannot
    linked2 = link(g, InputRequest("q", "cable routes"))
    assert titles(g, linked2) == ["Cable"]


def test_max_ngram_limits_match():
    g = build_graph(
        [("1", "A", "One_two_three"), ("2", "A", "One"), ("3", "C", "T")],
        [("1", "3", "AC"), ("2", "3", "AC")],
    )
    assert titles(g, link(g, InputRequest("q", "one two three"))) == ["One_two_three"]
    short = link(g, InputRequest("q", "one two three"), max_ngram=2)
    assert titles(g, short) == ["One"]
    with pytest.raises(ValueError, match="max_ngram must be >= 1"):
        EntityLinker(g, max_ngram=0)


def test_tokenization_for_punctuated_titles(graffiti_graph):
    g = graffiti_graph
    linked = link(g, InputRequest("q", "above (artist) street art"))
    assert titles(g, linked) == ["Above_(artist)", "Street_art"]


def test_repeated_entity_is_deduplicated(cable_graph):
    g = cable_graph
    linked = link(g, InputRequest("q", "cable car cable car"))
    assert titles(g, linked) == ["Cable_car"]
    assert linked.matched_spans == [(0, 2)]


def test_only_articles_are_linked(cable_graph):
    g = cable_graph
    # Cable_transport exists only as a category title
    with pytest.raises(NoEntities):
        link(g, InputRequest("q", "cable transport"))


def test_deterministic(graffiti_graph):
    g = graffiti_graph
    req = InputRequest("q", "banksy graffiti")
    a = link(g, req)
    b = link(g, req)
    assert a.input_nodes == b.input_nodes and a.matched_spans == b.matched_spans


def test_stop_titles(cable_graph):
    g = cable_graph
    linker = EntityLinker(g, stop_titles={"cable car"})
    with pytest.raises(NoEntities):
        linker.link(InputRequest("q", "cable car"))


def test_table_normalizes_titles_only_for_stop_titles(graffiti_graph, monkeypatch):
    calls, reads = [], []
    stored = KBGraph.normalized_title

    def counting(title):
        calls.append(title)
        return normalize_title(title)

    def counting_reads(g, i):
        reads.append(i)
        return stored(g, i)

    monkeypatch.setattr(sqe.entity_linker, "normalize_title", counting)
    monkeypatch.setattr(KBGraph, "normalized_title", counting_reads)
    EntityLinker(graffiti_graph)
    assert calls == reads == []
    EntityLinker(graffiti_graph, stop_titles={"banksy"})
    # the graph's stored column serves the stop-title check: no title is normalized again
    assert calls == [] and len(reads) == len(graffiti_graph.article_ids())


def test_spans_do_not_overlap(graffiti_graph):
    linked = link(graffiti_graph, InputRequest("q", "banksy stencil graffiti yarn bombing"))
    spans = sorted(linked.matched_spans)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2

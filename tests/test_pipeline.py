import importlib.util
import io
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import merge_oracle
from sqe import cli, pipeline, search_engine
from sqe.entity_linker import InputRequest
from sqe.errors import FormatError, LengthMismatch, NoEntities
from sqe.kb_graph import build_graph
from sqe.motif_expander import MotifKind, expand
from sqe.pipeline import (
    PipelineConfig,
    load_topics,
    make_linker,
    merge_lists,
    run_batch,
    run_request,
    run_request_detailed,
    write_report,
)
from sqe.query_lang import build_expanded_query
from sqe.search_engine import (
    MAX_MU,
    Document,
    RankedList,
    _window_tf,
    build_index,
    prf_expand,
    search,
)
from sqe.text import tokenize

from conftest import GRAFFITI_EDGES, GRAFFITI_NODES, write_tsv

GRAFFITI_DOCS = [
    ("doc01", "banksy painted a stencil on the wall"),
    ("doc02", "yarn bombing is street art with wool"),
    ("doc03", "graffiti culture and urban art in the city"),
    ("doc04", "above the artist travels the world"),
    ("doc05", "public art installations in parks"),
    ("doc06", "john fekner stencil messages"),
    ("doc07", "cars and roads and traffic"),
    ("doc08", "cooking recipes for pasta"),
    ("doc09", "street art graffiti banksy stencil"),
    ("doc10", "the history of mural painting"),
    ("doc11", "urban art exhibitions and street culture"),
    ("doc12", "graffiti removal services"),
]


@pytest.fixture(scope="module")
def graffiti_index():
    return build_index(Document.from_text(d, t) for d, t in GRAFFITI_DOCS)


def ranked(qid, ids, start=100.0):
    return RankedList(qid, [(d, start - i) for i, d in enumerate(ids)])


# -- merge_lists -----------------------------------------------------------------


def test_merge_disjoint_lists_concatenate():
    l0 = ranked("q", [f"a{i}" for i in range(5)])
    l1 = ranked("q", [f"b{i}" for i in range(30)])
    l2 = ranked("q", [f"c{i}" for i in range(965)])
    merged = merge_lists([l0, l1, l2], [5, 30], 1000)
    assert merged.doc_ids() == l0.doc_ids() + l1.doc_ids() + l2.doc_ids()
    assert len(merged.entries) == 1000
    scores = [s for _d, s in merged.entries]
    assert scores[0] == 1000.0 and scores[-1] == 1.0
    assert all(a > b for a, b in zip(scores, scores[1:]))


def test_merge_identical_lists_dedup_to_first():
    ids = [f"d{i}" for i in range(40)]
    lists = [ranked("q", ids) for _ in range(3)]
    merged = merge_lists(lists, [5, 30], 1000)
    assert merged.doc_ids() == ids


def test_merge_duplicates_do_not_consume_quota():
    l0 = ranked("q", ["a", "b"])
    l1 = ranked("q", ["a", "b", "c", "d", "e"])  # a, b already taken
    merged = merge_lists([l0, l1], [2], 4)
    # quota of 2 from l1 counts only appended docs: c and d
    assert merged.doc_ids() == ["a", "b", "c", "d"]


def test_merge_respects_total():
    l0 = ranked("q", [f"x{i}" for i in range(10)])
    l1 = ranked("q", [f"y{i}" for i in range(10)])
    merged = merge_lists([l0, l1], [5], 8)
    assert len(merged.entries) == 8
    assert merged.doc_ids() == [f"x{i}" for i in range(5)] + ["y0", "y1", "y2"]


def test_merge_total_past_the_float_range_keeps_finite_scores():
    l0, l1 = ranked("q", ["a", "b"]), ranked("q", ["c"])
    merged = merge_lists([l0, l1], [5], 10**400)
    assert merged.doc_ids() == ["a", "b", "c"]
    assert [s for _d, s in merged.entries] == [sys.float_info.max] * 3


def test_merge_errors():
    l0 = ranked("q", ["a"])
    with pytest.raises(LengthMismatch):
        merge_lists([l0, l0], [5, 30], 100)
    with pytest.raises(ValueError):
        merge_lists([l0, ranked("other", ["b"])], [5], 100)


def test_merge_properties_on_random_overlapping_lists():
    rng = random.Random(1234)
    for _ in range(60):
        universe = [f"d{i:03d}" for i in range(rng.randint(10, 120))]
        lists = []
        for _j in range(3):
            perm = universe[:]
            rng.shuffle(perm)
            lists.append(ranked("q", perm[:100]))
        merged = merge_lists(lists, [5, 30], 100)
        ids = merged.doc_ids()
        union = set().union(*(l.doc_ids() for l in lists))
        assert len(ids) == len(set(ids))  # no duplicates
        assert len(ids) == min(100, len(union))
        prefix = lists[0].doc_ids()[:5]
        assert ids[: len(prefix)] == prefix  # first list's top 5 preserved
        assert ids == merge_oracle([l.doc_ids() for l in lists], [5, 30], 100)


MERGE_POOL = [f"d{i}" for i in range(10)]  # a small pool, so lists overlap heavily

merge_cases = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.sampled_from(MERGE_POOL), unique=True, max_size=10), min_size=n, max_size=n),
    st.lists(st.integers(1, 14), min_size=n - 1, max_size=n - 1),
    st.integers(1, 12),
))


@settings(max_examples=400, deadline=None)
@given(case=merge_cases)
@example(case=([["a", "b", "c"], ["d", "e"]], [5], 2))  # the first cutoff is above the total
@example(case=([["a", "b"], ["b", "c", "d"], ["e", "f"]], [2, 3], 4))  # the cutoffs sum above it
@example(case=([[], ["a"], []], [1, 1], 3))
def test_merge_matches_oracle(case):
    ids, cutoffs, total = case
    merged = merge_lists([ranked("q", l) for l in ids], cutoffs, total)
    assert merged.request_id == "q"
    assert merged.doc_ids() == merge_oracle(ids, cutoffs, total)
    assert [s for _d, s in merged.entries] == [float(total - r) for r in range(len(merged.entries))]


# -- config and topics -------------------------------------------------------------


def test_config_defaults_valid():
    cfg = PipelineConfig()
    assert [l for l, _k in cfg.plan] == ["eq1", "eq2", "eq3"]
    assert cfg.cutoffs == (5, 30) and cfg.total == 1000


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(plan=(("a", MotifKind.BOTH),), cutoffs=(5,))
    with pytest.raises(ValueError):
        PipelineConfig(cutoffs=(5, 0))
    with pytest.raises(ValueError):
        PipelineConfig(cutoffs=(600, 600))
    with pytest.raises(ValueError):
        PipelineConfig(plan=(("x", MotifKind.BOTH), ("x", MotifKind.SQUARE)), cutoffs=(5,))


@pytest.mark.parametrize("key, value", [
    ("mu", 0.0), ("mu", -5.0), ("mu", float("nan")), ("total", 0), ("orig_weight", 0.0),
    ("orig_weight", 1.0), ("max_ngram", 0), ("mu", 1e308), ("mu", MAX_MU * 1.01),
])
def test_config_rejects_out_of_range_values(key, value):
    with pytest.raises(ValueError, match=key):
        PipelineConfig(plan=(("only", MotifKind.BOTH),), cutoffs=(), **{key: value})


def test_config_values_share_the_flag_wording():
    for kwargs, message in [
        ({"cutoffs": (5, 0)}, "cutoff must be an integer >= 1, got 0"),
        ({"total": 0}, "total must be an integer >= 1, got 0"),
        ({"max_ngram": -2}, "max_ngram must be an integer >= 1, got -2"),
        ({"mu": 1e308}, f"mu must be a number > 0 and <= {MAX_MU:g}, got 1e+308"),
        ({"orig_weight": 1.0}, "orig_weight must be a number strictly between 0 and 1, got 1.0"),
    ]:
        with pytest.raises(ValueError) as exc:
            PipelineConfig(**kwargs)
        assert str(exc.value) == message


def test_config_file_empty_cutoffs_mean_none(tmp_path):
    path = tmp_path / "sqe.conf"
    path.write_text("plan = only:both\ncutoffs =\n")
    cfg = PipelineConfig.from_file(str(path))
    assert cfg.plan == (("only", MotifKind.BOTH),) and cfg.cutoffs == ()


def test_config_from_file(tmp_path):
    path = tmp_path / "sqe.conf"
    path.write_text(
        """
# comment
plan = one:triangular, two:both
cutoffs = 7
total = 50
prf = on
mu = 2000
fb_docs = 5
fb_terms = 7
orig_weight = 0.6
max_ngram = 4
stop_titles = stop.txt
stopwords = words.txt
tag = mytag
"""
    )
    cfg = PipelineConfig.from_file(str(path))
    assert cfg.plan == (("one", MotifKind.TRIANGULAR), ("two", MotifKind.BOTH))
    assert cfg.cutoffs == (7,) and cfg.total == 50
    assert cfg.prf is True and cfg.mu == 2000.0
    assert (cfg.fb_docs, cfg.fb_terms, cfg.orig_weight) == (5, 7, 0.6)
    assert cfg.max_ngram == 4 and cfg.tag == "mytag"
    assert (cfg.stop_titles_path, cfg.stopwords_path) == ("stop.txt", "words.txt")

    bad = tmp_path / "bad.conf"
    for key in ("nonsense", "stop_titles_path", "stopwords_path"):  # a path field's key drops _path
        bad.write_text(f"{key} = 1\n")
        with pytest.raises(FormatError):
            PipelineConfig.from_file(str(bad))
    bad2 = tmp_path / "bad2.conf"
    bad2.write_text("plan one:both\n")
    with pytest.raises(FormatError):
        PipelineConfig.from_file(str(bad2))


def test_load_topics(tmp_path):
    path = tmp_path / "topics.tsv"
    path.write_text("73\tgraffiti street art on walls\n93\tcable car\n")
    topics = load_topics(str(path))
    assert [t.request_id for t in topics] == ["73", "93"]
    assert topics[0].text == "graffiti street art on walls"
    bad = tmp_path / "bad.tsv"
    bad.write_text("justtext\n")
    with pytest.raises(FormatError):
        load_topics(str(bad))
    dup = tmp_path / "dup.tsv"
    dup.write_text("73\tgraffiti\n 73 \tbanksy\n")  # ids are compared as written to the run file
    with pytest.raises(FormatError) as exc:
        load_topics(str(dup))
    assert exc.value.line == 2
    for line in ["\tbanksy", " \tbanksy", "7 3\tbanksy", "7\u00a03\tbanksy"]:  # no run line holds them
        bad.write_text(f"73\tgraffiti\n{line}\n")
        with pytest.raises(FormatError, match="is empty or holds whitespace") as exc:
            load_topics(str(bad))
        assert exc.value.line == 2
    for line, fault in [("q1\t", "empty request text"), ("q1\t  ", "empty request text"),
                        ("q1\t!!!", "request text '!!!' has no token")]:
        bad.write_text(f"73\tgraffiti\n{line}\n")
        with pytest.raises(FormatError, match=fault) as exc:
            load_topics(str(bad))
        assert exc.value.line == 2 and str(bad) in str(exc.value)


# -- run_request -------------------------------------------------------------------


def one_request(g, idx, req, cfg):
    """A one-topic batch: the request's run and its report."""
    (run,), (report,) = run_batch(g, idx, [req], cfg)
    return run, report


def test_single_plan_equals_plain_search(graffiti_graph, graffiti_index):
    g, idx = graffiti_graph, graffiti_index
    cfg = PipelineConfig(plan=(("only", MotifKind.BOTH),), cutoffs=(), total=12)
    req = InputRequest("73", "graffiti street art on walls")
    merged = run_request(g, idx, req, cfg)

    inputs = [g.article_by_title("Graffiti"), g.article_by_title("Street_art")]
    qg = expand(g, inputs, MotifKind.BOTH)
    query = build_expanded_query(
        tokenize(req.text), [g.title(n) for n in inputs], qg, g
    ).root
    plain = search(idx, query, 12, "73")
    assert merged.doc_ids() == plain.doc_ids()


def test_no_entities_falls_back_to_input_only(cable_graph, graffiti_index):
    cfg = PipelineConfig(cutoffs=(3, 3), total=12)
    req = InputRequest("110", "male color portrait")
    merged, report = one_request(cable_graph, graffiti_index, req, cfg)
    assert report.fallback is True
    assert report.entities == []
    query = build_expanded_query(tokenize(req.text), [], None).root
    plain = search(graffiti_index, query, 12, "110")
    assert merged.doc_ids() == plain.doc_ids()
    assert "link" in report.timings_ms and "query" in report.timings_ms


@pytest.mark.parametrize("prf", [False, True])
def test_fallback_run_is_one_input_only_search(cable_graph, graffiti_index, prf):
    """With no linked entity the run is the input-only search, under the run tag."""
    cfg = PipelineConfig(cutoffs=(3, 3), total=12, prf=prf, fb_docs=3, fb_terms=2, tag="mine")
    req = InputRequest("110", "male color portrait")
    merged, report = one_request(cable_graph, graffiti_index, req, cfg)
    query = build_expanded_query(tokenize(req.text), [], None).root
    if prf:
        query = prf_expand(graffiti_index, query, 3, 2, cfg.orig_weight, None, cfg.mu)
    plain = search(graffiti_index, query, 12, "110", "mine")
    assert (merged.entries, merged.tag) == (plain.entries, plain.tag)
    buf = io.StringIO()
    write_report([report], cfg, buf)
    row = dict(zip(*(line.split("\t") for line in buf.getvalue().splitlines())))
    assert row["fallback"] == "yes"
    assert [row[f"n_expansion_{label}"] for label in ("eq1", "eq2", "eq3")] == ["0", "0", "0"]


def test_three_plan_run_first_five_from_eq1(graffiti_graph, graffiti_index):
    g, idx = graffiti_graph, graffiti_index
    cfg = PipelineConfig(cutoffs=(5, 3), total=12)
    req = InputRequest("73", "graffiti street art on walls")
    merged, report = one_request(g, idx, req, cfg)

    # independent eq1 (triangular) search
    inputs = [g.article_by_title("Graffiti"), g.article_by_title("Street_art")]
    qg1 = expand(g, inputs, MotifKind.TRIANGULAR)
    q1 = build_expanded_query(tokenize(req.text), [g.title(n) for n in inputs], qg1, g).root
    eq1 = search(idx, q1, 12, "73")
    assert merged.doc_ids()[:5] == eq1.doc_ids()[:5]
    assert report.fallback is False
    assert report.entities == ["Graffiti", "Street_art"]
    assert report.expansion_sizes == {"eq1": 7, "eq2": 7, "eq3": 7}
    assert set(report.timings_ms) == {
        "link", "expand_eq1", "expand_eq2", "expand_eq3", "query",
    }


def test_run_request_deterministic(graffiti_graph, graffiti_index):
    cfg = PipelineConfig(cutoffs=(3, 3), total=10)
    req = InputRequest("73", "graffiti street art on walls")
    a = run_request(graffiti_graph, graffiti_index, req, cfg)
    b = run_request(graffiti_graph, graffiti_index, req, cfg)
    assert a.entries == b.entries


def test_run_request_with_feedback_enabled(graffiti_graph, graffiti_index):
    cfg = PipelineConfig(cutoffs=(3, 3), total=10, prf=True, fb_docs=3, fb_terms=2)
    req = InputRequest("73", "graffiti street art on walls")
    merged, report = one_request(graffiti_graph, graffiti_index, req, cfg)
    assert len(merged.entries) == 10
    assert report.fallback is False
    # feedback is deterministic, so reruns agree
    again = run_request(graffiti_graph, graffiti_index, req, cfg)
    assert merged.entries == again.entries


def test_run_batch_order_and_jobs(graffiti_graph, graffiti_index):
    cfg = PipelineConfig(cutoffs=(3, 3), total=10)
    topics = [
        InputRequest("73", "graffiti street art on walls"),
        InputRequest("110", "male color portrait"),
        InputRequest("b1", "banksy"),
    ]
    runs, reports = run_batch(graffiti_graph, graffiti_index, topics, cfg, jobs=1)
    assert [r.request_id for r in runs] == ["73", "110", "b1"]
    assert reports[1].fallback is True
    for jobs in (2, 0):  # requests run in order, one at a time
        with pytest.raises(ValueError, match=f"jobs must be 1, got {jobs}"):
            run_batch(graffiti_graph, graffiti_index, topics, cfg, jobs=jobs)


@pytest.mark.parametrize("prf", [False, True])
def test_shared_work_never_leaves_a_request(graffiti_graph, graffiti_index, prf):
    """Memos are per request or per batch: what ran before cannot change a request's result."""
    g, idx = graffiti_graph, graffiti_index
    cfg = PipelineConfig(cutoffs=(3, 3), total=10, prf=prf, fb_docs=3, fb_terms=2)
    a = InputRequest("73", "graffiti street art on walls")
    b = InputRequest("b1", "banksy stencil")
    alone, alone_report = one_request(g, idx, b, cfg)
    one_request(g, idx, a, cfg)
    after_a, after_a_report = one_request(g, idx, b, cfg)
    assert after_a.entries == alone.entries
    assert after_a_report.expansion_sizes == alone_report.expansion_sizes

    runs, reports = run_batch(g, idx, [b, a, b], cfg)
    assert runs[0].entries == runs[2].entries == alone.entries
    assert reports[0].expansion_sizes == reports[2].expansion_sizes


# linked, fallback and overlapping topics: titles recur across them
BATCH_TOPICS = [
    InputRequest("73", "graffiti street art on walls"),
    InputRequest("b1", "banksy stencil"),
    InputRequest("110", "male color portrait"),
    InputRequest("y1", "yarn bombing and urban art"),
    InputRequest("p1", "public art by john fekner"),
]


@settings(max_examples=60, deadline=None)
@given(
    topic=st.sampled_from(BATCH_TOPICS),
    cutoffs=st.lists(st.integers(1, 6), min_size=2, max_size=2),
    extra=st.integers(0, 8),
    prf=st.booleans(),
)
@example(topic=BATCH_TOPICS[0], cutoffs=[3, 3], extra=0, prf=False)  # eq2's top 3 are eq1's
def test_merge_of_searches_cut_to_what_it_reads_equals_full_merge(
    graffiti_graph, graffiti_index, topic, cutoffs, extra, prf
):
    g, idx = graffiti_graph, graffiti_index
    cfg = PipelineConfig(cutoffs=tuple(cutoffs), total=sum(cutoffs) + extra, prf=prf,
                         fb_docs=3, fb_terms=2)
    try:
        inputs = make_linker(g, cfg.max_ngram, None).link(topic).input_nodes
    except NoEntities:
        inputs = []
    full = []
    for _label, kind in cfg.plan if inputs else cfg.plan[:1]:
        qg = expand(g, inputs, kind) if inputs else None
        query = build_expanded_query(tokenize(topic.text), [g.title(n) for n in inputs], qg, g).root
        if prf:
            query = prf_expand(idx, query, cfg.fb_docs, cfg.fb_terms, cfg.orig_weight, None, cfg.mu)
        full.append(search(idx, query, cfg.total).doc_ids())
    want = merge_oracle(full, cfg.cutoffs, cfg.total) if inputs else full[0]
    assert run_request(g, idx, topic, cfg).doc_ids() == want


@pytest.mark.parametrize("prf", [False, True])
@settings(max_examples=25, deadline=None)
@given(order=st.lists(st.sampled_from(BATCH_TOPICS), min_size=1, max_size=8))
def test_run_batch_equals_fresh_requests(graffiti_graph, graffiti_index, prf, order):
    """The batch's shared window memo cannot change any request's result."""
    g, idx = graffiti_graph, graffiti_index
    cfg = PipelineConfig(cutoffs=(3, 3), total=10, prf=prf, fb_docs=3, fb_terms=2)
    runs, _reports = run_batch(g, idx, order, cfg)
    assert [r.entries for r in runs] == [run_request(g, idx, req, cfg).entries for req in order]


def _bench_spans():
    """``bench/spans.py``, loaded from its file without touching ``sys.path``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("prf", [False, True], ids=["prf-off", "prf-on"])
def test_every_traced_boundary_records_a_span(prf, graffiti_graph, graffiti_index, tmp_path):
    """The boundaries that the benchmark wraps are still the ones a run passes through."""
    spans = _bench_spans()
    g, idx = graffiti_graph, graffiti_index
    cfg = PipelineConfig(cutoffs=(3, 3), total=10, prf=prf, fb_docs=3, fb_terms=2)
    nodes = write_tsv(tmp_path / "nodes.tsv", GRAFFITI_NODES)
    edges = write_tsv(tmp_path / "edges.tsv", GRAFFITI_EDGES)
    docs = tmp_path / "docs.jsonl"
    docs.write_text("".join(json.dumps({"id": d, "text": t}) + "\n" for d, t in GRAFFITI_DOCS))
    untraced, _reports = run_batch(g, idx, BATCH_TOPICS, cfg)

    tracer = spans.Tracer(layers=True)
    with spans.patched(tracer, spans.WindowLog()):
        assert cli.main(["ingest", "--nodes", nodes, "--edges", edges,
                         "--out", str(tmp_path / "kb.bin")]) == 0
        assert cli.main(["index", "--docs", str(docs), "--out", str(tmp_path / "index.bin")]) == 0
        runs, _reports = run_batch(g, idx, BATCH_TOPICS, cfg)
    assert [r.entries for r in runs] == [r.entries for r in untraced]
    assert pipeline.search is search and pipeline.merge_lists is merge_lists  # restored

    want = {
        "kb_graph.load_graph", "kb_graph.save_snapshot", "search_engine.build_index",
        "pipeline.run_request", "entity_linker.table_build", "entity_linker.link",
        "query_lang.build_expanded_query", "search_engine.search", "pipeline.merge_lists",
    } | {f"motif_expander.expand.{kind.value}" for kind in MotifKind}
    if prf:
        want.add("search_engine.prf_expand")
    assert want <= {sp.name for sp in tracer.spans}
    assert len(tracer.named("pipeline.run_request")) == len(BATCH_TOPICS)


def spy_on_matches(monkeypatch) -> list:
    """Each request's window ``matches`` memo, with its size when the request starts."""
    seen = []
    inner = pipeline.run_request_detailed

    def spy(*args, matches=None, **kwargs):
        seen.append((matches, None if matches is None else len(matches)))
        return inner(*args, matches=matches, **kwargs)

    monkeypatch.setattr(pipeline, "run_request_detailed", spy)
    return seen


def test_batch_window_memo_holds_positive_multi_token_pairs(graffiti_graph, graffiti_index,
                                                            monkeypatch):
    g, idx = graffiti_graph, graffiti_index
    cfg = PipelineConfig(cutoffs=(3, 3), total=10)
    seen = spy_on_matches(monkeypatch)
    runs, _reports = run_batch(g, idx, BATCH_TOPICS, cfg)
    memo, size_at_start = seen[0]
    assert size_at_start == 0 and all(m is memo for m, _size in seen)
    assert memo  # the topics' titles include multi-token phrases
    for key, (ordinals, counts) in memo.items():
        n, tokens = key
        assert isinstance(n, int) and isinstance(tokens, tuple) and len(tokens) > 1
        assert (counts > 0).all()
        tf = _window_tf(idx, n, tokens, {})
        assert np.array_equal(np.unique(ordinals), np.flatnonzero(tf))
        assert np.array_equal(np.bincount(ordinals, weights=counts, minlength=idx.n_docs), tf)
    keys = set(memo)

    seen.clear()
    again, _reports = run_batch(g, idx, BATCH_TOPICS, cfg)
    assert [r.entries for r in again] == [r.entries for r in runs]
    assert seen[0][0] is not memo and seen[0][1] == 0  # each batch starts its own memo
    assert set(memo) == keys  # and never writes into an earlier one
    assert not any(v is memo for module in (pipeline, search_engine) for v in vars(module).values())


def test_run_batch_reads_stopwords_file_as_run_request_does(graffiti_graph, graffiti_index, tmp_path):
    g, idx = graffiti_graph, graffiti_index
    path = tmp_path / "stop.txt"
    path.write_text("art street\n")
    feedback = dict(cutoffs=(3, 3), total=10, prf=True, fb_docs=3, fb_terms=2)
    cfg = PipelineConfig(stopwords_path=str(path), **feedback)
    topics = [InputRequest("73", "graffiti street art on walls"), InputRequest("b1", "banksy")]
    runs, _reports = run_batch(g, idx, topics, cfg)
    linker = make_linker(g, cfg.max_ngram, None)
    for req, run in zip(topics, runs):
        assert run.entries == run_request(g, idx, req, cfg).entries
        given, _report = run_request_detailed(g, idx, req, PipelineConfig(**feedback), linker,
                                              frozenset({"art", "street"}), matches={})
        assert given.entries == run.entries


def test_write_report(graffiti_graph, graffiti_index):
    cfg = PipelineConfig(cutoffs=(3, 3), total=10)
    topics = [InputRequest("73", "graffiti street art on walls")]
    _runs, reports = run_batch(graffiti_graph, graffiti_index, topics, cfg)
    buf = io.StringIO()
    write_report(reports, cfg, buf)
    lines = buf.getvalue().splitlines()
    header = lines[0].split("\t")
    assert header[:3] == ["qid", "entities", "fallback"]
    assert "expand_eq2_ms" in header and "query_ms" in header
    row = lines[1].split("\t")
    assert row[0] == "73"
    assert row[1] == "Graffiti|Street_art"
    assert row[2] == "no"

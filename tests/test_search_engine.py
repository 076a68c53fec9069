import io
import math
import random
import string

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sqe.errors import DuplicateDocId, EmptyCollection, FormatError
from sqe.pipeline import merge_lists
from sqe.query_lang import MAX_DEPTH, Combine, Term, Weight, Window, parse, render
from sqe.search_engine import (
    DEFAULT_MU,
    UNSEEN_CF,
    Document,
    Index,
    Leaves,
    RankedList,
    _best,
    _dirichlet,
    _leaf_block,
    _leaf_nodes,
    _leaf_tf,
    _score_vector,
    _top,
    _window_matches,
    build_index,
    default_stopwords,
    load_index,
    prf_expand,
    query_tokens,
    read_documents,
    read_trec_run,
    save_index,
    score_node,
    search,
    window_tf,
    write_trec_run,
)
from sqe.text import TOKEN

from oracles import naive_ranking, naive_score, window_tf_oracle


def docs_from(pairs):
    return [Document.from_text(d, t) for d, t in pairs]


def test_build_index_counts():
    idx = build_index(docs_from([("d1", "a b a")]))
    assert idx.collection_tf["a"] == 2
    # "a" sits at positions 0 and 2: one gap of two, no adjacent pair
    assert window_tf(idx, 0, 2, ["a", "a"]) == 1
    assert window_tf(idx, 0, 1, ["a", "a"]) == 0
    assert idx.collection_length == 3
    assert idx.doc_lengths.tolist() == [3]


def test_empty_collection_index_and_search():
    idx = build_index([])
    assert idx.n_docs == 0
    assert search(idx, Term("x"), 10).entries == []
    with pytest.raises(EmptyCollection):
        score_node(idx, Term("x"), 0)
    # documents without tokens have no language model to score against
    degenerate = build_index([Document("d1", []), Document("d2", [])])
    with pytest.raises(EmptyCollection):
        search(degenerate, Term("x"), 10)


def test_duplicate_doc_id():
    with pytest.raises(DuplicateDocId):
        build_index(docs_from([("d", "a"), ("d", "b")]))


def test_collection_length_matches_token_count_oracle():
    rng = random.Random(31)
    pairs = [
        (f"d{i}", " ".join(rng.choices(string.ascii_lowercase[:9], k=rng.randint(0, 40))))
        for i in range(100)
    ]
    docs = docs_from(pairs)
    idx = build_index(docs)
    assert idx.collection_length == sum(len(d.tokens) for d in docs)
    assert sum(idx.collection_tf.values()) == idx.collection_length


def test_window_tf_examples():
    idx = build_index(docs_from([("d1", "new york city"), ("d2", "new big york")]))
    assert window_tf(idx, "d1", 1, ["new", "york"]) == 1
    assert window_tf(idx, "d2", 1, ["new", "york"]) == 0
    assert window_tf(idx, "d2", 2, ["new", "york"]) == 1
    assert window_tf(idx, "d1", 5, ["city"]) == 1  # single token counts occurrences
    assert window_tf(idx, "d1", 1, ["city", "new"]) == 0  # order matters
    with pytest.raises(ValueError, match="window tokens"):  # not the tokens "n", "e" and "w"
        window_tf(idx, "d1", 1, "new")


def test_documents_are_named_by_id_or_by_an_ordinal_in_range():
    idx = build_index(docs_from([("d1", "x y"), ("d2", "y")]))
    assert window_tf(idx, 1, 1, ["y"]) == window_tf(idx, np.int64(1), 1, ["y"]) == 1
    assert score_node(idx, Term("x"), 0) == score_node(idx, Term("x"), "d1")
    # a negative ordinal would read from the end, one past the last would reach numpy
    for doc in (-1, 2, True, False, 1.0, "d3"):
        with pytest.raises(KeyError):
            window_tf(idx, doc, 1, ["y"])
        with pytest.raises(KeyError):
            score_node(idx, Term("x"), doc)


def test_window_tf_matches_tuple_oracle():
    rng = random.Random(77)
    vocab = list("abcd")
    docs = [
        Document(f"d{i}", rng.choices(vocab, k=rng.randint(1, 30))) for i in range(40)
    ]
    idx = build_index(docs)
    for _ in range(300):
        doc = rng.choice(docs)
        pattern = rng.choices(vocab, k=rng.randint(1, 3))
        n = rng.randint(1, 4)
        assert window_tf(idx, doc.doc_id, n, pattern) == window_tf_oracle(
            doc.tokens, n, pattern
        )


def test_exact_phrase_equals_substring_count():
    rng = random.Random(99)
    vocab = list("ab")
    for _ in range(50):
        tokens = rng.choices(vocab, k=rng.randint(2, 25))
        pattern = rng.choices(vocab, k=2)
        idx = build_index([Document("d", tokens)])
        expected = sum(
            1
            for i in range(len(tokens) - 1)
            if tokens[i : i + 2] == pattern
        )
        assert window_tf(idx, "d", 1, pattern) == expected


FIXTURE = [
    ("d1", "graffiti on the wall"),
    ("d2", "street art and stencil work"),
    ("d3", "banksy stencil graffiti art"),
    ("d4", "a plain document about cars"),
    ("d5", "yarn bombing urban art"),
]


def test_score_node_identities():
    idx = build_index(docs_from(FIXTURE))
    q = Term("graffiti")
    # single-child combine equals the child
    assert score_node(idx, Combine((q,)), "d1") == pytest.approx(score_node(idx, q, "d1"))
    # equal weights behave like combine
    w = Weight(((2.0, Term("graffiti")), (2.0, Term("art"))))
    c = Combine((Term("graffiti"), Term("art")))
    for d, _t in FIXTURE:
        assert score_node(idx, w, d) == pytest.approx(score_node(idx, c, d))
    # absent term stays finite through the 0.5 collection-frequency floor
    s = score_node(idx, Term("zebra"), "d1")
    assert math.isfinite(s) and s < 0


def test_scores_match_independent_scorer():
    idx = build_index(docs_from(FIXTURE))
    raw = [(d, Document.from_text(d, t).tokens) for d, t in FIXTURE]
    queries = [
        Term("graffiti"),
        Window(1, ("street", "art")),
        Window(2, ("banksy", "graffiti")),
        Combine((Term("art"), Window(1, ("yarn", "bombing")))),
        Weight(((3.0, Term("stencil")), (1.0, Term("cars")))),
        parse("#combine( #combine( graffiti art ) #weight( 2.0 #1(street art) 1.0 banksy ) )"),
    ]
    for q in queries:
        for d, _t in FIXTURE:
            assert score_node(idx, q, d) == pytest.approx(
                naive_score(raw, q, d), rel=1e-12
            )


def test_search_matches_naive_ranking_on_random_docs():
    rng = random.Random(5)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon"]
    pairs = [
        (f"d{i:02d}", " ".join(rng.choices(vocab, k=rng.randint(1, 12))))
        for i in range(20)
    ]
    docs = docs_from(pairs)
    raw = [(d.doc_id, d.tokens) for d in docs]
    idx = build_index(docs)
    queries = [
        Term("alpha"),
        Combine((Term("alpha"), Term("beta"))),
        Weight(((2.0, Term("gamma")), (5.0, Window(2, ("alpha", "beta"))))),
    ]
    for q in queries:
        got = search(idx, q, 20, request_id="r").entries
        want = naive_ranking(raw, q, 20)
        assert [d for d, _s in got] == [d for d, _s in want]
        for (d1, s1), (d2, s2) in zip(got, want):
            assert s1 == pytest.approx(s2, rel=1e-12)


def test_dirichlet_properness():
    rng = random.Random(8)
    vocab = ["w" + str(i) for i in range(30)]
    docs = docs_from(
        [(f"d{i}", " ".join(rng.choices(vocab, k=rng.randint(1, 60)))) for i in range(50)]
    )
    idx = build_index(docs)
    for d, _t in [(f"d{i}", None) for i in range(0, 50, 7)]:
        total = sum(math.exp(score_node(idx, Term(t), d)) for t in idx.collection_tf)
        assert abs(total - 1.0) <= 1e-9


def test_term_monotonicity():
    base = docs_from(FIXTURE)
    idx1 = build_index(base)
    more = [Document(d.doc_id, list(d.tokens)) for d in base]
    more[0].tokens.append("graffiti")
    idx2 = build_index(more)
    assert score_node(idx2, Term("graffiti"), "d1") > score_node(idx1, Term("graffiti"), "d1")


def test_weight_scale_invariance():
    idx = build_index(docs_from(FIXTURE))
    w1 = Weight(((2.0, Term("graffiti")), (3.0, Term("stencil"))))
    w10 = Weight(((20.0, Term("graffiti")), (30.0, Term("stencil"))))
    r1 = search(idx, w1, 5)
    r10 = search(idx, w10, 5)
    assert r1.doc_ids() == r10.doc_ids()
    for (d1, s1), (d2, s2) in zip(r1.entries, r10.entries):
        assert s1 == pytest.approx(s2)


def test_search_ties_and_k():
    idx = build_index(docs_from([("b", "x"), ("a", "x"), ("c", "y")]))
    out = search(idx, Term("x"), 10)
    assert out.doc_ids() == ["a", "b", "c"]  # ties broken by doc id
    assert len(search(idx, Term("x"), 2).entries) == 2


def test_insertion_order_independence():
    rng = random.Random(12)
    pairs = [(f"d{i}", " ".join(rng.choices("xyz", k=5))) for i in range(10)]
    idx1 = build_index(docs_from(pairs))
    idx2 = build_index(docs_from(list(reversed(pairs))))
    q = Combine((Term("x"), Term("y")))
    assert search(idx1, q, 10).entries == search(idx2, q, 10).entries


def test_ranked_list_rejects_nan_scores():
    nan = float("nan")
    for scores in ([1.0, nan, 0.5], [nan, 1.0, nan, 2.0], [nan], [2.0, 1.0, nan], [nan, nan]):
        entries = [(f"d{i}", s) for i, s in enumerate(scores)]
        with pytest.raises(ValueError, match="scores must be non-increasing"):
            RankedList("q", entries)
    inf = float("inf")
    assert RankedList("q", [("a", inf), ("b", 0.0), ("c", -inf)]).doc_ids() == ["a", "b", "c"]


def test_ranked_list_invariants():
    with pytest.raises(ValueError, match="scores must be non-increasing"):
        RankedList("q", [("a", 1.0), ("b", 2.0)])
    with pytest.raises(ValueError, match="scores must be non-increasing"):
        RankedList("q", [("a", 3.0), ("b", 3.0), ("c", 1.0), ("d", 1.5)])
    with pytest.raises(ValueError, match="doc ids must be unique"):
        RankedList("q", [("a", 2.0), ("a", 1.0)])
    with pytest.raises(ValueError, match="doc ids must be unique"):
        RankedList("q", [("a", 2.0), ("b", 2.0), ("c", 1.0), ("b", 0.5)])
    assert RankedList("q", [("a", 2.0), ("b", 2.0), ("c", 2.0)]).doc_ids() == ["a", "b", "c"]
    assert RankedList("q", [("a", 2.0)]).doc_ids() == ["a"]
    assert RankedList("q", []).doc_ids() == []
    for score in (10**400, "1.5", None, 1j, [1.0]):  # not a real number, or past the float range
        with pytest.raises(ValueError, match="scores must be non-increasing numbers"):
            RankedList("q", [("a", score)])


RUN_ID_FAULTS = {  # each wrote a run line of 7 fields, or 5, that read_trec_run refused
    "request-id-with-space": lambda: RankedList("q 1", [("d1", 1.0)]),
    "doc-id-with-space": lambda: RankedList("q1", [("d 1", 1.0)]),
    "tag-with-space": lambda: RankedList("q1", [("d1", 1.0)], "my tag"),
    "empty-doc-id": lambda: RankedList("q1", [("", 1.0)]),
    "columns-empty-request-id": lambda: RankedList._from_columns("", ["d1"], [1.0], "t"),
    "columns-tag-with-newline": lambda: RankedList._from_columns("q1", ["d1"], [1.0], "t\n"),
}


@pytest.mark.parametrize("case", sorted(RUN_ID_FAULTS))
def test_ranked_list_refuses_ids_that_do_not_fit_a_run_line(case):
    with pytest.raises(ValueError, match="must be non-empty, with no whitespace"):
        RUN_ID_FAULTS[case]()


COLUMN_SCORES = [math.inf, 3.0, 1.5, 0.0, -0.0, -2.0, -math.inf, math.nan]


def _ids_and_scores(n):
    scores = st.lists(st.sampled_from(COLUMN_SCORES), min_size=n, max_size=n)
    return st.tuples(
        st.lists(st.sampled_from("abcdefg"), min_size=n, max_size=n),  # repeats allowed
        st.one_of(scores, scores.map(lambda s: sorted(s, reverse=True))),  # nans land anywhere
    )


ranked_columns = st.integers(0, 6).flatmap(_ids_and_scores)


def list_or_message(make):
    try:
        return make()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(columns=ranked_columns)
@example(columns=([], []))
@example(columns=(["a"], [math.nan]))
@example(columns=(["a", "b"], [math.nan, 1.0]))
@example(columns=(["a", "b"], [1.0, math.nan]))
@example(columns=(["a", "b", "c"], [math.inf, 0.0, -math.inf]))
@example(columns=(["a", "b", "c"], [1.5, 1.5, 1.5]))
@example(columns=(["a", "b"], [1.0, 2.0]))
@example(columns=(["a", "a"], [2.0, 1.0]))
def test_list_from_columns_equals_list_from_tuples(columns):
    ids, scores = columns
    if not all(a >= b for a, b in zip(scores, scores[1:])) or any(map(math.isnan, scores)):
        want = "ranked list scores must be non-increasing numbers"
    elif len(set(ids)) != len(ids):
        want = "ranked list doc ids must be unique"
    else:
        want = list(zip(ids, scores))
    from_tuples = list_or_message(lambda: RankedList("q", list(zip(ids, scores)), "t"))
    owned = np.array(scores, dtype=np.float64)
    from_columns = list_or_message(lambda: RankedList._from_columns("q", ids, owned, "t"))
    assert owned.flags.writeable  # the caller's array is not frozen
    if isinstance(want, str):
        assert from_tuples == from_columns == want
        return
    assert from_columns == from_tuples
    assert from_columns.entries == from_tuples.entries == want
    assert from_columns.doc_ids() == from_tuples.doc_ids() == ids
    owned[:] = 7.0  # nor is it shared with the list
    assert from_columns.entries == want
    assert from_columns != RankedList("q", want, "other-tag")
    assert from_columns != RankedList("other", want, "t")


def test_ranked_lists_are_immutable(tmp_path):
    idx = build_index(docs_from([("d1", "x y"), ("d2", "x"), ("d3", "y")]))
    found = search(idx, Term("x"), 10)
    merged = merge_lists([found, search(idx, Term("y"), 10)], [1], 5)
    path = tmp_path / "run.trec"
    with open(path, "w") as out:
        write_trec_run([merged], out)
    (read,) = read_trec_run(str(path))
    for ranked in (found, merged, read, RankedList("q", [("a", 1.0)])):
        assert not ranked.scores.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ranked.scores[0] = 99.0
        with pytest.raises(TypeError, match="unhashable"):
            hash(ranked)
    assert read == RankedList(merged.request_id, merged.entries, merged.tag)


# -- pseudo-relevance feedback -------------------------------------------------


PRF_FIXTURE = [
    ("d1", "q apple apple banana"),
    ("d2", "q apple cherry"),
    ("d3", "q banana"),
    ("d4", "other words entirely"),
    ("d5", "q q apple"),
]


def test_prf_returns_query_unchanged_on_edge_cases():
    idx = build_index(docs_from(PRF_FIXTURE))
    q = Term("q")
    assert prf_expand(idx, q, fb_terms=0) is q
    assert prf_expand(idx, q, fb_docs=0) is q
    assert prf_expand(build_index([]), q) is q


@pytest.mark.filterwarnings("ignore:divide by zero encountered in log")
def test_prf_with_an_underflowing_smoothing_term():
    """At mu = 5e-324, mu * cf / |C| is 0, so a document without a query term scores -inf."""
    idx = build_index(docs_from(PRF_FIXTURE))
    q = Term("zzz")
    assert prf_expand(idx, q, mu=5e-324) is q  # every feedback score is -inf
    # d1 and d3 hold banana; the other feedback documents' softmax shares are 0
    got = prf_expand(idx, Term("banana"), fb_docs=5, fb_terms=10, mu=5e-324)
    assert {t.token for _w, t in got.entries[1][1].entries} == {"q", "apple"}


def test_prf_hand_computed_weights():
    idx = build_index(docs_from(PRF_FIXTURE))
    raw = [(d, Document.from_text(d, t).tokens) for d, t in PRF_FIXTURE]
    q = Term("q")
    got = prf_expand(idx, q, fb_docs=3, fb_terms=2, orig_weight=0.5)

    # independent recomputation: top 3 docs by the naive scorer, softmax
    # of their scores, then w(t) = sum of P(t|d) * softmax(d)
    top = naive_ranking(raw, q, 3)
    assert [d for d, _s in top] == ["d5", "d3", "d2"]
    scores = np.array([s for _d, s in top])
    soft = np.exp(scores - scores.max())
    soft /= soft.sum()
    tokens_by_doc = dict(raw)
    expected = {}
    for (doc, _s), w in zip(top, soft):
        toks = tokens_by_doc[doc]
        for t in set(toks) - {"q"}:
            expected[t] = expected.get(t, 0.0) + w * toks.count(t) / len(toks)
    best = sorted(expected.items(), key=lambda e: (-e[1], e[0]))[:2]

    assert isinstance(got, Weight)
    (w_orig, child_orig), (w_fb, feedback) = got.entries
    assert (w_orig, child_orig) == (0.5, q)
    assert w_fb == 0.5
    assert [(t.token) for _w, t in feedback.entries] == [t for t, _w in best]
    for (w, _term), (_t, we) in zip(feedback.entries, best):
        assert w == pytest.approx(we, rel=1e-12)


def test_prf_dominant_term_gets_largest_weight():
    docs = [
        ("d1", "q zebra zebra zebra"),
        ("d2", "q zebra zebra lion"),
        ("d3", "q zebra tiger"),
        ("d4", "noise only here"),
        ("d5", "more noise text"),
    ]
    idx = build_index(docs_from(docs))
    out = prf_expand(idx, Term("q"), fb_docs=3, fb_terms=3)
    feedback = out.entries[1][1]
    assert feedback.entries[0][1] == Term("zebra")
    weights = [w for w, _t in feedback.entries]
    assert weights[0] == max(weights)


def test_prf_drops_stopwords_and_query_tokens():
    docs = [
        ("d1", "q the the the apple"),
        ("d2", "q the apple"),
        ("d3", "q the banana"),
    ]
    idx = build_index(docs_from(docs))
    out = prf_expand(idx, Term("q"), fb_docs=3, fb_terms=5)
    feedback_terms = {t.token for _w, t in out.entries[1][1].entries}
    assert "the" not in feedback_terms
    assert "q" not in feedback_terms
    assert "apple" in feedback_terms


def test_default_stopwords_shipped():
    words = default_stopwords()
    assert len(words) == 30
    assert "the" in words and "of" in words


# -- TREC io -------------------------------------------------------------------


def test_trec_round_trip(tmp_path):
    runs = [
        RankedList("q1", [("docB", 2.5), ("docA", 1.25)], tag="t1"),
        RankedList("q2", [("docC", -0.5)], tag="t2"),
    ]
    buf = io.StringIO()
    write_trec_run(runs, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "q1 Q0 docB 1 2.500000 t1"
    path = tmp_path / "run.trec"
    path.write_text(text)
    back = read_trec_run(str(path))
    assert [r.request_id for r in back] == ["q1", "q2"]
    assert back[0].doc_ids() == ["docB", "docA"]
    assert back[0].tag == "t1" and back[1].tag == "t2"
    with pytest.raises(FormatError):
        (tmp_path / "bad.trec").write_text("q1 Q0 doc 1\n")
        read_trec_run(str(tmp_path / "bad.trec"))


def test_read_documents(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"id": "d1", "text": "Hello, World"}\n\n{"id": "d2", "text": "x"}\n')
    docs = list(read_documents(str(path)))
    assert [d.doc_id for d in docs] == ["d1", "d2"]
    assert docs[0].tokens == ["hello", "world"]
    path.write_text('{"id": 7, "text": "x"}\n{"id": -1, "text": ""}\n')  # an integer id is its digits
    assert [d.doc_id for d in read_documents(str(path))] == ["7", "-1"]
    bad = tmp_path / "bad.jsonl"
    for line, reason in (
        ('{"id": "d1"}', "bad document line"),
        ('{"id": null, "text": "banksy"}', "document id None is not a JSON string or integer"),
        ('{"id": true, "text": "banksy"}', "document id True is not a JSON string or integer"),
        ('{"id": 1.5, "text": "banksy"}', "document id 1.5 is not a JSON string or integer"),
        ('{"id": ["x"], "text": {"a": 1}}', r"document id \['x'\] is not a JSON string or integer"),
        ('{"id": "d2", "text": null}', "document text None is not a JSON string"),
        ('{"id": "d2", "text": ["banksy"]}', "document text .* is not a JSON string"),
        ('{"id": ' + "1" * 5000 + ', "text": "x"}', "bad document line"),  # more digits than int() takes
    ):
        bad.write_text(f'{{"id": "d0", "text": "x"}}\n{line}\n')
        with pytest.raises(FormatError, match=f"^line 2: .*: {reason}"):
            list(read_documents(str(bad)))


def test_guards_of_search_and_ranked_lists():
    idx = build_index([Document("d1", ["a"])])
    with pytest.raises(ValueError, match="k must be >= 1"):
        search(idx, Term("a"), 0)
    with pytest.raises(TypeError, match="not a query node"):
        list(_leaf_nodes("a"))
    ranked = RankedList("q", [("d1", 1.0)])
    assert ranked.__eq__(1) is NotImplemented and ranked != 1


def test_index_columns_are_read_only_views():
    lengths, tokens = np.array([2, 1]), np.array([0, 1, 0], dtype=np.int32)
    idx = Index(["d2", "d1"], lengths, ["a", "b"], tokens)
    columns = [getattr(idx, name) for name in Index.__slots__]
    columns = [column for column in columns if isinstance(column, np.ndarray)]
    assert len(columns) == 10 and not any(column.flags.writeable for column in columns)
    for column in columns:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1  # idx.tokens[0] = 1 would rewrite the collection
    assert lengths.flags.writeable and tokens.flags.writeable  # a view froze, not the caller's array


def test_index_checks_its_columns_where_built():
    assert Index(["d1", "d2"], [2, 0], ["a", "b"], [1, 0]).collection_tf == {"a": 1, "b": 1}
    for lengths, tokens in (([1.0], [0]), ([1], [0.0]), ([[1]], [0]), ([2], [0]), ([-1, 2], [0]), ([1], [2])):
        with pytest.raises(ValueError, match="index columns do not fit together"):
            Index(["d1", "d2"][: len(lengths)], np.array(lengths), ["a", "b"], np.array(tokens))
    with pytest.raises(ValueError, match="repeats or is not one token"):
        Index(["d1"], [2], ["a", "a"], [0, 1])
    with pytest.raises(DuplicateDocId, match="'d1' appears twice"):
        Index(["d1", "d1"], [0, 0], [], np.zeros(0, dtype=np.int32))


# -- index files ---------------------------------------------------------------


def test_index_file_round_trip(tmp_path):
    docs = [  # non-ASCII ids and an empty document; load_index rejects what no text file holds
        Document("dé1", ["e", "b"]),
        Document("ü", []),
        Document("ü-x", ["b", "e", "e", "b"]),
    ]
    path = str(tmp_path / "idx.bin")
    for idx in (build_index([]), build_index(docs)):
        save_index(idx, path)
        back = load_index(path)
        assert back.doc_ids == idx.doc_ids and back.vocab == idx.vocab
        assert back.doc_lengths.tolist() == idx.doc_lengths.tolist()
        assert back.tokens.tolist() == idx.tokens.tolist()
        assert back.collection_tf == idx.collection_tf
    q = Combine((Term("b"), Window(2, ("b", "b"))))
    assert search(back, q, 3).entries == search(idx, q, 3).entries


# -- fast paths against references on random collections ----------------------

DOC_TOKENS = ["a", "b", "c", "the", "of"]  # "a", "the" and "of" are default stopwords
QUERY_TOKENS = ["a", "b", "c", "z"]  # "z" never occurs

collections = st.lists(st.lists(st.sampled_from(DOC_TOKENS), max_size=8), min_size=1, max_size=6)
patterns = st.lists(st.sampled_from(QUERY_TOKENS), min_size=1, max_size=3)
leaves = st.one_of(
    st.sampled_from(QUERY_TOKENS).map(Term),
    st.builds(lambda n, toks: Window(n, tuple(toks)), st.integers(1, 4), patterns),
)
queries = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda cs: Combine(tuple(cs))),
        st.lists(st.tuples(st.sampled_from([0.5, 1.0, 2.0]), children), min_size=1, max_size=3)
        .map(lambda es: Weight(tuple(es))),
    ),
    max_leaves=6,
)


def collection_of(token_lists):
    """Documents whose id order differs from insertion order ("d10" < "d2")."""
    return [Document(f"d{7 * i % 11}", list(toks)) for i, toks in enumerate(token_lists)]


def dense_tf(idx, n, tokens, matches):
    """One window's match counts over the ordinals, through the batched path."""
    codes, tf = _leaf_tf(idx, [(n, tuple(tokens))], matches)
    return np.bincount(codes, weights=tf, minlength=idx.n_docs)


@settings(max_examples=300, deadline=None)
@given(docs=collections, n=st.integers(1, 10), pattern=patterns)
@example(docs=[["a"], ["b"]], n=3, pattern=["a", "b"])  # would straddle the boundary
@example(docs=[["a", "a", "a"], []], n=2, pattern=["a", "a"])  # repeated token, empty doc
@example(docs=[["c", "a"]], n=10, pattern=["c", "a", "a"])  # n beyond the document
def test_window_tf_vector_matches_oracle(docs, n, pattern):
    idx = build_index(collection_of(docs))
    tf = [window_tf_oracle(toks, n, pattern) for toks in docs]
    assert dense_tf(idx, n, pattern, {}).tolist() == tf
    matches = {}  # a miss, then a hit
    assert dense_tf(idx, n, pattern, matches).tolist() == tf
    assert dense_tf(idx, n, pattern, matches).tolist() == tf
    assert len(matches) == (len(pattern) > 1)
    assert [window_tf(idx, i, n, pattern) for i in range(len(docs))] == tf
    if idx.collection_length:
        want = _dirichlet(np.array(tf, dtype=float), sum(tf), idx.doc_lengths,
                          idx.collection_length, DEFAULT_MU)
        got = _score_vector(idx, Window(n, tuple(pattern)), DEFAULT_MU, Leaves({}))
        assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(docs=collections, q=queries, k=st.integers(1, 8))
def test_search_matches_sorted_and_naive_ranking(docs, q, k):
    collection = collection_of(docs)
    idx = build_index(collection)
    assume(idx.collection_length > 0)
    got = search(idx, q, k).entries
    # reference order: every document sorted in Python by score descending, then doc id
    scores = _score_vector(idx, q, DEFAULT_MU, Leaves({}))
    order = sorted(range(idx.n_docs), key=lambda i: (-scores[i], idx.doc_ids[i]))
    assert got == [(idx.doc_ids[i], float(scores[i])) for i in order[:k]]
    raw = [(d.doc_id, d.tokens) for d in collection]
    want = naive_ranking(raw, q, k)
    assert [s for _d, s in got] == pytest.approx([s for _d, s in want], rel=1e-12)
    for (d_got, s_got), (d_want, _s) in zip(got, want):
        if d_got != d_want:  # documents may swap only on a tie within rounding
            assert naive_score(raw, q, d_got) == pytest.approx(s_got, rel=1e-12)


def prf_expand_loop(idx, docs, q, fb_docs, fb_terms, orig_weight, stopwords, mu=DEFAULT_MU):
    """Feedback as a loop over per-term postings rebuilt from the raw tokens."""
    if fb_terms <= 0 or fb_docs <= 0 or idx.n_docs == 0:
        return q
    top = search(idx, q, fb_docs, mu=mu).entries
    if not top:
        return q
    scores = np.array([s for _d, s in top])
    soft = np.exp(scores - scores.max())
    soft /= soft.sum()

    positions = {}
    for ordinal, doc in enumerate(docs):
        per_token = {}
        for pos, tok in enumerate(doc.tokens):
            per_token.setdefault(tok, []).append(pos)
        for tok, plist in per_token.items():
            positions.setdefault(tok, []).append((ordinal, plist))
    postings = {
        tok: (np.array([o for o, _p in entries]), [np.array(p) for _o, p in entries])
        for tok, entries in positions.items()
    }
    excluded = query_tokens(q) | (stopwords if stopwords is not None else default_stopwords())
    ordinals = [idx.ordinal(d) for d, _s in top]
    weights = {}
    for tok, (post_ordinals, plists) in postings.items():
        if tok in excluded:
            continue
        for rank, ordinal in enumerate(ordinals):
            pos = int(np.searchsorted(post_ordinals, ordinal))
            if pos < post_ordinals.size and post_ordinals[pos] == ordinal:
                dlen = len(docs[ordinal].tokens)
                if dlen:
                    weights[tok] = weights.get(tok, 0.0) + float(
                        soft[rank] * plists[pos].size / dlen
                    )
    if not weights:
        return q
    best = sorted(weights.items(), key=lambda e: (-e[1], e[0]))[:fb_terms]
    feedback = Weight(tuple((w, Term(t)) for t, w in best))
    return Weight(((orig_weight, q), (1.0 - orig_weight, feedback)))


@settings(max_examples=200, deadline=None)
@given(
    docs=collections,
    q=queries,
    fb_docs=st.integers(1, 7),
    fb_terms=st.integers(1, 5),
    orig_weight=st.sampled_from([0.3, 0.5]),
    stopwords=st.none() | st.frozensets(st.sampled_from(DOC_TOKENS)),
)
def test_prf_matches_loop_reference(docs, q, fb_docs, fb_terms, orig_weight, stopwords):
    collection = collection_of(docs)
    idx = build_index(collection)
    assume(idx.collection_length > 0)
    got = prf_expand(idx, q, fb_docs, fb_terms, orig_weight, stopwords)
    assert got == prf_expand_loop(idx, collection, q, fb_docs, fb_terms, orig_weight, stopwords)


# -- caller-owned leaf memo ----------------------------------------------------


def leaf_keys(q) -> set:
    if isinstance(q, Term):
        return {(1, (q.token,))}
    if isinstance(q, Window):
        return {(q.n, q.tokens)}
    children = q.children if isinstance(q, Combine) else [c for _w, c in q.entries]
    return set().union(*(leaf_keys(c) for c in children))


@settings(max_examples=150, deadline=None)
@given(docs=collections, qs=st.lists(queries, min_size=1, max_size=5), k=st.integers(1, 8))
def test_shared_leaf_memo_matches_fresh_searches(docs, qs, k):
    idx = build_index(collection_of(docs))
    assume(idx.collection_length > 0)
    memo = Leaves({})
    for q in qs:
        assert search(idx, q, k, leaves=memo).entries == search(idx, q, k).entries
        assert np.array_equal(_score_vector(idx, q, DEFAULT_MU, memo),
                              _score_vector(idx, q, DEFAULT_MU, Leaves({})))
    assert set(memo) == set().union(*(leaf_keys(q) for q in qs))
    for vec in memo.values():
        assert not vec.flags.writeable
        with pytest.raises(ValueError):
            vec[0] = 0.0


@settings(max_examples=100, deadline=None)
@given(
    docs=collections,
    qs=st.lists(queries, min_size=1, max_size=4),
    fb_docs=st.integers(1, 7),
    fb_terms=st.integers(1, 5),
)
def test_shared_leaf_memo_matches_fresh_prf(docs, qs, fb_docs, fb_terms):
    idx = build_index(collection_of(docs))
    assume(idx.collection_length > 0)
    memo = Leaves({})
    for q in qs:
        got = prf_expand(idx, q, fb_docs, fb_terms, leaves=memo)
        assert got == prf_expand(idx, q, fb_docs, fb_terms)
        assert search(idx, got, 8, leaves=memo).entries == search(idx, got, 8).entries
    assert all(not vec.flags.writeable for vec in memo.values())


@settings(max_examples=150, deadline=None)
@given(docs=collections, qs=st.lists(queries, min_size=1, max_size=5), k=st.integers(1, 8))
def test_shared_window_match_memo_matches_fresh_searches(docs, qs, k):
    """Requests with their own ``Leaves`` over one batch memo search as fresh calls do."""
    idx = build_index(collection_of(docs))
    assume(idx.collection_length > 0)
    matches = {}
    for q in qs:
        assert search(idx, q, k, leaves=Leaves(matches)).entries == search(idx, q, k).entries
        assert np.array_equal(_score_vector(idx, q, DEFAULT_MU, Leaves(matches)),
                              _score_vector(idx, q, DEFAULT_MU, Leaves({})))
        got = prf_expand(idx, q, 3, 2, leaves=Leaves(matches))
        assert got == prf_expand(idx, q, 3, 2)
    windows = {key for q in qs for key in leaf_keys(q) if len(key[1]) > 1}
    assert set(matches) == windows  # multi-token windows only, keyed with their size
    for (n, tokens), (ordinals, counts) in matches.items():
        tf = dense_tf(idx, n, tokens, {})
        assert ordinals.shape == counts.shape == (ordinals.size,)
        assert (counts > 0).all()  # no zero-count pair, so no dense vector
        assert np.array_equal(np.unique(ordinals), np.flatnonzero(tf))
        assert np.array_equal(np.bincount(ordinals, weights=counts, minlength=idx.n_docs), tf)
        assert not ordinals.flags.writeable and not counts.flags.writeable


# -- one leaf block per query, from one batched window DP ----------------------


def window_matches_loop(idx, n, tokens):
    """One window's match pairs by the per-window dynamic program that the batched one replaced."""
    prev = idx._postings(tokens[0])
    ways = np.ones(prev.size, dtype=np.int64)
    for tok in tokens[1:]:
        cur = idx._postings(tok)
        lowest = np.maximum(cur - n, idx._doc_starts[idx._doc_of[cur]])
        prefix = np.concatenate(([0], np.cumsum(ways)))
        ways = prefix[np.searchsorted(prev, cur)] - prefix[np.searchsorted(prev, lowest)]
        hit = ways > 0
        prev, ways = cur[hit], ways[hit]
    return idx._doc_of[prev], ways


_SIZES = st.sampled_from([1, 2, 10, 2**62]) | st.integers(1, 12)  # 10 and up: past every document


@st.composite
def window_lists(draw):
    """Windows of 1 to 5 tokens ("z" is in no document), some of them prefixes of one
    token list, with one window listed twice, in any order."""
    stem = draw(st.lists(st.sampled_from(QUERY_TOKENS), min_size=1, max_size=5))
    windows = [(draw(_SIZES), tuple(stem[:size])) for size in draw(st.lists(st.integers(1, len(stem))))]
    windows += draw(st.lists(st.tuples(_SIZES, st.lists(st.sampled_from(QUERY_TOKENS), min_size=1,
                                                        max_size=5).map(tuple)), max_size=5))
    assume(windows)
    windows.append(draw(st.sampled_from(windows)))
    return draw(st.permutations(windows))


@settings(max_examples=300, deadline=None)
@given(docs=collections, windows=window_lists())
@example(docs=[["b", "b", "c"], [], ["c", "b", "b"]],
         windows=[(1, ("b", "b")), (2**62, ("b", "b", "c")), (1, ("b",)), (7, ("z", "b")),
                  (3, ("b", "b", "c", "b", "b")), (1, ("b", "b"))])
@example(docs=[[], []], windows=[(1, ("b", "c")), (1, ("b", "c"))])  # no tokens at all
@example(docs=[["a", "a", "b"]], windows=[(2, ("a", "b"))])  # two prefixes reach one position: ways 2
@example(docs=[["b", "b", "b"]], windows=[(1, ("b", "b"))])  # two overlapping matches
@example(docs=[["c", "b"], ["c"]], windows=[(1, ("b", "c"))])  # a pair across two documents
@example(docs=[["c"], ["c", "b"]], windows=[(1, ("b", "c")), (1, ("b", "b"))])  # b is the last token
@example(docs=[["b", "c", "b"], ["c", "b", "c", "d", "b"]],  # steps by gather and by range count
         windows=[(1, ("b", "c", "b")), (8, ("c", "b")), (1, ("c", "b", "c", "d"))])
def test_batched_window_dp_equals_the_per_window_loop(docs, windows):
    idx = build_index(collection_of(docs))
    found = _window_matches(idx, windows)
    assert len(found) == len(windows)
    for (n, tokens), pair in zip(windows, found):
        want_docs, want_ways = window_matches_loop(idx, n, tokens)
        assert pair.shape == (2, want_docs.size) and not pair.flags.writeable
        assert pair[0].tolist() == want_docs.tolist()
        assert pair[1].tolist() == want_ways.tolist()


def dense_leaf(docs, idx, key, mu):
    """One leaf's score vector built alone: the dense formula over every document."""
    n, tokens = key
    tf = [window_tf_oracle(toks, n, tokens) for toks in docs]
    cf = sum(tf) if sum(tf) > 0 else UNSEEN_CF
    return np.log((np.array(tf, dtype=float) + mu * cf / idx.collection_length) / (idx.doc_lengths + mu))


# documents of one length, from empty upwards
even_collections = st.integers(0, 5).flatmap(
    lambda m: st.lists(st.lists(st.sampled_from(DOC_TOKENS), min_size=m, max_size=m), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(docs=collections | even_collections, qs=st.lists(queries, min_size=1, max_size=3),
       mu=st.sampled_from([5e-324, 0.37, 2500.0, 1e6]))
@example(docs=[["b", "c", "b"]], qs=[Combine((Term("b"), Window(1, ("c", "b")), Term("z")))], mu=0.37)
@example(docs=[[], ["c"], []], qs=[Term("z"), Term("c")], mu=5e-324)  # 5e-324: -inf, as documented
def test_leaf_block_rows_equal_dense_leaves_bit_for_bit(docs, qs, mu):
    idx = build_index(collection_of(docs))
    assume(idx.collection_length > 0)
    memo = Leaves({})
    with np.errstate(divide="ignore"):  # log(0) where mu * cf / |C| underflows
        # the last query repeats each key of the first, and all its keys are in the memo by then
        for q in [*qs, Combine((qs[0], qs[0]))]:
            before = dict(memo)
            _score_vector(idx, q, mu, memo)
            assert all(memo[key] is row for key, row in before.items())  # stored rows stay
        assert len(memo) == len(set().union(*(leaf_keys(q) for q in qs)))
        want = {key: dense_leaf(docs, idx, key, mu) for key in memo}
        keys = [*memo, next(iter(memo))]  # a block may hold a key twice
        block = _leaf_block(idx, keys, mu, {})
    for key, row in memo.items():
        assert row.view(np.int64).tolist() == want[key].view(np.int64).tolist(), key
        assert not row.flags.writeable and row.base is not None  # a view into its block
    assert block.shape == (len(keys), idx.n_docs) and not block.flags.writeable
    assert block.view(np.int64).tolist() == np.array([want[k] for k in keys]).view(np.int64).tolist()


def test_log_bits_do_not_depend_on_where_an_element_sits():
    """A leaf block takes ``np.log`` over a 2-D block, where the dense formula took it over
    one leaf's 1-D vector; their bits agree only if numpy's log gives an element the same
    bits in any row of a block and at any alignment in an array of its own."""
    rng = np.random.default_rng(24)
    with np.errstate(divide="ignore"):
        for _ in range(300):
            rows, cols = int(rng.integers(1, 6)), 2 * int(rng.integers(0, 100)) + 1
            offset, shift = (int(rng.choice([o for o in range(1, 24) if o % 8])) for _ in "os")
            buf = np.empty(offset + rows * cols)
            block = buf[offset:].reshape(rows, cols)
            block[...] = np.exp(rng.uniform(-750.0, 5.0, (rows, cols)))  # subnormals and 0 too
            logs = np.log(block)
            for r in range(rows):
                alone = np.empty(shift + cols)
                alone[shift:] = block[r]
                assert logs[r].view(np.int64).tolist() == np.log(alone[shift:]).view(np.int64).tolist()
                assert logs[r].view(np.int64).tolist() == np.log(block[r].copy()).view(np.int64).tolist()


def test_default_stopwords_read_once():
    assert default_stopwords() is default_stopwords()


def test_query_at_the_nesting_bound_parses_renders_and_scores():
    text = "#1(banksy street)"  # MAX_DEPTH operators, each inside the one before
    for level in range(MAX_DEPTH - 1):
        text = f"#combine( {text} art )" if level % 2 else f"#weight( 2.0 {text} 1.0 stencil )"
    tree = parse(text)
    assert render(tree) == text
    docs = [("d1", "banksy street art mural"), ("d2", "stencil art"), ("d3", "banksy on the street")]
    idx = build_index(docs_from(docs))
    raw = [(d, Document.from_text(d, t).tokens) for d, t in docs]
    expanded = prf_expand(idx, tree, fb_docs=2, fb_terms=2)
    assert expanded.entries[0][1] is tree  # PRF nests the tree one level deeper
    for q in (tree, expanded):
        got, want = search(idx, q, 3).entries, naive_ranking(raw, q, 3)
        assert [d for d, _s in got] == [d for d, _s in want]
        assert [s for _d, s in got] == pytest.approx([s for _d, s in want], rel=1e-12)


# few distinct values, so ties are heavy; -inf is what an underflowing mu scores
_SCORE_VALUES = st.sampled_from([-math.inf, -7.25, -3.5, -3.5 + 1e-12, -1.0, 0.0])


@st.composite
def scored_ids(draw):
    """Distinct doc ids, in an order unlike id order, and one score per id."""
    ids = draw(st.lists(st.text(string.ascii_lowercase + string.digits, min_size=1, max_size=3),
                        min_size=1, max_size=30, unique=True))
    return ids, draw(st.lists(_SCORE_VALUES, min_size=len(ids), max_size=len(ids)))


@settings(max_examples=300, deadline=None)
@given(case=scored_ids())
@example(case=(["b", "a", "c"], [-math.inf, -1.0, -math.inf]))
def test_partition_top_k_equals_full_stable_argsort(case):
    ids, drawn = case
    scores = np.array(drawn)
    idx = build_index(docs_from([(d, "x") for d in ids]))
    leaves = Leaves({})
    leaves[(1, ("x",))] = scores  # the query's one leaf scores as drawn
    full = idx._by_id[np.argsort(-scores[idx._by_id], kind="stable")]
    for k in range(1, len(ids) + 2):
        top, top_scores = _top(idx, Term("x"), k, DEFAULT_MU, leaves)
        assert top.tolist() == full[:k].tolist()
        assert np.array_equal(top_scores, scores[full[:k]])


@settings(max_examples=300, deadline=None)
@given(drawn=st.lists(_SCORE_VALUES, max_size=30), k=st.integers(1, 35))
@example(drawn=[], k=1)
@example(drawn=[-3.5, -3.5, -1.0, -3.5], k=2)  # the k-th least ties entries past it
def test_best_equals_the_stable_argsort_prefix(drawn, k):
    neg = -np.array(drawn)  # +inf too
    assert _best(neg, k).tolist() == np.argsort(neg, kind="stable")[:k].tolist()


@settings(max_examples=100, deadline=None)
@given(docs=st.lists(st.lists(st.text("abzAé_", min_size=1, max_size=3), max_size=6), max_size=5))
@example(docs=[])
@example(docs=[[], []])  # documents, but no vocabulary
def test_by_term_lists_term_ids_in_term_order(docs, tmp_path_factory):
    if not all(TOKEN.fullmatch(word) for doc in docs for word in doc):
        with pytest.raises(ValueError, match="not one token"):  # "A", "é" and "_" fit no token
            build_index(collection_of(docs))
    idx = build_index(collection_of([[w for w in doc if TOKEN.fullmatch(w)] for doc in docs]))
    want = [idx.vocab.index(t) for t in sorted(idx.vocab)]
    assert idx._by_term.dtype == np.int64 and idx._by_term.tolist() == want
    path = str(tmp_path_factory.mktemp("index") / "idx.npz")
    save_index(idx, path)
    assert load_index(path)._by_term.tolist() == want


def prf_expand_full_sort(idx, q, fb_docs, fb_terms, orig_weight, stopwords, mu):
    """``prf_expand`` as it weighed and chose its terms before its one count and
    ``_best``: one ``np.unique`` and one add per feedback document, one write per
    excluded word, then a Python sort of every candidate by ``(-weight, term)``
    and a slice."""
    if fb_terms <= 0 or fb_docs <= 0 or idx.n_docs == 0:
        return q
    top, scores = _top(idx, q, fb_docs, mu, None)
    if scores[0] == -math.inf:
        return q
    soft = np.exp(scores - scores.max())
    soft /= soft.sum()
    excluded = query_tokens(q) | (stopwords if stopwords is not None else default_stopwords())
    weights = np.zeros(len(idx.vocab))
    for rank, ordinal in enumerate(top.tolist()):
        dlen = int(idx.doc_lengths[ordinal])
        if not dlen:
            continue
        start = idx._doc_starts[ordinal]
        terms, tf = np.unique(idx.tokens[start : start + dlen], return_counts=True)
        weights[terms] += soft[rank] * tf / dlen
    for tok in excluded:
        t = idx._term_ids.get(tok)
        if t is not None:
            weights[t] = 0.0
    candidates = np.flatnonzero(weights).tolist()
    if not candidates:
        return q
    best = sorted(
        ((idx.vocab[t], w) for t, w in zip(candidates, weights[candidates].tolist())),
        key=lambda e: (-e[1], e[0]),
    )[:fb_terms]
    feedback = Weight(tuple((w, Term(t)) for t, w in best))
    return Weight(((orig_weight, q), (1.0 - orig_weight, feedback)))


FEEDBACK_TOKENS = [*DOC_TOKENS, "d", "e", "f", "g"]


@settings(max_examples=300, deadline=None)
@given(
    docs=st.lists(st.lists(st.sampled_from(FEEDBACK_TOKENS), max_size=8), min_size=1, max_size=5),
    copies=st.integers(1, 2),  # repeated documents tie their scores, so their terms' shares
    q=queries,
    fb_docs=st.integers(1, 12),
    fb_terms=st.sampled_from([1, 2, 3, 10]),  # 10: more than there are candidates
    # 1e-320: a feedback document's share times P(t|d) can underflow to 0; 5e-324: scores of -inf
    mu=st.sampled_from([DEFAULT_MU, 1.0, 1e-300, 1e-320, 5e-324]),
    stopwords=st.none() | st.frozensets(st.sampled_from(FEEDBACK_TOKENS)),
)
@example(docs=[["the", "of"], ["b", "a"], []], copies=1, q=Term("b"), fb_docs=3, fb_terms=10,
         mu=DEFAULT_MU, stopwords=None)  # only stopwords and query tokens: no candidate
@example(docs=[["b", "c", "d"], ["e"] + ["f"] * 40], copies=1, q=Term("b"), fb_docs=2, fb_terms=10,
         mu=1e-320, stopwords=frozenset())  # "e"'s weight underflows to 0, "f"'s does not
@example(docs=[["b", "c", "d"], ["e", "d", "c"]], copies=1, q=Term("z"), fb_docs=2, fb_terms=1,
         mu=DEFAULT_MU, stopwords=frozenset())  # "c" and "d" tie at the top, "b" and "e" below
def test_prf_terms_equal_the_full_sort(docs, copies, q, fb_docs, fb_terms, mu, stopwords):
    idx = build_index(collection_of(docs * copies))
    assume(idx.collection_length > 0)
    with np.errstate(divide="ignore"):  # log(0) where mu * cf / |C| underflows
        got = prf_expand(idx, q, fb_docs, fb_terms, 0.5, stopwords, mu)
        want = prf_expand_full_sort(idx, q, fb_docs, fb_terms, 0.5, stopwords, mu)
    assert got == want
    assert (got is q) == (want is q)

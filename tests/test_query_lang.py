import math
import random
import string

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sqe.errors import EmptyInput, ParseError
from sqe.kb_graph import build_graph
from sqe.motif_expander import MotifKind, QueryGraph, expand
from sqe.query_lang import (
    MAX_DEPTH,
    MAX_WINDOW,
    Combine,
    Term,
    Weight,
    Window,
    build_expanded_query,
    parse,
    phrase,
    render,
)
from sqe.text import normalize_title, tokenize

from conftest import CABLE_EDGES, CABLE_NODES


def test_node_invariants():
    with pytest.raises(ValueError):
        Term("Two words")
    with pytest.raises(ValueError):
        Window(0, ("a",))
    with pytest.raises(ValueError):
        Window(1, ())
    with pytest.raises(ValueError):
        Combine(())
    with pytest.raises(ValueError, match="at least one entry"):
        Weight(())
    with pytest.raises(ValueError):
        Weight(((0.0, Term("a")),))
    # a window's tokens are each one token, as a term's is
    for tokens in ("street", ("Street Art",), ("street art",), ("street", ""), ("a-b",), ("\u0131",)):
        with pytest.raises(ValueError, match="window tokens"):
            Window(1, tokens)
    # a display equal to the token join collapses to None
    assert Window(1, ("new", "york"), display="new york").display is None
    assert Window(1, ("above", "artist"), display="above (artist)").display is not None
    # and so does one whose parentheses do not balance, which would not parse back
    for display in ("foo)", "foo (bar", ")foo(", "(foo))("):
        assert Window(1, ("foo", "bar"), display=display).display is None
    assert render(phrase("Foo)")) == "#1(foo)" and render(phrase("Foo (bar")) == "#1(foo bar)"
    # and so does one that tokenizes to other tokens, which would parse back as those
    assert Window(1, ("banksy",), display="street art").display is None


def test_render_examples():
    assert render(Weight(((5, Window(1, ("stencil",))),))) == "#weight( 5.0 #1(stencil) )"
    assert render(Term("cable")) == "cable"
    assert render(Combine((Term("a"), Term("b")))) == "#combine( a b )"
    assert render(Window(3, ("new", "york"))) == "#3(new york)"
    assert render(phrase("Above_(artist)")) == "#1(above (artist))"


def test_parse_examples():
    assert parse("#combine(a b)") == Combine((Term("a"), Term("b")))
    assert parse("#3(new york)") == Window(3, ("new", "york"))
    assert parse("  cable  ") == Term("cable")
    assert parse("#weight( 5.0 #1(stencil) 3.0 banksy )") == Weight(
        ((5.0, Window(1, ("stencil",))), (3.0, Term("banksy")))
    )
    # nested parentheses inside a window phrase are balanced
    assert parse("#1(above (artist))") == Window(1, ("above", "artist"), display="above (artist)")
    # a phrase's display collapses whitespace of every kind, as normalize_title does
    assert parse("#1( above\t\x1c(artist)\u2028)") == parse("#1(above (artist))")


# each bad text, with the ParseError position and expectation it raises
PARSE_ERRORS = {
    "#combine(a b": (12, "a query node"),  # unbalanced
    "#combine( a": (11, "a query node"),
    "#combine()": (10, "at least one child in #combine"),
    "#weight(5.0)": (11, "a term token"),  # weight without node
    "#weight( 1.0 )": (13, "a term token"),
    "#weight( )": (10, "at least one (weight, node) entry in #weight"),
    "#weight(x a)": (8, "a weight value"),  # missing weight value
    "#weight(0.0 a)": (8, "a finite, strictly positive weight"),
    "#frob(a)": (1, "'combine', 'weight' or a window size"),  # unknown operator
    "#0(a)": (3, "a window size >= 1"),
    "a b": (2, "end of input"),  # trailing garbage after one node
    "": (0, "a query node"),
    "#1()": (3, "at least one token inside the window"),
    "#1(banksy (street)": (18, "')' closing the window phrase"),  # unclosed
    "#combine banksy": (8, "'(' after #combine"),
    # each weight is 1e308, their sum is past the float range
    f"#weight( 1{'0' * 308} banksy 1{'0' * 308} stencil )": (0, "weights with a finite sum"),
}


@pytest.mark.parametrize("text", PARSE_ERRORS)
def test_parse_errors(text):
    position, expected = PARSE_ERRORS[text]
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.position, info.value.expected) == (position, expected)
    assert str(info.value) == f"at position {position}: expected {expected}"


def test_parse_is_whitespace_insensitive():
    a = parse("#combine(#combine(graffiti street)#weight(2.0 #1(banksy)3.0 urban))")
    b = parse("#combine( #combine( graffiti street )  #weight( 2.0 #1(banksy) 3.0 urban ) )")
    assert a == b


def _random_tree(rng, depth=0):
    roll = rng.random()
    letters = string.ascii_lowercase
    if depth >= 3 or roll < 0.35:
        if roll < 0.18:
            n = rng.randint(1, 4)
            toks = tuple(
                "".join(rng.choices(letters, k=rng.randint(1, 5)))
                for _ in range(rng.randint(1, 3))
            )
            return Window(n, toks)
        return Term("".join(rng.choices(letters, k=rng.randint(1, 6))))
    if roll < 0.7:
        return Combine(tuple(_random_tree(rng, depth + 1) for _ in range(rng.randint(1, 4))))
    entries = tuple(
        (rng.randint(1, 99) / 10, _random_tree(rng, depth + 1))
        for _ in range(rng.randint(1, 4))
    )
    return Weight(entries)


def test_roundtrip_1000_random_trees():
    rng = random.Random(2024)
    for _ in range(1000):
        tree = _random_tree(rng)
        assert parse(render(tree)) == tree


@settings(max_examples=300, deadline=None)
@given(title=st.text("aB1_ !()", max_size=12))
@example(title="Foo)")
@example(title="Foo (bar")
@example(title="Above_(artist)")
def test_phrase_renders_to_text_that_parses_back(title):
    assume(tokenize(title))
    window = phrase(title)
    assert parse(render(window)) == window


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 5), tokens=st.lists(st.sampled_from(["a", "b", "b1", "ab"]), min_size=1, max_size=3),
       display=st.text("aB1_ ()", max_size=12))
@example(n=1, tokens=["banksy"], display="street art")
@example(n=2, tokens=["a", "b"], display="A_(b)")
@example(n=1, tokens=["a", "b1"], display="a (b1")
def test_any_window_renders_to_text_that_parses_back_to_its_tokens(n, tokens, display):
    window = Window(n, tuple(tokens), display=display)
    back = parse(render(window))
    assert (back.n, back.tokens) == (window.n, window.tokens)


def test_build_expanded_query_structure(graffiti_graph):
    g = graffiti_graph
    inputs = {g.article_by_title("Graffiti"), g.article_by_title("Street_art")}
    qg = expand(g, inputs, MotifKind.BOTH)
    eq = build_expanded_query(
        "graffiti street art on walls".split(),
        ["Graffiti", "Street_art"],
        qg,
        g,
    )
    assert eq.input_part == Combine(
        tuple(Term(t) for t in ["graffiti", "street", "art", "on", "walls"])
    )
    assert eq.entity_part == Combine((phrase("Graffiti"), phrase("Street_art")))
    weights = [w for w, _c in eq.feature_part.entries]
    assert weights == sorted(weights, reverse=True)
    assert weights[:3] == [5.0, 5.0, 4.0]
    first_titles = [c.display or " ".join(c.tokens) for _w, c in eq.feature_part.entries]
    assert first_titles[:3] == ["stencil", "yarn bombing", "above (artist)"]
    assert len(eq.root.children) == 3


def test_build_expanded_query_edge_cases(cable_graph):
    eq = build_expanded_query(["cable", "car"], [], None)
    assert eq.entity_part is None and eq.feature_part is None
    assert eq.root == Combine((eq.input_part,))
    with pytest.raises(EmptyInput):
        build_expanded_query([], [], None)
    with pytest.raises(EmptyInput):
        build_expanded_query(["!!"], [], None)
    # single-token title becomes a one-token exact phrase
    eq2 = build_expanded_query(["cable"], ["Cable_car", "Funicular"], None)
    assert eq2.entity_part.children[1] == Window(1, ("funicular",))


def test_inputs_that_make_no_query_raise():
    with pytest.raises(ValueError, match="title has no tokens"):
        phrase("!!!")
    with pytest.raises(TypeError, match="not a query node"):
        render("cable")
    with pytest.raises(ValueError, match="a graph is needed"):  # node ids without their titles
        build_expanded_query(["cable"], [], QueryGraph(frozenset({0}), {1: 1}))


def test_feature_order_breaks_ties_by_title(graffiti_graph):
    g = graffiti_graph
    inputs = {g.article_by_title("Graffiti"), g.article_by_title("Street_art")}
    qg = expand(g, inputs, MotifKind.BOTH)
    eq = build_expanded_query(["graffiti"], [], qg, g)
    tied = [
        c.display or " ".join(c.tokens)
        for w, c in eq.feature_part.entries
        if w == 3.0
    ]
    assert tied == sorted(tied)


def test_features_whose_title_has_no_tokens_are_left_out():
    nodes = CABLE_NODES + [("5", "A", "!!!")]
    edges = CABLE_EDGES + [("1", "5", "AA"), ("5", "1", "AA"), ("5", "3", "AC")]
    g = build_graph(nodes, edges)
    bang = g.article_by_title("!!!")
    qg = expand(g, [g.article_by_title("Cable_car")], MotifKind.TRIANGULAR)
    assert set(qg.expansion) == {g.article_by_title("Funicular"), bang}
    eq = build_expanded_query(["cable"], ["Cable_car"], qg, g)
    assert eq.feature_part == Weight(((1.0, Window(1, ("funicular",))),))
    only_bang = QueryGraph(qg.input_nodes, {bang: 2})
    assert build_expanded_query(["cable"], ["Cable_car"], only_bang, g).feature_part is None
    with pytest.raises(EmptyInput, match="'!!!' has no tokens"):
        build_expanded_query(["cable"], ["Cable_car", "!!!"], None)


# titles with and without tokens; "(" and "!" keep a display that differs from the tokens
_TITLES = st.text(alphabet="aB1_ !(", min_size=1, max_size=6).filter(str.strip)


@st.composite
def phrase_cases(draw):
    """A graph, the expansions of a few query graphs over it and entity titles, some
    of them the features' titles as a category spells them."""
    titles = draw(st.lists(_TITLES, min_size=1, max_size=10, unique_by=normalize_title))
    # each title again as a category, differing only in case, underscores and spacing
    nodes = [(f"a{i}", "A", t) for i, t in enumerate(titles)]
    nodes += [(f"c{i}", "C", f" {t.swapcase().replace(' ', '_')}  ") for i, t in enumerate(titles)]
    g = build_graph(nodes, [])
    weights = st.dictionaries(st.integers(0, len(g) - 1), st.integers(1, 3), min_size=1)
    entities = st.lists(st.sampled_from([g.title(i) for i in range(len(g)) if tokenize(g.title(i))]
                                        or ["a"]), max_size=3)
    return g, draw(st.lists(st.tuples(weights, entities), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(case=phrase_cases())
def test_shared_phrase_table_builds_the_queries_a_fresh_one_builds(case):
    g, queries = case
    phrases = {}
    # each query reads the entries that the queries before it filled, the second pass all of them
    for weights, entities in queries + queries[::-1]:
        qg = QueryGraph(frozenset(), weights)
        fresh = build_expanded_query(["q"], entities, qg, g)
        assert build_expanded_query(["q"], entities, qg, g, phrases) == fresh
    titles = {g.title(a) for weights, _e in queries for a in weights} | {t for _w, e in queries for t in e}
    assert set(phrases) == {normalize_title(t) for t in titles}
    assert all(window == (phrase(norm) if tokenize(norm) else None) for norm, window in phrases.items())


@pytest.mark.parametrize("text", [
    "#99999999999999999999999(banksy street)",  # larger than an int64 position
    f"#{2 * MAX_WINDOW}(banksy street)",
    "#" + "9" * 400 + "(banksy street)",
    "#1" + "0" * 5000 + "(banksy street)",  # more digits than int() reads
    f"#{MAX_WINDOW + 1}(banksy street)",
    "#1.5(banksy street)",  # a window size is an integer
    "#weight( " + "1" * 310 + " banksy )",  # inf
    "#weight( " + "1" * 400 + ".5 banksy )",
])
def test_parse_rejects_numbers_that_do_not_fit(text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == (len("#weight( ") if text.startswith("#weight") else 1)  # the number


@pytest.mark.parametrize("n", [1, 7, 2**53 + 1, MAX_WINDOW - 1, MAX_WINDOW])
def test_window_sizes_round_trip_exactly(n):
    assert parse(render(Window(n, ("banksy", "street")))) == Window(n, ("banksy", "street"))
    assert parse(f"#{n:05000d}(banksy street)") == Window(n, ("banksy", "street"))  # leading zeros


def test_nodes_reject_numbers_that_do_not_fit():
    assert parse(f"#{MAX_WINDOW}(banksy street)") == Window(MAX_WINDOW, ("banksy", "street"))
    for n in (MAX_WINDOW + 1, 10**30):
        with pytest.raises(ValueError, match="window size"):
            Window(n, ("a",))
    for w in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="weights must be finite"):
            Weight(((w, Term("a")),))
    for entries in ([(1e308, Term("a")), (1e308, Term("b"))], [(1.0, Term("a")), (math.nan, Term("b"))]):
        with pytest.raises(ValueError, match="with a finite sum"):
            Weight(tuple(entries))
    assert Weight(((1e308, Term("a")), (7e307, Term("b")))).entries[1][0] == 7e307  # a sum that fits


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1200])
def test_parse_rejects_operators_nested_past_the_bound(depth):
    text = "#combine( " * (depth - 1) + "#1(banksy)" + " )" * (depth - 1)
    with pytest.raises(ParseError, match=f"operators nested at most {MAX_DEPTH} deep") as exc:
        parse(text)
    assert exc.value.position == len("#combine( ") * MAX_DEPTH  # the '#' that goes deeper

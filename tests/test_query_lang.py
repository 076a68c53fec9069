import math
import random
import string

import pytest

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
    with pytest.raises(ValueError):
        Weight(((0.0, Term("a")),))
    # a display equal to the token join collapses to None
    assert Window(1, ("new", "york"), display="new york").display is None
    assert Window(1, ("above", "artist"), display="above (artist)").display is not None


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


@pytest.mark.parametrize(
    "text",
    [
        "#combine(a b",          # unbalanced
        "#combine()",            # no children
        "#weight(5.0)",          # weight without node
        "#weight(x a)",          # missing weight value
        "#weight(0.0 a)",        # zero weight
        "#frob(a)",              # unknown operator
        "#0(a)",                 # window size zero
        "a b",                   # trailing garbage after one node
        "",                      # empty
        "#1()",                  # window with no tokens
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse(text)


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


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1200])
def test_parse_rejects_operators_nested_past_the_bound(depth):
    text = "#combine( " * (depth - 1) + "#1(banksy)" + " )" * (depth - 1)
    with pytest.raises(ParseError, match=f"operators nested at most {MAX_DEPTH} deep") as exc:
        parse(text)
    assert exc.value.position == len("#combine( ") * MAX_DEPTH  # the '#' that goes deeper

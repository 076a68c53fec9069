import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sqe.errors import EmptyInput, NotAnArticle
from sqe import motif_expander
from sqe.kb_graph import build_graph
from sqe.motif_expander import MotifKind, expand, expand_square, expand_triangular

from conftest import (
    GRAFFITI_BOTH_WEIGHTS,
    GRAFFITI_EDGES,
    GRAFFITI_NODES,
)
from generators import exhaustive_graphs, random_graph
from oracles import square_oracle, triangular_oracle


def by_title(g, qg):
    return {g.title(a): w for a, w in qg.expansion.items()}


def test_cable_car_triangular(cable_graph):
    g = cable_graph
    qg = expand_triangular(g, {g.article_by_title("Cable_car")})
    assert by_title(g, qg) == {"Funicular": 1}
    assert qg.motif_kind is MotifKind.TRIANGULAR


def test_graffiti_square_contains_banksy(graffiti_graph):
    g = graffiti_graph
    inputs = {g.article_by_title("Graffiti"), g.article_by_title("Street_art")}
    qg = expand_square(g, inputs)
    assert "Banksy" in by_title(g, qg)
    assert by_title(g, qg)["Banksy"] == 2


def test_graffiti_combined_weights(graffiti_graph):
    g = graffiti_graph
    inputs = {g.article_by_title("Graffiti"), g.article_by_title("Street_art")}
    qg = expand(g, inputs, MotifKind.BOTH)
    assert by_title(g, qg) == GRAFFITI_BOTH_WEIGHTS


def test_no_doubly_linked_neighbor_gives_empty():
    g = build_graph(
        [("1", "A", "X"), ("2", "A", "Y"), ("3", "C", "C")],
        [("1", "2", "AA"), ("1", "3", "AC"), ("2", "3", "AC")],
    )
    assert expand_triangular(g, {0}).expansion == {}
    assert expand_square(g, {0}).expansion == {}


def test_input_without_categories_matches_nothing():
    # an empty category set must not subset-match every neighbor
    g = build_graph(
        [("1", "A", "X"), ("2", "A", "Y"), ("3", "C", "C")],
        [("1", "2", "AA"), ("2", "1", "AA"), ("2", "3", "AC")],
    )
    assert expand_triangular(g, {0}).expansion == {}


def test_errors():
    g = build_graph([("1", "A", "X"), ("2", "C", "C")], [])
    with pytest.raises(EmptyInput):
        expand_triangular(g, set())
    with pytest.raises(EmptyInput):
        expand_square(g, set())
    with pytest.raises(NotAnArticle):
        expand_triangular(g, {1})


def test_both_sums_weights(graffiti_graph):
    g = graffiti_graph
    inputs = {g.article_by_title("Graffiti"), g.article_by_title("Street_art")}
    tri = expand_triangular(g, inputs).expansion
    sq = expand_square(g, inputs).expansion
    both = expand(g, inputs, MotifKind.BOTH).expansion
    assert set(both) == set(tri) | set(sq)
    for a, w in both.items():
        assert w == tri.get(a, 0) + sq.get(a, 0)


def test_expansion_disjoint_from_inputs_and_doubly_linked(graffiti_graph):
    g = graffiti_graph
    inputs = {g.article_by_title("Graffiti"), g.article_by_title("Street_art")}
    qg = expand(g, inputs, MotifKind.BOTH)
    assert not set(qg.expansion) & inputs
    for a in qg.expansion:
        assert any(g.doubly_linked(i, a) for i in inputs)
        assert g.is_article(a)


def _check_against_oracles(nodes, edges, input_exts):
    g = build_graph(nodes, edges)
    ext_to_id = {n.ext_id: n.id for n in g.nodes}
    id_to_ext = {n.id: n.ext_id for n in g.nodes}
    inputs = {ext_to_id[e] for e in input_exts}
    got_tri = {
        id_to_ext[a]: w for a, w in expand_triangular(g, inputs).expansion.items()
    }
    got_sq = {id_to_ext[a]: w for a, w in expand_square(g, inputs).expansion.items()}
    assert got_tri == triangular_oracle(nodes, edges, input_exts)
    assert got_sq == square_oracle(nodes, edges, input_exts)


def test_oracle_equivalence_exhaustive_small():
    checked = 0
    for nodes, edges in exhaustive_graphs(max_nodes=3):
        articles = [e for e, k, _t in nodes if k == "A"]
        if not articles:
            continue
        _check_against_oracles(nodes, edges, {articles[0]})
        checked += 1
    assert checked > 100


def test_oracle_equivalence_random_medium():
    rng = random.Random(42)
    for _ in range(30):
        nodes, edges = random_graph(rng, 50)
        articles = [e for e, k, _t in nodes if k == "A"]
        inputs = set(rng.sample(articles, 2))
        _check_against_oracles(nodes, edges, inputs)


def test_single_category_inputs_weight_equals_pairing_inputs():
    # with one category per input, each (input, candidate) triangle adds
    # exactly 1, so a candidate's weight counts the inputs it pairs with
    rng = random.Random(77)
    for _ in range(20):
        nodes, edges = random_graph(rng, 25, cats_per_article=(1, 1))
        g = build_graph(nodes, edges)
        articles = g.article_ids()
        inputs = set(rng.sample(articles, min(3, len(articles))))
        qg = expand_triangular(g, inputs)
        for a, w in qg.expansion.items():
            pairing = sum(
                1
                for i in inputs
                if g.doubly_linked(i, a)
                and g.categories_of(i)
                and g.categories_of(i) <= g.categories_of(a)
            )
            assert w == pairing


def test_monotone_in_inputs():
    rng = random.Random(3)
    for _ in range(20):
        nodes, edges = random_graph(rng, 30)
        g = build_graph(nodes, edges)
        articles = g.article_ids()
        if len(articles) < 3:
            continue
        s1 = set(rng.sample(articles, 1))
        s2 = s1 | set(rng.sample(articles, 2))
        small = set(expand(g, s1, MotifKind.BOTH).expansion)
        large = set(expand(g, s2, MotifKind.BOTH).expansion)
        # growing the input set can only absorb expansion articles, not drop them
        assert small - s2 <= large


def test_independent_of_edge_order():
    rng = random.Random(9)
    nodes, edges = random_graph(rng, 40)
    shuffled = edges[:]
    rng.shuffle(shuffled)
    g1, g2 = build_graph(nodes, edges), build_graph(nodes, shuffled)
    articles = g1.article_ids()[:3]
    for kind in MotifKind:
        assert expand(g1, articles, kind).expansion == expand(g2, articles, kind).expansion


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(4, 40), n_inputs=st.integers(1, 3))
def test_shared_memo_matches_fresh_expansions_in_every_order(seed, n_nodes, n_inputs):
    rng = random.Random(seed)
    nodes, edges = random_graph(rng, n_nodes)
    g = build_graph(nodes, edges)
    articles = g.article_ids()
    inputs = rng.sample(articles, min(n_inputs, len(articles)))
    fresh = {kind: expand(g, inputs, kind).expansion for kind in MotifKind}
    both = Counter(fresh[MotifKind.TRIANGULAR])
    both.update(fresh[MotifKind.SQUARE])
    assert fresh[MotifKind.BOTH] == dict(both)
    real_walk = motif_expander._motif_graphs
    for order in itertools.permutations(MotifKind):
        shared = {}
        with mock.patch.object(motif_expander, "_motif_graphs", wraps=real_walk) as walk:
            for kind in order:
                qg = expand(g, inputs, kind, shared)
                assert (qg.motif_kind, qg.expansion) == (kind, fresh[kind])
                assert qg.input_nodes == frozenset(inputs)
        assert walk.call_count == 1  # one walk fills the input set's entry
        assert set(shared) == {frozenset(inputs)}


@pytest.mark.parametrize("kind", list(MotifKind))
def test_expand_reads_a_one_shot_iterator_once(graffiti_graph, kind):
    g = graffiti_graph
    ids = [g.article_by_title("Graffiti"), g.article_by_title("Street_art")]
    qg = expand(g, iter(ids), kind)
    assert qg.expansion == expand(g, ids, kind).expansion
    assert qg.input_nodes == frozenset(ids)


def test_one_shared_memo_serves_two_input_sets(graffiti_graph):
    g = graffiti_graph
    first, second = [g.article_by_title("Graffiti")], [g.article_by_title("Street_art")]
    shared = {}
    with mock.patch.object(motif_expander, "_motif_graphs", wraps=motif_expander._motif_graphs) as walk:
        for inputs in (first, second, first):
            for kind in MotifKind:
                assert expand(g, inputs, kind, shared) == expand(g, inputs, kind)
    assert walk.call_count == 2 + 3 * len(MotifKind)  # the memo's two walks, then one per fresh call
    assert set(shared) == {frozenset(first), frozenset(second)}

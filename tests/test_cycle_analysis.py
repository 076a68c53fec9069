import gc
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sqe import cycle_analysis
from sqe.cycle_analysis import (
    MAX_CYCLE_LEN,
    MIN_CYCLE_LEN,
    Cycle,
    _LinkRows,
    category_ratio,
    cycle_length_stats,
    enumerate_cycles,
    extra_edge_density,
)
from sqe.kb_graph import KBGraph, NodeKind, build_graph

from generators import exhaustive_graphs, random_graph
from oracles import canonical_cycle, cycles_oracle


def test_cycle_identity_up_to_rotation_and_reflection():
    a = Cycle((1, 2, 3))
    assert a == Cycle((2, 3, 1)) == Cycle((3, 2, 1))
    assert hash(a) == hash(Cycle((2, 3, 1)))
    assert a != Cycle((1, 2, 4))
    assert len(a) == 3
    b = Cycle((3, 2, 1))
    assert b.nodes == (3, 2, 1) and b.canonical_key == (1, 2, 3)  # nodes keep their order
    assert repr(b) == "Cycle(nodes=(3, 2, 1))"


@pytest.mark.parametrize("nodes", [(), (3,), (1, 2, 1)])
def test_cycle_refuses_too_few_or_repeated_nodes(nodes):
    with pytest.raises(ValueError, match=re.escape(repr(nodes))):
        Cycle(nodes)


@given(st.lists(st.integers(-50, 50), min_size=MIN_CYCLE_LEN, max_size=MAX_CYCLE_LEN, unique=True))
def test_canonical_key_is_the_least_rotation_or_reflection(nodes):
    t = tuple(nodes)
    assert Cycle(t).canonical_key == min(s[r:] + s[:r] for s in (t, t[::-1]) for r in range(len(t)))


def test_two_article_cycle():
    g = build_graph(
        [("1", "A", "X"), ("2", "A", "Y")], [("1", "2", "AA"), ("2", "1", "AA")]
    )
    cycles = enumerate_cycles(g, {0})
    assert cycles == {Cycle((0, 1))}
    (c,) = cycles
    assert category_ratio(g, c) == 0.0


def test_single_direction_is_not_a_two_cycle():
    g = build_graph([("1", "A", "X"), ("2", "A", "Y")], [("1", "2", "AA")])
    assert enumerate_cycles(g, {0}) == set()


def test_membership_edge_cannot_close_two_cycle():
    g = build_graph([("1", "A", "X"), ("2", "C", "C")], [("1", "2", "AC")])
    assert enumerate_cycles(g, {0}) == set()


def test_triangle_through_category():
    # the triangular motif shape: doubly linked articles sharing a category
    g = build_graph(
        [("1", "A", "X"), ("2", "A", "Y"), ("3", "C", "C")],
        [("1", "2", "AA"), ("2", "1", "AA"), ("1", "3", "AC"), ("2", "3", "AC")],
    )
    cycles = enumerate_cycles(g, {0})
    assert Cycle((0, 1, 2)) in cycles
    tri = next(c for c in cycles if len(c) == 3)
    assert category_ratio(g, tri) == pytest.approx(1 / 3)


def test_empty_seeds_and_bad_bounds():
    g = build_graph([("1", "A", "X")], [])
    assert enumerate_cycles(g, set()) == set()
    with pytest.raises(ValueError):
        enumerate_cycles(g, {0}, 1, 5)
    with pytest.raises(ValueError):
        enumerate_cycles(g, {0}, 3, 2)


def test_extra_edge_density_cases():
    # one edge per consecutive pair: E equals L, density 0
    g = build_graph(
        [("1", "A", "X"), ("2", "A", "Y"), ("3", "C", "C")],
        [("1", "2", "AA"), ("2", "3", "AC"), ("1", "3", "AC")],
    )
    assert extra_edge_density(g, Cycle((0, 1, 2))) == 0.0

    # doubly linked article pair: E=2, L=2, E_max=4
    g2 = build_graph(
        [("1", "A", "X"), ("2", "A", "Y")], [("1", "2", "AA"), ("2", "1", "AA")]
    )
    assert extra_edge_density(g2, Cycle((0, 1))) == 0.0

    # fully doubled all-article 4-cycle: E=8, L=4, E_max=8
    names = [("1", "A", "P"), ("2", "A", "Q"), ("3", "A", "R"), ("4", "A", "S")]
    ring = [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")]
    edges = [(a, b, "AA") for a, b in ring] + [(b, a, "AA") for a, b in ring]
    g3 = build_graph(names, edges)
    assert extra_edge_density(g3, Cycle((0, 1, 2, 3))) == 0.5


def test_chords_do_not_count():
    # a 4-cycle of articles with a chord between opposite corners
    names = [("1", "A", "P"), ("2", "A", "Q"), ("3", "A", "R"), ("4", "A", "S")]
    ring = [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")]
    edges = [(a, b, "AA") for a, b in ring] + [("1", "3", "AA")]
    g = build_graph(names, edges)
    assert extra_edge_density(g, Cycle((0, 1, 2, 3))) == 0.0


def test_density_bounds_and_recheck_on_random_graphs():
    rng = random.Random(21)
    for _ in range(15):
        nodes, edges = random_graph(rng, 12)
        g = build_graph(nodes, edges)
        seeds = {0}
        for cycle in enumerate_cycles(g, seeds):
            assert 0 in cycle.nodes
            assert 0.0 <= extra_edge_density(g, cycle) <= 1.0
            assert 0.0 <= category_ratio(g, cycle) <= 1.0
            assert len(set(cycle.nodes)) == len(cycle.nodes)


def test_density_matches_a_count_of_raw_rows():
    rng = random.Random(29)
    checked = 0
    for _ in range(20):
        nodes, edges = random_graph(rng, 10)
        edges += edges[::4]  # repeated rows are one edge
        g = build_graph(nodes, edges)
        ext = [e for e, _k, _t in nodes]
        rows = {(s, d, k) for s, d, k in edges}
        for cycle in enumerate_cycles(g, {0, 1}):
            ring = [ext[i] for i in cycle.nodes]
            pairs = {frozenset((ring[i], ring[(i + 1) % len(ring)])) for i in range(len(ring))}
            n_edges = sum(1 for s, d, _k in rows if frozenset((s, d)) in pairs)
            e_max = sum(2 if nodes[cycle.nodes[i]][1] == nodes[cycle.nodes[i - 1]][1] else 1
                        for i in range(len(ring)))
            assert extra_edge_density(g, cycle) == max(0, n_edges - len(ring)) / e_max
            checked += 1
    assert checked > 50


def _ids_to_ext(g, cycles):
    return {canonical_cycle(tuple(g.nodes[i].ext_id for i in c.nodes)) for c in cycles}


def test_matches_brute_force_oracle_small():
    rng = random.Random(5)
    count = 0
    for nodes, edges in exhaustive_graphs(max_nodes=3):
        if rng.random() > 0.25:  # thin out; the acceptance suite runs the full family
            continue
        g = build_graph(nodes, edges)
        seeds = {0}
        got = _ids_to_ext(g, enumerate_cycles(g, seeds))
        want = cycles_oracle(nodes, edges, {nodes[0][0]}, 2, 5)
        assert got == want
        count += 1
    assert count > 20


def test_matches_brute_force_oracle_random():
    rng = random.Random(17)
    for _ in range(12):
        nodes, edges = random_graph(rng, 8)
        g = build_graph(nodes, edges)
        seed_ids = {0, 1}
        got = _ids_to_ext(g, enumerate_cycles(g, seed_ids))
        want = cycles_oracle(nodes, edges, {nodes[0][0], nodes[1][0]}, 2, 5)
        assert got == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), n_nodes=st.integers(2, 8), reciprocal_cc=st.booleans(),
       data=st.data())
def test_matches_oracle_for_every_length_bound(seed, n_nodes, reciprocal_cc, data):
    nodes, edges = random_graph(random.Random(seed), n_nodes, reciprocal_cc=reciprocal_cc)
    edges += edges[::3]  # repeated rows are one stored edge
    g = build_graph(nodes, edges)
    seeds = data.draw(st.lists(st.integers(0, n_nodes - 1), min_size=2, max_size=2, unique=True))
    seed_ext = {nodes[i][0] for i in seeds}
    for min_len in range(MIN_CYCLE_LEN, MAX_CYCLE_LEN + 1):
        for max_len in range(min_len, MAX_CYCLE_LEN + 1):
            got = _ids_to_ext(g, enumerate_cycles(g, seeds, min_len, max_len))
            assert got == cycles_oracle(nodes, edges, seed_ext, min_len, max_len), (min_len, max_len)


def _hops(nodes, edges, seeds):
    """Each node's distance from the nearest seed over raw rows, either direction."""
    ids = {ext: i for i, (ext, _k, _t) in enumerate(nodes)}
    adjacent = {i: set() for i in range(len(nodes))}
    for s, d, _k in edges:
        adjacent[ids[s]].add(ids[d])
        adjacent[ids[d]].add(ids[s])
    dist, frontier = dict.fromkeys(seeds, 0), list(seeds)
    while frontier:
        reached = []
        for i in frontier:
            for j in adjacent[i] - dist.keys():
                dist[j] = dist[i] + 1
                reached.append(j)
        frontier = reached
    return dist


@pytest.mark.parametrize("max_len", range(MIN_CYCLE_LEN, MAX_CYCLE_LEN + 1))
def test_rows_are_read_once_and_never_at_the_last_depth(monkeypatch, max_len):
    nodes, edges = random_graph(random.Random(41), 30)
    g = build_graph(nodes, edges)
    seeds = {0, 1}
    reads = Counter()
    links = KBGraph.links

    def counting(self, i):
        reads[i] += 1
        return links(self, i)

    monkeypatch.setattr(KBGraph, "links", counting)
    enumerate_cycles(g, seeds, MIN_CYCLE_LEN, max_len)
    # a path's first max_len - 1 nodes are read: the nodes within max_len - 2 hops of a seed
    within = {i for i, d in _hops(nodes, edges, seeds).items() if d <= max_len - 2}
    assert set(reads) == within and set(reads.values()) == {1}


def test_enumeration_leaves_no_reference_to_the_graph():
    """Nothing the call made still holds ``g``, so a graph is freed with its last
    name and not at a later gc pass; with gc off, a reference cycle would keep it."""
    g = build_graph(*random_graph(random.Random(43), 30))
    before = sys.getrefcount(g)
    gc.disable()
    try:
        assert enumerate_cycles(g, {0, 1})
        assert sys.getrefcount(g) == before
    finally:
        gc.enable()


@pytest.mark.parametrize("max_len", range(MIN_CYCLE_LEN, MAX_CYCLE_LEN + 1))
def test_each_cycle_is_built_once_from_one_seed(monkeypatch, max_len):
    nodes, edges = random_graph(random.Random(41), 30)
    g = build_graph(nodes, edges)
    built = []

    def counting(nodes):
        built.append(nodes)
        return Cycle(nodes)

    monkeypatch.setattr(cycle_analysis, "Cycle", counting)
    found = enumerate_cycles(g, {0}, MIN_CYCLE_LEN, max_len)
    assert found and len(built) == len(found)


def _enumerate_cycles_both_ways(g, seeds, min_len, max_len):
    """The DFS that kept every find: a longer cycle is added once per direction."""
    found, path, rows = set(), [], _LinkRows(g)

    def dfs(seed, seed_row, current):
        for nb, n_edges in rows[current].items():
            if nb == seed:
                if len(path) >= min_len and (len(path) > 2 or n_edges >= 2):
                    found.add(Cycle(tuple(path)))
            elif nb not in path:
                path.append(nb)
                if len(path) < max_len:
                    dfs(seed, seed_row, nb)
                elif seed_row.get(nb, 0) >= (2 if max_len == 2 else 1):
                    found.add(Cycle(tuple(path)))
                path.pop()

    for seed in sorted(set(seeds)):
        path[:] = [seed]
        dfs(seed, rows[seed], seed)
    return found


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), n_nodes=st.integers(2, 12), reciprocal_cc=st.booleans(),
       data=st.data())
def test_one_direction_keeps_the_set_its_nodes_and_its_order(seed, n_nodes, reciprocal_cc, data):
    nodes, edges = random_graph(random.Random(seed), n_nodes, reciprocal_cc=reciprocal_cc)
    edges += edges[::3]  # repeated rows are one stored edge
    g = build_graph(nodes, edges)
    seeds = data.draw(st.sets(st.integers(0, n_nodes - 1), min_size=1, max_size=3))
    min_len = data.draw(st.integers(MIN_CYCLE_LEN, MAX_CYCLE_LEN))
    max_len = data.draw(st.integers(min_len, MAX_CYCLE_LEN))
    got = enumerate_cycles(g, seeds, min_len, max_len)
    want = _enumerate_cycles_both_ways(g, seeds, min_len, max_len)
    assert got == want
    assert [c.nodes for c in got] == [c.nodes for c in want]


def test_seed_order_invariance():
    rng = random.Random(23)
    nodes, edges = random_graph(rng, 10)
    g = build_graph(nodes, edges)
    assert enumerate_cycles(g, [0, 1, 2]) == enumerate_cycles(g, [2, 0, 1])


def test_mean_category_ratio_trend_on_generated_fixture():
    # a fixture of article-pair-plus-shared-category triangles: every
    # 3-cycle carries exactly one category, so the mean ratio is 1/3
    nodes, edges = [], []
    for i in range(8):
        a, b, c = f"a{i}", f"b{i}", f"c{i}"
        nodes += [(a, "A", f"Art_{i}"), (b, "A", f"Brt_{i}"), (c, "C", f"Cat_{i}")]
        edges += [(a, b, "AA"), (b, a, "AA"), (a, c, "AC"), (b, c, "AC")]
    g = build_graph(nodes, edges)
    seeds = set(range(len(g)))
    cycles = [c for c in enumerate_cycles(g, seeds) if len(c) == 3]
    assert len(cycles) == 8
    # direct counting oracle over node kinds
    expected = [
        sum(1 for i in c.nodes if g.nodes[i].kind.value == "C") / len(c) for c in cycles
    ]
    got = [category_ratio(g, c) for c in cycles]
    assert got == expected
    assert sum(got) / len(got) == pytest.approx(1 / 3)


def test_cycle_length_stats_rows():
    g = build_graph(
        [("1", "A", "X"), ("2", "A", "Y"), ("3", "C", "C")],
        [("1", "2", "AA"), ("2", "1", "AA"), ("1", "3", "AC"), ("2", "3", "AC")],
    )
    rows = cycle_length_stats(g, enumerate_cycles(g, {0}))
    assert [r[0] for r in rows] == [2, 3]
    two = rows[0]
    assert two[1] == 1 and two[2] == 0.0
    three = rows[1]
    assert three[2] == pytest.approx(1 / 3)


def _reference_ratio(g, c):
    return sum(1 for i in c.nodes if g.kind(i) is NodeKind.CATEGORY) / len(c)


def _reference_density(g, c):
    length = len(c)
    slots = [(c.nodes[i], c.nodes[(i + 1) % length]) for i in range(length)]
    e_max = sum(2 if g.kind(u) is g.kind(v) else 1 for u, v in slots)
    pairs = {frozenset(slot) for slot in slots}  # a 2-cycle's two slots are one pair
    n_edges = sum(g.link_count(*pair) for pair in pairs)
    return max(0, n_edges - length) / e_max


def _reference_stats(g, cycles):
    """One call per cycle, summed in the order given: the plain per-cycle fold."""
    buckets = {}
    for c in cycles:
        buckets.setdefault(len(c), []).append(c)
    rows = []
    for length in sorted(buckets):
        group = buckets[length]
        ratios = [_reference_ratio(g, c) for c in group]
        densities = [_reference_density(g, c) for c in group]
        rows.append((length, len(group), sum(ratios) / len(group), sum(densities) / len(group)))
    return rows


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), n_nodes=st.integers(2, 12), reciprocal_cc=st.booleans(),
       max_len=st.integers(MIN_CYCLE_LEN, MAX_CYCLE_LEN), data=st.data())
def test_stats_equal_a_per_cycle_fold(seed, n_nodes, reciprocal_cc, max_len, data):
    nodes, edges = random_graph(random.Random(seed), n_nodes, reciprocal_cc=reciprocal_cc)
    edges += edges[::3]  # repeated rows are one stored edge
    g = build_graph(nodes, edges)
    seeds = data.draw(st.sets(st.integers(0, n_nodes - 1), min_size=1, max_size=3))
    cycles = enumerate_cycles(g, seeds, MIN_CYCLE_LEN, max_len)
    shuffled = data.draw(st.permutations(list(cycles)))
    # node rings that need not be cycles of g: a pair may be joined by no edge
    ring = st.lists(st.integers(0, n_nodes - 1), min_size=2, max_size=min(n_nodes, max_len), unique=True)
    rings = [Cycle(tuple(t)) for t in data.draw(st.lists(ring, max_size=4))]
    assert cycle_length_stats(g, cycles) == _reference_stats(g, cycles)
    assert cycle_length_stats(g, shuffled) == _reference_stats(g, shuffled)
    assert cycle_length_stats(g, rings) == _reference_stats(g, rings)
    for c in [*cycles, *rings]:
        assert category_ratio(g, c) == _reference_ratio(g, c)
        assert extra_edge_density(g, c) == _reference_density(g, c)


def test_stats_read_each_row_once_and_make_no_per_edge_calls(monkeypatch):
    nodes, edges = random_graph(random.Random(43), 30)
    g = build_graph(nodes, edges)
    cycles = enumerate_cycles(g, {0, 1, 2})
    assert {len(c) for c in cycles} == set(range(MIN_CYCLE_LEN, MAX_CYCLE_LEN + 1))
    reads = Counter()
    links = KBGraph.links

    def counting(self, i):
        reads[i] += 1
        return links(self, i)

    def refused(self, *args):
        raise AssertionError("a per-node or per-edge graph call")

    monkeypatch.setattr(KBGraph, "links", counting)
    monkeypatch.setattr(KBGraph, "link_count", refused)
    monkeypatch.setattr(KBGraph, "kind", refused)
    cycle_length_stats(g, cycles)
    assert set(reads) <= {i for c in cycles for i in c.nodes} and set(reads.values()) == {1}

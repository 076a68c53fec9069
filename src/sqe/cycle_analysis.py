"""Short-cycle structure around seed nodes.

Cycles are closed sequences of 2..5 distinct nodes, articles or
categories, with at least one edge (any kind, either direction) between
each consecutive pair.  Identity is up to rotation and reflection.  A
:class:`Cycle` refuses fewer than two nodes or a repeated node, so its
least rotation or reflection starts at its least node.  Two per-cycle
statistics characterize them: the fraction of category nodes, and the
density of edges beyond the minimum needed to close the cycle.  Both are
computed for all cycles of one length at once; the per-cycle functions
are one-row calls of that code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .kb_graph import KBGraph, NodeId

MIN_CYCLE_LEN = 2
MAX_CYCLE_LEN = 5


@dataclass(frozen=True)
class Cycle:
    """Nodes in traversal order, compared and hashed by their least rotation or reflection."""

    nodes: tuple[NodeId, ...] = field(compare=False)
    canonical_key: tuple[NodeId, ...] = field(init=False, repr=False)

    def __post_init__(self):
        s = self.nodes
        if len(s) < MIN_CYCLE_LEN or len(set(s)) != len(s):
            raise ValueError(f"a cycle needs {MIN_CYCLE_LEN} or more distinct nodes, got {s!r}")
        r = s.index(min(s))
        fwd = s[r:] + s[:r]  # the least node first; nodes are distinct, so it leads the key
        object.__setattr__(self, "canonical_key", min(fwd, fwd[:1] + fwd[:0:-1]))

    def __len__(self) -> int:
        return len(self.nodes)


class _LinkRows(dict):
    """node -> {neighbor: edges joining them}, each row read from the graph once."""

    def __init__(self, g: KBGraph):
        self.g = g

    def __missing__(self, i: NodeId) -> dict[NodeId, int]:
        neighbors, n_edges = self.g.links(i)
        counts = self[i] = dict(zip(neighbors.tolist(), n_edges.tolist()))
        return counts


def enumerate_cycles(
    g: KBGraph,
    seeds: Iterable[NodeId],
    min_len: int = MIN_CYCLE_LEN,
    max_len: int = MAX_CYCLE_LEN,
) -> set[Cycle]:
    """All distinct cycles through at least one seed, by bounded DFS.

    A length-2 cycle needs two distinct edges between its nodes (a lone
    membership edge does not close one); longer cycles need one edge per
    consecutive pair, which the traversal guarantees.
    """
    if not MIN_CYCLE_LEN <= min_len <= max_len <= MAX_CYCLE_LEN:
        raise ValueError(f"cycle lengths must satisfy 2 <= min <= max <= 5, got {min_len}..{max_len}")
    found: set[Cycle] = set()
    path: list[NodeId] = []
    rows = _LinkRows(g)

    # a cycle of 3 or more nodes closes once per direction; rows are sorted, so the
    # first find, the one kept, is the one whose second node is less than its last
    def dfs(seed: NodeId, seed_row: dict[NodeId, int], current: NodeId) -> None:
        for nb, n_edges in rows[current].items():
            if nb == seed:
                if len(path) >= min_len and (path[1] < current if len(path) > 2 else n_edges >= 2):
                    found.add(Cycle(tuple(path)))
            elif nb not in path:
                path.append(nb)
                if len(path) < max_len:
                    dfs(seed, seed_row, nb)
                elif (path[1] < nb and nb in seed_row) if max_len > 2 else seed_row.get(nb, 0) >= 2:
                    # the last depth: nb closes a cycle iff it is in the seed's row; its own row is not read
                    found.add(Cycle(tuple(path)))
                path.pop()

    for seed in sorted(set(seeds)):
        path[:] = [seed]
        dfs(seed, rows[seed], seed)
    del dfs  # dfs refers to itself: a cycle that would hold g until the next gc pass
    return found


def _stats(g: KBGraph, ids: np.ndarray, rows: _LinkRows) -> tuple[list[float], list[float]]:
    """Category ratio and extra-edge density of each cycle in ``ids``, one ``(m, L)`` row per cycle."""
    m, length = ids.shape
    nxt = np.concatenate((ids[:, 1:], ids[:, :1]), axis=1)  # each slot's second node
    is_cat = g._is_category[ids]
    e_max = length + (is_cat == g._is_category[nxt]).sum(axis=1)
    n_pairs = length if length > 2 else 1  # a 2-cycle's two slots are one pair
    us, vs = ids[:, :n_pairs].ravel().tolist(), nxt[:, :n_pairs].ravel().tolist()
    n_edges = np.array([rows[u].get(v, 0) for u, v in zip(us, vs)]).reshape(m, n_pairs).sum(axis=1)
    return (is_cat.sum(axis=1) / length).tolist(), (np.maximum(n_edges - length, 0) / e_max).tolist()


def category_ratio(g: KBGraph, c: Cycle) -> float:
    """Fraction of the cycle's nodes that are categories."""
    return _stats(g, np.array([c.nodes]), _LinkRows(g))[0][0]


def extra_edge_density(g: KBGraph, c: Cycle) -> float:
    """Edges beyond the closing minimum, relative to the consecutive-pair maximum.

    Edges between non-consecutive nodes (chords) are not counted on
    either side of the ratio.  Same-kind pairs (article-article,
    category-category) can carry two edges, article-category pairs one.
    """
    return _stats(g, np.array([c.nodes]), _LinkRows(g))[1][0]


def cycle_length_stats(g: KBGraph, cycles: Iterable[Cycle]) -> list[tuple[int, int, float, float]]:
    """Per-length rows: (length, count, mean category ratio, mean extra-edge density)."""
    buckets: dict[int, list[tuple[NodeId, ...]]] = {}
    for c in cycles:
        buckets.setdefault(len(c.nodes), []).append(c.nodes)
    rows, stats = _LinkRows(g), []
    for length, group in sorted(buckets.items()):
        ratios, densities = _stats(g, np.array(group), rows)
        stats.append((length, len(group), sum(ratios) / len(group), sum(densities) / len(group)))
    return stats

"""Short-cycle structure around seed nodes.

Cycles are closed sequences of 2..5 distinct nodes, articles or
categories, with at least one edge (any kind, either direction) between
each consecutive pair.  Identity is up to rotation and reflection.  Two
per-cycle statistics characterize them: the fraction of category nodes,
and the density of edges beyond the minimum needed to close the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .kb_graph import KBGraph, NodeId, NodeKind

MIN_CYCLE_LEN = 2
MAX_CYCLE_LEN = 5


@dataclass(frozen=True)
class Cycle:
    """Nodes in traversal order, compared and hashed by their least rotation or reflection."""

    nodes: tuple[NodeId, ...] = field(compare=False)
    canonical_key: tuple[NodeId, ...] = field(init=False, repr=False)

    def __post_init__(self):
        seqs = (self.nodes, self.nodes[::-1])
        key = min(seq[r:] + seq[:r] for seq in seqs for r in range(len(seq)))
        object.__setattr__(self, "canonical_key", key)

    def __len__(self) -> int:
        return len(self.nodes)


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
    rows: dict[NodeId, dict[NodeId, int]] = {}  # node -> {neighbor: edges joining them}

    def row(i: NodeId) -> dict[NodeId, int]:
        counts = rows.get(i)
        if counts is None:
            neighbors, n_edges = g.links(i)
            counts = rows[i] = dict(zip(neighbors.tolist(), n_edges.tolist()))
        return counts

    def dfs(seed: NodeId, seed_row: dict[NodeId, int], current: NodeId) -> None:
        for nb, n_edges in row(current).items():
            if nb == seed:
                if len(path) >= min_len and (len(path) > 2 or n_edges >= 2):
                    found.add(Cycle(tuple(path)))
            elif nb not in path:
                path.append(nb)
                if len(path) < max_len:
                    dfs(seed, seed_row, nb)
                elif seed_row.get(nb, 0) >= (2 if max_len == 2 else 1):
                    # the last depth: nb closes a cycle iff it is in the seed's row; its own row is not read
                    found.add(Cycle(tuple(path)))
                path.pop()

    for seed in sorted(set(seeds)):
        path[:] = [seed]
        dfs(seed, row(seed), seed)
    return found


def category_ratio(g: KBGraph, c: Cycle) -> float:
    """Fraction of the cycle's nodes that are categories."""
    n_cat = sum(1 for i in c.nodes if g.kind(i) is NodeKind.CATEGORY)
    return n_cat / len(c)


def extra_edge_density(g: KBGraph, c: Cycle) -> float:
    """Edges beyond the closing minimum, relative to the consecutive-pair maximum.

    Edges between non-consecutive nodes (chords) are not counted on
    either side of the ratio.  Same-kind pairs (article-article,
    category-category) can carry two edges, article-category pairs one.
    """
    length = len(c)
    slots = [(c.nodes[i], c.nodes[(i + 1) % length]) for i in range(length)]
    e_max = sum(2 if g.kind(u) is g.kind(v) else 1 for u, v in slots)
    pairs = {frozenset(slot) for slot in slots}  # a 2-cycle's two slots are one pair
    n_edges = sum(g.link_count(*pair) for pair in pairs)
    return max(0, n_edges - length) / e_max


def cycle_length_stats(g: KBGraph, cycles: Iterable[Cycle]) -> list[tuple[int, int, float, float]]:
    """Per-length rows: (length, count, mean category ratio, mean extra-edge density)."""
    buckets: dict[int, list[Cycle]] = {}
    for c in cycles:
        buckets.setdefault(len(c), []).append(c)
    rows = []
    for length in sorted(buckets):
        group = buckets[length]
        ratios = [category_ratio(g, c) for c in group]
        densities = [extra_edge_density(g, c) for c in group]
        rows.append(
            (length, len(group), sum(ratios) / len(group), sum(densities) / len(group))
        )
    return rows

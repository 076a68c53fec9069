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

import numpy as np

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
    edge_counts: dict[NodeId, dict[NodeId, int]] = {}  # node -> {neighbor: edges joining them}

    def dfs(seed: NodeId, current: NodeId, on_path: set[NodeId]) -> None:
        counts = edge_counts.get(current)
        if counts is None:
            ends, n = np.unique(g.incident(current), return_counts=True)
            counts = edge_counts[current] = dict(zip(ends.tolist(), n.tolist()))
        for nb, n_edges in counts.items():
            if nb == seed and len(path) >= min_len and (len(path) > 2 or n_edges >= 2):
                found.add(Cycle(tuple(path)))
            if nb not in on_path and len(path) < max_len:
                path.append(nb)
                on_path.add(nb)
                dfs(seed, nb, on_path)
                on_path.remove(nb)
                path.pop()

    for seed in sorted(set(seeds)):
        path[:] = [seed]
        dfs(seed, seed, {seed})
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
    n_edges = sum(int(np.count_nonzero(g.incident(u) == v)) for u, v in pairs)
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

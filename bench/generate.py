"""Seeded synthetic inputs: a motif-rich knowledge graph, a Zipf collection,
topics and qrels.

Every count below is fixed; the seed only picks which words, articles and
positions fill the structure.  Per-request work therefore has the same
distribution under every seed, which keeps medians comparable across
seeds, and a drifted generator shows in the input properties a run prints.

Uniform random graphs give motif expansions of 0-2 articles, so the
structure around each topic entity ("hub") is planted: reciprocal links,
neighbours that share all of the hub's categories (triangular motif) and
neighbours whose categories are joined to the hub's by containment edges
(square motif).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# -- graph --------------------------------------------------------------------
N_ARTICLES = 10_000
N_CATEGORIES = 2_000
N_HUBS = 48
HUB_CATEGORIES = 4  # categories of every hub, reserved for it
HUB_SATELLITES = 3  # categories joined to a hub category by a CC edge
HUB_TRIANGULAR = 12  # reciprocal neighbours holding all hub categories
HUB_SQUARE = 12  # reciprocal neighbours in satellite categories
HUB_PLAIN = 6  # reciprocal neighbours with no motif
HUB_ONE_WAY = 2  # one-directional links in each direction, never motifs
AA_PER_ARTICLE = 1
AA_RECIPROCAL = 0.25
CC_PER_CATEGORY = 1

# -- collection -----------------------------------------------------------------
VOCABULARY = 2_000
ZIPF_S = 1.0
N_DOCS = 1_500
DOC_LENGTH = (60, 100)
TITLE_BAND = (25, 300)  # vocabulary ranks article-title words come from
RELEVANT_PER_TOPIC = 8
FEATURES_PER_RELEVANT = 3  # neighbour titles planted into each relevant doc
NOISE_PER_NEIGHBOUR = 8  # docs that mention a hub neighbour's title anyway

# -- topics ---------------------------------------------------------------------
# topics linking to 0 (fallback), 1, 2 and 3 hubs
TOPIC_MIX = (9, 17, 17, 17)
FILLER_WORDS = (1, 3)

# the most frequent words of the collection, all in the library's stopword list
FUNCTION_WORDS = (
    "the", "of", "and", "to", "in", "a", "is", "for", "on", "that", "with",
    "as", "by", "at", "from", "it", "an", "be", "this", "are", "was", "or",
)
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _vocabulary(size: int) -> list[str]:
    """Function words first, then distinct pronounceable pseudo-words."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words = list(FUNCTION_WORDS)
    seen = set(words)
    i = 0
    while len(words) < size:
        word = syllables[i % 70] + syllables[(i // 70) % 70]
        if i >= 70 * 70:
            word += syllables[i // 4900 % 70]
        i += 1
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


@dataclass
class Inputs:
    """Everything one seed produces, as the rows the files hold."""

    node_rows: list[tuple[str, str, str]]
    edge_rows: list[tuple[str, str, str]]
    docs: list[tuple[str, list[str]]]
    topics: list[tuple[str, str]]
    qrels: list[tuple[str, str, int]]
    hub_titles: list[str]  # graph-study seeds, in request order
    linked_hubs: dict[str, list[str]]  # qid -> hub titles its text names

    def write(self, directory: Path) -> dict[str, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            name: directory / name
            for name in ("nodes.tsv", "edges.tsv", "docs.jsonl", "topics.tsv", "qrels.txt")
        }
        _write_lines(paths["nodes.tsv"], ("\t".join(r) for r in self.node_rows))
        _write_lines(paths["edges.tsv"], ("\t".join(r) for r in self.edge_rows))
        _write_lines(
            paths["docs.jsonl"],
            (json.dumps({"id": d, "text": " ".join(t)}) for d, t in self.docs),
        )
        _write_lines(paths["topics.tsv"], (f"{q}\t{t}" for q, t in self.topics))
        _write_lines(paths["qrels.txt"], (f"{q} 0 {d} {r}" for q, d, r in self.qrels))
        return paths

    def properties(self) -> dict[str, int]:
        return {
            "graph_nodes": len(self.node_rows),
            "graph_edges": len(self.edge_rows),
            "collection_docs": len(self.docs),
            "collection_tokens": sum(len(t) for _d, t in self.docs),
            "topics": len(self.topics),
        }


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _greedy_link(tokens: list[str], titles: dict[tuple[str, ...], str]) -> list[str]:
    """Longest-match linking over token tuples, as the library documents it."""
    found: list[str] = []
    i = 0
    while i < len(tokens):
        for n in range(min(3, len(tokens) - i), 0, -1):
            title = titles.get(tuple(tokens[i : i + n]))
            if title is not None:
                if title not in found:
                    found.append(title)
                i += n
                break
        else:
            i += 1
    return found


def generate(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    vocab = _vocabulary(VOCABULARY)

    # article titles: unique two-word names from the title band
    band = np.arange(*TITLE_BAND)
    title_words: list[tuple[str, ...]] = []
    taken: set[tuple[str, ...]] = set()
    while len(title_words) < N_ARTICLES:
        pair = tuple(vocab[i] for i in rng.choice(band, 2, replace=False))
        if pair not in taken:
            taken.add(pair)
            title_words.append(pair)
    art_title = ["_".join(w).capitalize() for w in title_words]
    by_tokens = {w: t for w, t in zip(title_words, art_title)}

    node_rows = [(f"a{i}", "A", art_title[i]) for i in range(N_ARTICLES)]
    node_rows += [(f"c{i}", "C", f"Category_{i}") for i in range(N_CATEGORIES)]

    def cat(i: int) -> str:
        return f"c{i}"

    edges: set[tuple[str, str, str]] = set()
    hubs = rng.choice(N_ARTICLES, N_HUBS, replace=False)
    hub_set = set(int(h) for h in hubs)
    others = np.array([a for a in range(N_ARTICLES) if a not in hub_set])
    reserved = N_HUBS * (HUB_CATEGORIES + HUB_SATELLITES)
    background_cats = np.arange(reserved, N_CATEGORIES)

    # background: every non-hub article in 1-2 categories, random links
    for a in others:
        for c in rng.choice(background_cats, rng.integers(1, 3), replace=False):
            edges.add((f"a{a}", cat(int(c)), "AC"))
    n_links = AA_PER_ARTICLE * N_ARTICLES
    src = rng.integers(0, N_ARTICLES, n_links)
    dst = rng.integers(0, N_ARTICLES, n_links)
    back = rng.random(n_links) < AA_RECIPROCAL
    for s, d, r in zip(src.tolist(), dst.tolist(), back.tolist()):
        if s != d:
            edges.add((f"a{s}", f"a{d}", "AA"))
            if r:
                edges.add((f"a{d}", f"a{s}", "AA"))
    n_cc = CC_PER_CATEGORY * N_CATEGORIES
    for s, d in zip(rng.choice(background_cats, n_cc), rng.choice(background_cats, n_cc)):
        if s != d:
            edges.add((cat(int(s)), cat(int(d)), "CC"))

    # planted motif structure around each hub
    neighbours: dict[int, list[int]] = {}
    per_hub = HUB_TRIANGULAR + HUB_SQUARE + HUB_PLAIN
    for h_i, h in enumerate(hubs.tolist()):
        base = h_i * (HUB_CATEGORIES + HUB_SATELLITES)
        own = [base + j for j in range(HUB_CATEGORIES)]
        satellites = [base + HUB_CATEGORIES + j for j in range(HUB_SATELLITES)]
        for c in own:
            edges.add((f"a{h}", cat(c), "AC"))
        for j, s in enumerate(satellites):
            target = own[j % HUB_CATEGORIES]
            edges.add((cat(s), cat(target), "CC") if j % 2 else (cat(target), cat(s), "CC"))
        picked = rng.choice(others, per_hub + 2 * HUB_ONE_WAY, replace=False).tolist()
        recip, one_way = picked[:per_hub], picked[per_hub:]
        neighbours[h] = recip
        for a in recip:
            edges.add((f"a{h}", f"a{a}", "AA"))
            edges.add((f"a{a}", f"a{h}", "AA"))
        for a in recip[:HUB_TRIANGULAR]:
            for c in own:
                edges.add((f"a{a}", cat(c), "AC"))
        for a in recip[HUB_TRIANGULAR : HUB_TRIANGULAR + HUB_SQUARE]:
            for c in rng.choice(satellites, 2, replace=False):
                edges.add((f"a{a}", cat(int(c)), "AC"))
        for a in one_way[:HUB_ONE_WAY]:
            edges.add((f"a{a}", f"a{h}", "AA"))
        for a in one_way[HUB_ONE_WAY:]:
            edges.add((f"a{h}", f"a{a}", "AA"))
    # a one-way link planted above may have met a random reverse link;
    # that only adds motif candidates, which is harmless

    edge_rows = sorted(edges, key=lambda e: (e[2], e[0], e[1]))
    rng.shuffle(edge_rows)

    # topics: fixed mix of fallback and 1-3-hub topics over shared hubs
    hub_list = hubs.tolist()
    hub_cycle = list(rng.permutation(hub_list))
    filler_band = np.arange(len(FUNCTION_WORDS), VOCABULARY)
    topics: list[tuple[str, str]] = []
    linked_hubs: dict[str, list[str]] = {}
    topic_hubs: dict[str, list[int]] = {}
    slots = [k for k, count in enumerate(TOPIC_MIX) for _ in range(count)]
    rng.shuffle(slots)
    cursor = 0
    for t_i, n_hubs in enumerate(slots):
        qid = f"t{t_i + 1:03d}"
        chosen = []
        while len(chosen) < n_hubs:
            h = hub_cycle[cursor % len(hub_cycle)]
            cursor += 1
            if h not in chosen:
                chosen.append(h)
        want = [art_title[h] for h in chosen]
        while True:
            words: list[str] = []
            for h in chosen:
                words += list(title_words[h])
            n_fill = int(rng.integers(FILLER_WORDS[0], FILLER_WORDS[1] + 1))
            fill = [vocab[i] for i in rng.choice(filler_band, n_fill, replace=False)]
            for w in fill:
                words.insert(int(rng.integers(0, len(words) + 1)), w)
            if _greedy_link(words, by_tokens) == want:
                break
        topics.append((qid, " ".join(words)))
        linked_hubs[qid] = want
        topic_hubs[qid] = chosen

    # collection: Zipf background with planted topic and neighbour phrases
    ranks = np.arange(1, VOCABULARY + 1, dtype=np.float64)
    p = ranks**-ZIPF_S
    p /= p.sum()
    lengths = rng.integers(DOC_LENGTH[0], DOC_LENGTH[1] + 1, N_DOCS)
    docs_tok = [[vocab[i] for i in rng.choice(VOCABULARY, n, p=p)] for n in lengths]

    def plant(doc: list[str], phrase: list[str]) -> None:
        at = int(rng.integers(0, len(doc) - len(phrase) + 1))
        doc[at : at + len(phrase)] = phrase

    qrels: list[tuple[str, str, int]] = []
    relevant = rng.permutation(N_DOCS)
    cursor = 0
    for qid, text in topics:
        chosen = topic_hubs[qid]
        feats = [n for h in chosen for n in neighbours[h][: HUB_TRIANGULAR + HUB_SQUARE]]
        for _ in range(RELEVANT_PER_TOPIC):
            d = int(relevant[cursor % N_DOCS])
            cursor += 1
            plant(docs_tok[d], text.split())
            if feats:
                for n in rng.choice(feats, FEATURES_PER_RELEVANT, replace=False):
                    plant(docs_tok[d], list(title_words[int(n)]))
            qrels.append((qid, f"d{d:05d}", 1))
    for h in hub_list:
        for n in neighbours[h]:
            for d in rng.choice(N_DOCS, NOISE_PER_NEIGHBOUR, replace=False):
                plant(docs_tok[int(d)], list(title_words[n]))
    docs = [(f"d{i:05d}", toks) for i, toks in enumerate(docs_tok)]

    return Inputs(
        node_rows=node_rows,
        edge_rows=edge_rows,
        docs=docs,
        topics=topics,
        qrels=sorted(set(qrels)),
        hub_titles=[art_title[h] for h in hub_list],
        linked_hubs=linked_hubs,
    )

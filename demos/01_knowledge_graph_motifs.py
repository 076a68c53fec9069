"""Knowledge-base graphs and motif expansion.

Builds two small article/category graphs and walks through the
structural motifs that pick expansion articles: the triangular motif
(doubly linked + superset of the input's categories) and the square
motif (doubly linked + a containment edge between categories).
"""

from sqe import MotifKind, build_graph, expand, expand_square, expand_triangular

# A graph is two TSV-shaped row sets: nodes (id, kind, title) and edges
# (src, dst, kind).  Kinds: A article, C category; AA article links
# article, AC article belongs to category, CC category inside category.
nodes = [
    ("1", "A", "Cable_car"),
    ("2", "A", "Funicular"),
    ("3", "C", "Cable_transport"),
    ("4", "A", "Gondola_lift"),
]
edges = [
    ("1", "2", "AA"),
    ("2", "1", "AA"),  # doubly linked with the input
    ("1", "3", "AC"),
    ("2", "3", "AC"),  # both sit in Cable_transport
    ("1", "4", "AA"),  # one-way link only: no motif
    ("4", "3", "AC"),
]
g = build_graph(nodes, edges)

report = g.validate()
print(f"loaded {len(g)} nodes, {sum(report.edge_counts.values())} edges, "
      f"{len(report.warnings)} warnings")

cable = g.article_by_title("cable car")  # titles are normalized for lookup
print("doubly linked with Funicular:", g.doubly_linked(cable, 1))
print("categories of Cable_car:", [g.title(c) for c in g.categories_of(cable)])

# The triangular motif admits Funicular (and only it): Gondola_lift is
# not doubly linked, so it never qualifies.
qg = expand_triangular(g, {cable})
print("triangular expansion:", {g.title(a): w for a, w in qg.expansion.items()})

# The square motif relaxes the category condition: one category of the
# input inside one category of the candidate, or the other way around.
nodes2 = [
    ("g", "A", "Graffiti"),
    ("b", "A", "Banksy"),
    ("cg", "C", "Graffiti"),
    ("cb", "C", "Graffiti_artists"),
]
edges2 = [
    ("g", "b", "AA"),
    ("b", "g", "AA"),
    ("g", "cg", "AC"),
    ("b", "cb", "AC"),
    ("cb", "cg", "CC"),  # Graffiti_artists sits inside Graffiti
]
g2 = build_graph(nodes2, edges2)
graffiti = g2.article_by_title("Graffiti")
sq = expand_square(g2, {graffiti})
print("square expansion:", {g2.title(a): w for a, w in sq.expansion.items()})

# Weights count motif instances; expanding with both motif families sums
# the triangular and square counts per article.
both = expand(g2, {graffiti}, MotifKind.BOTH)
print("both motifs:", {g2.title(a): w for a, w in both.expansion.items()})

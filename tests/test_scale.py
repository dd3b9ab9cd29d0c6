"""Decompositions of large graphs and long words within hard time budgets.

A long path splits next to one end at every step (with zero-padded names
the least separator of each piece is its second vertex), so the splitting
tree is as deep as the path is long; a construction that recursed once
per level would overflow Python's stack. The sparse graph has many
separators that are not cliques, which an enumeration of all minimal
separators has to visit one by one. A star makes every leaf a hanging
vertex of the abelian decomposition, and every leaf's node then merges
into one: a reduction that rescans or re-homes every edge per merge is
quadratic in the number of leaves. The join factors of a star are the hub
and the set of all leaves; a search of the complement over name sets
subtracts the whole rest of the graph per leaf.

Cyclic reduction peels a long conjugator off one spelling; redoing the
normal form for every peeled pair is quadratic in the word length. A
normal form that rescans the reduced word for every letter it emits is
quadratic wherever a letter moves far: h across x^n with an x-h edge,
the letters of (a b c)^n over a triangle, and, when the scan waits for
every generator of the graph, (a b)^n over hub-a, hub-b, whose powers the
primitive-root check canonicalizes. Inserting each letter into runs of
one letter crosses a whole run in one step. MCS-M that looks for the
heaviest vertex among all the unnumbered ones is quadratic on any graph,
and a star is where the abelian decomposition spends
nothing else. The primitive-root budget counts the nodes of a choice tree whose paths are
far more numerous than its distinct remainders, so it is decided without
walking the paths. A path has a separator per inner vertex: testing each
with a search of the whole graph, or each against every other for
inclusion, is quadratic in its length. The relative decomposition of a
star has one edge per leaf; finding each edge's ends by scanning the
nodes, once to build it and again to validate it, is quadratic in the
number of leaves. Every split of a long path leaves one component that is
nearly the whole piece, and the least group holding the separator sits in
a subtree of nearly every group: walking that component, or scanning those
groups, per split is quadratic in its length. So is validating a tree's
edge groups with one search of the whole graph per edge, and checking
that the tree edges connect the nodes by sweeping the edge list until no
node is added, when the edges are listed far end first. The masks of a
path in name order grow with the square of its length; past their cap
such a path is refused after one count over its edges, with no mask built.
A random tree or chordal graph has about one separator per two vertices,
and each piece holds few of those that come after the one its parent
split along: a piece that scans them all for the first one inside it
makes the splitting tree quadratic in the number of separators.
"""

import json
import random
import sys
import time

import pytest

from raagdecomp import (BudgetExceededError, GraphOfGroups, SimplicialGraph,
                        Word, abelian_jsj, clique_separators,
                        cyclically_reduce, equal, join_factors, jsj_report,
                        normal_form, parse_word, primitive_root, relative_jsj,
                        validate, words)

from conftest import random_word
import golden


def path_graph(n):
    names = ["v%04d" % i for i in range(n)]
    return SimplicialGraph(names, list(zip(names, names[1:])))


def sparse_graph(n, seed):
    """Random spanning tree plus 0.4 * n random chords."""
    rng = random.Random(seed)
    names = ["v%04d" % i for i in range(n)]
    edges = {(names[rng.randrange(i)], names[i]) for i in range(1, n)}
    while len(edges) < n - 1 + int(0.4 * n):
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((names[i], names[j]))
    return SimplicialGraph(names, sorted(edges))


def tree_graph(n, seed):
    """Random tree: each vertex after the first hangs off an earlier one."""
    rng = random.Random(seed)
    names = ["v%04d" % i for i in range(n)]
    return SimplicialGraph(names, [(names[rng.randrange(i)], names[i])
                                   for i in range(1, n)])


def chordal_graph(n, seed):
    """Random chordal graph: each vertex after the first joins 1-3 vertices
    of the clique an earlier vertex made with the vertices it joined."""
    rng = random.Random(seed)
    names = ["v%05d" % i for i in range(n)]
    cliques = [(0,)]
    edges = []
    for v in range(1, n):
        clique = cliques[rng.randrange(v)]
        joined = rng.sample(clique, min(len(clique), rng.randint(1, 3)))
        edges += [(names[u], names[v]) for u in joined]
        cliques.append(tuple(joined) + (v,))
    return SimplicialGraph(names, edges)


def _within(label, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, \
        "%s took %.1fs, budget is %ds" % (label, elapsed, limit)


def test_path_past_the_mask_cap_refused():
    # a path of n vertices in name order takes (n - 1)(n + 4) / 2 mask
    # bits; at 65,535 that passes MAX_MASK_BITS = 2^31 by 32,765 bits, and
    # the count over the edges refuses it before any mask is built
    names = ["v%05d" % i for i in range(65_535)]
    text = json.dumps({"vertices": names,
                       "edges": [list(e) for e in zip(names, names[1:])]})
    t0 = time.perf_counter()
    assert golden.cli_run(text, ["analyze", "-"]) == (1, "", (
        "error: adjacency masks would take 2147516413 bits, more than "
        "2147483648\n"))
    _within("refusing a 65,535-vertex path", t0, 1)


def test_deep_splitting_tree_needs_no_recursion():
    # a 300-vertex path splits 297 levels deep, well past the lowered limit
    g = path_graph(300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        relative = relative_jsj(g)
        abelian = abelian_jsj(g)
    finally:
        sys.setrecursionlimit(limit)
    assert (len(relative.nodes), len(abelian.nodes)) == (299, 297)


def test_long_path_relative():
    g = path_graph(2000)
    t0 = time.perf_counter()
    gog = relative_jsj(g)
    _within("relative decomposition of a 2000-vertex path", t0, 30)
    assert len(gog.nodes) == 1999
    assert gog.nodes[0].group == ("v0000", "v0001")
    assert gog.nodes[-1].group == ("v1998", "v1999")


def test_long_path_abelian():
    g = path_graph(1000)
    t0 = time.perf_counter()
    gog = abelian_jsj(g)
    _within("abelian decomposition of a 1000-vertex path", t0, 30)
    assert len(gog.nodes) == 997
    assert [e.stable_letter for e in gog.edges if e.is_loop] == \
        ["v0000", "v0999"]


def test_long_path_clique_separators():
    g = path_graph(10_000)
    t0 = time.perf_counter()
    seps = clique_separators(g)
    _within("clique separators of a 10,000-vertex path", t0, 2)
    assert seps == [(v,) for v in g.vertices[1:-1]]


def test_sparse_report():
    g = sparse_graph(500, 0x5CA1E)
    t0 = time.perf_counter()
    report = jsj_report(g)
    _within("jsj_report of a 500-vertex sparse graph", t0, 30)
    assert all(c.passed for c in report.validation)
    assert report.separators_used


def test_star_abelian():
    leaves = ["l%04d" % i for i in range(4000)]
    g = SimplicialGraph(["hub"] + leaves, [("hub", v) for v in leaves])
    t0 = time.perf_counter()
    gog = abelian_jsj(g)
    _within("abelian decomposition of a 4000-leaf star", t0, 5)
    assert [n.group for n in gog.nodes] == [("hub",)]
    assert [e.stable_letter for e in gog.edges] == leaves


def test_big_star_abelian():
    leaves = ["l%05d" % i for i in range(20_000)]
    g = SimplicialGraph(["hub"] + leaves, [("hub", v) for v in leaves])
    t0 = time.perf_counter()
    gog = abelian_jsj(g)
    _within("abelian decomposition of a 20,000-leaf star", t0, 5)
    assert [n.group for n in gog.nodes] == [("hub",)]
    assert len(gog.edges) == 20_000


def test_big_star_report():
    leaves = ["l%05d" % i for i in range(20_000)]
    g = SimplicialGraph(["hub"] + leaves, [("hub", v) for v in leaves])
    t0 = time.perf_counter()
    report = jsj_report(g)
    _within("jsj_report of a 20,000-leaf star", t0, 20)
    assert len(report.relative.nodes) == 20_000
    assert [e.group for e in report.relative.edges] == [("hub",)] * 19_999
    assert [n.group for n in report.abelian.nodes] == [("hub",)]
    assert all(c.passed for c in report.validation)


def test_long_path_report():
    # 191 s before lockstep splits, indexed attach points and certified
    # edge groups
    g = path_graph(10_000)
    t0 = time.perf_counter()
    report = jsj_report(g)
    _within("jsj_report of a 10,000-vertex path", t0, 10)
    assert len(report.relative.nodes) == 9_999
    assert report.hanging == ("v0000", "v9999")
    assert len(report.abelian.nodes) == 9_997
    assert all(c.passed for c in report.validation)


def test_big_tree_report():
    # 42-48 s before, nearly all of it validating the edge groups
    g = tree_graph(5_000, 0x7EE)
    leaves = tuple(v for v in g.vertices if len(g.neighbors(v)) == 1)
    t0 = time.perf_counter()
    report = jsj_report(g)
    _within("jsj_report of a 5,000-vertex random tree", t0, 10)
    assert len(report.relative.nodes) == 4_999
    assert report.hanging == leaves
    assert sorted(e.stable_letter for e in report.abelian.edges
                  if e.is_loop) == list(leaves)
    assert all(c.passed for c in report.validation)


def test_huge_tree_report():
    # 39.0 s when every piece scanned the separators after its parent's,
    # 35.6 s of it in the split tree; 5.7 s with a candidate list per piece
    g = tree_graph(30_000, 0x7EE)
    t0 = time.perf_counter()
    report = jsj_report(g)
    _within("jsj_report of a 30,000-vertex random tree", t0, 10)
    assert len(report.relative.nodes) == 29_999
    assert all(c.passed for c in report.validation)


def test_huge_chordal_report():
    # 27.5 s when every piece scanned the separators after its parent's,
    # 24.5 s of it in the split tree; 5.4 s with a candidate list per piece
    g = chordal_graph(30_000, 0xC0D)
    t0 = time.perf_counter()
    report = jsj_report(g)
    _within("jsj_report of a 30,000-vertex chordal graph", t0, 10)
    assert (len(report.relative.nodes), len(report.separators_used)) == \
        (22_622, 13_064)
    assert all(c.passed for c in report.validation)


def test_reversed_path_decomposition_validates():
    # 8.2 s when the shape check grew the reached nodes by sweeping the
    # edge list until nothing changed
    names = ["v%05d" % i for i in range(10_001)]
    g = SimplicialGraph(names, list(zip(names, names[1:])))
    gog = relative_jsj(g)
    reversed_edges = GraphOfGroups(g, gog.nodes, gog.edges[::-1])
    t0 = time.perf_counter()
    checks = validate(reversed_edges)
    _within("validating a 10,000-node path decomposition with its edges "
            "reversed", t0, 1)
    assert len(gog.nodes) == 10_000
    assert [c.name for c in checks if not c.passed] == []


def test_star_join_factors():
    leaves = ["l%05d" % i for i in range(20_000)]
    g = SimplicialGraph(["hub"] + leaves, [("hub", v) for v in leaves])
    t0 = time.perf_counter()
    factors = join_factors(g)
    _within("join factors of a 20,000-leaf star", t0, 2)
    assert factors == [("hub",), tuple(leaves)]


def test_long_conjugate_cyclic_reduction():
    g = SimplicialGraph(("a", "b", "c", "d"),
                        [("a", "b"), ("b", "c"), ("c", "d")])
    u = Word(g, (("a", 1), ("c", 1), ("d", 1), ("b", 1)) * 5000)
    word = u * Word(g, (("a", 1), ("b", 1))) * u.inverse()
    assert word.written_length() == 40_002
    t0 = time.perf_counter()
    red, conj = cyclically_reduce(word)
    _within("cyclic reduction of a 40,002-letter conjugate", t0, 5)
    assert str(red) == "a b"
    assert equal(conj.inverse() * word * conj, red.word)


def test_sparse_conjugate_cyclic_reduction():
    g = sparse_graph(24, 1)
    rng = random.Random(1)
    u, core = (random_word(rng, g, n) for n in (49_998, 4))
    word = u * core * u.inverse()
    assert word.written_length() == 100_000
    t0 = time.perf_counter()
    red, conj = cyclically_reduce(word)
    _within("cyclic reduction of a 100,000-letter sparse conjugate", t0, 2)
    # cyclically reduced conjugates all have the least length in the class
    assert red.length() == cyclically_reduce(core)[0].length()
    assert equal(conj.inverse() * word * conj, red.word)


def test_blocked_tail_cyclic_reduction():
    # only the pair a ... a^-1 peels; a cyclic reduction that also takes
    # the normal form of the inverse pays for (x y)^m crossing h^m there
    m = 50_000
    g = SimplicialGraph(("a", "h", "x", "y"), [("h", "x"), ("h", "y")])
    word = parse_word(g, "a h^%d %s a^-1" % (m, "x y " * m))
    t0 = time.perf_counter()
    red, conj = cyclically_reduce(word)
    _within("cyclic reduction of a h^m (x y)^m a^-1 at m = 50,000", t0, 2)
    assert str(conj) == "a"
    assert red._codes == (2,) * m + (4, 6) * m


def hub_graph():
    return SimplicialGraph(("a", "b", "hub"), [("hub", "a"), ("hub", "b")])


def test_hub_word_normal_form():
    word = Word(hub_graph(), (("a", 1), ("b", 1)) * 50_000)
    t0 = time.perf_counter()
    nf = normal_form(word)
    _within("normal form of a 100,000-letter hub word", t0, 2)
    assert nf.letters == word.letters


@pytest.mark.parametrize("hub", ["h", "y"])
def test_long_run_and_commuting_letter_normal_form(hub):
    # h sorts before x, y after it; either way the lone letter crosses or
    # stays next to the whole run
    g = SimplicialGraph(("x", hub), [("x", hub)])
    run = (("x", 1),) * 100_000
    for letters in (run + ((hub, 1),), ((hub, 1),) + run):
        word = Word(g, letters)
        t0 = time.perf_counter()
        nf = normal_form(word)
        _within("normal form of x^100000 %s in some order" % hub, t0, 2)
        assert nf.letters == (((hub, 1),) + run if hub < "x"
                              else run + ((hub, 1),))


def test_triangle_word_normal_form():
    g = SimplicialGraph(("a", "b", "c"),
                        [("a", "b"), ("b", "c"), ("a", "c")])
    word = Word(g, (("a", 1), ("b", 1), ("c", 1)) * 33_334)
    t0 = time.perf_counter()
    nf = normal_form(word)
    _within("normal form of (a b c)^33334 over a triangle", t0, 2)
    assert nf.letters == tuple(sorted(word.letters))


def test_hub_word_primitive_root():
    word = Word(hub_graph(), (("a", 1), ("b", 1)) * 25_000)
    t0 = time.perf_counter()
    root, k = primitive_root(word)
    _within("primitive root of a 50,000-letter hub word", t0, 2)
    assert (str(root), k) == ("a b", 25_000)


def generic_word():
    """254 letters over a 24-vertex sparse graph, one sign per generator,
    so nothing cancels and the word is cyclically reduced; its 127-letter
    prefix tree has about 5.8e9 nodes."""
    g = sparse_graph(24, 0)
    rng = random.Random(0)
    sign = {v: rng.choice((1, -1)) for v in g.vertices}
    return Word(g, tuple((v, sign[v]) for v in
                         (rng.choice(g.vertices) for _ in range(254))))


def test_generic_word_refused_without_walking_paths(monkeypatch):
    word = generic_word()
    monkeypatch.setattr(words, "MAX_LINEARIZATIONS", 10**7)
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        primitive_root(word)
    _within("refusing a 254-letter generic word", t0, 2)
    assert info.value.limit == 10**7
    assert info.value.consumed > 10**7


def test_generic_word_centralizer_exits_3():
    # the command line's root search runs out of its default budget
    word = generic_word()
    g = word.graph
    text = json.dumps({"vertices": g.vertices, "edges": sorted(g.edges)})
    t0 = time.perf_counter()
    assert golden.cli_run(text, ["element", "-", "--word", str(word),
                                 "--op", "centralizer"]) == (3, "", (
        "budget exceeded: linearization enumeration exceeded 100000 steps\n"))
    _within("refusing a 254-letter generic word's centralizer", t0, 2)

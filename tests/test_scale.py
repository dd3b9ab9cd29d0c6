"""Decompositions of large graphs within hard time budgets.

A long path splits next to one end at every step (with zero-padded names
the least separator of each piece is its second vertex), so the splitting
tree is as deep as the path is long; a construction that recursed once
per level would overflow Python's stack. The sparse graph has many
separators that are not cliques, which an enumeration of all minimal
separators has to visit one by one.
"""

import random
import sys
import time

from raagdecomp import SimplicialGraph, abelian_jsj, jsj_report, relative_jsj


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


def _within(label, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, \
        "%s took %.1fs, budget is %ds" % (label, elapsed, limit)


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
    g = path_graph(1000)
    t0 = time.perf_counter()
    gog = relative_jsj(g)
    _within("relative decomposition of a 1000-vertex path", t0, 30)
    assert len(gog.nodes) == 999
    assert gog.nodes[0].group == ("v0000", "v0001")
    assert gog.nodes[-1].group == ("v0998", "v0999")


def test_long_path_abelian():
    g = path_graph(1000)
    t0 = time.perf_counter()
    gog = abelian_jsj(g)
    _within("abelian decomposition of a 1000-vertex path", t0, 30)
    assert len(gog.nodes) == 997
    assert [e.stable_letter for e in gog.edges if e.is_loop] == \
        ["v0000", "v0999"]


def test_sparse_report():
    g = sparse_graph(500, 0x5CA1E)
    t0 = time.perf_counter()
    report = jsj_report(g)
    _within("jsj_report of a 500-vertex sparse graph", t0, 30)
    assert all(c.passed for c in report.validation)
    assert report.separators_used

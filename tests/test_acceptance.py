"""End-to-end acceptance checks for the package's headline guarantees.

Each test covers one guarantee, prints a single PASS line with its elapsed
time, and asserts a hard time budget, so both wrong answers and pathological
slowdowns fail the suite. Randomized tests use fixed seeds.
"""

import random
import time

from raagdecomp import (BudgetExceededError, OracleBudget, SimplicialGraph,
                        Word, abelian_jsj, bfs_equal, brute_clique_separators,
                        centralizer_descriptor, clique_separators,
                        commuting_words, connected_components, equal,
                        exhaustive_graphs, gog_to_json_obj, induced_subgraph,
                        is_clique, is_connected, join_factors, jsj_report,
                        kernels, power, relative_jsj, support)
from raagdecomp.oracles import _enumerated_ball
from raagdecomp.words import _decode, _encode

import golden
from conftest import random_connected_graph, random_word

P4 = SimplicialGraph(("a", "b", "c", "d"),
                     [("a", "b"), ("b", "c"), ("c", "d")])


def _done(label, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, \
        "%s took %.1fs, budget is %ds" % (label, elapsed, limit)
    print("PASS %s (%.2fs < %ds)" % (label, elapsed, limit))


def connected_graphs_up_to(n_max):
    for n in range(1, n_max + 1):
        for g in exhaustive_graphs(n):
            if is_connected(g):
                yield g


def complement(g):
    vs = g.vertices
    return SimplicialGraph(
        vs, [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
             if not g.adjacent(u, v)])


def test_01_path_relative_tree():
    t0 = time.perf_counter()
    assert gog_to_json_obj(relative_jsj(P4)) == {
        "nodes": [
            {"id": 0, "group": ["a", "b"], "flexible": True},
            {"id": 1, "group": ["b", "c"], "flexible": True},
            {"id": 2, "group": ["c", "d"], "flexible": True},
        ],
        "edges": [
            {"id": 0, "ends": [0, 1], "group": ["b"], "stable_letter": None},
            {"id": 1, "ends": [1, 2], "group": ["c"], "stable_letter": None},
        ],
    }
    _done("path-of-four relative decomposition", t0, 1)


def test_02_path_abelian_loops():
    t0 = time.perf_counter()
    assert gog_to_json_obj(abelian_jsj(P4)) == {
        "nodes": [{"id": 0, "group": ["b", "c"], "flexible": True}],
        "edges": [
            {"id": 0, "ends": [0, 0], "group": ["b"], "stable_letter": "a"},
            {"id": 1, "ends": [0, 0], "group": ["c"], "stable_letter": "d"},
        ],
    }
    _done("path-of-four abelian decomposition", t0, 1)


def test_03_complete_graphs_trivial():
    t0 = time.perf_counter()
    one = abelian_jsj(SimplicialGraph(("a",), []))
    assert gog_to_json_obj(one) == {
        "nodes": [{"id": 0, "group": [], "flexible": True}],
        "edges": [{"id": 0, "ends": [0, 0], "group": [],
                   "stable_letter": "a"}],
    }
    for n in range(2, 7):
        names = tuple("abcdef"[:n])
        k = SimplicialGraph(
            names,
            [(u, v) for i, u in enumerate(names) for v in names[i + 1:]])
        gog = abelian_jsj(k)
        assert len(gog.nodes) == 1
        assert gog.nodes[0].group == names
        assert gog.nodes[0].flexible
        assert gog.edges == ()
    _done("complete graphs decompose trivially", t0, 1)


def test_04_join_factorization_exhaustive():
    # the finest direct-product decomposition: factors are exactly the
    # complement components, every cross pair commutes, and no factor
    # splits further
    t0 = time.perf_counter()
    count = 0
    for g in connected_graphs_up_to(6):
        count += 1
        parts = join_factors(g)
        assert sorted(v for p in parts for v in p) == list(g.vertices)
        comp_parts = connected_components(complement(g))
        assert parts == comp_parts
        assert (len(parts) >= 2) == (len(comp_parts) >= 2)
        for i, p in enumerate(parts):
            for q in parts[i + 1:]:
                assert all(g.adjacent(u, v) for u in p for v in q)
            sub = induced_subgraph(g, p)
            assert len(connected_components(complement(sub))) == 1
    assert count == 27476
    _done("join factorization on all connected graphs up to 6 vertices",
          t0, 60)


def test_05_separators_match_brute_force():
    t0 = time.perf_counter()
    for g in connected_graphs_up_to(6):
        assert clique_separators(g) == brute_clique_separators(g)
    rng = random.Random(0x5EB)
    for _ in range(300):
        g = random_connected_graph(rng, rng.randrange(7, 9),
                                   rng.random() * 0.5)
        assert clique_separators(g) == brute_clique_separators(g)
    _done("clique separators match the brute-force oracle", t0, 120)


def test_06_equality_matches_bfs_oracle():
    # Exhaustive half: over every connected graph with at most 4 vertices
    # and every word of length at most 4, the engine's canonical form equals
    # the least element of the full move closure. Two words are equal iff
    # their canonical forms coincide, and iff their closures share a least
    # element, so per-word agreement settles every pair classification.
    t0 = time.perf_counter()
    checked = 0
    for g in connected_graphs_up_to(4):
        masks = g.masks
        letters = list(range(2 * len(g.vertices)))
        stack = [b""]
        while stack:
            w = stack.pop()
            assert kernels.canonicalize(w, masks) == \
                kernels.closure_canonical(w, masks, 1_000_000)
            checked += 1
            if len(w) < 4:
                stack.extend(w + bytes((x,)) for x in letters)
    assert checked == 184470

    # plus literal pair classification on the graphs small enough for an
    # all-pairs sweep
    for g in connected_graphs_up_to(2):
        ball = _enumerated_ball(g, 4, 1_000_000)
        words = [Word(g, _decode(g, u)) for u in ball]
        for i, w1 in enumerate(words):
            for w2 in words[i:]:
                assert equal(w1, w2) == bfs_equal(w1, w2)

    # Randomized half: longer words on larger graphs, half the pairs
    # rearrangements of one another. A budget overrun resamples the pair.
    rng = random.Random(0xE9)
    done = 0
    while done < 10_000:
        g = random_connected_graph(rng, rng.randrange(3, 6),
                                   rng.random() * 0.6)
        w1 = random_word(rng, g, rng.randrange(5, 7))
        if rng.random() < 0.5:
            w2 = random_word(rng, g, rng.randrange(5, 7))
        else:
            ls = list(w1.letters)
            rng.shuffle(ls)
            w2 = Word(g, tuple(ls))
        try:
            oracle = bfs_equal(w1, w2)
        except BudgetExceededError:
            continue
        assert equal(w1, w2) == oracle
        done += 1
    _done("word equality matches the breadth-first oracle", t0, 120)


def test_07_support_power_invariance():
    t0 = time.perf_counter()
    rng = random.Random(0x50F)
    for _ in range(5000):
        n = rng.randrange(1, 7)
        names = tuple("abcdef"[:n])
        edges = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]
                 if rng.random() < 0.5]
        g = SimplicialGraph(names, edges)
        w = random_word(rng, g, rng.randrange(0, 7))
        k = rng.randrange(1, 6)
        assert support(power(w, k)) == support(w)
    _done("support is invariant under proper powers", t0, 60)


def test_08_centralizer_ball():
    # the words commuting with w, found by closure search, against the
    # members of the centralizer description, on the same radius-5 ball
    t0 = time.perf_counter()
    budget = OracleBudget(max_word_length=9)
    rng = random.Random(0xCE4)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randrange(1, 6),
                                   rng.random() * 0.6)
        w = random_word(rng, g, rng.randrange(0, 5))
        oracle = {bytes(_encode(g, u.letters))
                  for u in commuting_words(g, w, 5, budget)}
        descriptor = centralizer_descriptor(w)
        described = {u for u in _enumerated_ball(g, 5, budget.max_states)
                     if descriptor.contains(Word(g, _decode(g, u)))}
        assert oracle == described
    _done("centralizer descriptions match the commuting-word ball", t0, 300)


def test_09_decomposition_validation_sweep():
    # every validation check on both decompositions, plus the cascade
    # property: separators chosen while recursing are clique separators of
    # the original graph, not only of the piece they were found in; the
    # output bytes on the golden corpus match the stored digests
    t0 = time.perf_counter()

    def run(g):
        report = jsj_report(g)
        assert all(c.passed for c in report.validation)
        for sep in report.separators_used:
            assert is_clique(g, sep)
            rest = set(g.vertices) - set(sep)
            assert len(connected_components(induced_subgraph(g, rest))) >= 2
        return report

    count = 0
    digests = golden.Digests()
    for group, g in golden.corpus():
        digests.add(group, run(g))
        count += group != golden.SEEDED
    assert count == 27476
    assert digests.hexdigests() == golden.stored()
    rng = random.Random(0xDEC)
    for _ in range(200):
        run(random_connected_graph(rng, rng.randrange(7, 10),
                                   rng.random() * 0.5))
    _done("decomposition validation sweep", t0, 300)

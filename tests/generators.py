"""Seeded random graphs and words for the tests and the golden digests.

This module needs no pytest, so `golden.py` runs under a bare Python;
`conftest` re-exports both generators for the test modules.
"""

import random

from raagdecomp import SimplicialGraph, Word


def random_connected_graph(rng: random.Random, n: int,
                           extra_p: float = 0.3) -> SimplicialGraph:
    """Random spanning tree plus independent extra edges."""
    names = tuple("abcdefghijkl"[:n])
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for k in range(1, n):
        a, b = order[k], order[rng.randrange(k)]
        edges.add((names[min(a, b)], names[max(a, b)]))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra_p:
                edges.add((names[i], names[j]))
    return SimplicialGraph(names, sorted(edges))


def random_word(rng: random.Random, g: SimplicialGraph, length: int) -> Word:
    letters = tuple((rng.choice(g.vertices), rng.choice((1, -1)))
                    for _ in range(length))
    return Word(g, letters)

import random

import pytest

from raagdecomp import SimplicialGraph, Word, parse_graph


@pytest.fixture
def p4():
    return parse_graph(
        '{"vertices": ["a","b","c","d"],'
        ' "edges": [["a","b"],["b","c"],["c","d"]]}')


@pytest.fixture
def k3():
    return SimplicialGraph(("a", "b", "c"),
                           [("a", "b"), ("a", "c"), ("b", "c")])


@pytest.fixture
def c4():
    # 4-cycle a-b-c-d-a; the join of {a,c} and {b,d}
    return SimplicialGraph(("a", "b", "c", "d"),
                           [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])


@pytest.fixture
def tri_tail():
    # triangle abc with pendant d on c; d is the only hanging vertex
    return SimplicialGraph(
        ("a", "b", "c", "d"),
        [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")])


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

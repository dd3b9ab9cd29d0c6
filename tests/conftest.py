import pytest

from raagdecomp import SimplicialGraph, parse_graph

from generators import random_connected_graph, random_word  # noqa: F401


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

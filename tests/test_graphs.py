import doctest
import random

import pytest

import raagdecomp.graphs
from raagdecomp import (DomainError, GraphParseError, GraphValidationError,
                        SimplicialGraph, clique_separators,
                        connected_components, graph_to_dot, hanging_vertices,
                        induced_subgraph, is_clique, is_complete, is_connected,
                        join_factors, link, minimum_clique_separator,
                        parse_graph, serialize_graph, star)

from conftest import random_connected_graph


def test_docstring_examples():
    failures, _ = doctest.testmod(raagdecomp.graphs)
    assert failures == 0


class TestConstruction:
    def test_vertices_sorted_and_edges_normalized(self):
        g = SimplicialGraph(("c", "a", "b"), [("c", "a")])
        assert g.vertices == ("a", "b", "c")
        assert g.edges == frozenset({("a", "c")})

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphValidationError, match="duplicate vertex: a"):
            SimplicialGraph(("a", "a", "b"), [])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidationError, match="self-loop"):
            SimplicialGraph(("a", "b"), [("a", "a")])

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(GraphValidationError, match="not a declared vertex"):
            SimplicialGraph(("a",), [("a", "z")])

    def test_empty_vertex_name_rejected(self):
        with pytest.raises(GraphValidationError):
            SimplicialGraph(("",), [])

    def test_lone_surrogate_name_rejected(self):
        # no UTF-8 stream can carry it, so it may not reach the output
        with pytest.raises(GraphValidationError, match="lone surrogate"):
            SimplicialGraph(("\ud800", "b"), [("\ud800", "b")])
        with pytest.raises(GraphValidationError, match="lone surrogate"):
            parse_graph('{"vertices": ["x\\udfff"], "edges": []}')
        assert SimplicialGraph(("\U0001d400", "é"), []).vertices == \
            ("é", "\U0001d400")

    @pytest.mark.parametrize("edge", [("a", "b", "c"), None, (["a"], "b"),
                                      ("a", {}), 3])
    def test_malformed_edge_rejected(self, edge):
        with pytest.raises(GraphValidationError) as info:
            SimplicialGraph(("a", "b"), [edge])
        assert str(info.value) == \
            "each edge must be a pair of vertex names, got %r" % (edge,)

    def test_masks_match_adjacency(self, p4):
        # vertices a,b,c,d -> indices 0..3; edges ab, bc, cd
        assert p4.masks == (0b0010, 0b0101, 0b1010, 0b0100)

    def test_masks_past_the_cap_refused(self, monkeypatch):
        # a path in name order: the i-th mask reaches bit i + 1, so n
        # vertices take (n - 1)(n + 4) / 2 bits, 987 at 43 and 1032 at 44;
        # past the cap they are counted first (n^2 > 1000), then built
        names = ["v%02d" % i for i in range(44)]
        path = list(zip(names, names[1:]))
        narrow = SimplicialGraph(names[:43], path[:42])
        monkeypatch.setattr(raagdecomp.graphs, "MAX_MASK_BITS", 1000)
        g = SimplicialGraph(reversed(names[:43]), reversed(path[:42]))
        assert g.masks == narrow.masks
        assert sum(m.bit_length() for m in g.masks) == 987
        with pytest.raises(DomainError) as info:
            SimplicialGraph(names, path)
        assert str(info.value) == \
            "adjacency masks would take 1032 bits, more than 1000"
        # an input refused for its edges keeps its message
        with pytest.raises(GraphValidationError, match="'zz' is not a decl"):
            SimplicialGraph(names, path + [("v00", "zz")])

    def test_adjacency_of_unknown_vertices(self, p4):
        for ask in (lambda: p4.adjacent("z", "a"), lambda: p4.neighbors("z"),
                    lambda: p4.index("z"), lambda: star(p4, "z")):
            with pytest.raises(DomainError) as info:
                ask()
            assert str(info.value) == "vertex 'z' is not in the graph"
        assert p4.adjacent("a", "z") is False
        assert p4.adjacent("a", "b") is True
        assert p4.neighbors("b") == frozenset({"a", "c"})


class TestParsing:
    def test_json_round_trip(self, p4):
        assert parse_graph(serialize_graph(p4)) == p4

    def test_serialize_is_canonical(self, p4):
        text = serialize_graph(p4)
        assert serialize_graph(parse_graph(text)) == text

    def test_dot_chain(self):
        g = parse_graph("graph G { a -- b -- c; d; }")
        assert g.vertices == ("a", "b", "c", "d")
        assert g.edges == frozenset({("a", "b"), ("b", "c")})

    def test_dot_comments_and_unnamed_header(self):
        g = parse_graph("graph { // line\n a -- b; /* block\n */ # tail\n c }")
        assert g.vertices == ("a", "b", "c")

    def test_dot_round_trip(self, tri_tail):
        assert parse_graph(graph_to_dot(tri_tail)) == tri_tail

    def test_dot_round_trip_quoted_names(self):
        g = SimplicialGraph(("a-b", "c"), [("a-b", "c")])
        assert parse_graph(graph_to_dot(g)) == g

    def test_dot_quoted_names_and_escapes(self):
        g = parse_graph('graph { "a-b" -- c; "x\\"y" -- "p\\\\q"\n'
                        '"// not # a /* comment" }')
        assert g.vertices == ("// not # a /* comment", "a-b", "c",
                              "p\\q", 'x"y')
        assert g.edges == frozenset({("a-b", "c"), ("p\\q", 'x"y')})

    def test_dot_statement_errors(self):
        for text, match in [("graph { a -- }", "unexpected"),
                            ("graph { a b }", "expected '--'"),
                            ("graph { a-b -- c }", "invalid DOT token"),
                            ('graph { "a }', "unterminated quoted"),
                            ("graph { a /* }", "unterminated comment"),
                            ("graph { a", "missing closing")]:
            with pytest.raises(GraphParseError, match=match):
                parse_graph(text)

    def test_dot_unusual_blank_is_a_bad_token(self):
        # str.split counts U+001C and U+00A0 as blanks, the DOT lexer does not
        for text, bad in [("graph {\x1c", "\x1c"), ("graph { a\xa0}", "\xa0")]:
            with pytest.raises(GraphParseError) as info:
                parse_graph(text)
            assert str(info.value) == "invalid DOT token %r" % bad

    def test_empty_input(self):
        with pytest.raises(GraphParseError, match="empty input"):
            parse_graph("   \n  ")

    def test_json_error_position(self):
        with pytest.raises(GraphParseError, match="line 1 column"):
            parse_graph('{"vertices": [,]}')

    def test_json_missing_key(self):
        with pytest.raises(GraphParseError, match="missing 'edges'"):
            parse_graph('{"vertices": ["a"]}')

    def test_json_bad_edge_shape(self):
        with pytest.raises(GraphParseError, match="two-element"):
            parse_graph('{"vertices": ["a","b"], "edges": [["a","b","c"]]}')

    @pytest.mark.parametrize("text", ["[1]", " \n[]", '[{"vertices": []}]'])
    def test_json_array_is_json_not_dot(self, text):
        with pytest.raises(GraphParseError) as info:
            parse_graph(text)
        assert str(info.value) == "top-level JSON value must be an object"

    def test_dot_bad_header(self):
        with pytest.raises(GraphParseError, match="header"):
            parse_graph("digraph G { a -> b }")

    def test_dot_trailing_text(self):
        with pytest.raises(GraphParseError, match="after closing"):
            parse_graph("graph { a } extra")


class TestStructure:
    def test_link_and_star(self, p4):
        assert link(p4, {"b"}) == ("a", "c")
        assert link(p4, {"a", "c"}) == ("b",)
        assert link(p4, {"a", "d"}) == ()
        assert star(p4, "b") == ("a", "b", "c")
        assert link(p4, set()) == p4.vertices

    def test_link_unknown_vertex(self, p4):
        with pytest.raises(DomainError):
            link(p4, {"z"})

    def test_components(self):
        g = SimplicialGraph(("a", "b", "c", "d"), [("a", "c"), ("b", "d")])
        assert connected_components(g) == [("a", "c"), ("b", "d")]
        assert not is_connected(g)

    def test_join_factors_of_cycle(self, c4):
        # C4 = K2 join K2 through the diagonals
        assert join_factors(c4) == [("a", "c"), ("b", "d")]

    def test_join_factors_path_indecomposable(self, p4):
        assert join_factors(p4) == [("a", "b", "c", "d")]

    def test_clique_predicates(self, k3, p4):
        assert is_complete(k3)
        assert not is_complete(p4)
        assert is_clique(p4, set())
        assert is_clique(p4, {"d"})
        assert is_clique(p4, {"a", "b"})
        assert not is_clique(p4, {"a", "c"})

    def test_induced_subgraph(self, tri_tail):
        h = induced_subgraph(tri_tail, {"a", "b", "c"})
        assert is_complete(h)
        with pytest.raises(DomainError):
            induced_subgraph(tri_tail, {"a", "z"})


class TestSeparators:
    def test_path(self, p4):
        assert clique_separators(p4) == [("b",), ("c",)]
        assert minimum_clique_separator(p4) == ("b",)

    def test_complete_graph_has_none(self, k3):
        assert clique_separators(k3) == []
        assert minimum_clique_separator(k3) is None

    def test_cycle_has_none(self, c4):
        # the minimal separators of C4 are the non-adjacent diagonals
        assert clique_separators(c4) == []

    def test_two_vertex_separator(self):
        # two triangles glued along the edge bc
        g = SimplicialGraph(
            ("a", "b", "c", "d"),
            [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")])
        assert clique_separators(g) == [("b", "c")]

    def test_disconnected_rejected(self):
        g = SimplicialGraph(("a", "b"), [])
        with pytest.raises(DomainError, match="connected"):
            clique_separators(g)

    def test_empty_graph(self):
        assert clique_separators(SimplicialGraph((), [])) == []

    def test_star_center_is_cut_vertex(self):
        g = parse_graph("graph { c -- x; c -- y; c -- z }")
        assert clique_separators(g) == [("c",)]

    def test_random_agrees_with_definition(self):
        # cross-check the enumeration against the definition directly
        rng = random.Random(7)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randrange(2, 7))
            seps = clique_separators(g)
            vset = set(g.vertices)
            for s in seps:
                assert is_clique(g, s)
                rest = induced_subgraph(g, vset - set(s))
                assert not is_connected(rest) or not rest.vertices


class TestHanging:
    def test_path_endpoints(self, p4):
        assert hanging_vertices(p4) == ("a", "d")

    def test_triangle_tail(self, tri_tail):
        assert hanging_vertices(tri_tail) == ("d",)

    def test_single_vertex(self):
        assert hanging_vertices(SimplicialGraph(("a",), [])) == ("a",)

    def test_complete_graph_has_none(self, k3):
        assert hanging_vertices(k3) == ()

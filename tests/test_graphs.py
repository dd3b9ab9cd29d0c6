import doctest
import io
import json
import random

import pytest

import raagdecomp.graphs
from raagdecomp import (DomainError, GraphParseError, GraphValidationError,
                        SimplicialGraph, centralizer_descriptor,
                        clique_separators, connected_components, graph_to_dot,
                        hanging_vertices, induced_subgraph, is_clique,
                        is_complete, is_connected, join_factors, link,
                        minimum_clique_separator, normal_form, parse_graph,
                        parse_word, serialize_graph, star)
from raagdecomp.cli import main

from conftest import random_connected_graph
import golden


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

    @pytest.mark.parametrize("cap", [None, 1000])
    def test_generators_build_what_lists_build(self, monkeypatch, cap):
        # at a cap of 1000 bits the 43 vertices take the counted path
        # (43^2 > 1000): the path takes 987 bits, and v05 -- v00 4 more
        if cap is not None:
            monkeypatch.setattr(raagdecomp.graphs, "MAX_MASK_BITS", cap)
        names = ["v%02d" % i for i in range(43)]
        edges = list(zip(names, names[1:])) + [("v05", "v00"), ("v01", "v00")]
        listed = SimplicialGraph(names, edges)
        once = SimplicialGraph(iter(names[::-1]), (e for e in edges))
        assert once.masks == listed.masks
        assert once.edges == listed.edges == {tuple(sorted(e)) for e in edges}
        assert once == listed and hash(once) == hash(listed)

    def test_an_edge_and_its_reverse_are_one_edge(self):
        g = SimplicialGraph(("a", "b"), [("a", "b"), ("b", "a")])
        assert g.masks == (0b10, 0b01)
        assert g.edges == frozenset({("a", "b")})
        assert g == SimplicialGraph(("b", "a"), [("b", "a")])
        assert repr(g) == "SimplicialGraph(2 vertices, 1 edges)"
        assert parse_graph(
            '{"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}') == g

    def test_edges_are_the_input_pairs(self):
        for _, g in golden.corpus():
            text = serialize_graph(g)
            pairs = {tuple(e) for e in json.loads(text)["edges"]}
            assert parse_graph(text).edges == pairs == g.edges
        rng = random.Random(25)
        names = ["x%d" % i for i in range(12)] + ["é", "_", "B"]
        for _ in range(200):
            vs = rng.sample(names, rng.randrange(1, len(names) + 1))
            edges = [tuple(rng.sample(vs, 2)) for _ in range(
                rng.randrange(3 * len(vs))) if len(vs) > 1]
            g = SimplicialGraph(vs, edges)
            assert g.edges == {tuple(sorted(e)) for e in edges}
            assert all(g.adjacent(u, v) and g.adjacent(v, u) for u, v in g.edges)
            assert sum(map(len, map(g.neighbors, vs))) == 2 * len(g.edges)
            # one edge fewer, or one more, is another graph
            if g.edges:
                gone = rng.choice(sorted(g.edges))
                assert SimplicialGraph(vs, [e for e in edges if
                                            tuple(sorted(e)) != gone]) != g
            missing = [(u, v) for u in g.vertices for v in g.vertices
                       if u < v and (u, v) not in g.edges]
            if missing:
                assert SimplicialGraph(vs, edges + [rng.choice(missing)]) != g

    def test_word_calls_leave_the_edge_set_and_letters_unbuilt(self):
        # the edge set and the letter table are kept in the memo once
        # read; nothing on the command line's word path reads them
        g = parse_graph("graph { a -- b; b -- c; c -- d; a -- d; d -- e }")
        w = parse_word(g, "e a b a^-1 e^-1")
        d = centralizer_descriptor(w, mode="pro-C")
        printed = [str(normal_form(w)), str(d.conjugator)] + [
            str(f.root) for f in d.factors]
        assert printed == ["e b e^-1", "e", "b"]
        assert ("_edge_set",) not in g._memo and ("_letters",) not in g._memo
        assert w.letters == (("e", 1), ("a", 1), ("b", 1), ("a", -1),
                             ("e", -1))
        assert ("_letters",) in g._memo
        assert g.edges == {("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"),
                           ("d", "e")}
        assert ("_edge_set",) in g._memo

    @pytest.mark.parametrize("argv", [
        ["analyze", "-"], ["jsj", "-"], ["jsj", "-", "--mode", "abelian"],
        ["jsj", "-", "--format", "dot"],
        ["element", "-", "--word", "a c a^-1", "--op", "centralizer"]])
    def test_commands_leave_the_edge_set_unbuilt(self, monkeypatch, capsys,
                                                 argv):
        def unread(g):
            raise AssertionError("the edge set was built")
        monkeypatch.setattr(raagdecomp.graphs, "_edge_set", unread)
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"vertices": ["a", "b", "c", "d"], '
            '"edges": [["a", "b"], ["b", "c"], ["c", "d"], ["b", "d"]]}'))
        assert main(argv) == 0
        assert capsys.readouterr().out

    def test_adjacency_of_unknown_vertices(self, p4):
        for ask in (lambda: p4.adjacent("z", "a"), lambda: p4.neighbors("z"),
                    lambda: p4.index("z"), lambda: star(p4, "z")):
            with pytest.raises(DomainError) as info:
                ask()
            assert str(info.value) == "vertex 'z' is not in the graph"
        assert p4.adjacent("a", "z") is False
        assert p4.adjacent("a", "b") is True
        assert p4.neighbors("b") == frozenset({"a", "c"})

    def test_a_graph_equals_no_other_type(self, p4):
        assert (p4 == "p4") is False
        assert (p4 != 0) is True


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


# Inputs with two faults each and the one message they raise, recorded
# before graph set-up became one pass over the edges: JSON shape faults come
# before any vertex fault, then vertices before edges, then edges in order
TWO_FAULT_TEXTS = [
    ('{"vertices": ["a", "b"], "edges": [["a", 1], ["a", "b", "c"]]}',
     GraphParseError, "edge endpoints must be vertex name strings, got ['a', 1]"),
    ('{"vertices": ["a", "b"], "edges": [["a", "b", "c"], ["a", 1]]}',
     GraphParseError, "each edge must be a two-element list, got ['a', 'b', 'c']"),
    ('{"vertices": [3, "b"], "edges": [["a"]]}',
     GraphParseError, "each edge must be a two-element list, got ['a']"),
    ('{"vertices": ["a", ""], "edges": [{"a": 1, "b": 2}]}',
     GraphParseError, "each edge must be a two-element list, got {'a': 1, 'b': 2}"),
    ('{"vertices": "ab", "edges": 3}',
     GraphParseError, "'vertices' must be a list"),
    ('{"vertices": ["a", "a"], "edges": [["a", "z"]]}',
     GraphValidationError, "duplicate vertex: a"),
    ('{"vertices": ["a", "\\ud800"], "edges": [["a", "a"]]}',
     GraphValidationError,
     "vertex name '\\ud800' holds a lone surrogate, which has no UTF-8 form"),
    ('{"vertices": ["a", "b"], "edges": [["a", "z"], ["b", "b"]]}',
     GraphValidationError, "edge endpoint 'z' is not a declared vertex"),
    ('{"vertices": ["a", "b"], "edges": [["b", "b"], ["a", "z"]]}',
     GraphValidationError, "self-loop at vertex 'b'"),
    ("graph { a -- a; x -- \xe9 }", GraphParseError, "invalid DOT token '\xe9'"),
    ('graph { a -- a -- b; "q }', GraphParseError, "unterminated quoted name"),
    ('graph { a -- a; "\ud800" }', GraphValidationError,
     "vertex name '\\ud800' holds a lone surrogate, which has no UTF-8 form"),
]

TWO_FAULT_CALLS = [
    (["a", "b"], [("a", "z"), ("b", "b")],
     "edge endpoint 'z' is not a declared vertex"),
    (["a", "b"], [("b", "b"), ("a", "z")], "self-loop at vertex 'b'"),
    (["a", "b"], [("z", "z")], "edge endpoint 'z' is not a declared vertex"),
    (["a", "b"], [("a", "b"), ("y", "z")],
     "edge endpoint 'y' is not a declared vertex"),
    (["a", "b"], [("z", ["a"])],
     "each edge must be a pair of vertex names, got ('z', ['a'])"),
    (["a", "b"], [("a", "b", "c"), ("a", "z")],
     "each edge must be a pair of vertex names, got ('a', 'b', 'c')"),
    (["a", 3], [("a", "a")], "vertex names must be non-empty strings, got 3"),
    (["a", "a", ""], [("a", "a")],
     "vertex names must be non-empty strings, got ''"),
]


class TestErrorPrecedence:
    @pytest.mark.parametrize("text, error, message", TWO_FAULT_TEXTS)
    def test_parsed(self, text, error, message):
        with pytest.raises(error) as info:
            parse_graph(text)
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("vertices, edges, message", TWO_FAULT_CALLS)
    def test_constructed(self, vertices, edges, message):
        with pytest.raises(GraphValidationError) as info:
            SimplicialGraph(vertices, edges)
        assert str(info.value) == message


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

import copy
from dataclasses import replace
import io
import json
import pickle
import random
import sys

import pytest

from raagdecomp import (CheckResult, DomainError, GogEdge, GogNode,
                        GraphOfGroups, InvariantViolationError,
                        SimplicialGraph, abelian_jsj, amalgam_split,
                        clique_separators, exhaustive_graphs, gog_to_dot,
                        gog_to_json_obj, hanging_vertices, hnn_split,
                        is_connected, jsj_report, parse_graph, parse_word,
                        reduce, relative_jsj, star_amalgam_split, validate)
from raagdecomp import jsj
from raagdecomp.cli import main
from raagdecomp.graphs import _clique_minimal_separators, _mcs_m
from raagdecomp.jsj import _attach_index, _build, _split_tree

import golden


def complete_graph(n):
    names = tuple("abcdef"[:n])
    return SimplicialGraph(
        names, [(u, v) for i, u in enumerate(names) for v in names[i + 1:]])


def all_passed(checks):
    return [c.name for c in checks if not c.passed]


def shape(gog):
    """(passed, detail) of the shape check of `validate`."""
    [check] = [c for c in validate(gog) if c.name == "shape"]
    return check.passed, check.detail


class TestPathOfFour:
    def test_relative(self, p4):
        assert gog_to_json_obj(relative_jsj(p4)) == {
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

    def test_abelian(self, p4):
        assert gog_to_json_obj(abelian_jsj(p4)) == {
            "nodes": [{"id": 0, "group": ["b", "c"], "flexible": True}],
            "edges": [
                {"id": 0, "ends": [0, 0], "group": ["b"], "stable_letter": "a"},
                {"id": 1, "ends": [0, 0], "group": ["c"], "stable_letter": "d"},
            ],
        }

    def test_both_validate(self, p4):
        assert all_passed(validate(relative_jsj(p4))) == []
        assert all_passed(validate(abelian_jsj(p4), abelian=True)) == []

    def test_report(self, p4):
        report = jsj_report(p4)
        assert report.hanging == ("a", "d")
        assert report.separators_used == (("b",), ("c",))
        assert all(c.passed for c in report.validation)


class TestCompleteGraphs:
    def test_single_vertex(self):
        gog = abelian_jsj(complete_graph(1))
        assert gog_to_json_obj(gog) == {
            "nodes": [{"id": 0, "group": [], "flexible": True}],
            "edges": [{"id": 0, "ends": [0, 0], "group": [],
                       "stable_letter": "a"}],
        }

    @pytest.mark.parametrize("n", range(2, 7))
    def test_trivial_for_larger(self, n):
        gog = abelian_jsj(complete_graph(n))
        assert len(gog.nodes) == 1
        assert gog.nodes[0].group == complete_graph(n).vertices
        assert gog.nodes[0].flexible
        assert gog.edges == ()

    def test_relative_is_single_node(self):
        gog = relative_jsj(complete_graph(3))
        assert len(gog.nodes) == 1 and gog.edges == ()


class TestOtherGraphs:
    def test_cycle_is_rigid(self, c4):
        for gog in (relative_jsj(c4), abelian_jsj(c4)):
            assert len(gog.nodes) == 1
            assert gog.nodes[0].group == c4.vertices
            assert not gog.nodes[0].flexible
            assert gog.edges == ()

    def test_triangle_with_tail(self, tri_tail):
        assert gog_to_json_obj(abelian_jsj(tri_tail)) == {
            "nodes": [{"id": 0, "group": ["a", "b", "c"], "flexible": True}],
            "edges": [{"id": 0, "ends": [0, 0], "group": ["c"],
                       "stable_letter": "d"}],
        }

    def test_empty_graph(self):
        g = SimplicialGraph((), [])
        for gog in (relative_jsj(g), abelian_jsj(g)):
            assert gog_to_json_obj(gog) == {
                "nodes": [{"id": 0, "group": [], "flexible": True}],
                "edges": [],
            }

    def test_disconnected_rejected(self):
        g = SimplicialGraph(("a", "b"), [])
        for decompose in (relative_jsj, abelian_jsj, jsj_report):
            with pytest.raises(DomainError) as info:
                decompose(g)
            assert str(info.value) == ("decomposition requires a connected "
                                       "graph; process components separately")

    def test_deterministic(self, tri_tail):
        assert relative_jsj(tri_tail) == relative_jsj(tri_tail)
        assert abelian_jsj(tri_tail) == abelian_jsj(tri_tail)


class TestElementarySplittings:
    def test_hnn(self, p4):
        gog = hnn_split(p4, "a")
        assert gog.nodes[0].group == ("b", "c", "d")
        assert gog.edges[0].ends == (0, 0)
        assert gog.edges[0].group == ("b",)
        assert gog.edges[0].stable_letter == "a"

    def test_hnn_single_vertex(self):
        gog = hnn_split(complete_graph(1), "a")
        assert gog.nodes[0].group == ()
        assert gog.edges[0].group == ()

    def test_star_amalgam(self, p4):
        gog = star_amalgam_split(p4, "a")
        assert [n.group for n in gog.nodes] == [("b", "c", "d"), ("a", "b")]
        assert gog.edges[0].ends == (0, 1)
        assert gog.edges[0].group == ("b",)
        assert gog.edges[0].stable_letter is None

    def test_star_amalgam_needs_company(self):
        with pytest.raises(DomainError):
            star_amalgam_split(complete_graph(1), "a")

    def test_amalgam_path(self, p4):
        gog = amalgam_split(p4, ("b",))
        assert [n.group for n in gog.nodes] == [("a", "b"), ("b", "c", "d")]
        assert gog.edges[0].group == ("b",)

    def test_amalgam_rejects_non_clique(self, p4):
        with pytest.raises(DomainError, match="clique"):
            amalgam_split(p4, ("a", "c"))

    def test_amalgam_rejects_disconnected(self):
        g = SimplicialGraph(("a", "b", "c"), [("a", "b")])
        with pytest.raises(DomainError,
                           match="amalgam_split requires a connected graph"):
            amalgam_split(g, ("a",))

    def test_amalgam_rejects_non_separator(self, p4):
        with pytest.raises(DomainError, match="disconnect"):
            amalgam_split(p4, ("a",))

    def test_unknown_vertex(self, p4):
        with pytest.raises(DomainError):
            hnn_split(p4, "z")


class TestReduce:
    def test_absorbs_redundant_node(self, p4):
        gog = _build(p4, [("a", "b", "c"), ("c",)], [(0, 1, ("c",), None)])
        out = reduce(gog)
        assert [n.group for n in out.nodes] == [("a", "b", "c")]
        assert out.edges == ()

    def test_rehomes_loops(self, p4):
        gog = _build(p4, [("b", "c"), ("b",)],
                     [(0, 1, ("b",), None), (1, 1, ("b",), "a")])
        out = reduce(gog)
        assert [n.group for n in out.nodes] == [("b", "c")]
        assert len(out.edges) == 1
        assert out.edges[0].ends == (0, 0)
        assert out.edges[0].stable_letter == "a"

    def test_reduced_input_unchanged(self, p4):
        gog = relative_jsj(p4)
        assert reduce(gog) == gog

    @pytest.mark.parametrize("ends", [(0, 5), (0,), (5, 5)])
    def test_undefined_endpoint_refused(self, p4, ends):
        gog = GraphOfGroups(p4, (GogNode(0, ("a", "b"), True),),
                            (GogEdge(0, ends, ("b",), None),))
        with pytest.raises(DomainError) as info:
            reduce(gog)
        assert str(info.value) == "edge 0 has undefined endpoint"

    def test_repeated_ids_refused(self, p4):
        # p4's relative decomposition: nodes 0-2 and edges 0 (0, 1), 1 (1, 2)
        rel = relative_jsj(p4)
        n, e = rel.nodes, rel.edges
        for gog, message in [
                (replace(rel, edges=(e[0], replace(e[1], id=0))),
                 "edge id 0 is repeated"),
                (replace(rel, nodes=(n[0], replace(n[1], id=0), n[2])),
                 "node id 0 is repeated"),
                (replace(rel, nodes=(n[0], replace(n[1], id="x"), n[2])),
                 "edge 0 has undefined endpoint"),
                (replace(rel, edges=(replace(e[0], id="e", ends=(0, 7)),
                                     e[1])),
                 "edge 'e' has undefined endpoint")]:
            with pytest.raises(DomainError) as info:
                reduce(gog)
            assert str(info.value) == message


class TestValidate:
    def test_detects_disconnected_base_graph(self, p4):
        gog = _build(p4, [("a", "b"), ("c", "d")], [])
        names = all_passed(validate(gog))
        assert "shape" in names
        assert shape(gog) == \
            (False, "non-loop edges do not count as a tree")

    def test_detects_group_outside_endpoint(self, p4):
        gog = _build(p4, [("a", "b"), ("c", "d")], [(0, 1, ("b",), None)])
        assert "embedding" in all_passed(validate(gog))

    def test_detects_splittable_node_group(self, p4):
        gog = _build(p4, [("a", "b", "c", "d")], [])
        assert "node_groups" in all_passed(validate(gog))

    def test_detects_non_separating_edge_group(self, c4):
        gog = _build(c4, [("a", "b", "c", "d"), ("a", "b")],
                     [(0, 1, ("a", "b"), None)])
        assert "edge_groups" in all_passed(validate(gog))

    def test_edge_groups_do_not_read_node_groups(self, p4):
        # node groups naming a vertex outside the graph, or a name that is
        # no string, fail other checks; the edge groups still separate
        gog = relative_jsj(p4)
        for odd in (("a", "b", "zz"), ("a", ["b"])):
            bent = GraphOfGroups(
                p4, (replace(gog.nodes[0], group=odd),) + gog.nodes[1:],
                gog.edges)
            failed = all_passed(validate(bent))
            assert "embedding" in failed and "edge_groups" not in failed

    def test_detects_edge_group_outside_the_graph(self, p4):
        gog = relative_jsj(p4)
        bent = GraphOfGroups(
            p4, gog.nodes, (replace(gog.edges[0], group=("b", "zz")),)
            + gog.edges[1:])
        embedding = [c for c in validate(bent) if c.name == "embedding"]
        assert [(c.passed, c.detail) for c in embedding] == \
            [(False, "edge 0 group is not a vertex subset")]

    def test_detects_stable_letter_outside_the_graph(self):
        # an extra loop whose stable letter names no vertex passes every
        # other check: its group is a vertex of the node it hangs on
        g = SimplicialGraph(("a", "b", "c"), [("a", "b"), ("b", "c")])
        gog = relative_jsj(g)
        bent = GraphOfGroups(g, gog.nodes,
                             gog.edges + (GogEdge(1, (0, 0), ("b",), "zz"),))
        assert [(c.name, c.detail) for c in validate(bent)
                if not c.passed] == \
            [("embedding", "edge 1 stable letter is not a vertex")]

    def test_detects_non_reduced_edge(self, p4):
        gog = _build(p4, [("a", "b"), ("a", "b", "c", "d")],
                     [(0, 1, ("a", "b"), None)])
        assert "reduced" in all_passed(validate(gog))

    def test_detects_uncovered_vertex(self, p4):
        gog = _build(p4, [("a", "b")], [])
        assert "covering" in all_passed(validate(gog))
        # a stable letter covers its vertex; the first one left is reported
        gog = _build(p4, [("a", "b")], [(0, 0, ("b",), "c")])
        covering = [c for c in validate(gog) if c.name == "covering"]
        assert [c.detail for c in covering] == \
            ["vertex 'd' is in no node group and no stable letter"]

    def test_abelian_rejects_hanging_vertex_in_node(self, p4):
        # the relative tree keeps the hanging endpoints a and d
        hanging = [c for c in validate(relative_jsj(p4), abelian=True)
                   if c.name == "hanging"]
        assert [(c.passed, c.detail) for c in hanging] == \
            [(False, "hanging vertex 'a' appears in node 0")]

    def test_detects_wrong_flexible_flag(self, p4):
        gog = abelian_jsj(p4)
        bent = GraphOfGroups(
            gog.base, (replace(gog.nodes[0], flexible=False),), gog.edges)
        assert "flexible" in all_passed(validate(bent, abelian=True))

    def test_loop_stable_letter_required_on_non_loop(self, p4):
        gog = _build(p4, [("a", "b"), ("b", "c", "d")],
                     [(0, 1, ("b",), "a")])
        assert "shape" in all_passed(validate(gog))
        assert shape(gog) == \
            (False, "edge 0: stable letters belong to loops only")

    def test_report_refuses_failed_checks(self, p4, monkeypatch):
        # every failed check of both decompositions is named, in order
        monkeypatch.setattr(jsj, "validate", lambda gog, abelian=False:
                            [CheckResult("shape", False, "boom")])
        with pytest.raises(InvariantViolationError) as info:
            jsj_report(p4)
        assert str(info.value) == \
            "validation failed: relative:shape (boom); abelian:shape (boom)"


class TestShape:
    # the details of the shape check that TestValidate does not pin
    @staticmethod
    def nodes(*ids):
        return tuple(GogNode(i, ("a", "b", "c", "d"), False) for i in ids)

    def test_no_nodes(self, p4):
        assert shape(GraphOfGroups(p4, (), ())) == (False, "no nodes")

    def test_duplicate_node_ids(self, p4):
        gog = GraphOfGroups(p4, self.nodes(0, 1, 0), ())
        assert shape(gog) == (False, "duplicate node ids")

    def test_undefined_endpoint(self, p4):
        gog = GraphOfGroups(p4, self.nodes(0, 1), (
            GogEdge(0, (0, 1), ("b",), None), GogEdge(1, (1, 5), ("c",), None)))
        assert shape(gog) == (False, "edge 1 has undefined endpoint")

    def test_edge_of_three_ends_is_reported(self):
        # `a, b = e.ends` raises ValueError; validate reports, never raises
        rel = relative_jsj(parse_graph("graph { a -- b; b -- c }"))
        gog = replace(rel, edges=(GogEdge(0, (0, 1, 1), ("b",), None),))
        passed, detail = shape(gog)
        assert not passed and detail.startswith("check raised: ")

    def test_loops_do_not_count_as_tree_edges(self, p4):
        # two nodes, one loop, no tree edge
        gog = _build(p4, [("a", "b"), ("c", "d")], [(0, 0, ("b",), "a")])
        assert shape(gog) == \
            (False, "non-loop edges do not count as a tree")

    def test_edges_do_not_connect(self, p4):
        # three edges on four nodes, but a triangle leaves node 3 out
        gog = GraphOfGroups(p4, self.nodes(0, 1, 2, 3), tuple(
            GogEdge(i, ends, ("b",), None)
            for i, ends in enumerate(((0, 1), (1, 2), (0, 2)))))
        assert shape(gog) == \
            (False, "non-loop edges do not connect the nodes")


class TestMalformed:
    # validate(gog, abelian=True) in full on damaged copies of p4's
    # relative decomposition, as recorded before the checks read one mask
    # table per decomposition: a group naming no vertex, or no names at
    # all, fails or raises in each check that reads it, as it did
    CHECKS = ("shape", "embedding", "node_groups", "edge_groups", "reduced",
              "covering", "hanging", "flexible")
    HANGING = "hanging vertex 'a' appears in node 0"
    ZZ = "check raised: not vertices of the graph: 'zz'"
    INT = "check raised: 'int' object is not iterable"
    NO_7 = "check raised: no node with id 7"
    SPLIT = "node 1 group is neither abelian nor separator-free"
    EXPECTED = {
        "node group names no vertex": (
            "", "node 0 group is not a vertex subset", ZZ, "", "", "",
            HANGING, ZZ),
        "edge group names no vertex": (
            "", "edge 0 group is not a vertex subset", "", ZZ, "", "",
            HANGING, ""),
        "stable letter names no vertex": (
            "", "edge 2 stable letter is not a vertex", "", "", "", "",
            HANGING, ""),
        "node group not iterable": (
            "", INT, INT, "", "", INT, HANGING, INT),
        "edge group not iterable": (
            "", INT, "", INT, "", "", HANGING, ""),
        "edge end names no node": (
            "edge 1 has undefined endpoint", NO_7, "", "", NO_7, "", HANGING,
            ""),
        "duplicate node ids": (
            "duplicate node ids", "",
            "node 1 group induces a disconnected subgraph", "", "", "",
            HANGING, "node 1 flexible flag disagrees with its group"),
        "edge group unsorted": (
            "", "", SPLIT, "edge 0 group does not disconnect the graph", "",
            "", HANGING, ""),
        "edge group repeats a name": (
            "", "", SPLIT, "edge 0 group does not disconnect the graph", "",
            "", HANGING, ""),
    }

    @staticmethod
    def damaged(p4):
        rel = relative_jsj(p4)
        n, e = rel.nodes, rel.edges
        # node 1 is the whole graph, and edge 0 equals node 0 as a set only
        flat = _build(p4, [("a", "b"), ("a", "b", "c", "d")],
                      [(0, 1, ("a", "b"), None)])

        def node(i, **kw):
            nodes = n[:i] + (replace(n[i], **kw),) + n[i + 1:]
            return replace(rel, nodes=nodes)

        def edge(i, **kw):
            edges = e[:i] + (replace(e[i], **kw),) + e[i + 1:]
            return replace(rel, edges=edges)

        def flat_group(group):
            return replace(flat, edges=(replace(flat.edges[0], group=group),))

        return {
            "node group names no vertex": node(0, group=("a", "b", "zz")),
            "edge group names no vertex": edge(0, group=("b", "zz")),
            "stable letter names no vertex": replace(
                rel, edges=e + (GogEdge(2, (1, 1), ("b",), "zz"),)),
            "node group not iterable": node(1, group=5),
            "edge group not iterable": edge(1, group=5),
            "edge end names no node": edge(1, ends=(1, 7)),
            # the first node with an id is the one edges reach
            "duplicate node ids": replace(
                rel, nodes=n + (GogNode(1, ("a", "d"), True),)),
            # reducedness compares the name tuples as listed
            "edge group unsorted": flat_group(("b", "a")),
            "edge group repeats a name": flat_group(("a", "b", "b")),
        }

    def test_check_results_as_recorded(self, p4):
        cases = self.damaged(p4)
        assert sorted(cases) == sorted(self.EXPECTED)
        for name, gog in cases.items():
            assert validate(gog, abelian=True) == [
                CheckResult(check, detail == "", detail)
                for check, detail in zip(self.CHECKS, self.EXPECTED[name])
            ], name


class TestNodeLookup:
    def test_first_node_with_an_id_wins(self, p4):
        first = GogNode(0, ("a", "b"), True)
        gog = GraphOfGroups(p4, (first, GogNode(0, ("c", "d"), True)), ())
        assert gog.node(0) is first

    def test_missing_id_raises(self, p4):
        gog = relative_jsj(p4)
        with pytest.raises(DomainError, match="no node with id 3"):
            gog.node(3)

    @pytest.mark.parametrize("node_id", ["x", None, 1.5, (1, 2)])
    def test_missing_id_of_another_type_is_named(self, p4, node_id):
        gog = relative_jsj(p4)
        with pytest.raises(DomainError) as info:
            gog.node(node_id)
        assert str(info.value) == "no node with id %r" % (node_id,)

    def test_string_edge_end_is_named_by_validate(self, p4):
        rel = relative_jsj(p4)
        gog = replace(rel, edges=(replace(rel.edges[0], ends=(0, "x")),
                                  rel.edges[1]))
        [check] = [c for c in validate(gog) if c.name == "embedding"]
        assert check == CheckResult("embedding", False,
                                    "check raised: no node with id 'x'")


class TestMaskTable:
    def test_built_table_is_a_fresh_conversion(self, monkeypatch):
        # `_build` hands its table over, so reading it converts nothing; a
        # caller-built copy converts its groups when the table is read
        calls = []
        convert = jsj._vertex_mask
        monkeypatch.setattr(jsj, "_vertex_mask", lambda base, group:
                            calls.append(group) or convert(base, group))
        for _, g in golden.corpus():
            for gog in (relative_jsj(g), abelian_jsj(g)):
                calls.clear()
                table = gog._masks
                assert calls == []
                fresh = GraphOfGroups(gog.base, gog.nodes, gog.edges)._masks
                assert table == fresh
                assert len(calls) == len(gog.nodes) + len(gog.edges)

    def test_replaced_groups_get_a_fresh_table(self, p4):
        rel = relative_jsj(p4)
        old = rel._masks
        nodes = tuple(replace(n, group=("a", "b", "c", "d")[:i + 2])
                      for i, n in enumerate(rel.nodes))
        edges = (replace(rel.edges[0], group=("zz",)), rel.edges[1])
        for gog in (replace(rel, nodes=nodes), replace(rel, edges=edges),
                    replace(rel, nodes=nodes, edges=edges)):
            fresh = GraphOfGroups(gog.base, gog.nodes, gog.edges)._masks
            assert gog._masks == fresh != old


class TestAttachIndex:
    # p4's vertices as bits: a 1, b 2, c 4, d 8; the separator is {b}
    @staticmethod
    def attach(groups, bits, start, end):
        held = [i for i, m in enumerate(bits) if m & 2]  # the groups with b
        return _attach_index(groups, bits, held, start, end, ("b",), 2)

    def test_least_group_containing_the_separator_wins(self):
        # {b} itself is no attach point, but only the least group counts
        groups = [("b", "c"), ("a", "b"), ("b",)]
        assert self.attach(groups, [6, 3, 2], 0, 3) == 1

    def test_non_reduced_attach_point_is_refused(self):
        # the edge to {b} would carry its whole group: not reduced; the
        # subtree holding only {c, d} has no group to attach to at all
        for groups, bits, start in [([("b", "c"), ("b",)], [6, 2], 0),
                                    ([("a", "b"), ("c", "d")], [3, 12], 1)]:
            with pytest.raises(InvariantViolationError, match=(
                    r"no subtree node group properly contains the "
                    r"separator \['b'\]")):
                self.attach(groups, bits, start, 2)


def glued_blobs(rng, size):
    """A connected graph of at least `size` vertices glued from blobs along
    cliques: each blob is a clique of up to 3 vertices of the graph so far
    plus 1-5 new vertices, each joined to one vertex of the blob before it
    and to every other with one probability per blob."""
    adj = [set()]
    while len(adj) < size:
        blob = [rng.randrange(len(adj))]
        for u in sorted(adj[blob[0]]):
            if len(blob) < 3 and rng.random() < 0.5 and \
                    all(u in adj[v] for v in blob):
                blob.append(u)
        p = rng.random()
        for _ in range(rng.randint(1, 5)):
            v = len(adj)
            first = rng.choice(blob)
            adj.append({u for u in blob if u == first or rng.random() < p})
            for u in adj[v]:
                adj[u].add(v)
            blob.append(v)
    names = ["v%02d" % v for v in range(len(adj))]
    return SimplicialGraph(names, [(names[u], names[v])
                                   for u in range(len(adj))
                                   for v in adj[u] if u < v])


def assert_each_separator_splits_once(g):
    """The split tree uses every clique minimal separator of `g` exactly
    once, and each splits its piece into two or more: a split into one
    component would join no pieces, so its separator would carry no edge."""
    _, edges, used = _split_tree(g)
    where = (g.vertices, sorted(g.edges))
    assert sorted(used, key=lambda k: (len(k), k)) == \
        [k for k, _ in _clique_minimal_separators(g)], where
    assert {k for _, _, k, _ in edges} == set(used), where


class TestSplitTree:
    def test_no_separator_splits_twice(self):
        # jsj_report's separators_used is the split tree's list as it
        # stands; the golden corpus is every connected graph of at most 6
        # vertices, then 300 seeded ones of 7-12
        count = 0
        for _, g in golden.corpus():
            assert_each_separator_splits_once(g)
            count += 1
        assert count == 1 + 1 + 4 + 38 + 728 + 26704 + 300

    def test_glued_blobs_use_every_separator_once(self):
        rng = random.Random(0xB10B)
        seps = 0
        for _ in range(300):
            g = glued_blobs(rng, rng.randrange(10, 61))
            assert_each_separator_splits_once(g)
            seps += len(_clique_minimal_separators(g))
        assert seps > 3000


def body_runs(functions, action):
    """Call `action()`; return, per memoized function, the arguments (the
    graph left out) of each run of its body, not of each call. A profile
    hook sees the body's code run whatever binding reached it."""
    bodies = {f.__wrapped__.__code__: f.__name__ for f in functions}
    runs = {name: [] for name in bodies.values()}

    def hook(frame, event, _):
        code = frame.f_code
        if event == "call" and code in bodies:
            runs[bodies[code]].append(tuple(
                frame.f_locals[v] for v in code.co_varnames[1:code.co_argcount]))

    before = sys.getprofile()
    sys.setprofile(hook)
    try:
        action()
    finally:
        sys.setprofile(before)
    return runs


CYCLE_12 = json.dumps({
    "vertices": ["v%02d" % i for i in range(12)],
    "edges": [["v%02d" % i, "v%02d" % ((i + 1) % 12)] for i in range(12)]})


class TestMemo:
    @pytest.mark.parametrize("mode", ["relative", "abelian"])
    def test_each_computation_once_per_cli_call(self, capsys, monkeypatch, mode):
        # validate's MCS-M+ on the cycle's one node group is the separator
        # list's run on the full mask, and its hanging check abelian_jsj's
        monkeypatch.setattr("sys.stdin", io.StringIO(CYCLE_12))
        runs = body_runs([_mcs_m, hanging_vertices, _split_tree],
                         lambda: main(["jsj", "-", "--mode", mode]))
        assert json.loads(capsys.readouterr().out)["validation"]
        assert runs == {"_mcs_m": [((1 << 12) - 1,)],
                        "hanging_vertices": [()] if mode == "abelian" else [],
                        "_split_tree": [()]}

    def test_jsj_report_splits_once(self, tri_tail):
        for g in (tri_tail, parse_graph(CYCLE_12)):
            runs = body_runs([_mcs_m, hanging_vertices, _split_tree],
                             lambda: jsj_report(g))
            masks = runs["_mcs_m"]
            assert len(set(masks)) == len(masks) > 0
            assert runs["hanging_vertices"] == runs["_split_tree"] == [()]

    def test_memo_leaks_nothing_between_callers(self):
        # each function on a graph whose memo the others filled, called in
        # reverse order, against the function on a fresh graph
        calls = [relative_jsj, abelian_jsj,
                 lambda g: validate(relative_jsj(g)),
                 lambda g: validate(abelian_jsj(g), abelian=True),
                 hanging_vertices, clique_separators, jsj_report]
        count = 0
        for n in range(1, 6):
            for g in exhaustive_graphs(n):
                if not is_connected(g):
                    continue
                count += 1
                for i, f in enumerate(calls):
                    filled = SimplicialGraph(g.vertices, g.edges)
                    for other in reversed(calls[:i] + calls[i + 1:]):
                        other(filled)
                    assert f(filled) == f(SimplicialGraph(g.vertices, g.edges))
        assert count == 1 + 1 + 4 + 38 + 728

    def test_copies_of_a_filled_graph_compare_and_hash_equal(self, tri_tail):
        report = jsj_report(tri_tail)
        parse_word(tri_tail, "a d")  # the word alphabet, too
        for g in (copy.copy(tri_tail), pickle.loads(pickle.dumps(tri_tail))):
            assert g == tri_tail and hash(g) == hash(tri_tail)
            assert jsj_report(g) == report


class TestSerialization:
    def test_dot_output(self, p4):
        assert gog_to_dot(abelian_jsj(p4)) == (
            'graph decomposition {\n'
            '  n0 [label="{b,c}"];\n'
            '  n0 -- n0 [label="{b} / stable a"];\n'
            '  n0 -- n0 [label="{c} / stable d"];\n'
            '}\n')

    def test_dot_labels_escape_quotes_and_backslashes(self):
        g = parse_graph(r'graph { "x\"y" -- b; "p\\" -- b }')
        assert gog_to_dot(relative_jsj(g)) == (
            'graph decomposition {\n'
            r'  n0 [label="{b,p\\}"];' '\n'
            r'  n1 [label="{b,x\"y}"];' '\n'
            '  n0 -- n1 [label="{b}"];\n'
            '}\n')
        assert gog_to_dot(abelian_jsj(g)) == (
            'graph decomposition {\n'
            '  n0 [label="{b}"];\n'
            r'  n0 -- n0 [label="{b} / stable p\\"];' '\n'
            r'  n0 -- n0 [label="{b} / stable x\"y"];' '\n'
            '}\n')

"""Graph-of-groups decompositions over standard subgroups.

Every vertex group and edge group is a standard subgroup, so the whole
structure is carried by vertex-set labels on an abstract base graph. Nodes
and edges get small integer ids; serialization sorts by id, construction
assigns ids deterministically, so identical inputs yield identical output
bytes.
"""

from dataclasses import dataclass, replace
from functools import cached_property
import heapq
from typing import List, Optional, Tuple

from .errors import DomainError, InvariantViolationError, RaagError
from .graphs import (SimplicialGraph, _clique_mask,
                     _clique_minimal_separators, _component_masks,
                     _dot_escape, _full_mask, _names, _splits, _vertex_mask,
                     hanging_vertices, induced_subgraph, is_clique,
                     is_connected, link, star)


@dataclass(frozen=True)
class GogNode:
    id: int
    group: Tuple[str, ...]
    flexible: bool


@dataclass(frozen=True)
class GogEdge:
    id: int
    ends: Tuple[int, int]
    group: Tuple[str, ...]
    stable_letter: Optional[str]

    @property
    def is_loop(self) -> bool:
        return self.ends[0] == self.ends[1]


@dataclass(frozen=True)
class GraphOfGroups:
    base: SimplicialGraph
    nodes: Tuple[GogNode, ...]
    edges: Tuple[GogEdge, ...]

    @cached_property
    def _by_id(self):
        # the first node with an id wins; cached_property writes the
        # instance __dict__, which the frozen __setattr__ does not guard
        return {n.id: n for n in reversed(self.nodes)}

    def node(self, node_id: int) -> GogNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise DomainError("no node with id %d" % node_id) from None


def _build(base, groups, raw_edges):
    """Finalize a construction: nodes keep list order, non-loop edge ends are
    ordered, edges are renumbered in (ends, group, stable letter) order."""
    nodes = tuple(
        GogNode(i, tuple(sorted(grp)), is_clique(base, grp))
        for i, grp in enumerate(groups))
    prepared = []
    for a, b, grp, stable in raw_edges:
        ends = (a, b) if a <= b else (b, a)
        prepared.append((ends, tuple(sorted(grp)), stable))
    prepared.sort(key=lambda t: (t[0], t[1], t[2] or ""))
    edges = tuple(
        GogEdge(i, ends, grp, stable)
        for i, (ends, grp, stable) in enumerate(prepared))
    return GraphOfGroups(base, nodes, edges)


def hnn_split(g: SimplicialGraph, v: str) -> GraphOfGroups:
    """One-node splitting with stable letter `v`: the node carries everything
    but `v`, the loop carries the link of `v`."""
    g.index(v)  # an unknown vertex raises DomainError
    rest = tuple(u for u in g.vertices if u != v)
    return _build(g, [rest], [(0, 0, link(g, (v,)), v)])


def star_amalgam_split(g: SimplicialGraph, v: str) -> GraphOfGroups:
    """Two-node splitting along the link of `v`: everything but `v` glued to
    the star of `v` over the link."""
    g.index(v)  # an unknown vertex raises DomainError
    if g.vertices == (v,):
        raise DomainError("star amalgam needs more than the single vertex %r" % (v,))
    rest = tuple(u for u in g.vertices if u != v)
    return _build(g, [rest, star(g, v)], [(0, 1, link(g, (v,)), None)])


def amalgam_split(g: SimplicialGraph, k) -> GraphOfGroups:
    """Path of amalgams over the disconnecting clique `k`: one node per
    component of the graph minus `k` (each with `k` added back), consecutive
    nodes joined by edges with group `k`."""
    kmask = _vertex_mask(g, k)
    k = _names(g.vertices, kmask)
    if not is_connected(g):
        raise DomainError("amalgam_split requires a connected graph")
    if not _clique_mask(g.masks, kmask):
        raise DomainError("%s is not a clique" % (list(k),))
    comps = _component_masks(g.masks, _full_mask(g) ^ kmask)
    if len(comps) < 2:
        raise DomainError("%s does not disconnect the graph" % (list(k),))
    groups = [_names(g.vertices, kmask | c) for c in comps]
    edges = [(i, i + 1, k, None) for i in range(len(comps) - 1)]
    return _build(g, groups, edges)


def _attach_index(groups, bits, start, end, k, kmask):
    """Index of the attachment node among groups[start:end], a glued
    subtree: among groups containing the separator, the lexicographically
    least group wins. The amalgam edge carries the separator, so it is
    reduced exactly when that group is more than the separator."""
    best = None
    for i in range(start, end):
        if bits[i] & kmask == kmask:
            if best is None or groups[i] < groups[best]:
                best = i
    if best is None or bits[best] == kmask:
        raise InvariantViolationError(
            "no subtree node group properly contains the separator %s"
            % (list(k),))
    return best


def _split_tree(g):
    """Iterated splitting of a connected graph along clique separators;
    a disconnected graph raises DomainError.

    Returns (groups, edges, used): the node groups, one per leaf of the
    splitting tree from left to right, the amalgam edges between them (by
    group index) and the separators in the order their pieces split. The
    groups and edges are the relative decomposition as they stand.

    A piece splits along the least clique separator of the full subgraph
    on it. The clique minimal separators of `g` include those of every
    piece, so the least one is the first of them, in (size, lex) order,
    that lies inside the piece and disconnects it. It also comes after the
    separator its parent split along, so the scan of a piece starts there.
    The pieces of a split are the separator plus each component left after
    deleting it, in order of least vertex; the pieces of consecutive
    components are joined at their lexicographically least group
    containing the separator, which `_attach_index` asserts is more than
    the separator, so every edge is reduced. An explicit stack takes the
    pieces depth first, so the depth of the tree costs no recursion. Pieces
    and separators are vertex bitmasks (see `graphs._reach`).
    """
    if not is_connected(g):
        raise DomainError("decomposition requires a connected graph; "
                          "process components separately")
    masks = g.masks
    separators = _clique_minimal_separators(g)
    groups: list = []
    bits: list = []  # the bitmask of each group
    edges: list = []
    used: list = []
    # a piece is (vertices, first separator to try, the group offsets of its
    # split); the split itself, (separator, None, offsets), is taken after
    # all its pieces, when it joins them
    stack = [(_full_mask(g), 0, None)]
    while stack:
        part, first, offsets = stack.pop()
        if first is None:
            k, kmask = part
            attach = [_attach_index(groups, bits, start, end, k, kmask)
                      for start, end in zip(offsets,
                                            offsets[1:] + [len(groups)])]
            edges.extend((a, b, k, None) for a, b in zip(attach, attach[1:]))
            continue
        if offsets is not None:
            offsets.append(len(groups))
        found = _first_split(masks, part, separators, first)
        if found is None:
            groups.append(_names(g.vertices, part))
            bits.append(part)
            continue
        pos, comps = found
        k, kmask = separators[pos]
        used.append(k)
        mine: list = []
        stack.append(((k, kmask), None, mine))
        for comp in reversed(comps):
            stack.append((kmask | comp, pos + 1, mine))
    return groups, edges, used


def _first_split(masks, piece, separators, first):
    """(index, components) for the first separator from `first` on that
    lies inside `piece` and disconnects it, or None; complete pieces never
    split. One search finds the components of the piece minus the
    separator, in order of least vertex."""
    if _clique_mask(masks, piece):
        return None
    for pos in range(first, len(separators)):
        kmask = separators[pos][1]
        if piece | kmask == piece:
            comps = _component_masks(masks, piece ^ kmask)
            if len(comps) > 1:
                return pos, comps
    return None


def relative_jsj(g: SimplicialGraph) -> GraphOfGroups:
    """Iterated splitting along minimum clique separators.

    Complete or separator-free graphs stay a single node; otherwise the
    graph splits along its minimum clique separator into a path of amalgams
    and each piece splits in turn. The result is a reduced tree whose node
    groups are abelian or separator-free and whose edge groups are
    disconnecting cliques of the input.
    """
    groups, edges, _ = _split_tree(g)
    return _build(g, groups, edges)


def abelian_jsj(g: SimplicialGraph) -> GraphOfGroups:
    """Splittings over abelian subgroups: the relative decomposition with
    every hanging vertex turned into a loop, then reduced.

    The single-vertex graph becomes one trivial node with a trivial loop
    whose stable letter is the vertex. Complete and separator-free graphs
    decompose trivially.
    """
    groups, edges, _ = _split_tree(g)
    return _abelian_gog(g, groups, edges)


def _abelian_gog(g, groups, edges):
    # one group of two or more vertices holds no hanging vertex, and a
    # complete graph is spared the scan for them
    if len(groups) == 1 and len(g.vertices) > 1:
        return _build(g, groups, edges)
    groups, edges = list(groups), list(edges)  # jsj_report shares them
    nodes_of = {}
    for i, grp in enumerate(groups):
        nodes_of.setdefault(grp, []).append(i)
    for v in hanging_vertices(g):
        sv = star(g, v)
        hits = nodes_of.pop(sv, [])
        if len(hits) != 1:
            raise InvariantViolationError(
                "expected exactly one node with group %s, found %d"
                % (list(sv), len(hits)))
        i = hits[0]
        groups[i] = link(g, (v,))
        nodes_of.setdefault(groups[i], []).append(i)
        edges.append((i, i, groups[i], v))
    return reduce(_build(g, groups, edges))


def reduce(gog: GraphOfGroups) -> GraphOfGroups:
    """Contract non-loop edges whose group equals an endpoint group, lowest
    edge id first, until none remain; incident edges and loops are re-homed
    onto the surviving endpoint.

    Node groups never change, so an edge can become contractible only when
    one of its endpoints is contracted away. A heap holds the contractible
    edge ids (each checked again when popped) and every node lists its
    non-loop edges, so a contraction revisits only the edges of the node
    it removes. An edge keeps its original ends; `home` follows a removed
    node to the node that absorbed it.
    """
    groups = {n.id: n.group for n in gog.nodes}
    edges = {e.id: (e.ends[0], e.ends[1], e.group, e.stable_letter)
             for e in gog.edges}
    absorbed = {}  # removed node -> the node it was contracted into

    def home(x):
        root = x
        while root in absorbed:
            root = absorbed[root]
        while x != root:
            absorbed[x], x = root, absorbed[x]
        return root

    def contraction(eid):
        """(removed, kept) ends of a contractible edge, else None."""
        a, b, grp, _ = edges[eid]
        a, b = home(a), home(b)
        if a == b:
            return None
        if grp == groups[a]:
            return a, b
        if grp == groups[b]:
            return b, a
        return None

    incident = {n.id: [] for n in gog.nodes}
    for eid, (a, b, _, _) in edges.items():
        if a != b:
            incident[a].append(eid)
            incident[b].append(eid)
    heap = [eid for eid in edges if contraction(eid)]
    heapq.heapify(heap)
    while heap:
        eid = heapq.heappop(heap)
        if eid not in edges:
            continue
        ends = contraction(eid)
        if ends is None:
            continue
        dead, kept = ends
        del edges[eid]
        del groups[dead]
        absorbed[dead] = kept
        moved = [f for f in incident.pop(dead) if f in edges]
        incident[kept].extend(moved)
        for f in moved:
            if contraction(f):
                heapq.heappush(heap, f)
    order = {old: new for new, old in enumerate(sorted(groups))}
    out_groups = [groups[old] for old in sorted(groups)]
    out_edges = [(order[home(a)], order[home(b)], grp, st)
                 for _, (a, b, grp, st) in sorted(edges.items())]
    return _build(gog.base, out_groups, out_edges)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name, results, fn):
    try:
        detail = fn()
    except (RaagError, KeyError, IndexError, TypeError) as exc:
        results.append(CheckResult(name, False, "check raised: %s" % exc))
        return
    results.append(CheckResult(name, detail == "", detail or ""))


def validate(gog: GraphOfGroups, abelian: bool = False) -> List[CheckResult]:
    """Structural checks; failures are reported, never raised.

    Checks: base-graph shape (tree, or tree with loops), group embeddings,
    node groups abelian or separator-free, edge groups disconnecting cliques
    (skipped for the degenerate one-vertex base), reducedness of non-loop
    edges, covering of all base vertices, and for abelian output the hanging
    vertex exclusion and the flexible flags.
    """
    base = gog.base
    results: List[CheckResult] = []

    def shape():
        if not gog.nodes:
            return "no nodes"
        ids = [n.id for n in gog.nodes]
        if len(set(ids)) != len(ids):
            return "duplicate node ids"
        idset = set(ids)
        for e in gog.edges:
            if e.ends[0] not in idset or e.ends[1] not in idset:
                return "edge %d has undefined endpoint" % e.id
            if e.stable_letter is not None and not e.is_loop:
                return "edge %d: stable letters belong to loops only" % e.id
        tree_edges = [e for e in gog.edges if not e.is_loop]
        if len(tree_edges) != len(gog.nodes) - 1:
            return "non-loop edges do not count as a tree"
        reach = {gog.nodes[0].id}
        grow = True
        while grow:
            grow = False
            for e in tree_edges:
                a, b = e.ends
                if (a in reach) != (b in reach):
                    reach.update((a, b))
                    grow = True
        if reach != idset:
            return "non-loop edges do not connect the nodes"
        return ""

    def embedding():
        vs = set(base.vertices)
        for n in gog.nodes:
            if not set(n.group) <= vs:
                return "node %d group is not a vertex subset" % n.id
        for e in gog.edges:
            if not set(e.group) <= vs:
                return "edge %d group is not a vertex subset" % e.id
            for end in set(e.ends):
                if not set(e.group) <= set(gog.node(end).group):
                    return "edge %d group not inside node %d group" % (e.id, end)
        return ""

    def node_groups():
        for n in gog.nodes:
            if is_clique(base, n.group):
                continue
            sub = induced_subgraph(base, n.group)
            if not is_connected(sub):
                return "node %d group induces a disconnected subgraph" % n.id
            if _clique_minimal_separators(sub):
                return "node %d group is neither abelian nor separator-free" % n.id
        return ""

    def edge_groups():
        if len(base.vertices) == 1:
            return ""
        for e in gog.edges:
            if not is_clique(base, e.group):
                return "edge %d group is not a clique" % e.id
            left = _full_mask(base) & ~_vertex_mask(base, e.group)
            if not _splits(base.masks, left):
                return "edge %d group does not disconnect the graph" % e.id
        return ""

    def reduced():
        for e in gog.edges:
            if e.is_loop:
                continue
            for end in e.ends:
                if e.group == gog.node(end).group:
                    return "edge %d group equals node %d group" % (e.id, end)
        return ""

    def covering():
        covered = {e.stable_letter for e in gog.edges}
        for n in gog.nodes:
            covered.update(n.group)
        for v in base.vertices:
            if v not in covered:
                return "vertex %r is in no node group and no stable letter" % v
        return ""

    def hanging():
        bad = set(hanging_vertices(base))
        for n in gog.nodes:
            for v in n.group:
                if v in bad:
                    return "hanging vertex %r appears in node %d" % (v, n.id)
        return ""

    def flexible():
        for n in gog.nodes:
            if n.flexible != is_clique(base, n.group):
                return "node %d flexible flag disagrees with its group" % n.id
        return ""

    _check("shape", results, shape)
    _check("embedding", results, embedding)
    _check("node_groups", results, node_groups)
    _check("edge_groups", results, edge_groups)
    _check("reduced", results, reduced)
    _check("covering", results, covering)
    if abelian:
        _check("hanging", results, hanging)
        _check("flexible", results, flexible)
    return results


def gog_to_json_obj(gog: GraphOfGroups) -> dict:
    return {
        "nodes": [
            {"id": n.id, "group": list(n.group), "flexible": n.flexible}
            for n in sorted(gog.nodes, key=lambda n: n.id)],
        "edges": [
            {"id": e.id, "ends": list(e.ends), "group": list(e.group),
             "stable_letter": e.stable_letter}
            for e in sorted(gog.edges, key=lambda e: e.id)],
    }


def gog_to_dot(gog: GraphOfGroups) -> str:
    def label(group, stable=None):
        text = "{%s}" % ",".join(group)
        if stable is not None:
            text += " / stable %s" % stable
        return _dot_escape(text)

    lines = ["graph decomposition {"]
    for n in sorted(gog.nodes, key=lambda n: n.id):
        lines.append('  n%d [label="%s"];' % (n.id, label(n.group)))
    for e in sorted(gog.edges, key=lambda e: e.id):
        lines.append('  n%d -- n%d [label="%s"];'
                     % (e.ends[0], e.ends[1], label(e.group, e.stable_letter)))
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class JsjReport:
    graph: SimplicialGraph
    relative: GraphOfGroups
    abelian: GraphOfGroups
    hanging: Tuple[str, ...]
    separators_used: Tuple[Tuple[str, ...], ...]
    validation: Tuple[CheckResult, ...]


def jsj_report(g: SimplicialGraph) -> JsjReport:
    """Both decompositions plus their validation; raises when any check
    fails, so a returned report is always internally consistent."""
    groups, edges, used = _split_tree(g)
    separators = tuple(dict.fromkeys(used))
    rel = _build(g, groups, edges)
    abe = _abelian_gog(g, groups, edges)
    checks = tuple(
        [replace(c, name="relative:" + c.name) for c in validate(rel)]
        + [replace(c, name="abelian:" + c.name) for c in validate(abe, abelian=True)])
    bad = [c for c in checks if not c.passed]
    if bad:
        raise InvariantViolationError(
            "validation failed: " + "; ".join("%s (%s)" % (c.name, c.detail) for c in bad))
    return JsjReport(g, rel, abe, hanging_vertices(g), separators, checks)

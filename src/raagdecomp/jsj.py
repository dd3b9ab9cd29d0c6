"""Graph-of-groups decompositions over standard subgroups.

Every vertex group and edge group is a standard subgroup, so the whole
structure is carried by vertex-set labels on an abstract base graph. Nodes
and edges get small integer ids; serialization sorts by id, construction
assigns ids deterministically, so identical inputs yield identical output
bytes.
"""

from bisect import bisect_left
from dataclasses import dataclass, replace
import functools
import heapq
import operator
from typing import List, Optional, Tuple

from .errors import DomainError, InvariantViolationError, RaagError
from .graphs import (SimplicialGraph, _clique_mask,
                     _clique_minimal_separators, _component_masks,
                     _dot_escape, _edge_count, _full_mask, _mcs_m, _memoized,
                     _names, _splits, _vertex_mask, hanging_vertices,
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

    @functools.cached_property
    def _by_id(self):
        # the position of the first node with each id; cached_property
        # writes the instance __dict__, which the frozen __setattr__ does
        # not guard
        return {n.id: i for i, n in reversed(list(enumerate(self.nodes)))}

    @functools.cached_property
    def _masks(self):
        """The vertex masks of the node groups and of the edge groups, in
        list order: each group's names are converted once per
        decomposition. A group that is not a set of vertex names of the
        base gets None; a check that needs its mask gets, through
        `_table_mask`, the error its names raise. `_build` hands its
        decompositions their table; this converts the groups of any
        other."""
        return ([_group_mask(self.base, n.group) for n in self.nodes],
                [_group_mask(self.base, e.group) for e in self.edges])

    def _at(self, node_id):
        """The position in `nodes` of the first node with id `node_id`;
        DomainError when no node has it."""
        try:
            return self._by_id[node_id]
        except KeyError:
            raise DomainError("no node with id %r" % (node_id,)) from None

    def node(self, node_id: int) -> GogNode:
        return self.nodes[self._at(node_id)]


def _group_mask(base, group):
    """The vertex mask of `group`, or None when it is not a set of vertex
    names of `base`: an entry of `GraphOfGroups._masks`."""
    try:
        return _vertex_mask(base, group)
    except _CHECK_ERRORS:
        return None


def _build(base, groups, raw_edges):
    """Finalize a construction: nodes keep list order, non-loop edge ends are
    ordered, edges are renumbered in (ends, group, stable letter) order.
    The decomposition gets its `_masks` table here, the node masks being
    those its flexible flags are read from."""
    node_masks = [_vertex_mask(base, grp) for grp in groups]
    nodes = tuple(
        GogNode(i, tuple(sorted(grp)), _clique_mask(base.masks, m))
        for i, (grp, m) in enumerate(zip(groups, node_masks)))
    edges = tuple(
        GogEdge(i, (a, b), grp, stable)
        for i, (a, b, grp, stable) in enumerate(_ordered_edges(raw_edges)))
    gog = GraphOfGroups(base, nodes, edges)
    # the cached_property reads the instance __dict__ first; `replace`
    # builds a new instance, which converts its groups afresh
    gog.__dict__["_masks"] = (node_masks,
                              [_group_mask(base, e.group) for e in edges])
    return gog


def _ordered_edges(raw_edges):
    """The edges as `_build` numbers them: (a, b, group, stable letter)
    with a <= b and the group sorted, in (ends, group, stable letter)
    order."""
    prepared = [(a, b, tuple(sorted(grp)), stable) if a <= b
                else (b, a, tuple(sorted(grp)), stable)
                for a, b, grp, stable in raw_edges]
    prepared.sort(key=lambda t: (t[0], t[1], t[2], t[3] or ""))
    return prepared


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


def _attach_index(groups, bits, held, start, end, k, kmask):
    """Index of the attachment node among groups[start:end], a glued
    subtree: among groups containing the separator, the lexicographically
    least group wins. The amalgam edge carries the separator, so it is
    reduced exactly when that group is more than the separator.

    `held` lists, in increasing order, the indices of the groups that hold
    one vertex of the separator; only they can contain it. The scan takes
    the part of `held` inside [start, end).
    """
    lo = bisect_left(held, start)
    hi = bisect_left(held, end, lo)
    best = None
    for i in held[lo:hi]:
        if bits[i] & kmask == kmask:
            if best is None or groups[i] < groups[best]:
                best = i
    if best is None or bits[best] == kmask:
        raise InvariantViolationError(
            "no subtree node group properly contains the separator %s"
            % (list(k),))
    return best


@_memoized
def _split_tree(g):
    """Iterated splitting of a connected graph along clique separators;
    a disconnected graph raises DomainError.

    Returns tuples (groups, edges, used): the node groups, one per leaf of
    the splitting tree from left to right, the amalgam edges between them
    (by group index) and the separators in the order their pieces split.
    The groups and edges are the relative decomposition as they stand.

    A piece splits along the least clique separator of the full subgraph
    on it. The clique minimal separators of `g` include those of every
    piece, and splitting along one of them leaves each of the others inside
    exactly one piece, where it still disconnects that piece (Leimer,
    "Optimal decomposition by clique separators", Discrete Math. 113,
    1993; Berry, Pogorelcnik and Simonet, Algorithms 3(2), 2010). So each
    piece carries its candidates, the separators inside it not yet used,
    as indices in (size, lex) order: the whole graph has them all, a
    piece's first candidate is the one it splits along, and a piece with
    none is a leaf. Each later candidate S goes to exactly one child: S is
    not inside the separator K (it would be smaller, or equal), and S - K,
    a clique, lies in one component C, so only the child made of K and C
    holds S.
    Candidates move by the smaller half (Even and Shiloach, 1981, as in
    `_separated_components`): the child with the most vertices keeps its
    parent's list, and each other child gathers its own from the
    separators holding its component's vertices. `owner` numbers the list
    each unused separator is on, so the child that kept a list skips the
    entries that moved off it as it reaches them. No piece tests the
    separators against its vertices, and a split costs about the size of
    its smaller components and of the candidates they take.
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
    vs = g.vertices
    separators = _clique_minimal_separators(g)
    holding: list = [[] for _ in vs]  # the separators holding each vertex
    for pos, (_, kmask) in enumerate(separators):
        while kmask:
            v = kmask.bit_length() - 1
            holding[v].append(pos)
            kmask ^= 1 << v
    owner = [0] * len(separators)  # the list of each unused separator
    lists = 1  # the lists made so far, the whole graph's being list 0
    groups: list = []
    bits: list = []  # the bitmask of each group
    holders: list = [[] for _ in vs]  # the groups holding each vertex
    edges: list = []
    used: list = []
    # a piece is (vertices, candidate list, where its part of that list
    # starts, the list's number, the group offsets of its split, unread
    # for the whole graph); the split itself, (separator, None, 0, 0,
    # offsets), is taken after all its pieces, when it joins them
    stack = [(_full_mask(g), list(range(len(separators))), 0, 0, [])]
    while stack:
        part, cands, at, mark, offsets = stack.pop()
        if cands is None:
            k, kmask = part
            held = None  # of the separator's vertex held by fewest groups
            rest = kmask
            while rest:
                v = rest.bit_length() - 1
                if held is None or len(holders[v]) < len(held):
                    held = holders[v]
                rest ^= 1 << v
            attach = [_attach_index(groups, bits, held, start, end, k, kmask)
                      for start, end in zip(offsets,
                                            offsets[1:] + [len(groups)])]
            edges.extend((a, b, k, None) for a, b in zip(attach, attach[1:]))
            continue
        offsets.append(len(groups))
        while at < len(cands) and owner[cands[at]] != mark:
            at += 1
        if at == len(cands):
            names = []
            rest = part
            while rest:  # highest bit first: the mask narrows
                v = rest.bit_length() - 1
                holders[v].append(len(groups))
                names.append(vs[v])
                rest ^= 1 << v
            names.reverse()
            groups.append(tuple(names))
            bits.append(part)
            continue
        pos = cands[at]
        owner[pos] = -1  # used: no child takes it
        k, kmask = separators[pos]
        used.append(k)
        # a piece is connected, so every component of the piece minus the
        # separator holds a neighbour of it
        comps = _separated_components(masks, part ^ kmask, kmask)
        largest = max(comps, key=int.bit_count)
        mine: list = []
        stack.append(((k, kmask), None, 0, 0, mine))
        for comp in reversed(comps):
            if comp == largest:
                stack.append((kmask | comp, cands, at + 1, mark, mine))
                continue
            moved = []
            rest = comp
            while rest:  # highest bit first: the mask narrows
                v = rest.bit_length() - 1
                rest ^= 1 << v
                for s in holding[v]:
                    if owner[s] == mark:
                        owner[s] = lists
                        moved.append(s)
            moved.sort()
            stack.append((kmask | comp, moved, 0, lists, mine))
            lists += 1
    return tuple(groups), tuple(edges), tuple(used)


def _separated_components(masks, rest, kmask):
    """The components of the subgraph on `rest`, as bitmasks in order of
    least vertex. Every component must hold a neighbour of `kmask`.

    Lockstep searches (Even and Shiloach, "An on-line edge-deletion
    problem", J. ACM 28(1), 1981): one per neighbour of the separator,
    each growing one level per round. A search that reaches a vertex of
    another takes it over (`owner` maps reached vertices to searches,
    `parent` is a union-find on them). A search that stops growing holds a
    component; once one is left growing, its component is the rest, by
    mask subtraction. So a split costs about the size of all but its
    largest component. `pending` ORs each vertex's mask in once, when it
    is reached.
    """
    seeds = 0
    k = kmask
    while k:
        b = k & -k
        seeds |= masks[b.bit_length() - 1]
        k ^= b
    seeds &= rest
    left = rest ^ seeds  # the vertices no search has reached
    owner = {}
    seen = []  # the vertices reached by each search
    pending = []  # the neighbours of each search's last level
    while seeds:
        b = seeds & -seeds
        v = b.bit_length() - 1
        owner[v] = len(seen)
        seen.append(b)
        pending.append(masks[v])
        seeds ^= b
    parent = list(range(len(seen)))

    def find(s):
        root = s
        while parent[root] != root:
            root = parent[root]
        while parent[s] != root:
            parent[s], s = root, parent[s]
        return root

    comps = []
    growing = list(parent)
    alive = len(growing)
    while alive > 1:
        after = []
        for s in growing:
            if parent[s] != s:  # taken over by another search
                continue
            grow = pending[s] & rest
            fresh = grow & left
            met = grow ^ fresh  # reached before, by s or by another search
            met ^= met & seen[s]
            nxt = 0
            if fresh:
                left ^= fresh
                seen[s] |= fresh
                while fresh:  # highest bit first: the mask narrows
                    v = fresh.bit_length() - 1
                    owner[v] = s
                    nxt |= masks[v]
                    fresh ^= 1 << v
            while met:  # every vertex of met belongs to another search
                t = find(owner[met.bit_length() - 1])
                parent[t] = s
                seen[s] |= seen[t]
                nxt |= pending[t]
                met ^= met & seen[t]
                alive -= 1
            pending[s] = nxt
            if nxt:
                after.append(s)
            else:
                comps.append(seen[s])
                alive -= 1
            if alive <= 1:
                break
        growing = after
    if alive:
        comps.append(rest ^ functools.reduce(operator.or_, comps, 0))
    comps.sort(key=lambda c: c & -c)
    return comps


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
    groups, edges = map(list, _split_tree(g)[:2])  # copies of the memo's
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
        edges.append((i, i, groups[i], v))
    return _build(g, *_contract(dict(enumerate(groups)),
                                dict(enumerate(_ordered_edges(edges)))))


def reduce(gog: GraphOfGroups) -> GraphOfGroups:
    """Contract non-loop edges whose group equals an endpoint group, lowest
    edge id first, until none remain; incident edges and loops are re-homed
    onto the surviving endpoint (see `_contract`). An edge without two
    ends among the node ids, or an id that two nodes or two edges share,
    raises DomainError."""
    groups = {}
    for n in gog.nodes:
        if n.id in groups:
            raise DomainError("node id %r is repeated" % (n.id,))
        groups[n.id] = n.group
    edges = {}
    for e in gog.edges:
        if len(e.ends) != 2 or not all(end in groups for end in e.ends):
            raise DomainError("edge %r has undefined endpoint" % (e.id,))
        if e.id in edges:
            raise DomainError("edge id %r is repeated" % (e.id,))
        edges[e.id] = (e.ends[0], e.ends[1], e.group, e.stable_letter)
    return _build(gog.base, *_contract(groups, edges))


def _contract(groups, edges):
    """`reduce` on plain data: `groups` maps node ids to groups, `edges`
    maps edge ids to (a, b, group, stable letter). Returns the surviving
    groups in id order and the surviving edges in id order, their ends
    renumbered to match, for `_build`.

    Node groups never change, so an edge can become contractible only when
    one of its endpoints is contracted away. A heap holds the contractible
    edge ids (each checked again when popped) and every node lists its
    non-loop edges, so a contraction revisits only the edges of the node
    it removes. An edge keeps its original ends; `home` follows a removed
    node to the node that absorbed it.
    """
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

    incident = {n: [] for n in groups}
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
    return out_groups, out_edges


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


# what a check may raise on a malformed decomposition, reported as failed
_CHECK_ERRORS = (RaagError, KeyError, IndexError, TypeError, ValueError)


def _check(name, results, fn):
    try:
        detail = fn()
    except _CHECK_ERRORS as exc:
        results.append(CheckResult(name, False, "check raised: %s" % exc))
        return
    results.append(CheckResult(name, detail == "", detail or ""))


def validate(gog: GraphOfGroups, abelian: bool = False) -> List[CheckResult]:
    """Structural checks; failures are reported, never raised.

    Checks: base-graph shape (tree, or tree with loops), group embeddings
    with stable letters that are vertices, node groups abelian or
    separator-free, edge groups disconnecting cliques (skipped for the
    degenerate one-vertex base), reducedness of non-loop edges, covering of
    all base vertices, and for abelian output the hanging vertex exclusion
    and the flexible flags.
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
        adjacent = {i: [] for i in idset}
        for e in tree_edges:
            a, b = e.ends
            adjacent[a].append(b)
            adjacent[b].append(a)
        order = [gog.nodes[0].id]  # breadth-first from the first node
        reach = set(order)
        for a in order:
            for b in adjacent[a]:
                if b not in reach:
                    reach.add(b)
                    order.append(b)
        if reach != idset:
            return "non-loop edges do not connect the nodes"
        return ""

    def embedding():
        # a group without a mask is no vertex subset, unless reading its
        # names raises, as `set` does here
        vs = set(base.vertices)
        node_masks, edge_masks = gog._masks
        for n, m in zip(gog.nodes, node_masks):
            if m is None and not set(n.group) <= vs:
                return "node %d group is not a vertex subset" % n.id
        for e, m in zip(gog.edges, edge_masks):
            if m is None and not set(e.group) <= vs:
                return "edge %d group is not a vertex subset" % e.id
            if e.stable_letter is not None and e.stable_letter not in vs:
                return "edge %d stable letter is not a vertex" % e.id
            for end in set(e.ends):
                if node_masks[gog._at(end)] & m != m:
                    return "edge %d group not inside node %d group" % (e.id, end)
        return ""

    def node_groups():
        masks = base.masks
        for n, m in zip(gog.nodes, gog._masks[0]):
            m = _table_mask(base, n.group, m)
            if _clique_mask(masks, m):
                continue
            if _splits(masks, m):
                return "node %d group induces a disconnected subgraph" % n.id
            if any(_clique_mask(masks, s) for s in _mcs_m(base, m)):
                return "node %d group is neither abelian nor separator-free" % n.id
        return ""

    def edge_groups():
        if len(base.vertices) == 1 or _certified(gog):
            return ""
        for e, m in zip(gog.edges, gog._masks[1]):
            m = _table_mask(base, e.group, m)
            if not _clique_mask(base.masks, m):
                return "edge %d group is not a clique" % e.id
            left = _full_mask(base) & ~m
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
        for n, m in zip(gog.nodes, gog._masks[0]):
            if n.flexible != _clique_mask(base.masks,
                                          _table_mask(base, n.group, m)):
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


def _table_mask(base, group, m):
    """`m`, the entry of `group` in `GraphOfGroups._masks`; where that is
    None, the error that converting the names of `group` raises."""
    return _vertex_mask(base, group) if m is None else m


def _certified(gog):
    """True when a tree decomposition shows at once that every edge group
    is a clique separator of the base; False, never an error, when it does
    not, also when a group or stable letter names no vertex of the base.

    The bags are the node groups and, per loop, its group plus its stable
    letter, hung off the loop's node. Every edge group must be a clique,
    and the bags, joined along the edges, a tree in which adjacent bags
    meet exactly in the edge group. Rooted at the first node, a bag's
    `new` vertices are those outside its parent edge's group: they must be
    disjoint across bags and cover the base, so that each vertex's bags
    form a subtree topped by its one `new` bag. Then a base edge lies
    inside some bag exactly when it lies inside the top bag of one of its
    ends, so counting, per bag, the base edges inside it with an end new
    there must give every base edge. Last, both sides of each tree edge
    must keep a vertex outside its group: those new below it, and the rest
    but the group. Each edge group then separates the two (Tarjan,
    "Decomposition by clique separators", Discrete Math. 55, 1985; Leimer,
    "Optimal decomposition by clique separators", Discrete Math. 113,
    1993). Linear in the total bag size, in mask operations.
    """
    base = gog.base
    masks = base.masks
    node_masks, edge_masks = gog._masks
    if None in node_masks or None in edge_masks:
        return False  # names outside the base or no names at all
    bags = list(node_masks)
    links = [[] for _ in bags]  # per bag: (neighbour bag, edge group)
    try:
        at = gog._by_id
        for e, group in zip(gog.edges, edge_masks):
            a, b = at[e.ends[0]], at[e.ends[1]]
            if not _clique_mask(masks, group):
                return False
            if a == b:
                b = len(bags)
                bags.append(group | 1 << base.index(e.stable_letter))
                links.append([])
            links[a].append((b, group))
            links[b].append((a, group))
    except (DomainError, KeyError, TypeError, IndexError):
        return False  # undefined ends, stable letters outside the base
    if len(at) != len(gog.nodes) or len(gog.edges) != len(bags) - 1:
        return False
    up = [None] * len(bags)  # per bag: (parent bag, edge group)
    up[0] = (None, 0)
    order = [0]
    for x in order:
        for y, group in links[x]:
            if up[y] is None:
                up[y] = (x, group)
                order.append(y)
    if len(order) != len(bags):
        return False
    n = len(base.vertices)
    covered = 0
    inside = 0  # twice the base edges counted at their bags
    below = [0] * len(bags)  # the count of new vertices, then of a subtree's
    for x in order:
        p, group = up[x]
        bag = bags[x]
        if p is not None and bags[p] & bag != group:
            return False
        new = bag ^ group
        if covered & new:
            return False
        covered |= new
        below[x] = new.bit_count()
        for v in _names(range(n), new):
            inside += 2 * (masks[v] & bag).bit_count() \
                - (masks[v] & new).bit_count()
    if covered != _full_mask(base) or inside != 2 * _edge_count(masks):
        return False
    for x in reversed(order[1:]):
        p, group = up[x]
        if not below[x] or below[x] + group.bit_count() >= n:
            return False
        below[p] += below[x]
    return True


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
    rel, abe = relative_jsj(g), abelian_jsj(g)
    checks = tuple(
        [replace(c, name="relative:" + c.name) for c in validate(rel)]
        + [replace(c, name="abelian:" + c.name) for c in validate(abe, abelian=True)])
    bad = [c for c in checks if not c.passed]
    if bad:
        raise InvariantViolationError(
            "validation failed: " + "; ".join("%s (%s)" % (c.name, c.detail) for c in bad))
    return JsjReport(g, rel, abe, hanging_vertices(g), _split_tree(g)[2], checks)

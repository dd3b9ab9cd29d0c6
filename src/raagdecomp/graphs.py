"""Finite simplicial graphs and the combinatorics read off them.

A graph here is the defining data of a right-angled Artin group: vertices
are generators, edges are commuting pairs. Everything downstream (normal
forms, centralizers, splittings) consumes the operations in this module.

Vertex sets are passed around as canonically sorted tuples of vertex names;
the sorted name order is also the total order used for every tie-break in
the package. Component lists and factor lists are sorted by their smallest
member.

>>> g = parse_graph('{"vertices": ["a", "b", "c", "d"], '
...                 '"edges": [["a", "b"], ["b", "c"], ["c", "d"]]}')
>>> clique_separators(g)
[('b',), ('c',)]
>>> join_factors(g)
[('a', 'b', 'c', 'd')]
"""

import json
import re

from .errors import DomainError, GraphParseError, GraphValidationError


class SimplicialGraph:
    """Immutable finite simple graph with string-named vertices.

    Vertices are kept sorted; each edge is stored once as an ordered pair.
    Construction validates simplicity (no self-loops, no duplicate vertices,
    edge endpoints declared).
    """

    __slots__ = ("vertices", "edges", "_adj", "_index", "_masks")

    def __init__(self, vertices, edges):
        vs = list(vertices)
        for v in vs:
            if not isinstance(v, str) or not v:
                raise GraphValidationError("vertex names must be non-empty strings, got %r" % (v,))
        if len(set(vs)) != len(vs):
            dup = sorted(v for v in set(vs) if vs.count(v) > 1)
            raise GraphValidationError("duplicate vertex: %s" % ", ".join(dup))
        self.vertices = tuple(sorted(vs))
        vset = set(self.vertices)
        adj = {v: set() for v in self.vertices}
        norm = set()
        for e in edges:
            u, v = e
            if u not in vset:
                raise GraphValidationError("edge endpoint %r is not a declared vertex" % (u,))
            if v not in vset:
                raise GraphValidationError("edge endpoint %r is not a declared vertex" % (v,))
            if u == v:
                raise GraphValidationError("self-loop at vertex %r" % (u,))
            norm.add((u, v) if u < v else (v, u))
            adj[u].add(v)
            adj[v].add(u)
        self.edges = frozenset(norm)
        self._adj = {v: frozenset(s) for v, s in adj.items()}
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._masks = None

    def neighbors(self, v):
        try:
            return self._adj[v]
        except KeyError:
            raise DomainError("vertex %r is not in the graph" % (v,)) from None

    def adjacent(self, u, v):
        return v in self.neighbors(u)

    def index(self, v):
        try:
            return self._index[v]
        except KeyError:
            raise DomainError("vertex %r is not in the graph" % (v,)) from None

    @property
    def masks(self):
        # adjacency bitmasks in sorted-vertex order, for the kernels
        if self._masks is None:
            idx = self._index
            self._masks = tuple(
                sum(1 << idx[u] for u in self._adj[v]) for v in self.vertices)
        return self._masks

    def __eq__(self, other):
        if not isinstance(other, SimplicialGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return "SimplicialGraph(%d vertices, %d edges)" % (
            len(self.vertices), len(self.edges))


def _sorted_edges(g):
    return sorted(g.edges)


def parse_graph(text):
    """Parse a graph from canonical JSON or from the supported DOT subset.

    JSON form: {"vertices": [...], "edges": [["a", "b"], ...]}.
    DOT form: `graph Name? { a -- b; c; ... }` with identifier vertex names,
    `--` edge chains, and `//`, `#`, `/* */` comments.
    """
    stripped = text.lstrip()
    if not stripped:
        raise GraphParseError("empty input")
    if stripped[0] == "{":
        return _parse_json(text)
    return _parse_dot(text)


def _parse_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(
            "invalid JSON at line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg)
        ) from None
    if not isinstance(obj, dict):
        raise GraphParseError("top-level JSON value must be an object")
    for key in ("vertices", "edges"):
        if key not in obj:
            raise GraphParseError("missing %r key" % key)
        if not isinstance(obj[key], list):
            raise GraphParseError("%r must be a list" % key)
    for e in obj["edges"]:
        if not isinstance(e, list) or len(e) != 2:
            raise GraphParseError("each edge must be a two-element list, got %r" % (e,))
        if not all(isinstance(x, str) for x in e):
            raise GraphParseError("edge endpoints must be vertex name strings, got %r" % (e,))
    return SimplicialGraph(obj["vertices"], [tuple(e) for e in obj["edges"]])


_DOT_ID = re.compile(r"[A-Za-z0-9_]+\Z")


def _parse_dot(text):
    # strip comments
    body = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    body = re.sub(r"(//|#)[^\n]*", " ", body)
    m = re.match(r"\s*graph(\s+[A-Za-z0-9_]+)?\s*\{", body)
    if not m:
        raise GraphParseError("expected 'graph [name] {' header")
    close = body.rfind("}")
    if close < m.end():
        raise GraphParseError("missing closing '}'")
    trailer = body[close + 1:].strip()
    if trailer:
        raise GraphParseError("unexpected text after closing '}': %r" % trailer[:20])
    vertices = []
    edges = []
    seen = set()
    for stmt in re.split(r"[;\n]", body[m.end():close]):
        stmt = stmt.strip()
        if not stmt:
            continue
        names = [t.strip().strip('"') for t in stmt.split("--")]
        for name in names:
            if not _DOT_ID.match(name):
                raise GraphParseError("invalid DOT token %r" % (name,))
            if name not in seen:
                seen.add(name)
                vertices.append(name)
        for u, v in zip(names, names[1:]):
            edges.append((u, v))
    return SimplicialGraph(vertices, edges)


def serialize_graph(g):
    """Canonical single-line JSON form; parse(serialize(g)) == g, and
    serializing a parsed canonical string reproduces it byte for byte."""
    return json.dumps(
        {"vertices": list(g.vertices), "edges": [list(e) for e in _sorted_edges(g)]})


def graph_to_dot(g):
    lines = ["graph G {"]
    for v in g.vertices:
        lines.append("  %s;" % _dot_name(v))
    for u, v in _sorted_edges(g):
        lines.append("  %s -- %s;" % (_dot_name(u), _dot_name(v)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_name(name):
    return name if _DOT_ID.match(name) else '"%s"' % name.replace('"', '\\"')


def _vertex_set(g, s):
    out = frozenset(s)
    missing = sorted(v for v in out if v not in g._index)
    if missing:
        raise DomainError("not vertices of the graph: %s" % ", ".join(map(repr, missing)))
    return out


def induced_subgraph(g, s):
    """Full subgraph on the vertex set `s` (every edge of g inside s)."""
    s = _vertex_set(g, s)
    return SimplicialGraph(s, [e for e in g.edges if e[0] in s and e[1] in s])


def link(g, s):
    """Vertices outside `s` adjacent to every member of `s`.

    The empty set imposes no condition, so its link is all of the graph.

    >>> g = parse_graph("graph { a -- b; b -- c; c -- d }")
    >>> link(g, {"b"})
    ('a', 'c')
    >>> link(g, set())
    ('a', 'b', 'c', 'd')
    """
    s = _vertex_set(g, s)
    out = [v for v in g.vertices
           if v not in s and all(g.adjacent(v, u) for u in s)]
    return tuple(out)


def star(g, v):
    """`v` together with its link: the vertices commuting with `v`."""
    if v not in g._index:
        raise DomainError("vertex %r is not in the graph" % (v,))
    return tuple(sorted(set(g.neighbors(v)) | {v}))


def _components_within(g, sub):
    """Connected components of the full subgraph on `sub` (a set)."""
    sub = set(sub)
    comps = []
    while sub:
        root = min(sub)
        comp = {root}
        frontier = [root]
        while frontier:
            x = frontier.pop()
            for y in g.neighbors(x):
                if y in sub and y not in comp:
                    comp.add(y)
                    frontier.append(y)
        sub -= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def connected_components(g):
    """Components as sorted tuples, ordered by smallest member; these are
    the free factors of the group."""
    return [tuple(sorted(c)) for c in _components_within(g, g.vertices)]


def is_connected(g):
    return len(_components_within(g, g.vertices)) <= 1


def join_factors(g):
    """Partition of the vertices into the factors of the finest join
    decomposition: the components of the complement graph. A single factor
    means the group is directly indecomposable; several factors mean the
    group is the direct product of the corresponding standard subgroups.

    >>> join_factors(parse_graph("graph { a -- b; b -- c; a -- c }"))
    [('a',), ('b',), ('c',)]
    """
    rest = set(g.vertices)
    comps = []
    while rest:
        root = min(rest)
        comp = {root}
        frontier = [root]
        while frontier:
            x = frontier.pop()
            nonadj = rest - comp - g.neighbors(x)
            comp |= nonadj
            frontier.extend(nonadj)
        rest -= comp
        comps.append(tuple(sorted(comp)))
    return sorted(comps, key=lambda c: c[0])


def is_clique(g, s):
    """True when every two members of `s` are adjacent (so the standard
    subgroup on `s` is free abelian). Sets of size at most one count."""
    s = sorted(_vertex_set(g, s))
    return all(g.adjacent(u, v) for i, u in enumerate(s) for v in s[i + 1:])


def is_complete(g):
    return is_clique(g, g.vertices)


def _minimal_separators(g):
    """All minimal separators (vertex sets with at least two full components),
    by the component-neighborhood closure method: seed with neighborhoods of
    components left by deleting a closed neighborhood, then saturate by
    re-expanding each separator around each of its members."""
    vset = set(g.vertices)
    found = set()
    queue = []

    def push(candidates):
        for comp in candidates:
            s = frozenset().union(*(g.neighbors(x) for x in comp)) - comp
            if s and s not in found:
                found.add(s)
                queue.append(s)

    for v in g.vertices:
        push(_components_within(g, vset - set(g.neighbors(v)) - {v}))
    while queue:
        s = queue.pop()
        for x in sorted(s):
            push(_components_within(g, vset - s - set(g.neighbors(x))))
    return found


def clique_separators(g):
    """Inclusion-minimal cliques whose removal disconnects the graph, sorted
    by cardinality then lexicographically. Requires a connected graph; the
    empty graph yields an empty list.

    >>> clique_separators(parse_graph("graph { a -- b; b -- c; c -- d }"))
    [('b',), ('c',)]
    >>> clique_separators(parse_graph("graph { a -- b; b -- c; c -- a }"))
    []
    """
    if not g.vertices:
        return []
    if not is_connected(g):
        raise DomainError("clique_separators requires a connected graph; "
                          "split into components first")
    cliques = [s for s in _minimal_separators(g) if is_clique(g, s)]
    minimal = [s for s in cliques if not any(t < s for t in cliques)]
    return sorted((tuple(sorted(s)) for s in minimal), key=lambda t: (len(t), t))


def minimum_clique_separator(g):
    """Least clique separator under (cardinality, lexicographic) order, or
    None when the graph has no clique separator."""
    seps = clique_separators(g)
    return seps[0] if seps else None


def hanging_vertices(g):
    """Vertices whose star is a clique while no neighbor's star is one.

    These are the generators contributing loop edges to the abelian
    decomposition. In the one-vertex graph the lone vertex qualifies (its
    link is empty, so the neighbor condition is vacuous).
    """
    out = []
    for v in g.vertices:
        if not is_clique(g, star(g, v)):
            continue
        if all(not is_clique(g, star(g, w)) for w in g.neighbors(v)):
            out.append(v)
    return tuple(out)

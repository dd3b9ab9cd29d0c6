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
    DOT form: `graph Name? { a -- b; c; ... }` with `--` edge chains,
    statements ended by `;` or a newline, and `//`, `#`, `/* */` comments.
    A name is a bare identifier (letters, digits, `_`) or a double-quoted
    string in which `\\"` stands for `"` and `\\\\` for a backslash.
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

# one DOT token at a time: blanks and comments (skipped), a bare name, a
# double-quoted name, or one of the punctuation tokens
_DOT_LEX = re.compile(r"""
    [ \t\r\f\v]+ | //[^\n]* | \#[^\n]* | /\*.*?\*/
  | (?P<id>[A-Za-z0-9_]+)
  | "(?P<quoted>(?:[^"\\]|\\.)*)"
  | (?P<op>--|[;{}\n])
""", re.S | re.X)


def _dot_tokens(text):
    """Yield (kind, value) per token: kind "id" for a name (quotes removed,
    backslash escapes of '"' and '\\' resolved), otherwise the punctuation
    token itself ("--", ";", "{", "}" or a newline)."""
    pos = 0
    while pos < len(text):
        m = _DOT_LEX.match(text, pos)
        if m is None:
            if text.startswith('"', pos):
                raise GraphParseError("unterminated quoted name")
            if text.startswith("/*", pos):
                raise GraphParseError("unterminated comment")
            raise GraphParseError(
                "invalid DOT token %r" % text[pos:].split(None, 1)[0][:20])
        pos = m.end()
        if m.group("id") is not None:
            yield "id", m.group("id")
        elif m.group("quoted") is not None:
            yield "id", re.sub(r'\\(["\\])', r"\1", m.group("quoted"))
        elif m.group("op") is not None:
            yield m.group("op"), m.group("op")


def _parse_dot(text):
    tokens = _dot_tokens(text)

    def header_token():
        for kind, value in tokens:
            if kind != "\n":
                return kind, value
        return None, None

    header = header_token(), header_token()
    if header[1][0] == "id":  # the graph's name
        header = header[0], header_token()
    if header != (("id", "graph"), ("{", "{")):
        raise GraphParseError("expected 'graph [name] {' header")
    vertices = []
    edges = []
    seen = set()
    chain = []  # the names of the statement so far
    pending = False  # a '--' waits for the name on its right
    for kind, value in tokens:
        if kind == "id":
            if chain and not pending:
                raise GraphParseError(
                    "expected '--' or ';' after %r, got %r" % (chain[-1], value))
            if value not in seen:
                seen.add(value)
                vertices.append(value)
            if pending:
                edges.append((chain[-1], value))
            chain.append(value)
            pending = False
        elif kind == "--" and chain and not pending:
            pending = True
        elif kind in (";", "\n", "}") and not pending:
            chain = []
            if kind == "}":
                break
        else:
            raise GraphParseError("unexpected %r in DOT statement" % value)
    else:
        raise GraphParseError("missing closing '}'")
    for kind, value in tokens:
        if kind != "\n":
            raise GraphParseError(
                "unexpected text after closing '}': %r" % value[:20])
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
    if _DOT_ID.match(name):
        return name
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


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
    if not s:
        return g.vertices
    common = frozenset.intersection(*(g.neighbors(u) for u in s))
    return tuple(sorted(common - s))


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


def _mcs_m(g):
    """Higher neighbours in a minimal triangulation of `g`, by MCS-M.

    MCS-M (Berry, Blair, Heggernes and Peyton, Algorithmica 39, 2004)
    numbers the vertices from n down to 1, each time taking an unnumbered
    vertex z of largest weight. Every unnumbered u that z reaches through
    unnumbered vertices all lighter than u gains one weight and an edge to
    z in the triangulation H. The numbering is a perfect elimination
    order of H, which is a minimal triangulation of `g`. Returns, per
    vertex index, the indices of its H-neighbours numbered before it: its
    neighbours later in the elimination order. O(n * m) time.
    """
    idx = g._index
    adj = [[idx[u] for u in g._adj[v]] for v in g.vertices]
    weight = [0] * len(adj)
    numbered = [False] * len(adj)
    rest = list(range(len(adj)))
    later = [[] for _ in adj]
    while rest:
        z = max(rest, key=weight.__getitem__)
        rest.remove(z)
        numbered[z] = True
        # least, over the paths from z, of the weight of their heaviest
        # inner vertex; only a value below the largest weight can qualify
        top = max((weight[u] for u in rest), default=0)
        best = {}
        buckets = [[] for _ in range(top + 1)]
        for u in adj[z]:
            if not numbered[u]:
                best[u] = -1
                buckets[0].append(u)
        reached = []
        for b, bucket in enumerate(buckets):
            cost = b - 1
            while bucket:
                y = bucket.pop()
                if best[y] != cost:  # reached more cheaply since
                    continue
                if cost < weight[y]:
                    reached.append(y)
                c = max(cost, weight[y])
                if c >= top:
                    continue
                for x in adj[y]:
                    if not numbered[x] and best.get(x, top) > c:
                        best[x] = c
                        buckets[c + 1].append(x)
        for y in reached:
            weight[y] += 1
            later[y].append(z)
    return later


def clique_separator_candidates(g):
    """Disconnecting cliques of a connected graph, at most one per vertex,
    sorted by cardinality then lexicographically.

    The candidates are the sets of later neighbours of the vertices in an
    MCS-M minimal triangulation H (see `_mcs_m`) that are cliques of `g`
    and disconnect it. Every minimal separator of H is such a set, and the
    clique minimal separators of `g` are the minimal separators of H that
    are cliques of `g` (Berry, Pogorelcnik and Simonet, "An introduction
    to clique minimal separator decomposition", Algorithms 3(2), 2010), so
    the list holds every clique minimal separator of `g`. It also holds
    every clique minimal separator of each piece that splitting `g` along
    clique separators produces, since those are clique minimal separators
    of `g` as well.
    """
    vs = g.vertices
    vset = frozenset(vs)
    found = set()
    for later in _mcs_m(g):
        s = frozenset(vs[i] for i in later)
        if s and s not in found and is_clique(g, s) and \
                len(_components_within(g, vset - s)) >= 2:
            found.add(s)
    return sorted((tuple(sorted(s)) for s in found),
                  key=lambda t: (len(t), t))


def clique_separators(g):
    """Inclusion-minimal cliques whose removal disconnects the graph, sorted
    by cardinality then lexicographically. Requires a connected graph; the
    empty graph yields an empty list.

    Polynomial time: an MCS-M minimal triangulation (O(n * m)) yields at
    most n candidate sets, each checked for being a disconnecting clique
    (`clique_separator_candidates`); the inclusion-minimal candidates are
    the answer.

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
    cands = [frozenset(t) for t in clique_separator_candidates(g)]
    return [tuple(sorted(s)) for s in cands if not any(t < s for t in cands)]


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
    clique_star = {v: is_clique(g, star(g, v)) for v in g.vertices}
    return tuple(v for v in g.vertices if clique_star[v] and
                 not any(clique_star[w] for w in g.neighbors(v)))

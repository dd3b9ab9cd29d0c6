"""Finite simplicial graphs and the combinatorics read off them.

A graph here is the defining data of a right-angled Artin group: vertices
are generators, edges are commuting pairs. Everything downstream (normal
forms, centralizers, splittings) consumes the operations in this module.

Vertex sets are passed around as canonically sorted tuples of vertex names;
the sorted name order is also the total order used for every tie-break in
the package. Component lists and factor lists are sorted by their smallest
member. Component, clique and separator questions are answered on vertex
bitmasks, bit i standing for the i-th vertex in that order
(`SimplicialGraph.masks` holds each vertex's neighbours so).

>>> g = parse_graph('{"vertices": ["a", "b", "c", "d"], '
...                 '"edges": [["a", "b"], ["b", "c"], ["c", "d"]]}')
>>> clique_separators(g)
[('b',), ('c',)]
>>> join_factors(g)
[('a', 'b', 'c', 'd')]
"""

import functools
import json
import re

from .errors import DomainError, GraphParseError, GraphValidationError


_SURROGATE = re.compile("[\ud800-\udfff]")

# Most bits the masks of one graph may take (256 MB): a vertex's mask is as
# wide as its highest neighbour index, so a path in name order takes n^2 / 2.
MAX_MASK_BITS = 2 ** 31


class SimplicialGraph:
    """Immutable finite simple graph with string-named vertices.

    Vertices are kept sorted. `masks[i]` is the bitmask of the neighbours
    of the i-th vertex, bit j standing for the j-th: the graph's one
    adjacency, built with it, and what `==` and `hash` compare. `edges`,
    each edge once as a name pair in sorted order, is built on first read
    from the checked input pairs, not from the masks.
    `_memo` keeps, unmutated, what `_memoized` functions return for this
    object while it lives: the edge set, the word alphabet and letter
    table, MCS-M+ per vertex mask, the hanging vertices, the splitting
    tree; equal graphs built apart share none.
    Construction validates simplicity (no self-loops, no duplicate vertices,
    edge endpoints declared), that every name has a UTF-8 form, and that
    the masks fit in MAX_MASK_BITS bits, counted first (else DomainError).
    Each edge is checked once; vertices and edges may be one-shot iterables.
    """

    __slots__ = ("vertices", "masks", "_index", "_pairs", "_memo")

    def __init__(self, vertices, edges):
        vs = list(vertices)
        for v in vs:
            if not isinstance(v, str) or not v:
                raise GraphValidationError("vertex names must be non-empty strings, got %r" % (v,))
            if not v.isascii() and _SURROGATE.search(v):
                raise GraphValidationError(
                    "vertex name %r holds a lone surrogate, which has no UTF-8 form" % (v,))
        if len(set(vs)) != len(vs):
            dup = sorted(v for v in set(vs) if vs.count(v) > 1)
            raise GraphValidationError("duplicate vertex: %s" % ", ".join(dup))
        self.vertices = tuple(sorted(vs))
        idx = self._index = {v: i for i, v in enumerate(self.vertices)}
        get = idx.get
        pairs = self._pairs = []  # the index pair of each input edge
        for e in edges:
            try:
                u, v = e
                i, j = get(u), get(v)
            except (TypeError, ValueError):
                raise GraphValidationError(
                    "each edge must be a pair of vertex names, got %r" % (e,)) from None
            if i is None:
                raise GraphValidationError("edge endpoint %r is not a declared vertex" % (u,))
            if j is None:
                raise GraphValidationError("edge endpoint %r is not a declared vertex" % (v,))
            if i == j:
                raise GraphValidationError("self-loop at vertex %r" % (u,))
            pairs.append((i, j))
        n = len(vs)
        if n * n > MAX_MASK_BITS:  # else the masks cannot pass it
            top = [-1] * n  # highest neighbour of each vertex
            for i, j in pairs:
                top[i], top[j] = max(top[i], j), max(top[j], i)
            bits = sum(top) + n
            if bits > MAX_MASK_BITS:
                raise DomainError("adjacency masks would take %d bits, more "
                                  "than %d" % (bits, MAX_MASK_BITS))
        masks = [0] * n
        for i, j in pairs:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self.masks = tuple(masks)
        self._memo = {}

    @property
    def edges(self):
        return _edge_set(self)

    def neighbors(self, v):
        return frozenset(_names(self.vertices, self.masks[self.index(v)]))

    def adjacent(self, u, v):
        m = self.masks[self.index(u)]
        return v in self._index and m >> self._index[v] & 1 == 1

    def index(self, v):
        try:
            return self._index[v]
        except KeyError:
            raise DomainError("vertex %r is not in the graph" % (v,)) from None

    def __eq__(self, other):
        if not isinstance(other, SimplicialGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.masks == other.masks

    def __hash__(self):
        return hash((self.vertices, self.masks))

    def __repr__(self):
        return "SimplicialGraph(%d vertices, %d edges)" % (
            len(self.vertices), _edge_count(self.masks))


def _memoized(compute):
    """Run `compute(g, *args)` once per graph object and arguments."""
    @functools.wraps(compute)
    def once(g, *args):
        key = (compute.__name__, *args)
        if key not in g._memo:
            g._memo[key] = compute(g, *args)
        return g._memo[key]
    return once


@_memoized
def _edge_set(g):
    """`g.edges`: the input's name pairs, each in sorted order."""
    vs = g.vertices
    return frozenset((vs[i], vs[j]) if i < j else (vs[j], vs[i])
                     for i, j in g._pairs)


def _edge_count(masks):
    return sum(m.bit_count() for m in masks) // 2


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
    if stripped[0] in "{[":  # an array is JSON too, never DOT
        return _parse_json(text)
    return _parse_dot(text)


def _parse_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(
            "invalid JSON at line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg)
        ) from None
    except RecursionError:
        raise GraphParseError("JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise GraphParseError("top-level JSON value must be an object")
    for key in ("vertices", "edges"):
        if key not in obj:
            raise GraphParseError("missing %r key" % key)
        if not isinstance(obj[key], list):
            raise GraphParseError("%r must be a list" % key)
    for e in obj["edges"]:  # json.loads builds no subclasses: type tests are exact
        if type(e) is not list or len(e) != 2:
            raise GraphParseError("each edge must be a two-element list, got %r" % (e,))
        if type(e[0]) is not str or type(e[1]) is not str:
            raise GraphParseError("edge endpoints must be vertex name strings, got %r" % (e,))
    return SimplicialGraph(obj["vertices"], obj["edges"])


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
            # str.split knows more blanks (U+00A0, ...) than the lexer skips
            bad = text[pos] if text[pos].isspace() else text[pos:].split(None, 1)[0]
            raise GraphParseError("invalid DOT token %r" % bad[:20])
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
    return json.dumps({"vertices": list(g.vertices),
                       "edges": [list(e) for e in _sorted_edges(g, _full_mask(g))]})


def graph_to_dot(g):
    lines = ["graph G {"]
    for v in g.vertices:
        lines.append("  %s;" % _dot_name(v))
    for u, v in _sorted_edges(g, _full_mask(g)):
        lines.append("  %s -- %s;" % (_dot_name(u), _dot_name(v)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_name(name):
    if _DOT_ID.match(name):
        return name
    return '"%s"' % _dot_escape(name)


def _dot_escape(text):
    """`text` inside a double-quoted DOT string: `\\` and `"` escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def induced_subgraph(g, s):
    """Full subgraph on the vertex set `s` (every edge of g inside s)."""
    m = _vertex_mask(g, s)
    return SimplicialGraph(_names(g.vertices, m), _sorted_edges(g, m))


def _sorted_edges(g, m):
    """The edges of g inside the vertex mask `m` as name pairs, in sorted
    order: each once, from its lower end (-(2 << i) clears bits 0..i)."""
    vs, masks = g.vertices, g.masks
    return [(vs[i], v) for i in _names(range(len(vs)), m)
            for v in _names(vs, masks[i] & m & -(2 << i))]


def link(g, s):
    """Vertices outside `s` adjacent to every member of `s`.

    The empty set imposes no condition, so its link is all of the graph.

    >>> g = parse_graph("graph { a -- b; b -- c; c -- d }")
    >>> link(g, {"b"})
    ('a', 'c')
    >>> link(g, set())
    ('a', 'b', 'c', 'd')
    """
    common = _full_mask(g)  # no member's mask holds the member itself
    for i in _names(range(len(g.vertices)), _vertex_mask(g, s)):
        common &= g.masks[i]
    return _names(g.vertices, common)


def star(g, v):
    """`v` together with its link: the vertices commuting with `v`."""
    i = g.index(v)
    return _names(g.vertices, g.masks[i] | 1 << i)


def _vertex_mask(g, s):
    """Bitmask of the vertex set `s`: bit i stands for the i-th vertex in
    sorted order, as in `SimplicialGraph.masks`."""
    idx = g._index
    m = 0
    missing = set()
    for v in s:
        i = idx.get(v)
        if i is None:
            missing.add(v)
        else:
            m |= 1 << i
    if missing:
        raise DomainError("not vertices of the graph: %s"
                          % ", ".join(map(repr, sorted(missing))))
    return m


def _names(vs, m):
    """The names of the bits of `m`, in sorted order (with `range(n)` for
    `vs`, the bit indices); walks the set bits only, so a sparse mask costs
    its size, not the graph's."""
    out = []
    while m:
        b = m & -m
        out.append(vs[b.bit_length() - 1])
        m ^= b
    return tuple(out)


def _reach(masks, seed, allowed):
    """Bitmask of the component of the subgraph on `allowed` that holds
    the vertex `seed` (a single bit of `allowed`). Each reached vertex's
    neighbour mask is OR-ed in once, when it joins the frontier."""
    left = allowed ^ seed
    frontier = seed
    while frontier and left:
        grow = 0
        while frontier:  # highest bit first: the mask narrows
            v = frontier.bit_length() - 1
            grow |= masks[v]
            frontier ^= 1 << v
        frontier = grow & left
        left ^= frontier
    return allowed ^ left


def _splits(masks, allowed):
    """True when the subgraph on `allowed` has two or more components.
    Stops after the first component."""
    return bool(allowed) and _reach(masks, allowed & -allowed, allowed) != allowed


def _component_masks(masks, allowed):
    """Components of the subgraph on `allowed`, as bitmasks in order of
    least vertex."""
    comps = []
    while allowed:
        comp = _reach(masks, allowed & -allowed, allowed)
        comps.append(comp)
        allowed ^= comp
    return comps


def _clique_mask(masks, m):
    """True when the vertices of `m` are pairwise adjacent: each member's
    neighbours cover the other members. An AND costs the narrower operand,
    so a member with a wide mask costs only the width of `m`."""
    rest = m
    while rest:  # highest bit first: the mask narrows
        v = rest.bit_length() - 1
        b = 1 << v
        others = m ^ b
        if masks[v] & others != others:
            return False
        rest ^= b
    return True


def _full_mask(g):
    return (1 << len(g.vertices)) - 1


def connected_components(g):
    """Components as sorted tuples, ordered by smallest member; these are
    the free factors of the group."""
    vs = g.vertices
    return [_names(vs, c) for c in _component_masks(g.masks, _full_mask(g))]


def is_connected(g):
    return not _splits(g.masks, _full_mask(g))


def _join_masks(masks, allowed):
    """`join_factors` of the subgraph on `allowed`, as bitmasks. The
    complement is searched without being built: a frontier reaches the
    vertices outside the AND of its members' adjacency masks."""
    factors = []
    while allowed:
        left = allowed & (allowed - 1)  # all but the least vertex, the seed
        frontier = allowed ^ left
        while frontier and left:
            common = left  # the vertices adjacent to the whole frontier
            while frontier and common:  # highest bit first, as in _reach
                v = frontier.bit_length() - 1
                common &= masks[v]
                frontier ^= 1 << v
            frontier = left ^ common
            left = common
        factors.append(allowed ^ left)
        allowed = left
    return factors


def join_factors(g):
    """Partition of the vertices into the factors of the finest join
    decomposition: the components of the complement graph. A single factor
    means the group is directly indecomposable; several factors mean the
    group is the direct product of the corresponding standard subgroups.
    Factors come in order of least vertex.

    >>> join_factors(parse_graph("graph { a -- b; b -- c; a -- c }"))
    [('a',), ('b',), ('c',)]
    """
    return [_names(g.vertices, f) for f in _join_masks(g.masks, _full_mask(g))]


def is_clique(g, s):
    """True when every two members of `s` are adjacent (so the standard
    subgroup on `s` is free abelian). Sets of size at most one count."""
    return _clique_mask(g.masks, _vertex_mask(g, s))


def is_complete(g):
    return _clique_mask(g.masks, _full_mask(g))


@_memoized
def _mcs_m(g, allowed):
    """Minimal separators of a minimal triangulation of the subgraph on
    `allowed`, by MCS-M+.

    MCS-M (Berry, Blair, Heggernes and Peyton, Algorithmica 39, 2004)
    numbers the vertices from n down to 1, each time taking an unnumbered
    vertex z of largest weight. Every unnumbered u that z reaches through
    unnumbered vertices all lighter than u gains one weight and an edge to
    z in the triangulation H, a minimal triangulation of the subgraph.
    MCS-M+ (Berry, Pogorelcnik and Simonet, "An introduction to clique
    minimal separator decomposition", Algorithms 3(2), 2010) also marks z a
    generator when its weight is at most that of the vertex numbered just
    before it; the first vertex never is one. The minimal separators of H
    are the sets of H-neighbours numbered before the generators. Returns
    those sets as a tuple of bitmasks, one per generator, bits standing for
    vertex indices as in `g.masks`.

    Weights are kept only as level masks: level[w] holds the unnumbered
    vertices of weight w. For each z one search grows over the thresholds
    t = 0, 1, ...: `low` holds the unnumbered vertices lighter than t + 1
    that it has not reached, `near` the neighbours of z and of what it has
    reached. The vertices of `near & level[t]` are exactly the weight-t
    vertices that z raises, and they join the search before the next
    threshold. After the last threshold every raised vertex moves up one
    level. Numbering z costs a few mask operations per threshold and per
    reached vertex, whose mask is OR-ed in once.
    """
    masks = g.masks
    level = [allowed]
    top = 0  # the largest weight of an unnumbered vertex; 0 once none is left
    later = [0] * allowed.bit_length()
    generators = []
    last = -1  # the weight of the vertex numbered before z
    for _ in range(allowed.bit_count()):
        # the least index among the heaviest unnumbered vertices
        zbit = level[top] & -level[top]
        z = zbit.bit_length() - 1
        if top <= last:
            generators.append(z)
        last = top
        level[top] ^= zbit
        while top and not level[top]:
            top -= 1
        near = masks[z]
        low = 0
        raised = []
        for t in range(top + 1):
            up = near & level[t]
            raised.append(up)
            if t == top:
                break
            low |= level[t] ^ up
            frontier = up
            while frontier:
                grow = 0
                while frontier:  # highest bit first: the mask narrows
                    i = frontier.bit_length() - 1
                    grow |= masks[i]
                    frontier ^= 1 << i
                near |= grow
                frontier = grow & low
                low ^= frontier
        if raised[top] and top + 1 == len(level):
            level.append(0)
        for t in range(len(raised) - 1, -1, -1):
            up = raised[t]
            if up:
                level[t] ^= up
                level[t + 1] |= up
                while up:
                    i = up.bit_length() - 1
                    later[i] |= zbit
                    up ^= 1 << i
        if raised[top]:
            top += 1
    return tuple(later[z] for z in generators)


def _clique_minimal_separators(g):
    """The clique minimal separators of a connected graph, as (names,
    bitmask) pairs sorted by size, then by names.

    They are the minimal separators of a minimal triangulation that are
    cliques of `g` (Berry, Pogorelcnik and Simonet, 2010), so no search is
    needed: `_mcs_m` lists the minimal separators of its triangulation.
    """
    masks = g.masks
    found = {s for s in _mcs_m(g, _full_mask(g)) if _clique_mask(masks, s)}
    return sorted(((_names(g.vertices, s), s) for s in found),
                  key=lambda p: (len(p[0]), p[0]))


def clique_separators(g):
    """Inclusion-minimal cliques whose removal disconnects the graph, sorted
    by cardinality then lexicographically. Requires a connected graph; the
    empty graph yields an empty list.

    Polynomial time: an inclusion-minimal disconnecting clique is a clique
    minimal separator, and those come from one MCS-M+ run (O(n * m); see
    `_clique_minimal_separators`). A separator is kept unless a smaller
    kept one lies inside it.

    >>> clique_separators(parse_graph("graph { a -- b; b -- c; c -- d }"))
    [('b',), ('c',)]
    >>> clique_separators(parse_graph("graph { a -- b; b -- c; c -- a }"))
    []
    """
    if not is_connected(g):
        raise DomainError("clique_separators requires a connected graph; "
                          "split into components first")
    kept = []
    smaller = 0  # kept[:smaller] hold fewer vertices than k
    for k, s in _clique_minimal_separators(g):
        while smaller < len(kept) and len(kept[smaller][0]) < len(k):
            smaller += 1
        if not any(t & s == t for _, t in kept[:smaller]):
            kept.append((k, s))
    return [k for k, _ in kept]


def minimum_clique_separator(g):
    """Least clique separator under (cardinality, lexicographic) order, or
    None when the graph has no clique separator."""
    seps = clique_separators(g)
    return seps[0] if seps else None


@_memoized
def hanging_vertices(g):
    """Vertices whose star is a clique while no neighbor's star is one.

    These are the generators contributing loop edges to the abelian
    decomposition. In the one-vertex graph the lone vertex qualifies (its
    link is empty, so the neighbor condition is vacuous).
    """
    masks = g.masks
    clique_star = 0
    for i, m in enumerate(masks):
        if _clique_mask(masks, m | 1 << i):
            clique_star |= 1 << i
    return tuple(v for i, v in enumerate(g.vertices)
                 if clique_star >> i & 1 and not masks[i] & clique_star)

"""Brute-force oracles used to validate the production algorithms.

Everything here enumerates: subsets for separators and atoms,
breadth-first move closures for word equality, whole words for centralizer
balls. None of it shares logic with the production code paths; that
independence is the point. The centralizer ball runs a closure only for
the words that the subgroup rule of `commuting_words` leaves open, so its
verdicts too come from the closures and the group axioms alone.
All enumeration is guarded by an `OracleBudget`, and hitting a cap raises
`BudgetExceededError` naming the offending dimension.
"""

from bisect import bisect_left
from dataclasses import dataclass
import functools
from itertools import combinations
from typing import List, Optional

from . import kernels
from .errors import BudgetExceededError, DomainError
from .graphs import SimplicialGraph
from .words import NormalForm, Word, _decode, _same_graph


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 8
    max_word_length: int = 6
    max_states: int = 1_000_000


def _component_count(adj, sub):
    """Number of components of the full subgraph on the vertex set `sub`,
    by a search over vertex names; the production graph layer answers the
    same question on bitmasks, and the oracle must not share that code."""
    rest = set(sub)
    count = 0
    while rest:
        count += 1
        frontier = [rest.pop()]
        while frontier:
            for y in adj[frontier.pop()]:
                if y in rest:
                    rest.remove(y)
                    frontier.append(y)
    return count


def _is_clique(adj, s):
    """True when every two members of `s` are adjacent."""
    s = sorted(s)
    return all(v in adj[u] for i, u in enumerate(s) for v in s[i + 1:])


def _check_vertices(g, budget):
    if len(g.vertices) > budget.max_vertices:
        raise BudgetExceededError(
            "graph has %d vertices, budget allows %d"
            % (len(g.vertices), budget.max_vertices),
            dimension="max_vertices", consumed=len(g.vertices),
            limit=budget.max_vertices)


def _adjacency(g):
    """Neighbour sets by vertex name, off the edges, not the masks."""
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_clique_separators(g: SimplicialGraph, budget: Optional[OracleBudget] = None):
    """Inclusion-minimal disconnecting cliques by trying every subset."""
    budget = budget or OracleBudget()
    if not g.vertices:
        return []
    adj = _adjacency(g)
    if _component_count(adj, g.vertices) > 1:
        raise DomainError("brute_clique_separators requires a connected graph")
    _check_vertices(g, budget)
    vset = set(g.vertices)
    hits = []
    for size in range(len(g.vertices)):
        for comb in combinations(g.vertices, size):
            s = set(comb)
            if not _is_clique(adj, s):
                continue
            if _component_count(adj, vset - s) >= 2:
                hits.append(frozenset(s))
    minimal = [s for s in hits if not any(t < s for t in hits)]
    return sorted((tuple(sorted(s)) for s in minimal), key=lambda t: (len(t), t))


def brute_atoms(g: SimplicialGraph, budget: Optional[OracleBudget] = None):
    """The atoms of `g`, sorted: the maximal vertex sets that induce a
    connected subgraph with no clique separator, each listed once.

    By Leimer ("Optimal decomposition by clique separators", Discrete
    Math. 113, 1993) the atoms of a connected graph are the node groups of
    its decomposition by clique separators. Tries every subset, largest
    first, and every clique inside it as a separator.
    """
    budget = budget or OracleBudget()
    _check_vertices(g, budget)
    adj = _adjacency(g)
    atoms = []
    for size in range(len(g.vertices), 0, -1):
        for comb in combinations(g.vertices, size):
            s = set(comb)
            if any(s <= a for a in atoms) or _component_count(adj, s) != 1:
                continue
            if not any(_is_clique(adj, c)
                       and _component_count(adj, s - set(c)) > 1
                       for k in range(1, size - 1)
                       for c in combinations(comb, k)):
                atoms.append(s)
    return sorted(tuple(sorted(a)) for a in atoms)


def _byte_codes(g, w) -> bytes:
    if len(g.vertices) > 128:
        raise DomainError("the closures hold one byte per letter, so at most "
                          "128 generators; this graph has %d" % len(g.vertices))
    return bytes(w._codes)


def bfs_equal(w1: Word, w2: Word, budget: Optional[OracleBudget] = None) -> bool:
    """Equality by breadth-first closure under the two elementary moves
    (swap adjacent commuting letters, delete an adjacent inverse pair):
    the closures of equal words meet, those of distinct words never do."""
    budget = budget or OracleBudget()
    _same_graph(w1, w2)
    combined = len(w1._codes) + len(w2._codes)
    if combined > 2 * budget.max_word_length:
        raise BudgetExceededError(
            "combined word length %d exceeds 2*max_word_length=%d"
            % (combined, 2 * budget.max_word_length),
            dimension="max_word_length", consumed=combined,
            limit=2 * budget.max_word_length)
    g = w1.graph
    a, b = _byte_codes(g, w1), _byte_codes(g, w2)
    return kernels.closure_equal(a, b, g.masks, budget.max_states)


@functools.lru_cache(maxsize=32)
def _balls(g: SimplicialGraph, max_states: int):
    """The balls of `g` grown so far, indexed by radius; `_enumerated_ball`
    appends to it. Cached per (graph, state cap)."""
    return [(b"",)]


def _enumerated_ball(g: SimplicialGraph, max_len: int, max_states: int):
    """All canonical words of length <= max_len, sorted shortlex.

    Grown one radius at a time: the radius-r ball is the radius-(r - 1)
    ball plus each of its longest words extended by one letter, a candidate
    kept exactly when the breadth-first closure confirms it is its own
    shortlex-least geodesic. The extensions of a sorted level, taken in
    letter order, come out sorted. Each radius is grown once per (graph,
    state cap) and reused by every larger one. A candidate's closure that
    exceeds the cap raises, whatever order the candidates are tried in,
    and leaves the radii already grown in place.
    """
    balls = _balls(g, max_states)
    if max_len < len(balls):
        return balls[max_len]
    masks = g.masks
    letters = [bytes((x,)) for x in range(2 * len(g.vertices))]
    # what may follow the letter y in a canonical word: neither y's
    # inverse nor a smaller letter that commutes with y
    follow = [[x for x in letters if x[0] != y ^ 1
               and not (x[0] < y and (masks[y >> 1] >> (x[0] >> 1)) & 1)]
              for y in range(len(letters))]
    while len(balls) <= max_len:
        inner = balls[-1]
        out = list(inner)
        for prefix in inner[bisect_left(inner, len(balls) - 1, key=len):]:
            for x in follow[prefix[-1]] if prefix else letters:
                cand = prefix + x
                if kernels.closure_canonical(cand, masks, max_states) == cand:
                    out.append(cand)
        balls.append(tuple(out))
    return balls[max_len]


def commuting_words(g: SimplicialGraph, w: Word, max_len: int,
                    budget: Optional[OracleBudget] = None) -> List[NormalForm]:
    """Every canonical word u with length <= max_len and u*w = w*u, sorted
    shortlex. The radius `max_len` must be an int >= 0 (else DomainError,
    before any budget check).

    The words commuting with w form a subgroup, so when one part of a split
    u = a*b commutes with w, u commutes exactly when the other part does;
    the closure oracle decides only the words with no such split (the empty
    word and single letters among them). For the same reason u^-1 commutes
    exactly when u does: when a closure finds that u does not, u^-1 is
    marked as not commuting and gets no closure of its own. Its canonical
    form is the closure-least spelling of u's reversed, inverted letters,
    whose closure is u's with every word reversed and inverted; u's closure
    fits inside that of u*w, which the call that said False walked in full
    within the state cap, so this closure never exceeds it. A skipped
    closure adds no refusal, though one may answer where the closure it
    skips would have exceeded the cap. No production code is used."""
    budget = budget or OracleBudget()
    if w.graph != g:
        raise DomainError("word does not live over the given graph")
    if not isinstance(max_len, int) or max_len < 0:
        raise DomainError("radius must be an int >= 0, got %r" % (max_len,))
    _check_vertices(g, budget)
    if max_len + len(w._codes) > budget.max_word_length:
        raise BudgetExceededError(
            "radius %d plus word length %d exceeds max_word_length=%d"
            % (max_len, len(w._codes), budget.max_word_length),
            dimension="max_word_length", consumed=max_len + len(w._codes),
            limit=budget.max_word_length)
    masks = g.masks
    cap = budget.max_states
    wc = _byte_codes(g, w)
    inside = {}
    out = []
    for u in _enumerated_ball(g, max_len, cap):
        hit = inside.get(u)
        if hit is None:
            # the ball is factor-closed and shortlex sorted, so both parts
            # of every split of u are already decided
            for k in range(1, len(u)):
                a, b = inside[u[:k]], inside[u[k:]]
                if a or b:
                    hit = a and b
                    break
            else:
                hit = kernels.closure_equal(u + wc, wc + u, masks, cap)
                if not hit:
                    inv = bytes(x ^ 1 for x in reversed(u))
                    inside[kernels.closure_canonical(inv, masks, cap)] = False
            inside[u] = hit
        if hit:
            out.append(NormalForm(g, _decode(g, u)))
    return out


def exhaustive_graphs(n: int):
    """Stream of all labeled simple graphs on the first n canonical vertex
    names (a, b, c, ...), in edge-bitmask order."""
    if n < 0:
        raise DomainError("vertex count must be non-negative")
    if n > 7:
        raise BudgetExceededError(
            "exhaustive enumeration is capped at 7 vertices, got %d" % n,
            dimension="n", consumed=n, limit=7)
    names = tuple("abcdefg"[:n])
    pairs = list(combinations(names, 2))
    for bits in range(1 << len(pairs)):
        yield SimplicialGraph(
            names, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])

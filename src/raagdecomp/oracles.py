"""Brute-force oracles used to validate the production algorithms.

Everything here enumerates: subsets for separators and atoms,
breadth-first move closures for word equality, whole words for centralizer
balls. None of it shares logic with the production code paths; that
independence is the point. The centralizer ball runs a closure only for
the words that the subgroup rule of `commuting_words` leaves open, so its
verdicts too come from the closures and the group axioms alone. A rigid
word, one where no two adjacent letters cancel or commute, admits no move
and is its own closure: the oracles decide it by its letters, with no
closure call, which can change no refusal since such a closure adds no
state.
Before any closure, `bfs_equal`, `commuting_words` and
`brute_primitive_root` ask `_apart` whether a retraction tells the two
words apart. Killing every generator off a vertex set is a homomorphism
of G onto the standard subgroup on that set (Part 1 of the paper rests on
these retracts); on two non-adjacent generators that subgroup is free of
rank 2, where free reduction decides equality, and the exponent sums are
the image in the free abelian group on the vertices. So words with
different images are unequal, and only an "equal" verdict is left to a
closure. `_apart` does its own free reduction and raises nothing: it
never adds a refusal, though it may answer where the closure it skips
would have exceeded `max_states`. Every `max_states` refusal of a
`closure_equal` under a cap c carries `consumed = max(c, 2) + 1` and the
same text, so a refusal reached through another closure looks the same.
Answers are built from the letter codes the oracles already hold, through
`words._built`, which holds no logic: no letter is decoded or encoded, and
the public `NormalForm` constructor, which would canonicalize, is not run.
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
from .words import NormalForm, Word, _built, _same_graph


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


@functools.lru_cache(maxsize=32)
def _moves(masks):
    """`moves[x][y]` is 1 when the adjacent letters x y admit an
    elementary move (they cancel, or they are distinct commuting
    generators) and 0 when not: one bytes row per letter, cached per
    `masks` tuple. Adjacency is symmetric, so the table is too."""
    size = 2 * len(masks)
    return tuple(bytes(x == y ^ 1 or (masks[x >> 1] >> (y >> 1)) & 1
                       for y in range(size)) for x in range(size))


def _rigid(moves, s) -> bool:
    """True when `s` is rigid: no adjacent pair of it admits a move, so
    its closure is s alone and s is its own canonical form."""
    return not any(moves[x][y] for x, y in zip(s, s[1:]))


@functools.lru_cache(maxsize=32)
def _retractions(masks):
    """The retractions `_apart` compares, per `masks` tuple: the code of
    each generator adjacent to every other, and for each pair of
    non-adjacent generators the bytes of every letter code off the pair,
    whose deletion retracts G onto the pair's standard subgroup, a free
    group of rank 2. A generator with a non-adjacent partner has its
    exponent sum read by that pair's image, so only the others need it.
    One entry per non-adjacent pair: the oracles' graphs are small."""
    n = len(masks)
    every = bytes(range(2 * n))
    full = (1 << n) - 1
    central = tuple(2 * i for i in range(n) if masks[i] | 1 << i == full)
    drops = tuple(every.translate(None, bytes((2 * i, 2 * i + 1,
                                               2 * j, 2 * j + 1)))
                  for i in range(n) for j in range(i + 1, n)
                  if not masks[i] >> j & 1)
    return central, drops


def _freely_reduced(s) -> bytearray:
    """`s` with adjacent inverse letters cancelled until none are left."""
    out = bytearray()
    for x in s:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return out


def _apart(retractions, a: bytes, b: bytes) -> bool:
    """True when a retraction tells the words `a` and `b` apart, so they
    are unequal: their exponent sums differ on some generator (the image
    in the free abelian group on the vertices), or their freely reduced
    images differ on some pair of non-adjacent generators, every other
    letter deleted. Killing generators is a homomorphism of G onto the
    standard subgroup of the rest, and free reduction decides equality in
    a free group, so words called apart are never equal; False decides
    nothing. Reads `_retractions(masks)`; no closure, so no refusal."""
    central, drops = retractions
    for x in central:
        if a.count(x) - a.count(x + 1) != b.count(x) - b.count(x + 1):
            return True
    for drop in drops:
        ra, rb = a.translate(None, drop), b.translate(None, drop)
        if ra != rb and _freely_reduced(ra) != _freely_reduced(rb):
            return True
    return False


def bfs_equal(w1: Word, w2: Word, budget: Optional[OracleBudget] = None) -> bool:
    """Equality by breadth-first closure under the two elementary moves
    (swap adjacent commuting letters, delete an adjacent inverse pair):
    the closures of equal words meet, those of distinct words never do.
    Two rigid words (no move applies to either) are their own closures,
    so they are equal exactly when their letters are, and get no closure
    call; a one-word closure holds no state beyond its start, so the
    call skipped could not have exceeded `max_states`. Words that a
    retraction tells apart (`_apart`: exponent sums, or the free images on
    a non-adjacent pair) are unequal, as retractions are homomorphisms,
    and get no closure either; that adds no refusal, but may answer where
    the closure would have exceeded `max_states`."""
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
    moves = _moves(g.masks)
    if _rigid(moves, a) and _rigid(moves, b):
        return a == b
    if _apart(_retractions(g.masks), a, b):
        return False
    return kernels.closure_equal(a, b, g.masks, budget.max_states)


@functools.lru_cache(maxsize=32)
def _balls(g: SimplicialGraph, max_states: int):
    """The balls of `g` grown so far, indexed by radius, and a rigid flag
    for each word of the largest; `_grown_ball` appends to both. Each ball
    starts with the one before it, so the flags serve every radius.
    Cached per (graph, state cap), the flags evicted with the balls."""
    return [(b"",)], bytearray(b"\x01")


def _enumerated_ball(g: SimplicialGraph, max_len: int, max_states: int):
    """All canonical words of length <= max_len, sorted shortlex.

    Grown one radius at a time: the radius-r ball is the radius-(r - 1)
    ball plus each of its longest words extended by one letter, a candidate
    kept exactly when the breadth-first closure confirms it is its own
    shortlex-least geodesic. The extensions of a sorted level, taken in
    letter order, come out sorted. A rigid candidate, one that no move
    applies to, is its own closure and so kept with no closure call: it
    is rigid when its prefix is and its last two letters neither cancel
    nor commute. Each radius is grown once per (graph, state cap) and
    reused by every larger one. A candidate's closure that exceeds the
    cap raises, whatever order the candidates are tried in, and leaves the
    radii already grown in place; a rigid candidate's closure holds one
    word, never more than the cap, so skipping it changes no refusal.
    """
    return _grown_ball(g, max_len, max_states)[0]


def _grown_ball(g: SimplicialGraph, max_len: int, max_states: int):
    """`_enumerated_ball(g, max_len, max_states)` and the rigid flags: the
    i-th byte is 1 when the ball's i-th word is rigid, and the flags may
    run past the ball."""
    levels, rigid = _balls(g, max_states)
    if max_len < len(levels):
        return levels[max_len], rigid
    masks = g.masks
    moves = _moves(masks)
    # what may follow the letter y in a canonical word, neither y's
    # inverse nor a smaller letter that commutes with y, each with 1 when
    # the pair y x admits a move; a single letter is rigid
    follow = [[(bytes((x,)), row[x]) for x in range(len(row))
               if x != y ^ 1 and not (x < y and row[x])]
              for y, row in enumerate(moves)]
    first = [(bytes((x,)), 0) for x in range(len(moves))]
    while len(levels) <= max_len:
        inner = levels[-1]
        out = list(inner)
        flags = bytearray()
        start = bisect_left(inner, len(levels) - 1, key=len)
        for prefix, rig in zip(inner[start:], rigid[start:]):
            for x, move in follow[prefix[-1]] if prefix else first:
                cand = prefix + x
                if rig and not move:
                    out.append(cand)
                    flags.append(1)
                elif kernels.closure_canonical(cand, masks, max_states) == cand:
                    out.append(cand)
                    flags.append(0)
        levels.append(tuple(out))
        rigid += flags
    return levels[max_len], rigid


def commuting_words(g: SimplicialGraph, w: Word, max_len: int,
                    budget: Optional[OracleBudget] = None) -> List[NormalForm]:
    """Every canonical word u with length <= max_len and u*w = w*u, sorted
    shortlex. The radius `max_len` must be an int >= 0 (else DomainError,
    before any budget check).

    The words commuting with w form a subgroup, so when one part of a split
    u = a*b commutes with w, u commutes exactly when the other part does;
    the closure oracle decides only the words with no such split (single
    letters among them; the empty word, the identity, commutes with
    every w).

    Before any closure, `_apart` compares u*w with w*u under the
    retractions onto free pairs of non-adjacent generators: these are
    homomorphisms, so when the images differ u does not commute with w.
    Only the words it cannot separate go to `closure_equal`.

    For the same reason as the splits, u^-1 commutes exactly when u does.
    When a closure finds that u does not, u^-1 is marked as not commuting
    and gets no closure of its own. Its canonical form is the
    closure-least spelling of u's reversed, inverted letters, whose closure
    is u's with every word reversed and inverted; u's closure fits inside
    that of u*w, which that closure, having said False, walked in full
    within the state cap, so this closure never exceeds it. A verdict that
    `_apart` gave walked nothing, so it marks u^-1 only when u is rigid
    (below), where the inverse costs nothing; otherwise u^-1's canonical
    form meets `_apart` in turn, and its images are the inverses of u's,
    so it is told apart the same way with no closure. A skipped closure
    adds no refusal, though one may answer where the closure it skips
    would have exceeded the cap; every `closure_equal` refusal under one
    cap carries the same text and `consumed` value, whichever call
    reached it.

    Rigid words, those no move applies to, are their own closures and get
    no closure call: when u and w are rigid and the letters meeting at
    both junctions neither cancel nor commute, u*w and w*u are rigid, so
    u commutes exactly when they are the same letters; and a rigid u's
    reversed, inverted spelling is rigid, its own canonical form. A
    one-word closure adds no state, so these skipped calls could never
    have exceeded `max_states`: answers and refusals are as with the
    calls. No production code is used."""
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
    moves = _moves(masks)
    # head[x] / tail[x]: whether w's first / last letter and x admit a
    # move, or 1 for every x when w itself is not rigid
    if not wc:
        head = tail = bytes(len(moves))
    elif _rigid(moves, wc):
        head, tail = moves[wc[0]], moves[wc[-1]]
    else:
        head = tail = b"\x01" * len(moves)
    retractions = _retractions(masks)
    ball, rigid = _grown_ball(g, max_len, cap)
    inside = {b"": True}  # the identity commutes with everything
    out = []
    for u, rig in zip(ball, rigid):
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
                uw, wu = u + wc, wc + u
                walked = False
                if rig and not (head[u[-1]] or tail[u[0]]):
                    hit = uw == wu
                elif _apart(retractions, uw, wu):
                    hit = False
                else:
                    hit = kernels.closure_equal(uw, wu, masks, cap)
                    walked = True
                if not hit and (rig or walked):
                    inv = bytes(x ^ 1 for x in reversed(u))
                    if not rig:
                        inv = kernels.closure_canonical(inv, masks, cap)
                    inside[inv] = False
            inside[u] = hit
        if hit:
            out.append(_built(NormalForm, g, tuple(u)))
    return out


def _exponents(g: SimplicialGraph, codes):
    """Net exponent of each generator in `codes`: the word's image in the
    free abelian group on the vertices."""
    out = [0] * len(g.vertices)
    for x in codes:
        out[x >> 1] += -1 if x & 1 else 1
    return tuple(out)


@functools.lru_cache(maxsize=32)
def _ball_level(g: SimplicialGraph, length: int, max_states: int):
    """The canonical words u of exactly `length` letters, shortlex sorted
    and grouped by their net exponents, each paired with whether its
    powers u^k, k >= 1, are rigid: u is, and its last letter and its first
    admit no move."""
    ball, rigid = _grown_ball(g, length, max_states)
    moves = _moves(g.masks)
    out = {}
    start = bisect_left(ball, length, key=len)
    for u, rig in zip(ball[start:], rigid[start:]):
        out.setdefault(_exponents(g, u), []).append(
            (u, rig and not moves[u[-1]][u[0]]))
    return out


def brute_primitive_root(w: Word, budget: Optional[OracleBudget] = None):
    """(root, k) with w = root^k and k largest, for a nontrivial cyclically
    reduced w whose support is not a join (unchecked), by trying every
    canonical word as the root.

    The closure-least spelling of w has n letters. For each divisor k >= 2
    of n, from the largest down, the canonical words u of exactly n/k
    letters in the ball are tried in shortlex order, and the first whose
    k-th power the closure finds equal to w is the root: the k found is
    the largest, and roots are unique, so the first hit is the root's
    canonical form. Only the words whose net exponents, times k, are w's
    get a closure: abelianizing is a homomorphism, so it sends u^k and w
    to one point when they are equal. Inside that group, a u^k that a
    retraction onto a free pair of non-adjacent generators tells apart
    from w (`_apart`) is not w and gets no closure either: no refusal is
    added, though one may answer where a skipped closure would have
    exceeded `max_states`, and a refusal that a later closure reaches
    carries the same text and `consumed` value. When no k works, w is its
    own root with k = 1. A rigid spelling of w, one no move applies to, is
    its own closure-least spelling, and when u^k is rigid too the two are
    equal exactly when their letters are: neither gets a closure call, and
    as a one-word closure never exceeds `max_states`, no refusal changes.
    No production code is used.
    """
    budget = budget or OracleBudget()
    g = w.graph
    _check_vertices(g, budget)
    if len(w._codes) > budget.max_word_length:
        raise BudgetExceededError(
            "word length %d exceeds max_word_length=%d"
            % (len(w._codes), budget.max_word_length),
            dimension="max_word_length", consumed=len(w._codes),
            limit=budget.max_word_length)
    masks = g.masks
    cap = budget.max_states
    wc = _byte_codes(g, w)
    w_rigid = _rigid(_moves(masks), wc)
    if not w_rigid:
        wc = kernels.closure_canonical(wc, masks, cap)
    n = len(wc)
    if not n:
        raise DomainError("brute_primitive_root requires a nontrivial word")
    target = _exponents(g, wc)
    retractions = _retractions(masks)
    for k in range(n, 1, -1):
        if n % k or any(e % k for e in target):
            continue
        level = _ball_level(g, n // k, cap)
        for u, powers_rigid in level.get(tuple(e // k for e in target), ()):
            if w_rigid and powers_rigid:
                hit = u * k == wc
            else:
                hit = (not _apart(retractions, u * k, wc)
                       and kernels.closure_equal(u * k, wc, masks, cap))
            if hit:
                return _built(NormalForm, g, tuple(u)), k
    return _built(NormalForm, g, tuple(wc)), 1


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

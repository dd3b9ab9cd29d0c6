"""Brute-force oracles used to validate the production algorithms.

Everything here enumerates: subsets for separators, breadth-first move
closures for word equality, whole words for centralizer balls. None of it
shares logic with the production code paths; that independence is the point.
All enumeration is guarded by an `OracleBudget`, and hitting a cap raises
`BudgetExceededError` naming the offending dimension.
"""

from collections import OrderedDict
from dataclasses import dataclass
from itertools import combinations
import os
from typing import List, Optional

from . import kernels
from .errors import BudgetExceededError, DomainError
from .graphs import SimplicialGraph, _components_within, is_clique, is_connected
from .words import NormalForm, Word, _decode, _encode, _same_graph

_ENV_VAR = "RAAGDECOMP_ORACLE_BUDGET"


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 8
    max_word_length: int = 6
    max_states: int = 1_000_000

    @classmethod
    def from_env(cls) -> "OracleBudget":
        """Budget from RAAGDECOMP_ORACLE_BUDGET, e.g.
        "max_vertices=8,max_word_length=6,max_states=1000000" (test builds)."""
        raw = os.environ.get(_ENV_VAR, "").strip()
        values = {}
        if raw:
            for item in raw.split(","):
                key, _, val = item.partition("=")
                key = key.strip()
                if key not in cls.__dataclass_fields__:
                    raise DomainError("unknown budget field %r in %s" % (key, _ENV_VAR))
                try:
                    values[key] = int(val)
                except ValueError:
                    raise DomainError(
                        "budget field %r in %s is not an integer" % (key, _ENV_VAR)
                    ) from None
        return cls(**values)


def default_budget() -> OracleBudget:
    return OracleBudget.from_env()


def brute_clique_separators(g: SimplicialGraph, budget: Optional[OracleBudget] = None):
    """Inclusion-minimal disconnecting cliques by trying every subset."""
    budget = budget or default_budget()
    if not g.vertices:
        return []
    if not is_connected(g):
        raise DomainError("brute_clique_separators requires a connected graph")
    if len(g.vertices) > budget.max_vertices:
        raise BudgetExceededError(
            "graph has %d vertices, budget allows %d"
            % (len(g.vertices), budget.max_vertices),
            dimension="max_vertices", consumed=len(g.vertices),
            limit=budget.max_vertices)
    vset = set(g.vertices)
    hits = []
    for size in range(len(g.vertices)):
        for comb in combinations(g.vertices, size):
            s = set(comb)
            if not is_clique(g, s):
                continue
            if len(_components_within(g, vset - s)) >= 2:
                hits.append(frozenset(s))
    minimal = [s for s in hits if not any(t < s for t in hits)]
    return sorted((tuple(sorted(s)) for s in minimal), key=lambda t: (len(t), t))


def bfs_equal(w1: Word, w2: Word, budget: Optional[OracleBudget] = None) -> bool:
    """Equality by breadth-first closure under the two elementary moves
    (swap adjacent commuting letters, delete an adjacent inverse pair):
    the closures of equal words meet, those of distinct words never do."""
    budget = budget or default_budget()
    _same_graph(w1, w2)
    combined = len(w1.letters) + len(w2.letters)
    if combined > 2 * budget.max_word_length:
        raise BudgetExceededError(
            "combined word length %d exceeds 2*max_word_length=%d"
            % (combined, 2 * budget.max_word_length),
            dimension="max_word_length", consumed=combined,
            limit=2 * budget.max_word_length)
    g = w1.graph
    return kernels.closure_equal(
        _encode(g, w1.letters), _encode(g, w2.letters), g.masks, budget.max_states)


_BALL_CACHE: "OrderedDict" = OrderedDict()
_BALL_CACHE_LIMIT = 32


def _enumerated_ball(g: SimplicialGraph, max_len: int, max_states: int):
    """All canonical words of length <= max_len, found by extending canonical
    words letter by letter and keeping a candidate exactly when the
    breadth-first closure confirms it is its own shortlex-least geodesic.
    Sorted shortlex. Cached per (graph, radius)."""
    key = (g, max_len)
    hit = _BALL_CACHE.get(key)
    if hit is not None:
        _BALL_CACHE.move_to_end(key)
        return hit
    masks = g.masks
    letters = range(2 * len(g.vertices))
    out = [b""]
    stack = [b""]
    while stack:
        prefix = stack.pop()
        if len(prefix) == max_len:
            continue
        last = prefix[-1] if prefix else None
        for x in letters:
            if last is not None:
                if x == (last ^ 1):
                    continue
                lg, xg = last >> 1, x >> 1
                if lg != xg and (masks[lg] >> xg) & 1 and last > x:
                    continue
            cand = prefix + bytes((x,))
            if kernels.closure_canonical(cand, masks, max_states) != cand:
                continue
            out.append(cand)
            stack.append(cand)
    out.sort(key=lambda b: (len(b), b))
    result = tuple(out)
    _BALL_CACHE[key] = result
    while len(_BALL_CACHE) > _BALL_CACHE_LIMIT:
        _BALL_CACHE.popitem(last=False)
    return result


def commuting_words(g: SimplicialGraph, w: Word, max_len: int,
                    budget: Optional[OracleBudget] = None) -> List[NormalForm]:
    """Every canonical word u with length <= max_len and u*w = w*u, each
    commutation decided by the closure oracle. Sorted shortlex."""
    budget = budget or default_budget()
    if w.graph != g:
        raise DomainError("word does not live over the given graph")
    if len(g.vertices) > budget.max_vertices:
        raise BudgetExceededError(
            "graph has %d vertices, budget allows %d"
            % (len(g.vertices), budget.max_vertices),
            dimension="max_vertices", consumed=len(g.vertices),
            limit=budget.max_vertices)
    if max_len + len(w.letters) > budget.max_word_length:
        raise BudgetExceededError(
            "radius %d plus word length %d exceeds max_word_length=%d"
            % (max_len, len(w.letters), budget.max_word_length),
            dimension="max_word_length", consumed=max_len + len(w.letters),
            limit=budget.max_word_length)
    masks = g.masks
    wc = _encode(g, w.letters)
    out = []
    for u in _enumerated_ball(g, max_len, budget.max_states):
        if kernels.closure_equal(u + wc, wc + u, masks, budget.max_states):
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

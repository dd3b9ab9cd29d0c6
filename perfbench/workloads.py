"""Seeded inputs for the three workloads.

Every workload is a cyclic schedule of slots. Op ``i`` of a run uses slot
``i % len(schedule)`` and draws its random details from its own generator,
seeded from the workload name, the run seed and ``i``; the same seed
therefore gives the same inputs in every run, whatever the number of ops
the run reaches. Cycling through fixed slots keeps the mix of families and
sizes the same in every run, so runs on different seeds differ only in the
random structure inside each slot.

Warm-up inputs come from the same generators under other vertex names
(``w*``; timed ops use ``v<i>_*``, ``g<i>_*`` and ``o<i>_*``), so no warm-up
graph can equal a timed one and warm-up cannot fill the oracle ball cache
with a timed key.

This module only builds text and tuples; it does not import raagdecomp.
"""

import json
import random

# --- graphs -------------------------------------------------------------


def _names(n, prefix):
    return ["%s%d" % (prefix, i) for i in range(n)]


def _edge(a, b):
    return (a, b) if a < b else (b, a)


def sparse_graph(rng, n, extra, prefix):
    """Random spanning tree plus ``round(extra * n)`` random chords."""
    vs = _names(n, prefix)
    order = vs[:]
    rng.shuffle(order)
    edges = {_edge(order[k], order[rng.randrange(k)]) for k in range(1, n)}
    want = len(edges) + round(extra * n)
    while len(edges) < want:
        a, b = rng.sample(vs, 2)
        edges.add(_edge(a, b))
    return vs, sorted(edges)


def path_graph(n, prefix):
    vs = _names(n, prefix)
    return vs, [_edge(vs[i], vs[i + 1]) for i in range(n - 1)]


def cycle_graph(n, prefix):
    vs = _names(n, prefix)
    return vs, sorted(_edge(vs[i], vs[(i + 1) % n]) for i in range(n))


def tree_graph(rng, n, prefix):
    vs = _names(n, prefix)
    return vs, sorted(_edge(vs[k], vs[rng.randrange(k)]) for k in range(1, n))


def chordal_graph(rng, n, width, prefix):
    """Each new vertex joins a random sub-clique (of size <= width) of an
    earlier vertex's clique, which is a perfect elimination order read
    backwards, so the graph is chordal and connected."""
    vs = _names(n, prefix)
    edges = set()
    cliques = [[vs[0]]]
    for v in vs[1:]:
        base = rng.choice(cliques)
        sub = rng.sample(base, rng.randint(1, min(len(base), width)))
        edges.update(_edge(u, v) for u in sub)
        cliques.append(sub + [v])
    return vs, sorted(edges)


def join_graph(rng, parts, prefix):
    """Complete multipartite graph: the join of edgeless parts, with a few
    chords added inside parts so that some factors are not free."""
    groups, vs = [], []
    for p, size in enumerate(parts):
        group = ["%s%d_%d" % (prefix, p, j) for j in range(size)]
        groups.append(group)
        vs.extend(group)
    edges = {_edge(a, b) for i, gi in enumerate(groups)
             for gj in groups[i + 1:] for a in gi for b in gj}
    for group in groups:
        if len(group) >= 3 and rng.random() < 0.5:
            a, b = rng.sample(group, 2)
            edges.add(_edge(a, b))
    return vs, sorted(edges)


def graph_json(graph):
    vs, edges = graph
    return json.dumps({"vertices": vs, "edges": [list(e) for e in edges]})


# --- words --------------------------------------------------------------


def random_word(rng, vs, length):
    """Freely reduced random word as (name, sign) letters."""
    out = []
    while len(out) < length:
        letter = (rng.choice(vs), rng.choice((1, -1)))
        if out and out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return out


def inverse(letters):
    return [(v, -s) for v, s in reversed(letters)]


def word_text(letters):
    return " ".join(v if s > 0 else v + "^-1" for v, s in letters)


# --- workloads ----------------------------------------------------------
#
# A slot is (label, build). `build(rng, prefix, pos)` returns the op's
# input: `pos` in [0, 1) places the op's size within the slot's
# range and depends on the op index only, not on the seed, so that every
# run covers each range evenly and runs on different seeds differ only in
# random structure. Sizes are set so that a 30 s run holds 300-800 ops on
# the pure backend, well over the 100 that keep ten samples beyond p90 and
# enough that the mix, not chance, sets the median and p90, and so that op
# latencies spread without gaps where the median and p90 fall.


def _size(lo, hi, pos):
    return lo + int(pos * (hi - lo + 1))


def _decompose_slots():
    # Why: all the time goes to separator enumeration in `graphs` and to
    # recursion and validation in `jsj`; `words`, `kernels` and `oracles`
    # stay idle. Known defects, recorded as found: separator enumeration is
    # exponential on sparse random graphs (the largest ones vary most from
    # graph to graph), cycles carry n(n-3)/2 non-clique minimal separators,
    # and `relative_jsj` recurses once per path vertex with cubic total
    # cost, so the long paths and trees and the largest sparse graphs make
    # up the tail that sets p90.
    def sparse(lo, hi):
        return lambda rng, p, pos: sparse_graph(
            rng, _size(lo, hi, pos), rng.uniform(0.3, 0.5), p)

    def path(lo, hi):
        return lambda rng, p, pos: path_graph(_size(lo, hi, pos), p)

    def tree(lo, hi):
        return lambda rng, p, pos: tree_graph(rng, _size(lo, hi, pos), p)

    def chordal(lo, hi):
        return lambda rng, p, pos: chordal_graph(
            rng, _size(lo, hi, pos), rng.randint(2, 4), p)

    def cycle(lo, hi):
        return lambda rng, p, pos: cycle_graph(_size(lo, hi, pos), p)

    def join(rng, p, pos):
        return join_graph(
            rng, [rng.randint(1, 4) for _ in range(rng.randint(2, 4))], p)

    return [
        ("sparse", sparse(14, 18)),
        ("path", path(24, 48)),
        ("chordal", chordal(16, 32)),
        ("sparse", sparse(16, 20)),
        ("tree", tree(30, 60)),
        ("join", join),
        ("sparse", sparse(18, 22)),
        ("cycle", cycle(14, 26)),
        ("chordal", chordal(32, 48)),
        ("sparse", sparse(20, 24)),
        ("path", path(40, 64)),
        ("tree", tree(60, 90)),
    ]


_PRIMES_90_130 = (97, 101, 103, 107, 109, 113, 127)


def _words_slots():
    # Why: all the time goes to `words` and `kernels`; `graphs` only parses
    # and `jsj` stays idle. Most words are u * c^k * u^-1 with a long random
    # conjugator u and a short core c: `cyclically_reduce` re-canonicalizes
    # once per conjugator letter, so its cost grows with |u| squared.
    # Known defect, recorded as found: on generic words of a few hundred
    # letters `primitive_root` runs out of its linearization budget, so
    # `centralizer` exits 3 and the op is refused; that share shows in
    # `answered_ratio` and must not be sized away. Here the generic words
    # give each generator one sign, so nothing cancels and the normal form
    # keeps all 2p letters (p prime): every one of them is refused, at a
    # steady 0.2-0.4 s. Where the normal-form length has many divisors the
    # same defect costs 1-5 s per word (measured: 5.5 s at 240 letters);
    # a few such words would decide a whole run, so they stay out of the
    # timed mix. One op in five is generic, so p90 falls in the middle of
    # their cluster, where it moves least from seed to seed, rather than on
    # its edge.
    def graph(rng, p):
        return sparse_graph(rng, 24, 2.0, p)

    def conj(lo, hi):
        def build(rng, p, pos):
            vs, edges = graph(rng, p)
            u = random_word(rng, vs, _size(lo, hi, pos))
            core = random_word(rng, vs, rng.randint(2, 5))
            letters = u + core * rng.randint(1, 3) + inverse(u)
            return (vs, edges), word_text(letters)
        return build

    def generic(rng, p, pos):
        vs, edges = graph(rng, p)
        sign = {v: rng.choice((1, -1)) for v in vs}
        length = 2 * _PRIMES_90_130[int(pos * len(_PRIMES_90_130))]
        return (vs, edges), word_text(
            [(v, sign[v]) for v in (rng.choice(vs) for _ in range(length))])

    return [
        ("conj", conj(50, 100)),
        ("conj", conj(80, 130)),
        ("conj", conj(100, 160)),
        ("generic", generic),
        ("conj", conj(50, 160)),
        ("conj", conj(120, 160)),
        ("conj", conj(70, 120)),
        ("conj", conj(90, 140)),
        ("generic", generic),
        ("conj", conj(60, 150)),
    ]


def _oracle_slots():
    # Why: time goes to `oracles` and the closure kernels, and production
    # code runs only at tiny sizes, where per-call overhead dominates. An
    # encoding or kernel rewrite that speeds up long words could slow this
    # workload. Each op checks two balls on one graph: radius 2 against two
    # words, so the ball cache sees the reuse within a graph that a real
    # sweep does, and radius 2, 3 or 4 against one more word. Consecutive
    # ops use different graphs, so the cache never serves one op from
    # another's ball. A radius-4 ball costs about ten radius-3 balls and
    # varies 3x with the graph, so one op in sixteen has one: enough to
    # keep it measured, few enough that p90 falls among the radius-3 ops
    # rather than on the edge of the radius-4 cluster.
    def case(lo, hi, big):
        def build(rng, p, pos):
            vs, edges = sparse_graph(rng, _size(lo, hi, pos), 0.4, p)
            pairs = []
            for k in range(4):
                a = random_word(rng, vs, rng.randint(1, 5))
                # odd pairs are equal by construction: insert a cancelling
                # pair into a, so both outcomes of `equal` are exercised
                if k % 2:
                    x = (rng.choice(vs), rng.choice((1, -1)))
                    at = rng.randint(0, len(a))
                    b = a[:at] + [x, (x[0], -x[1])] + a[at:]
                else:
                    b = random_word(rng, vs, rng.randint(1, 5))
                pairs.append((word_text(a), word_text(b)))
            # commuting_words needs radius + |w| <= 6, the default budget;
            # one letter less keeps each commutation check to at most five
            # letters, where a six-letter check costs 1-10x as much
            # depending on the word, which would decide the tail by chance
            balls = [(radius, [word_text(random_word(
                rng, vs, rng.randint(1, 5 - radius))) for _ in range(count)])
                for radius, count in ((2, 2), (big, 1))]
            return (vs, edges), pairs, balls
        return build

    r2, r3, r4 = (("radius2", case(6, 8, 2)), ("radius3", case(5, 7, 3)),
                  ("radius4", case(5, 5, 4)))
    return [r3, r3, r2, r3, r3, r3, r2, r4,
            r3, r3, r2, r3, r3, r3, r3, r3]


SLOTS = {
    "decompose": _decompose_slots(),
    "words": _words_slots(),
    "oracles": _oracle_slots(),
}

# Vertices are named after the op (v<i>_*, g<i>_*, o<i>_*) and warm-up
# inputs use w*. Small oracle graphs often coincide, and the ball cache is
# keyed by graph: distinct names keep one op from being served another's
# ball, which would make a run's cost depend on chance coincidences.
_TIMED_PREFIX = {"decompose": "v", "words": "g", "oracles": "o"}
WARMUP_PREFIX = "w"
_GOLDEN = 0.6180339887498949


def op_input(workload, seed, i):
    """Input of timed op ``i`` for ``seed``: (slot label, input)."""
    slots = SLOTS[workload]
    label, build = slots[i % len(slots)]
    rng = random.Random("%s:%d:%d" % (workload, seed, i))
    # golden-ratio sequence over the slot's cycles: evenly spread sizes
    pos = (i // len(slots) * _GOLDEN) % 1.0
    prefix = "%s%d_" % (_TIMED_PREFIX[workload], i)
    return label, build(rng, prefix, pos)


def warmup_inputs(workload):
    """The smallest input of a few slots, under warm-up vertex names.

    The same for every seed, so that set-up time does not vary with it.
    """
    out = []
    for k in WARMUP_SLOTS[workload]:
        label, build = SLOTS[workload][k]
        rng = random.Random("%s:warmup:%d" % (workload, k))
        out.append((label, build(rng, WARMUP_PREFIX, 0.0)))
    return out


# slot indices: warm-up touches every command on the cheapest slots
WARMUP_SLOTS = {
    "decompose": (0, 1, 2, 5),
    "words": (0,),
    "oracles": (0,),
}

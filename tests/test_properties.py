from bisect import insort
from collections import Counter, deque
import copy
from dataclasses import replace
from itertools import product
import pickle
import random
import re

from hypothesis import assume, given, settings, strategies as st
import pytest

from raagdecomp import (BudgetExceededError, CentralizerDescriptor,
                        CentralizerFactor, DomainError, GraphOfGroups,
                        NormalForm, OracleBudget, SimplicialGraph, Word,
                        abelian_jsj, amalgam_split, bfs_equal, brute_atoms,
                        brute_primitive_root, centralizer_descriptor,
                        clique_separators, commuting_words,
                        connected_components, cyclically_reduce, equal,
                        exhaustive_graphs, graph_to_dot, hnn_split,
                        induced_subgraph, is_clique, is_connected,
                        join_factors, link, normal_form, parse_graph,
                        parse_word, power, primitive_root, reduce,
                        relative_jsj, star, star_amalgam_split, support,
                        validate, word_text)
from raagdecomp import jsj, kernels, words, _pykernel
from raagdecomp.graphs import (_clique_mask, _clique_minimal_separators,
                               _component_masks, _full_mask, _join_masks,
                               _mcs_m, _names, _splits, _vertex_mask)
from raagdecomp.jsj import (_attach_index, _build, _separated_components,
                            _split_tree)
from raagdecomp.oracles import _enumerated_ball
from raagdecomp.words import _decode, _encode

from conftest import random_connected_graph, random_word
import golden
from test_jsj import glued_blobs
from test_scale import chordal_graph, tree_graph
from test_words import _choice_tree_size


NAMES = "abcde"


@st.composite
def graphs(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    names = tuple(NAMES[:n])
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    bits = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return SimplicialGraph(
        names, [p for i, p in enumerate(pairs) if (bits >> i) & 1])


@st.composite
def graph_words(draw, max_n=5, max_len=8):
    g = draw(graphs(max_n))
    length = draw(st.integers(min_value=0, max_value=max_len))
    letters = tuple(
        (draw(st.sampled_from(g.vertices)), draw(st.sampled_from((1, -1))))
        for _ in range(length))
    return g, Word(g, letters)


@given(graph_words())
def test_normal_form_is_idempotent(gw):
    _, w = gw
    nf = normal_form(w)
    assert normal_form(nf.word).letters == nf.letters


@given(graph_words())
def test_word_times_inverse_is_trivial(gw):
    _, w = gw
    assert normal_form(w * w.inverse()).length() == 0


@given(graph_words(), st.data())
def test_inserting_cancelling_pair_preserves_element(gw, data):
    g, w = gw
    i = data.draw(st.integers(min_value=0, max_value=len(w.letters)))
    v = data.draw(st.sampled_from(g.vertices))
    s = data.draw(st.sampled_from((1, -1)))
    padded = Word(g, w.letters[:i] + ((v, s), (v, -s)) + w.letters[i:])
    assert equal(w, padded)


@given(graph_words(), st.data())
def test_swapping_adjacent_commuting_letters_preserves_element(gw, data):
    g, w = gw
    spots = [i for i in range(len(w.letters) - 1)
             if w.letters[i][0] != w.letters[i + 1][0]
             and g.adjacent(w.letters[i][0], w.letters[i + 1][0])]
    if not spots:
        return
    i = data.draw(st.sampled_from(spots))
    ls = list(w.letters)
    ls[i], ls[i + 1] = ls[i + 1], ls[i]
    assert equal(w, Word(g, tuple(ls)))


@given(graph_words())
def test_support_is_inverse_and_power_invariant(gw):
    _, w = gw
    s = support(w)
    assert support(w.inverse()) == s
    assert support(power(w, 3)) == s


@given(graph_words(max_n=4, max_len=6))
def test_engine_equality_matches_bfs_oracle(gw):
    g, w = gw
    rearranged = Word(g, tuple(reversed(w.letters)))
    assert equal(w, rearranged) == bfs_equal(w, rearranged)


@given(graph_words(max_n=4, max_len=6))
@settings(deadline=None)
def test_canonical_form_matches_closure_least_element(gw):
    g, w = gw
    data = _encode(g, w.letters)
    assert kernels.canonicalize(data, g.masks) == \
        tuple(_pykernel.closure_canonical(data, g.masks, 1_000_000))


@given(graph_words())
def test_cyclic_reduction_is_a_conjugation(gw):
    _, w = gw
    red, conj = cyclically_reduce(w)
    assert equal(conj.inverse() * w * conj, red.word)
    assert set(support(red.word)) <= set(support(w))


def _front_movable(codes, masks):
    """Letter -> position of each letter that can be shuffled to the front."""
    out = {}
    for p, x in enumerate(codes):
        gen = x >> 1
        if all(y >> 1 != gen and (masks[gen] >> (y >> 1)) & 1
               for y in codes[:p]):
            out[x] = p
    return out


def _recanonicalizing_reduce(w):
    """Cyclic reduction that canonicalizes the whole word again after
    every peeled pair: the least letter x shufflable to the front whose
    inverse is shufflable to the rear."""
    masks = w.graph.masks
    cur = kernels.canonicalize(_encode(w.graph, w.letters), masks)
    conj = []
    while True:
        front = _front_movable(cur, masks)
        rear = _front_movable(cur[::-1], masks)
        pairs = [(x, i, len(cur) - 1 - rear[x ^ 1])
                 for x, i in front.items() if x ^ 1 in rear]
        if not pairs:
            return cur, tuple(conj)
        x, i, j = min(pairs)
        conj.append(x)
        cur = kernels.canonicalize(cur[:i] + cur[i + 1:j] + cur[j + 1:], masks)


@st.composite
def conjugated_words(draw):
    """u * core * u^-1 for random u and core, so that pairs peel off."""
    g, core = draw(graph_words(max_len=6))
    length = draw(st.integers(min_value=0, max_value=10))
    u = Word(g, tuple(
        (draw(st.sampled_from(g.vertices)), draw(st.sampled_from((1, -1))))
        for _ in range(length)))
    return g, u * core * u.inverse()


@given(st.one_of(graph_words(max_len=12), conjugated_words()))
def test_cyclic_reduction_matches_recanonicalizing_loop(gw):
    g, w = gw
    red, conj = cyclically_reduce(w)
    cur, peeled = _recanonicalizing_reduce(w)
    assert (_encode(g, red.letters), _encode(g, conj.letters)) == (cur, peeled)


def _unblocked_generators(order, block):
    """Generators in `order` that no earlier generator in it blocks."""
    out = bad = 0
    for _, g in order:
        if not (bad >> g) & 1:
            out |= 1 << g
        bad |= block[g]
    return out


def _piles_and_heads_peel(codes, masks):
    """`words._peel` without its walk from the front: every pair is found
    by the loop over the generators sorted by their first and by their
    last remaining position, kept sorted by insertion."""
    full = (1 << len(masks)) - 1
    block = [full & ~m for m in masks]
    piles = [[] for _ in masks]
    for p, x in enumerate(codes):
        piles[x >> 1].append(p)
    lo = [0] * len(piles)
    hi = [len(pile) - 1 for pile in piles]
    heads = sorted((pile[0], g) for g, pile in enumerate(piles) if pile)
    tails = sorted((-pile[-1], g) for g, pile in enumerate(piles) if pile)
    alive = [True] * len(codes)
    conj = []
    while True:
        both = (_unblocked_generators(heads, block)
                & _unblocked_generators(tails, block))
        pairs = [g for g in range(len(masks)) if both >> g & 1
                 and codes[piles[g][lo[g]]] == codes[piles[g][hi[g]]] ^ 1]
        if not pairs:
            return tuple(x for x, a in zip(codes, alive) if a), tuple(conj)
        g = pairs[0]
        first, last = piles[g][lo[g]], piles[g][hi[g]]
        conj.append(codes[first])
        alive[first] = alive[last] = False
        heads.remove((first, g))
        tails.remove((-last, g))
        lo[g] += 1
        hi[g] -= 1
        if lo[g] <= hi[g]:
            insort(heads, (piles[g][lo[g]], g))
            insort(tails, (-piles[g][hi[g]], g))


def _normal_forms(masks, max_len):
    """Every normal form of at most `max_len` letters; dropping the last
    letter of a normal form leaves one, so each extends a shorter one."""
    level = [()]
    for _ in range(max_len + 1):
        yield from level
        level = [nf + (x,) for nf in level for x in range(2 * len(masks))
                 if kernels.canonicalize(nf + (x,), masks) == nf + (x,)]


def test_peel_matches_piles_and_heads_loop_on_small_normal_forms():
    seen = 0
    for n in range(1, 4):
        for g in exhaustive_graphs(n):
            for codes in _normal_forms(g.masks, 5):
                assert words._peel(codes, g.masks) == \
                    _piles_and_heads_peel(codes, g.masks)
                seen += 1
    assert seen == 16_101


@given(conjugated_words())
def test_peel_matches_piles_and_heads_loop_on_conjugates(gw):
    g, w = gw
    codes = kernels.canonicalize(w._codes, g.masks)
    assert words._peel(codes, g.masks) == _piles_and_heads_peel(codes, g.masks)


@st.composite
def embedded_words(draw):
    """A word over a small graph raised to a power from 1 to 3, and the
    same word over a 200-vertex graph that holds the small graph at names
    sorting past the 128th, in the same order, among edges not touching
    it. Returns (renaming, small word, large word)."""
    g, w = draw(graph_words(max_len=6))
    w = power(w, draw(st.integers(min_value=1, max_value=3)))
    big = ["v%03d" % i for i in range(200)]
    spots = draw(st.lists(st.integers(min_value=128, max_value=199),
                          min_size=len(g.vertices), max_size=len(g.vertices),
                          unique=True))
    rename = dict(zip(g.vertices, (big[i] for i in sorted(spots))))
    rest = sorted(set(big) - set(rename.values()))
    rng = draw(st.randoms(use_true_random=False))
    edges = [(rename[u], rename[v]) for u, v in g.edges]
    edges += [(u, v) for u, v in zip(rest, rest[1:]) if rng.random() < 0.5]
    bg = SimplicialGraph(big, edges)
    return rename, w, Word(bg, tuple((rename[n], s) for n, s in w.letters))


@given(embedded_words())
@settings(deadline=None)
def test_words_past_the_128th_generator_match_after_renaming(case):
    rename, w, bw = case

    def renamed(x):
        return re.sub("[a-e]", lambda m: rename[m.group()], str(x))

    assert str(normal_form(bw)) == renamed(normal_form(w))
    assert support(bw) == tuple(rename[v] for v in support(w))
    assert tuple(map(str, cyclically_reduce(bw))) == \
        tuple(map(renamed, cyclically_reduce(w)))
    d, bd = centralizer_descriptor(w), centralizer_descriptor(bw)
    assert str(bd.conjugator) == renamed(d.conjugator)
    assert [(f.support, str(f.root), f.exponent) for f in bd.factors] == \
        [(tuple(rename[v] for v in f.support), renamed(f.root), f.exponent)
         for f in d.factors]
    # nothing outside the small graph touches it, so a nontrivial word's
    # link stays inside it; the trivial word's link is every vertex
    assert bd.link_part == (tuple(rename[v] for v in d.link_part)
                            if d.factors else bw.graph.vertices)


# --- primitive roots against brute force and the path-by-path tree count -


# one graph of each isomorphism type on at most 3 vertices
_SMALL_GRAPHS = [SimplicialGraph(tuple(vs), [tuple(e) for e in es])
                 for vs, es in [("a", []), ("ab", []), ("ab", ["ab"]),
                                ("abc", []), ("abc", ["ac"]),
                                ("abc", ["ab", "ac"]),
                                ("abc", ["ab", "ac", "bc"])]]


def test_primitive_root_matches_brute_force_on_small_normal_forms():
    seen = powers = 0
    for g in _SMALL_GRAPHS:
        for codes in _normal_forms(g.masks, 6):
            word = Word(g, _decode(g, codes))
            try:
                root, k = primitive_root(word)
            except DomainError:  # trivial, not cyclically reduced, a join
                continue
            brute, brute_k = brute_primitive_root(word)
            assert (root, k) == (brute, brute_k), (g.edges, str(word))
            seen += 1
            powers += k > 1
    assert (seen, powers) == (30_444, 530)


@st.composite
def root_pieces(draw, max_len=4):
    """A piece that `centralizer_descriptor` hands the root search: the
    letters on one join factor of the cyclically reduced form of u^k, for
    a word u over at most 4 generators and k from 1 to 3."""
    g, w = draw(graph_words(max_n=4, max_len=max_len))
    red = cyclically_reduce(power(w, draw(st.integers(1, 3))))[0]._codes
    assume(red)
    f = draw(st.sampled_from(_join_masks(
        g.masks, _vertex_mask(g, {g.vertices[x >> 1] for x in red}))))
    return Word(g, _decode(g, tuple(x for x in red if f >> (x >> 1) & 1)))


@given(root_pieces())
@settings(deadline=None)
def test_primitive_root_matches_brute_force(word):
    try:
        brute = brute_primitive_root(
            word, OracleBudget(max_word_length=12, max_states=20_000))
    except BudgetExceededError:
        assume(False)
    assert primitive_root(word) == brute


@given(root_pieces(max_len=5))
@settings(deadline=None, max_examples=200)
def test_root_refusal_is_the_choice_tree_size(word):
    # the root search refuses exactly when the tree of some divisor
    # exponent, from the largest down to the one found, passes the cap
    root, k = primitive_root(word)
    codes = normal_form(word)._codes
    n = len(codes)
    largest = max((_choice_tree_size(codes, n // j, word.graph.masks)
                   for j in range(n, max(k, 2) - 1, -1) if n % j == 0),
                  default=1)
    saved = words.MAX_LINEARIZATIONS
    try:
        for cap in range(2, 71):
            words.MAX_LINEARIZATIONS = cap
            if largest > cap:
                with pytest.raises(BudgetExceededError) as info:
                    primitive_root(word)
                assert str(info.value) == \
                    "linearization enumeration exceeded %d steps" % cap
                assert info.value.consumed > info.value.limit == cap
            else:
                assert primitive_root(word) == (root, k)
    finally:
        words.MAX_LINEARIZATIONS = saved


@given(graph_words(max_n=4, max_len=5))
@settings(deadline=None)
def test_centralizer_members_commute(gw):
    g, w = gw
    d = centralizer_descriptor(w)
    assert d.contains(w)
    t = d.conjugator
    for f in d.factors:
        member = t * power(f.root.word, 2) * t.inverse()
        assert d.contains(member)
        assert equal(member * w, w * member)
    for v in d.link_part:
        member = t * Word(g, ((v, 1),)) * t.inverse()
        assert d.contains(member)
        assert equal(member * w, w * member)


@given(graph_words())
def test_word_text_round_trips_through_parser(gw):
    g, w = gw
    assert parse_word(g, word_text(w)).letters == w.letters


@st.composite
def named_graphs(draw):
    names = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1,
                          max_size=5, unique=True))
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) \
        if pairs else []
    return SimplicialGraph(names, edges)


@given(named_graphs())
def test_dot_round_trip_any_names(g):
    assert parse_graph(graph_to_dot(g)) == g


# --- the graph layer's bitmask searches against plain set searches -------


def _edge_adjacency(g):
    """Vertex name -> frozenset of neighbour names, read off `g.edges`
    alone, so that the references below never read the masks they check."""
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return {v: frozenset(s) for v, s in adj.items()}


def _set_components(g, sub):
    """Components of the subgraph on `sub` by a search over name sets,
    sorted by least member."""
    adj = _edge_adjacency(g)
    sub = set(sub)
    comps = []
    while sub:
        root = min(sub)
        comp = {root}
        frontier = [root]
        while frontier:
            for y in adj[frontier.pop()]:
                if y in sub and y not in comp:
                    comp.add(y)
                    frontier.append(y)
        sub -= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def _set_join_factors(g):
    """Components of the complement graph by a search over name sets, as
    sorted tuples in order of least member."""
    adj = _edge_adjacency(g)
    rest = set(g.vertices)
    factors = []
    while rest:
        comp = {min(rest)}
        frontier = list(comp)
        while frontier:
            far = rest - comp - adj[frontier.pop()]
            comp |= far
            frontier.extend(far)
        rest -= comp
        factors.append(tuple(sorted(comp)))
    return sorted(factors)


def _set_is_clique(g, s):
    adj = _edge_adjacency(g)
    s = sorted(set(s))
    return all(v in adj[u] for i, u in enumerate(s) for v in s[i + 1:])


@st.composite
def wide_graphs(draw):
    """Up to 200 vertices, so that the masks run past 64 and 128 bits, with
    a planted clique, perhaps short of one edge, and a vertex subset to ask
    about."""
    n = draw(st.integers(min_value=1, max_value=200))
    names = ["v%03d" % i for i in range(n)]
    index = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=2 * n))
    clique = draw(st.lists(index, unique=True, max_size=6))
    planted = [(i, j) for i in clique for j in clique if i < j]
    if planted and draw(st.booleans()):
        planted.remove(draw(st.sampled_from(planted)))
    edges = {(names[min(i, j)], names[max(i, j)])
             for i, j in pairs + planted if i != j}
    g = SimplicialGraph(names, sorted(edges))
    sub = draw(st.lists(index, unique=True))
    return g, [names[i] for i in clique], [names[i] for i in sub]


@given(wide_graphs())
@settings(deadline=None)
def test_bitmask_searches_match_set_searches(case):
    g, clique, sub = case
    whole = _set_components(g, g.vertices)
    assert connected_components(g) == [tuple(sorted(c)) for c in whole]
    assert is_connected(g) == (len(whole) <= 1)
    assert [frozenset(_names(g.vertices, c))
            for c in _component_masks(g.masks, _vertex_mask(g, sub))] == \
        _set_components(g, sub)
    # the complement of a sparse graph is a join of its components
    vs = g.vertices
    co = SimplicialGraph(vs, [(u, v) for i, u in enumerate(vs)
                              for v in vs[i + 1:] if not g.adjacent(u, v)])
    assert [join_factors(h) for h in (g, co)] == \
        [_set_join_factors(h) for h in (g, co)]
    assert [[_names(vs, f) for f in _join_masks(h.masks, _vertex_mask(h, sub))]
            for h in (g, co)] == \
        [join_factors(induced_subgraph(h, sub)) for h in (g, co)]
    assert is_clique(g, clique) == _set_is_clique(g, clique)
    assert is_clique(g, sub) == _set_is_clique(g, sub)
    assert is_clique(g, clique + sub) == _set_is_clique(g, clique + sub)
    with pytest.raises(DomainError):
        is_clique(g, clique + ["nowhere"])
    # the disconnection test of the separator candidates
    full = (1 << len(g.vertices)) - 1
    for s in (clique, sub):
        rest = set(g.vertices) - set(s)
        assert _splits(g.masks, full & ~_vertex_mask(g, s)) == \
            (len(_set_components(g, rest)) >= 2)
    assert _splits(g.masks, _vertex_mask(g, sub)) == \
        (len(_set_components(g, sub)) >= 2)


@st.composite
def adjacency_cases(draw):
    """A random graph, some of 200 vertices or more, a vertex of it, a
    vertex of it or a name outside it, and a vertex subset."""
    n = draw(st.integers(min_value=1, max_value=40)
             | st.integers(min_value=200, max_value=260))
    names = ["v%03d" % i for i in range(n)]
    index = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=3 * n))
    g = SimplicialGraph(names, {(names[min(i, j)], names[max(i, j)])
                                for i, j in pairs if i != j})
    u = draw(st.sampled_from(names))
    v = draw(st.sampled_from(names + ["nowhere"]))
    sub = [names[i] for i in draw(st.lists(index, unique=True, max_size=8))]
    return g, u, v, sub


@given(adjacency_cases())
@settings(deadline=None)
def test_masks_are_the_edges(case):
    g, u, v, sub = case
    vs = g.vertices
    pairs = {(vs[i], vs[j]) for i, m in enumerate(g.masks)
             for j in range(len(vs)) if m >> j & 1}
    assert pairs == g.edges | {(b, a) for a, b in g.edges}
    adj = _edge_adjacency(g)
    assert g.neighbors(u) == adj[u]
    assert g.adjacent(u, v) == (v in adj[u])
    assert star(g, u) == tuple(sorted(adj[u] | {u}))
    common = frozenset(vs).intersection(*(adj[x] for x in sub))
    assert link(g, sub) == tuple(sorted(common - set(sub)))
    assert induced_subgraph(g, sub) == SimplicialGraph(
        sub, [e for e in g.edges if set(e) <= set(sub)])


@given(wide_graphs())
@settings(deadline=None)
def test_mcs_m_on_a_vertex_subset_is_mcs_m_of_its_subgraph(case):
    # validate runs MCS-M+ on a node group's mask, not on its subgraph
    g, _, sub = case
    h = induced_subgraph(g, sub)
    on_mask = _mcs_m(g, _vertex_mask(g, sub))
    assert [_names(g.vertices, s) for s in on_mask] == \
        [_names(h.vertices, s) for s in _mcs_m(h, _full_mask(h))]


@given(wide_graphs())
@settings(deadline=None)
def test_lockstep_components_match_whole_searches(case):
    # the components of a piece minus a separator, each touching it; one
    # component or none comes back as it is
    g, clique, sub = case
    kmask = _vertex_mask(g, clique)
    rest = 0
    for c in _component_masks(g.masks, _vertex_mask(g, sub) & ~kmask):
        if any(g.masks[i] & c for i in _names(range(len(g.vertices)), kmask)):
            rest |= c
    comps = _component_masks(g.masks, rest)
    assert _separated_components(g.masks, rest, kmask) == comps


# --- the clique minimal separators against their definition -------------


def _brute_clique_minimal_separators(g):
    """Cliques S of g such that g - S has two or more full components,
    components each of whose neighbourhoods is all of S; by set searches
    over `g.edges`, sorted by size, then by names."""
    adj = _edge_adjacency(g)
    found = []
    cliques = [()]  # grows while it is walked: each clique, then its extensions
    for s in cliques:
        rest = set(g.vertices) - set(s)
        full = 0
        while rest:
            comp = {rest.pop()}
            frontier = list(comp)
            while frontier:
                grow = adj[frontier.pop()] & rest
                rest -= grow
                comp |= grow
                frontier.extend(grow)
            if set(s) <= set().union(*(adj[v] for v in comp)):
                full += 1
        if full >= 2:
            found.append(s)
        cliques.extend(s + (v,) for v in g.vertices
                       if (not s or v > s[-1]) and all(v in adj[u] for u in s))
    return sorted(found, key=lambda t: (len(t), t))


def _connected_cases():
    """Every connected graph of at most 6 vertices, then seeded connected
    graphs of 7-10 vertices at every density."""
    for n in range(1, 7):
        for g in exhaustive_graphs(n):
            if len(_set_components(g, g.vertices)) == 1:
                yield g
    rng = random.Random(0x5E9)
    for _ in range(500):
        yield random_connected_graph(rng, rng.randrange(7, 11), rng.random())


def test_clique_minimal_separators_match_definition():
    for g in _connected_cases():
        seps = _clique_minimal_separators(g)
        assert [k for k, _ in seps] == _brute_clique_minimal_separators(g)
        assert all(_names(g.vertices, m) == k for k, m in seps)


def test_relative_node_groups_are_the_atoms():
    # Leimer: the node groups of the decomposition by clique separators
    # are the atoms, each once; the oracle finds them by subset search
    for n in range(1, 6):
        for g in exhaustive_graphs(n):
            if is_connected(g):
                groups = sorted(node.group for node in relative_jsj(g).nodes)
                assert groups == brute_atoms(g), g.edges


# --- the splitting tree against the separator scan it replaced -----------


def _scanning_split_tree(g):
    """`_split_tree` by scanning: every piece but a clique tests each
    separator after the one its parent split along against its vertices,
    and splits along the first one inside it."""
    masks, vs = g.masks, g.vertices
    separators = _clique_minimal_separators(g)
    groups, bits, edges, used = [], [], [], []
    holders = [[] for _ in vs]  # the groups holding each vertex
    # a piece is (vertices, first separator to try, the group offsets of
    # its split); the split, (separator, None, offsets), joins its pieces
    stack = [(_full_mask(g), 0, [])]
    while stack:
        part, first, offsets = stack.pop()
        if first is None:
            k, kmask = part
            held = min((holders[v] for v in _names(range(len(vs)), kmask)),
                       key=len)
            attach = [_attach_index(groups, bits, held, start, end, k, kmask)
                      for start, end in zip(offsets,
                                            offsets[1:] + [len(groups)])]
            edges.extend((a, b, k, None) for a, b in zip(attach, attach[1:]))
            continue
        offsets.append(len(groups))
        pos = None if _clique_mask(masks, part) else next(
            (pos for pos in range(first, len(separators))
             if part | separators[pos][1] == part), None)
        if pos is None:
            members = _names(range(len(vs)), part)
            for v in members:
                holders[v].append(len(groups))
            groups.append(tuple(vs[v] for v in members))
            bits.append(part)
            continue
        k, kmask = separators[pos]
        used.append(k)
        mine = []
        stack.append(((k, kmask), None, mine))
        for comp in reversed(_separated_components(masks, part ^ kmask,
                                                   kmask)):
            stack.append((kmask | comp, pos + 1, mine))
    return tuple(groups), tuple(edges), tuple(used)


def _shuffled_path(rng, n):
    """A path whose names run in random order along it."""
    names = ["v%04d" % i for i in range(n)]
    rng.shuffle(names)
    return SimplicialGraph(names, list(zip(names, names[1:])))


def test_split_tree_matches_separator_scan():
    # (groups, edges, used) on the golden corpus, glued blobs, and larger
    # trees, shuffled paths and chordal graphs, whose pieces hold few of
    # the separators that come after their parent's
    count = 0
    for _, g in golden.corpus():
        assert _split_tree(g) == _scanning_split_tree(g), g.edges
        count += 1
    rng = random.Random(0xB10B)
    graphs = [glued_blobs(rng, rng.randrange(10, 61)) for _ in range(300)]
    rng = random.Random(0x5917)
    for n in (200, 1_000, 3_000):
        graphs += [tree_graph(n, rng.randrange(1 << 16)),
                   _shuffled_path(rng, n),
                   chordal_graph(n, rng.randrange(1 << 16))]
    for g in graphs:
        assert _split_tree(g) == _scanning_split_tree(g), len(g.vertices)
        count += 1
    assert count == 27_776 + 300 + 9


# --- reduce against the edge-scanning loop it replaced -------------------


def _scanning_reduce(gog):
    """Contract the lowest-id contractible edge, scanning every edge for it
    and re-homing every edge after each contraction."""
    groups = {n.id: n.group for n in gog.nodes}
    edges = {e.id: [e.ends[0], e.ends[1], e.group, e.stable_letter]
             for e in gog.edges}
    while True:
        target = None
        for eid in sorted(edges):
            a, b, grp, _ = edges[eid]
            if a == b:
                continue
            if grp == groups[a]:
                target = (eid, a, b)
                break
            if grp == groups[b]:
                target = (eid, b, a)
                break
        if target is None:
            break
        eid, dead, kept = target
        del edges[eid]
        del groups[dead]
        for rec in edges.values():
            if rec[0] == dead:
                rec[0] = kept
            if rec[1] == dead:
                rec[1] = kept
    order = {old: new for new, old in enumerate(sorted(groups))}
    out_groups = [groups[old] for old in sorted(groups)]
    out_edges = [(order[a], order[b], grp, st)
                 for _, (a, b, grp, st) in sorted(edges.items())]
    return _build(gog.base, out_groups, out_edges)


# few distinct groups, so that edge groups often equal node groups
GROUPS = ((), ("a",), ("b",), ("a", "b"), ("a", "c"))


@st.composite
def graphs_of_groups(draw):
    base = SimplicialGraph("abc", [("a", "b"), ("a", "c")])
    k = draw(st.integers(min_value=1, max_value=9))
    groups = draw(st.lists(st.sampled_from(GROUPS), min_size=k, max_size=k))
    node = st.integers(min_value=0, max_value=k - 1)
    # a tree on the nodes, then extra edges, parallel ones and loops
    raw = [(draw(st.integers(min_value=0, max_value=i - 1)), i)
           for i in range(1, k)]
    raw += draw(st.lists(st.tuples(node, node), max_size=8))
    edges = [(a, b, draw(st.sampled_from(GROUPS)),
              draw(st.sampled_from("abc")) if a == b else None)
             for a, b in raw]
    return _build(base, groups, edges)


@given(graphs_of_groups())
def test_reduce_matches_scanning_loop(gog):
    assert reduce(gog) == _scanning_reduce(gog)


# --- the edge-group certificate against the per-edge searches -----------


def _per_edge_groups(gog):
    """validate's edge_groups check without the certificate: one
    disconnection search per edge, the first failing edge reported."""
    base = gog.base
    if len(base.vertices) == 1:
        return ""
    for e in gog.edges:
        if not is_clique(base, e.group):
            return "edge %d group is not a clique" % e.id
        left = _full_mask(base) & ~_vertex_mask(base, e.group)
        if not _splits(base.masks, left):
            return "edge %d group does not disconnect the graph" % e.id
    return ""


def _edge_groups_outcome(gog):
    try:
        detail = _per_edge_groups(gog)
    except DomainError as exc:
        detail = "check raised: %s" % exc
    return detail == "", detail


def _decompositions(g):
    yield relative_jsj(g)
    yield abelian_jsj(g)
    for v in g.vertices:
        yield hnn_split(g, v)
        if len(g.vertices) > 1:
            yield star_amalgam_split(g, v)
    for k in clique_separators(g):
        yield amalgam_split(g, k)


def _damaged(gog, rng):
    """A copy with a vertex toggled in a node group or an edge group, or
    an edge end moved to another node."""
    nodes, edges = list(gog.nodes), list(gog.edges)
    vs = gog.base.vertices
    kind = rng.randrange(3) if edges else 0
    if kind == 0:
        i = rng.randrange(len(nodes))
        nodes[i] = replace(nodes[i], group=tuple(sorted(
            set(nodes[i].group) ^ {rng.choice(vs)})))
    elif kind == 1:
        j = rng.randrange(len(edges))
        edges[j] = replace(edges[j], group=tuple(sorted(
            set(edges[j].group) ^ {rng.choice(vs)})))
    else:
        j = rng.randrange(len(edges))
        ends = list(edges[j].ends)
        ends[rng.randrange(2)] = rng.choice(nodes).id
        edges[j] = replace(edges[j], ends=tuple(ends))
    return GraphOfGroups(gog.base, tuple(nodes), tuple(edges))


def test_edge_group_certificate_matches_per_edge_searches(monkeypatch):
    certified = Counter()
    real = jsj._certified

    def counted(gog):
        ok = real(gog)
        certified[ok] += 1
        return ok

    monkeypatch.setattr(jsj, "_certified", counted)
    rng = random.Random(0xCE27)
    for n in range(1, 6):
        for g in exhaustive_graphs(n):
            if not is_connected(g):
                continue
            for gog in _decompositions(g):
                outside = GraphOfGroups(gog.base, (replace(
                    gog.nodes[0], group=gog.nodes[0].group + ("zz",)),)
                    + gog.nodes[1:], gog.edges)
                for case in (gog, _damaged(gog, rng), _damaged(gog, rng),
                             outside):
                    check = [c for c in validate(case)
                             if c.name == "edge_groups"]
                    assert [(c.passed, c.detail) for c in check] == \
                        [_edge_groups_outcome(case)]
                # a name outside the base is no certificate, and no failure
                assert not real(outside)
                assert _edge_groups_outcome(outside) == \
                    _edge_groups_outcome(gog)
    # both the certificate and the per-edge searches decided some cases
    assert certified[True] > 1000 and certified[False] > 1000


# --- the closure kernels against the per-state move lists they replaced --


def _listed_moves(s, masks):
    out = []
    for i in range(len(s) - 1):
        a = s[i]
        b = s[i + 1]
        if a == (b ^ 1):
            out.append(s[:i] + s[i + 2:])
        ga = a >> 1
        gb = b >> 1
        if ga != gb and (masks[ga] >> gb) & 1:
            out.append(s[:i] + bytes((b, a)) + s[i + 2:])
    return out


def _listed_closure_canonical(data, masks, max_states):
    start = bytes(data)
    seen = {start}
    queue = deque((start,))
    best = start
    while queue:
        for t in _listed_moves(queue.popleft(), masks):
            if t in seen:
                continue
            if len(seen) >= max_states:
                return "refused", len(seen) + 1
            seen.add(t)
            queue.append(t)
            if len(t) < len(best) or (len(t) == len(best) and t < best):
                best = t
    return best


def _listed_closure_equal(w1, w2, masks, max_states):
    a = bytes(w1)
    b = bytes(w2)
    if a == b:
        return True
    side = {a: 0, b: 1}
    queues = (deque((a,)), deque((b,)))
    while queues[0] or queues[1]:
        for k in (0, 1):
            if not queues[k]:
                continue
            for t in _listed_moves(queues[k].popleft(), masks):
                o = side.get(t)
                if o is None:
                    if len(side) >= max_states:
                        return "refused", len(side) + 1
                    side[t] = k
                    queues[k].append(t)
                elif o != k:
                    return True
    return False


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BudgetExceededError as exc:
        assert exc.limit == args[-1]
        return "refused", exc.consumed


@given(graph_words(max_n=4, max_len=7), st.data(),
       st.integers(min_value=1, max_value=60))
@settings(max_examples=300)
def test_closures_match_per_state_move_lists(gw, data, max_states):
    g, w = gw
    masks = g.masks
    letter = st.integers(min_value=0, max_value=2 * len(masks) - 1)
    a = bytes(_encode(g, w.letters))
    if data.draw(st.booleans()):
        b = bytes(data.draw(st.lists(letter, max_size=7)))
    else:
        # another spelling of the same element: a few moves away, perhaps
        # with a cancelling pair put in, so that where the closures meet
        # depends on the order they are grown in
        b = a
        for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
            moves = _listed_moves(b, masks)
            if moves:
                b = data.draw(st.sampled_from(moves))
        if data.draw(st.booleans()):
            x = data.draw(letter)
            p = data.draw(st.integers(min_value=0, max_value=len(b)))
            b = b[:p] + bytes((x, x ^ 1)) + b[p:]
    assert _outcome(_pykernel.closure_canonical, a, masks, max_states) == \
        _listed_closure_canonical(a, masks, max_states)
    assert _outcome(_pykernel.closure_equal, a, b, masks, max_states) == \
        _listed_closure_equal(a, b, masks, max_states)


# --- the word engine against the unbounded and per-token versions --------


def _full_alphabet_canonicalize(data, masks):
    """Two-phase reference for `canonicalize`: a stack reduction, then a
    least-letter-first linearization whose scan stops only once every
    generator of the graph is blocked."""
    buf = bytearray()
    for x in data:
        mx = masks[x >> 1]
        gx = x >> 1
        j = len(buf) - 1
        cancel = -1
        while j >= 0:
            y = buf[j]
            gy = y >> 1
            if gy == gx:
                if y == (x ^ 1):
                    cancel = j
                break
            if not (mx >> gy) & 1:
                break
            j -= 1
        if cancel >= 0:
            del buf[cancel]
        else:
            buf.append(x)
    full = (1 << len(masks)) - 1
    block = [full & ~m for m in masks]
    out = bytearray()
    while buf:
        bad = 0
        best = 256
        best_pos = -1
        for p, x in enumerate(buf):
            g = x >> 1
            if not (bad >> g) & 1 and x < best:
                best = x
                best_pos = p
            bad |= block[g]
            if bad == full:
                break
        out.append(best)
        del buf[best_pos]
    return bytes(out)


@st.composite
def narrow_words(draw):
    """Letter codes over a few generators of a graph of up to 12 vertices,
    where some vertices outside the word's support are adjacent to all of
    it, so that a scan over the whole alphabet would never stop early."""
    n = draw(st.integers(min_value=1, max_value=12))
    names = tuple("abcdefghijkl"[:n])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bits = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = {p for k, p in enumerate(pairs) if (bits >> k) & 1}
    gens = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                         min_size=1, max_size=min(n, 4), unique=True))
    for h in range(n):
        if h not in gens and draw(st.booleans()):
            edges.update((min(h, x), max(h, x)) for x in gens)
    g = SimplicialGraph(names, [(names[i], names[j]) for i, j in edges])
    data = bytes(draw(st.lists(
        st.sampled_from([2 * x + s for x in gens for s in (0, 1)]),
        max_size=40)))
    return g, data


@given(narrow_words())
@settings(max_examples=300)
def test_canonicalize_matches_full_alphabet_scan(case):
    g, data = case
    assert _pykernel.canonicalize(data, g.masks) == \
        _full_alphabet_canonicalize(data, g.masks)


@st.composite
def run_words(draw):
    """Letter codes as tokens x^e (e from 1 to 50, at most 400 letters in
    all) over up to 24 generators, whose edges are drawn at a density from
    0 to 1, so that the normal form holds many long runs to cross, extend
    and cancel into."""
    n = draw(st.integers(min_value=1, max_value=24))
    density = draw(st.floats(min_value=0, max_value=1))
    rng = draw(st.randoms(use_true_random=False))
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    tokens = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=2 * n - 1),
        st.integers(min_value=1, max_value=50)), max_size=40))
    data = b"".join(bytes((x,)) * e for x, e in tokens)[:400]
    return data, tuple(masks)


@given(run_words())
@settings(max_examples=300, deadline=None)
def test_canonicalize_matches_two_phase_reference_on_runs(case):
    data, masks = case
    nf = _pykernel.canonicalize(data, masks)
    assert nf == _full_alphabet_canonicalize(data, masks)
    if len(data) <= 6:
        assert nf == _pykernel.closure_canonical(data, masks, 100_000)


_TOKEN = re.compile(r"([A-Za-z0-9_]+)(?:\^([+-]?[0-9]+))?\Z")


def _per_token_parse(graph, text):
    """`parse_word` matching the token pattern once per token, repeats
    included, and expanding the word letter by letter."""
    tokens = []
    total = 0
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise DomainError("malformed word token %r" % (tok,))
        name, digits = m.group(1), m.group(2) or "1"
        if name not in graph._index:
            raise DomainError("unknown generator %r" % (name,))
        sign = -1 if digits[0] == "-" else 1
        digits = digits.lstrip("+-").lstrip("0") or "0"
        cap = words.MAX_WORD_LETTERS
        count = int(digits) if len(digits) <= 20 else cap + 1
        total += count
        if total > cap:
            raise DomainError("word expands to more than %d letters" % cap)
        tokens.append(((name, sign), count))
    return Word(graph, tuple(
        letter for letter, count in tokens for _ in range(count)))


def _parsed(parse, graph, text):
    try:
        w = parse(graph, text)
    except Exception as exc:
        return type(exc), str(exc)
    # the codes a parsed word carries are those of its letters
    assert w._codes == _encode(graph, w.letters)
    return w.letters


# "a-b" names a vertex but is no token name, so it must stay malformed
TOKEN_NAMES = st.sampled_from(["a", "b", "c", "d", "z", "a_1", "", "é", "a-b"])
EXPONENTS = st.sampled_from([
    "", "^", "^1", "^-1", "^2", "^+3", "^-0", "^0", "^+0", "^007", "^-0002",
    "^+009", "^٣", "^1^2", "^-", "^12", "^99999999999999999999999"])


@given(st.lists(st.tuples(TOKEN_NAMES, EXPONENTS).map("".join),
                min_size=1, max_size=5),
       st.lists(st.integers(min_value=0, max_value=4), max_size=14))
@settings(max_examples=300)
def test_parse_word_matches_per_token_parser(pool, picks):
    # tokens repeat: each pick names one of a few distinct token texts
    text = " ".join(pool[i % len(pool)] for i in picks)
    g = SimplicialGraph(("a", "b", "c", "d", "a-b"), [("a", "b"), ("b", "c")])
    # a small cap, so that repeated tokens reach it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "MAX_WORD_LETTERS", 30)
        assert _parsed(parse_word, g, text) == \
            _parsed(_per_token_parse, g, text)


def _support_calling_descriptor(w, mode="pro-p"):
    """`centralizer_descriptor` taking the support of the reduced word
    from `support`, which canonicalizes it again."""
    g = w.graph
    red, conj = cyclically_reduce(w)
    supp = support(red)
    factors = []
    for part in join_factors(induced_subgraph(g, supp)):
        inside = set(part)
        piece = Word(g, tuple(l for l in red.letters if l[0] in inside))
        root, exponent = primitive_root(piece)
        factors.append(CentralizerFactor(part, root, exponent))
    return CentralizerDescriptor(g, mode, conj, tuple(factors), link(g, supp))


@given(st.one_of(graph_words(max_len=10), conjugated_words()),
       st.sampled_from(("pro-p", "pro-C")))
@settings(deadline=None)
def test_centralizer_descriptor_matches_support_calling_copy(gw, mode):
    _, w = gw
    assert centralizer_descriptor(w, mode) == \
        _support_calling_descriptor(w, mode)


def _assert_carries_its_codes(x):
    """A word has the codes of its letters, prints its letters, and equals
    the value rebuilt from its text through the public constructors (as
    `perfbench/ops.py` rebuilds a descriptor)."""
    g = x.graph
    assert x._codes == _encode(g, x.letters)
    text = " ".join(n if s > 0 else n + "^-1" for n, s in x.letters)
    assert word_text(x) == str(x) == text
    rebuilt = type(x)(g, parse_word(g, text).letters)
    assert rebuilt == x and hash(rebuilt) == hash(x)


@given(st.one_of(graph_words(), conjugated_words()),
       st.integers(min_value=-3, max_value=3))
@settings(deadline=None)
def test_engine_words_carry_their_codes(gw, k):
    _, w = gw
    nf = normal_form(w)
    red, conj = cyclically_reduce(w)
    d = centralizer_descriptor(w)
    built = [nf, red, conj, power(w, k), d.conjugator]
    built += [f.root for f in d.factors]
    if len(d.factors) == 1:
        built.append(primitive_root(red)[0])
    # engine-built words carry their codes and decode no letters until
    # these are read; printing and a normal form's length read the codes
    assert all("_codes" in vars(x) and "letters" not in vars(x)
               for x in built)
    assert nf.length() == len(nf._codes) and "letters" not in vars(nf)
    for x in built:
        copies = [copy.copy(x), pickle.loads(pickle.dumps(x))]
        str(x)
        assert "letters" not in vars(x)
        assert x.letters == _decode(x.graph, x._codes)
        for y in copies + [replace(x), type(x)(x.graph, x.letters)]:
            assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
    # a normal form's word carries the codes checked when the normal
    # form was built
    assert "_codes" in vars(nf.word)
    for x in built + [nf.word]:
        _assert_carries_its_codes(x)


@given(graph_words())
def test_caller_spellings_carry_their_codes(gw):
    # both public constructors keep the codes they checked the letters
    # into and drop the letters, however a caller holds them: every
    # spelling prints through the graph's alphabet, and equality, hashing
    # and copies see the one tuple `parse_word` gives. A caller's normal
    # form must be the normal form
    g, w = gw
    for cls, letters in ((Word, w.letters),
                         (NormalForm, normal_form(w).letters)):
        text = " ".join(n if s > 0 else n + "^-1" for n, s in letters)
        one = cls(g, letters)
        for held in (tuple, list, iter, lambda ls: [list(x) for x in ls]):
            x = cls(g, held(letters))
            assert "_codes" in vars(x) and "letters" not in vars(x)
            assert word_text(x) == text
            assert x == one and hash(x) == hash(one) and replace(x) == x
            assert x.letters == parse_word(g, text).letters
            assert type(x.letters) is tuple


# --- the centralizer ball against the per-word closure loop it replaced --


def _per_word_commuting(g, w, max_len, budget):
    """`commuting_words` deciding every ball word by its own closure."""
    masks = g.masks
    wc = bytes(_encode(g, w.letters))
    return [NormalForm(g, _decode(g, u))
            for u in _enumerated_ball(g, max_len, budget.max_states)
            if kernels.closure_equal(u + wc, wc + u, masks, budget.max_states)]


def test_oracle_answers_are_built_from_codes(monkeypatch):
    # the oracles hold their words as byte codes and build each answer
    # from them: no letter is decoded or encoded, and the codes are the
    # tuple of ints that `contains` concatenates with the conjugator's
    p5 = SimplicialGraph(tuple("abcde"), [("a", "b"), ("b", "c"),
                                          ("c", "d"), ("d", "e")])
    budget = OracleBudget()
    w = parse_word(p5, "b c^-1")
    calls = []
    for name in ("_decode", "_encode"):
        monkeypatch.setattr(words, name, lambda *a, f=getattr(words, name):
                            calls.append(a) or f(*a))
    ball = commuting_words(p5, w, 3, budget)
    roots = [brute_primitive_root(power(parse_word(p5, "a c"), 3)),
             brute_primitive_root(parse_word(p5, "a c e"))]
    assert calls == []
    monkeypatch.undo()
    enumerated = set(_enumerated_ball(p5, 3, budget.max_states))
    d = centralizer_descriptor(w)
    for u in ball + [root for root, _ in roots]:
        assert type(u._codes) is tuple and tuple(bytes(u._codes)) == u._codes
        assert bytes(u._codes) in enumerated
    assert all(d.contains(u.word) for u in ball)
    assert ball == _per_word_commuting(p5, w, 3, budget)
    assert roots == [(normal_form(parse_word(p5, "a c")), 3),
                     (normal_form(parse_word(p5, "a c e")), 1)]


def _small_connected_graphs():
    for n in range(1, 5):
        for g in exhaustive_graphs(n):
            if is_connected(g):
                yield g


def test_ball_is_factor_closed():
    # the split rule of `commuting_words` reads both parts of every split
    # from the words already decided
    for g in _small_connected_graphs():
        ball = _enumerated_ball(g, 3, 10**6)
        members = set(ball)
        for u in ball:
            assert all(u[i:j] in members
                       for i in range(len(u)) for j in range(i, len(u) + 1))


def test_commuting_words_matches_per_word_loop():
    # every word of length <= 2 over every connected graph of <= 4
    # vertices, against the closure loop at radius 3 cut to each radius
    budget = OracleBudget()
    for g in _small_connected_graphs():
        letters = range(2 * len(g.vertices))
        for n in range(3):
            for codes in product(letters, repeat=n):
                w = Word(g, _decode(g, codes))
                full = _per_word_commuting(g, w, 3, budget)
                for radius in range(4):
                    assert commuting_words(g, w, radius, budget) == \
                        [v for v in full if len(v.letters) <= radius]
    budget = OracleBudget(max_word_length=9)
    rng = random.Random(0xC0B)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(5, 7),
                                   rng.random() * 0.6)
        w = random_word(rng, g, rng.randrange(0, 5))
        radius = rng.randrange(2, 5)
        assert commuting_words(g, w, radius, budget) == \
            _per_word_commuting(g, w, radius, budget)


def _depth_first_ball(g, max_len, max_states):
    """`_enumerated_ball` as a depth-first walk over canonical prefixes,
    sorted at the end."""
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
    return tuple(out)


def _ball_outcome(enumerate_ball, g, max_len, max_states):
    try:
        return enumerate_ball(g, max_len, max_states)
    except BudgetExceededError as exc:
        return "refused", exc.dimension, exc.consumed, exc.limit


def test_ball_matches_depth_first_enumeration():
    # the ball grown radius by radius holds the same words in the same
    # order as the depth-first walk, and refuses under the same caps
    for g in _small_connected_graphs():
        for radius in range(4):
            assert _enumerated_ball(g, radius, 10**6) == \
                _depth_first_ball(g, radius, 10**6)
        for cap in (1, 2, 3, 5):
            assert _ball_outcome(_enumerated_ball, g, 3, cap) == \
                _ball_outcome(_depth_first_ball, g, 3, cap)
    rng = random.Random(0xBA11)
    for _ in range(4):
        g = random_connected_graph(rng, rng.randrange(5, 8),
                                   0.2 + rng.random() * 0.4)
        assert _enumerated_ball(g, 4, 10**6) == \
            _depth_first_ball(g, 4, 10**6)
        assert _ball_outcome(_enumerated_ball, g, 4, 4) == \
            _ball_outcome(_depth_first_ball, g, 4, 4)


def _commuting_outcome(find, g, w, radius, budget):
    try:
        return find(g, w, radius, budget)
    except BudgetExceededError as exc:
        return "refused", exc.dimension, exc.consumed, exc.limit


def test_commuting_words_refuses_only_where_the_per_word_loop_does():
    # skipped closures never add a refusal: under any state cap the ball
    # either matches the per-word loop or both refuse alike. They can
    # remove one: x y is w and x does not commute with it, so x^-1 needs
    # no closure, where its own would need a third state
    for g in _small_connected_graphs():
        if len(g.vertices) > 3:
            continue
        letters = range(2 * len(g.vertices))
        for n in range(3):
            for codes in product(letters, repeat=n):
                w = Word(g, _decode(g, codes))
                for cap in (2, 3, 4, 6, 8):
                    budget = OracleBudget(max_states=cap)
                    got = _commuting_outcome(commuting_words, g, w, 2, budget)
                    loop = _commuting_outcome(_per_word_commuting, g, w, 2,
                                              budget)
                    assert got == loop or got[0] != "refused" == loop[0]
    free2 = SimplicialGraph(("x", "y"), [])
    w = parse_word(free2, "x y")
    budget = OracleBudget(max_states=2)
    assert [str(u) for u in commuting_words(free2, w, 1, budget)] == [""]
    assert _commuting_outcome(_per_word_commuting, free2, w, 1, budget) == \
        ("refused", "max_states", 3, 2)


def _name_set_contains(d, cand):
    """`CentralizerDescriptor.contains` rebuilding its generator name sets
    and inverse roots on every call."""
    words._same_graph(d, cand)
    g = d.graph
    masks = g.masks
    t = d.conjugator._codes
    shifted = kernels.canonicalize(
        tuple(b ^ 1 for b in reversed(t)) + cand._codes + t, masks)
    allowed = set(d.link_part)
    for f in d.factors:
        allowed.update(f.support)
    idx = g._index
    if any(g.vertices[b >> 1] not in allowed for b in shifted):
        return False
    for f in d.factors:
        members = {idx[v] for v in f.support}
        coord = kernels.canonicalize(
            tuple(b for b in shifted if (b >> 1) in members), masks)
        if not coord:
            continue
        root = f.root._codes
        if len(coord) % len(root):
            return False
        m = len(coord) // len(root)
        inv = tuple(b ^ 1 for b in reversed(root))
        if coord != kernels.canonicalize(root * m, masks) and \
           coord != kernels.canonicalize(inv * m, masks):
            return False
    return True


def _drawn_word(data, g, max_len):
    return Word(g, tuple(data.draw(st.lists(
        st.tuples(st.sampled_from(g.vertices), st.sampled_from((1, -1))),
        max_size=max_len))))


@given(graph_words(max_n=4, max_len=3), st.data())
@settings(max_examples=200, deadline=None)
def test_contains_matches_per_call_name_sets(gw, data):
    # conjugated and trivial descriptors in both modes, against members
    # built from their parts and against random words
    g, c = gw
    u = _drawn_word(data, g, 3)
    mode = data.draw(st.sampled_from(("pro-p", "pro-C")))
    d = centralizer_descriptor(u * c * u.inverse(), mode)
    trivial = centralizer_descriptor(Word(g, ()), mode)
    t = d.conjugator
    parts = [power(f.root.word, data.draw(st.integers(-2, 2)))
             for f in d.factors]
    parts += [Word(g, ((v, data.draw(st.sampled_from((1, -1)))),))
              for v in d.link_part]
    member = t * Word(g, sum((p.letters for p in
                              data.draw(st.permutations(parts))), ())) \
        * t.inverse()
    cands = [member, u * c * u.inverse()] + \
        [_drawn_word(data, g, 6) for _ in range(3)]
    for desc in (d, trivial):
        for x in cands:
            assert desc.contains(x) == _name_set_contains(desc, x)
    assert d.contains(member)
    # a replaced descriptor computes its own membership data
    for other in (replace(d, conjugator=Word(g, ())),
                  replace(d, factors=d.factors[1:]),
                  replace(trivial, conjugator=u)):
        assert "_membership" not in vars(other)
        for x in cands:
            assert other.contains(x) == _name_set_contains(other, x)
    elsewhere = SimplicialGraph(("a", "z"), [])
    with pytest.raises(DomainError):
        d.contains(Word(elsewhere, (("z", 1),)))

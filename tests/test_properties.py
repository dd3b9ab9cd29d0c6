from hypothesis import given, settings, strategies as st

from raagdecomp import (SimplicialGraph, Word, bfs_equal,
                        centralizer_descriptor, cyclically_reduce, equal,
                        graph_to_dot, normal_form, parse_graph, power,
                        support, word_text)
from raagdecomp import kernels, _pykernel
from raagdecomp.words import _encode


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
        _pykernel.closure_canonical(data, g.masks, 1_000_000)


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
    conj = bytearray()
    while True:
        front = _front_movable(cur, masks)
        rear = _front_movable(cur[::-1], masks)
        pairs = [(x, i, len(cur) - 1 - rear[x ^ 1])
                 for x, i in front.items() if x ^ 1 in rear]
        if not pairs:
            return cur, bytes(conj)
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
    from raagdecomp import parse_word
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

import inspect
from itertools import combinations, combinations_with_replacement, product
import os
from pathlib import Path
import subprocess
import sys
import textwrap

import pytest

from raagdecomp import (BudgetExceededError, DomainError, OracleBudget,
                        SimplicialGraph, bfs_equal, brute_atoms,
                        brute_clique_separators, brute_primitive_root,
                        clique_separators, commuting_words, equal,
                        exhaustive_graphs, is_connected, parse_word)
from raagdecomp import kernels, oracles
from raagdecomp.oracles import _enumerated_ball, _grown_ball, _moves, _rigid

SRC = Path(__file__).resolve().parent.parent / "src"


def _path_of_five():
    return SimplicialGraph(tuple("abcde"),
                           [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])


class TestBudget:
    def test_defaults(self):
        b = OracleBudget()
        assert (b.max_vertices, b.max_word_length, b.max_states) == \
            (8, 6, 1_000_000)


class TestBruteSeparators:
    def test_matches_fast_path_exhaustively_to_five(self):
        for n in range(1, 6):
            for g in exhaustive_graphs(n):
                if is_connected(g):
                    assert brute_clique_separators(g) == clique_separators(g)

    def test_shares_no_graph_layer_function(self):
        # the oracle answers its component and clique questions itself, so
        # a fault in the graph layer cannot make both sides agree on it
        from raagdecomp import graphs, oracles
        layer = {id(f) for f in vars(graphs).values() if inspect.isfunction(f)}
        assert [name for name, f in vars(oracles).items()
                if id(f) in layer] == []

    def test_rejects_disconnected(self):
        with pytest.raises(DomainError, match="connected"):
            brute_clique_separators(SimplicialGraph(("a", "b"), []))

    def test_vertex_budget(self):
        g = SimplicialGraph(tuple("abcdefghi"),
                            [("a", x) for x in "bcdefghi"])
        with pytest.raises(BudgetExceededError) as info:
            brute_clique_separators(g)
        assert info.value.dimension == "max_vertices"

    def test_empty_graph(self):
        assert brute_clique_separators(SimplicialGraph((), [])) == []


class TestBruteAtoms:
    def test_small_graphs(self, p4, c4, tri_tail):
        assert brute_atoms(p4) == [("a", "b"), ("b", "c"), ("c", "d")]
        assert brute_atoms(c4) == [("a", "b", "c", "d")]
        assert brute_atoms(tri_tail) == [("a", "b", "c"), ("c", "d")]
        # atoms of a disconnected graph are those of its components
        two = SimplicialGraph(("a", "b", "c"), [("a", "b")])
        assert brute_atoms(two) == [("a", "b"), ("c",)]

    def test_empty_graph(self):
        assert brute_atoms(SimplicialGraph((), [])) == []

    def test_vertex_budget(self):
        g = SimplicialGraph(tuple("abcdefghi"), [])
        with pytest.raises(BudgetExceededError) as info:
            brute_atoms(g)
        assert (info.value.dimension, info.value.consumed,
                info.value.limit) == ("max_vertices", 9, 8)
        assert len(brute_atoms(g, OracleBudget(max_vertices=9))) == 9


class TestBfsEqual:
    def test_agrees_with_engine_on_basics(self, p4):
        pairs = [("a b", "b a"), ("a c", "c a"), ("c d c^-1", "d"),
                 ("a a^-1", ""), ("b c b^-1 c^-1", ""), ("a b c", "b a c")]
        for left, right in pairs:
            w1, w2 = parse_word(p4, left), parse_word(p4, right)
            assert bfs_equal(w1, w2) == equal(w1, w2)

    def test_cross_graph_rejected(self, p4, k3):
        with pytest.raises(DomainError):
            bfs_equal(parse_word(p4, "a"), parse_word(k3, "a"))

    def test_word_length_budget(self, p4):
        long = parse_word(p4, "a^7")
        with pytest.raises(BudgetExceededError) as info:
            bfs_equal(long, long)
        assert info.value.dimension == "max_word_length"
        assert (info.value.consumed, info.value.limit) == (14, 12)

    def test_state_budget(self, k3):
        tight = OracleBudget(max_states=2)
        with pytest.raises(BudgetExceededError) as info:
            bfs_equal(parse_word(k3, "a b c"), parse_word(k3, "c b a"), tight)
        assert info.value.dimension == "max_states"
        assert (info.value.consumed, info.value.limit) == (3, 2)

    def test_closures_take_at_most_128_generators(self):
        # the closures hold one byte per letter; past 128 generators even
        # a word over the first ones is refused, not a ValueError
        for n, refused in ((128, False), (129, True), (200, True)):
            g = SimplicialGraph(["v%03d" % i for i in range(n)], [])
            a, b = parse_word(g, "v000 v001"), parse_word(g, "v001 v000")
            if not refused:
                assert not bfs_equal(a, b)
                continue
            with pytest.raises(DomainError, match="one byte per letter"):
                bfs_equal(a, b)
            with pytest.raises(DomainError, match="one byte per letter"):
                commuting_words(g, a, 1, OracleBudget(max_vertices=n))


class TestBrutePrimitiveRoot:
    path = SimplicialGraph(("a", "b", "c"), [("a", "b"), ("b", "c")])

    def test_refuses_a_word_past_max_word_length(self):
        with pytest.raises(BudgetExceededError) as info:
            brute_primitive_root(parse_word(self.path, "a c a c a c a"))
        e = info.value
        assert str(e) == "word length 7 exceeds max_word_length=6"
        assert (e.dimension, e.consumed, e.limit) == ("max_word_length", 7, 6)

    def test_refuses_the_trivial_word(self):
        with pytest.raises(DomainError) as info:
            brute_primitive_root(parse_word(self.path, "a a^-1"))
        assert str(info.value) == \
            "brute_primitive_root requires a nontrivial word"


class TestEnumeratedBall:
    def test_free_group_counts(self):
        g = SimplicialGraph(("a", "b"), [])
        # reduced words over 4 letters: 1, 4, 12
        assert len(_enumerated_ball(g, 2, 10_000)) == 17

    def test_abelian_counts(self):
        g = SimplicialGraph(("a", "b"), [("a", "b")])
        # lattice points of Z^2 with L1 norm at most 2
        assert len(_enumerated_ball(g, 2, 10_000)) == 13

    def test_cache_keeps_the_state_cap(self):
        # a ball enumerated under a large cap is not served to a call
        # whose cap refuses it
        g = SimplicialGraph(("a", "b", "c"), [("a", "b"), ("b", "c")])
        assert len(_enumerated_ball(g, 3, 10**6)) == 99
        with pytest.raises(BudgetExceededError) as info:
            _enumerated_ball(g, 3, 1)
        assert info.value.dimension == "max_states"

    def test_ball_is_shortlex_sorted(self, p4):
        ball = _enumerated_ball(p4, 3, 100_000)
        assert list(ball) == sorted(ball, key=lambda b: (len(b), b))


class TestCommutingWords:
    def test_path_center(self, p4):
        got = [str(u) for u in commuting_words(p4, parse_word(p4, "b"), 1)]
        assert got == ["", "a", "a^-1", "b", "b^-1", "c", "c^-1"]

    def test_identity_commutes_with_everything(self, p4):
        got = commuting_words(p4, parse_word(p4, ""), 1)
        assert len(got) == 9

    def test_product_of_ends(self, p4):
        got = [str(u) for u in commuting_words(p4, parse_word(p4, "a c"), 1)]
        assert got == ["", "b", "b^-1"]

    def test_wrong_graph(self, p4, k3):
        with pytest.raises(DomainError):
            commuting_words(p4, parse_word(k3, "a"), 1)

    def test_radius_budget(self, p4):
        with pytest.raises(BudgetExceededError) as info:
            commuting_words(p4, parse_word(p4, "a b c"), 4)
        assert info.value.dimension == "max_word_length"

    def test_bad_radius_refused(self):
        # -1 + |w| passes max_word_length, and a ball grown towards radius
        # -1 or 1.5 never stops; so the calls run in a child process with
        # 512 MB of address space and 5 s, which such a ball cannot outgrow
        script = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
            from raagdecomp import (DomainError, SimplicialGraph,
                                    commuting_words, parse_word)
            g = SimplicialGraph(("a", "b"), [])
            for radius in (-1, 1.5, "2", None):
                try:
                    commuting_words(g, parse_word(g, "a"), radius)
                except DomainError as exc:
                    print(exc)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=5)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines() == [
            "radius must be an int >= 0, got %s" % r
            for r in ("-1", "1.5", "'2'", "None")]

    def test_bad_radius_checked_before_the_budgets(self):
        nine = SimplicialGraph(tuple("abcdefghi"), [])
        with pytest.raises(DomainError, match="radius"):
            commuting_words(nine, parse_word(nine, "a"), -1)
        with pytest.raises(DomainError, match="radius"):
            commuting_words(nine, parse_word(nine, "a b c d e f g"), -1.5)

    def test_closure_refusal_propagates(self):
        # the closure of a single letter against "a b c d a" on K4 needs a
        # fourth state; skipping closures must not swallow that refusal
        k4 = SimplicialGraph(tuple("abcd"), list(combinations("abcd", 2)))
        with pytest.raises(BudgetExceededError) as info:
            commuting_words(k4, parse_word(k4, "a b c d a"), 1,
                            OracleBudget(max_states=3))
        assert (info.value.dimension, info.value.consumed,
                info.value.limit) == ("max_states", 4, 3)

    def test_splits_decide_most_words(self, monkeypatch):
        # on the path a-b-c-d-e, most words of the radius-4 ball around c
        # are settled by a split with a commuting part or by an inverse
        # already found not to commute, not by a closure
        p5 = _path_of_five()
        calls = []
        closure_equal = kernels.closure_equal

        def counted(*args):
            calls.append(args)
            return closure_equal(*args)

        monkeypatch.setattr(kernels, "closure_equal", counted)
        commuting_words(p5, parse_word(p5, "c"), 4)
        ball = _enumerated_ball(p5, 4, OracleBudget().max_states)
        assert len(calls) <= len(ball) // 2
        # the splits and the inverses leave 566 of the 4,265 words to
        # check; rigid letters decide 289 of those and retractions all but
        # 21 of the rest, so 21 closures
        assert len(calls) <= 221

    def test_inverse_pairs_take_one_closure(self, monkeypatch):
        # a rigid word found not to commute settles its inverse, whose
        # reversed, inverted spelling is rigid and so canonical: of each
        # such pair only the first in the ball is checked
        checked = {}
        same_element = oracles._same_element

        def recording(masks, retractions, cap, a, b, rigid):
            verdict = same_element(masks, retractions, cap, a, b, rigid)
            checked[a[:len(a) - tail]] = verdict
            return verdict

        monkeypatch.setattr(oracles, "_same_element", recording)
        p5 = _path_of_five()
        k4 = SimplicialGraph(tuple("abcd"), [("a", "b"), ("a", "c"),
                                             ("b", "c"), ("c", "d")])
        c5 = SimplicialGraph(tuple("abcde"), [("a", "b"), ("b", "c"),
                                              ("c", "d"), ("d", "e"),
                                              ("a", "e")])
        settled = 0
        for g, text, radius in ((p5, "c", 4), (p5, "a b^-1", 3),
                                (k4, "a d", 3), (c5, "a c^-1", 3),
                                (c5, "", 2)):
            w = parse_word(g, text)
            tail = len(w.letters)
            checked.clear()
            commuting_words(g, w, radius)
            moves = _moves(g.masks)
            for u, verdict in checked.items():
                if _rigid(moves, u) and not verdict:
                    assert bytes(x ^ 1 for x in reversed(u)) not in checked
                    settled += 1
        # 510 rigid words in these balls do not commute, none of them with
        # its inverse checked; a non-rigid word's inverse gets its own check
        assert settled == 510


def _connected_graphs_to_four():
    for n in range(1, 5):
        for g in exhaustive_graphs(n):
            if is_connected(g):
                yield g


class TestRigidWords:
    # a rigid word, one that no elementary move applies to, is its own
    # closure; the oracles decide such words without a closure call

    def test_rigid_exactly_when_the_kernel_closure_holds_one_word(self):
        # with a cap of one state, the kernel closure refuses exactly when
        # some move applies: the oracle's move rule is the kernels' table
        for g in _connected_graphs_to_four():
            moves = _moves(g.masks)
            letters = range(2 * len(g.vertices))
            for n in range(5):
                for codes in product(letters, repeat=n):
                    word = bytes(codes)
                    try:
                        kernels.closure_canonical(word, g.masks, 1)
                        alone = True
                    except BudgetExceededError:
                        alone = False
                    assert _rigid(moves, word) == alone, (g.edges, codes)

    def test_ball_flags_follow_the_move_rule(self):
        for g in _connected_graphs_to_four():
            ball, rigid = _grown_ball(g, 3, 10**6)
            moves = _moves(g.masks)
            assert [_rigid(moves, u) for u in ball] == \
                [bool(f) for f in rigid[:len(ball)]]

    def test_rigid_words_get_no_closure(self, monkeypatch):
        # on the path a-b-c-d-e, 2,472 of the 4,496 candidates of the
        # radius-4 ball are rigid, and 289 of the 566 commutation checks
        # around c are between rigid words: none of them reaches a kernel;
        # retractions settle all but 21 of the others
        p5 = _path_of_five()
        moves = _moves(p5.masks)
        canonical, equal_calls = [], []
        closure_canonical = kernels.closure_canonical
        closure_equal = kernels.closure_equal

        def counted_canonical(word, masks, max_states):
            canonical.append(word)
            return closure_canonical(word, masks, max_states)

        def counted_equal(a, b, masks, max_states):
            equal_calls.append((a, b))
            return closure_equal(a, b, masks, max_states)

        monkeypatch.setattr(kernels, "closure_canonical", counted_canonical)
        monkeypatch.setattr(kernels, "closure_equal", counted_equal)
        oracles._balls.cache_clear()
        ball = _enumerated_ball(p5, 4, OracleBudget().max_states)
        assert (len(ball), len(canonical)) == (4265, 2024)
        assert not any(_rigid(moves, word) for word in canonical)
        canonical.clear()
        commuting_words(p5, parse_word(p5, "c"), 4)
        assert len(equal_calls) == 21
        assert not any(_rigid(moves, a) and _rigid(moves, b)
                       for a, b in equal_calls)
        assert not any(_rigid(moves, word) for word in canonical)

    def test_one_word_closures_never_refuse(self):
        # a one-word closure adds no state, so even a cap of one state
        # lets rigid words through; this held before rigid words skipped
        # their closures too
        g = SimplicialGraph(("a", "b"), [])
        one = OracleBudget(max_states=1)
        assert len(_enumerated_ball(g, 2, 1)) == 17
        assert not bfs_equal(parse_word(g, "a b"), parse_word(g, "b a"), one)


def _words_to_three(g):
    letters = range(2 * len(g.vertices))
    return [bytes(codes) for n in range(4)
            for codes in product(letters, repeat=n)]


class TestRetractions:
    # `_apart` compares exponent sums and free-group images on
    # non-adjacent pairs, so words it calls apart are unequal

    def test_apart_words_are_unequal(self):
        # equal words share a closure-canonical form, so the pairs inside
        # one class are all the pairs closure_equal says True on: none of
        # them may be called apart, over every pair of words of at most 3
        # letters on every connected graph of at most 4 vertices
        checked = 0
        for g in _connected_graphs_to_four():
            retractions = oracles._retractions(g.masks)
            classes = {}
            for word in _words_to_three(g):
                canonical = kernels.closure_canonical(word, g.masks, 10**6)
                classes.setdefault(canonical, []).append(word)
            for members in classes.values():
                for a, b in product(members, repeat=2):
                    assert kernels.closure_equal(a, b, g.masks, 10**6)
                    assert not oracles._apart(retractions, a, b), \
                        (g.edges, a, b)
                checked += len(members) ** 2
        assert checked == 170_496

    def test_adjacent_generators_are_not_a_free_pair(self):
        # a b = b a on an edge; read as free, the pair would tell them apart
        edge = SimplicialGraph(("a", "b"), [("a", "b")])
        free = SimplicialGraph(("a", "b"), [])
        ab, ba = b"\x00\x02", b"\x02\x00"
        assert not oracles._apart(oracles._retractions(edge.masks), ab, ba)
        assert oracles._apart(oracles._retractions(free.masks), ab, ba)

    def test_decides_free_and_abelian_groups_of_rank_two(self):
        # on two generators the group is Z^2 or F(a, b), which the
        # exponent sums or the pair's free reduction decide outright
        for g in (SimplicialGraph(("a", "b"), [("a", "b")]),
                  SimplicialGraph(("a", "b"), [])):
            retractions = oracles._retractions(g.masks)
            words = _words_to_three(g)
            canonical = {w: kernels.closure_canonical(w, g.masks, 10**6)
                         for w in words}
            for a, b in product(words, repeat=2):
                assert oracles._apart(retractions, a, b) == \
                    (canonical[a] != canonical[b])

    def test_commutation_checks_left_to_closures(self, monkeypatch):
        # on the path a-b-c-d-e, 21 of the commutation checks on the
        # radius-4 ball around c reach closure_equal: the retractions
        # separate every other one that the splits and rigid letters leave
        p5 = _path_of_five()
        calls = []
        closure_equal = kernels.closure_equal

        def counted(a, b, masks, max_states):
            calls.append((a, b))
            return closure_equal(a, b, masks, max_states)

        monkeypatch.setattr(kernels, "closure_equal", counted)
        commuting_words(p5, parse_word(p5, "c"), 4)
        verdicts = [closure_equal(a, b, p5.masks, 10**6) for a, b in calls]
        assert (len(calls), verdicts.count(True)) == (21, 5)


class TestSameElement:
    def test_agrees_with_closure_equal(self):
        # every pair of words of at most 3 letters on every connected
        # graph of at most 4 vertices, rigid only when both words are;
        # equal closure-canonical forms stand in for closure_equal, which
        # TestRetractions runs on every pair they call equal
        checked = 0
        for g in _connected_graphs_to_four():
            moves = _moves(g.masks)
            retractions = oracles._retractions(g.masks)
            words = _words_to_three(g)
            canonical = {w: kernels.closure_canonical(w, g.masks, 10**6)
                         for w in words}
            rigid = {w: _rigid(moves, w) for w in words}
            # the rule is symmetric in its two words
            wrong = [(a, b) for a, b in combinations_with_replacement(words, 2)
                     if oracles._same_element(g.masks, retractions, 10**6, a, b,
                                              rigid[a] and rigid[b])
                     != (canonical[a] == canonical[b])]
            assert wrong == [], g.edges
            checked += len(words) * (len(words) + 1) // 2
        assert checked == 6_651_845


class TestExhaustiveGraphs:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 8), (4, 64)])
    def test_counts(self, n, count):
        assert sum(1 for _ in exhaustive_graphs(n)) == count

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 4), (4, 38)])
    def test_connected_counts(self, n, count):
        assert sum(1 for g in exhaustive_graphs(n) if is_connected(g)) == count

    def test_cap(self):
        with pytest.raises(BudgetExceededError) as info:
            list(exhaustive_graphs(8))
        assert info.value.dimension == "n"

    def test_negative(self):
        with pytest.raises(DomainError):
            list(exhaustive_graphs(-1))

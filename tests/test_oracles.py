import pytest

from raagdecomp import (BudgetExceededError, DomainError, OracleBudget,
                        SimplicialGraph, bfs_equal, brute_clique_separators,
                        clique_separators, commuting_words, default_budget,
                        equal, exhaustive_graphs, is_connected, parse_word)
from raagdecomp.oracles import _enumerated_ball


class TestBudget:
    def test_defaults(self):
        b = OracleBudget()
        assert (b.max_vertices, b.max_word_length, b.max_states) == \
            (8, 6, 1_000_000)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("RAAGDECOMP_ORACLE_BUDGET",
                           "max_word_length=9, max_states=5000")
        b = default_budget()
        assert b.max_word_length == 9
        assert b.max_states == 5000
        assert b.max_vertices == 8

    def test_from_env_unknown_key(self, monkeypatch):
        monkeypatch.setenv("RAAGDECOMP_ORACLE_BUDGET", "max_wrds=3")
        with pytest.raises(DomainError, match="max_wrds"):
            default_budget()

    def test_from_env_bad_value(self, monkeypatch):
        monkeypatch.setenv("RAAGDECOMP_ORACLE_BUDGET", "max_states=many")
        with pytest.raises(DomainError, match="integer"):
            default_budget()


class TestBruteSeparators:
    def test_matches_fast_path_exhaustively_to_five(self):
        for n in range(1, 6):
            for g in exhaustive_graphs(n):
                if is_connected(g):
                    assert brute_clique_separators(g) == clique_separators(g)

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


class TestEnumeratedBall:
    def test_free_group_counts(self):
        g = SimplicialGraph(("a", "b"), [])
        # reduced words over 4 letters: 1, 4, 12
        assert len(_enumerated_ball(g, 2, 10_000)) == 17

    def test_abelian_counts(self):
        g = SimplicialGraph(("a", "b"), [("a", "b")])
        # lattice points of Z^2 with L1 norm at most 2
        assert len(_enumerated_ball(g, 2, 10_000)) == 13

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

import pytest

from raagdecomp import (BudgetExceededError, CentralizerDescriptor,
                        DomainError, NormalForm, SimplicialGraph, Word,
                        centralizer_descriptor, cyclically_reduce, equal,
                        normal_form, parse_word, power, primitive_root,
                        retract, support, word_text, words)
from raagdecomp.words import MAX_WORD_LETTERS, _encode


def w(g, text):
    return parse_word(g, text)


class TestParsing:
    def test_tokens_and_exponents(self, p4):
        assert w(p4, "a b^-1 c^3").letters == (
            ("a", 1), ("b", -1), ("c", 1), ("c", 1), ("c", 1))
        assert w(p4, "a^-2").letters == (("a", -1), ("a", -1))
        assert w(p4, "").letters == ()

    def test_only_token_names_enter_the_alphabet(self):
        # beside names the token pattern refuses, "a^-1" still spells a's
        # inverse and not the generator named "a^-1"
        g = SimplicialGraph(("a", "a^-1", "b-c", "d"), [])
        assert w(g, "a^-1 d a").letters == (("a", -1), ("d", 1), ("a", 1))
        for tok in ("b-c", "b-c^-1"):
            with pytest.raises(DomainError, match="malformed word token"):
                w(g, tok)
        assert str(w(g, "d^-1 a")) == "d^-1 a"

    def test_unknown_generator(self, p4):
        with pytest.raises(DomainError, match="'z'"):
            w(p4, "a z")

    def test_malformed_token(self, p4):
        with pytest.raises(DomainError, match="malformed"):
            w(p4, "a^")

    @pytest.mark.parametrize("tok", ["a^\u0663", "a^\uff12",
                                     "a^" + "\u0660" * 25 + "1"])
    def test_exponent_digits_are_ascii(self, p4, tok):
        # Arabic-Indic 3, fullwidth 2, and Arabic-Indic zeros before a 1
        with pytest.raises(DomainError) as info:
            w(p4, tok)
        assert str(info.value) == "malformed word token %r" % tok

    def test_length_cap_checked_before_expanding(self, p4):
        half = MAX_WORD_LETTERS // 2
        with pytest.raises(DomainError, match="more than %d letters"
                           % MAX_WORD_LETTERS):
            w(p4, "a^%d b^-%d" % (half, MAX_WORD_LETTERS - half + 1))

    def test_exponent_longer_than_int_parsing_allows(self, p4):
        # int() refuses strings of more than 4300 digits with ValueError
        with pytest.raises(DomainError, match="more than"):
            w(p4, "a^" + "9" * 5000)
        assert w(p4, "a^-" + "0" * 5000 + "2").letters == (("a", -1),) * 2

    def test_word_text_round_trip(self, p4):
        text = "a b^-1 b^-1 d"
        assert word_text(w(p4, text)) == text

    def test_bad_letter_sign(self, p4):
        with pytest.raises(DomainError):
            Word(p4, (("a", 2),))

    def test_unknown_letter_name(self, p4):
        with pytest.raises(DomainError, match="unknown generator 'zzz'"):
            Word(p4, (("zzz", 1),))

    @pytest.mark.parametrize("letters, message", [
        (["a"], "each letter must be a (name, sign) pair, got 'a'"),
        ([("a",)], "each letter must be a (name, sign) pair, got ('a',)"),
        ([("a", 1, 2)],
         "each letter must be a (name, sign) pair, got ('a', 1, 2)"),
        ([("a", 1), 1], "each letter must be a (name, sign) pair, got 1"),
        ([(["a"], 1)],
         "each letter must be a (name, sign) pair, got (['a'], 1)"),
        ("ab", "each letter must be a (name, sign) pair, got 'a'"),
        (None, "letters must be (name, sign) pairs, got None"),
        ([("zz", 2), ("a",)], "letter sign must be +1 or -1, got 2")],
        ids=["name alone", "one item", "three items", "int", "list name",
             "string", "None", "sign first"])
    def test_malformed_letters(self, p4, letters, message):
        # a letter's shape is checked before its sign and name, and a bad
        # one is named in a DomainError, not left to unpacking or hashing
        for cls in (Word, NormalForm):
            with pytest.raises(DomainError) as info:
                cls(p4, letters)
            assert str(info.value) == message

    def test_cross_graph_product_rejected(self, p4, k3):
        with pytest.raises(DomainError):
            w(p4, "a") * w(k3, "a")


class TestNormalForm:
    def test_word_encodes_its_letters_once(self, p4, monkeypatch):
        # the constructor checks the letters by encoding them and keeps
        # the codes, so later engine calls encode nothing
        seen = []
        encode = words._encode
        monkeypatch.setattr(words, "_encode",
                            lambda g, letters: seen.append(letters)
                            or encode(g, letters))
        word = Word(p4, (("a", 1), ("c", -1), ("b", 1)))
        assert str(normal_form(word)) == str(normal_form(word)) == "a b c^-1"
        assert len(seen) == 1

    def test_free_cancellation(self, p4):
        assert str(normal_form(w(p4, "a a^-1"))) == ""
        assert str(normal_form(w(p4, "c a b b^-1 a^-1"))) == "c"

    def test_commuting_letters_sort(self, p4):
        # a and b commute in the path, a and c do not
        assert str(normal_form(w(p4, "b a"))) == "a b"
        assert str(normal_form(w(p4, "c a"))) == "c a"

    def test_hidden_cancellation_through_commuting_block(self, p4):
        # d commutes with c, letting the c pair cancel
        assert str(normal_form(w(p4, "c d c^-1"))) == "d"

    def test_shortlex_least_geodesic(self, k3):
        # all letters commute, so the normal form is the sorted spelling
        assert str(normal_form(w(k3, "c b a c"))) == "a b c c"

    def test_inverse_letter_order(self, p4):
        # positive letter sorts before its own inverse
        assert str(normal_form(w(p4, "b^-1 a"))) == "a b^-1"
        assert str(normal_form(w(p4, "b a^-1"))) == "a^-1 b"
        assert str(normal_form(w(p4, "a^-1 b a"))) == "b"

    def test_equal(self, p4):
        assert equal(w(p4, "a b"), w(p4, "b a"))
        assert not equal(w(p4, "a c"), w(p4, "c a"))
        assert equal(w(p4, "c d c^-1 d^-1"), w(p4, ""))

    def test_generator_past_the_128th_answered(self):
        g = SimplicialGraph(["v%03d" % i for i in range(130)], [])
        assert str(normal_form(w(g, "v127^-1 v000"))) == "v127^-1 v000"
        nf = normal_form(w(g, "v129 v128 v129^-1 v128^-1 v128 v000"))
        assert str(nf) == "v129 v128 v129^-1 v000"
        assert nf._codes == (258, 256, 259, 0)
        assert str(w(g, "v128 v000^-1")) == "v128 v000^-1"
        # a caller's normal form is checked at construction
        with pytest.raises(DomainError) as info:
            NormalForm(g, (("v129", -1), ("zzz", 1)))
        assert str(info.value) == "unknown generator 'zzz'"
        assert NormalForm(g, (("v129", -1), ("v000", 1))).length() == 2

    @pytest.mark.parametrize("letter, message", [
        (("a", 0), "letter sign must be +1 or -1, got 0"),
        (("a", 2), "letter sign must be +1 or -1, got 2"),
        (("zz", 1), "unknown generator 'zz'")])
    def test_caller_normal_form_letters_are_checked(self, p4, letter,
                                                    message):
        # both public constructors check a caller's letters, with the same
        # texts, so no engine call or printing ever meets an unchecked one
        for cls in (Word, NormalForm):
            with pytest.raises(DomainError) as info:
                cls(p4, (("a", 1), letter))
            assert str(info.value) == message

    @pytest.mark.parametrize("text", ["b a", "a a^-1"])
    def test_caller_normal_form_must_be_the_normal_form(self, p4, text):
        # no second way to make a normal form: a caller's letters that are
        # not one are refused, not canonicalized
        with pytest.raises(DomainError, match="not the normal form"):
            NormalForm(p4, w(p4, text).letters)

    def test_equal_rejects_cross_graph(self, p4, k3):
        with pytest.raises(DomainError):
            equal(w(p4, "a"), w(k3, "a"))

    def test_spellings_compare_their_codes(self, p4, k3):
        # == and hash read the type, graph and codes: comparing decodes no
        # letter, and a Word never equals the NormalForm of its letters
        u, v = w(p4, "a c^-1 b"), w(p4, "a c^-1 b")
        assert u == v and hash(u) == hash(v)
        assert "letters" not in vars(u) and "letters" not in vars(v)
        assert u != w(p4, "a c^-1 b^-1") and u != w(k3, "a c^-1 b")
        assert Word(p4, (("a", 1), ("c", -1), ("b", 1))) == u
        nf = normal_form(w(p4, "b a"))
        assert nf == NormalForm(p4, (("a", 1), ("b", 1)))
        assert hash(nf) == hash(NormalForm(p4, (("a", 1), ("b", 1))))
        assert nf != nf.word and nf.word != nf and u != "a c^-1 b"
        assert len({u, v, nf, nf.word}) == 3


class TestSupportAndRetract:
    def test_support_drops_cancelled_letters(self, p4):
        assert support(w(p4, "a b a^-1")) == ("b",)
        assert support(w(p4, "a c")) == ("a", "c")
        assert support(w(p4, "")) == ()

    def test_retract_kills_outside_letters(self, p4):
        r = retract(w(p4, "a c b a"), {"a", "b"})
        assert r.letters == (("a", 1), ("b", 1), ("a", 1))

    def test_retract_is_homomorphism_on_samples(self, p4):
        u, v = w(p4, "a c^-1 b"), w(p4, "d b^-1")
        s = {"b", "c"}
        assert equal(retract(u * v, s), retract(u, s) * retract(v, s))

    def test_power(self, p4):
        assert equal(power(w(p4, "a"), 3), w(p4, "a^3"))
        assert equal(power(w(p4, "a c"), -1), w(p4, "c^-1 a^-1"))
        assert equal(power(w(p4, "a c"), 0), w(p4, ""))

    @pytest.mark.parametrize("k, text", [
        (3, "a b c^-1 a b c^-1 a b c^-1"),
        (-3, "c b^-1 a^-1 c b^-1 a^-1 c b^-1 a^-1")])
    def test_power_decodes_no_letters(self, p4, monkeypatch, k, text):
        calls = []
        decode = words._decode
        monkeypatch.setattr(words, "_decode", lambda g, codes:
                            calls.append(codes) or decode(g, codes))
        p = power(w(p4, "a b c^-1"), k)
        assert p._codes == w(p4, text)._codes
        assert calls == []
        assert p.letters == w(p4, text).letters

    @pytest.mark.parametrize("k", [10**30, -10**30])
    def test_power_of_the_trivial_word_past_sys_maxsize(self, p4, k):
        assert power(w(p4, ""), k)._codes == ()

    @pytest.mark.parametrize("k", [2.0, "2", None])
    def test_power_exponent_must_be_an_int(self, p4, k):
        with pytest.raises(DomainError) as info:
            power(w(p4, "a"), k)
        assert str(info.value) == "exponent must be an int, got %r" % (k,)

    def test_built_from_codes_without_decoding_or_checking(self, p4,
                                                           monkeypatch):
        # products, inverses and retractions of checked words reuse their
        # codes: no letter is decoded or encoded again
        u, v = w(p4, "a c^-1 b"), w(p4, "d b^-1")
        calls = []
        for name in ("_decode", "_encode"):
            monkeypatch.setattr(words, name, lambda *a: calls.append(a))
        built = [u * v, u.inverse(), retract(u * v, {"b", "d"})]
        lengths = [x.written_length() for x in built + [u]]
        assert calls == []
        monkeypatch.undo()
        assert [str(x) for x in built] == ["a c^-1 b d b^-1", "b^-1 c a^-1",
                                           "b d b^-1"]
        assert lengths == [5, 3, 3, 3]

    def test_power_over_length_cap(self, p4):
        # 1,000,002 letters: refused before any of them is built
        k = MAX_WORD_LETTERS // 2 + 1
        with pytest.raises(DomainError, match="more than %d" % MAX_WORD_LETTERS):
            power(w(p4, "a c"), k)
        assert power(w(p4, "a c"), -(k - 1)).written_length() == MAX_WORD_LETTERS


class TestCyclicReduction:
    def test_conjugate_peels_off(self, p4):
        red, conj = cyclically_reduce(w(p4, "a c a^-1"))
        assert str(red) == "c"
        assert str(conj) == "a"

    def test_reduced_word_unchanged(self, p4):
        red, conj = cyclically_reduce(w(p4, "a c"))
        assert str(red) == "a c"
        assert conj.letters == ()

    def test_conjugation_identity_holds(self, p4):
        word = w(p4, "d^-1 b a c a^-1 b^-1 d")
        red, conj = cyclically_reduce(word)
        assert equal(conj.inverse() * word * conj, red.word)

    def test_commuting_conjugator_absorbed(self, p4):
        # b commutes with a, so the conjugation is trivial already
        red, conj = cyclically_reduce(w(p4, "a b a^-1"))
        assert str(red) == "b"
        assert conj.letters == ()

    def test_pair_behind_the_first_letter(self):
        # a comes first and pairs with nothing, so the walk from the front
        # stops at once; b, behind it, still pairs with the last letter
        g = SimplicialGraph(("a", "b", "c"), [("a", "b")])
        word = w(g, "a b c b^-1")
        assert str(normal_form(word)) == "a b c b^-1"
        red, conj = cyclically_reduce(word)
        assert (str(red), str(conj)) == ("a c", "b")

    def test_trivial_word(self, p4):
        red, conj = cyclically_reduce(w(p4, "a a^-1"))
        assert red.length() == 0
        assert conj.letters == ()


class TestPrimitiveRoot:
    def test_plain_power(self, p4):
        root, k = primitive_root(w(p4, "a c a c"))
        assert (str(root), k) == ("a c", 2)

    def test_primitive_word(self, p4):
        root, k = primitive_root(w(p4, "a c c"))
        assert (str(root), k) == ("a c c", 1)

    def test_cube_over_free_pair(self, p4):
        root, k = primitive_root(w(p4, "a d a d a d"))
        assert (str(root), k) == ("a d", 3)

    def test_trivial_rejected(self, p4):
        with pytest.raises(DomainError, match="nontrivial"):
            primitive_root(w(p4, "a a^-1"))

    def test_unreduced_rejected(self, p4):
        with pytest.raises(DomainError, match="cyclically reduced"):
            primitive_root(w(p4, "a c a^-1"))

    def test_join_support_rejected(self, p4):
        with pytest.raises(DomainError, match="join"):
            primitive_root(w(p4, "a b"))

    def test_budget(self, p4, monkeypatch):
        monkeypatch.setattr(words, "MAX_LINEARIZATIONS", 2)
        with pytest.raises(BudgetExceededError) as info:
            primitive_root(w(p4, "a c a c"))
        assert info.value.dimension == "max_linearizations"
        assert (info.value.consumed, info.value.limit) == (3, 2)

    def test_budget_boundary_is_the_choice_tree_size(self, p4, monkeypatch):
        # a primitive word tries every divisor exponent; the budget caps the
        # largest choice tree among them, counted here path by path
        word = w(p4, "a b c b d c a d b c d c")
        codes = _encode(p4, normal_form(word).letters)
        n = len(codes)
        sizes = [_choice_tree_size(codes, n // k, p4.masks)
                 for k in range(n, 1, -1) if n % k == 0]
        assert sizes == [3, 7, 14, 27, 65]
        monkeypatch.setattr(words, "MAX_LINEARIZATIONS", 65)
        root, k = primitive_root(word)
        assert (str(root), k) == ("a b b c c d a c c d b d", 1)
        monkeypatch.setattr(words, "MAX_LINEARIZATIONS", 64)
        with pytest.raises(BudgetExceededError) as info:
            primitive_root(word)
        assert str(info.value) == "linearization enumeration exceeded 64 steps"
        assert (info.value.consumed, info.value.limit) == (65, 64)

    @pytest.mark.parametrize("text, depths", [
        ("a c a c", [2]),  # k = 2: the trees to depths 1 and 2 nest
        ("a d a d a d", [2]),  # k = 3 of n = 6
        ("a b c b d c a d b c d c", [6]),  # primitive: least divisor 2
        ("a c c a c", [1]),  # primitive, prime length: depth 1
        ("a c a c a c a c c", [3]),  # primitive, n = 9: least divisor 3
        ("a", []),  # one letter: no tree
    ])
    def test_root_counts_one_choice_tree(self, p4, monkeypatch, text, depths):
        # the deepest tree holds every shallower one as its top levels, so
        # the refusal rule counts it alone
        seen = []
        count = words._count_choice_tree
        monkeypatch.setattr(words, "_count_choice_tree",
                            lambda codes, m, masks: seen.append(m)
                            or count(codes, m, masks))
        primitive_root(w(p4, text))
        assert seen == depths

    def test_refusal_edges(self, p4, monkeypatch):
        monkeypatch.setattr(words, "MAX_LINEARIZATIONS", 1)
        root, k = primitive_root(w(p4, "a"))
        assert (str(root), k) == ("a", 1)
        # prime length 2: the tree to depth 1, the root and its one move
        with pytest.raises(BudgetExceededError) as info:
            primitive_root(w(p4, "a c"))
        assert (info.value.consumed, info.value.limit) == (2, 1)

    @pytest.mark.parametrize("text, calls", [
        ("a b c b d c a d b c d c", 0),  # letter counts 2, 3, 4, 3: gcd 1
        ("a b c d a b c d a b c d a b c d", 1),  # gcd 4: k = 4 answers
        ("a d a d a d a d", 1),  # counts 4, 4; n = 8: k = 8 skipped
        ("a b a d b d", 1),  # gcd 2: the k = 2 candidate a b d fails
    ])
    def test_root_search_canonicalizes_only_for_the_count_gcd(
            self, p4, monkeypatch, text, calls):
        # once per divisor of the gcd of the letter counts per generator
        # that is tried (u^k), never once per linearization prefix
        codes = normal_form(w(p4, text))._codes
        seen = []
        canonicalize = words.kernels.canonicalize
        monkeypatch.setattr(words.kernels, "canonicalize",
                            lambda data, masks: seen.append(data)
                            or canonicalize(data, masks))
        root = words._root(p4, codes)
        assert len(seen) == calls
        assert root == primitive_root(w(p4, text))


def _choice_tree_size(codes, m, masks):
    """Nodes of the tree that takes a front-movable letter off the word at
    each node down to depth m, walking every path."""
    if m == 0:
        return 1
    size = 1
    for p, x in enumerate(codes):
        gen = x >> 1
        if all(y >> 1 != gen and (masks[gen] >> (y >> 1)) & 1
               for y in codes[:p]):
            size += _choice_tree_size(codes[:p] + codes[p + 1:], m - 1, masks)
    return size


class TestCentralizer:
    def test_single_generator(self, p4):
        d = centralizer_descriptor(parse_word(p4, "b"))
        assert len(d.factors) == 1
        assert d.factors[0].support == ("b",)
        assert d.factors[0].exponent == 1
        assert d.link_part == ("a", "c")

    def test_trivial_word(self, p4):
        d = centralizer_descriptor(parse_word(p4, "b b^-1"))
        assert d.factors == ()
        assert d.link_part == p4.vertices

    def test_join_support_splits_into_factors(self, c4):
        # a and b are adjacent in the cycle, so {a,b} induces a join and
        # the element a b splits into one cyclic factor per generator
        d = centralizer_descriptor(parse_word(c4, "a b"))
        assert [f.support for f in d.factors] == [("a",), ("b",)]
        assert d.link_part == ()

    def test_conjugate_input(self, p4):
        word = parse_word(p4, "a c^2 a^-1")
        d = centralizer_descriptor(word)
        assert str(d.conjugator) == "a"
        assert d.factors[0].root.letters == (("c", 1),)
        assert d.factors[0].exponent == 2
        assert d.contains(word)
        assert d.contains(parse_word(p4, "a c^-5 a^-1"))
        assert not d.contains(parse_word(p4, "c"))

    def test_contains_link_and_root_mix(self, p4):
        d = centralizer_descriptor(parse_word(p4, "b"))
        assert d.contains(parse_word(p4, "a b^2 c^-1"))
        assert not d.contains(parse_word(p4, "d"))
        assert not d.contains(parse_word(p4, "a d"))

    def test_contains_rejects_non_power_in_factor(self, p4):
        d = centralizer_descriptor(parse_word(p4, "a c a c"))
        assert d.contains(parse_word(p4, "a c"))
        assert d.contains(parse_word(p4, "c^-1 a^-1"))
        assert d.contains(parse_word(p4, "b a c"))
        assert not d.contains(parse_word(p4, "a c^2"))
        assert not d.contains(parse_word(p4, "a"))

    def test_contains_refuses_names_off_the_graph(self, p4):
        # a hand-built descriptor naming a non-vertex is refused, not read
        # as a generator no word uses
        d = CentralizerDescriptor(p4, "pro-p", parse_word(p4, ""), (),
                                  ("a", "zz"))
        with pytest.raises(DomainError, match="'zz'"):
            d.contains(parse_word(p4, "a"))

    def test_long_primitive_word(self):
        # 2018 = 2 * 1009: the exponent-2 candidate walks 1009-letter
        # prefixes, deeper than the interpreter's recursion limit
        free3 = SimplicialGraph(("a", "b", "c"), [])
        d = centralizer_descriptor(w(free3, "a^2016 b c"))
        assert [(f.support, f.exponent) for f in d.factors] == \
            [(("a", "b", "c"), 1)]

    def test_mode_flag(self, p4):
        word = parse_word(p4, "b")
        assert centralizer_descriptor(word, "pro-p").lower_bound is False
        assert centralizer_descriptor(word, "pro-C").lower_bound is True
        with pytest.raises(DomainError, match="mode"):
            centralizer_descriptor(word, "discrete")

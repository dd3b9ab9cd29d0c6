import random

import pytest

from raagdecomp import BudgetExceededError, backend_name
from raagdecomp import _pykernel


def random_case(rng, n_gens, length):
    masks = [0] * n_gens
    for i in range(n_gens):
        for j in range(i + 1, n_gens):
            if rng.random() < 0.4:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    word = bytes(rng.randrange(2 * n_gens) for _ in range(length))
    return word, tuple(masks)


class TestPureKernel:
    def test_empty(self):
        assert _pykernel.canonicalize(b"", ()) == b""

    def test_cancellation_through_commuting_block(self):
        # generators 0,1 commute; 0,2 do not
        masks = (0b010, 0b101, 0b010)
        # word: g2 g0 g2^-1 -> blocked, stays length 3
        assert len(_pykernel.canonicalize(bytes((4, 0, 5)), masks)) == 3
        # word: g1 g0 g1^-1 -> g1 commutes past g0 and cancels
        assert _pykernel.canonicalize(bytes((2, 0, 3)), masks) == bytes((0,))

    def test_least_letter_first(self):
        masks = (0b10, 0b01)  # two commuting generators
        assert _pykernel.canonicalize(bytes((2, 0)), masks) == bytes((0, 2))

    # Codes below: generator i gives 2*i (positive) and 2*i + 1 (inverse).

    def test_insert_before_least_greater_commuting_run(self):
        # edges b-a, b-c only; d c a is least, and b crosses a (less than
        # b) and c (greater) before d stops it, so b goes just before c
        masks = (0b0010, 0b0101, 0b0010, 0b0000)
        assert _pykernel.canonicalize(bytes((6, 4, 0, 2)), masks) == \
            bytes((6, 2, 4, 0))
        # edges b-c, b-d, c-d: b crosses d and c, both greater, before a
        # stops it, and goes before the lower of the two
        masks = (0b0000, 0b1100, 0b1010, 0b0110)
        assert _pykernel.canonicalize(bytes((0, 4, 6, 2)), masks) == \
            bytes((0, 2, 4, 6))

    def test_extend_run_just_before_insertion_point(self):
        # a-b edge: the second a crosses b and joins the run a stopped at
        masks = (0b10, 0b01)
        assert _pykernel.canonicalize(bytes((0, 2, 0)), masks) == \
            bytes((0, 0, 2))

    def test_extend_last_run(self):
        masks = (0b00, 0b00)
        assert _pykernel.canonicalize(bytes((2, 0, 0, 0)), masks) == \
            bytes((2, 0, 0, 0))

    def test_cancel_one_letter_of_longer_run(self):
        # a^3 b a^-1 with an a-b edge: a^-1 crosses b and shortens a^3
        masks = (0b10, 0b01)
        assert _pykernel.canonicalize(bytes((0, 0, 0, 2, 1)), masks) == \
            bytes((0, 0, 2))

    def test_cancel_whole_run(self):
        masks = (0b000, 0b000, 0b000)
        assert _pykernel.canonicalize(bytes((4, 2, 3)), masks) == bytes((4,))

    def test_cancel_drops_remembered_insertion_point(self):
        # d a b a^-1 with an a-b edge: a^-1 remembers b (greater, commuting)
        # as its insertion point, then reaches a and cancels it instead
        masks = (0b010, 0b001, 0b000)
        assert _pykernel.canonicalize(bytes((4, 0, 2, 1)), masks) == \
            bytes((4, 2))

    def test_closure_canonical_matches(self):
        rng = random.Random(11)
        for _ in range(150):
            word, masks = random_case(rng, rng.randrange(1, 5),
                                      rng.randrange(0, 7))
            expect = _pykernel.canonicalize(word, masks)
            assert _pykernel.closure_canonical(word, masks, 100_000) == expect

    def test_closure_equal_detects_equality(self):
        masks = (0b10, 0b01)
        assert _pykernel.closure_equal(bytes((0, 2)), bytes((2, 0)), masks, 100)
        assert not _pykernel.closure_equal(bytes((0,)), bytes((2,)), masks, 100)

    def test_closures_of_empty_and_one_letter_words(self):
        masks = (0b10, 0b01)
        for word in (b"", bytes((0,)), bytes((3,))):
            assert _pykernel.closure_canonical(word, masks, 1) == word
            assert _pykernel.closure_equal(word, word, masks, 1)
        assert not _pykernel.closure_equal(b"", bytes((0,)), masks, 2)
        assert not _pykernel.closure_equal(bytes((0,)), bytes((1,)), masks, 2)
        assert _pykernel.closure_equal(b"", bytes((0, 1)), masks, 3)

    def test_budget_raises(self):
        masks = (0b110, 0b101, 0b011)
        with pytest.raises(BudgetExceededError) as info:
            _pykernel.closure_canonical(bytes((0, 2, 4, 0, 2, 4)), masks, 3)
        assert info.value.dimension == "max_states"
        assert (info.value.consumed, info.value.limit) == (4, 3)


class TestDispatch:
    def test_backend_reported(self):
        assert backend_name() == "pure"

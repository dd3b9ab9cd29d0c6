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

    def test_budget_raises(self):
        masks = (0b110, 0b101, 0b011)
        with pytest.raises(BudgetExceededError) as info:
            _pykernel.closure_canonical(bytes((0, 2, 4, 0, 2, 4)), masks, 3)
        assert info.value.dimension == "max_states"
        assert (info.value.consumed, info.value.limit) == (4, 3)


class TestDispatch:
    def test_backend_reported(self):
        assert backend_name() == "pure"

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as hst

from selftest_lab import bitstrings as bits_module
from selftest_lab.bitstrings import (
    EXHAUSTIVE_LIMIT,
    AdjacencyMatrix,
    BitString,
    adjacency_phase,
    average_dot,
    check_half_swap_identity,
    dot,
    dot_mod2,
    double_average_dot,
    find_phase_violation,
    half_a,
    half_b,
    hamming_weight,
    parity_average,
    swap_halves,
)

bitstrings = hst.integers(min_value=1, max_value=8).flatmap(
    lambda n: hst.lists(hst.integers(0, 1), min_size=n, max_size=n)
).map(BitString.from_bits)

even_bitstrings = hst.integers(min_value=1, max_value=4).flatmap(
    lambda h: hst.lists(hst.integers(0, 1), min_size=2 * h, max_size=2 * h)
).map(BitString.from_bits)


def all_pairs(n):
    return itertools.product(BitString.all_strings(n), repeat=2)


class TestBitString:
    def test_roundtrip_index(self):
        for n in (1, 3, 5):
            for x in BitString.all_strings(n):
                assert BitString.from_index(x.value, n) == x

    def test_str_is_position_order(self):
        assert str(BitString.from_str("1011")) == "1011"
        assert BitString.from_str("10").value == 2  # position 1 is the MSB

    def test_one_hot(self):
        for n in (1, 4, 7):
            for k in range(1, n + 1):
                e = BitString.one_hot(k, n)
                assert hamming_weight(e) == 1
                assert e.bit(k) == 1

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            BitString.from_bits([0, 2])
        with pytest.raises(ValueError):
            BitString.one_hot(5, 4)


class TestHalves:
    def test_examples(self):
        x = BitString.from_str("1011")
        assert str(half_a(x)) == "1000"
        assert str(half_b(x)) == "0011"
        z = BitString.from_str("0000")
        assert half_a(z) == z and half_b(z) == z
        f = BitString.from_str("1111")
        assert str(half_a(f)) == "1100"
        assert str(half_b(f)) == "0011"

    def test_halves_xor_to_whole(self):
        for n in (2, 4, 6, 8):
            for x in BitString.all_strings(n):
                assert (half_a(x) ^ half_b(x)) == x

    def test_odd_length_rejected(self):
        x = BitString.from_str("101")
        for fn in (half_a, half_b, swap_halves):
            with pytest.raises(ValueError):
                fn(x)

    @given(even_bitstrings)
    def test_halves_partition_property(self, x):
        assert (half_a(x) ^ half_b(x)) == x
        assert hamming_weight(half_a(x)) + hamming_weight(half_b(x)) == hamming_weight(x)

    @given(even_bitstrings)
    def test_swap_halves_properties(self, x):
        assert swap_halves(swap_halves(x)) == x
        assert hamming_weight(swap_halves(x)) == hamming_weight(x)
        assert half_a(swap_halves(x)) == swap_halves(half_b(x))


class TestSwapHalves:
    def test_example(self):
        assert str(swap_halves(BitString.from_str("1011"))) == "1110"

    def test_involution_and_dot_preserving(self):
        for n in (2, 4, 6, 8):
            for x in BitString.all_strings(n):
                assert swap_halves(swap_halves(x)) == x
        for n in (2, 4, 6, 8):
            for x, y in all_pairs(n):
                assert dot(swap_halves(x), swap_halves(y)) == dot(x, y)
                assert dot(swap_halves(x), y) == dot(x, swap_halves(y))


class TestDot:
    def test_examples(self):
        one = BitString.from_str("11")
        assert dot(one, one) == 2
        assert dot_mod2(one, one) == 0
        assert dot(BitString.from_str("10"), BitString.from_str("01")) == 0

    def test_one_hot_orthogonality(self):
        n = 5
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                expected = 1 if j == k else 0
                assert dot(BitString.one_hot(j, n), BitString.one_hot(k, n)) == expected

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dot(BitString.from_str("10"), BitString.from_str("100"))

    @given(bitstrings, bitstrings)
    def test_matches_naive_sum(self, x, y):
        if x.n != y.n:
            with pytest.raises(ValueError):
                dot(x, y)
        else:
            assert dot(x, y) == sum(a * b for a, b in zip(x.bits, y.bits))


class TestAdjacency:
    def test_half_swap_is_half_swap(self):
        for n in (2, 4, 6):
            r = AdjacencyMatrix.half_swap(n)
            for x in BitString.all_strings(n):
                assert r.apply(x) == swap_halves(x)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdjacencyMatrix([[0, 1], [0, 0]])  # not symmetric
        with pytest.raises(ValueError):
            AdjacencyMatrix([[1, 0], [0, 0]])  # nonzero diagonal
        with pytest.raises(ValueError):
            AdjacencyMatrix([[0, 2], [2, 0]])  # not 0/1

    def test_quadratic_form(self):
        r = AdjacencyMatrix.half_swap(4)
        s = BitString.from_str("1100")
        # s.Rs with R pairing (1,3), (2,4)
        assert r.quad(s) == 0
        assert r.quad(BitString.from_str("1010")) == 2


class TestPhase:
    def test_examples(self):
        r2 = AdjacencyMatrix.half_swap(2)
        assert adjacency_phase(BitString.from_str("00"), r2) == 0
        assert adjacency_phase(BitString.from_str("11"), r2) == 1
        r4 = AdjacencyMatrix.half_swap(4)
        assert adjacency_phase(BitString.from_str("1100"), r4) == 0

    def test_consistency_half_swap(self):
        for n in (2, 4, 6):
            assert find_phase_violation(AdjacencyMatrix.half_swap(n)) is None

    def test_consistency_zeros(self):
        assert find_phase_violation(AdjacencyMatrix.zeros(2)) is None

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            find_phase_violation(AdjacencyMatrix.zeros(12))

    def test_corrupted_phase_detected(self, monkeypatch):
        monkeypatch.setattr(
            bits_module, "adjacency_phase", lambda s, adj: 1 - adjacency_phase(s, adj)
        )
        witness = find_phase_violation(AdjacencyMatrix.half_swap(2))
        assert witness is not None


class TestStringSums:
    def test_average_dot_example(self):
        # s.t over s in {00,01,10,11} against t=11 gives 0,1,1,2
        assert average_dot(BitString.from_str("11")) == Fraction(1)

    def test_double_average_example(self):
        assert double_average_dot(2) == Fraction(1, 2)

    def test_parity_examples(self):
        assert parity_average(BitString.from_str("00")) == 1
        assert parity_average(BitString.from_str("10")) == 0

    def test_identities_hold_small(self):
        for n in range(1, 7):
            for t in BitString.all_strings(n):
                assert average_dot(t) == Fraction(hamming_weight(t), 2)
                assert parity_average(t) == (1 if t.value == 0 else 0)
            assert double_average_dot(n) == Fraction(n, 4)

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            average_dot(BitString.zeros(11))
        with pytest.raises(ValueError):
            double_average_dot(11)


# Every exhaustive check refuses the first size over the limit (12 for the
# even-n checks) before it enumerates anything.
@pytest.mark.parametrize(
    "check, arg",
    [
        (average_dot, BitString.zeros(EXHAUSTIVE_LIMIT + 1)),
        (double_average_dot, EXHAUSTIVE_LIMIT + 1),
        (parity_average, BitString.zeros(EXHAUSTIVE_LIMIT + 1)),
        (check_half_swap_identity, 12),
        (find_phase_violation, AdjacencyMatrix.half_swap(12)),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_exhaustive_guard(check, arg):
    with pytest.raises(ValueError, match="exceeds exhaustive-check limit"):
        check(arg)


class TestHalfSwapIdentity:
    def test_holds(self):
        assert check_half_swap_identity(2)
        assert check_half_swap_identity(4)

    def test_zero_strings_trivial(self):
        z = BitString.zeros(4)
        w = z ^ z
        assert dot_mod2(swap_halves(w), z) == 0

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            check_half_swap_identity(3)

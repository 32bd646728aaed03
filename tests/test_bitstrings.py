import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as hst

from selftest_lab import bitstrings as bits_module
from selftest_lab.bitstrings import (
    EXHAUSTIVE_LIMIT,
    average_dot,
    check_half_swap_identity,
    dot,
    double_average_dot,
    find_phase_violation,
    half_a,
    half_b,
    half_swap_phase,
    parity_average,
    swap_halves,
)


def strings_of(lengths, count):
    """(n, x_1, ..., x_count): a length drawn from lengths and n-bit strings."""
    return lengths.flatmap(
        lambda n: hst.tuples(hst.just(n), *[hst.integers(0, 2**n - 1)] * count)
    )


bitstring_pairs = strings_of(hst.integers(min_value=1, max_value=8), 2)
even_bitstrings = strings_of(hst.integers(min_value=1, max_value=4).map(lambda h: 2 * h), 1)


def positions(x, n):
    """The digits of the n-bit string x, position 1 first."""
    return [int(c) for c in format(x, f"0{n}b")]


def from_positions(d):
    return int("".join(map(str, d)), 2)


def paired(i, j, n):
    """Whether 0-based positions i and j are an edge of the half-swap graph."""
    return abs(i - j) == n // 2


# name -> (even n only, arity, the helper at length n, its per-position
# reference); the reference takes n and the digit lists of the helper's strings.
HELPERS = {
    "half_a": (True, 1, lambda n: lambda x: half_a(x, n),
               lambda n, d: from_positions(d[: n // 2] + [0] * (n // 2))),
    "half_b": (True, 1, lambda n: lambda x: half_b(x, n),
               lambda n, d: from_positions([0] * (n // 2) + d[n // 2:])),
    "swap_halves": (True, 1, lambda n: lambda x: swap_halves(x, n),
                    lambda n, d: from_positions(d[n // 2:] + d[: n // 2])),
    "dot": (False, 2, lambda n: dot,
            lambda n, d, e: sum(a * b for a, b in zip(d, e))),
    "half_swap_phase": (True, 1, lambda n: lambda x: half_swap_phase(x, n),
                        lambda n, d: sum(d[i] * d[j] for i in range(n) for j in range(n)
                                         if paired(i, j, n)) // 2 % 2),
}

HELPER_CASES = [
    (name, n)
    for name, (even_only, *_) in HELPERS.items()
    for n in range(1, 9)
    if n % 2 == 0 or not even_only
]


@pytest.mark.parametrize("name, n", HELPER_CASES)
def test_int_helper_matches_positions(name, n):
    # Every string (every pair, for dot) against the per-position definition.
    _, arity, make, reference = HELPERS[name]
    helper = make(n)
    for xs in itertools.product(range(2**n), repeat=arity):
        assert helper(*xs) == reference(n, *(positions(x, n) for x in xs)), (name, xs)


class TestHalves:
    def test_examples(self):
        assert half_a(0b1011, 4) == 0b1000
        assert half_b(0b1011, 4) == 0b0011
        assert half_a(0, 4) == 0 and half_b(0, 4) == 0
        assert half_a(0b1111, 4) == 0b1100
        assert half_b(0b1111, 4) == 0b0011

    def test_halves_xor_to_whole(self):
        for n in (2, 4, 6, 8):
            for x in range(2**n):
                assert (half_a(x, n) ^ half_b(x, n)) == x

    def test_odd_length_rejected(self):
        for fn in (half_a, half_b, swap_halves, half_swap_phase):
            with pytest.raises(ValueError):
                fn(0b101, 3)

    @given(even_bitstrings)
    def test_halves_partition_property(self, case):
        n, x = case
        assert (half_a(x, n) ^ half_b(x, n)) == x
        assert half_a(x, n).bit_count() + half_b(x, n).bit_count() == x.bit_count()

    @given(even_bitstrings)
    def test_swap_halves_properties(self, case):
        n, x = case
        assert swap_halves(swap_halves(x, n), n) == x
        assert swap_halves(x, n).bit_count() == x.bit_count()
        assert half_a(swap_halves(x, n), n) == swap_halves(half_b(x, n), n)


class TestSwapHalves:
    def test_example(self):
        assert swap_halves(0b1011, 4) == 0b1110

    def test_involution_and_dot_preserving(self):
        for n in (2, 4, 6, 8):
            for x in range(2**n):
                assert swap_halves(swap_halves(x, n), n) == x
        for n in (2, 4, 6, 8):
            for x, y in itertools.product(range(2**n), repeat=2):
                assert dot(swap_halves(x, n), swap_halves(y, n)) == dot(x, y)
                assert dot(swap_halves(x, n), y) == dot(x, swap_halves(y, n))


class TestDot:
    def test_examples(self):
        assert dot(0b11, 0b11) == 2
        assert dot(0b10, 0b01) == 0

    def test_one_hot_orthogonality(self):
        n = 5
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                expected = 1 if j == k else 0
                assert dot(1 << (n - j), 1 << (n - k)) == expected

    @given(bitstring_pairs)
    def test_matches_naive_sum(self, case):
        n, x, y = case
        assert dot(x, y) == sum(a * b for a, b in zip(positions(x, n), positions(y, n)))


class TestPhase:
    def test_examples(self):
        assert half_swap_phase(0b00, 2) == 0
        assert half_swap_phase(0b11, 2) == 1
        # R pairs positions (1,3) and (2,4): s.Rs is 0 for 1100 and 2 for 1010.
        assert half_swap_phase(0b1100, 4) == 0
        assert half_swap_phase(0b1010, 4) == 1

    def test_consistency_half_swap(self):
        for n in (2, 4, 6):
            assert find_phase_violation(n) is None

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            find_phase_violation(12)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            find_phase_violation(3)

    def test_corrupted_phase_detected(self, monkeypatch):
        monkeypatch.setattr(
            bits_module, "half_swap_phase", lambda s, n: 1 - half_swap_phase(s, n)
        )
        witness = find_phase_violation(2)
        assert witness is not None


class TestStringSums:
    def test_average_dot_example(self):
        # s.t over s in {00,01,10,11} against t=11 gives 0,1,1,2
        assert average_dot(0b11, 2) == Fraction(1)

    def test_double_average_example(self):
        assert double_average_dot(2) == Fraction(1, 2)

    def test_parity_examples(self):
        assert parity_average(0b00, 2) == 1
        assert parity_average(0b10, 2) == 0

    def test_identities_hold_small(self):
        for n in range(1, 7):
            for t in range(2**n):
                assert average_dot(t, n) == Fraction(t.bit_count(), 2)
                assert parity_average(t, n) == (1 if t == 0 else 0)
            assert double_average_dot(n) == Fraction(n, 4)

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            average_dot(0, 11)
        with pytest.raises(ValueError):
            double_average_dot(11)


# Every exhaustive check refuses the first size over the limit (12 for the
# even-n checks) before it enumerates anything.
@pytest.mark.parametrize(
    "check, args",
    [
        (average_dot, (0, EXHAUSTIVE_LIMIT + 1)),
        (double_average_dot, (EXHAUSTIVE_LIMIT + 1,)),
        (parity_average, (0, EXHAUSTIVE_LIMIT + 1)),
        (check_half_swap_identity, (12,)),
        (find_phase_violation, (12,)),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_exhaustive_guard(check, args):
    with pytest.raises(ValueError, match="exceeds exhaustive-check limit"):
        check(*args)


class TestHalfSwapIdentity:
    def test_holds(self):
        assert check_half_swap_identity(2)
        assert check_half_swap_identity(4)

    def test_zero_strings_trivial(self):
        z = 0
        w = z ^ z
        assert dot(swap_halves(w, 4), z) & 1 == 0

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            check_half_swap_identity(3)

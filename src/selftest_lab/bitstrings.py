"""Exact bit-string combinatorics: weights, half splits, dot products, the half-swap phase.

An n-bit string is an int x in [0, 2^n).  Bit positions are 1-based
(k = 1..n) and big-endian: position k is bit n - k of x, so position 1 is the
most significant bit and is written first, as in ``format(x, f"0{n}b")``.  The
same int is the index of the basis state |x> in a state vector.  Weights and
dot products are popcounts, ``x.bit_count()`` and ``(x & y).bit_count()``;
functions that split a string into halves take its length n.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

# Exhaustive checks enumerate 2^(2n) pairs; n=10 is about 10^6 pairs.
EXHAUSTIVE_LIMIT = 10


def _check_exhaustive(n: int) -> None:
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"n={n} exceeds exhaustive-check limit {EXHAUSTIVE_LIMIT}")


def _check_even(n: int) -> None:
    if n % 2:
        raise ValueError(f"length {n} is odd; half-split operations need even length")


def half_a(x: int, n: int) -> int:
    """Keep the first n/2 positions, zero elsewhere."""
    _check_even(n)
    h = n // 2
    return x & (((1 << h) - 1) << h)


def half_b(x: int, n: int) -> int:
    """Keep the last n/2 positions, zero elsewhere."""
    _check_even(n)
    return x & ((1 << n // 2) - 1)


def swap_halves(x: int, n: int) -> int:
    _check_even(n)
    h = n // 2
    return (x >> h) | ((x & ((1 << h) - 1)) << h)


def dot(x: int, y: int) -> int:
    """Integer dot product Sum_k x_k y_k."""
    return (x & y).bit_count()


def half_swap_phase(s: int, n: int) -> int:
    """Graph-state phase (s.Rs / 2) mod 2 = s_A.s_B mod 2 of the half-swap graph.

    R is its adjacency: n/2 isolated edges pairing position k with k + n/2,
    the e-bits of the parallel tests.  R s is ``swap_halves(s, n)``.
    """
    _check_even(n)
    return ((s >> n // 2) & s).bit_count() & 1


def find_phase_violation(n: int) -> Optional[tuple[int, int]]:
    """First (s, t) pair violating P(s) + P(t) = P(s xor t) + s.R(s xor t) mod 2
    for the half-swap phase P and matrix R at length n.

    Returns None when the additivity property holds for all 2^(2n) pairs.
    """
    _check_exhaustive(n)
    strings = range(2**n)
    p_table = [half_swap_phase(s, n) for s in strings]
    ru_masks = [swap_halves(u, n) for u in strings]
    for s in strings:
        ps = p_table[s]
        for t in strings:
            u = s ^ t
            lhs = ps ^ p_table[t]
            rhs = p_table[u] ^ ((s & ru_masks[u]).bit_count() & 1)
            if lhs != rhs:
                return s, t
    return None


def average_dot(t: int, n: int) -> Fraction:
    """(1/2^n) Sum_s s.t by explicit enumeration; equals |t|/2."""
    _check_exhaustive(n)
    total = sum((s & t).bit_count() for s in range(2**n))
    return Fraction(total, 2**n)


def double_average_dot(n: int) -> Fraction:
    """(1/2^(2n)) Sum_{s,t} s.t by explicit enumeration; equals n/4."""
    _check_exhaustive(n)
    total = sum(
        (s & t).bit_count() for s in range(2**n) for t in range(2**n)
    )
    return Fraction(total, 2 ** (2 * n))


def parity_average(t: int, n: int) -> Fraction:
    """(1/2^n) Sum_s (-1)^(s.t) by explicit enumeration; equals 1 iff t = 0."""
    _check_exhaustive(n)
    total = sum(1 - 2 * ((s & t).bit_count() & 1) for s in range(2**n))
    return Fraction(total, 2**n)


def check_half_swap_identity(n: int) -> bool:
    """Exhaustively verify the half-swap phase decomposition over all (s, u).

    With R the half-swap matrix, checks for every pair of n-bit strings:
    (R(s+u).s) + (R(s+u)_a.(s+u)_b) = (Rs_b.s_a) + (Ru_a.u_b)  mod 2.
    """
    if n % 2:
        raise ValueError(f"identity needs even n, got {n}")
    _check_exhaustive(n)
    for s, u in itertools.product(range(2**n), repeat=2):
        w = s ^ u
        lhs = dot(swap_halves(w, n), s) + dot(swap_halves(half_a(w, n), n), half_b(w, n))
        rhs = dot(swap_halves(half_b(s, n), n), half_a(s, n)) + dot(
            swap_halves(half_a(u, n), n), half_b(u, n)
        )
        if (lhs ^ rhs) & 1:
            return False
    return True

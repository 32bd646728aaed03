"""Exact bit-string combinatorics: weights, half splits, dot products, graph phases.

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

import numpy as np

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


class AdjacencyMatrix:
    """Symmetric (0,1)-matrix with zero diagonal, acting on bit strings."""

    def __init__(self, entries):
        m = np.asarray(entries, dtype=np.uint8)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {m.shape}")
        if not np.array_equal(m, m.T):
            raise ValueError("adjacency matrix must be symmetric")
        if m.diagonal().any():
            raise ValueError("adjacency matrix must have zero diagonal")
        if not np.isin(m, (0, 1)).all():
            raise ValueError("adjacency matrix entries must be 0 or 1")
        self.n = m.shape[0]
        # Row i as a bit string, for popcount-based products.
        self._row_masks = tuple(int("".join(map(str, row)), 2) for row in m)

    @classmethod
    def zeros(cls, n: int) -> "AdjacencyMatrix":
        return cls(np.zeros((n, n), dtype=np.uint8))

    @classmethod
    def half_swap(cls, n: int) -> "AdjacencyMatrix":
        """Adjacency of n/2 isolated edges pairing position k with k + n/2.

        As a permutation it exchanges the two halves of a bit string.
        """
        if n % 2:
            raise ValueError(f"half_swap needs even n, got {n}")
        m = np.zeros((n, n), dtype=np.uint8)
        h = n // 2
        for k in range(h):
            m[k, k + h] = m[k + h, k] = 1
        return cls(m)

    def apply(self, x: int) -> int:
        """Mod-2 matrix-vector product A x."""
        out = 0
        for mask in self._row_masks:
            out = (out << 1) | ((mask & x).bit_count() & 1)
        return out

    def quad(self, s: int) -> int:
        """Integer quadratic form s . A s."""
        return sum(
            (mask & s).bit_count()
            for k, mask in enumerate(self._row_masks)
            if s >> (self.n - 1 - k) & 1
        )


def adjacency_phase(s: int, adj: AdjacencyMatrix) -> int:
    """Graph-state phase ((s . A s) / 2) mod 2.

    The quadratic form of a symmetric zero-diagonal matrix is always even;
    an odd value means the matrix is malformed.
    """
    q = adj.quad(s)
    if q % 2:
        raise RuntimeError(f"odd quadratic form {q}: malformed adjacency matrix")
    return (q // 2) % 2


def find_phase_violation(adj: AdjacencyMatrix) -> Optional[tuple[int, int]]:
    """First (s, t) pair violating P(s) + P(t) = P(s xor t) + s.A(s xor t) mod 2.

    Returns None when the additivity property holds for all 2^(2n) pairs.
    """
    n = adj.n
    _check_exhaustive(n)
    strings = range(2**n)
    p_table = [adjacency_phase(s, adj) for s in strings]
    # (A u) reduced mod 2, per u.
    au_masks = [adj.apply(u) for u in strings]
    for s in strings:
        ps = p_table[s]
        for t in strings:
            u = s ^ t
            lhs = ps ^ p_table[t]
            rhs = p_table[u] ^ ((s & au_masks[u]).bit_count() & 1)
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

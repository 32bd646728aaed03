"""Exact bit-string combinatorics: weights, half splits, dot products, graph phases.

Bit positions are 1-based (k = 1..n) with position 1 written first.  Internally
each string also carries a big-endian integer encoding (position 1 = most
significant bit), which doubles as the index of the basis state |x> in a
state vector, so popcount tricks keep the exhaustive checks fast.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Optional

import numpy as np

# Exhaustive checks enumerate 2^(2n) pairs; n=10 is about 10^6 pairs.
EXHAUSTIVE_LIMIT = 10


@dataclass(frozen=True)
class BitString:
    """Fixed-length sequence over {0,1}."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.bits:
            raise ValueError("empty bit string")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0/1, got {self.bits}")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        return cls(tuple(int(b) for b in bits))

    @classmethod
    def from_str(cls, s: str) -> "BitString":
        return cls(tuple(int(c) for c in s))

    @classmethod
    def from_index(cls, value: int, n: int) -> "BitString":
        """Big-endian decoding: position 1 is the most significant bit."""
        if not 0 <= value < 2**n:
            raise ValueError(f"index {value} out of range for {n} bits")
        return cls(tuple((value >> (n - k)) & 1 for k in range(1, n + 1)))

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls((0,) * n)

    @classmethod
    def one_hot(cls, k: int, n: int) -> "BitString":
        """The string with a 1 in position k and 0 everywhere else."""
        if not 1 <= k <= n:
            raise ValueError(f"position {k} out of range 1..{n}")
        return cls(tuple(1 if i == k else 0 for i in range(1, n + 1)))

    @classmethod
    def all_strings(cls, n: int) -> Iterator["BitString"]:
        for v in range(2**n):
            yield cls.from_index(v, n)

    @property
    def n(self) -> int:
        return len(self.bits)

    @cached_property
    def value(self) -> int:
        """Big-endian integer encoding; also the basis-state index of |x>."""
        v = 0
        for b in self.bits:
            v = (v << 1) | b
        return v

    def bit(self, k: int) -> int:
        """1-based accessor, k = 1..n."""
        if not 1 <= k <= self.n:
            raise ValueError(f"position {k} out of range 1..{self.n}")
        return self.bits[k - 1]

    def __xor__(self, other: "BitString") -> "BitString":
        _check_same_length(self, other)
        return BitString(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def __str__(self) -> str:
        return f"{self.value:0{self.n}b}"

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)


def _check_same_length(x: BitString, y: BitString) -> None:
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")


def _check_exhaustive(n: int) -> None:
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"n={n} exceeds exhaustive-check limit {EXHAUSTIVE_LIMIT}")


def _check_even(x: BitString) -> None:
    if x.n % 2:
        raise ValueError(f"length {x.n} is odd; half-split operations need even length")


def hamming_weight(x: BitString) -> int:
    return sum(x.bits)


def half_a(x: BitString) -> BitString:
    """Keep the first n/2 bits, zero elsewhere."""
    _check_even(x)
    h = x.n // 2
    return BitString(x.bits[:h] + (0,) * h)


def half_b(x: BitString) -> BitString:
    """Keep the last n/2 bits, zero elsewhere."""
    _check_even(x)
    h = x.n // 2
    return BitString((0,) * h + x.bits[h:])


def swap_halves(x: BitString) -> BitString:
    _check_even(x)
    h = x.n // 2
    return BitString(x.bits[h:] + x.bits[:h])


def dot(x: BitString, y: BitString) -> int:
    """Integer dot product Sum_k x_k y_k."""
    _check_same_length(x, y)
    return (x.value & y.value).bit_count()


def dot_mod2(x: BitString, y: BitString) -> int:
    return dot(x, y) & 1


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
        self.entries = m
        self.entries.flags.writeable = False
        self.n = m.shape[0]
        # Big-endian row masks for popcount-based products.
        self._row_masks = tuple(
            BitString.from_bits(m[i]).value for i in range(self.n)
        )

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

    def apply(self, x: BitString) -> BitString:
        """Mod-2 matrix-vector product A x."""
        if x.n != self.n:
            raise ValueError(f"length mismatch: matrix is {self.n}, string is {x.n}")
        xv = x.value
        return BitString(tuple((mask & xv).bit_count() & 1 for mask in self._row_masks))

    def quad(self, s: BitString) -> int:
        """Integer quadratic form s . A s."""
        if s.n != self.n:
            raise ValueError(f"length mismatch: matrix is {self.n}, string is {s.n}")
        sv = s.value
        return sum(
            (mask & sv).bit_count()
            for k, mask in enumerate(self._row_masks)
            if s.bits[k]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, AdjacencyMatrix) and np.array_equal(
            self.entries, other.entries
        )


def adjacency_phase(s: BitString, adj: AdjacencyMatrix) -> int:
    """Graph-state phase ((s . A s) / 2) mod 2.

    The quadratic form of a symmetric zero-diagonal matrix is always even;
    an odd value means the matrix is malformed.
    """
    q = adj.quad(s)
    if q % 2:
        raise RuntimeError(f"odd quadratic form {q}: malformed adjacency matrix")
    return (q // 2) % 2


def find_phase_violation(adj: AdjacencyMatrix) -> Optional[tuple[BitString, BitString]]:
    """First (s, t) pair violating P(s) + P(t) = P(s xor t) + s.A(s xor t) mod 2.

    Returns None when the additivity property holds for all 2^(2n) pairs.
    """
    n = adj.n
    _check_exhaustive(n)
    strings = list(BitString.all_strings(n))
    p_table = [adjacency_phase(s, adj) for s in strings]
    # (A u) reduced mod 2, as a big-endian mask per u.
    au_masks = [adj.apply(u).value for u in strings]
    for s in strings:
        sv, ps = s.value, p_table[s.value]
        for t in strings:
            u = sv ^ t.value
            lhs = ps ^ p_table[t.value]
            rhs = p_table[u] ^ ((sv & au_masks[u]).bit_count() & 1)
            if lhs != rhs:
                return s, t
    return None


def check_phase_consistency(adj: AdjacencyMatrix) -> bool:
    return find_phase_violation(adj) is None


def average_dot(t: BitString) -> Fraction:
    """(1/2^n) Sum_s s.t by explicit enumeration; equals |t|/2."""
    n = t.n
    _check_exhaustive(n)
    tv = t.value
    total = sum((s & tv).bit_count() for s in range(2**n))
    return Fraction(total, 2**n)


def double_average_dot(n: int) -> Fraction:
    """(1/2^(2n)) Sum_{s,t} s.t by explicit enumeration; equals n/4."""
    _check_exhaustive(n)
    total = sum(
        (s & t).bit_count() for s in range(2**n) for t in range(2**n)
    )
    return Fraction(total, 2 ** (2 * n))


def parity_average(t: BitString) -> Fraction:
    """(1/2^n) Sum_s (-1)^(s.t) by explicit enumeration; equals 1 iff t = 0."""
    n = t.n
    _check_exhaustive(n)
    tv = t.value
    total = sum(1 - 2 * ((s & tv).bit_count() & 1) for s in range(2**n))
    return Fraction(total, 2**n)


def check_half_swap_identity(n: int) -> bool:
    """Exhaustively verify the half-swap phase decomposition over all (s, u).

    With R the half-swap matrix, checks for every pair of n-bit strings:
    (R(s+u).s) + (R(s+u)_a.(s+u)_b) = (Rs_b.s_a) + (Ru_a.u_b)  mod 2.
    """
    if n % 2:
        raise ValueError(f"identity needs even n, got {n}")
    _check_exhaustive(n)
    for s, u in itertools.product(BitString.all_strings(n), repeat=2):
        w = s ^ u
        lhs = dot_mod2(swap_halves(w), s) ^ dot_mod2(
            swap_halves(half_a(w)), half_b(w)
        )
        rhs = dot_mod2(swap_halves(half_b(s)), half_a(s)) ^ dot_mod2(
            swap_halves(half_a(u)), half_b(u)
        )
        if lhs != rhs:
            return False
    return True

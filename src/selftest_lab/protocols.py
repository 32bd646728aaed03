"""Test protocols: question sets, pairing rules, and exact deviation reports.

Two flavors: the parallel pair test ("my") with its logarithmic question
family, and the strictly parallel test ("spp") whose questions are symbol
strings.  Deviation reports compare a strategy's exact correlations against
the ideal ones computed from the honest strategy itself; a handful of
hard-coded anchor values (1, 0, 1/sqrt(2)) guard that table in the tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .strategies import (
    FLAVORS,
    MY_FLAVOR,
    SPP_FLAVOR,
    Strategy,
    honest_my_strategy,
    my_question_kinds,
)

CHSH_MAX = 2.0 * math.sqrt(2.0)

# Per-sub-test question pairs the strictly parallel referee may send;
# the six excluded pairs are XX, ZZ, DD, ED, DE, EE.
SPP_ALLOWED_PAIRS: tuple[tuple[str, str], ...] = (
    ("X", "Z"),
    ("X", "D"),
    ("X", "E"),
    ("Z", "X"),
    ("Z", "D"),
    ("Z", "E"),
    ("D", "X"),
    ("D", "Z"),
    ("E", "X"),
    ("E", "Z"),
)


@dataclass(frozen=True)
class TestSpec:
    flavor: str
    m: int


def my_test_spec(m: int) -> TestSpec:
    return TestSpec(MY_FLAVOR, m)


def spp_test_spec(m: int) -> TestSpec:
    return TestSpec(SPP_FLAVOR, m)


@dataclass(frozen=True)
class CorrelationEntry:
    alice: str
    bob: str
    k: int
    measured: float
    ideal: float
    deviation: float


@dataclass(frozen=True)
class CorrelationReport:
    entries: tuple[CorrelationEntry, ...]
    eps: float

    def argmax(self) -> CorrelationEntry:
        return max(self.entries, key=lambda e: e.deviation)


def my_required_pairs(m: int) -> tuple[tuple[str, str], ...]:
    """(Alice kind, Bob kind) pairs whose deviations the pair test bounds,
    each over all m sub-tests.

    Two groups: the single-pair core over {X, Z, D} without D-D, which feeds
    the anticommutation estimate, and the mixed pairings of X/Z with each
    index family, which feed the commutation argument.  Pairs the referee
    never asks (D-D, index-index) are omitted.
    """
    core = [
        (qa, qb)
        for qa, qb in itertools.product(("X", "Z", "D"), repeat=2)
        if not qa == qb == "D"
    ]
    mixed = []
    for fam in my_question_kinds(m)[3:]:  # the index families, after X, Z, D
        for named in ("X", "Z"):
            mixed += [(named, fam), (fam, named)]
    return tuple(core + mixed)


@functools.lru_cache(maxsize=None)
def ideal_my_correlations(m: int) -> dict[tuple[str, str], tuple[float, ...]]:
    """Ideal correlations of each required pair by k - 1, computed once from the
    honest strategy."""
    honest = honest_my_strategy(m)
    return {
        (qa, qb): tuple(honest.correlations(qa, qb).tolist())
        for qa, qb in my_required_pairs(m)
    }


def epsilon_my(s: Strategy) -> CorrelationReport:
    """Deviations |measured - ideal| over the pair test's required set."""
    ideal = ideal_my_correlations(s.m)
    entries = []
    for qa, qb in my_required_pairs(s.m):
        measured = s.correlations(qa, qb).tolist()
        for k, (got, want) in enumerate(zip(measured, ideal[(qa, qb)]), 1):
            entries.append(
                CorrelationEntry(
                    alice=qa,
                    bob=qb,
                    k=k,
                    measured=got,
                    ideal=want,
                    deviation=abs(got - want),
                )
            )
    return CorrelationReport(tuple(entries), max(e.deviation for e in entries))


# (X/Z symbol, D/E symbol, sign) of the four CHSH terms, in summation order.
_CHSH_TERMS = (("X", "D", 1), ("X", "E", -1), ("Z", "D", 1), ("Z", "E", 1))


def chsh_values(s: Strategy, direction: str = "ab") -> list[float]:
    """CHSH combination of every sub-test, by k - 1.

    Direction "ab": Alice's X/Z observables against Bob's D/E; "ba" swaps
    the roles.  All four observables come from the all-one-symbol questions.
    """
    if direction not in ("ab", "ba"):
        raise ValueError(f"direction must be 'ab' or 'ba', got {direction!r}")
    kind = {sym: FLAVORS[SPP_FLAVOR].symbol_kind(sym, s.m) for sym in "XZDE"}

    def term(xz: str, de: str):
        qa, qb = (xz, de) if direction == "ab" else (de, xz)
        return s.correlations(kind[qa], kind[qb])

    return sum(sign * term(xz, de) for xz, de, sign in _CHSH_TERMS).tolist()


def _deficit(alice: str, bob: str, k: int, measured: float, ideal: float) -> CorrelationEntry:
    """One-sided deficit of a value that must reach ideal, clamped at zero."""
    return CorrelationEntry(
        alice=alice, bob=bob, k=k, measured=measured, ideal=ideal,
        deviation=max(0.0, ideal - measured),
    )


def epsilon_spp(s: Strategy) -> CorrelationReport:
    """CHSH deficits and matching-correlation deficits of the strictly
    parallel test; eps is the largest deficit.

    For every sub-test k the two CHSH directions must reach 2*sqrt(2), and
    for every pair of {X,Z} question strings whose symbols at sub-test k are
    complementary the correlation must reach 1.  Each question pair is read
    once, for all m sub-tests; a pair of equal strings has no complementary
    symbol and is never read.
    """
    m = s.m
    entries = []
    for k, (ab, ba) in enumerate(zip(chsh_values(s, "ab"), chsh_values(s, "ba")), 1):
        entries.append(_deficit("X,Z", "D,E", k, ab, CHSH_MAX))
        entries.append(_deficit("D,E", "X,Z", k, ba, CHSH_MAX))
    xz_strings = ["".join(p) for p in itertools.product("XZ", repeat=m)]
    matching = {
        (qa, rb): s.correlations(qa, rb).tolist()
        for qa, rb in itertools.permutations(xz_strings, 2)
    }
    for k in range(1, m + 1):
        for qa in xz_strings:
            for rb in xz_strings:
                if rb[k - 1] != qa[k - 1]:
                    entries.append(_deficit(qa, rb, k, matching[(qa, rb)][k - 1], 1.0))
    return CorrelationReport(tuple(entries), max(e.deviation for e in entries))

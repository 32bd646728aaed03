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

from .linalg import bipartite_expectation
from .strategies import (
    FLAVORS,
    MY_FLAVOR,
    SPP_FLAVOR,
    Strategy,
    ceil_log2,
    honest_my_strategy,
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


def my_required_correlations(m: int) -> tuple[tuple[str, str, int], ...]:
    """(Alice kind, Bob kind, sub-test) triples whose deviations the pair
    test bounds.

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
    for j in range(1, ceil_log2(m) + 1):
        for fam in (f"X{j}", f"Z{j}"):
            for named in ("X", "Z"):
                mixed.append((named, fam))
                mixed.append((fam, named))
    return tuple(
        (qa, qb, k)
        for qa, qb in core + mixed
        for k in range(1, m + 1)
    )


def correlation_exact(s: Strategy, qa: str, qb: str, k: int) -> float:
    """Exact <psi'| M^qa_k (Alice) M^qb_k (Bob) |psi'>."""
    if not 1 <= k <= s.m:
        raise ValueError(f"sub-test {k} out of range 1..{s.m}")
    return bipartite_expectation(
        s.state,
        s.observable("alice", qa, k),
        s.observable("bob", qb, k),
    )


@functools.lru_cache(maxsize=None)
def ideal_my_correlations(m: int) -> dict[tuple[str, str, int], float]:
    """Ideal correlation table computed once from the honest strategy."""
    honest = honest_my_strategy(m)
    return {
        (qa, qb, k): correlation_exact(honest, qa, qb, k)
        for qa, qb, k in my_required_correlations(m)
    }


def epsilon_my(s: Strategy) -> CorrelationReport:
    """Deviations |measured - ideal| over the pair test's required set."""
    ideal = ideal_my_correlations(s.m)
    entries = []
    for qa, qb, k in my_required_correlations(s.m):
        measured = correlation_exact(s, qa, qb, k)
        entries.append(
            CorrelationEntry(
                alice=qa,
                bob=qb,
                k=k,
                measured=measured,
                ideal=ideal[(qa, qb, k)],
                deviation=abs(measured - ideal[(qa, qb, k)]),
            )
        )
    return CorrelationReport(tuple(entries), max(e.deviation for e in entries))


# (X/Z symbol, D/E symbol, sign) of the four CHSH terms, in summation order.
_CHSH_TERMS = (("X", "D", 1), ("X", "E", -1), ("Z", "D", 1), ("Z", "E", 1))


def chsh_value(s: Strategy, k: int, direction: str = "ab") -> float:
    """CHSH combination for sub-test k.

    Direction "ab": Alice's X/Z observables against Bob's D/E; "ba" swaps
    the roles.  All four observables come from the all-one-symbol questions.
    """
    if direction not in ("ab", "ba"):
        raise ValueError(f"direction must be 'ab' or 'ba', got {direction!r}")
    kind = {sym: FLAVORS[SPP_FLAVOR].symbol_kind(sym, s.m) for sym in "XZDE"}

    def term(xz: str, de: str) -> float:
        qa, qb = (xz, de) if direction == "ab" else (de, xz)
        return correlation_exact(s, kind[qa], kind[qb], k)

    return sum(sign * term(xz, de) for xz, de, sign in _CHSH_TERMS)


def _complement(sym: str) -> str:
    return {"X": "Z", "Z": "X"}[sym]


def epsilon_spp(s: Strategy) -> CorrelationReport:
    """CHSH deficits and matching-correlation deficits of the strictly
    parallel test; eps is the largest deficit.

    For every sub-test k the two CHSH directions must reach 2*sqrt(2), and
    for every pair of {X,Z} question strings whose symbols at sub-test k are
    complementary the correlation must reach 1.  Deficits are one-sided and
    clamped at zero.
    """
    m = s.m
    entries = []
    for k in range(1, m + 1):
        for direction, alice, bob in (("ab", "X,Z", "D,E"), ("ba", "D,E", "X,Z")):
            val = chsh_value(s, k, direction)
            entries.append(
                CorrelationEntry(
                    alice=alice,
                    bob=bob,
                    k=k,
                    measured=val,
                    ideal=CHSH_MAX,
                    deviation=max(0.0, CHSH_MAX - val),
                )
            )
    xz_strings = ["".join(p) for p in itertools.product("XZ", repeat=m)]
    for k in range(1, m + 1):
        for qa in xz_strings:
            need = _complement(qa[k - 1])
            for rb in xz_strings:
                if rb[k - 1] != need:
                    continue
                val = correlation_exact(s, qa, rb, k)
                entries.append(
                    CorrelationEntry(
                        alice=qa,
                        bob=rb,
                        k=k,
                        measured=val,
                        ideal=1.0,
                        deviation=max(0.0, 1.0 - val),
                    )
                )
    return CorrelationReport(tuple(entries), max(e.deviation for e in entries))

"""The strictly parallel non-local game: referee, exact value, sampling.

One round sends an independently drawn question pair per sub-test, scores
each sub-test with the CHSH-style sign table, draws a uniform threshold and
accepts when the score sum clears it.  The exact game value is the average
over all question strings of the signed correlations, which by the
threshold-referee identity equals the mean of the per-sub-test values.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .protocols import SPP_ALLOWED_PAIRS
from .strategies import Strategy

# Expectation-form optimum (2*sqrt(2) + 1) / 5 of the single-round game.
MAX_GAME_EXPECTATION = (2.0 * math.sqrt(2.0) + 1.0) / 5.0

# +1 when matching answers win; (X,E) and (E,X) invert because those
# correlations are ideally negative.
WIN_SIGNS: dict[tuple[str, str], int] = {
    pair: (-1 if set(pair) == {"X", "E"} else 1) for pair in SPP_ALLOWED_PAIRS
}

# WIN_SIGNS of each pair, indexed like SPP_ALLOWED_PAIRS: a sub-test accepts
# (+1) exactly when a_k * b_k times its pair's sign is +1.
_PAIR_SIGNS = np.array([WIN_SIGNS[pair] for pair in SPP_ALLOWED_PAIRS], dtype=np.int8)

EXACT_GAME_LIMIT = 4  # 10^m question strings are enumerated

# The most rounds a sample may have: numpy's multinomial counts are int64.
MAX_ROUNDS = 2**63 - 1


def win_predicate(qa: str, qb: str, a: int, b: int) -> bool:
    """Referee's accept decision for one sub-test."""
    if (qa, qb) not in WIN_SIGNS:
        raise ValueError(f"question pair ({qa}, {qb}) is never asked")
    if a not in (-1, 1) or b not in (-1, 1):
        raise ValueError(f"answers must be +-1, got ({a}, {b})")
    return a * b == WIN_SIGNS[(qa, qb)]


def _party_strings(combo: Sequence[int]) -> tuple[str, str]:
    qa = "".join(SPP_ALLOWED_PAIRS[i][0] for i in combo)
    qb = "".join(SPP_ALLOWED_PAIRS[i][1] for i in combo)
    return qa, qb


def check_game_size(m: int) -> None:
    if m > EXACT_GAME_LIMIT:
        raise ValueError(
            f"m={m} exceeds the exact-enumeration guard {EXACT_GAME_LIMIT}; sample instead"
        )


def game_expectation_exact(s: Strategy) -> float:
    """Exact E(A) by enumerating all 10^m question strings."""
    m = s.m
    check_game_size(m)
    total = 0.0
    for combo in itertools.product(range(10), repeat=m):
        for pair, corr in zip(combo, s.correlations(*_party_strings(combo)).tolist()):
            total += WIN_SIGNS[SPP_ALLOWED_PAIRS[pair]] * corr
    return total / (10**m * m)


def _joint_distribution(s: Strategy, qa: str, qb: str) -> tuple[np.ndarray, np.ndarray]:
    """Born-rule distribution over joint answers for one question pair.

    Row i * nb + j pairs Alice's i-th answer string with Bob's j-th, in the
    order of each party's measurement.  Returns ``(prods, probs)``: the
    int8 table ``prods[row, k] = a_k * b_k`` and the normalised
    probabilities ``||P_a psi P_b^T||^2 = ||U_a^H psi conj(U_b)||^2``, the
    squared amplitudes of each pair of basis columns summed over the
    columns of each answer pair.
    """
    meas_a, meas_b = s.measurement("alice", qa), s.measurement("bob", qb)
    na, nb = len(meas_a.answers), len(meas_b.answers)
    rows = meas_a.column_groups[:, None] * nb + meas_b.column_groups
    probs = np.bincount(rows.ravel(), s.column_probabilities(qa, qb).ravel(), na * nb)
    prods = meas_a.answer_signs[:, None] * meas_b.answer_signs
    return prods.reshape(na * nb, s.m), probs / probs.sum()


def sample_game(
    s: Strategy,
    rounds: int,
    seed: int,
    referee: str = "threshold",
) -> dict:
    """Monte Carlo estimate of E(A) over many rounds.

    referee "threshold" scores rounds with the uniform-threshold rule;
    "subtest" outputs the accept value of one uniformly chosen sub-test.
    Both have the same expectation.

    Rounds are i.i.d., so the sampler draws counts, never single rounds.
    One multinomial draw over the 10^m equally likely questions gives each
    question's rounds.  Each asked question is measured once, in increasing
    code order, and its joint answers fold into the probabilities of the
    2^m masks of accepting sub-tests (bit k set when sub-test k accepts).
    A multinomial right after each fold adds that question's rounds per
    mask into one vector of 2^m counts, and one per mask splits its rounds
    over the referee's equally likely draws.  The mean and standard error
    come from the rounds whose draw the referee's rule accepts.
    """
    if referee not in ("threshold", "subtest"):
        raise ValueError(f"unknown referee {referee!r}")
    if rounds < 2:
        raise ValueError(f"a standard error needs at least 2 rounds, got {rounds}")
    m = s.m
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(rounds, np.full(10**m, 10.0**-m))
    asked = np.flatnonzero(counts)
    bits = 1 << np.arange(m)
    mask_rounds = np.zeros(2**m, dtype=np.int64)
    for code in asked.tolist():
        combo = [(code // 10**k) % 10 for k in range(m)]
        qa, qb = _party_strings(combo)
        prods, probs = _joint_distribution(s, qa, qb)
        if not (np.isfinite(probs).all() and (probs >= 0).all()):
            raise ValueError(f"question ({qa}, {qb}) has probabilities {probs}")
        total = probs.sum()
        if not total > 0:
            raise ValueError(f"question ({qa}, {qb}) has probabilities summing to 0")
        table = (prods == _PAIR_SIGNS[combo]) @ bits
        mask_rounds += rng.multinomial(counts[code], np.bincount(table, probs, 2**m) / total)
    # accept[mask, d]: the verdict on a round with that mask, given the
    # referee's draw d: threshold d - m + 1 against the accept values' sum
    # 2 * (accepting sub-tests) - m, or the accept value of sub-test d.
    flags = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
    if referee == "threshold":
        accept = 2 * flags.sum(axis=1, keepdims=True) - m >= np.arange(-m + 1, m + 1)
    else:
        accept = flags == 1
    draws = rng.multinomial(mask_rounds, np.full(accept.shape, 1 / accept.shape[1]))
    accepts = int(draws[accept].sum())
    mean, stderr = outcome_statistics(accepts, rounds)
    return {
        "rounds": rounds,
        "seed": seed,
        "referee": referee,
        "mean": mean,
        "stderr": stderr,
    }


def outcome_statistics(accepts: int, rounds: int) -> tuple[float, float]:
    """Mean and standard error of rounds outcomes +-1, accepts of them +1.

    With mu = (2k - n) / n, the squared deviations sum to
    k (1 - mu)^2 + (n - k) (1 + mu)^2 = 4 k (n - k) / n, so the sample
    standard deviation over sqrt(n) is 2 sqrt(k (n - k) / (n - 1)) / n.
    The mean is the one numpy's mean of the outcomes gives: the integer sum
    over n, rounded once.
    """
    n, k = rounds, accepts
    return (2 * k - n) / n, 2.0 * math.sqrt(k * (n - k) / (n - 1)) / n


def threshold_referee_expectation(accepts: tuple[int, ...]) -> Fraction:
    """Exact E(A) for fixed sub-test outcomes, averaging over the threshold."""
    m = len(accepts)
    total = sum(accepts)
    hits = sum(1 for a in range(-m + 1, m + 1) if total >= a)
    return Fraction(hits - (2 * m - hits), 2 * m)


def referee_expectation_check(m: int) -> bool:
    """Exhaustively verify E(A) = (1/m) Sum_k E(A_k) for deterministic
    sub-test outcomes; linearity extends the identity to all distributions."""
    if m > 6:
        raise ValueError(f"exhaustive referee check capped at m=6, got {m}")
    for accepts in itertools.product((1, -1), repeat=m):
        if threshold_referee_expectation(accepts) != Fraction(sum(accepts), m):
            return False
    return True


def delta_and_epsilon(value: float, m: int) -> tuple[float, float]:
    """Deficit delta of the exact game value E(A) of an m-sub-test strategy,
    and the per-correlation epsilon it implies."""
    delta = max(0.0, MAX_GAME_EXPECTATION - value)
    eps = 2.0 * delta / (10**m * 2 * m)
    return delta, eps

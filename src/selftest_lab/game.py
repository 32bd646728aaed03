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

EXACT_GAME_LIMIT = 4  # 10^m question strings are enumerated


def win_predicate(qa: str, qb: str, a: int, b: int) -> bool:
    """Referee's accept decision for one sub-test."""
    if (qa, qb) not in WIN_SIGNS:
        raise ValueError(f"question pair ({qa}, {qb}) is never asked")
    if a not in (-1, 1) or b not in (-1, 1):
        raise ValueError(f"answers must be +-1, got ({a}, {b})")
    return a * b == WIN_SIGNS[(qa, qb)]


def _real(val: complex) -> float:
    if abs(val.imag) >= 1e-10:
        raise RuntimeError(f"expectation has imaginary part {val.imag}")
    return val.real


def _party_strings(combo: tuple[int, ...]) -> tuple[str, str]:
    qa = "".join(SPP_ALLOWED_PAIRS[i][0] for i in combo)
    qb = "".join(SPP_ALLOWED_PAIRS[i][1] for i in combo)
    return qa, qb


def game_expectation_exact(s: Strategy, limit: int = EXACT_GAME_LIMIT) -> float:
    """Exact E(A) by enumerating all 10^m question strings."""
    m = s.m
    if m > limit:
        raise ValueError(
            f"m={m} exceeds the exact-enumeration guard {limit}; sample instead"
        )
    psi = s.state.reshaped()
    applied_a: dict[tuple[str, int], np.ndarray] = {}
    applied_b: dict[tuple[str, int], np.ndarray] = {}
    total = 0.0
    for combo in itertools.product(range(10), repeat=m):
        qa, qb = _party_strings(combo)
        for k in range(1, m + 1):
            if (qa, k) not in applied_a:
                applied_a[(qa, k)] = s.observable("alice", qa, k) @ psi
            if (qb, k) not in applied_b:
                applied_b[(qb, k)] = psi @ s.observable("bob", qb, k).T
            corr = _real(complex(np.vdot(applied_a[(qa, k)], applied_b[(qb, k)])))
            total += WIN_SIGNS[SPP_ALLOWED_PAIRS[combo[k - 1]]] * corr
    return total / (10**m * m)


def _joint_distribution(s: Strategy, qa: str, qb: str):
    """Born-rule distribution over joint answer strings for one question pair."""
    psi = s.state.reshaped()
    meas_a = s.measurement("alice", qa)
    meas_b = s.measurement("bob", qb)
    outcomes = []
    probs = []
    for a, pa in meas_a:
        left = pa @ psi
        for b, pb in meas_b:
            outcomes.append((a, b))
            probs.append(float(np.linalg.norm(left @ pb.T) ** 2))
    probs = np.asarray(probs)
    probs = probs / probs.sum()
    return outcomes, probs


def sample_game(
    s: Strategy,
    rounds: int,
    seed: int,
    referee: str = "threshold",
) -> dict:
    """Monte Carlo estimate of E(A) over many rounds (vectorized).

    referee "threshold" scores rounds with the uniform-threshold rule;
    "subtest" outputs the accept value of one uniformly chosen sub-test.
    Both have the same expectation.
    """
    if referee not in ("threshold", "subtest"):
        raise ValueError(f"unknown referee {referee!r}")
    m = s.m
    rng = np.random.default_rng(seed)
    combos = rng.integers(0, 10, size=(rounds, m))
    codes = combos @ (10 ** np.arange(m))
    accept_vals = np.empty((rounds, m), dtype=np.int8)
    for code in np.unique(codes):
        mask = codes == code
        combo = tuple(int(d) for d in np.asarray(
            [(code // 10**k) % 10 for k in range(m)]
        ))
        qa, qb = _party_strings(combo)
        outcomes, probs = _joint_distribution(s, qa, qb)
        signs = np.array(
            [
                [
                    1
                    if win_predicate(
                        *SPP_ALLOWED_PAIRS[combo[k]], ans_a[k], ans_b[k]
                    )
                    else -1
                    for k in range(m)
                ]
                for ans_a, ans_b in outcomes
            ],
            dtype=np.int8,
        )
        picks = rng.choice(len(outcomes), size=int(mask.sum()), p=probs)
        accept_vals[mask] = signs[picks]
    sums = accept_vals.sum(axis=1)
    if referee == "threshold":
        thresholds = rng.integers(-m + 1, m + 1, size=rounds)
        accepted = np.where(sums >= thresholds, 1, -1)
    else:
        picks = rng.integers(0, m, size=rounds)
        accepted = accept_vals[np.arange(rounds), picks]
    mean = float(accepted.mean())
    stderr = float(accepted.std(ddof=1) / math.sqrt(rounds))
    return {
        "rounds": rounds,
        "seed": seed,
        "referee": referee,
        "mean": mean,
        "stderr": stderr,
    }


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


def delta_and_epsilon(s: Strategy, limit: int = EXACT_GAME_LIMIT) -> tuple[float, float]:
    """Game-value deficit delta and the per-correlation epsilon it implies."""
    value = game_expectation_exact(s, limit=limit)
    delta = max(0.0, MAX_GAME_EXPECTATION - value)
    eps = 2.0 * delta / (10**s.m * 2 * s.m)
    return delta, eps

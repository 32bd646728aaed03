"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from selftest_lab import cli
from selftest_lab.bitstrings import (
    average_dot,
    check_half_swap_identity,
    double_average_dot,
    find_phase_violation,
    parity_average,
)
from selftest_lab.bounds import (
    VACUOUS_THRESHOLD,
    EpsilonBundle,
    anticommute_bound,
    chsh_anticommute_bound,
    game_robustness_bound,
    graph_state_bound,
    mayers_yao_anticommute_bound,
    my_parallel_bound,
    my_parallel_recomputed_bound,
    spp_selftest_bound,
    sufficient_conditions_bound,
    xz_swap_bound,
)
from selftest_lab.game import (
    MAX_GAME_EXPECTATION,
    game_expectation_exact,
    referee_expectation_check,
    sample_game,
    win_predicate,
    WIN_SIGNS,
)
from selftest_lab.isometry import IsometryContext, verify_bound
from selftest_lab.protocols import (
    CHSH_MAX,
    epsilon_my,
    epsilon_spp,
    my_test_spec,
)
from selftest_lab.strategies import (
    NoiseSpec,
    honest_my_strategy,
    honest_spp_strategy,
    perturb_strategy,
)

SQRT2 = math.sqrt(2.0)


def report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_string_sum_identities():
    start = time.time()
    ok = True
    for n in range(1, 11):
        for t in range(2**n):
            ok = ok and average_dot(t, n) == Fraction(t.bit_count(), 2)
            ok = ok and parity_average(t, n) == (1 if t == 0 else 0)
        ok = ok and double_average_dot(n) == Fraction(n, 4)
    elapsed = time.time() - start
    report(
        1,
        ok and elapsed < 10.0,
        f"three string-sum identities exact for n<=10 in {elapsed:.2f}s (<10s)",
    )


def test_criterion_02_half_swap_identity():
    start = time.time()
    ok = all(check_half_swap_identity(n) for n in (2, 4, 6))
    elapsed = time.time() - start
    report(2, ok and elapsed < 5.0, f"half-swap identity for n in {{2,4,6}} in {elapsed:.2f}s (<5s)")


def test_criterion_03_phase_additivity():
    ok = all(find_phase_violation(n) is None for n in (2, 4, 6))
    report(3, ok, "quadratic-form phase additivity exhaustive for half-swap, n in {2,4,6}")


def test_criterion_04_honest_correlations():
    ok = True
    worst = 0.0
    for m in (1, 2, 3):
        rep = epsilon_my(honest_my_strategy(m))
        categories = (0.0, 1.0, -1.0, 1 / SQRT2, -1 / SQRT2)
        for e in rep.entries:
            ok = ok and min(abs(e.ideal - c) for c in categories) <= 1e-12
            worst = max(worst, e.deviation)
        ok = ok and rep.eps <= 1e-12
        spp = epsilon_spp(honest_spp_strategy(m))
        worst = max(worst, spp.eps)
        ok = ok and spp.eps <= 1e-12
        chsh = [e for e in spp.entries if e.ideal == CHSH_MAX]
        ok = ok and all(abs(e.measured - CHSH_MAX) <= 1e-12 for e in chsh)
        matches = [e for e in spp.entries if e.ideal == 1.0]
        ok = ok and all(abs(e.measured - 1.0) <= 1e-12 for e in matches)
    report(4, ok, f"honest MY/SPP correlations at ideals for m in {{1,2,3}}, worst dev {worst:.2e} (<=1e-12)")


def test_criterion_05_game_value():
    ok = True
    for m in (1, 2):
        exact = game_expectation_exact(honest_spp_strategy(m))
        ok = ok and abs(exact - MAX_GAME_EXPECTATION) <= 1e-12
    # Brute-force single-round winning probability settles the published
    # cos-vs-cos^2 ambiguity before the golden value is trusted.
    s = honest_spp_strategy(1)
    psi = s.state
    win_prob = 0.0
    for qa, qb in WIN_SIGNS:
        for a, pa in s.measurement("alice", qa):
            for b, pb in s.measurement("bob", qb):
                prob = float(np.linalg.norm(pa @ psi @ pb.T) ** 2)
                if win_predicate(qa, qb, a[0], b[0]):
                    win_prob += prob / 10.0
    cos2_form = (2 + 8 * math.cos(math.pi / 8) ** 2) / 10
    cos_form = (2 + 8 * math.cos(math.pi / 8)) / 10
    ok = ok and abs(win_prob - cos2_form) <= 1e-12
    ok = ok and abs(win_prob - cos_form) > 1e-2  # the cos variant is ruled out
    ok = ok and abs(win_prob - (1 + MAX_GAME_EXPECTATION) / 2) <= 1e-12
    mc_ok = True
    for m in (1, 2):
        strat = honest_spp_strategy(m)
        exact = game_expectation_exact(strat)
        mc = sample_game(strat, 100_000, seed=20260810 + m)
        mc_ok = mc_ok and abs(mc["mean"] - exact) <= 4 * mc["stderr"]
    report(
        5,
        ok and mc_ok,
        f"exact E(A) = (2*sqrt(2)+1)/5 for m in {{1,2}}; win prob {win_prob:.12f} "
        f"matches cos^2 form; 1e5-round Monte Carlo within 4 sigma",
    )


def test_criterion_06_referee_expectation():
    ok = all(referee_expectation_check(m) for m in range(1, 7))
    report(6, ok, "threshold referee expectation identity exact for all assignments, m in 1..6")


def test_criterion_07_zero_noise_exactness():
    worst = 0.0
    start = time.time()
    for m in (1, 2):
        ctx = IsometryContext(honest_my_strategy(m), "my")
        n = 2 * m
        for p, q in itertools.product(range(2**n), repeat=2):
            worst = max(worst, ctx.distance(p, q))
    elapsed = time.time() - start
    ok = worst < 1e-9 and elapsed < 60.0
    report(
        7,
        ok,
        f"isometry distance over all 4^n pairs, m in {{1,2}}: max {worst:.2e} (<1e-9) "
        f"in {elapsed:.1f}s (<60s)",
    )


def test_criterion_08_bound_dominance():
    spec = my_test_spec(1)
    master = np.random.default_rng(20260810)
    ok = True
    vacuous_seen = 0
    for i in range(100):
        theta = float(master.uniform(0.0, 0.05))
        w = float(master.uniform(0.0, 0.02))
        strategy = perturb_strategy(
            honest_my_strategy(1), NoiseSpec(theta=theta, w=w), seed=i
        )
        reports = verify_bound(strategy, spec, eps=epsilon_my(strategy).eps)
        ok = ok and all(r.passed for r in reports)
        vacuous_seen += sum(
            1 for r in reports if r.bounds["my-parallel"] > VACUOUS_THRESHOLD
        )
    report(
        8,
        ok,
        f"100 noisy strategies (theta<=0.05, w<=0.02): distance <= max(printed, recomputed) "
        f"bound; {vacuous_seen} vacuous bounds flagged",
    )


def test_criterion_09_bound_calculus():
    ok = True
    zero = EpsilonBundle()
    # zero at zero error
    ok = ok and anticommute_bound(0, 0, 4, zero) == 0.0
    ok = ok and xz_swap_bound(0, 4, zero) == 0.0
    ok = ok and mayers_yao_anticommute_bound(0.0) == 0.0
    ok = ok and chsh_anticommute_bound(0.0) == 0.0
    for fn in (my_parallel_bound, my_parallel_recomputed_bound, spp_selftest_bound,
               game_robustness_bound):
        ok = ok and fn(4, 2, 0.0) == 0.0
    ok = ok and sufficient_conditions_bound(4, 2, zero) == 0.0
    # nonnegative on random inputs
    rng = np.random.default_rng(99)
    for _ in range(100):
        e = EpsilonBundle(
            eps=float(rng.uniform(0, 0.3)),
            eps1=float(rng.uniform(0, 0.3)),
            eps2=float(rng.uniform(0, 0.3)),
            eps3=float(rng.uniform(0, 0.3)),
            delta=float(rng.uniform(0, 0.3)),
        )
        n = int(rng.choice([2, 4]))
        w = int(rng.integers(0, n + 1))
        s = int(rng.integers(0, 2**n))
        t = int(rng.integers(0, 2**n))
        ok = ok and anticommute_bound(s, t, n, e) >= 0
        ok = ok and sufficient_conditions_bound(n, w, e) >= 0
        ok = ok and my_parallel_bound(n, w, e.eps) >= 0
        ok = ok and spp_selftest_bound(n, w, e.eps) >= 0
        ok = ok and game_robustness_bound(n, w, e.delta) >= 0
    # nondecreasing per argument on grids
    grid = np.linspace(0.0, 0.2, 10)
    for fn in (my_parallel_bound, my_parallel_recomputed_bound, spp_selftest_bound,
               game_robustness_bound):
        vals = [fn(4, 1, g) for g in grid]
        ok = ok and all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    for name in ("eps1", "eps2", "eps3"):
        base = {"eps1": 0.01, "eps2": 0.01, "eps3": 0.01}
        vals = [
            sufficient_conditions_bound(4, 1, EpsilonBundle(**{**base, name: g}))
            for g in grid
        ]
        ok = ok and all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    # enumeration agrees with the constant-function closed form
    for n in (2, 4):
        a, b = 0.004, 0.009
        enum = graph_state_bound(n, 0, lambda s, t: a, lambda s: b)
        closed = 2 * math.sqrt(a) + math.sqrt(2 * (a + b))
        ok = ok and abs(enum - closed) <= 1e-12
    report(9, ok, "bounds: zero at zero, nonnegative, monotone per argument, "
                  "enumeration matches constant-function closed form at n in {2,4}")


def test_criterion_10_determinism(capsys):
    commands = [
        ["verify-isometry", "--strategy", "honest-my", "--m", "1", "--test", "my",
         "--theta", "0.02", "--w", "0.01", "--pairs", "sample:16", "--seed", "77"],
        ["game", "--m", "1", "--rounds", "20000", "--seed", "77"],
        ["sweep-noise", "--m", "1", "--thetas", "0,0.02", "--seed", "77"],
    ]
    ok = True
    for argv in commands:
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        ok = ok and first == second and len(first) > 0
    with capsys.disabled():
        report(10, ok, "identical config + seed produce byte-identical reports")

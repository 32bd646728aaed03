import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from selftest_lab import game
from selftest_lab.game import (
    MAX_GAME_EXPECTATION,
    WIN_SIGNS,
    delta_and_epsilon,
    game_expectation_exact,
    referee_expectation_check,
    sample_game,
    threshold_referee_expectation,
    win_predicate,
)
from selftest_lab.protocols import SPP_ALLOWED_PAIRS, epsilon_my, epsilon_spp
from selftest_lab.strategies import (
    Measurement,
    NoiseSpec,
    Strategy,
    honest_my_strategy,
    honest_spp_strategy,
    perturb_strategy,
    strategy_from_json,
    strategy_to_json,
    validate_strategy,
)

from test_isometry import with_junk
from test_protocols import deterministic_strategy

SQRT2 = math.sqrt(2.0)

ALL_PLUS = {k: 1 for k in ("X", "Z", "D", "E")}


class TestWinPredicate:
    def test_matching_pairs(self):
        assert win_predicate("X", "D", 1, 1)
        assert win_predicate("X", "Z", 1, 1)
        assert not win_predicate("X", "Z", 1, -1)

    def test_x_e_inverts(self):
        assert win_predicate("X", "E", 1, -1)
        assert win_predicate("E", "X", -1, 1)
        assert not win_predicate("X", "E", 1, 1)

    def test_disallowed_pair_rejected(self):
        with pytest.raises(ValueError):
            win_predicate("X", "X", 1, 1)
        with pytest.raises(ValueError):
            win_predicate("D", "E", 1, 1)

    def test_bad_answers_rejected(self):
        with pytest.raises(ValueError):
            win_predicate("X", "Z", 0, 1)


class TestExactExpectation:
    def test_honest_m1_hits_quantum_optimum(self):
        value = game_expectation_exact(honest_spp_strategy(1))
        assert value == pytest.approx(MAX_GAME_EXPECTATION, abs=1e-12)

    def test_honest_m2_same_value(self):
        value = game_expectation_exact(honest_spp_strategy(2))
        assert value == pytest.approx(MAX_GAME_EXPECTATION, abs=1e-12)

    def test_all_plus_classical(self):
        # Oracle: every answer +1 wins exactly the 8 sign-+1 pairs of the 10,
        # so E(A_k) = (8 - 2) / 10.
        s = deterministic_strategy(ALL_PLUS, ALL_PLUS)
        assert game_expectation_exact(s) == pytest.approx(0.6, abs=1e-14)

    def test_no_observable_is_formed(self, monkeypatch):
        # The exact value and both epsilons read the basis columns'
        # probabilities, never a measurement's observables.
        def unreachable(meas):
            raise AssertionError("observables formed")

        monkeypatch.setattr(Measurement, "observables", property(unreachable))
        spp = honest_spp_strategy(2)
        assert game_expectation_exact(spp) == pytest.approx(MAX_GAME_EXPECTATION, abs=1e-12)
        assert epsilon_spp(spp).eps <= 1e-12
        assert epsilon_my(honest_my_strategy(2)).eps <= 1e-12

    def test_enumeration_guard(self):
        s = deterministic_strategy(ALL_PLUS, ALL_PLUS, m=5)
        with pytest.raises(ValueError):
            game_expectation_exact(s)

    def test_classical_optimum_by_enumeration(self):
        # Independent oracle over all 16 x 16 deterministic assignments.
        best = -2.0
        best_assign = None
        for xa in itertools.product((1, -1), repeat=4):
            for xb in itertools.product((1, -1), repeat=4):
                a = dict(zip("XZDE", xa))
                b = dict(zip("XZDE", xb))
                val = sum(
                    sign * a[qa] * b[qb] for (qa, qb), sign in WIN_SIGNS.items()
                ) / 10.0
                if val > best:
                    best, best_assign = val, (a, b)
        assert best == pytest.approx(0.6, abs=1e-14)
        s = deterministic_strategy(*best_assign)
        assert game_expectation_exact(s) == pytest.approx(best, abs=1e-14)
        assert MAX_GAME_EXPECTATION - best == pytest.approx(
            (2 * SQRT2 + 1) / 5 - 0.6, abs=1e-14
        )


class TestRefereeLemma:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_exhautive_equality(self, m):
        assert referee_expectation_check(m)

    def test_cap(self):
        with pytest.raises(ValueError):
            referee_expectation_check(7)

    def test_m2_examples(self):
        assert threshold_referee_expectation((1, 1)) == Fraction(1)
        assert threshold_referee_expectation((1, -1)) == Fraction(0)
        assert threshold_referee_expectation((-1, -1)) == Fraction(-1)

    def test_m1_reduces_to_single_outcome(self):
        assert threshold_referee_expectation((1,)) == Fraction(1)
        assert threshold_referee_expectation((-1,)) == Fraction(-1)


class TestRoundSampling:
    def test_deterministic_strategy_outcomes(self):
        # Answers are always +1, so each round's accept value is the drawn
        # question pair's sign, and the sampled mean estimates (8 - 2) / 10.
        s = deterministic_strategy(ALL_PLUS, ALL_PLUS)
        for referee in ("threshold", "subtest"):
            mc = sample_game(s, 20_000, seed=5, referee=referee)
            assert abs(mc["mean"] - 0.6) <= 4 * mc["stderr"]


def per_question_joint_distribution(s, qa, qb):
    """Oracle: one Born probability per (Alice answer, Bob answer) pair."""
    psi = s.state
    outcomes = []
    probs = []
    for a, pa in s.measurement("alice", qa):
        left = pa @ psi
        for b, pb in s.measurement("bob", qb):
            outcomes.append((a, b))
            probs.append(float(np.linalg.norm(left @ pb.T) ** 2))
    probs = np.asarray(probs)
    return outcomes, probs / probs.sum()


def projector_joint_distribution(s, qa, qb):
    """Oracle: the projector form of game._joint_distribution, row order and
    all, with probabilities ||P_a psi P_b^T||^2."""
    psi = s.state
    answers_a, projs_a = zip(*s.measurement("alice", qa))
    answers_b, projs_b = zip(*s.measurement("bob", qb))
    na, nb = len(projs_a), len(projs_b)
    da, db = psi.shape
    # left[(a, i), j] = (P_a psi)[i, j]; joint[(a, i), (b, l)] = (P_a psi P_b^T)[i, l]
    left = np.array(projs_a).reshape(na * da, da) @ psi
    joint = (left @ np.array(projs_b).reshape(nb * db, db).T).reshape(na, da, nb, db)
    probs = (joint.real**2 + joint.imag**2).sum(axis=(1, 3)).ravel()
    prods = np.array(answers_a, dtype=np.int8)[:, None] * np.array(answers_b, dtype=np.int8)
    return prods.reshape(na * nb, s.m), probs / probs.sum()


def count_level_oracle_mean(s, rounds, seed, referee="threshold"):
    """Oracle sampler at the count level, written apart from game.py: the
    question counts from one Generator.multinomial, then per asked question
    a multinomial over its joint answers, each answer pair scored sub-test by
    sub-test with win_predicate, then per tuple of accept values a
    multinomial over the referee's equally likely draws, each judged by the
    literal rule.  Returns the mean accept value."""
    m = s.m
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(rounds, [10.0**-m] * 10**m)
    by_accepts = {}
    for code, count in enumerate(counts.tolist()):
        if not count:
            continue
        pairs = [SPP_ALLOWED_PAIRS[(code // 10**k) % 10] for k in range(m)]
        qa = "".join(p[0] for p in pairs)
        qb = "".join(p[1] for p in pairs)
        outcomes, probs = per_question_joint_distribution(s, qa, qb)
        for (a, b), n in zip(outcomes, rng.multinomial(count, probs).tolist()):
            accepts = tuple(
                1 if win_predicate(*pairs[k], a[k], b[k]) else -1 for k in range(m)
            )
            by_accepts[accepts] = by_accepts.get(accepts, 0) + n
    if referee == "threshold":
        draws, rule = range(-m + 1, m + 1), lambda accepts, t: sum(accepts) >= t
    else:
        draws, rule = range(m), lambda accepts, k: accepts[k] == 1
    accepted = 0
    for accepts, n in sorted(by_accepts.items()):
        split = rng.multinomial(n, [1 / len(draws)] * len(draws)).tolist()
        accepted += sum(c for d, c in zip(draws, split) if rule(accepts, d))
    return (2 * accepted - rounds) / rounds


# Rounds of a law test: sigma is about 6.5e-7, so a 4-sigma band checks the
# sampler's law to about 3e-6.
LAW_ROUNDS = 10**12


def assert_same_law(s, seed, referee):
    """The sampler and the count-level oracle, each at LAW_ROUNDS, differ by
    at most 4 standard errors of the difference of two such samples."""
    got = sample_game(s, LAW_ROUNDS, seed, referee)
    assert (got["rounds"], got["seed"], got["referee"]) == (LAW_ROUNDS, seed, referee)
    want = count_level_oracle_mean(s, LAW_ROUNDS, seed, referee)
    assert abs(got["mean"] - want) <= 4 * math.sqrt(2) * got["stderr"]


def merged_last_symbol(s):
    """s with Alice's X... and Bob's Z... answers merged over the last symbol:
    2^(m-1) projectors of rank 2."""

    def coarse(meas):
        merged = {}
        for a, p in meas:
            key = a[:-1] + (1,)
            merged[key] = merged.get(key, 0) + p
        return Measurement(merged)

    tables = {
        party: {
            kind: coarse(meas) if kind[0] == first else meas
            for kind, meas in getattr(s, party).items()
        }
        for party, first in (("alice", "X"), ("bob", "Z"))
    }
    return Strategy(state=s.state, alice=tables["alice"], bob=tables["bob"], m=s.m)


def coarse_grained_strategy(m, path):
    """A valid spp strategy file whose Alice X... and Bob Z... measurements
    merge the answers that differ in the last symbol, so they have 2^(m-1)
    projectors and every other question 2^m."""
    s = perturb_strategy(honest_spp_strategy(m), NoiseSpec(theta=0.05, w=0.02), seed=4)
    path.write_text(json.dumps(strategy_to_json(merged_last_symbol(s))))
    return strategy_from_json(json.loads(path.read_text()))


class TestSamplerAgainstCountLevelOracle:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("referee", ["threshold", "subtest"])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_same_law_as_oracle(self, m, referee, noisy):
        s = honest_spp_strategy(m)
        if noisy:
            s = perturb_strategy(s, NoiseSpec(theta=0.04, w=0.03), seed=m)
        assert_same_law(s, 100 + m, referee)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("referee", ["threshold", "subtest"])
    def test_measurements_with_fewer_outcomes(self, tmp_path, m, referee):
        s = coarse_grained_strategy(m, tmp_path / "coarse.json")
        assert all(c.passed for c in validate_strategy(s))
        counts = {
            len(s.measurement(party, kind).projectors)
            for party in ("alice", "bob")
            for kind in s.kinds(party)
        }
        assert counts == {2 ** (m - 1), 2**m}
        assert_same_law(s, 8, referee)

    def test_one_distribution_per_distinct_question(self, monkeypatch):
        s = honest_spp_strategy(2)
        asked = []
        joint = game._joint_distribution

        def counted(strategy, qa, qb):
            asked.append((qa, qb))
            return joint(strategy, qa, qb)

        monkeypatch.setattr(game, "_joint_distribution", counted)
        sample_game(s, 300, seed=12)
        counts = np.random.default_rng(12).multinomial(300, [0.01] * 100)
        want = [game._party_strings((code % 10, code // 10)) for code in np.flatnonzero(counts)]
        assert asked == want

    @pytest.mark.parametrize(
        "probs",
        [
            [0.5, np.nan, 0.25, 0.25],
            [0.5, np.inf, 0.25, 0.25],
            [0.75, -0.25, 0.25, 0.25],
            [0.0, 0.0, 0.0, 0.0],
        ],
    )
    def test_invalid_distribution_rejected(self, monkeypatch, probs):
        def bad(strategy, qa, qb):
            prods = np.array([[1], [-1], [-1], [1]], dtype=np.int8)
            return prods, np.array(probs)

        monkeypatch.setattr(game, "_joint_distribution", bad)
        with pytest.raises(ValueError):
            sample_game(honest_spp_strategy(1), 50, seed=3)


def joint_distribution_cases():
    """(name, strategy) pairs: honest, rotated, junk-carrying (rank-3 and
    rank-2 projectors) and fewer-outcome measurements."""
    for m in (1, 2, 3):
        honest = honest_spp_strategy(m)
        rotated = perturb_strategy(honest, NoiseSpec(theta=0.3, w=0.2), seed=m)
        yield f"honest-m{m}", honest
        yield f"rotated-m{m}", rotated
        if m <= 2:
            yield f"junk-m{m}", with_junk(rotated, seed=m)
        yield f"fewer-outcomes-m{m}", merged_last_symbol(rotated)


class TestJointDistributionAgainstProjectorOracle:
    @pytest.mark.parametrize(
        "s", [pytest.param(s, id=name) for name, s in joint_distribution_cases()]
    )
    def test_every_question(self, s):
        worst = 0.0
        for combo in itertools.product(range(10), repeat=s.m):
            qa, qb = game._party_strings(combo)
            prods, probs = game._joint_distribution(s, qa, qb)
            want_prods, want_probs = projector_joint_distribution(s, qa, qb)
            assert np.array_equal(prods, want_prods)
            worst = max(worst, np.abs(probs - want_probs).max())
        assert worst <= 1e-15

    def test_rows_follow_answer_order(self):
        # Answers listed out of product order keep their listed order, and an
        # answer with a zero projector keeps its (zero-probability) rows.
        plus, minus = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        meas = Measurement({(-1,): minus, (1,): plus})
        empty = Measurement({(1,): np.eye(2), (-1,): np.zeros((2, 2))})
        psi = np.eye(2) / SQRT2
        s = Strategy(state=psi, alice={"Z": meas}, bob={"Z": empty}, m=1)
        prods, probs = game._joint_distribution(s, "Z", "Z")
        assert prods.ravel().tolist() == [-1, 1, 1, -1]
        assert np.allclose(probs, [0.5, 0.0, 0.5, 0.0], atol=1e-15)


class TestOutcomeStatistics:
    @pytest.mark.parametrize("rounds", [2, 3, 17, 1000, 65_537, 1_000_000])
    def test_against_numpy(self, rounds):
        rng = np.random.default_rng(rounds)
        for accepts in {0, 1, rounds // 2, rounds - 1, rounds, *rng.integers(0, rounds + 1, 20)}:
            accepted = np.full(rounds, -1, dtype=np.int8)
            accepted[rng.permutation(rounds)[:accepts]] = 1
            mean, stderr = game.outcome_statistics(int(accepts), rounds)
            assert mean == float(accepted.mean())
            want = float(accepted.std(ddof=1) / math.sqrt(rounds))
            assert abs(stderr - want) <= 4e-16 * want


class TestSamplerMemory:
    @pytest.mark.parametrize("m, rounds", [(2, 10**3), (3, 10**5)])
    @pytest.mark.parametrize("referee", ["threshold", "subtest"])
    def test_peak_does_not_grow_with_rounds(self, m, rounds, referee):
        # The sampler holds the 10^m question counts and 2^m mask entries
        # per asked question, and nothing per round.  At these rounds every
        # question is asked, so 10^12 rounds add nothing but a few bytes.
        s = perturb_strategy(honest_spp_strategy(m), NoiseSpec(theta=0.03, w=0.01), seed=1)
        peaks = []
        for n in (rounds, 10**12):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                sample_game(s, n, seed=4, referee=referee)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 4 * 2**10

    @pytest.mark.parametrize("referee", ["threshold", "subtest"])
    def test_peak_at_m4(self, referee):
        # Each asked question's 2^m mask counts are drawn right after its
        # fold and added into one vector, so no array of 10^4 x 16 entries
        # is held (that took a traced 2.9 MB).
        s = perturb_strategy(honest_spp_strategy(4), NoiseSpec(theta=0.03), seed=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sample_game(s, 2 * 10**5, seed=1, referee=referee)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestSampledExpectation:
    def test_honest_m1_within_three_sigma(self):
        s = honest_spp_strategy(1)
        exact = game_expectation_exact(s)
        mc = sample_game(s, 100_000, seed=2026)
        assert abs(mc["mean"] - exact) <= 3 * mc["stderr"]

    def test_honest_m2_within_four_sigma(self):
        s = honest_spp_strategy(2)
        exact = game_expectation_exact(s)
        mc = sample_game(s, 100_000, seed=2026)
        assert abs(mc["mean"] - exact) <= 4 * mc["stderr"]

    def test_subtest_referee_agrees(self):
        s = honest_spp_strategy(1)
        exact = game_expectation_exact(s)
        a = sample_game(s, 50_000, seed=9, referee="threshold")
        b = sample_game(s, 50_000, seed=9, referee="subtest")
        assert abs(a["mean"] - exact) <= 4 * a["stderr"]
        assert abs(b["mean"] - exact) <= 4 * b["stderr"]

    def test_deterministic_given_seed(self):
        s = honest_spp_strategy(1)
        a = sample_game(s, 10_000, seed=31)
        b = sample_game(s, 10_000, seed=31)
        assert a == b

    def test_unknown_referee(self):
        with pytest.raises(ValueError):
            sample_game(honest_spp_strategy(1), 10, seed=0, referee="oracle")

    @pytest.mark.parametrize("rounds", [1, 0, -4])
    def test_too_few_rounds_for_a_standard_error(self, rounds):
        with pytest.raises(ValueError, match="at least 2 rounds"):
            sample_game(honest_spp_strategy(1), rounds, seed=0)


class TestSampledLawAtScale:
    # One sample of LAW_ROUNDS rounds per case, within 4 sigma of the exact value.
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("referee", ["threshold", "subtest"])
    def test_noisy_strategy(self, m, referee):
        s = perturb_strategy(honest_spp_strategy(m), NoiseSpec(theta=0.03, w=0.01), seed=m)
        mc = sample_game(s, LAW_ROUNDS, seed=2026 + m, referee=referee)
        assert abs(mc["mean"] - game_expectation_exact(s)) <= 4 * mc["stderr"]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("referee", ["threshold", "subtest"])
    def test_measurements_with_fewer_outcomes(self, tmp_path, m, referee):
        s = coarse_grained_strategy(m, tmp_path / "coarse.json")
        mc = sample_game(s, LAW_ROUNDS, seed=3030 + m, referee=referee)
        assert abs(mc["mean"] - game_expectation_exact(s)) <= 4 * mc["stderr"]


class TestDeltaEpsilon:
    def test_honest_is_zero(self):
        s = honest_spp_strategy(1)
        delta, eps = delta_and_epsilon(game_expectation_exact(s), s.m)
        assert delta == 0.0 and eps == 0.0

    def test_formula_on_classical_strategy(self):
        s = deterministic_strategy(ALL_PLUS, ALL_PLUS)
        delta, eps = delta_and_epsilon(game_expectation_exact(s), s.m)
        assert delta == pytest.approx(MAX_GAME_EXPECTATION - 0.6, abs=1e-14)
        assert eps == pytest.approx(2 * delta / (10 * 2), abs=1e-16)

    def test_deficit_scale_example(self):
        # delta = 0.01 at m=1 maps to eps = 1e-3.
        assert 2 * 0.01 / (10**1 * 2 * 1) == pytest.approx(1e-3)


class TestValueRange:
    def test_quantum_strategies_stay_below_optimum(self):
        from selftest_lab.strategies import NoiseSpec, perturb_strategy

        honest = honest_spp_strategy(1)
        for seed in range(5):
            s = perturb_strategy(honest, NoiseSpec(theta=0.1 * (seed + 1) / 5), seed=seed)
            value = game_expectation_exact(s)
            assert -1.0 - 1e-12 <= value <= MAX_GAME_EXPECTATION + 1e-9


def literal_referee_expectation(s):
    """Independent oracle for E(A): average the literal referee procedure
    (joint Born probabilities, per-sub-test accepts, uniform threshold)
    over every question combo, with no signed-correlation shortcut."""
    from selftest_lab.protocols import SPP_ALLOWED_PAIRS

    m = s.m
    psi = s.state
    total = 0.0
    for combo in itertools.product(range(10), repeat=m):
        pairs = [SPP_ALLOWED_PAIRS[i] for i in combo]
        qa = "".join(p[0] for p in pairs)
        qb = "".join(p[1] for p in pairs)
        meas_a, meas_b = s.measurement("alice", qa), s.measurement("bob", qb)
        for a, pa in meas_a:
            left = pa @ psi
            for b, pb in meas_b:
                prob = float(np.linalg.norm(left @ pb.T) ** 2)
                if prob == 0.0:
                    continue
                accepts = [
                    1 if win_predicate(*pairs[k], a[k], b[k]) else -1
                    for k in range(m)
                ]
                count = sum(accepts)
                hits = sum(1 for t in range(-m + 1, m + 1) if count >= t)
                total += prob * (hits - (2 * m - hits)) / (2 * m)
    return total / 10**m


class TestLiteralRefereeOracle:
    def test_exact_value_matches_literal_procedure_honest(self):
        s = honest_spp_strategy(1)
        assert game_expectation_exact(s) == pytest.approx(
            literal_referee_expectation(s), abs=1e-12
        )

    def test_exact_value_matches_literal_procedure_noisy(self):
        from selftest_lab.strategies import NoiseSpec, perturb_strategy

        s = perturb_strategy(
            honest_spp_strategy(2), NoiseSpec(theta=0.07, w=0.03), seed=11
        )
        assert game_expectation_exact(s) == pytest.approx(
            literal_referee_expectation(s), abs=1e-12
        )

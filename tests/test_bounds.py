import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from selftest_lab.bitstrings import BitString
from selftest_lab.bounds import (
    anticommute_bound,
    bound_names,
    chsh_anticommute_bound,
    evaluate_bound,
    game_robustness_bound,
    graph_state_bound,
    induced_epsilon_functions,
    mayers_yao_anticommute_bound,
    my_parallel_bound,
    my_parallel_recomputed_bound,
    spp_recomputed_bound,
    spp_selftest_bound,
    sufficient_conditions_bound,
    swap_step_bound,
    xz_swap_bound,
)
from selftest_lab.strategies import EpsilonBundle

UNIFORM = EpsilonBundle(eps1=0.01, eps2=0.01, eps3=0.01)
ZERO = EpsilonBundle()

# Golden values below were produced by scripts/compute_goldens.py.


def bits(s):
    return BitString.from_str(s)


class TestAnticommuteBound:
    def test_zero_strings(self):
        z = BitString.zeros(4)
        assert anticommute_bound(z, z, UNIFORM) == 0.0

    def test_zero_bundle(self):
        for s, t in itertools.product(BitString.all_strings(4), repeat=2):
            assert anticommute_bound(s, t, ZERO) == 0.0

    def test_hand_example(self):
        # (1*1 + 0)(0.01 + 0.02) + 1*(0.01-0.01) + 2*0.01*1 = 0.05
        assert anticommute_bound(bits("10"), bits("10"), UNIFORM) == pytest.approx(0.05)

    def test_nonnegative_everywhere_small(self):
        for s, t in itertools.product(BitString.all_strings(4), repeat=2):
            assert anticommute_bound(s, t, UNIFORM) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            anticommute_bound(bits("10"), bits("1000"), UNIFORM)


class TestXzSwapBound:
    def test_zeros(self):
        assert xz_swap_bound(BitString.zeros(4), UNIFORM) == 0.0
        assert xz_swap_bound(bits("11"), ZERO) == 0.0

    def test_hand_example(self):
        # |s| eps2 = 0.02; both half terms contribute 0.05 each.
        assert xz_swap_bound(bits("11"), UNIFORM) == pytest.approx(0.12)


class TestSwapStepBound:
    def test_zero_string(self):
        assert swap_step_bound(BitString.zeros(6), 1, UNIFORM) == 0.0

    def test_hand_example_bit_clear(self):
        e = EpsilonBundle(eps1=0.01, eps2=0.005, eps3=0.0)
        assert swap_step_bound(bits("110000"), 3, e) == pytest.approx(0.04)

    def test_set_bit_adds_eps3_minus_eps1(self):
        e = EpsilonBundle(eps1=0.01, eps2=0.005, eps3=0.02)
        base = swap_step_bound(bits("110000"), 3, e)
        assert swap_step_bound(bits("110000"), 1, e) == pytest.approx(base + 0.01)

    def test_side_mismatch_rejected(self):
        with pytest.raises(ValueError):
            swap_step_bound(bits("110000"), 4, UNIFORM)  # t on side a, k on side b
        with pytest.raises(ValueError):
            swap_step_bound(bits("100100"), 1, UNIFORM)  # t spans both halves


def brute_force_graph_bound(n, p, e_ac, e_xz):
    """Independent re-implementation of the two enumerated double sums."""
    strings = [BitString.from_index(v, n) for v in range(2**n)]
    total1 = 0.0
    total2 = 0.0
    for s in strings:
        for t in strings:
            total1 += e_ac(s, p) + e_ac(s, p ^ t)
            total2 += e_ac(s, t) + e_xz(t)
    scale = 2.0 ** -(2 * n - 1)
    return math.sqrt(scale * total1) + math.sqrt(scale * total2)


class TestGraphStateBound:
    def test_zero_functions(self):
        zero = lambda *args: 0.0
        assert graph_state_bound(2, BitString.zeros(2), zero, zero) == 0.0

    @pytest.mark.parametrize("n", [2, 4])
    def test_constant_functions_match_closed_form(self, n):
        a, b = 0.003, 0.007
        val = graph_state_bound(
            n, BitString.zeros(n), lambda s, t: a, lambda s: b
        )
        assert val == pytest.approx(2 * math.sqrt(a) + math.sqrt(2 * (a + b)), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_independent_enumeration(self, n):
        e_ac, e_xz = induced_epsilon_functions(UNIFORM)
        p = BitString.zeros(n)
        assert graph_state_bound(n, p, e_ac, e_xz) == pytest.approx(
            brute_force_graph_bound(n, p, e_ac, e_xz), abs=1e-12
        )

    def test_enumerated_value_differs_from_closed_form(self):
        # The published closed form is NOT the enumeration of the published
        # epsilon functions; both values are locked here to document the gap.
        e_ac, e_xz = induced_epsilon_functions(UNIFORM)
        enum = graph_state_bound(2, BitString.zeros(2), e_ac, e_xz)
        closed = sufficient_conditions_bound(2, 0, UNIFORM)
        assert enum == pytest.approx(0.5880741785844452, abs=1e-12)
        assert closed == pytest.approx(0.32247448713915894, abs=1e-12)
        assert enum - closed > 0.2

    def test_limit_guard(self):
        zero = lambda *args: 0.0
        with pytest.raises(ValueError):
            graph_state_bound(6, BitString.zeros(6), zero, zero)


class TestSufficientConditionsBound:
    def test_zero_bundle(self):
        assert sufficient_conditions_bound(2, 0, ZERO) == 0.0
        assert sufficient_conditions_bound(6, 3, ZERO) == 0.0

    def test_golden_value(self):
        assert sufficient_conditions_bound(2, 0, UNIFORM) == pytest.approx(
            0.32247448713915894, abs=1e-14
        )

    def test_nondecreasing_in_each_epsilon_and_weight(self):
        grid = np.linspace(0.0, 0.05, 10)
        for n in (2, 4, 6):
            for name in ("eps1", "eps2", "eps3"):
                vals = [
                    sufficient_conditions_bound(
                        n, 1, EpsilonBundle(**{**vars(UNIFORM), name: g})
                    )
                    for g in grid
                ]
                assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:])), (n, name)
            by_weight = [
                sufficient_conditions_bound(n, w, UNIFORM) for w in range(n + 1)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(by_weight, by_weight[1:]))

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError):
            sufficient_conditions_bound(2, 3, UNIFORM)


class TestAnticommuteEstimates:
    def test_zero(self):
        assert mayers_yao_anticommute_bound(0.0) == 0.0
        assert chsh_anticommute_bound(0.0) == 0.0

    def test_golden_values(self):
        assert mayers_yao_anticommute_bound(0.005) == pytest.approx(
            4.14604340772559, abs=1e-12
        )
        assert chsh_anticommute_bound(0.01) == pytest.approx(
            0.33635856610148585, abs=1e-14
        )

    def test_chsh_full_violation_input(self):
        # Degenerate sanity: eps = 2*sqrt(2) collapses to 2 * 2 * sqrt(2).
        assert chsh_anticommute_bound(2 * math.sqrt(2)) == pytest.approx(
            4 * math.sqrt(2), abs=1e-12
        )

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 1.0, 11)
        my = [mayers_yao_anticommute_bound(g) for g in grid]
        assert all(a < b for a, b in zip(my, my[1:]))
        ch = [chsh_anticommute_bound(g) for g in grid]
        assert all(a < b for a, b in zip(ch, ch[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mayers_yao_anticommute_bound(-1e-9)
        with pytest.raises(ValueError):
            chsh_anticommute_bound(-1e-9)


class TestSelfTestBounds:
    def test_zero_error_gives_zero(self):
        for n in (2, 4):
            for w in (0, n // 2):
                assert my_parallel_bound(n, w, 0.0) == 0.0
                assert my_parallel_recomputed_bound(n, w, 0.0) == 0.0
                assert spp_selftest_bound(n, w, 0.0) == 0.0
                assert spp_recomputed_bound(n, w, 0.0) == 0.0
                assert game_robustness_bound(n, w, 0.0) == 0.0

    def test_golden_values(self):
        assert my_parallel_bound(2, 0, 1e-6) == pytest.approx(
            1.065518628948216, abs=1e-12
        )
        assert spp_selftest_bound(2, 1, 1e-6) == pytest.approx(
            0.26663172569422633, abs=1e-14
        )
        assert game_robustness_bound(2, 0, 1e-8) == pytest.approx(
            0.12836214494993553, abs=1e-14
        )

    def test_nondecreasing_in_error(self):
        grid = np.linspace(0.0, 0.2, 10)
        for n in (2, 4):
            for fn in (
                my_parallel_bound,
                my_parallel_recomputed_bound,
                spp_selftest_bound,
                spp_recomputed_bound,
                game_robustness_bound,
            ):
                vals = [fn(n, 1, g) for g in grid]
                assert all(v >= 0 for v in vals)
                assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:])), fn

    def test_nondecreasing_in_weight(self):
        for fn in (my_parallel_bound, spp_selftest_bound):
            vals = [fn(4, w, 0.01) for w in range(5)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_game_bound_growth_sanity(self):
        ratio = game_robustness_bound(4, 0, 1e-8) / game_robustness_bound(2, 0, 1e-8)
        assert 2.0 < ratio < 6.0


class TestBoundReports:
    def test_vacuous_flag(self):
        report = evaluate_bound("my-parallel", 2, 0, EpsilonBundle(eps=0.005))
        assert report["value"] > 2.0
        assert report["vacuous"]
        tiny = evaluate_bound("chsh-ac", 2, 0, EpsilonBundle(eps=1e-6))
        assert not tiny["vacuous"]

    def test_all_names_evaluate(self):
        e = EpsilonBundle(eps=1e-4, eps1=1e-4, eps2=1e-4, eps3=1e-4, delta=1e-4)
        for name in bound_names():
            report = evaluate_bound(name, 2, 1, e)
            assert report["value"] >= 0.0
            assert report["name"] == name

    def test_radicand_terms_exposed(self):
        report = evaluate_bound("my-parallel", 2, 0, EpsilonBundle(eps=1e-4))
        assert set(report["terms"]) == {"radicand_1", "radicand_2"}
        assert report["value"] == pytest.approx(
            math.sqrt(report["terms"]["radicand_1"]) + math.sqrt(report["terms"]["radicand_2"])
        )

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            evaluate_bound("tightest", 2, 0, ZERO)


bundles = hst.builds(
    EpsilonBundle,
    eps=hst.floats(min_value=0, max_value=1),
    eps1=hst.floats(min_value=0, max_value=1),
    eps2=hst.floats(min_value=0, max_value=1),
    eps3=hst.floats(min_value=0, max_value=1),
    delta=hst.floats(min_value=0, max_value=1),
)


class TestBundleProperties:
    @given(bundles, hst.integers(0, 15), hst.integers(0, 15))
    def test_anticommute_nonnegative(self, e, sv, tv):
        s, t = BitString.from_index(sv, 4), BitString.from_index(tv, 4)
        assert anticommute_bound(s, t, e) >= 0.0
        assert xz_swap_bound(s, e) >= 0.0

    @given(bundles, hst.integers(2, 3).map(lambda h: 2 * h), hst.integers(0, 4))
    def test_sufficient_conditions_nonnegative(self, e, n, w):
        assert sufficient_conditions_bound(n, min(w, n), e) >= 0.0


class TestRandomSweep:
    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.choice([2, 4, 6]))
            e = EpsilonBundle(
                eps=float(rng.uniform(0, 0.5)),
                eps1=float(rng.uniform(0, 0.5)),
                eps2=float(rng.uniform(0, 0.5)),
                eps3=float(rng.uniform(0, 0.5)),
                delta=float(rng.uniform(0, 0.5)),
            )
            s = BitString.from_index(int(rng.integers(0, 2**n)), n)
            t = BitString.from_index(int(rng.integers(0, 2**n)), n)
            w = int(rng.integers(0, n + 1))
            assert anticommute_bound(s, t, e) >= 0.0
            assert xz_swap_bound(s, e) >= 0.0
            assert sufficient_conditions_bound(n, w, e) >= 0.0
            assert my_parallel_bound(n, w, e.eps) >= 0.0
            assert spp_selftest_bound(n, w, e.eps) >= 0.0
            assert game_robustness_bound(n, w, e.delta) >= 0.0

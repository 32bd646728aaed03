import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from selftest_lab.bounds import (
    _sufficient_radicands,
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
from selftest_lab import bounds
from selftest_lab.bounds import EpsilonBundle

UNIFORM = EpsilonBundle(eps1=0.01, eps2=0.01, eps3=0.01)
ZERO = EpsilonBundle()

# Each sum-of-roots bound of the table, by name, as a function of (n, weight_p, bundle).
SUM_OF_ROOTS = {
    "sufficient-conditions": sufficient_conditions_bound,
    "my-parallel": lambda n, w, e: my_parallel_bound(n, w, e.eps),
    "my-parallel-recomputed": lambda n, w, e: my_parallel_recomputed_bound(n, w, e.eps),
    "spp": lambda n, w, e: spp_selftest_bound(n, w, e.eps),
    "spp-recomputed": lambda n, w, e: spp_recomputed_bound(n, w, e.eps),
    "game": lambda n, w, e: game_robustness_bound(n, w, e.delta),
}

# Golden values below were produced by scripts/compute_goldens.py.


class TestAnticommuteBound:
    def test_zero_strings(self):
        assert anticommute_bound(0, 0, 4, UNIFORM) == 0.0

    def test_zero_bundle(self):
        for s, t in itertools.product(range(2**4), repeat=2):
            assert anticommute_bound(s, t, 4, ZERO) == 0.0

    def test_hand_example(self):
        # (1*1 + 0)(0.01 + 0.02) + 1*(0.01-0.01) + 2*0.01*1 = 0.05
        assert anticommute_bound(0b10, 0b10, 2, UNIFORM) == pytest.approx(0.05)

    def test_nonnegative_everywhere_small(self):
        for s, t in itertools.product(range(2**4), repeat=2):
            assert anticommute_bound(s, t, 4, UNIFORM) >= 0.0


class TestXzSwapBound:
    def test_zeros(self):
        assert xz_swap_bound(0, 4, UNIFORM) == 0.0
        assert xz_swap_bound(0b11, 2, ZERO) == 0.0

    def test_hand_example(self):
        # |s| eps2 = 0.02; both half terms contribute 0.05 each.
        assert xz_swap_bound(0b11, 2, UNIFORM) == pytest.approx(0.12)


class TestSwapStepBound:
    def test_zero_string(self):
        assert swap_step_bound(0, 1, 6, UNIFORM) == 0.0

    def test_hand_example_bit_clear(self):
        e = EpsilonBundle(eps1=0.01, eps2=0.005, eps3=0.0)
        assert swap_step_bound(0b110000, 3, 6, e) == pytest.approx(0.04)

    def test_set_bit_adds_eps3_minus_eps1(self):
        e = EpsilonBundle(eps1=0.01, eps2=0.005, eps3=0.02)
        base = swap_step_bound(0b110000, 3, 6, e)
        assert swap_step_bound(0b110000, 1, 6, e) == pytest.approx(base + 0.01)

    def test_side_mismatch_rejected(self):
        with pytest.raises(ValueError):
            swap_step_bound(0b110000, 4, 6, UNIFORM)  # t on side a, k on side b
        with pytest.raises(ValueError):
            swap_step_bound(0b100100, 1, 6, UNIFORM)  # t spans both halves


def brute_force_graph_bound(n, p, e_ac, e_xz):
    """Independent re-implementation of the two enumerated double sums."""
    strings = range(2**n)
    total1 = 0.0
    total2 = 0.0
    for s in strings:
        for t in strings:
            total1 += e_ac(s, p) + e_ac(s, p ^ t)
            total2 += e_ac(s, t) + e_xz(t)
    scale = 2.0 ** -(2 * n - 1)
    return math.sqrt(scale * total1) + math.sqrt(scale * total2)


def enumerated_radicands(n, p, e):
    """The two radicands of graph_state_bound over the lemma budgets at bundle e,
    as exact sums with the weight 1/2^(2n-1)."""
    e_ac, e_xz = induced_epsilon_functions(n, e)
    pairs = list(itertools.product(range(2**n), repeat=2))
    weight = Fraction(1, 2 ** (2 * n - 1))
    return (
        weight * sum(e_ac(s, p) + e_ac(s, p ^ t) for s, t in pairs),
        weight * sum(e_ac(t, u) + e_xz(u) for t, u in pairs),
    )


F = Fraction
# (n, |p|) -> (enumerated, closed form): each a pair of radicands, each radicand
# its (eps1, eps2, eps3) coefficients.
RADICAND_COEFFICIENTS = {
    (2, 0): (((0, F(9, 2), 1), (0, F(21, 2), 2)), ((0, 1, F(1, 2)), (0, 3, 1))),
    (2, 1): (((0, F(19, 2), 2), (0, F(21, 2), 2)), ((F(1, 2), 3, 1), (0, 3, 1))),
    (2, 2): (((0, F(25, 2), 3), (0, F(21, 2), 2)), ((1, 5, F(3, 2)), (0, 3, 1))),
    (4, 0): (((2, F(221, 16), 2), (4, F(493, 16), 4)), ((1, 4, 1), (2, 10, 2))),
    (4, 1): (((3, F(345, 16), 3), (4, F(493, 16), 4)), ((F(5, 2), 8, F(3, 2)), (2, 10, 2))),
    (4, 2): (((4, F(453, 16), 4), (4, F(493, 16), 4)), ((4, 12, 2), (2, 10, 2))),
    (4, 3): (((5, F(537, 16), 5), (4, F(493, 16), 4)), ((F(11, 2), 16, F(5, 2)), (2, 10, 2))),
    (4, 4): (((6, F(605, 16), 6), (4, F(493, 16), 4)), ((7, 20, 3), (2, 10, 2))),
}


class TestGraphStateBound:
    def test_zero_functions(self):
        zero = lambda *args: 0.0
        assert graph_state_bound(2, 0, zero, zero) == 0.0

    @pytest.mark.parametrize("n", [2, 4])
    def test_constant_functions_match_closed_form(self, n):
        a, b = 0.003, 0.007
        val = graph_state_bound(n, 0, lambda s, t: a, lambda s: b)
        assert val == pytest.approx(2 * math.sqrt(a) + math.sqrt(2 * (a + b)), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_independent_enumeration(self, n):
        e_ac, e_xz = induced_epsilon_functions(n, UNIFORM)
        p = 0
        assert graph_state_bound(n, p, e_ac, e_xz) == pytest.approx(
            brute_force_graph_bound(n, p, e_ac, e_xz), abs=1e-12
        )

    @pytest.mark.parametrize("n", [2, 4])
    def test_coefficient_table_against_closed_form(self, n):
        # Both radicands are linear in (eps1, eps2, eps3), so unit bundles read
        # off their coefficients exactly.  The enumerated double sums depend on
        # p only through |p|; the closed form is not their value.
        units = [
            EpsilonBundle(**{f: Fraction(int(f == unit)) for f in ("eps1", "eps2", "eps3")})
            for unit in ("eps1", "eps2", "eps3")
        ]
        for p in range(2**n):
            enumerated = tuple(zip(*(enumerated_radicands(n, p, e) for e in units)))
            closed = tuple(zip(*(
                _sufficient_radicands(Fraction(n), Fraction(p.bit_count()), e.eps1, e.eps2, e.eps3)
                for e in units
            )))
            assert (enumerated, closed) == RADICAND_COEFFICIENTS[n, p.bit_count()], p
            # Each eps3 coefficient, and radicand 2's eps1, is twice the closed form's.
            for got, want in zip(enumerated, closed):
                assert got[2] == 2 * want[2]
            assert enumerated[1][0] == 2 * closed[1][0]

    @pytest.mark.parametrize("n, weight", sorted(RADICAND_COEFFICIENTS))
    def test_coefficient_table_gives_both_bounds(self, n, weight):
        # At eps1..3 = 0.01 each radicand is 0.01 times its row's coefficient sum.
        enumerated, closed = RADICAND_COEFFICIENTS[n, weight]
        p = (1 << weight) - 1
        assert graph_state_bound(n, p, *induced_epsilon_functions(n, UNIFORM)) == pytest.approx(
            sum(math.sqrt(0.01 * sum(r)) for r in enumerated), abs=1e-12)
        assert sufficient_conditions_bound(n, weight, UNIFORM) == pytest.approx(
            sum(math.sqrt(0.01 * sum(r)) for r in closed), abs=1e-12)

    def test_limit_guard(self):
        zero = lambda *args: 0.0
        with pytest.raises(ValueError):
            graph_state_bound(6, 0, zero, zero)

    @pytest.mark.parametrize("p", [-1, 4])
    def test_p_out_of_range(self, p):
        zero = lambda *args: 0.0
        with pytest.raises(ValueError, match=f"p={p} out of range for 2 bits"):
            graph_state_bound(2, p, zero, zero)


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

    @pytest.mark.parametrize("fn, field", [
        (my_parallel_bound, "eps"),
        (my_parallel_recomputed_bound, "eps"),
        (spp_selftest_bound, "eps"),
        (spp_recomputed_bound, "eps"),
        (game_robustness_bound, "delta"),
    ])
    @pytest.mark.parametrize("x", [-1e-9, math.nan, math.inf])
    def test_bad_input_rejected(self, fn, field, x):
        with pytest.raises(ValueError, match=f"^{field} must be finite and nonnegative"):
            fn(2, 0, x)

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

    def test_sum_of_roots_names(self):
        assert set(bound_names()) == {*SUM_OF_ROOTS, "mayers-yao-ac", "chsh-ac"}

    @pytest.mark.parametrize("name", sorted(SUM_OF_ROOTS))
    @pytest.mark.parametrize("n, w", [(2, 0), (4, 3)])
    def test_radicand_terms_exposed(self, name, n, w):
        e = EpsilonBundle(eps=1e-4, eps1=1e-4, eps2=2e-4, eps3=3e-4, delta=1e-4)
        report = evaluate_bound(name, n, w, e)
        assert set(report["terms"]) == {"radicand_1", "radicand_2"}
        r1, r2 = report["terms"]["radicand_1"], report["terms"]["radicand_2"]
        assert r1 > 0 and r2 > 0
        s = 10 ** (n / 8) if name == "game" else 1.0
        assert report["value"] == s * math.sqrt(r1) + s * math.sqrt(r2)

    def test_estimates_have_no_terms(self):
        for name in ("mayers-yao-ac", "chsh-ac"):
            assert evaluate_bound(name, 2, 0, EpsilonBundle(eps=1e-4))["terms"] == {}

    def test_public_functions_read_the_table(self):
        for n in range(1, 9):
            for w in range(n + 1):
                for x in (0.0, 1e-12, 1e-4, 0.03, 2.0):
                    e = EpsilonBundle(eps=x, eps1=x, eps2=x / 2, eps3=3 * x, delta=x)
                    for name, fn in SUM_OF_ROOTS.items():
                        assert fn(n, w, e) == evaluate_bound(name, n, w, e)["value"], (
                            name, n, w, x,
                        )

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            evaluate_bound("tightest", 2, 0, ZERO)

    @pytest.mark.parametrize("name", ["mayers-yao-ac", "chsh-ac"])
    def test_infinite_estimate_rejected(self, name):
        # The sum-of-roots rows are covered by the bounds command's tests.
        with pytest.raises(ValueError, match=f"^bound {name} is not finite at n=2$"):
            evaluate_bound(name, 2, 0, EpsilonBundle(eps=1e308))


class TestSumOfRootsMemo:
    def test_memo_returns_the_unmemoized_value(self):
        bounds._memo_sum_of_roots.cache_clear()
        for name in SUM_OF_ROOTS:
            for n in range(1, 9):
                for w in range(n + 1):
                    for x in (1e-12, 1e-4, 0.03, 2.0):
                        inputs = (x, x / 2, 3 * x)[:len(bounds._TABLE[name].reads)]
                        want = bounds._evaluate_sum_of_roots(name, n, w, *inputs)
                        for _ in range(2):  # the second call reads the memo
                            assert bounds._sum_of_roots(name, n, w, *inputs) == want, (
                                name, n, w, x,
                            )
        assert bounds._memo_sum_of_roots.cache_info().hits > 0

    def test_negative_zero_not_read_from_memo(self):
        # -0.0 == 0.0 as a memo key, but its radicands print as -0.0.
        assert spp_selftest_bound(4, 1, 0.0) == 0.0
        value = spp_selftest_bound(4, 1, -0.0)
        assert value == 0.0 and math.copysign(1.0, value) == -1.0
        terms = evaluate_bound("spp", 4, 1, EpsilonBundle(eps=-0.0))["terms"]
        assert all(math.copysign(1.0, r) == -1.0 for r in terms.values())

    def test_error_raised_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="^eps must be finite and nonnegative"):
                spp_selftest_bound(4, 1, math.nan)


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
        assert anticommute_bound(sv, tv, 4, e) >= 0.0
        assert xz_swap_bound(sv, 4, e) >= 0.0

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
            s = int(rng.integers(0, 2**n))
            t = int(rng.integers(0, 2**n))
            w = int(rng.integers(0, n + 1))
            assert anticommute_bound(s, t, n, e) >= 0.0
            assert xz_swap_bound(s, n, e) >= 0.0
            assert sufficient_conditions_bound(n, w, e) >= 0.0
            assert my_parallel_bound(n, w, e.eps) >= 0.0
            assert spp_selftest_bound(n, w, e.eps) >= 0.0
            assert game_robustness_bound(n, w, e.delta) >= 0.0

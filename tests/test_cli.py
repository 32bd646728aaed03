import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from selftest_lab import bitstrings, cli, isometry
from selftest_lab.bounds import VACUOUS_THRESHOLD
from selftest_lab.isometry import verify_bound
from selftest_lab.linalg import bipartite_expectation
from selftest_lab.strategies import (
    NoiseSpec,
    honest_my_strategy,
    honest_spp_strategy,
    perturb_strategy,
    strategy_to_json,
)

# Defective projectors of answer +1, as in tests/test_strategies.py: complete
# but not idempotent, and idempotent but oblique.
SKEWED = np.array([[1.0, 0.1], [0.1, 0.0]])
OBLIQUE = np.array([[1.0, 1.0], [0.0, 0.0]])


def child_env() -> dict:
    """The environment of a CLI child process that imports this checkout's src."""
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    )}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestLemmaChecks:
    def test_small_range_passes(self, capsys):
        code, report = run_cli(
            capsys, "lemma-checks", "--max-n", "6", "--even-n", "2,4"
        )
        assert code == 0
        assert report["passed"]
        names = {c["name"] for c in report["checks"]}
        assert names == {
            "string-sum-average",
            "string-sum-double-average",
            "string-sum-parity",
            "half-swap-identity",
            "phase-consistency",
        }

    def test_default_range_passes(self, capsys):
        # The documented default: string sums to n=10, half-swap and phase
        # checks at n in {2,4,6}.
        code, report = run_cli(capsys, "lemma-checks")
        assert code == 0
        assert report["passed"]
        assert len(report["checks"]) == 3 * 10 + 3 + 3

    def test_odd_even_n_is_usage_error(self, capsys):
        assert cli.main(["lemma-checks", "--even-n", "2,3"]) == 2

    def test_threshold_is_usage_error(self, capsys):
        assert cli.main(["lemma-checks", "--max-n", "11"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--max-n", "0", "--even-n", ""], "--max-n must be >= 1, got 0"),
            (["--max-n", "-1"], "--max-n must be >= 1, got -1"),
            (["--even-n", "0"], "half-swap checks need even n >= 2, got [0]"),
            (["--even-n", "2,-2"], "half-swap checks need even n >= 2, got [2, -2]"),
            (["--even-n", "2,2"], "--even-n repeats [2]"),
            (["--even-n", "4,2,4,6,2"], "--even-n repeats [2, 4]"),
        ],
    )
    def test_run_that_checks_nothing_is_usage_error(self, capsys, argv, message):
        code = cli.main(["lemma-checks", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"usage error: {message}\n"

    def test_corrupted_phase_exits_nonzero(self, monkeypatch):
        # A phase inconsistent with the half-swap graph's adjacency.
        phase = bitstrings.half_swap_phase
        monkeypatch.setattr(bitstrings, "half_swap_phase", lambda s, n: 1 - phase(s, n))
        parser = cli.build_parser()
        args = parser.parse_args(["lemma-checks", "--max-n", "2", "--even-n", "2"])
        code, report, _ = cli.cmd_lemma_checks(args)
        assert code == 1
        bad = [c for c in report["checks"] if not c["passed"]]
        assert bad and bad[0]["detail"] == "violated at s=00 t=00"


class TestHonestCheck:
    def test_my(self, capsys):
        code, report = run_cli(capsys, "honest-check", "--flavor", "my", "--m", "2")
        assert code == 0
        assert report["eps"] <= 1e-12
        assert report["game"] is None

    def test_spp_includes_game_value(self, capsys):
        code, report = run_cli(capsys, "honest-check", "--flavor", "spp", "--m", "1")
        assert code == 0
        assert report["game"]["E"] == pytest.approx(
            (2 * math.sqrt(2) + 1) / 5, abs=1e-12
        )
        assert report["game"]["delta"] == 0.0

    def test_spp_m2_same_game_value(self, capsys):
        code, report = run_cli(capsys, "honest-check", "--flavor", "spp", "--m", "2")
        assert code == 0
        assert report["game"]["E"] == pytest.approx(report["game"]["ideal"], abs=1e-12)

    def test_correlation_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "corr.csv"
        code = cli.main(
            ["honest-check", "--flavor", "my", "--m", "1", "--csv", str(csv_path)]
        )
        capsys.readouterr()
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "alice,bob,k,measured,ideal,deviation"
        assert len(lines) == 9  # 8 required correlations at m=1

    def test_m_cap_usage_error(self, capsys):
        assert cli.main(["honest-check", "--flavor", "my", "--m", "4"]) == 2

    @pytest.mark.parametrize("flavor", ["my", "spp"])
    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_m_below_one_is_usage_error(self, capsys, monkeypatch, flavor, m):
        def unreachable(m):
            raise AssertionError(f"strategy built at m={m}")

        monkeypatch.setattr(cli, f"honest_{flavor}_strategy", unreachable)
        code = cli.main(["honest-check", "--flavor", flavor, "--m", m])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"usage error: m must be >= 1, got {m}\n"

    def test_report_carries_test_and_entries(self, capsys):
        _, report = run_cli(capsys, "honest-check", "--flavor", "my", "--m", "1")
        assert report["test"] == "my"
        assert len(report["entries"]) == 8


class TestBounds:
    def test_single_bound(self, capsys):
        code, report = run_cli(
            capsys, "bounds", "--bound", "mayers-yao-ac", "--n", "2", "--eps", "0.005"
        )
        assert code == 0
        assert report["bounds"][0]["value"] == pytest.approx(4.14604340772559, rel=1e-12)
        assert report["bounds"][0]["vacuous"]

    def test_all_bounds(self, capsys):
        code, report = run_cli(
            capsys, "bounds", "--n", "2", "--weight-p", "1",
            "--eps", "1e-6", "--delta", "1e-8",
        )
        assert code == 0
        assert len(report["bounds"]) == 8

    @pytest.mark.parametrize("flag", ["--eps", "--delta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_is_rejected(self, capsys, flag, value):
        code = cli.main(["bounds", "--n", "2", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: {flag[2:]} must be finite and nonnegative, got {value}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["--bound", "chsh-ac", "--n", "-3", "--weight-p", "7"],
            ["--bound", "my-parallel", "--n", "0", "--eps", "0.01"],
            ["--bound", "all", "--n", "-3"],
        ],
    )
    def test_n_below_one_is_usage_error(self, capsys, monkeypatch, argv):
        def unreachable(*args):
            raise AssertionError("bound evaluated")

        monkeypatch.setattr(cli.bnd, "evaluate_bound", unreachable)
        code = cli.main(["bounds", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        n = argv[argv.index("--n") + 1]
        assert captured.err == f"usage error: --n must be >= 1, got {n}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--bound", "mayers-yao-ac", "--n", "2", "--weight-p", "-1"],
            ["--bound", "chsh-ac", "--n", "2", "--weight-p", "99"],
            ["--bound", "all", "--n", "2", "--weight-p", "5"],
        ],
    )
    def test_weight_outside_zero_to_n_is_usage_error(self, capsys, monkeypatch, argv):
        def unreachable(*args):
            raise AssertionError("bound evaluated")

        monkeypatch.setattr(cli.bnd, "evaluate_bound", unreachable)
        code = cli.main(["bounds", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        weight = argv[argv.index("--weight-p") + 1]
        assert captured.err == f"usage error: --weight-p must be in 0..2, got {weight}\n"


class TestVerifyIsometry:
    def test_named_noisy_strategy(self, capsys):
        code, report = run_cli(
            capsys, "verify-isometry", "--strategy", "honest-my", "--m", "1",
            "--test", "my", "--theta", "0.02",
        )
        assert code == 0
        assert report["passed"]
        assert report["pairs"] == 16
        assert report["max_distance"] < 0.1

    def test_strategy_file(self, capsys, tmp_path):
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps(strategy_to_json(honest_my_strategy(1))))
        code, report = run_cli(
            capsys, "verify-isometry", "--strategy", str(path), "--test", "my"
        )
        assert code == 0
        assert report["max_distance"] < 1e-9

    def test_missing_file_usage_error(self, capsys):
        code = cli.main(
            ["verify-isometry", "--strategy", "/nonexistent.json", "--test", "my"]
        )
        assert code == 2

    def test_sample_policy_requires_seed(self, capsys):
        code = cli.main(
            ["verify-isometry", "--strategy", "honest-my", "--m", "1",
             "--test", "my", "--pairs", "sample:8"]
        )
        assert code == 2

    @pytest.mark.parametrize("form", ["named", "file"])
    def test_auto_policy_that_samples_requires_seed(self, capsys, monkeypatch, tmp_path, form):
        # At m = 3 auto samples 64 of the 4096 pairs; no strategy is built
        # and no distance taken before the seed is asked for.
        def unreachable(*args, **kwargs):
            raise AssertionError("strategy built")

        monkeypatch.setattr(cli, "honest_my_strategy", unreachable)
        path = tmp_path / "recipe.json"
        path.write_text(json.dumps({"type": "honest-my", "m": 3}))
        strategy = ["--m", "3"] if form == "named" else ["--strategy", str(path)]
        code = cli.main(["verify-isometry", "--test", "my", *strategy])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "usage error: sampling requested but no --seed given\n"

    def test_csv_export(self, capsys, tmp_path):
        csv_path = tmp_path / "report.csv"
        code = cli.main(
            ["verify-isometry", "--strategy", "honest-my", "--m", "1",
             "--test", "my", "--csv", str(csv_path)]
        )
        capsys.readouterr()
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "p,q,distance,max_bound,vacuous,passed"
        assert len(lines) == 17

    def test_spp_flavor(self, capsys):
        code, report = run_cli(
            capsys, "verify-isometry", "--strategy", "honest-spp", "--m", "1",
            "--test", "spp", "--theta", "0.02",
        )
        assert code == 0
        assert report["passed"]
        assert set(report["bounds_by_weight"][0]["bounds"]) == {"spp", "spp-recomputed"}
        assert "summary" in report

    @pytest.mark.parametrize("flavor", ["my", "spp"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_bounds_stated_once_per_weight(self, flavor, m):
        # The report before rounding, so every value compares bit for bit.
        args = cli.build_parser().parse_args(
            ["verify-isometry", "--strategy", f"honest-{flavor}", "--m", str(m),
             "--test", flavor, "--theta", "0.03", "--w", "0.01", "--pairs", "exhaustive"]
        )
        code, report, _ = args.fn(args)
        assert code == 0
        n = 2 * m
        rows = report["bounds_by_weight"]
        assert [row["weight_p"] for row in rows] == list(range(n + 1))
        functions = isometry._bound_functions(flavor)
        for row in rows:
            assert set(row) == {"weight_p", "bounds", "vacuous"}
            assert row["bounds"] == {
                name: fn(n, row["weight_p"], report["eps"]) for name, fn in functions.items()
            }
            assert row["vacuous"] == {
                name: v > VACUOUS_THRESHOLD for name, v in row["bounds"].items()
            }
        assert len(report["reports"]) == 4**n
        for entry in report["reports"]:
            assert set(entry) == {"p", "q", "distance", "passed"}
            top = max(rows[entry["p"].count("1")]["bounds"].values())
            assert entry["passed"] == (entry["distance"] <= top + isometry.DISTANCE_SLACK)

    def test_sample_lists_only_the_weights_of_its_pairs(self, capsys):
        code, report = run_cli(
            capsys, "verify-isometry", "--strategy", "honest-my", "--m", "2", "--test", "my",
            "--theta", "0.03", "--pairs", "sample:3", "--seed", "1",
        )
        assert code == 0
        weights = sorted({entry["p"].count("1") for entry in report["reports"]})
        assert len(weights) < 5  # a proper subset of 0..4
        assert [row["weight_p"] for row in report["bounds_by_weight"]] == weights


class TestGame:
    def test_exact_only(self, capsys):
        code, report = run_cli(capsys, "game", "--m", "1")
        assert code == 0
        assert report["exact"] == pytest.approx(report["ideal"], abs=1e-12)
        assert report["delta"] == 0.0
        assert report["monte_carlo"] is None

    def test_with_sampling(self, capsys):
        code, report = run_cli(
            capsys, "game", "--m", "1", "--rounds", "20000", "--seed", "5"
        )
        assert code == 0
        assert report["monte_carlo"]["within_4_sigma"]

    def test_referee_is_part_of_the_config(self, capsys):
        argv = ["game", "--m", "1", "--rounds", "100", "--seed", "1"]
        _, threshold = run_cli(capsys, *argv)
        _, subtest = run_cli(capsys, *argv, "--referee", "subtest")
        assert threshold["config"]["referee"] == "threshold"
        assert subtest["config"]["referee"] == "subtest"
        assert threshold["config_sha256"] != subtest["config_sha256"]

    def test_exact_only_records_no_referee(self, capsys):
        # A run of no rounds never reads --referee.
        _, report = run_cli(capsys, "game", "--m", "1", "--rounds", "0", "--referee", "subtest")
        _, default = run_cli(capsys, "game", "--m", "1")
        assert "referee" not in report["config"]
        assert report["config_sha256"] == default["config_sha256"]

    def test_rounds_without_seed_usage_error(self, capsys):
        assert cli.main(["game", "--m", "1", "--rounds", "100"]) == 2

    @pytest.mark.parametrize("rounds", ["1", "-5"])
    def test_rounds_without_a_standard_error(self, capsys, rounds):
        # One round has no standard error and a negative count no rounds;
        # neither may reach the sampler.
        code = cli.main(["game", "--m", "1", "--rounds", rounds, "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"usage error: --rounds must be 0 (exact value only) or >= 2, got {rounds}\n"
        )

    def test_rounds_beyond_the_multinomial_limit(self, capsys):
        # The sampler's counts are int64; one more round than 2^63 - 1 is a
        # usage error, not an OverflowError out of the draw.
        code = cli.main(["game", "--m", "1", "--rounds", str(2**63), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"usage error: --rounds must be at most 2^63 - 1 = {2**63 - 1}, got {2**63}\n"
        )
        code, report = run_cli(capsys, "game", "--m", "1", "--rounds", str(2**63 - 1), "--seed", "1")
        assert report["monte_carlo"]["rounds"] == 2**63 - 1
        assert code == (0 if report["passed"] else 1)

    def test_two_rounds_sample(self, capsys):
        # Both rounds accept, so the sample's stderr is 0; the 4-sigma band
        # comes from the exact value's law and still holds the mean.
        code, report = run_cli(capsys, "game", "--m", "1", "--rounds", "2", "--seed", "1")
        assert code == 0
        assert (report["monte_carlo"]["mean"], report["monte_carlo"]["stderr"]) == (1.0, 0.0)
        assert report["monte_carlo"]["within_4_sigma"]

    @pytest.mark.parametrize("offset, code", [(0.99, 0), (1.01, 1)])
    def test_four_sigma_band_of_the_exact_law(self, capsys, monkeypatch, offset, code):
        # Outcomes are +-1, so the band is 4 sqrt((1 - exact^2) / rounds).
        exact = cli.game_expectation_exact(honest_spp_strategy(1))
        band = 4 * math.sqrt((1 - exact**2) / 100)
        sample = cli.sample_game

        def shifted(*args, **kwargs):
            return {**sample(*args, **kwargs), "mean": exact - offset * band}

        monkeypatch.setattr(cli, "sample_game", shifted)
        got, report = run_cli(capsys, "game", "--m", "1", "--rounds", "100", "--seed", "1")
        assert (got, report["monte_carlo"]["within_4_sigma"]) == (code, not code)

    def test_wrong_flavor_strategy_exits_cleanly(self, capsys):
        # The pair-test strategy lacks the question strings the game needs.
        code = cli.main(["game", "--strategy", "honest-my", "--m", "2"])
        assert code == 2


class TestRejectedInput:
    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--n", "3000"], "bound game is not finite at n=3000", id="scale"),
        pytest.param(["--n", "2", "--bound", "my-parallel", "--eps", "1e308"],
                     "bound my-parallel is not finite at n=2", id="infinite"),
        pytest.param(["--n", "2", "--bound", "sufficient-conditions",
                      "--eps1", "1e308", "--eps2", "1e308"],
                     "bound sufficient-conditions is not finite at n=2", id="nan"),
        pytest.param(["--n", "1" + "0" * 400],
                     "bound sufficient-conditions is not finite at n=1" + "0" * 400, id="huge-n"),
    ])
    def test_non_finite_bound(self, capsys, argv, message):
        # Infinity and NaN are not JSON, and an n or scale beyond a float was a traceback.
        code = cli.main(["bounds", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("kind, defect, check", [
        pytest.param("X", lambda p, q: (1.3 * p, q), "completeness", id="X"),
        pytest.param("Z", lambda p, q: (1.3 * p, q), "completeness", id="Z"),
        pytest.param("Z", lambda p, q: (SKEWED, np.eye(2) - SKEWED), "orthogonality",
                     id="skewed"),
        pytest.param("Z", lambda p, q: (OBLIQUE, np.eye(2) - OBLIQUE), "hermitian",
                     id="oblique"),
        pytest.param("Z", lambda p, q: (p, 0 * q), "completeness", id="zero"),
    ])
    def test_non_projective_strategy_file(self, capsys, tmp_path, kind, defect, check):
        # One defect of Alice's projector pair: the bounds no longer apply, so
        # no report may say they hold, and the rejection names the check.
        doc = strategy_to_json(honest_my_strategy(1))
        question = next(
            q for q in doc["questions"] if q["party"] == "alice" and q["kind"] == kind
        )
        honest = honest_my_strategy(1).measurement("alice", kind).projectors.values()
        for entry, matrix in zip(question["projectors"], defect(*honest)):
            entry["matrix"] = np.column_stack([matrix.real.ravel(),
                                               matrix.imag.ravel()]).ravel().tolist()
        path = tmp_path / "defect.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["verify-isometry", "--strategy", str(path), "--test", "my"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"alice:{kind} {check}" in captured.err

    @pytest.mark.parametrize("argv", [["game"], ["verify-isometry", "--test", "spp"]],
                             ids=["game", "verify-isometry"])
    def test_non_finite_state_in_strategy_file(self, capsys, tmp_path, argv):
        # JSON reads a NaN literal, and a NaN norm compares false with any
        # tolerance; it must not reach the division or a report.
        doc = strategy_to_json(honest_spp_strategy(1))
        doc["state"][0] = float("nan")
        path = tmp_path / "nan-state.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([*argv, "--strategy", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: state norm nan deviates from 1")
        assert captured.err.count("\n") == 1
        assert not caught

    @pytest.mark.parametrize("flag, value", [
        ("--m", "1"), ("--theta", "0.5"), ("--w", "0.01"), ("--noise-seed", "9"),
    ])
    @pytest.mark.parametrize("argv", [["game"], ["verify-isometry", "--test", "spp"]],
                             ids=["game", "verify-isometry"])
    def test_named_strategy_flag_with_strategy_file(self, capsys, tmp_path, argv,
                                                     flag, value):
        # A file carries its own m and noise: the flag would be ignored, yet
        # recorded in the config.
        path = tmp_path / "spp.json"
        path.write_text(json.dumps(strategy_to_json(honest_spp_strategy(1))))
        code = cli.main([*argv, "--strategy", str(path), flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert captured.err.count("\n") == 1
        assert captured.err.rstrip().endswith(f"drop {flag}")

    def test_non_finite_projector_in_strategy_file(self, capsys, tmp_path):
        # A NaN entry has no eigen-decomposition; it is rejected at load.
        doc = strategy_to_json(honest_my_strategy(1))
        doc["questions"][0]["projectors"][1]["matrix"][2] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["verify-isometry", "--strategy", str(path), "--test", "my"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: projector of answer (-1,) has non-finite entries\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["game", "--strategy", "honest-my", "--m", "1"], "spp question kinds E"),
            (
                ["verify-isometry", "--strategy", "honest-spp", "--m", "2", "--test", "my"],
                "my question kinds X, Z, D, X1, Z1",
            ),
        ],
    )
    def test_strategy_without_the_flavor_questions(self, capsys, argv, message):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: strategy lacks the {message}\n"

    @pytest.mark.parametrize("argv, message", [
        # Seeds that the run never reads: these exited 0 and recorded them.
        (["verify-isometry", "--test", "my", "--pairs", "exhaustive", "--seed", "-3"],
         "usage error: --seed must be >= 0, got -3"),
        (["game", "--seed", "-2"], "usage error: --seed must be >= 0, got -2"),
        (["sweep-noise", "--thetas", "0", "--ws", "0", "--seed", "-1"],
         "usage error: --seed must be >= 0, got -1"),
        (["game", "--rounds", "100", "--seed", "1", "--theta", "0.01", "--noise-seed", "-7"],
         "usage error: --noise-seed must be >= 0, got -7"),
        # Seeds that the run reads: these failed inside numpy without a name.
        (["verify-isometry", "--test", "my", "--pairs", "sample:4", "--seed", "-3"],
         "usage error: --seed must be >= 0, got -3"),
        (["game", "--rounds", "100", "--seed", "-2"], "usage error: --seed must be >= 0, got -2"),
        (["game", "--strategy", "RECIPE"],
         "error: strategy field noise.seed must be >= 0, got -4"),
    ], ids=["verify-exhaustive", "game-exact", "sweep", "game-noise-seed", "verify-sample",
            "game-rounds", "recipe-noise-seed"])
    def test_negative_seed(self, capsys, tmp_path, argv, message):
        recipe = tmp_path / "recipe.json"
        recipe.write_text(json.dumps(
            {"type": "honest-spp", "m": 1, "noise": {"theta": 0.1, "w": 0.1, "seed": -4}}
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([str(recipe) if a == "RECIPE" else a for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_runtime_error_exits_without_traceback(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("residual state norm 1.08 deviates from 1")

        monkeypatch.setattr(cli, "verify_bound", fail)
        code = cli.main(
            ["verify-isometry", "--strategy", "honest-my", "--m", "1", "--test", "my"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err == "error: residual state norm 1.08 deviates from 1\n"

    def test_memory_error_exits_without_traceback(self, capsys, monkeypatch):
        message = (
            "Unable to allocate 1.86 GiB for an array with shape (2000000000,)"
            " and data type uint8"
        )

        def fail(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "sample_game", fail)
        code = cli.main(["game", "--m", "1", "--rounds", "2000000000", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "is not a JSON object"),
            ("honest-spp", "is not a JSON object"),
            ({"type": "honest-spp"}, 'needs an integer "m" >= 1, got None'),
            ({"type": "honest-spp", "m": "2"}, "needs an integer \"m\" >= 1, got '2'"),
            ({"type": "honest-spp", "m": 1.5}, 'needs an integer "m" >= 1, got 1.5'),
            ({"type": "honest-spp", "m": True}, 'needs an integer "m" >= 1, got True'),
            ({"type": "honest-spp", "m": 0}, 'needs an integer "m" >= 1, got 0'),
        ],
    )
    def test_strategy_file_without_an_integer_m(self, capsys, tmp_path, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["game", "--strategy", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: strategy file {path} {message}\n"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"questions": 7}, "questions must be a list, got 7"),
            ({"dims": [2]}, "dims must be two integers >= 1, got [2]"),
            ({"dims": [2, "2"]}, "dims must be two integers >= 1, got [2, '2']"),
            ({"state": [1, 0, 0]}, "state must be a list of 8 numbers, got [1, 0, 0]"),
            ({"state": None}, "state must be a list of 8 numbers, got None"),
            ({"questions": [3]}, "questions[0] must be an object, got 3"),
            ({"questions": [{"party": "carol", "kind": "X", "projectors": []}]},
             "questions[0].party must be \"alice\" or \"bob\", got 'carol'"),
            ({"questions": [{"party": "bob", "kind": 5, "projectors": []}]},
             "questions[0].kind must be a string, got 5"),
            ({"questions": [{"party": "bob", "kind": "X", "projectors": 2}]},
             'questions[0].projectors must be a list of objects with an "answer" list, got 2'),
            ({"questions": [{"party": "bob", "kind": "X",
                             "projectors": [{"answer": [1], "matrix": "m"}]}]},
             "questions[0].projectors[0].matrix must be a list of 8 numbers, got 'm'"),
            ({"questions": [{"party": "bob", "kind": "X",
                             "projectors": [{"answer": [1.5], "matrix": "m"}]}]},
             "questions[0].projectors[0].answer must be a list of integers, got [1.5]"),
        ],
    )
    def test_malformed_strategy_file_field(self, capsys, tmp_path, fields, message):
        doc = {"dims": [2, 2], "m": 1, "state": [1, 0] + [0] * 6, "questions": []}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**doc, **fields}))
        code = cli.main(["game", "--strategy", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: strategy field {message}\n"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"state": [True] + [0] * 7},
             "strategy field state must be a list of 8 numbers, got [True, 0, 0, 0, 0, 0, 0, 0]"),
            ({"dims": [2, True]}, "strategy field dims must be two integers >= 1, got [2, True]"),
            ({"questions": [{"party": "bob", "kind": "X",
                             "projectors": [{"answer": [1], "matrix": [0] * 7 + [False]}]}]},
             "strategy field questions[0].projectors[0].matrix must be a list of 8 numbers, "
             "got [0, 0, 0, 0, 0, 0, 0, False]"),
            ({"type": "honest-spp", "noise": {"theta": True}},
             'strategy field noise must be an object with numeric "theta", "w" and "seed", '
             "got {'theta': True}"),
        ],
    )
    def test_bool_is_not_a_number(self, capsys, tmp_path, fields, message):
        # JSON true/false load as bool, a subclass of int; each is rejected
        # by the field that holds it.
        doc = {"dims": [2, 2], "m": 1, "state": [1, 0] + [0] * 6, "questions": []}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**doc, **fields}))
        code = cli.main(["game", "--strategy", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"noise": 3}, 'strategy field noise must be an object with numeric "theta", '
                           '"w" and "seed", got 3'),
            ({"noise": {"theta": "0.1"}}, 'strategy field noise must be an object with '
                                          'numeric "theta", "w" and "seed", got {\'theta\': \'0.1\'}'),
            ({"type": ["honest-spp"]}, "unknown strategy type ['honest-spp']"),
            ({"noise": {"seed": 1.5}}, "strategy field noise.seed must be an integer, got 1.5"),
        ],
    )
    def test_malformed_strategy_recipe(self, capsys, tmp_path, fields, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"type": "honest-spp", "m": 1, **fields}))
        code = cli.main(["game", "--strategy", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_unknown_noise_key(self, capsys, tmp_path):
        # Misspelt "w" and "seed" would otherwise run at w = 0 and seed 0.
        path = tmp_path / "doc.json"
        noise = {"theta": 0.03, "wieght": 0.5, "sed": 4}
        path.write_text(json.dumps({"type": "honest-my", "m": 1, "noise": noise}))
        code = cli.main(["verify-isometry", "--strategy", str(path), "--test", "my"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: strategy field noise has unknown key 'sed', 'wieght'; "
            "the allowed keys are theta, w and seed\n"
        )

    @pytest.mark.parametrize("doc, message", [
        ({"type": "honest-my", "m": 1, "nosie": {"theta": 0.3, "w": 0.2}},
         "strategy file has unknown key 'nosie'; the allowed keys are type, m and noise"),
        ({"type": "honest-my", "m": 1, "dims": [2, 2], "Noise": {}},
         "strategy file has unknown key 'Noise', 'dims'; the allowed keys are type, m and noise"),
    ], ids=["recipe-nosie", "recipe-two-keys"])
    def test_unknown_recipe_key(self, capsys, tmp_path, doc, message):
        # A misspelt "noise" would otherwise run at zero noise and pass.
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["verify-isometry", "--strategy", str(path), "--test", "my"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("where, message", [
        ("top", "strategy file has unknown key 'noise'; "
                "the allowed keys are dims, m, state and questions"),
        ("question", "strategy field questions[3] has unknown key 'basis'; "
                     "the allowed keys are party, kind and projectors"),
        ("projector", "strategy field questions[5].projectors[1] has unknown key 'weight'; "
                      "the allowed keys are answer and matrix"),
    ], ids=["top", "question", "projector"])
    def test_unknown_key_in_full_strategy(self, capsys, tmp_path, where, message):
        # Each object of a full serialization holds only its own keys.
        doc = strategy_to_json(honest_spp_strategy(1))
        if where == "top":
            doc["noise"] = {"theta": 0.3, "w": 0.2}
        elif where == "question":
            doc["questions"][3]["basis"] = "X"
        else:
            doc["questions"][5]["projectors"][1]["weight"] = 1
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["verify-isometry", "--strategy", str(path), "--test", "spp"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [["verify-isometry", "--test", "spp"], ["game"]])
    @pytest.mark.parametrize("repeat, message", [
        ("question", "questions[8] repeats alice question 'X'"),
        ("answer", "questions[0].projectors[2].answer repeats [1]"),
    ])
    def test_repeated_question_or_answer(self, capsys, tmp_path, argv, repeat, message):
        # Both files load without their repeated entry's rule: the last entry
        # would replace the first, and the report would be another file's.
        doc = json.loads((Path(__file__).parent / "golden" / "full_spp_m1.json").read_text())
        if repeat == "question":
            honest_x = strategy_to_json(honest_spp_strategy(1))["questions"][0]
            doc["questions"].append(honest_x)
        else:
            # Alice's X lists [1] (with the -1 projector), [-1], [1].
            plus, minus = doc["questions"][0]["projectors"]
            doc["questions"][0]["projectors"] = [{**plus, "matrix": minus["matrix"]}, minus, plus]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code = cli.main([*argv, "--strategy", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: strategy field {message}\n"

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sample_count_below_one(self, capsys, count):
        code = cli.main(
            ["verify-isometry", "--m", "1", "--test", "my", "--pairs", f"sample:{count}",
             "--seed", "1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"usage error: sample count must be >= 1, got {count}\n"

    def test_sample_count_above_the_distinct_pairs(self, capsys):
        # m=1 has 4^2 = 16 distinct (p, q) pairs.
        argv = ["verify-isometry", "--m", "1", "--test", "my", "--seed", "1", "--pairs"]
        code, report = run_cli(capsys, *argv, "sample:16")
        assert code == 0 and len(report["reports"]) == 16
        assert len({(r["p"], r["q"]) for r in report["reports"]}) == 16
        code = cli.main(argv + ["sample:17"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: sample:17 exceeds the 16 distinct (p, q) pairs of n=2; "
            "use --pairs exhaustive\n"
        )

    @pytest.mark.parametrize("flag", ["--thetas", "--ws"])
    def test_empty_sweep_grid(self, capsys, flag):
        code = cli.main(["sweep-noise", "--m", "1", flag, "", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "usage error: --thetas and --ws must each list a value, or no point is checked\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-isometry", "--strategy", "honest-my", "--m", "5", "--test", "my"],
            ["sweep-noise", "--flavor", "my", "--m", "5"],
        ],
    )
    def test_isometry_size_checked_before_building(self, capsys, monkeypatch, argv):
        def unreachable(m):
            raise AssertionError(f"strategy built at m={m}")

        monkeypatch.setattr(cli, "honest_my_strategy", unreachable)
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "m <= 4" in captured.err

    def test_game_size_checked_before_building(self, capsys, monkeypatch):
        def unreachable(m):
            raise AssertionError(f"strategy built at m={m}")

        monkeypatch.setattr(cli, "honest_spp_strategy", unreachable)
        code = cli.main(["game", "--m", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: m=5 exceeds the exact-enumeration guard 4; sample instead\n"
        )

    @pytest.mark.parametrize(
        "recipe, argv, message",
        [
            ("honest-my", ["verify-isometry", "--test", "my"],
             "the isometry needs n <= 8 (m <= 4), got n=10"),
            ("honest-spp", ["game"],
             "m=5 exceeds the exact-enumeration guard 4; sample instead"),
        ],
    )
    def test_size_of_a_strategy_file_checked_before_building(
        self, capsys, monkeypatch, tmp_path, recipe, argv, message
    ):
        # A recipe is not built, and a full file's malformed projectors are
        # not converted: either would name another error.
        def unreachable(*args, **kwargs):
            raise AssertionError("strategy built")

        for name in ("honest_my_strategy", "honest_spp_strategy"):
            monkeypatch.setattr(cli, name, unreachable)
        full = {"dims": [32, 32], "m": 5, "questions": [
            {"party": "alice", "kind": "X", "projectors": [{"answer": [1] * 5, "matrix": [0]}]}
        ]}
        for doc in ({"type": recipe, "m": 5}, full):
            path = tmp_path / "strategy.json"
            path.write_text(json.dumps(doc))
            code = cli.main(argv + ["--strategy", str(path)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"


class TestRecipes:
    """A named strategy is the recipe its flags spell: both are built by the
    same code."""

    @pytest.mark.parametrize(
        "recipe, flags",
        [
            ({"type": "honest-spp", "m": 2, "noise": {"theta": 0.03, "w": 0.02, "seed": 5}},
             ["--m", "2", "--theta", "0.03", "--w", "0.02", "--noise-seed", "5"]),
            ({"type": "honest-spp", "m": 1, "noise": {"seed": 3}}, ["--m", "1", "--noise-seed", "3"]),
        ],
        ids=["noisy", "seed-only"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["verify-isometry", "--test", "spp", "--pairs", "sample:4", "--seed", "2"],
         ["game", "--rounds", "2000", "--seed", "1"]],
        ids=["verify-isometry", "game"],
    )
    def test_file_and_flags_give_one_report(self, capsys, tmp_path, argv, recipe, flags):
        path = tmp_path / "recipe.json"
        path.write_text(json.dumps(recipe))
        runs = [run_cli(capsys, *argv, "--strategy", str(path)),
                run_cli(capsys, *argv, "--strategy", recipe["type"], *flags)]
        for _, report in runs:
            del report["config"], report["config_sha256"]
        assert runs[0] == runs[1]

    def test_noisy_recipe_closed_form(self, tmp_path):
        # Rotating both parties by theta = 0.05 turns <X x Z> = 1 into cos(4 theta).
        path = tmp_path / "recipe.json"
        noise = {"theta": 0.05, "w": 0.0, "seed": 1}
        path.write_text(json.dumps({"type": "honest-spp", "m": 1, "noise": noise}))
        cfg = cli.RunConfig(command="game", strategy=str(path))
        s = cli._resolve_strategy(cfg, "spp", lambda m: None)
        val = bipartite_expectation(
            s.state, s.observable("alice", "X", 1), s.observable("bob", "Z", 1)
        )
        assert val == pytest.approx(math.cos(0.2), abs=1e-12)


class TestOutputFiles:
    @pytest.mark.parametrize(
        "argv, flag, module, work",
        [
            (["bounds", "--bound", "spp", "--n", "2", "--eps", "0.001"], "--out",
             cli.bnd, "evaluate_bound"),
            (["honest-check", "--flavor", "my", "--m", "1"], "--csv",
             cli, "honest_my_strategy"),
        ],
    )
    def test_unwritable_path_fails_before_the_run(
        self, capsys, monkeypatch, tmp_path, argv, flag, module, work
    ):
        def unreachable(*args):
            raise AssertionError("command ran")

        monkeypatch.setattr(module, work, unreachable)
        path = tmp_path / "missing" / "report"
        code = cli.main([*argv, flag, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot write {flag} {path}: No such file or directory\n"
        )

    @pytest.mark.parametrize("csv_form", ["same", "relative"])
    def test_out_and_csv_on_one_path(self, capsys, monkeypatch, tmp_path, csv_form):
        # Both handles would open the file for writing, and the last flush
        # would leave one of the two reports.
        def unreachable(*args):
            raise AssertionError("command ran")

        monkeypatch.setattr(cli, "honest_my_strategy", unreachable)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "report"
        csv_path = str(path) if csv_form == "same" else "report"
        code = cli.main(["verify-isometry", "--test", "my", "--out", str(path),
                         "--csv", csv_path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"usage error: --out and --csv name the same file {path}\n"
        assert not path.exists()

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = cli.main(["bounds", "--n", "2", "--eps", "0.001", "--out", str(path)])
        assert code == 0
        assert path.read_text() == capsys.readouterr().out

    def test_report_written_in_blocks(self, capsys, tmp_path):
        argv = ["verify-isometry", "--test", "my", "--m", "2", "--pairs", "exhaustive"]
        args = cli.build_parser().parse_args(argv)
        _, report, _ = args.fn(args)
        rounded = cli.round_floats(report)
        tokens = json.JSONEncoder(sort_keys=True, indent=2).iterencode(rounded)
        assert sum(1 for _ in tokens) > cli.EMIT_BLOCK  # more than one block
        capsys.readouterr()
        path = tmp_path / "report.json"
        assert cli.main([*argv, "--out", str(path)]) == 0
        text = json.dumps(rounded, sort_keys=True, indent=2) + "\n"
        assert path.read_text() == text
        assert capsys.readouterr().out == text

    def test_emit_never_holds_the_report_text(self, monkeypatch, tmp_path):
        args = cli.build_parser().parse_args(
            ["verify-isometry", "--test", "my", "--m", "3", "--pairs", "exhaustive"])
        _, report, _ = args.fn(args)
        path = tmp_path / "stdout.json"
        with open(path, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            tracemalloc.start()
            try:
                cli.emit(report, None, None, None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # About 0.3 MB against 0.48 MB of text; json.dumps peaked at 4.4 MB.
        assert peak < path.stat().st_size

    def test_closed_stdout_leaves_out_file_whole(self, tmp_path):
        argv = ["verify-isometry", "--test", "my", "--m", "2", "--pairs", "exhaustive"]
        expected = tmp_path / "expected.json"
        assert cli.main([*argv, "--out", str(expected)]) == 0
        path = tmp_path / "report.json"
        with subprocess.Popen(
            [sys.executable, "-m", "selftest_lab.cli", *argv, "--out", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(),
        ) as child:
            child.stdout.close()
        assert child.returncode == 2
        assert path.read_text() == expected.read_text()

    def test_csv_only_on_commands_with_rows(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["lemma-checks", "--csv", str(tmp_path / "checks.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "checks.csv").exists()

    def test_closed_stdout_exits_without_traceback(self):
        # The read end is closed before the child can write, so its report
        # meets a broken pipe.
        with subprocess.Popen(
            [sys.executable, "-m", "selftest_lab.cli", "lemma-checks", "--max-n", "6"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        ) as child:
            child.stdout.close()
            err = child.stderr.read().decode()
        assert child.returncode == 2
        assert "Traceback" not in err
        assert err == ""


class TestSweepNoise:
    @pytest.mark.parametrize("grid, message", [
        (["--thetas", "0,4"], "theta 4.0 outside [-pi, pi]"),
        (["--ws", "0,2"], "w 2.0 outside [0, 1]"),
    ], ids=["theta", "w"])
    def test_bad_point_rejected_before_any_point_runs(self, capsys, monkeypatch, grid, message):
        def no_point_may_run(*args, **kwargs):
            raise AssertionError("a grid point ran before the grid was checked")

        monkeypatch.setattr(cli, "perturb_strategy", no_point_may_run)
        code = cli.main(["sweep-noise", "--m", "1", *grid])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("grid, message", [
        (["--thetas", "0.01,0.01", "--ws", "0.1"], "--thetas repeats [0.01]"),
        (["--thetas", "0", "--ws", "0.1,0.2,0.10"], "--ws repeats [0.1]"),
        (["--thetas", "0.5,0,0.50,-0", "--ws", "0"], "--thetas repeats [0.0, 0.5]"),
    ], ids=["theta", "w", "signed-zero"])
    def test_repeated_grid_value_rejected(self, capsys, monkeypatch, grid, message):
        # A repeat would run again under the same label, with a new noise seed.
        def no_point_may_run(*args, **kwargs):
            raise AssertionError("a grid point ran before the grid was checked")

        monkeypatch.setattr(cli, "perturb_strategy", no_point_may_run)
        code = cli.main(["sweep-noise", "--m", "1", *grid])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"usage error: {message}\n"

    def test_grid_report(self, capsys):
        code, report = run_cli(
            capsys, "sweep-noise", "--m", "1", "--thetas", "0,0.02,0.04",
            "--seed", "3",
        )
        assert code == 0
        eps_col = [p["eps"] for p in report["points"]]
        assert eps_col == sorted(eps_col)
        assert report["points"][0]["max_distance"] < 1e-9
        assert all(p["passed"] for p in report["points"])

    @pytest.mark.parametrize("flavor, m, pairs, seed", [
        ("spp", 3, "sample:4", 3),
        ("spp", 3, "sample:4", 5),
        ("my", 2, "sample:8", 1),
        ("my", 1, "exhaustive", 3),
    ])
    def test_bound_columns_come_from_the_worst_pair(self, capsys, flavor, m, pairs, seed):
        code, report = run_cli(
            capsys, "sweep-noise", "--flavor", flavor, "--m", str(m), "--thetas", "0.001,0.03",
            "--ws", "0,0.01", "--pairs", pairs, "--seed", str(seed),
        )
        assert code == 0
        build, measure, test_spec = cli._flavor_functions(flavor)
        printed_bound, recomputed_bound = isometry._bound_functions(flavor).values()
        policy, count = cli._parse_pairs(pairs)
        worst_indices = []
        for i, point in enumerate(report["points"]):
            noisy = perturb_strategy(
                build(m), NoiseSpec(theta=point["theta"], w=point["w"]), seed=seed + i
            )
            eps = measure(noisy).eps
            reports = verify_bound(noisy, test_spec(m), pairs=policy, seed=seed,
                                   sample_count=count, eps=eps)
            distances = [r.distance for r in reports]
            worst = distances.index(max(distances))  # the first on a tie
            worst_indices.append(worst)
            weight = reports[worst].p.bit_count()
            assert point["eps"] == cli.round_floats(eps)
            assert point["weight_p"] == weight
            bounds = [fn(2 * m, weight, point["eps"]) for fn in (printed_bound, recomputed_bound)]
            assert [point["printed_bound"], point["recomputed_bound"]] == pytest.approx(
                bounds, rel=1e-12)
            assert point["vacuous"] == (max(bounds) > VACUOUS_THRESHOLD)
            assert point["max_distance"] <= max(bounds) + 1e-9
        # The first pair is not the worst everywhere, so reading it would show.
        assert any(worst_indices)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["honest-check", "--flavor", "my", "--m", "1"],
            ["bounds", "--n", "2", "--eps", "0.001"],
            ["verify-isometry", "--strategy", "honest-my", "--m", "1",
             "--test", "my", "--theta", "0.01", "--pairs", "sample:8", "--seed", "7"],
            ["game", "--m", "1", "--rounds", "5000", "--seed", "2"],
            ["sweep-noise", "--m", "1", "--thetas", "0,0.02", "--seed", "1"],
        ],
    )
    def test_identical_runs_are_byte_identical(self, capsys, argv):
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_reports_embed_config_hash(self, capsys):
        _, report = run_cli(capsys, "honest-check", "--flavor", "my", "--m", "1")
        assert len(report["config_sha256"]) == 64

    @pytest.mark.parametrize("argv, has_rounds", [
        (["verify-isometry", "--strategy", "honest-my", "--m", "1", "--test", "my"], False),
        (["sweep-noise", "--m", "1", "--thetas", "0", "--ws", "0"], False),
        (["game", "--m", "1"], True),
    ], ids=["verify-isometry", "sweep-noise", "game"])
    def test_only_game_config_has_rounds(self, capsys, argv, has_rounds):
        # A config holds only what its command reads, so its hash does too.
        _, report = run_cli(capsys, *argv)
        assert ("rounds" in report["config"]) == has_rounds

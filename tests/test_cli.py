import json
import math

import pytest

from selftest_lab import cli, strategies
from selftest_lab.bitstrings import AdjacencyMatrix, PhaseFunction, adjacency_phase
from selftest_lab.strategies import honest_my_strategy, strategy_to_json


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
        ],
    )
    def test_run_that_checks_nothing_is_usage_error(self, capsys, argv, message):
        code = cli.main(["lemma-checks", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"usage error: {message}\n"

    def test_corrupted_phase_exits_nonzero(self):
        # Test hook: inject a phase inconsistent with the adjacency.
        parser = cli.build_parser()
        args = parser.parse_args(["lemma-checks", "--max-n", "2", "--even-n", "2"])
        adj = AdjacencyMatrix.half_swap(2)
        args.phase_override = PhaseFunction(
            adjacency=adj, fn=lambda s: 1 - adjacency_phase(s, adj)
        )
        code, report, _ = cli.cmd_lemma_checks(args)
        assert code == 1
        bad = [c for c in report["checks"] if not c["passed"]]
        assert bad and "violated at" in bad[0]["detail"]


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
        assert set(report["reports"][0]["bounds"]) == {"spp", "spp-recomputed"}
        assert "summary" in report


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

    def test_two_rounds_sample(self, capsys):
        code, report = run_cli(capsys, "game", "--m", "1", "--rounds", "2", "--seed", "1")
        assert code == (0 if report["passed"] else 1)
        assert math.isfinite(report["monte_carlo"]["stderr"])

    def test_wrong_flavor_strategy_exits_cleanly(self, capsys):
        # The pair-test strategy lacks the question strings the game needs.
        code = cli.main(["game", "--strategy", "honest-my", "--m", "2"])
        assert code == 2


class TestRejectedInput:
    @pytest.mark.parametrize("kind", ["X", "Z"])
    def test_non_projective_strategy_file(self, capsys, tmp_path, kind):
        # One projector scaled by 1.3: the bounds no longer apply, so no
        # report may say they hold.
        doc = strategy_to_json(honest_my_strategy(1))
        question = next(
            q for q in doc["questions"] if q["party"] == "alice" and q["kind"] == kind
        )
        question["projectors"][0]["matrix"] = [
            1.3 * v for v in question["projectors"][0]["matrix"]
        ]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["verify-isometry", "--strategy", str(path), "--test", "my"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"alice:{kind} completeness" in captured.err

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
        def unreachable(*args, **kwargs):
            raise AssertionError("strategy built or validated")

        for name in ("honest_my_strategy", "honest_spp_strategy"):
            monkeypatch.setattr(strategies, name, unreachable)
        monkeypatch.setattr(cli, "validate_strategy", unreachable)
        path = tmp_path / "recipe.json"
        path.write_text(json.dumps({"type": recipe, "m": 5}))
        code = cli.main(argv + ["--strategy", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestSweepNoise:
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

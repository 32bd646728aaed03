"""Golden reports: each case's stdout, and its CSV where one is written, byte for byte.

The files under tests/golden/ hold the reports of the cases below; the two
strategy files there are inputs.  Cases run from that directory, so the
strategy paths embedded in the reports stay the same everywhere.  After a
deliberate change to a report, record the files again with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from selftest_lab import cli

GOLDEN = Path(__file__).resolve().with_name("golden")

# name -> (argv, writes a CSV); every case exits 0.
CASES = {
    "lemma-checks": (["lemma-checks", "--max-n", "6", "--even-n", "2,4"], False),
    "honest-check-my-m2": (["honest-check", "--flavor", "my", "--m", "2"], True),
    "honest-check-spp-m2": (["honest-check", "--flavor", "spp", "--m", "2"], True),
    "bounds-all": (
        ["bounds", "--n", "2", "--weight-p", "1", "--eps", "1e-4", "--eps1", "0.01",
         "--eps2", "0.02", "--eps3", "0.03", "--delta", "1e-6"],
        False,
    ),
    "bounds-spp": (["bounds", "--bound", "spp", "--n", "4", "--eps", "0.001"], False),
    "verify-my-m1": (
        ["verify-isometry", "--strategy", "honest-my", "--m", "1", "--test", "my",
         "--theta", "0.03", "--w", "0.01", "--noise-seed", "4", "--pairs", "exhaustive"],
        True,
    ),
    "verify-my-m2-sample": (
        ["verify-isometry", "--strategy", "honest-my", "--m", "2", "--test", "my",
         "--theta", "0.01", "--pairs", "sample:8", "--seed", "7"],
        True,
    ),
    "verify-spp-m1": (
        ["verify-isometry", "--strategy", "honest-spp", "--m", "1", "--test", "spp",
         "--theta", "0.02", "--w", "0.01", "--noise-seed", "2"],
        True,
    ),
    "verify-spp-strategy-my-test": (
        ["verify-isometry", "--strategy", "honest-spp", "--m", "1", "--test", "my"],
        False,
    ),
    "verify-recipe-file": (
        ["verify-isometry", "--strategy", "recipe_my_m2.json", "--test", "my",
         "--pairs", "sample:4", "--seed", "3"],
        False,
    ),
    "verify-full-file": (
        ["verify-isometry", "--strategy", "full_spp_m1.json", "--test", "spp"],
        True,
    ),
    "game-exact-m2": (["game", "--m", "2", "--theta", "0.02"], False),
    "game-threshold-m1": (
        ["game", "--m", "1", "--rounds", "20000", "--seed", "5", "--referee", "threshold"],
        False,
    ),
    "game-subtest-m2": (
        ["game", "--m", "2", "--w", "0.02", "--noise-seed", "3", "--rounds", "20000",
         "--seed", "6", "--referee", "subtest"],
        False,
    ),
    "game-full-file": (
        ["game", "--strategy", "full_spp_m1.json", "--rounds", "5000", "--seed", "1"],
        False,
    ),
    "sweep-my-m1": (
        ["sweep-noise", "--flavor", "my", "--m", "1", "--thetas", "0,0.02,0.04",
         "--ws", "0,0.01", "--seed", "3"],
        True,
    ),
    "sweep-my-m2": (
        ["sweep-noise", "--flavor", "my", "--m", "2", "--thetas", "0,0.03",
         "--pairs", "sample:8", "--seed", "1"],
        True,
    ),
    "sweep-spp-m1": (
        ["sweep-noise", "--flavor", "spp", "--m", "1", "--thetas", "0,0.03",
         "--ws", "0.01", "--seed", "2"],
        True,
    ),
}


def run_case(name: str, csv_dir: Path) -> tuple[int, str, bytes]:
    """Exit code, stdout and CSV bytes (empty when none) of one case."""
    argv, writes_csv = CASES[name]
    csv_path = csv_dir / f"{name}.csv"
    if writes_csv:
        argv = argv + ["--csv", str(csv_path)]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), csv_path.read_bytes() if writes_csv else b""


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    code, stdout, csv_bytes = run_case(name, tmp_path)
    assert code == 0
    assert stdout == (GOLDEN / f"{name}.stdout").read_text()
    if CASES[name][1]:
        assert csv_bytes == (GOLDEN / f"{name}.csv").read_bytes()


def record() -> None:
    for name in sorted(CASES):
        code, stdout, _ = run_case(name, GOLDEN)
        if code != 0:
            raise SystemExit(f"{name} exited {code}")
        (GOLDEN / f"{name}.stdout").write_text(stdout)
        print(f"recorded {name}", file=sys.stderr)


if __name__ == "__main__":
    record()

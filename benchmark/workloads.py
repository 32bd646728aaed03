"""The benchmark's workloads: CLI arguments, units of work and output checks.

Each workload is one real `selftest-lab` command. An invocation takes an
input seed from a fixed pool, passed as `--seed` (and `--noise-seed`), whose
reference values were recorded from the seed code by `record_references.py`;
every pool seed passes every check there, so no operation is expected to
fail. The benchmark's `--seed` only chooses where in the pool a run starts.

`PREDICTIONS` is the layer -> end-to-end mapping written down before any
measurement: which end-to-end metric a per-layer metric should move, and on
which workloads. Later performance work cites these names.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

POOL_SIZE = 32  # input seeds 1..POOL_SIZE have recorded references
REFERENCES = Path(__file__).with_name("references.json")

ISO_PAIRS = 16
SWEEP_THETAS = "0,0.01,0.02,0.03,0.04,0.05"
SWEEP_WS = "0,0.01,0.02"
SWEEP_POINTS = 18
SWEEP_PAIRS_PER_POINT = 256  # exhaustive at m=2: 4^n with n = 4
GAME_ROUNDS = 1_000_000

EPS_TOL = 1e-9
DISTANCE_TOL = 1e-9
EXACT_TOL = 1e-12
ZERO_NOISE_DISTANCE = 1e-9
SIGMA_BAND = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: tuple[str, ...]  # layers whose cost dominates
    bypasses: tuple[str, ...]  # layers never called
    item: str  # one unit of throughput_per_s
    items: int  # units per invocation
    argv: Callable[[int], list[str]]
    check: Callable[[dict, Optional[dict]], list[str]]


def iso_argv(seed: int) -> list[str]:
    return [
        "verify-isometry", "--strategy", "honest-my", "--m", "3", "--test", "my",
        "--theta", "0.03", "--w", "0.01", "--pairs", f"sample:{ISO_PAIRS}",
        "--seed", str(seed), "--noise-seed", str(seed),
    ]


def sweep_argv(seed: int) -> list[str]:
    return [
        "sweep-noise", "--flavor", "spp", "--m", "2", "--thetas", SWEEP_THETAS,
        "--ws", SWEEP_WS, "--pairs", "exhaustive", "--seed", str(seed),
    ]


def game_argv(seed: int) -> list[str]:
    return [
        "game", "--m", "3", "--theta", "0.03", "--w", "0.01",
        "--rounds", str(GAME_ROUNDS), "--seed", str(seed), "--noise-seed", str(seed),
    ]


def _close(failures: list[str], name: str, got, want: float, tol: float) -> None:
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        failures.append(f"{name}={got!r} differs from reference {want!r} by more than {tol}")


def check_iso(report: dict, ref: Optional[dict]) -> list[str]:
    failures = []
    if report.get("pairs") != ISO_PAIRS:
        failures.append(f"pairs={report.get('pairs')!r}, expected {ISO_PAIRS}")
    if ref is None:
        return failures + ["no reference for this input seed"]
    _close(failures, "eps", report.get("eps"), ref["eps"], EPS_TOL)
    _close(failures, "max_distance", report.get("max_distance"), ref["max_distance"], DISTANCE_TOL)
    return failures


def check_sweep(report: dict, ref: Optional[dict]) -> list[str]:
    points = report.get("points") or []
    failures = []
    if len(points) != SWEEP_POINTS:
        failures.append(f"{len(points)} sweep points, expected {SWEEP_POINTS}")
    for p in points:
        if p.get("passed") is not True:
            failures.append(f"point theta={p.get('theta')} w={p.get('w')} failed")
    zero = [p for p in points if p.get("theta") == 0 and p.get("w") == 0]
    if len(zero) != 1:
        failures.append("no single zero-noise point")
    elif not zero[0].get("max_distance", math.inf) < ZERO_NOISE_DISTANCE:
        failures.append(
            f"zero-noise max_distance={zero[0].get('max_distance')!r} "
            f"is not below {ZERO_NOISE_DISTANCE}"
        )
    return failures


def check_game(report: dict, ref: Optional[dict]) -> list[str]:
    failures = []
    mc = report.get("monte_carlo") or {}
    exact = report.get("exact")
    if mc.get("rounds") != GAME_ROUNDS:
        failures.append(f"rounds={mc.get('rounds')!r}, expected {GAME_ROUNDS}")
    if ref is None:
        failures.append("no reference for this input seed")
    else:
        _close(failures, "exact", exact, ref["exact"], EXACT_TOL)
    try:
        within = abs(mc["mean"] - exact) <= SIGMA_BAND * mc["stderr"]
    except (KeyError, TypeError):
        within = False
    if not within:
        failures.append(f"sampled mean {mc.get('mean')!r} is not within 4 stderr of exact")
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="iso-my-m3",
            why=(
                "the hot path: 16 isometry images of 4 MB each (64x4096 complex, above "
                "L2) per command; loads isometry.distance, bypasses game"
            ),
            loads=("isometry",),
            bypasses=("game",),
            item="pair",
            items=ISO_PAIRS,
            argv=iso_argv,
            check=check_iso,
        ),
        Workload(
            name="sweep-spp-m2",
            why=(
                "18 perturbed strategies, 4608 small in-cache distances: per-call and "
                "per-context cost; loads isometry, protocols, strategies; bypasses game"
            ),
            loads=("isometry", "protocols", "strategies", "bounds"),
            bypasses=("game",),
            item="pair",
            items=SWEEP_POINTS * SWEEP_PAIRS_PER_POINT,
            argv=sweep_argv,
            check=check_sweep,
        ),
        Workload(
            name="game-spp-m3",
            why=(
                "10^6 Monte Carlo rounds over 1000 questions, the memory peak; loads "
                "game.sample and strategies.build, bypasses isometry and protocols"
            ),
            loads=("game", "strategies"),
            bypasses=("isometry", "protocols"),
            item="round",
            items=GAME_ROUNDS,
            argv=game_argv,
            check=check_game,
        ),
    )
}

# per-layer metric -> (end-to-end metric it should move, workloads where it does)
PREDICTIONS = {
    "cli.import_s": ("setup_s", ("iso-my-m3", "sweep-spp-m2", "game-spp-m3")),
    "cli.self_s": ("wall_s", ("iso-my-m3",)),
    "strategies.build_s": ("wall_s", ("game-spp-m3", "sweep-spp-m2")),
    "strategies.perturb_s": ("wall_s", ("game-spp-m3", "sweep-spp-m2")),
    "strategies.projectors": ("wall_s", ("game-spp-m3", "sweep-spp-m2")),
    "protocols.epsilon_s": ("wall_s", ("sweep-spp-m2",)),
    "protocols.entries": ("wall_s", ("sweep-spp-m2",)),
    "isometry.context_s": ("throughput_per_s", ("sweep-spp-m2",)),
    "isometry.verify_s": ("throughput_per_s", ("sweep-spp-m2",)),
    "isometry.distance_s": ("throughput_per_s", ("iso-my-m3", "sweep-spp-m2")),
    "isometry.distance_s.p50": ("throughput_per_s", ("iso-my-m3", "sweep-spp-m2")),
    "isometry.distance_s.tail": ("throughput_per_s", ("iso-my-m3", "sweep-spp-m2")),
    "isometry.distance_calls": ("throughput_per_s", ("iso-my-m3", "sweep-spp-m2")),
    "isometry.image_bytes": ("peak_rss_mb", ("iso-my-m3",)),
    "isometry.distance_peak_mb": ("peak_rss_mb", ("iso-my-m3",)),
    "bounds.eval_s": ("throughput_per_s", ("sweep-spp-m2",)),
    "bounds.calls": ("throughput_per_s", ("sweep-spp-m2",)),
    "game.exact_s": ("wall_s", ("game-spp-m3",)),
    "game.sample_s": ("throughput_per_s", ("game-spp-m3",)),
    "game.sample_peak_mb": ("peak_rss_mb", ("game-spp-m3",)),
    "game.distinct_questions": ("throughput_per_s", ("game-spp-m3",)),
}


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def pool_seed(run_seed: int, index: int) -> int:
    """Input seed of the index-th invocation of a run: a walk through the pool."""
    return (run_seed * 7 + index) % POOL_SIZE + 1


def check_output(workload: Workload, returncode: int, stdout: str, ref: Optional[dict]) -> list[str]:
    """Every reason this invocation's output is wrong; empty when it is right."""
    failures = []
    if returncode != 0:
        failures.append(f"exit code {returncode}")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return failures + ["stdout is not one JSON report"]
    if not isinstance(report, dict):
        return failures + ["report is not a JSON object"]
    if report.get("passed") is not True:
        failures.append(f"passed={report.get('passed')!r}")
    return failures + workload.check(report, ref)

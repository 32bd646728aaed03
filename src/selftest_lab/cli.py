"""Batch front-end: subcommands, JSON/CSV reports, deterministic output.

Subcommands: lemma-checks, honest-check, bounds, verify-isometry, game,
sweep-noise.  Reports are JSON on stdout (optionally a file), floats are
rounded to 15 significant digits, and every report embeds the SHA-256 of
its canonical config so identical runs are byte-identical.  Exit status is
0 iff every assertion in the run passed; usage errors and rejected input
exit 2.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Optional, Sequence, TextIO

from . import bitstrings as bs
from . import bounds as bnd
from .bitstrings import AdjacencyMatrix, BitString
from .game import (
    MAX_GAME_EXPECTATION,
    check_game_size,
    delta_and_epsilon,
    game_expectation_exact,
    sample_game,
)
from .isometry import check_isometry_size, verify_bound
from .protocols import epsilon_my, epsilon_spp, my_test_spec, spp_test_spec
from .strategies import (
    FLAVORS,
    MY_FLAVOR,
    NAMED_STRATEGIES,
    SPP_FLAVOR,
    EpsilonBundle,
    NoiseSpec,
    Strategy,
    honest_my_strategy,
    honest_spp_strategy,
    perturb_strategy,
    recipe_from_json,
    strategy_from_json,
    validate_strategy,
)

HONEST_CHECK_TOL = 1e-12


class UsageError(Exception):
    pass


# --- deterministic emission -------------------------------------------------


def round_floats(obj):
    """Round every float to 15 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def config_hash(config: dict) -> str:
    canonical = json.dumps(round_floats(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def emit(report: dict, out: Optional[TextIO], csv_file: Optional[TextIO], csv_rows):
    """Write the report to the open --out and --csv files, then to stdout."""
    text = json.dumps(round_floats(report), sort_keys=True, indent=2)
    if out:
        out.write(text + "\n")
    if csv_file:
        writer = csv.writer(csv_file)
        for row in csv_rows:
            writer.writerow([f"{v:.15g}" if isinstance(v, float) else v for v in row])
    print(text)
    sys.stdout.flush()


def _report(config: dict, passed: bool, csv_rows=None, **body):
    """(exit code, report, CSV rows) of a run: its body in the shared envelope."""
    report = {
        "command": config["command"],
        "config": config,
        "config_sha256": config_hash(config),
        **body,
        "passed": passed,
    }
    return (0 if passed else 1), report, csv_rows


def _csv(records: list[dict]) -> list[tuple]:
    """A header of the records' keys, in order, then one row per record."""
    return [tuple(records[0])] + [tuple(r.values()) for r in records]


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of a strategy-driven run."""

    command: str
    flavor: Optional[str] = None
    m: Optional[int] = None
    strategy: Optional[str] = None
    # Named strategies only; a strategy file carries its own noise, and
    # sweep-noise has its grid.
    theta: Optional[float] = None
    w: Optional[float] = None
    noise_seed: Optional[int] = None
    seed: Optional[int] = None
    # Set by the commands that read them; None leaves them out.
    rounds: Optional[int] = None  # game
    pairs: Optional[str] = None  # the commands that verify isometry pairs
    sample_count: Optional[int] = None

    def __post_init__(self):
        rounds = self.rounds or 0
        if self.m is not None and self.m < 1:
            raise UsageError(f"m must be >= 1, got {self.m}")
        if rounds < 0 or rounds == 1:
            raise UsageError(
                f"--rounds must be 0 (exact value only) or >= 2, got {rounds}"
            )
        if self.sample_count is not None and self.sample_count < 1:
            raise UsageError(f"sample count must be >= 1, got {self.sample_count}")
        if self.strategy and self.strategy not in NAMED_STRATEGIES:
            if not os.path.exists(self.strategy):
                raise UsageError(f"strategy file not found: {self.strategy}")
        needs_seed = rounds > 0 or self.pairs == "sample"
        if needs_seed and self.seed is None:
            raise UsageError("sampling requested but no --seed given")

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def _flavor_functions(flavor: str):
    """(honest builder, epsilon, test spec) of a flavor.

    Looked up from this module's globals on each call, so a replaced
    global takes effect.
    """
    return {
        MY_FLAVOR: (honest_my_strategy, epsilon_my, my_test_spec),
        SPP_FLAVOR: (honest_spp_strategy, epsilon_spp, spp_test_spec),
    }[flavor]


# The flags of a named strategy and their values when not given.
NAMED_STRATEGY_FLAGS = {"m": 1, "theta": 0.0, "w": 0.0, "noise_seed": 0}


def _strategy_flags(args) -> dict:
    """--strategy and the named-strategy flags, defaulted; a strategy file
    takes none of them, so its config leaves them out."""
    flags = {name: getattr(args, name) for name in NAMED_STRATEGY_FLAGS}
    if args.strategy in NAMED_STRATEGIES:
        flags = {k: NAMED_STRATEGY_FLAGS[k] if v is None else v for k, v in flags.items()}
    else:
        given = [f"--{k.replace('_', '-')}" for k, v in flags.items() if v is not None]
        if given:
            raise UsageError(f"a strategy file sets its own m and noise; drop {', '.join(given)}")
    return {"strategy": args.strategy, **flags}


def _resolve_strategy(cfg: RunConfig, flavor: str, check_size) -> Strategy:
    """The run's strategy, rejected unless it is projective and carries the
    questions of the flavor the command tests.

    A named strategy is the recipe its flags spell, built by the same code
    as a recipe file.  check_size(m) raises on an m too large for the
    command; it runs on the m that every form carries, before any strategy
    is built or a recipe's type and noise are read.
    """
    if cfg.strategy in NAMED_STRATEGIES:
        noise = {"theta": cfg.theta, "w": cfg.w, "seed": cfg.noise_seed}
        doc = {"type": cfg.strategy, "m": cfg.m, "noise": noise}
    else:
        with open(cfg.strategy) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"strategy file {cfg.strategy} is not a JSON object")
    m = doc.get("m")
    if type(m) is not int or m < 1:  # not isinstance: JSON true loads as a bool, an int
        raise ValueError(f'strategy file {cfg.strategy} needs an integer "m" >= 1, got {m!r}')
    check_size(m)
    if "type" in doc:
        kind, m, theta, w, seed = recipe_from_json(doc)
        build, _, _ = _flavor_functions(kind.removeprefix("honest-"))
        s = build(m)
        if theta or w:
            s = perturb_strategy(s, NoiseSpec(theta=theta, w=w), seed=seed)
    else:
        s = strategy_from_json(doc)
    missing = FLAVORS[flavor].missing_kinds(s)
    if missing:
        raise ValueError(
            f"strategy lacks the {flavor} question kinds {', '.join(missing)}"
        )
    failures = [c for c in validate_strategy(s) if not c.passed]
    if failures:
        raise ValueError(
            "strategy is not projective: "
            + "; ".join(f"{c.subject} {c.name} {c.max_deviation:.3g}" for c in failures)
        )
    return s


# --- lemma-checks -----------------------------------------------------------


def run_lemma_checks(max_n: int, even_ns: Sequence[int]) -> tuple[bool, list[dict]]:
    """All exhaustive bit-string checks."""
    checks = []

    def add(name, n, ok, detail=None):
        entry = {"name": name, "n": n, "passed": bool(ok)}
        if detail:
            entry["detail"] = detail
        checks.append(entry)

    for n in range(1, max_n + 1):
        ok = all(
            bs.average_dot(t) == Fraction(bs.hamming_weight(t), 2)
            for t in BitString.all_strings(n)
        )
        add("string-sum-average", n, ok)
        add("string-sum-double-average", n, bs.double_average_dot(n) == Fraction(n, 4))
        ok = all(
            bs.parity_average(t) == (1 if t.value == 0 else 0)
            for t in BitString.all_strings(n)
        )
        add("string-sum-parity", n, ok)
    for n in even_ns:
        add("half-swap-identity", n, bs.check_half_swap_identity(n))
    for n in even_ns:
        adj = AdjacencyMatrix.half_swap(n)
        witness = bs.find_phase_violation(adj)
        add(
            "phase-consistency",
            n,
            witness is None,
            None if witness is None else f"violated at s={witness[0]} t={witness[1]}",
        )
    return all(c["passed"] for c in checks), checks


def cmd_lemma_checks(args) -> tuple[int, dict, None]:
    even_ns = _parse_list(args.even_n, int)
    if args.max_n < 1:
        raise UsageError(f"--max-n must be >= 1, got {args.max_n}")
    if any(n % 2 or n < 2 for n in even_ns):
        raise UsageError(f"half-swap checks need even n >= 2, got {even_ns}")
    repeated = sorted({n for n in even_ns if even_ns.count(n) > 1})
    if repeated:
        raise UsageError(f"--even-n repeats {repeated}")
    if args.max_n > bs.EXHAUSTIVE_LIMIT or any(
        n > bs.EXHAUSTIVE_LIMIT for n in even_ns
    ):
        raise UsageError(f"range exceeds exhaustive limit {bs.EXHAUSTIVE_LIMIT}")
    ok, checks = run_lemma_checks(args.max_n, even_ns)
    config = {"command": "lemma-checks", "max_n": args.max_n, "even_n": even_ns}
    return _report(config, ok, checks=checks)


# --- honest-check -----------------------------------------------------------


def cmd_honest_check(args) -> tuple[int, dict, list]:
    config = RunConfig(command="honest-check", flavor=args.flavor, m=args.m).to_dict()
    if args.m > 3:
        raise UsageError(f"honest-check is capped at m=3, got {args.m}")
    build, measure, _ = _flavor_functions(args.flavor)
    strategy = build(args.m)
    rep = measure(strategy)
    game = None
    ok = rep.eps <= HONEST_CHECK_TOL
    if args.flavor == SPP_FLAVOR:
        exact = game_expectation_exact(strategy)
        delta, game_eps = delta_and_epsilon(exact, strategy.m)
        game_ok = abs(exact - MAX_GAME_EXPECTATION) <= HONEST_CHECK_TOL
        game = {
            "E": exact,
            "delta": delta,
            "eps": game_eps,
            "ideal": MAX_GAME_EXPECTATION,
            "passed": game_ok,
        }
        ok = ok and game_ok
    entries = [vars(e) for e in rep.entries]
    return _report(
        config, ok, _csv(entries),
        test=args.flavor,
        m=args.m,
        eps=rep.eps,
        entries=entries,
        worst_entry=vars(rep.argmax()),
        game=game,
    )


# --- bounds -----------------------------------------------------------------


def cmd_bounds(args) -> tuple[int, dict, None]:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    bundle = EpsilonBundle(**{f.name: getattr(args, f.name) for f in fields(EpsilonBundle)})
    names = bnd.bound_names() if args.bound == "all" else (args.bound,)
    reports = [bnd.evaluate_bound(name, args.n, args.weight_p, bundle) for name in names]
    config = {
        "command": "bounds",
        "bound": args.bound,
        "n": args.n,
        "weight_p": args.weight_p,
        **asdict(bundle),
    }
    return _report(config, True, bounds=reports)


# --- verify-isometry --------------------------------------------------------


def _verify(strategy: Strategy, flavor: str, cfg: RunConfig):
    """(eps, pair reports, max distance, all passed) of one strategy under the
    flavor's test, over the pairs that cfg selects."""
    _, measure, test_spec = _flavor_functions(flavor)
    eps = measure(strategy).eps
    reports = verify_bound(
        strategy, test_spec(strategy.m), pairs=cfg.pairs, seed=cfg.seed or 0,
        sample_count=cfg.sample_count, eps=eps,
    )
    return eps, reports, max(r.distance for r in reports), all(r.passed for r in reports)


def cmd_verify_isometry(args) -> tuple[int, dict, list]:
    pairs, sample_count = _parse_pairs(args.pairs)
    cfg = RunConfig(
        command="verify-isometry",
        flavor=args.test,
        **_strategy_flags(args),
        seed=args.seed,
        pairs=pairs,
        sample_count=sample_count,
    )
    strategy = _resolve_strategy(cfg, args.test, lambda m: check_isometry_size(2 * m))
    eps, reports, max_distance, ok = _verify(strategy, args.test, cfg)
    summary = (
        f"verify-isometry[{args.test}] m={strategy.m}: {len(reports)} pairs, "
        f"eps={eps:.6g}, max distance={max_distance:.6g}, "
        f"{'all bounds hold' if ok else 'BOUND VIOLATED'}"
    )
    print(summary, file=sys.stderr)
    rows = [("p", "q", "distance", "max_bound", "vacuous", "passed")]
    for r in reports:
        top = max(r.bounds.values())
        rows.append(
            (r.p, r.q, r.distance, top, top > bnd.VACUOUS_THRESHOLD, r.passed)
        )
    return _report(
        cfg.to_dict(), ok, rows,
        test=args.test,
        m=strategy.m,
        eps=eps,
        pairs=len(reports),
        max_distance=max_distance,
        summary=summary,
        reports=[r.to_dict() for r in reports],
    )


# --- game -------------------------------------------------------------------


def cmd_game(args) -> tuple[int, dict, None]:
    cfg = RunConfig(
        command="game",
        **_strategy_flags(args),
        seed=args.seed,
        rounds=args.rounds,
    )
    strategy = _resolve_strategy(cfg, SPP_FLAVOR, check_game_size)
    exact = game_expectation_exact(strategy)
    delta, eps = delta_and_epsilon(exact, strategy.m)
    bound = bnd.game_robustness_bound(2 * strategy.m, 0, delta)
    ok = True
    mc = None
    if args.rounds:
        mc = sample_game(strategy, args.rounds, seed=cfg.seed, referee=args.referee)
        band = 4.0 * mc["stderr"]
        mc["within_4_sigma"] = abs(mc["mean"] - exact) <= band
        ok = bool(mc["within_4_sigma"])
    return _report(
        cfg.to_dict(), ok,
        m=strategy.m,
        exact=exact,
        ideal=MAX_GAME_EXPECTATION,
        delta=delta,
        eps=eps,
        bound={"game": bound, "vacuous": bound > bnd.VACUOUS_THRESHOLD},
        monte_carlo=mc,
    )


# --- sweep-noise ------------------------------------------------------------


def cmd_sweep_noise(args) -> tuple[int, dict, list]:
    pairs, sample_count = _parse_pairs(args.pairs)
    thetas = _parse_list(args.thetas, float)
    ws = _parse_list(args.ws, float)
    if not thetas or not ws:
        raise UsageError("--thetas and --ws must each list a value, or no point is checked")
    cfg = RunConfig(
        command="sweep-noise",
        flavor=args.flavor,
        m=args.m,
        strategy=f"honest-{args.flavor}",
        seed=args.seed,
        pairs=pairs,
        sample_count=sample_count,
    )
    check_isometry_size(2 * args.m)
    build, _, _ = _flavor_functions(args.flavor)
    honest = build(args.m)
    points = []
    for i, (theta, w) in enumerate((t, w) for t in thetas for w in ws):
        noisy = perturb_strategy(
            honest, NoiseSpec(theta=theta, w=w), seed=(cfg.seed or 0) + i
        )
        eps, reports, max_dist, point_ok = _verify(noisy, args.flavor, cfg)
        # The bounds of the worst pair, the first one on a tie; they depend on |p|.
        worst = max(reports, key=lambda r: r.distance)
        printed, recomputed = worst.bounds.values()
        points.append(
            {
                "theta": theta,
                "w": w,
                "eps": eps,
                "max_distance": max_dist,
                "weight_p": worst.p.count("1"),
                "printed_bound": printed,
                "recomputed_bound": recomputed,
                "vacuous": max(printed, recomputed) > bnd.VACUOUS_THRESHOLD,
                "passed": point_ok,
            }
        )
    config = {**cfg.to_dict(), "thetas": thetas, "ws": ws}
    return _report(config, all(p["passed"] for p in points), _csv(points), points=points)


# --- parsing ----------------------------------------------------------------


def _parse_list(text: str, kind: type) -> list:
    """The comma-separated values of text as kind (int or float); blanks skipped."""
    try:
        return [kind(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        name = "integer" if kind is int else "float"
        raise UsageError(f"bad {name} list {text!r}") from exc


def _parse_pairs(text: str) -> tuple[str, int]:
    if text in ("auto", "exhaustive"):
        return text, 64
    if text.startswith("sample:"):
        try:
            return "sample", int(text.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"bad pair policy {text!r}") from exc
    raise UsageError(f"pair policy {text!r} must be auto, exhaustive or sample:<count>")


def _add_strategy_flags(sub):
    sub.add_argument("--strategy", default="honest-my",
                     help=f"{', '.join(NAMED_STRATEGIES)}, or a strategy JSON path")
    # Named strategies only; None lets _strategy_flags tell a given flag apart.
    sub.add_argument("--m", type=int, help="sub-test count (default 1)")
    sub.add_argument("--theta", type=float, help="rotation noise angle (default 0)")
    sub.add_argument("--w", type=float, help="state mixing weight (default 0)")
    sub.add_argument("--noise-seed", type=int, help="noise seed (default 0)")


def _add_csv_flag(sub):
    sub.add_argument("--csv", help="write a CSV of per-entry rows to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selftest-lab",
        description="Exact-simulation laboratory for two-player e-bit self-tests",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="also write the JSON report to this path")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=(
        lambda **kw: argparse.ArgumentParser(parents=[common], **kw)
    ))

    p = subs.add_parser("lemma-checks", help="exhaustive bit-string identity checks")
    p.add_argument("--max-n", type=int, default=10, help="string-sum checks run for n=1..max")
    p.add_argument("--even-n", default="2,4,6", help="even lengths for the half-swap checks")
    p.set_defaults(fn=cmd_lemma_checks)

    p = subs.add_parser("honest-check", help="ideal correlations of an honest strategy")
    p.add_argument("--flavor", choices=tuple(FLAVORS), required=True)
    p.add_argument("--m", type=int, default=1)
    _add_csv_flag(p)
    p.set_defaults(fn=cmd_honest_check)

    p = subs.add_parser("bounds", help="evaluate robustness bound formulas")
    p.add_argument("--bound", default="all",
                   help=f"one of {', '.join(bnd.bound_names())}, or all")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight-p", type=int, default=0)
    for f in fields(EpsilonBundle):
        p.add_argument(f"--{f.name}", type=float, default=0.0)
    p.set_defaults(fn=cmd_bounds)

    p = subs.add_parser("verify-isometry", help="distance vs bound over (p,q) pairs")
    _add_strategy_flags(p)
    p.add_argument("--test", choices=tuple(FLAVORS), required=True)
    p.add_argument("--pairs", default="auto", help="auto, exhaustive, or sample:<count>")
    p.add_argument("--seed", type=int, default=None)
    _add_csv_flag(p)
    p.set_defaults(fn=cmd_verify_isometry)

    p = subs.add_parser("game", help="exact and sampled value of the non-local game")
    _add_strategy_flags(p)
    p.set_defaults(strategy="honest-spp")
    p.add_argument("--rounds", type=int, default=0, help="Monte Carlo rounds (0: exact only)")
    p.add_argument("--referee", choices=("threshold", "subtest"), default="threshold")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_game)

    p = subs.add_parser("sweep-noise", help="noise grid: eps, distances, bounds")
    p.add_argument("--flavor", choices=tuple(FLAVORS), default="my")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--thetas", default="0,0.01,0.02,0.03,0.04,0.05")
    p.add_argument("--ws", default="0")
    p.add_argument("--pairs", default="auto")
    p.add_argument("--seed", type=int, default=0)
    _add_csv_flag(p)
    p.set_defaults(fn=cmd_sweep_noise)

    return parser


def _open_output(files: ExitStack, flag: str, path: Optional[str], **kw):
    """path opened for writing under files, or None when the flag is unset."""
    if not path:
        return None
    try:
        return files.enter_context(open(path, "w", **kw))
    except OSError as exc:
        raise OSError(f"cannot write {flag} {path}: {exc.strerror or exc}") from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with ExitStack() as files:
        try:
            # Opened before the run, so a bad path fails before the work.
            out = _open_output(files, "--out", args.out)
            csv_file = _open_output(files, "--csv", getattr(args, "csv", None), newline="")
            code, report, csv_rows = args.fn(args)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        except (KeyError, ValueError, RuntimeError, OSError, MemoryError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            emit(report, out, csv_file, csv_rows)
        except BrokenPipeError:
            # The reader closed stdout early.  Point stdout at devnull so the
            # flush at interpreter exit does not raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

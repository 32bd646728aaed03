"""Traced run of one workload invocation, as a child process of the benchmark.

It runs the real CLI entry point, `selftest_lab.cli.main`, after replacing the
public layer functions that the CLI commands call with wrappers of this file.
Each wrapper opens a span around the original call, so the spans follow the
program's own calls in the program's own order, and the report is the
program's own. The replacement takes effect because the program looks these
functions up as module globals (or class attributes) at call time.

Spans open only at layer boundaries, so `linalg` and `bitstrings` time shows
in their callers' spans, and what the command does between layer calls
(argument parsing, report and CSV-row assembly, emission) is the self time of
the `cli.main` span. Counting done by the wrappers runs in `trace.count` spans.

Usage: python benchmark/traced_child.py WORKLOAD INPUT_SEED SPANS_OUT
"""

import functools
import sys
import time
import weakref

import selftest_lab.cli as cli

IMPORTED = time.perf_counter()

from selftest_lab import bounds, game, isometry  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COMPLEX_BYTES = 16


def count_projectors(t: Tracer, s) -> None:
    t.count(
        "strategies.projectors",
        sum(len(s.measurement(party, kind).projectors)
            for party in ("alice", "bob") for kind in s.kinds(party)),
    )


def count_verify(t: Tracer, reports, s) -> None:
    """Pairs over their bound, and the size of one isometry image of `s`."""
    t.count("isometry.pairs_failed", sum(1 for r in reports if not r.passed))
    image_bytes = s.dim_a * s.dim_b * 4 ** (2 * s.m) * COMPLEX_BYTES
    t.counts["isometry.image_bytes"] = max(t.counts["isometry.image_bytes"], image_bytes)


def install(t: Tracer):
    """Replace the layer functions with span-opening wrappers.

    Returns a function that puts the originals back.
    """
    replaced = []

    def wrap(owner, attr, span, after=None, memory=""):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with t.span(span, memory=memory):
                result = original(*args, **kwargs)
            if after is not None:
                with t.span("trace.count"):
                    after(result, *args)
            return result

        replaced.append((owner, attr, original))
        setattr(owner, attr, traced)

    def projectors(s, *_):
        count_projectors(t, s)

    def entries(rep, *_):
        t.count("protocols.entries", len(rep.entries))

    for attr in ("honest_my_strategy", "honest_spp_strategy"):
        wrap(cli, attr, "strategies.build", after=projectors)
    wrap(cli, "perturb_strategy", "strategies.perturb", after=projectors)
    for attr in ("epsilon_my", "epsilon_spp"):
        wrap(cli, attr, "protocols.epsilon", after=entries)
    for attr in ("my_test_spec", "spp_test_spec"):
        wrap(cli, attr, "protocols.spec")
    wrap(cli, "verify_bound", "isometry.verify", after=lambda reps, s, *_: count_verify(t, reps, s))
    wrap(isometry, "select_pairs", "isometry.select_pairs")
    wrap(isometry.IsometryContext, "__init__", "isometry.context")
    for attr in ("my_parallel_bound", "my_parallel_recomputed_bound",
                 "spp_selftest_bound", "spp_recomputed_bound"):
        wrap(isometry, attr, "bounds.eval")
    wrap(bounds, "game_robustness_bound", "bounds.eval")
    for attr in ("game_expectation_exact", "delta_and_epsilon"):
        wrap(cli, attr, "game.exact")
    # tracemalloc would slow the sampler's many small allocations by half.
    wrap(cli, "sample_game", "game.sample", memory="rss")

    # The first distance call of each context also records its tracemalloc
    # peak; run.py leaves those calls out of the per-call timings. The peak is
    # one call's only while calls do not overlap: SELFTEST_LAB_THREADS=1.
    distance = isometry.IsometryContext.distance
    measured = weakref.WeakSet()

    @functools.wraps(distance)
    def traced_distance(ctx, p, q):
        first = ctx not in measured
        measured.add(ctx)
        with t.span("isometry.distance", memory="tracemalloc" if first else ""):
            return distance(ctx, p, q)

    replaced.append((isometry.IsometryContext, "distance", distance))
    isometry.IsometryContext.distance = traced_distance

    # The sampler asks for the answer distribution once per distinct question.
    joint = game._joint_distribution

    @functools.wraps(joint)
    def counted_joint(*args, **kwargs):
        if t.is_open("game.sample"):
            t.count("game.distinct_questions")
        return joint(*args, **kwargs)

    replaced.append((game, "_joint_distribution", joint))
    game._joint_distribution = counted_joint

    def restore():
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)

    return restore


def main(argv: list[str]) -> int:
    name, seed, spans_out = argv[0], int(argv[1]), argv[2]
    t = Tracer(run_id=f"{name}:{seed}")
    t.marks["cli.imported"] = IMPORTED
    install(t)
    with t.span("cli.main"):
        code = cli.main(WORKLOADS[name].argv(seed))
    t.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

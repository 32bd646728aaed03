"""Tests of the benchmark's own logic: statistics, failure counting, output checks.

    python3 -m pytest benchmark/test_bench.py -q
"""

import json
import sys
import time

import pytest

import run as bench
from spans import self_times, tail_percentile, timing_summary, percentile
from workloads import (
    GAME_ROUNDS,
    ISO_PAIRS,
    POOL_SIZE,
    SWEEP_POINTS,
    WORKLOADS,
    check_output,
    load_references,
    pool_seed,
)

ISO = WORKLOADS["iso-my-m3"]
SWEEP = WORKLOADS["sweep-spp-m2"]
GAME = WORKLOADS["game-spp-m3"]


@pytest.mark.parametrize(
    "n, pct",
    [(1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9), (10**6, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct
    if pct > 50.0:
        assert round(n * (100.0 - pct) / 100.0, 6) >= 10


def test_timing_summary_reports_sample_count_and_tail():
    values = [float(v) for v in range(1, 102)]  # 101 samples
    summary = timing_summary(values)
    assert summary == {"p50": 51.0, "tail": 91.0, "tail_pct": 90.0, "samples": 101}
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    assert timing_summary([])["samples"] == 0


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        ["root", 0.0, 10.0, None, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 2.0, 3.0, 1, None],
        ["c", 5.0, 6.5, 0, None],
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_pool_seed_is_deterministic_and_in_pool():
    seeds = [pool_seed(7, i) for i in range(3 * POOL_SIZE)]
    assert seeds == [pool_seed(7, i) for i in range(3 * POOL_SIZE)]
    assert set(seeds) == set(range(1, POOL_SIZE + 1))
    assert pool_seed(7, 0) != pool_seed(8, 0)


def test_every_pool_seed_has_a_reference():
    refs = load_references()
    for name in ("iso-my-m3", "game-spp-m3"):
        assert sorted(refs[name], key=int) == [str(s) for s in range(1, POOL_SIZE + 1)]


def iso_report(ref):
    return {"passed": True, "pairs": ISO_PAIRS, "eps": ref["eps"], "max_distance": ref["max_distance"]}


def test_iso_check_accepts_reference_and_rejects_corruption():
    ref = load_references()["iso-my-m3"]["1"]
    good = iso_report(ref)
    assert check_output(ISO, 0, json.dumps(good), ref) == []
    assert check_output(ISO, 0, json.dumps(dict(good, max_distance=ref["max_distance"] + 1e-6)), ref)
    assert check_output(ISO, 0, json.dumps(dict(good, eps=ref["eps"] - 1e-6)), ref)
    assert check_output(ISO, 0, json.dumps(dict(good, passed=False)), ref)
    assert check_output(ISO, 1, json.dumps(good), ref)
    assert check_output(ISO, 0, "usage error", ref)
    assert check_output(ISO, 0, json.dumps(good), None)


def sweep_report():
    points = [
        {"theta": t, "w": w, "max_distance": 0.0 if (t, w) == (0.0, 0.0) else 0.1, "passed": True}
        for t in (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)
        for w in (0.0, 0.01, 0.02)
    ]
    assert len(points) == SWEEP_POINTS
    return {"passed": True, "points": points}


def test_sweep_check_requires_exact_zero_noise_point():
    good = sweep_report()
    assert check_output(SWEEP, 0, json.dumps(good), None) == []
    inexact = sweep_report()
    inexact["points"][0]["max_distance"] = 2e-9
    assert check_output(SWEEP, 0, json.dumps(inexact), None)
    failing = sweep_report()
    failing["points"][5]["passed"] = False
    assert check_output(SWEEP, 0, json.dumps(failing), None)
    assert check_output(SWEEP, 0, json.dumps(dict(good, points=good["points"][:-1])), None)


def test_game_check_uses_reference_and_four_sigma_band():
    ref = load_references()["game-spp-m3"]["1"]
    exact = ref["exact"]
    mc = {"rounds": GAME_ROUNDS, "mean": exact + 0.001, "stderr": 0.0005}
    good = {"passed": True, "exact": exact, "monte_carlo": mc}
    assert check_output(GAME, 0, json.dumps(good), ref) == []
    assert check_output(GAME, 0, json.dumps(dict(good, exact=exact + 1e-11)), ref)
    far = dict(mc, mean=exact + 0.0021)
    assert check_output(GAME, 0, json.dumps(dict(good, monte_carlo=far)), ref)
    assert check_output(GAME, 0, json.dumps(dict(good, monte_carlo=dict(mc, rounds=10))), ref)


def test_failed_invocations_are_counted_and_not_timed(monkeypatch):
    calls = []

    def fake_untraced(workload, seed, refs):
        time.sleep(0.01)
        bad = len(calls) % 2 == 1
        calls.append(bad)
        return {
            "seed": seed, "failures": ["exit code 1"] if bad else [],
            "setup_s": 0.1, "wall_s": 9.0 if bad else 1.0, "throughput_per_s": 1.0,
            "cpu_s": 1.0, "peak_rss_mb": 50.0,
        }

    monkeypatch.setattr(bench, "untraced", fake_untraced)
    monkeypatch.setattr(bench, "report_invocation", lambda *a: None)
    result = bench.run("iso-my-m3", seed=1, seconds=0.05, trace=False, refs={})
    assert result["attempted"] == len(calls) >= 2
    assert result["failed"] == sum(calls) >= 1
    assert result["correct"] is False
    assert result["metrics"]["wall_s"] == {"value": 1.0, "unit": "s"}


def test_benchmark_json_matches_the_code():
    with open(bench.launch.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


SMALL_COMMANDS = {
    "sweep": ["sweep-noise", "--flavor", "spp", "--m", "1", "--thetas", "0,0.02",
              "--ws", "0,0.01", "--pairs", "exhaustive", "--seed", "3"],
    "game": ["game", "--m", "1", "--theta", "0.02", "--w", "0.01", "--rounds", "2000",
             "--seed", "3", "--noise-seed", "3"],
}


@pytest.mark.parametrize("command", sorted(SMALL_COMMANDS))
@pytest.mark.parametrize("threads", ["1", "2"])
def test_traced_run_is_the_programs_own_run(command, threads, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(bench.launch.SRC))
    monkeypatch.setenv("SELFTEST_LAB_THREADS", threads)
    import selftest_lab.cli as cli
    import traced_child
    from spans import Tracer

    argv = SMALL_COMMANDS[command]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    t = Tracer(run_id="test")
    restore = traced_child.install(t)
    try:
        with t.span("cli.main"):
            assert cli.main(argv) == 0
    finally:
        restore()
    assert capsys.readouterr().out == plain
    assert not hasattr(cli.perturb_strategy, "__wrapped__")

    names = [s[0] for s in t.spans]
    parent_of = {name: {t.spans[s[3]][0] for s in t.spans if s[0] == name and s[3] is not None} for name in names}
    assert all(start <= end for _, start, end, _, _ in t.spans)
    if command == "sweep":
        assert names.count("strategies.perturb") == 4
        assert names.count("isometry.distance") == 4 * 16
        assert names.count("bounds.eval") == 4 * 16 * 2
        assert parent_of["isometry.distance"] == {"isometry.verify"}
        assert parent_of["isometry.context"] == {"isometry.verify"}
        assert t.counts["protocols.entries"] > 0
        assert t.counts["isometry.pairs_failed"] == 0
        assert t.counts["isometry.image_bytes"] == 2 * 2 * 4**2 * 16
    else:
        assert parent_of["game.sample"] == {"cli.main"}
        assert names.count("bounds.eval") == 1
        assert t.counts["game.distinct_questions"] == 10
        assert "isometry.distance" not in names
    assert t.counts["strategies.projectors"] > 0


def test_tracer_parents_a_worker_thread_span_on_the_owner_thread():
    from concurrent.futures import ThreadPoolExecutor
    from spans import Tracer

    t = Tracer(run_id="test")

    def work(_):
        with t.span("leaf"):
            assert t.is_open("leaf") and not t.is_open("root")

    with t.span("root"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(4)))
    assert [s[3] for s in t.spans] == [None, 0, 0, 0, 0]

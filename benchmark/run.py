"""Benchmark of the selftest-lab CLI: end-to-end metrics and a traced per-layer run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --all --seed N --seconds S

A run repeats one workload's CLI command, each time in a fresh child process
with pinned thread settings, until `--seconds` have passed, and checks every
report against the references recorded from the seed code. With `--trace 0`
it reports the end-to-end metrics as medians over the invocations. With
`--trace 1` it alternates the untraced command with a traced run of the same
input (`traced_child.py`) and reports the per-layer metrics. The last line of
stdout is one JSON object: correct, attempted, failed and metrics. `--all`
runs every workload in both modes and prints every metric by name.

Exit code 2, without a result line, when the program's source is missing
or cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import launch
from spans import self_time_by_name, timing_summary
from workloads import GAME_ROUNDS, PREDICTIONS, WORKLOADS, check_output, load_references, pool_seed

HERE = Path(__file__).resolve().parent
MB = 2**20

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "strategies.build_s": "s",
    "strategies.perturb_s": "s",
    "strategies.projectors": "count",
    "protocols.epsilon_s": "s",
    "protocols.entries": "count",
    "isometry.context_s": "s",
    "isometry.verify_s": "s",
    "isometry.distance_s": "s",
    "isometry.distance_s.p50": "s",
    "isometry.distance_s.tail": "s",
    "isometry.distance_s.tail_pct": "%",
    "isometry.distance_s.samples": "count",
    "isometry.distance_calls": "count",
    "isometry.image_bytes": "bytes",
    "isometry.distance_peak_mb": "MB",
    "isometry.pairs_failed": "count",
    "bounds.eval_s": "s",
    "bounds.calls": "count",
    "game.exact_s": "s",
    "game.sample_s": "s",
    "game.sample_peak_mb": "MB",
    "game.distinct_questions": "count",
    "game.rounds_per_question": "rounds/question",
    "trace.overhead_s": "s",
}
# per-layer time metric -> span names whose self time it sums
SELF_TIME_SPANS = {
    "cli.import_s": ("cli.import",),
    "cli.self_s": ("cli.main",),
    "strategies.build_s": ("strategies.build",),
    "strategies.perturb_s": ("strategies.perturb",),
    "protocols.epsilon_s": ("protocols.epsilon",),
    "isometry.context_s": ("isometry.context",),
    "isometry.verify_s": ("isometry.verify",),
    "isometry.distance_s": ("isometry.distance",),
    "bounds.eval_s": ("bounds.eval",),
    "game.exact_s": ("game.exact",),
    "game.sample_s": ("game.sample",),
}


class SetupError(Exception):
    """The program cannot be run at all; no result is printed."""


def environment() -> dict:
    """Machine, interpreter, numpy/BLAS and the pinned thread settings.

    Gathered in a child with the benchmark's environment, which also compiles
    the package's bytecode and fills the file cache before anything is timed.
    """
    probe = (
        "import json, platform, numpy, selftest_lab.cli\n"
        "cfg = numpy.show_config(mode='dicts')\n"
        "blas = cfg.get('Build Dependencies', {}).get('blas', {})\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'blas': blas.get('name'), 'blas_version': blas.get('version')}))\n"
    )
    if not (launch.SRC / "selftest_lab" / "cli.py").is_file():
        raise SetupError(f"program source not found under {launch.SRC}")
    inv = launch.spawn(["-c", probe])
    if inv.returncode != 0:
        raise SetupError(f"cannot import selftest_lab.cli:\n{inv.stderr}")
    env = json.loads(inv.stdout)
    env.update(nproc=launch.nproc(), threads=launch.thread_settings(), cpu=cpu_info())
    return env


def cpu_info() -> dict:
    info: dict = {"model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def untraced(workload, seed: int, refs: dict) -> dict:
    inv = launch.run_cli(workload.argv(seed))
    failures = check_output(workload, inv.returncode, inv.stdout, refs.get(str(seed)))
    if inv.imported is None:
        failures.append("the child never reported its import")
    return {
        "seed": seed,
        "failures": failures,
        "setup_s": (inv.imported or inv.exited) - inv.spawned,
        "wall_s": inv.wall_s,
        "throughput_per_s": workload.items / inv.wall_s,
        "cpu_s": inv.cpu_s,
        "peak_rss_mb": inv.maxrss_kb * 1024 / MB,
    }


def traced(workload, seed: int, refs: dict) -> dict:
    spans_out = launch.OUT / f"spans-{os.getpid()}.json"
    spans_out.unlink(missing_ok=True)
    inv = launch.spawn([str(HERE / "traced_child.py"), workload.name, str(seed), str(spans_out)])
    failures = check_output(workload, inv.returncode, inv.stdout, refs.get(str(seed)))
    try:
        with open(spans_out) as fh:
            doc = json.load(fh)
        spans_out.unlink()
    except (OSError, json.JSONDecodeError):
        return {"seed": seed, "failures": failures + ["no spans written"], "doc": None}
    marks = doc["marks"]
    # The child's spans, under a root that runs from spawn to exit; the root's
    # own time is the traced child's glue code and the interpreter's exit.
    spans = [
        ["process", inv.spawned, inv.exited, None, None],
        ["cli.import", inv.spawned, marks["cli.imported"], 0, None],
        ["trace.flush", marks["trace.flush"], inv.exited, 0, None],
    ]
    offset = len(spans)
    for name, start, end, parent, peak in doc["spans"]:
        spans.append([name, start, end, 0 if parent is None else parent + offset, peak])
    doc["spans"] = spans
    return {"seed": seed, "failures": failures, "doc": doc, "root_s": inv.wall_s}


def layer_metrics(doc: dict) -> dict:
    """Per-layer figures of one traced invocation."""
    spans, counts = doc["spans"], doc["counts"]
    own = self_time_by_name(spans)
    out = {m: sum(own.get(n, 0.0) for n in names) for m, names in SELF_TIME_SPANS.items()}
    peaks = {name: max((s[4] for s in spans if s[0] == name and s[4] is not None), default=0)
             for name in ("isometry.distance", "game.sample")}
    out.update({
        "strategies.projectors": counts.get("strategies.projectors", 0),
        "protocols.entries": counts.get("protocols.entries", 0),
        "isometry.distance_calls": sum(1 for s in spans if s[0] == "isometry.distance"),
        "isometry.image_bytes": counts.get("isometry.image_bytes", 0),
        "isometry.distance_peak_mb": peaks["isometry.distance"] / MB,
        "isometry.pairs_failed": counts.get("isometry.pairs_failed", 0),
        "bounds.calls": sum(1 for s in spans if s[0] == "bounds.eval"),
        "game.sample_peak_mb": peaks["game.sample"] / MB,
        "game.distinct_questions": counts.get("game.distinct_questions", 0),
    })
    out["self_by_span"] = own
    return out


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def run(name: str, seed: int, seconds: float, trace: bool, refs: dict) -> dict:
    workload = WORKLOADS[name]
    refs = refs.get(name, {})
    plain: list[dict] = []
    tracedruns: list[dict] = []
    start = time.perf_counter()
    index = 0
    while True:
        input_seed = pool_seed(seed, index)
        plain.append(untraced(workload, input_seed, refs))
        report_invocation(name, "plain", plain[-1])
        if trace:
            tracedruns.append(traced(workload, input_seed, refs))
            report_invocation(name, "traced", tracedruns[-1])
        index += 1
        elapsed = time.perf_counter() - start
        # Start another round only if one more, at the mean pace so far, ends in time.
        if elapsed * (index + 1) / index > seconds:
            break
    attempts = plain + tracedruns
    failed = sum(1 for r in attempts if r["failures"])
    timed = [r for r in plain if not r["failures"]] or plain
    if trace:
        metrics = trace_metrics(name, seed, timed, [r for r in tracedruns if r["doc"]])
        units = PER_LAYER_UNITS
    else:
        metrics = {m: median_of(timed, m) for m in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {m: {"value": metrics.get(m, 0.0), "unit": u} for m, u in units.items()},
        "self_by_span": metrics.get("self_by_span", {}),
    }


def trace_metrics(name: str, seed: int, plain: list[dict], runs: list[dict]) -> dict:
    if not runs:
        return {}
    per_run = [layer_metrics(r["doc"]) for r in runs]
    metrics = {
        m: statistics.median(p[m] for p in per_run)
        for m in per_run[0]
        if m != "self_by_span"
    }
    span_names = sorted({n for p in per_run for n in p["self_by_span"]})
    metrics["self_by_span"] = {
        n: statistics.median(p["self_by_span"].get(n, 0.0) for p in per_run) for n in span_names
    }
    # Per-call distance timings, leaving out each context's first call, run under tracemalloc.
    calls = [s[2] - s[1] for r in runs for s in r["doc"]["spans"]
             if s[0] == "isometry.distance" and s[4] is None]
    summary = timing_summary(calls)
    metrics.update({f"isometry.distance_s.{k}": v for k, v in summary.items()})
    if metrics["game.distinct_questions"]:
        metrics["game.rounds_per_question"] = GAME_ROUNDS / metrics["game.distinct_questions"]
    metrics["trace.overhead_s"] = (
        statistics.median(r["root_s"] for r in runs) - median_of(plain, "wall_s")
    )
    dump_trace(name, seed, runs)
    return metrics


def dump_trace(name: str, seed: int, runs: list[dict]) -> None:
    """All spans of the run, one record per span with its run id."""
    path = launch.OUT / f"trace-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for r in runs:
            doc = r["doc"]
            for idx, (span, start, end, parent, peak) in enumerate(doc["spans"]):
                fh.write(json.dumps({
                    "run": doc["run_id"], "id": idx, "name": span, "start": start,
                    "end": end, "parent": parent, "peak_bytes": peak,
                }) + "\n")


def report_invocation(name: str, mode: str, row: dict) -> None:
    status = "ok" if not row["failures"] else "FAILED: " + "; ".join(row["failures"])
    timing = f" wall={row['wall_s']:.3f}s setup={row['setup_s']:.3f}s" if "wall_s" in row else ""
    print(f"[{name}] {mode} input-seed={row['seed']}{timing} {status}", flush=True)


def print_table(name: str, trace: bool, result: dict) -> None:
    workload = WORKLOADS[name]
    print(f"== {name} ({'traced, per-layer' if trace else 'untraced, end-to-end'}): "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"fail_ratio={result['failed'] / result['attempted']:.3g}; loads "
          f"{', '.join(workload.loads)}, bypasses {', '.join(workload.bypasses)}")
    for metric, v in result["metrics"].items():
        note = ""
        if metric == "throughput_per_s":
            note = f"  ({workload.item}s per second)"
        elif metric == "isometry.image_bytes":
            note = "  (computed from dims)"
        elif metric in PREDICTIONS:
            target, where = PREDICTIONS[metric]
            note = f"  (moves {target} on {', '.join(where)})"
        print(f"  {metric:30s} {v['value']:>16.6g} {v['unit']:<16s}{note}")
    if result["self_by_span"]:
        ranked = sorted(result["self_by_span"].items(), key=lambda kv: -kv[1])
        print("  self time per invocation, by span:")
        for span, secs in ranked:
            print(f"    {span:28s} {secs:>12.6f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, traced and not")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    try:
        refs = load_references()
        env = environment()
    except (OSError, json.JSONDecodeError, SetupError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(env, sort_keys=True))
    with open(launch.OUT / "environment.json", "w") as fh:
        json.dump(env, fh, indent=2, sort_keys=True)
    if not args.all:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), refs)
        print_table(args.workload, bool(args.trace), result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    results = {}
    for name in WORKLOADS:
        for trace in (False, True):
            result = run(name, args.seed, args.seconds, trace, refs)
            print_table(name, trace, result)
            results[f"{name}/trace{int(trace)}"] = {
                k: result[k] for k in ("correct", "attempted", "failed", "metrics")
            }
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

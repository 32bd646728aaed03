"""Record the reference values that the benchmark checks reports against.

Run on the commit whose results are the reference:

    python3 benchmark/record_references.py

It runs every workload's command once for each input seed of the pool,
requires all other output checks to pass there, so that no pool input fails
on the reference code, and writes `references.json` next to this file.
"""

from __future__ import annotations

import json
import sys

import launch
from workloads import POOL_SIZE, REFERENCES, WORKLOADS, check_output

# workload -> the report fields its check compares with the reference
RECORDED = {
    "iso-my-m3": ("eps", "max_distance"),
    "sweep-spp-m2": (),
    "game-spp-m3": ("exact",),
}


def main() -> int:
    refs: dict = {}
    for name, workload in WORKLOADS.items():
        refs[name] = {}
        for seed in range(1, POOL_SIZE + 1):
            inv = launch.run_cli(workload.argv(seed))
            report = json.loads(inv.stdout) if inv.returncode == 0 else {}
            ref = {field: report.get(field) for field in RECORDED[name]}
            failures = check_output(workload, inv.returncode, inv.stdout, ref)
            if failures:
                print(f"{name} seed {seed}: {'; '.join(failures)}", file=sys.stderr)
                return 1
            if ref:
                refs[name][str(seed)] = ref
            print(f"{name} seed {seed}: {ref} ({inv.wall_s:.2f} s)", flush=True)
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

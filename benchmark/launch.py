"""Child processes of the benchmark: pinned environment, timing and rusage.

Every child runs with the same thread settings, its stdout and stderr go to
temporary files under `.bench_out/`, and the benchmark reaps it with `os.wait4`, so
its CPU time and peak RSS come from the kernel's accounting of that child.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 60.0
IMPORTED_TAG = "bench-imported "

# The real CLI entry point (`selftest-lab` calls selftest_lab.cli:main), with
# one stderr line marking the moment the package import finished.
CLI_CHILD = (
    "import sys, time\n"
    "import selftest_lab.cli as cli\n"
    f"sys.stderr.write('{IMPORTED_TAG}' + repr(time.perf_counter()) + '\\n')\n"
    "sys.exit(cli.main())\n"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_settings() -> dict[str, str]:
    """Every thread count the program reads, at the machine's defaults.

    The CLI evaluates distances on one thread unless told otherwise, and
    OpenBLAS and OpenMP default to one thread per available CPU.
    """
    cpus = str(nproc())
    return {"SELFTEST_LAB_THREADS": "1", "OPENBLAS_NUM_THREADS": cpus, "OMP_NUM_THREADS": cpus}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(thread_settings())
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Invocation:
    returncode: int
    stdout: str
    stderr: str
    spawned: float
    exited: float
    cpu_s: float
    maxrss_kb: int

    @property
    def wall_s(self) -> float:
        return self.exited - self.spawned

    @property
    def imported(self) -> Optional[float]:
        """perf_counter value at which the child finished importing the CLI."""
        for line in self.stderr.splitlines():
            if line.startswith(IMPORTED_TAG):
                return float(line[len(IMPORTED_TAG):])
        return None


def spawn(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> Invocation:
    """Run `python <args>` to completion and account for it."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=OUT) as out, tempfile.TemporaryFile("w+", dir=OUT) as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            exited = time.perf_counter()
            killer.cancel()
            killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Invocation(
            returncode=proc.returncode,
            stdout=out.read(),
            stderr=err.read(),
            spawned=spawned,
            exited=exited,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_kb=usage.ru_maxrss,
        )


def run_cli(argv: list[str]) -> Invocation:
    return spawn(["-c", CLI_CHILD, *argv])

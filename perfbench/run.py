"""Repository benchmark: search, serve, build and mutate workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload search-batch --seed 0 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Launches the worker in a child process whose environment selects the
program's fast execution path (``REPRO_BACKEND=fast``), pins BLAS to one
thread before NumPy loads and puts ``src`` on ``PYTHONPATH``.  The
worker's last line of output is the JSON result; when the worker fails,
this exits non-zero and no result is printed.  See ``NOTES.md``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170
BLAS_THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    env["REPRO_BACKEND"] = "fast"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def main(argv) -> int:
    script = "selftest.py" if argv[:1] == ["--self-test"] else "worker.py"
    args = argv[1:] if script == "selftest.py" else argv
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro package next to the benchmark",
              file=sys.stderr)
        return 2
    try:
        done = subprocess.run([sys.executable, str(HERE / script), *args],
                              cwd=ROOT, env=child_env(), timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

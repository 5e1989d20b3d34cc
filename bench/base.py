"""What run.py needs from a workload."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One client process, and BLAS single-threaded in it and in every child: on a
# small shared host a second BLAS thread waits on whichever core is busy, and
# the same oracle check then varied by 8% within one process against 2%
# single-threaded. Set before numpy is imported.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(env) -> None:
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)


def child_env() -> dict:
    env = dict(os.environ)
    cap_blas_threads(env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("PYTHONHASHSEED", None)
    return env


TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)

# Reference kernels: fixed work that does not touch credeq, timed between
# operations. A shared host's speed can drift by 10-30% over seconds to
# minutes. Where a kernel uses the machine as the operations do, the drift
# is common to both, and their ratio repeats within a few percent where the
# raw times do not. Each workload names the kernel that matches its work.
_STATE: dict = {}


def scalar_kernel() -> None:
    """About 1.5 ms of scalar float math and small least-squares solves."""
    import math

    import numpy as np

    if "scalar" not in _STATE:
        rng = np.random.default_rng(0)
        _STATE["scalar"] = (rng.normal(size=(26, 6)), rng.normal(size=26))
    a, b = _STATE["scalar"]
    s = 0.0
    for k in range(3000):
        s += math.exp(-k * 1e-4) * math.erfc(k * 1e-3)
    for _ in range(30):
        np.linalg.lstsq(a, b, rcond=None)


def array_kernel() -> None:
    """About 10 ms of path-simulation-like array work: draws, a 5x5 mix, updates."""
    import numpy as np

    if "array" not in _STATE:
        _STATE["array"] = np.linalg.cholesky(np.eye(5) + 0.2)
    chol = _STATE["array"]
    rng = np.random.default_rng(0)
    x = np.zeros((2, 10_000))
    for _ in range(6):
        dw = rng.standard_normal((10_000, 5)) @ chol.T
        dw = np.stack((dw, -dw))
        x += 0.01 * dw[:, :, 0] + 1e-3 * np.exp(-0.01 * x) * dw[:, :, 1]


def process_kernel() -> None:
    """A fresh interpreter that imports numpy: start-up and import work."""
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(), check=True,
                   timeout=60)


class Workload:
    """One workload's inputs (built from the seed) and its unit of work.

    ``op(i)`` does operation ``i`` and is the only timed call; ``check``
    verifies its result afterwards and returns (ok, message) pairs, one per
    checked operation.
    """

    runs_children = False  # peak RSS is the children's, not this process's
    trace_ops = 1  # operations per traced pass; the same every run
    reference = staticmethod(scalar_kernel)
    ref_batch = 20  # most reference runs in one batch between operations

    def op(self, i: int, tracer=None):
        raise NotImplementedError

    def check(self, i: int, result) -> list:
        return []

    def pause(self) -> None:
        """Called after each step of an operation; the run sets it to time the
        reference kernel there."""

    def op_seconds(self, result, measured: float) -> float:
        """The operation's time; ``measured`` includes any pauses inside it."""
        return measured

    def finish(self) -> tuple[float, list]:
        """Closing work after the untraced loop: (seconds it took, checks)."""
        return 0.0, []

    def adopt(self, tracer, result, op_sid: int, i: int) -> None:
        """Take spans that operation ``i`` recorded elsewhere."""

    def report(self, times, finish_s) -> list[str]:
        """Lines naming the workload's own end-to-end figures."""
        return []

    def layer_metrics(self, analysis, n_ops: int, values: dict) -> list[str]:
        """Fill the workload's per-layer values; return lines for its timings."""
        return []




def percentile(values, p: float) -> float:
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100.0) >= 10:
            return p, percentile(values, p)
    return None, None


def timing_lines(label: str, values, unit: str, scale: float) -> list[str]:
    p50 = statistics.median(values) * scale
    lines = [f"{label}_p50_{unit}  {p50:.6g} {unit}  (n={len(values)})"]
    p, v = tail(values)
    if p is None:
        lines.append(f"{label}_tail_{unit}  n/a {unit}  (n={len(values)}: fewer than 10 "
                     "samples beyond any percentile from p90 up)")
    else:
        lines.append(f"{label}_tail_{unit}  {v * scale:.6g} {unit}  (p{p:g}, n={len(values)})")
    return lines

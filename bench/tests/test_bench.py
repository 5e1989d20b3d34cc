"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q bench/tests
They run the benchmark for a fraction of a second per workload (at least
one operation each), about three minutes in all.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
from base import NPROC, child_env  # noqa: E402
from metrics import DECLARED, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(workload: str, seed: int, trace: int, seconds: float = 0.1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return result


def test_metric_names_and_units_are_well_formed():
    metrics = DECLARED["end_to_end"] + DECLARED["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]), m
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in DECLARED["end_to_end"])
    assert max(m["bound"] for m in DECLARED["end_to_end"]) <= 0.25


def test_inputs_depend_on_the_seed():
    def fingerprint(workload, seed):
        rng = inputs.rng_for(workload, seed)
        if workload == "price-quotes":
            return repr(inputs.quote_book(rng, 20))
        if workload == "mc-oracle":
            import mc_oracle

            return mc_oracle.Workload(seed, None).cfg.seed
        return repr(inputs.history(rng, 2))

    for workload, _ in WORKLOADS:
        assert fingerprint(workload, 1) == fingerprint(workload, 1)
        assert fingerprint(workload, 1) != fingerprint(workload, 2)


@pytest.mark.parametrize("workload", [name for name, _ in WORKLOADS])
def test_seed_changes_no_metric_name(workload):
    expected = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    for seed in (1, 2):
        metrics = bench(workload, seed, trace=0)["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", [name for name, _ in WORKLOADS])
def test_traced_counts_repeat_exactly(workload):
    first, second = (bench(workload, 3, trace=1)["metrics"] for _ in range(2))
    assert set(first) == {m["name"] for m in DECLARED["per_layer"]}
    counts = {k for k, v in first.items() if v["unit"] == "count"}
    assert counts and {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["corrections.greeks_per_price"]["value"] == 2.0
    if workload == "mc-oracle":
        # One simulation per priced instrument: call, put, two bonds, CDS, multiscale call.
        assert first["oracle_mc.simulate_calls"]["value"] == 6.0
    if workload == "cli-day":
        # Spans recorded inside the CLI processes reach the client's trace.
        assert first["cli.calls"]["value"] > 0 and first["rates.yield_evals"]["value"] > 0


def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        for task in Path(f"/proc/{p}/task").glob("*/children"):
            try:
                kids = [int(c) for c in task.read_text().split()]
            except OSError:
                continue
            out += kids
            todo += kids
    return out


def _threads_and_env(pid: int):
    """Thread count, BLAS variables of the environment, and the command line."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
        env = Path(f"/proc/{pid}/environ").read_bytes().split(b"\0")
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return None
    threads = int(status.split("Threads:")[1].split()[0])
    blas = {k.decode(): v.decode() for k, _, v in (e.partition(b"=") for e in env)
            if k in (b"OPENBLAS_NUM_THREADS", b"OMP_NUM_THREADS", b"MKL_NUM_THREADS")}
    return threads, blas, cmdline


def test_load_is_one_client_and_one_cli_child():
    env = child_env()
    reference = subprocess.run(
        [sys.executable, "-c", "import credeq, pathlib; print(pathlib.Path('/proc/self/status')"
         ".read_text().split('Threads:')[1].split()[0])"],
        env=env, capture_output=True, text=True, check=True)
    blas_threads = int(reference.stdout)

    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli-day", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="64"),
    )
    seen = {"children": 0, "threads": 0, "blas": set()}
    done = threading.Event()

    client_cmdline = None

    def sample():
        nonlocal client_cmdline
        while not done.is_set():
            kids = _descendants(proc.pid)
            seen["children"] = max(seen["children"], len(kids))
            for pid in [proc.pid] + kids:
                info = _threads_and_env(pid)
                if not info:
                    continue
                seen["threads"] = max(seen["threads"], info[0])
                if pid == proc.pid:
                    client_cmdline = info[2]
                # The client caps its own limits after it starts, and a child
                # shows the client's first environment until it execs.
                elif info[2] != client_cmdline:
                    seen["blas"].update(info[1].values())
            time.sleep(0.005)

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        out, err = proc.communicate(timeout=170)
    finally:
        done.set()
        sampler.join(timeout=10)
    assert not sampler.is_alive()
    assert proc.returncode == 0, err
    assert json.loads(out.strip().splitlines()[-1])["failed"] == 0
    assert seen["children"] == 1
    assert seen["blas"] and all(0 < int(v) <= NPROC for v in seen["blas"])
    assert seen["threads"] <= blas_threads

"""credeq benchmark: one command, four workloads, untraced or traced.

Usage, from the repository root:

    python3 bench/run.py --workload calib-days --seed 1 --seconds 26 --trace 0

``--trace 0`` measures the end-to-end metrics and prints them; ``--trace 1``
runs the same operations untraced and traced, in alternating passes, and
prints the per-layer metrics and the tracing overhead. Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See
bench/README.md for the workloads and the metric map.

The benchmark imports credeq from ``src/`` of the checkout it runs in and
exits with code 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

from base import ROOT, SRC, cap_blas_threads, child_env, process_kernel  # noqa: E402

cap_blas_threads(os.environ)

from metrics import END_TO_END, LAYERS, PER_LAYER  # noqa: E402

WORKLOAD_MODULES = {
    "cli-day": "cli_day",
    "calib-days": "calib_days",
    "price-quotes": "price_quotes",
    "mc-oracle": "mc_oracle",
}
# Traced passes stop once this many spans are held (about 40 bytes each).
SPAN_BUDGET = 1_000_000
# Reference-kernel runs: one per REF_EVERY_S of run time, between operations.
REF_EVERY_S = 0.05
# setup_s: fresh-interpreter set-ups after the loop, each between two runs of
# the process kernel. A set-up is mostly import work, which the kernel also
# does, so their ratio follows the host's drift out; it is scaled back to
# seconds by the kernel's time on the baseline host (README, "setup_s").
SETUP_PROBES = 5
PROCESS_KERNEL_NOMINAL_S = 0.165


def fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def import_credeq():
    if not (SRC / "credeq" / "__init__.py").is_file():
        fail(f"no credeq sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import credeq

    if Path(credeq.__file__).resolve().parent != (SRC / "credeq").resolve():
        fail(f"imported credeq from {credeq.__file__}, not from {SRC}")
    return credeq


def set_up(workload: str, seed: int, out_dir: Path):
    """Import credeq and generate the workload's inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import_credeq()
    module = __import__(WORKLOAD_MODULES[workload])
    wl = module.Workload(seed, out_dir)
    return wl, time.perf_counter() - t0


def setup_probe(workload: str, seed: int, index: int) -> float:
    """Set-up time of a fresh interpreter, as a new benchmark process pays it."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-probe", str(index)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        fail(f"setup probe failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int) -> tuple[float, list, list]:
    """setup_s, and the probes' raw set-up and kernel times it comes from."""

    def kernel_s() -> float:
        t0 = time.perf_counter()
        process_kernel()
        return time.perf_counter() - t0

    setups, kernels = [], [kernel_s()]
    for k in range(SETUP_PROBES):
        setups.append(setup_probe(workload, seed, k))
        kernels.append(kernel_s())
    ratios = [s / (0.5 * (kernels[k] + kernels[k + 1])) for k, s in enumerate(setups)]
    return statistics.median(ratios) * PROCESS_KERNEL_NOMINAL_S, setups, kernels


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, checks) -> None:
        """checks: iterable of (ok, message)."""
        for ok, message in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(message)


FAILED = object()


def attempt(wl, i: int, tally: Tally, tracer=None):
    """Operation i's result, or FAILED (counted) when credeq raises one of its errors."""
    from credeq.errors import CredeqError

    try:
        return wl.op(i, tracer)
    except CredeqError as exc:
        tally.add([(False, f"op {i}: {type(exc).__name__}: {exc}")])
        return FAILED


def run_untraced(wl, seconds: float, tally: Tally) -> tuple[array, array, float]:
    """Each operation's time, and its time in units of the reference kernel.

    The kernel runs in batches between operations, about once per
    REF_EVERY_S of run time, and once per ``wl.pause`` call inside an
    operation (whose time excludes it). An operation's reference is the
    median of every kernel run from the batch before it to the batch after.
    """
    # Flat float arrays, so memory hardly grows with the number of operations.
    times, relative, ref_log = array("d"), array("d"), array("d")

    def sample(n: int) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            wl.reference()
            ref_log.append(time.perf_counter() - t0)

    wl.pause = lambda: sample(1)
    sample(wl.ref_batch)
    window_start = 0
    last_ref = time.perf_counter()
    deadline = time.perf_counter() + seconds
    i = 0
    # Start an operation only if one more like the last still fits.
    while i == 0 or time.perf_counter() + times[-1] <= deadline:
        t0 = time.perf_counter()
        result = attempt(wl, i, tally)
        measured = time.perf_counter() - t0
        if result is not FAILED:
            measured = wl.op_seconds(result, measured)
            tally.add(wl.check(i, result))
        times.append(measured)
        due = min(int((time.perf_counter() - last_ref) / REF_EVERY_S), wl.ref_batch)
        if due or time.perf_counter() + times[-1] > deadline:
            batch_start = len(ref_log)
            sample(max(due, 1))
            ref = statistics.median(ref_log[window_start:])
            relative.extend(s / ref for s in times[len(relative):])
            window_start = batch_start
            last_ref = time.perf_counter()
        i += 1
    return times, relative, statistics.median(ref_log)


def end_to_end(wl, workload, seed, seconds, setup_s) -> dict:
    import numpy as np

    tally = Tally()
    times, relative, ref_s = run_untraced(wl, seconds, tally)
    finish_s, checks = wl.finish()
    tally.add(checks)
    rss = peak_rss_mb(children=wl.runs_children)
    setup_norm, setups, kernels = setup_seconds(workload, seed)
    ops_per_s = len(times) / (sum(times) + finish_s)
    values = {
        "setup_s": setup_norm,
        "op_p50_ref": float(np.median(np.frombuffer(relative))),
        "ops_per_ref": len(times) / (sum(relative) + finish_s / ref_s),
        "peak_rss_mb": rss,
    }
    print(f"workload {workload}  seed {seed}  ops {len(times)}  own set-up {setup_s:.4f} s")
    print(f"set-up probes  {', '.join(f'{s:.4f}' for s in setups)} s  process kernel  "
          f"{', '.join(f'{k:.4f}' for k in kernels)} s")
    print(f"op_p50_ms  {np.median(np.frombuffer(times)) * 1e3:.6g} ms  ops_per_s  {ops_per_s:.6g} 1/s  "
          f"reference kernel  {ref_s * 1e3:.6g} ms")
    for line in wl.report(times, finish_s):
        print(line)
    print(f"fail_ratio  {tally.failed / max(tally.attempted, 1):.6g}  "
          f"({tally.failed} of {tally.attempted})")
    for name, unit, _, _ in END_TO_END:
        print(f"{name}  {values[name]:.6g} {unit}")
    return tally, {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def import_probe() -> tuple[float, float]:
    """Fresh-interpreter ``import credeq.cli``: total seconds and scipy's share."""
    code = ("import time; t = time.perf_counter(); import credeq.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"import probe failed: {proc.stderr.strip()[-400:]}")
    scipy_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().startswith("scipy"):
            scipy_us += int(parts[0].split(":")[1])
    return float(proc.stdout.strip().splitlines()[-1]), scipy_us / 1e6


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (line label, span names, what, scale, unit): timings of named public calls.
# "incl" is the mean inclusive time per call, "self" the self time per op.
TIMINGS = (
    ("market_data.load_ms", ("market_data.load_treasury_csv", "market_data.load_bonds_csv",
                             "market_data.load_options_csv"), "incl_op", 1e3, "ms"),
    ("rates.fit_vasicek_ms", ("rates.fit_vasicek",), "incl", 1e3, "ms"),
    ("pricing.p0_self_us", None, "layer_self:pricing", 1e6, "us"),
    ("corrections.greeks_self_ms", ("corrections.greeks",), "self_op", 1e3, "ms"),
    ("corrections.price_p0_self_ms", ("corrections.price_p0",), "self_op", 1e3, "ms"),
    ("corrections.price_full_us", ("corrections.price_full",), "incl", 1e6, "us"),
    ("implied_vol.self_ms", None, "layer_self:implied_vol", 1e3, "ms"),
    ("implied_vol.us", ("implied_vol.implied_vol",), "incl", 1e6, "us"),
    ("calibration.fit_bonds_ms", ("calibration.fit_bonds",), "incl", 1e3, "ms"),
    ("calibration.fit_options_ms", ("calibration.fit_options",), "incl", 1e3, "ms"),
    ("cds.term_structure_ms", ("cds.cds_term_structure",), "incl", 1e3, "ms"),
    ("cds.spread_us", ("cds.cds_spread",), "incl", 1e6, "us"),
    ("oracle_mc.simulate_s", ("oracle_mc.simulate_terminals",), "incl_op", 1.0, "s"),
    ("oracle_mc.payoff_s", ("oracle_mc.mc_price",), "self_op", 1.0, "s"),
)


def generic_layer_metrics(a, n_ops: int, values: dict) -> list[str]:
    """Counts that every workload reports, and lines for the timings it exercises."""
    values["rates.yield_evals"] = ratio(a.count_under("rates.vasicek_yield", "rates.fit_vasicek"),
                                        a.count("rates.fit_vasicek"))
    values["rates.factor_a_calls"] = a.count("rates.factor_a") / n_ops
    values["pricing.p0_calls"] = a.count(
        "pricing.call_p0", "pricing.put_p0", "pricing.defaultable_bond_p0") / n_ops
    values["corrections.greeks_calls"] = a.count("corrections.greeks") / n_ops
    values["corrections.price_p0_calls"] = a.count("corrections.price_p0") / n_ops
    values["corrections.greeks_per_price"] = ratio(
        a.count_under("corrections.greeks", "corrections.price_full"),
        a.count("corrections.price_full"))
    values["implied_vol.inversions"] = a.count("implied_vol.implied_vol") / n_ops
    values["implied_vol.bs_price_per_inversion"] = ratio(
        a.count_under("implied_vol.bs_price", "implied_vol.implied_vol"),
        a.count("implied_vol.implied_vol"))
    values["cds.price_full_calls"] = ratio(
        a.count_under("corrections.price_full", "cds.cds_term_structure"),
        a.count("cds.cds_term_structure"))
    values["oracle_mc.simulate_calls"] = a.count("oracle_mc.simulate_terminals") / n_ops

    lines = []
    for label, names, what, scale, unit in TIMINGS:
        if what.startswith("layer_self:"):
            layer = what.split(":", 1)[1]
            if not a.layer_calls(layer):
                continue
            value = a.layer_self(layer) / n_ops
        else:
            calls = a.count(*names)
            if not calls:
                continue
            value = {"incl": a.inclusive(*names) / calls, "incl_op": a.inclusive(*names) / n_ops,
                     "self_op": a.self_of(*names) / n_ops}[what]
        per = "call" if what == "incl" else "op"
        lines.append(f"{label}  {value * scale:.6g} {unit}  (per {per})")
    return lines


def per_layer(wl, workload, seed, seconds) -> dict:
    from spans import Analysis, Tracer

    tally = Tally()
    tracer = Tracer()
    import_s, import_scipy_s = import_probe()
    untraced_s = traced_s = 0.0
    deadline = time.perf_counter() + seconds
    passes, pass_s = 0, 0.0
    while passes == 0 or (time.perf_counter() + pass_s <= deadline
                          and len(tracer.name) < SPAN_BUDGET):
        pass_t0 = time.perf_counter()
        for i in range(wl.trace_ops):
            t0 = time.perf_counter()
            result = attempt(wl, i, tally)
            untraced_s += time.perf_counter() - t0
            if result is not FAILED:
                tally.add(wl.check(i, result))
        tracer.install()
        try:
            for i in range(wl.trace_ops):
                op_sid = tracer.begin_op(i)
                result = attempt(wl, i, tally, tracer)
                traced_s += tracer.end_op()
                if result is not FAILED:
                    wl.adopt(tracer, result, op_sid, i)
                    tally.add(wl.check(i, result))
        finally:
            tracer.uninstall()
        passes += 1
        pass_s = time.perf_counter() - pass_t0

    analysis = Analysis(tracer)
    n_ops = passes * wl.trace_ops
    op_time = analysis.op_time()
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    for layer in LAYERS:
        values[f"{layer}.calls"] = analysis.layer_calls(layer) / n_ops
        values[f"{layer}.self_pct"] = 100.0 * analysis.layer_self(layer) / op_time
    values["unattributed.self_pct"] = 100.0 * analysis.layer_self("bench") / op_time
    values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    values["cli.import_s"] = import_s
    values["cli.import_scipy_s"] = import_scipy_s
    lines = generic_layer_metrics(analysis, n_ops, values)
    lines += wl.layer_metrics(analysis, n_ops, values)
    unknown = set(values) - {name for name, _, _ in PER_LAYER}
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics {sorted(unknown)}")

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.npz"
    tracer.save(trace_path)
    print(f"workload {workload}  seed {seed}  traced passes {passes} x {wl.trace_ops} ops  "
          f"spans {len(tracer.name)}  -> {trace_path.relative_to(ROOT)}")
    print(f"trace overhead  {values['trace.overhead_pct']:.4g} %  "
          f"(traced {traced_s:.4f} s vs untraced {untraced_s:.4f} s, same ops)")
    for line in lines:
        print(line)
    for layer in ("unattributed",) + LAYERS:
        calls = values.get(f"{layer}.calls")
        print(f"{layer}.self_pct  {values[f'{layer}.self_pct']:.4g} %"
              + ("" if calls is None else f"  calls/op {calls:.6g}"))
    units = {name: unit for name, unit, _ in PER_LAYER}
    return tally, {name: {"value": float(values[name]), "unit": units[name]}
                   for name, _, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe is not None:
        _, seconds = set_up(args.workload, args.seed, OUT / f"probe{args.setup_probe}")
        print(seconds)
        return 0

    wl, setup_s = set_up(args.workload, args.seed, OUT / f"{args.workload}-seed{args.seed}")
    if args.trace:
        tally, metrics = per_layer(wl, args.workload, args.seed, args.seconds)
    else:
        tally, metrics = end_to_end(wl, args.workload, args.seed, args.seconds, setup_s)
    if tally.messages:
        print("failures: " + "; ".join(tally.messages))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

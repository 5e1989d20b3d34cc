"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root declares the workloads and the
metrics; this module reads them from there, so the declaration is the only
list. Every workload reports every metric of a list: the untraced run the
``END_TO_END`` list, the traced run the ``PER_LAYER`` list. A per-layer count
of a layer that a workload never calls reads 0.
"""

import json
from pathlib import Path

# The package modules, in call order from the CLI down. ``errors`` does no work.
LAYERS = (
    "cli",
    "market_data",
    "rates",
    "pricing",
    "corrections",
    "implied_vol",
    "calibration",
    "cds",
    "oracle_mc",
)

DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# (name, unit, better, bound). ``op`` is the workload's unit of work: one CLI
# day, one calibrated day, one pricing request, or one oracle check. Op
# timings are in units of the reference kernel (``ref``), timed in the same
# run; run.py prints the raw milliseconds beside them.
END_TO_END = tuple((m["name"], m["unit"], m["better"], m["bound"])
                   for m in DECLARED["end_to_end"])

# (name, unit, better).
PER_LAYER = tuple((m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"])

# (name, why).
WORKLOADS = tuple((w["name"], w["why"]) for w in DECLARED["workloads"])

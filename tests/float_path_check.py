"""The pricing commands on floats alone, without NumPy, on the oldest supported Python.

Run from the repository root with ``PYTHONPATH=src python tests/float_path_check.py``
on an interpreter that has no NumPy. Seven commands must exit 0: a call, a put, a
bond, a CDS curve, a call surface, a put surface and a CDS series over two fit files.
Three inputs outside the domain must exit 2: a maturity whose variance underflows, a
10^8-point maturity range, which is rejected before its list is built, and a call on
a subnormal spot (x = 5e-324), whose spot / strike ratio rounds to 0. Two fits the
variant table rejects must exit 2 with "error": "ValidationError": a variant no row
names, and an index fit with a nonzero default intensity. So must a put on a fit
whose dividend yield q = 1500 underflows the spot x*exp(-q*tau) to 0, with a message
that names q. The script prints the codes and errors it saw and exits 1 unless all
of that holds and NumPy stayed unloaded. Pytest does not collect it: its name does
not start with ``test_``.
"""

import contextlib, io, json, sys, tempfile
from pathlib import Path
from credeq.calibration import ModelFit
from credeq.cli import main
from credeq.corrections import CorrectionParams
from credeq.pricing import CreditParams
from credeq.rates import EquityParams, VasicekParams

fit = ModelFit(VasicekParams(alpha=0.0063, beta=0.1034, eta=0.012, r=0.0476),
               EquityParams(x=8.04, sigma2=0.2576, rho1=-0.0327),
               CreditParams(l=0.3, lam=0.05), CorrectionParams(v3=0.0009, w2=-0.0001))
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "fit.json"
    path.write_text(json.dumps(fit.to_dict()), encoding="utf-8")
    tiny = fit.to_dict()
    tiny["equity"]["x"] = 5e-324
    tiny_path = Path(tmp) / "tiny-spot.json"
    tiny_path.write_text(json.dumps(tiny), encoding="utf-8")
    bad_paths = []
    for variant in ("five_param", "index"):  # the fit's lam is 0.05
        bad_paths.append(Path(tmp) / f"{variant}.json")
        bad_paths[-1].write_text(json.dumps(dict(fit.to_dict(), variant=variant)),
                                 encoding="utf-8")
    high_q = fit.to_dict()
    high_q["equity"]["q"] = 1500.0
    high_q_path = Path(tmp) / "high-q.json"
    high_q_path.write_text(json.dumps(high_q), encoding="utf-8")
    fits_dir = Path(tmp) / "fits"
    fits_dir.mkdir()
    for date in ("2006-09-18", "2006-09-19"):
        (fits_dir / f"{date}.json").write_text(json.dumps(fit.to_dict()), encoding="utf-8")
    codes = [main(argv) for argv in (
        ["price", "--fit", str(path), "--kind", "call", "--strike", "8",
         "--maturity", "0.5"],
        ["price", "--fit", str(path), "--kind", "put", "--strike", "8",
         "--maturity", "0.5"],
        ["price", "--fit", str(path), "--kind", "bond", "--maturity", "5"],
        ["cds-curve", "--fit", str(path), "--maturities", "1..10"],
        ["ivol-surface", "--fit", str(path), "--grid", "0.25,0.5,1x7,8,9"],
        ["ivol-surface", "--fit", str(path), "--grid", "0.25,0.5,1x7,8,9",
         "--kind", "put"],
        ["cds-series", "--fits-dir", str(fits_dir), "--maturity", "5"],
        ["price", "--fit", str(path), "--kind", "call", "--strike", "8",
         "--maturity", "1e-300"],
        ["cds-curve", "--fit", str(path), "--maturities", "1..100000000"],
        ["price", "--fit", str(tiny_path), "--kind", "call", "--strike", "8",
         "--maturity", "0.5"],
    )]
    errors = []
    for bad_path in bad_paths:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            codes.append(main(["price", "--fit", str(bad_path), "--kind", "bond",
                               "--maturity", "5"]))
        errors.append(json.loads(stderr.getvalue())["error"])
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        codes.append(main(["price", "--fit", str(high_q_path), "--kind", "put",
                           "--strike", "8", "--maturity", "0.5"]))
    high_q_error = json.loads(stderr.getvalue())
    errors.append(high_q_error["error"])
print(sys.version.split()[0], codes, errors, high_q_error["message"],
      "numpy loaded:", "numpy" in sys.modules)
sys.exit(codes != [0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2]
         or errors != ["ValidationError", "ValidationError", "ValidationError"]
         or "q = 1500.0" not in high_q_error["message"]
         or "numpy" in sys.modules)

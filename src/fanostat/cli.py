"""Command-line front end: scans, fits, oracle checks, background helper.

Subcommands
-----------
scan          evaluate model curves on a grid and write a series
fit           fit the full model to measurement files, write a JSON report
oracle-check  compare the regression solver against the closed forms
fp-background amplitude transmission of a lossless two-mirror background

Determinism: identical configs and inputs produce byte-identical outputs.
Exit codes: 0 success, 2 usage/config error, 3 data error, 4 tolerance
exceeded (oracle-check).
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .averaging import ModelCurves
from .bloch import output_correlator_g2, output_correlator_g1
from .correlators import g1_general, g2_tau_general, g2zero_ideal
from .fitting import fit_full_model, fit_report
from .io import (DataFormatError, load_measurements, merge_measurements,
                 params_from_config, write_series)
from .params import (DimensionlessParams, FPBackground, PhysicalParams,
                     detuning_to_delta, fp_background, phi_from_t0)

SCAN_MODES = ("transmission", "g2zero", "g2trace", "decompose")


@dataclass(frozen=True)
class ScanRequest:
    """A fully resolved scan: what to evaluate, where, and how to emit it."""

    mode: str
    params: PhysicalParams
    grid_start: float
    grid_stop: float
    grid_count: int
    out_path: str
    out_format: str = "csv"
    average: bool = True
    convolve: bool = True
    detuning: float | None = None
    timestamp: bool = False

    def __post_init__(self):
        if self.mode not in SCAN_MODES:
            raise ValueError(f"unknown scan mode {self.mode!r}")
        if self.grid_count < 2:
            raise ValueError("grid count must be >= 2")
        if not self.grid_start < self.grid_stop:
            raise ValueError("grid start must be below stop")
        if self.out_format not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.mode == "g2trace" and self.detuning is None:
            raise ValueError("g2trace needs --detuning")

    def grid(self):
        return np.linspace(self.grid_start, self.grid_stop, self.grid_count)


def _metadata(p: PhysicalParams, extra=None, timestamp=False):
    meta = {f"param_{k}": v for k, v in p.to_mapping().items()}
    meta.update({
        "tool": "fanostat",
        "version": __version__,
        "convention_detuning": "laser minus transition energy, ueV",
        "convention_reduced_time": "tau_t = tau * gamma / 2",
    })
    if extra:
        meta.update(extra)
    if timestamp:
        import datetime
        meta["written_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


def run_scan(req: ScanRequest):
    """Evaluate the requested scan; returns (columns, rows, metadata).

    Every curve comes from one :class:`ModelCurves`. ``average=off`` is its
    zero-width limit ``sigma_wander = detector_resp = 0``: the bare closed
    forms, with no wandering and no detector. ``convolve=off`` sets only
    ``detector_resp = 0``. The metadata keep the requested parameters.
    """
    p = req.params
    grid = req.grid()
    model = ModelCurves(p.replace(
        sigma_wander=p.sigma_wander if req.average else 0.0,
        detector_resp=p.detector_resp if req.average and req.convolve else 0.0))
    extra = {"mode": req.mode, "average": req.average, "convolve": req.convolve}

    if req.mode == "transmission":
        rows = list(zip(grid, model.transmission(grid)))
        return ("detuning_uev", "transmission"), rows, _metadata(p, extra, req.timestamp)

    if req.mode == "g2zero":
        rows = [(g, v, "" if np.isfinite(v) else "divergent")
                for g, v in zip(grid, model.g2zero(grid))]
        return ("detuning_uev", "g2zero", "flag"), rows, _metadata(p, extra, req.timestamp)

    if req.mode == "g2trace":
        det = float(req.detuning)
        extra["detuning_uev"] = det
        rows = [(g, v, "" if np.isfinite(v) else "divergent")
                for g, v in zip(grid, model.g2_trace(det, grid))]
        return ("tau_ps", "g2", "flag"), rows, _metadata(p, extra, req.timestamp)

    # decompose: ideal zero-delay split (unit beta, no dephasing), set by t0
    delta = detuning_to_delta(grid - p.omega0, p.lifetime)
    dec = g2zero_ideal(delta, model.phi)
    rows = [(g, dv, pr, b, i, t, "" if np.isfinite(t) else "divergent")
            for g, dv, pr, b, i, t in zip(grid, delta,
                                          np.broadcast_to(dec.product_term, delta.shape),
                                          dec.bound_term, dec.interference_term,
                                          dec.total)]
    return (("detuning_uev", "delta", "product", "bound", "interference",
             "total", "flag"), rows, _metadata(p, extra, req.timestamp))


# ---------------------------------------------------------------------------
# oracle check

G1_DRIVE = 0.5     # second, finite drive of the g1 comparison


def oracle_check(alpha=0.0, deltas=tuple(np.linspace(-6, 6, 13)),
                 t0s=(math.sqrt(0.15), math.sqrt(0.5), 1.0), zetas=(1.0, 1.2),
                 betas=(0.9, 1.0), tau_max=8.0, tau_points=161):
    """Compare the regression solver with the closed forms over a grid.

    Returns (rows, summary). Rows carry per-point errors; grid points where
    the weak-pump closed form diverges are marked and not compared.

    g1 is compared at ``alpha`` and at the finite drive ``G1_DRIVE``. g2 is
    compared at ``alpha`` against the alpha -> 0 closed form, as the largest
    absolute difference over the delays. The solver propagates exactly and
    is regular at alpha = 0, so at the default drive ``max_g2_error`` is
    rounding alone; at a finite drive it also holds the physical O(alpha)
    term, which grows with g2 near the transmission zeros.
    """
    tau = np.linspace(0.0, tau_max, tau_points)
    rows = []
    for t0, zeta, beta, dlt in itertools.product(t0s, zetas, betas, deltas):
        phi, dl = phi_from_t0(t0), float(dlt)
        dp = DimensionlessParams(delta=dl, zeta=zeta, alpha=alpha, phi=phi,
                                 sigma=0.0, t_resp=0.0)
        e1 = max(abs(output_correlator_g1(dp, beta)
                     - g1_general(dl, zeta, beta, phi, alpha)),
                 abs(output_correlator_g1(replace(dp, alpha=G1_DRIVE), beta)
                     - g1_general(dl, zeta, beta, phi, G1_DRIVE)))
        g2_closed = g2_tau_general(tau, dl, zeta, beta, phi)
        if np.all(np.isfinite(g2_closed)):
            e2 = float(np.max(np.abs(output_correlator_g2(tau, dp, beta) - g2_closed)))
            rows.append((t0 * t0, zeta, beta, dl, e1, e2, ""))
        else:
            rows.append((t0 * t0, zeta, beta, dl, e1, math.nan, "divergent"))
    compared = [r for r in rows if not r[6]]
    summary = {"max_g1_error": max((r[4] for r in rows), default=0.0),
               "max_g2_error": max((r[5] for r in compared), default=0.0),
               "n_points": len(rows), "n_divergent": len(rows) - len(compared)}
    return rows, summary


# ---------------------------------------------------------------------------
# argument handling


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be start:stop:count")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def _parse_set(pairs):
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise DataFormatError(f"--set needs key=value, got {item!r}")
        k, _, v = item.partition("=")
        try:
            out[k.strip()] = float(v)
        except ValueError as err:
            raise DataFormatError(f"non-numeric --set value for {k!r}") from err
    return out


def _onoff(text):
    if text not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected on or off")
    return text == "on"


def build_parser():
    ap = argparse.ArgumentParser(prog="fanostat", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scan", help="evaluate model curves on a grid")
    sc.add_argument("--mode", required=True, choices=SCAN_MODES)
    sc.add_argument("--config", help="flat key=value parameter file")
    sc.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a parameter (repeatable)")
    sc.add_argument("--grid", required=True, type=_parse_grid,
                    help="start:stop:count; detuning ueV (g2trace: tau ps); "
                    "a negative start needs --grid=START:STOP:COUNT")
    sc.add_argument("--detuning", type=float, help="detuning ueV for g2trace")
    sc.add_argument("--average", type=_onoff, default=True, metavar="on|off")
    sc.add_argument("--convolve", type=_onoff, default=True, metavar="on|off")
    sc.add_argument("--out", required=True)
    sc.add_argument("--format", choices=("csv", "json"), default="csv")
    sc.add_argument("--timestamp", action="store_true",
                    help="include a wall-clock stamp in the metadata")

    ft = sub.add_parser("fit", help="fit the full model to measurement files")
    ft.add_argument("--transmission", help="transmission CSV")
    ft.add_argument("--g2zero", help="g2(0) CSV")
    ft.add_argument("--histogram", action="append",
                    help="g2(tau) histogram CSV (repeatable)")
    ft.add_argument("--config", help="initial parameters (flat key=value)")
    ft.add_argument("--set", action="append", metavar="KEY=VALUE")
    ft.add_argument("--multi-start", action="store_true")
    ft.add_argument("--fit-mode", choices=("joint", "sequential"), default="joint")
    ft.add_argument("--g2-weight", type=float, default=1.0)
    ft.add_argument("--out", required=True, help="JSON fit report path")

    oc = sub.add_parser("oracle-check",
                        help="regression solver vs closed forms")
    oc.add_argument("--alpha", type=float, default=0.0)
    oc.add_argument("--deltas", help="comma-separated reduced detunings")
    oc.add_argument("--t0s", help="comma-separated t0 values")
    oc.add_argument("--zetas", help="comma-separated zeta values")
    oc.add_argument("--betas", help="comma-separated beta values")
    oc.add_argument("--tol-g1", type=float, default=1e-6)
    oc.add_argument("--tol-g2", type=float, default=5e-3)
    oc.add_argument("--out", help="optional per-point error table")
    oc.add_argument("--format", choices=("csv", "json"), default="csv")

    fp = sub.add_parser("fp-background",
                        help="two-mirror background transmission vs wavelength")
    fp.add_argument("--reflectivity", type=float, required=True)
    fp.add_argument("--fsr-nm", type=float)
    fp.add_argument("--length-um", type=float)
    fp.add_argument("--group-index", type=float)
    fp.add_argument("--wavelength-ref-nm", type=float, default=915.0)
    fp.add_argument("--grid", required=True, type=_parse_grid,
                    help="start:stop:count in nm; a negative start needs "
                    "--grid=START:STOP:COUNT")
    fp.add_argument("--out", required=True)
    fp.add_argument("--format", choices=("csv", "json"), default="csv")
    return ap


def _cmd_scan(args):
    params = params_from_config(args.config, _parse_set(args.set))
    req = ScanRequest(mode=args.mode, params=params, grid_start=args.grid[0],
                      grid_stop=args.grid[1], grid_count=args.grid[2],
                      out_path=args.out, out_format=args.format,
                      average=args.average, convolve=args.convolve,
                      detuning=args.detuning, timestamp=args.timestamp)
    columns, rows, meta = run_scan(req)
    write_series(columns, rows, req.out_path, req.out_format, meta)
    print(f"wrote {len(rows)} rows to {req.out_path}")
    return 0


def _cmd_fit(args):
    initial = params_from_config(args.config, _parse_set(args.set))
    files = [(args.transmission, "transmission"), (args.g2zero, "g2zero")]
    files += [(path, "g2_histogram") for path in args.histogram or ()]
    parts = []
    n_rejected = 0
    for path, kind in files:
        if path:
            rep = load_measurements(path, kind)
            n_rejected += len(rep.rejected)
            for ln, why in rep.rejected:
                print(f"note: {path}:{ln}: rejected row ({why})", file=sys.stderr)
            parts.append(rep.data)
    if not parts:
        raise DataFormatError("fit needs at least one measurement file")
    data = merge_measurements(*parts)
    result = fit_full_model(data, initial, multi_start=args.multi_start,
                            mode=args.fit_mode, g2_weight=args.g2_weight)
    report = fit_report(result, data)
    report["rejected_rows"] = n_rejected
    import json
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=float)
        fh.write("\n")
    flag = "converged" if result.converged else "NOT converged"
    print(f"fit {flag}: objective {result.objective:.6g}, "
          f"report written to {args.out}")
    return 0


def _cmd_oracle_check(args):
    grid = {k: tuple(float(x) for x in text.split(","))
            for k in ("deltas", "t0s", "zetas", "betas")
            if (text := getattr(args, k)) is not None}
    rows, summary = oracle_check(alpha=args.alpha, **grid)
    if args.out:
        write_series(("T0", "zeta", "beta", "delta", "g1_error",
                      "g2_max_error", "flag"), rows, args.out, args.format,
                     {"alpha": args.alpha, "tool": "fanostat",
                      "version": __version__})
    print(f"oracle-check: {summary['n_points']} points "
          f"({summary['n_divergent']} divergent closed-form points skipped)")
    print(f"  max g1 error: {summary['max_g1_error']:.3e} (tol {args.tol_g1:g})")
    print(f"  max g2 error: {summary['max_g2_error']:.3e} (tol {args.tol_g2:g})")
    ok = (summary["max_g1_error"] < args.tol_g1
          and summary["max_g2_error"] < args.tol_g2)
    if not ok:
        print("tolerance exceeded", file=sys.stderr)
        return 4
    return 0


def _cmd_fp(args):
    fp = FPBackground(reflectivity=args.reflectivity, fsr_nm=args.fsr_nm,
                      length_um=args.length_um, group_index=args.group_index,
                      wavelength_ref_nm=args.wavelength_ref_nm)
    lam = np.linspace(args.grid[0], args.grid[1], args.grid[2])
    t0, T = fp_background(fp, lam)
    meta = {"tool": "fanostat", "version": __version__,
            "reflectivity": fp.reflectivity,
            "roundtrip_nm": fp.roundtrip_nm}
    write_series(("wavelength_nm", "t0", "transmission"),
                 list(zip(lam, t0, T)), args.out, args.format, meta)
    print(f"wrote {len(lam)} rows to {args.out}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {"scan": _cmd_scan, "fit": _cmd_fit,
                "oracle-check": _cmd_oracle_check, "fp-background": _cmd_fp}
    try:
        return handlers[args.command](args)
    except DataFormatError as err:
        print(f"error: data: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: config: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

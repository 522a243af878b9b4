"""Where the traced run hooks into fanostat, and the per-layer metrics.

Several modules import names directly (``from .x import y``), so each
wrapper goes on the name where it is looked up at call time.  ``params``
has no span of its own: it is scalar arithmetic inside its callers' spans.
"""

from __future__ import annotations

import os

import numpy as np

from spans import Patches, Tracer, layer_totals

# span name -> (owner, attribute) whose calls it records
SPANS = {
    "averaging.transmission": ("ModelCurves", "transmission"),
    "averaging.g2zero": ("ModelCurves", "g2zero"),
    "averaging.g2_trace": ("ModelCurves", "g2_trace"),
    "averaging.avg_g1": ("averaging", "avg_g1"),
    "averaging.avg_g2": ("averaging", "avg_g2"),
    "averaging.convolve_detector": ("averaging", "convolve_detector"),
    "correlators.g1_general": ("averaging", "g1_general"),
    "correlators.g2_tau_parts": ("averaging", "g2_tau_parts"),
    "fitting.fit": ("fitting", "fit_full_model"),
    "bloch.g1": ("cli", "output_correlator_g1"),
    "bloch.g2": ("cli", "output_correlator_g2"),
    "cli.run_scan": ("cli", "run_scan"),
    "cli.oracle_check": ("cli", "oracle_check"),
    "io.write_series": ("io", "write_series"),
}

# the per-layer metrics this benchmark reports, with their units
PER_LAYER = {
    "averaging.g2zero.calls": "count",
    "averaging.g2zero.self_s": "s",
    "averaging.g2_trace.calls": "count",
    "averaging.g2_trace.self_s": "s",
    "averaging.transmission.calls": "count",
    "averaging.transmission.self_s": "s",
    "averaging.avg_g1.self_s": "s",
    "averaging.avg_g2.self_s": "s",
    "averaging.convolve_detector.calls": "count",
    "averaging.convolve_detector.self_s": "s",
    "averaging.model_builds": "count",
    "correlators.g1_points": "count",
    "correlators.g2_points": "count",
    "correlators.g2_tau_parts.self_s": "s",
    "fitting.nfev": "count",
    "fitting.njev": "count",
    "fitting.model_evals": "count",
    "fitting.evals_per_nfev": "ratio",
    "fitting.fit.self_s": "s",
    "bloch.g1.calls": "count",
    "bloch.g1.self_s": "s",
    "bloch.g2.calls": "count",
    "bloch.g2.self_s": "s",
    "bloch.ode_rhs_evals": "count",
    "cli.run_scan.self_s": "s",
    "io.write_series.calls": "count",
    "io.write_series.self_s": "s",
    "io.bytes_written": "B",
    "trace_overhead_frac": "1",
}


def install(tracer: Tracer) -> Patches:
    """Put every wrapper in place; names that no longer exist are absent."""
    import fanostat.averaging as averaging
    import fanostat.bloch as bloch
    import fanostat.cli as cli
    import fanostat.fitting as fitting
    import fanostat.io as io
    owners = {"ModelCurves": averaging.ModelCurves, "averaging": averaging,
              "cli": cli, "fitting": fitting, "io": io, "bloch": bloch}
    patches = Patches(tracer)

    def points(counter):
        def after(result, args, kwargs):
            first = result[0] if isinstance(result, tuple) else result
            tracer.count(counter, np.size(first))
        return after

    def wrote(result, args, kwargs):
        path = kwargs.get("path", args[2] if len(args) > 2 else None)
        if path is not None and os.path.exists(path):
            tracer.count("io.bytes_written", os.path.getsize(path))

    after = {"correlators.g1_general": points("correlators.g1_points"),
             "correlators.g2_tau_parts": points("correlators.g2_points"),
             "io.write_series": wrote}
    for span, (owner, attr) in SPANS.items():
        patches.patch(owners[owner], attr,
                      lambda fn, s=span: tracer.wrap(fn, s, after.get(s)),
                      f"{owner}.{attr}")
    # the same layers reached through other lookups, recorded the same way
    patches.patch(cli, "write_series",
                  lambda fn: tracer.wrap(fn, "io.write_series", wrote), "cli.write_series")
    patches.patch(cli, "g1_general",
                  lambda fn: tracer.wrap(fn, "correlators.g1_general",
                                         after["correlators.g1_general"]),
                  "cli.g1_general")
    patches.patch(cli, "g2_tau_general",
                  lambda fn: tracer.wrap(fn, "correlators.g2_tau_general",
                                         points("correlators.g2_points")),
                  "cli.g2_tau_general")

    # counters only: their time stays with the caller's span
    patches.patch(averaging.ModelCurves, "__init__",
                  lambda fn: tracer.wrap(fn, None,
                                         lambda *_: tracer.count("averaging.model_builds")),
                  "ModelCurves.__init__")

    def solved(result, args, kwargs):
        tracer.count("bloch.ode_rhs_evals", getattr(result, "nfev", 0))
    patches.patch(bloch, "solve_ivp", lambda fn: tracer.wrap(fn, None, solved),
                  "bloch.solve_ivp")

    def least_squares(fn):
        def run(fun, *args, **kwargs):
            def counted(*a, **k):
                tracer.count("fitting.model_evals")
                return fun(*a, **k)
            sol = fn(counted, *args, **kwargs)
            tracer.count("fitting.nfev", getattr(sol, "nfev", 0) or 0)
            tracer.count("fitting.njev", getattr(sol, "njev", 0) or 0)
            return sol
        return run
    patches.patch(fitting, "least_squares", least_squares, "fitting.least_squares")
    return patches


def metrics(tracer: Tracer, n_ops, overhead):
    """Per-layer metrics, each per traced operation."""
    calls, self_s, _ = layer_totals(tracer.spans)
    c = tracer.counters
    per = max(n_ops, 1)
    out = {}
    for name in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if kind == "calls":
            value = calls.get(stem, 0) / per
        elif kind == "self_s":
            value = self_s.get(stem, 0.0) / per
        elif name == "fitting.evals_per_nfev":
            value = c["fitting.model_evals"] / c["fitting.nfev"] if c["fitting.nfev"] else 0.0
        elif name == "trace_overhead_frac":
            value = overhead
        else:
            value = c[name] / per
        out[name] = {"value": float(value), "unit": PER_LAYER[name]}
    return out


def inclusive_per_call(tracer: Tracer):
    """Mean inclusive wall time per call of each span name (for the docs)."""
    calls, _, total = layer_totals(tracer.spans)
    return {k: total[k] / calls[k] for k in calls}

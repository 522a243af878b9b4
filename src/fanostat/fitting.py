"""Least-squares inference of physical parameters from measured data.

The physical model is fit to transmission plus photon-correlation data,
jointly or sequentially, over the parameter set
(omega0, gamma, gamma_de, sigma, t0, beta).

The full fit runs a bounded trust-region least-squares in a transformed
space: rates and widths are fit in log space, t0 and beta through a logistic
map, and omega0 linearly. Weights are inverse variance; an optional scalar
knob rebalances transmission against correlation data.

The solver gets the exact Jacobian of the weighted residuals with respect
to the packed vector x, computed alongside the residuals by the curves of
a :class:`~fanostat.averaging.ModelCurves` built with ``jac=True`` and
chained through the packing maps (d lifetime/dx1 = -lifetime,
d dephasing_time/dx2 = -dephasing_time, d sigma/dx3 = sigma,
d t0/dx4 = t0 (1 - t0), d beta/dx5 = beta (1 - beta)). Each histogram's
count scale is projected out in closed form (variable projection; Golub &
Pereyra, 2003). Rows of non-finite residuals are zeroed like the residuals.
Every g2 curve of an evaluation, g2(0) and the histograms on each of their
delay grids, comes from one :meth:`~fanostat.averaging.ModelCurves.g2_curves`
call, which averages them on one shared lattice.

``scipy.optimize`` is imported by the first solver call, through the
module-level :func:`least_squares`, which is the name that tests and the
benchmark's tracer patch; a scan never loads the optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .averaging import FIT_FIELDS, ModelCurves
from .params import PhysicalParams, to_dimensionless

DEFAULT_BOUNDS = {
    "omega0": (-20.0, 20.0),
    "lifetime": (10.0, 2000.0),
    "dephasing_time": (100.0, 1e7),
    "sigma_wander": (0.2, 50.0),
    "t0": (0.02, 0.995),
    "beta": (0.05, 0.9999),
}


@dataclass(frozen=True)
class G2Histogram:
    """Raw coincidence histogram at one detuning: tau grid (ps) and counts,
    on any scale. The ``uncertainty`` defaults to sqrt(max(counts, 1))."""

    detuning: float
    tau_ps: np.ndarray
    counts: np.ndarray
    uncertainty: np.ndarray | None = None

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writeable
        tau = np.array(self.tau_ps, dtype=float)
        cnt = np.array(self.counts, dtype=float)
        if tau.ndim != 1 or tau.shape != cnt.shape:
            raise ValueError("tau_ps and counts must be matching 1-d arrays")
        if not (math.isfinite(self.detuning) and np.all(np.isfinite(tau))):
            raise ValueError("histogram detuning and tau_ps must be finite")
        if not np.all((cnt >= 0) & (cnt < np.inf)):
            raise ValueError("histogram counts must be finite and non-negative")
        if not np.any(cnt > 0):
            raise ValueError("histogram has no positive count, so it fixes no scale")
        if self.uncertainty is None:
            unc = np.sqrt(np.maximum(cnt, 1.0))
        else:
            unc = np.array(self.uncertainty, dtype=float)
            if unc.shape != cnt.shape or not np.all((unc > 0) & (unc < np.inf)):
                raise ValueError("uncertainty must be positive, finite and match counts")
        for arr in (tau, cnt, unc):
            arr.setflags(write=False)
        object.__setattr__(self, "tau_ps", tau)
        object.__setattr__(self, "counts", cnt)
        object.__setattr__(self, "uncertainty", unc)


@dataclass(frozen=True)
class MeasurementSet:
    """Ingested experimental records.

    ``transmission`` and ``g2zero`` are (n, 3) arrays with columns
    (detuning ueV, value, uncertainty); either may be empty. Histograms are
    optional time-resolved g2 records.
    """

    transmission: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    g2zero: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    g2_histograms: tuple = ()

    def __post_init__(self):
        for name in ("transmission", "g2zero"):
            arr = np.array(getattr(self, name), dtype=float)     # a copy to freeze
            if arr.size == 0:
                arr = arr.reshape(0, 3)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError(f"{name} must be an (n, 3) array")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} detunings, values and uncertainties must be finite")
            if np.any(arr[:, 2] <= 0):
                raise ValueError(f"{name} uncertainties must be positive")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "g2_histograms", tuple(self.g2_histograms))

    @property
    def n_points(self):
        return (self.transmission.shape[0] + self.g2zero.shape[0]
                + sum(h.tau_ps.size for h in self.g2_histograms))


# ---------------------------------------------------------------------------
# full model fit


# the open range of each fitted field that pack_params maps to a real number
PACKING_RANGE = {
    "omega0": (-math.inf, math.inf),
    "lifetime": (0.0, math.inf),
    "dephasing_time": (0.0, math.inf),
    "sigma_wander": (0.0, math.inf),
    "t0": (0.0, 1.0),
    "beta": (0.0, 1.0),
}


def _logit(x):
    return math.log(x / (1.0 - x))


def _expit(x):
    return 1.0 / (1.0 + math.exp(-x))


def pack_params(p: PhysicalParams):
    """Physical parameters -> unconstrained fit vector."""
    return np.array([
        p.omega0,
        math.log(1.0 / p.lifetime),
        math.log(1.0 / p.dephasing_time),
        math.log(p.sigma_wander),
        _logit(p.t0),
        _logit(p.beta),
    ])


def unpack_params(x, template: PhysicalParams) -> PhysicalParams:
    """Inverse of :func:`pack_params`; non-fitted fields from ``template``."""
    return template.replace(
        omega0=float(x[0]),
        lifetime=1.0 / math.exp(x[1]),
        dephasing_time=1.0 / math.exp(x[2]),
        sigma_wander=math.exp(x[3]),
        t0=_expit(x[4]),
        beta=_expit(x[5]),
    )


def _packing_slopes(p: PhysicalParams):
    """d(physical)/d(packed) along FIT_FIELDS, from the maps of pack_params."""
    return np.array([1.0, -p.lifetime, -p.dephasing_time, p.sigma_wander,
                     p.t0 * (1.0 - p.t0), p.beta * (1.0 - p.beta)])


def _transformed_bounds(bounds):
    # pack_params is decreasing in the lifetime and the dephasing time
    ends = [pack_params(PhysicalParams(**{k: v[i] for k, v in bounds.items()}))
            for i in (0, 1)]
    return np.minimum(*ends), np.maximum(*ends)


class _Objective:
    """Weighted residuals of the model against a measurement set.

    Each dataset compares one model curve with measured values, scaled by
    ``weight / sigma``. A histogram's model curve is first multiplied by the
    count scale that fits it best to the counts, one scale per histogram.
    The g2 curves are one request per delay grid, g2(0) at tau = 0 and each
    group of histograms that share their delays, all passed to one
    :meth:`~fanostat.averaging.ModelCurves.g2_curves` call per evaluation.
    """

    def __init__(self, data: MeasurementSet, template: PhysicalParams,
                 g2_weight=1.0, datasets=("transmission", "g2")):
        if not (math.isfinite(g2_weight) and g2_weight >= 0.0):
            raise ValueError(f"g2_weight must be finite and non-negative, got {g2_weight!r}")
        self.template = template
        # (keys, kind, its model arguments, measured, sigma, weight), one key
        # per row of the curve; a g2 term's arguments are its g2_curves request
        self.terms = []
        if "transmission" in datasets and data.transmission.shape[0]:
            det, val, unc = data.transmission.T
            self.terms.append((("transmission",), "transmission", det, val, unc, 1.0))
        if "g2" in datasets:
            if data.g2zero.shape[0]:
                det, val, unc = data.g2zero.T
                self.terms.append((("g2zero",), "g2zero", (det, 0.0),
                                   val, unc, g2_weight))
            grids = {}
            for i, hist in enumerate(data.g2_histograms):
                grids.setdefault(hist.tau_ps.tobytes(), []).append(i)
            for rows in grids.values():
                hists = [data.g2_histograms[i] for i in rows]
                self.terms.append((tuple(f"g2_histogram_{i}" for i in rows), "histograms",
                                   (np.array([h.detuning for h in hists]), hists[0].tau_ps),
                                   np.array([h.counts for h in hists]),
                                   np.array([h.uncertainty for h in hists]), g2_weight))

    def residuals(self, params: PhysicalParams, jac=False) -> dict:
        """Residuals by dataset; with ``jac``, pairs of (residuals, partials
        along FIT_FIELDS on a last axis) from curves that carry them.

        A histogram's residuals are weight (s m - c) / sigma, with the scale
        s = sum(m c / sigma^2) / sum(m^2 / sigma^2) of its model curve m to
        its counts c, and partials weight (s dm + m ds) / sigma, where
        ds = sum((c - 2 s m) dm / sigma^2) / sum(m^2 / sigma^2). A non-finite
        model value gives its whole histogram a NaN scale.
        """
        mdl = ModelCurves(params, jac=jac)
        g2 = [args for _, kind, args, *_ in self.terms if kind != "transmission"]
        curves = iter(mdl.g2_curves(g2))
        out = {}
        for keys, kind, args, val, sig, weight in self.terms:
            model = mdl.transmission(args) if kind == "transmission" else next(curves)
            if jac:
                model, d = model[..., 0], model[..., 1:]
            if kind == "histograms":     # fit each row's count scale
                m, c = model / sig, val / sig
                mm = np.sum(m * m, axis=-1, keepdims=True)
                s = np.sum(m * c, axis=-1, keepdims=True) / mm
                if jac:
                    ds = np.einsum("...i,...ij->...j", (c - 2.0 * s * m) / sig, d) / mm
                    d = s[..., None] * d + model[..., None] * ds[..., None, :]
                model = s * model
            r = (weight * (model - val) / sig).reshape(len(keys), -1)
            if jac:
                d = (weight * d / sig[..., None]).reshape(len(keys), -1, len(FIT_FIELDS))
                r = zip(r, d)
            out.update(zip(keys, r))
        if not out:
            raise ValueError("measurement set is empty")
        return out

    def vector_and_jacobian(self, x):
        """Residuals at ``x`` in key order and their exact Jacobian in ``x``.

        Non-finite residuals, their rows and any non-finite entry are zeroed
        for the solver; the caller counts them once, at the solution.
        """
        params = unpack_params(x, self.template)
        res = self.residuals(params, jac=True)
        vec = np.concatenate([res[key][0] for key in sorted(res)])
        J = np.concatenate([res[key][1] for key in sorted(res)])
        J *= _packing_slopes(params)
        bad = ~np.isfinite(vec)
        J[bad] = 0.0
        J[~np.isfinite(J)] = 0.0
        return np.where(bad, 0.0, vec), J


@dataclass(frozen=True)
class FitResult:
    """Outcome of a full-model fit."""

    params: PhysicalParams
    objective: float
    residuals: dict
    n_eval: int
    converged: bool
    bounds_hit: dict
    stderr: dict
    message: str
    n_excluded: int = 0
    n_starts: int = 1
    n_jev: int = 0


MULTISTART_T0 = (0.3, 0.5, 0.7, 0.9)
MULTISTART_SIGMA = (2.0, 5.0, 10.0)


def least_squares(*args, **kwargs):
    """:func:`scipy.optimize.least_squares`, imported on the first call."""
    from scipy.optimize import least_squares
    return least_squares(*args, **kwargs)


def _single_fit(obj: _Objective, x0, lo, hi):
    # the solver asks for the Jacobian at the point it has just evaluated,
    # so each evaluation computes both and keeps the Jacobian for that call
    last = {}

    def fun(x):
        last["x"] = x.copy()
        vec, last["jac"] = obj.vector_and_jacobian(x)
        return vec

    def jac(x):
        if not np.array_equal(x, last["x"]):
            fun(x)
        return last["jac"]

    x0 = np.clip(x0, lo + 1e-9, hi - 1e-9)
    return least_squares(fun, x0, jac=jac, bounds=(lo, hi), method="trf",
                         x_scale="jac", ftol=1e-10, gtol=1e-8, xtol=1e-10,
                         max_nfev=4000)


def fit_full_model(data: MeasurementSet, initial: PhysicalParams,
                   bounds: dict | None = None, multi_start: bool = False,
                   mode: str = "joint", g2_weight: float = 1.0) -> FitResult:
    """Fit the averaged model to a measurement set.

    Parameters
    ----------
    data : MeasurementSet
    initial : PhysicalParams
        Starting point; also supplies the fixed instrument fields
        (detector response, drive amplitude).
    bounds : dict, optional
        Per-field (low, high) in physical units; merged over defaults. A key
        that is not a fitted field raises ``ValueError``, and so does, naming
        its field, a bound outside ``PACKING_RANGE`` or a pair of bounds that
        packs to no finite range of positive width.
    multi_start : bool
        Additionally start from the coarse (t0, sigma) grid and keep the
        best result. Useful against lineshape-asymmetry local minima.
    mode : str
        "joint" fits all datasets at once; "sequential" first fits the
        transmission scan alone, then refines on everything.
    g2_weight : float
        Scalar rebalancing of correlation data against transmission; must
        be finite and non-negative.
    """
    if mode not in ("joint", "sequential"):
        raise ValueError("mode must be 'joint' or 'sequential'")
    if data.n_points == 0:
        raise ValueError("measurement set is empty")
    bnds = {**DEFAULT_BOUNDS, **(bounds or {})}
    if set(bnds) != set(FIT_FIELDS):
        raise ValueError(f"unknown bounds keys: {sorted(set(bnds) - set(FIT_FIELDS))}")
    for name in FIT_FIELDS:
        low, high = bnds[name]
        value = getattr(initial, name)
        if not low <= value <= high:
            raise ValueError(f"initial {name} = {value:g} lies outside the "
                             f"fit bounds [{low:g}, {high:g}]")
        a, b = PACKING_RANGE[name]      # the start lies between the bounds
        for what, v in (("lower bound", low), ("upper bound", high)):
            if not a < v < b:
                raise ValueError(f"{what} {name} = {v!r} lies outside the range "
                                 f"({a:g}, {b:g}) that the fit packing takes")
    lo, hi = _transformed_bounds(bnds)
    for name, a, b in zip(FIT_FIELDS, lo, hi):
        if not -math.inf < a < b < math.inf:
            raise ValueError(f"fit bounds {name} = {bnds[name]!r} pack to "
                             f"[{a:g}, {b:g}], not a finite range of positive width")
    x_init = pack_params(initial)

    obj = _Objective(data, initial, g2_weight)

    starts = [x_init]
    if multi_start:
        for t0g in MULTISTART_T0:
            for sg in MULTISTART_SIGMA:
                starts.append(pack_params(initial.replace(t0=t0g, sigma_wander=sg)))

    best = None
    for x0 in starts:
        if mode == "sequential" and data.transmission.shape[0]:
            stage1 = _Objective(data, initial, g2_weight,
                                datasets=("transmission",))
            s1 = _single_fit(stage1, x0, lo, hi)
            x0 = s1.x
        sol = _single_fit(obj, x0, lo, hi)
        if best is None or sol.cost < best.cost:
            best = sol

    params = unpack_params(best.x, initial)
    residuals = obj.residuals(params)
    vec = np.concatenate([residuals[k] for k in sorted(residuals)])
    n_excluded = int(np.sum(~np.isfinite(vec)))
    objective = float(np.nansum(vec * vec))

    atol = 1e-6 * np.maximum(np.abs(lo), np.abs(hi))
    hit = (np.abs(best.x - lo) <= atol) | (np.abs(best.x - hi) <= atol)
    bounds_hit = dict(zip(FIT_FIELDS, map(bool, hit)))

    # one degree of freedom per histogram whose fitted count scale is finite
    n_scales = sum(np.isfinite(v).all() for k, v in residuals.items() if "histogram" in k)
    stderr = _stderr_proxy(best, params, vec.size - n_excluded - n_scales)

    return FitResult(params=params, objective=objective, residuals=residuals,
                     n_eval=int(best.nfev), converged=bool(best.status > 0),
                     bounds_hit=bounds_hit, stderr=stderr,
                     message=str(best.message), n_excluded=n_excluded,
                     n_starts=len(starts), n_jev=int(best.njev))


def _stderr_proxy(sol, params, n_res):
    """Curvature-based parameter uncertainties in physical units.

    A diagnostic, not a posterior: inverse Gauss-Newton curvature of the
    exact Jacobian, scaled by the residual variance over ``n_res`` (the
    finite residuals less one per projected histogram scale) less the
    fitted fields, pushed through the parameter transform. Where the
    data do not fix every field, that is where the numerical rank of the
    Jacobian (``np.linalg.matrix_rank``: singular values above
    max(shape) eps s_max) is below the number of fields, the curvature is
    singular and every field is ``None`` (strict JSON).
    """
    J = sol.jac
    n_par = J.shape[1]
    if np.linalg.matrix_rank(J) < n_par:
        return dict.fromkeys(FIT_FIELDS)
    dof = max(n_res - n_par, 1)
    cov_t = np.linalg.inv(J.T @ J) * (2.0 * sol.cost / dof)
    err = (np.sqrt(np.maximum(np.diag(cov_t), 0.0))
           * np.abs(_packing_slopes(params)))
    return dict(zip(FIT_FIELDS, map(float, err)))


def fit_report(result: FitResult, data: MeasurementSet) -> dict:
    """JSON-ready summary of a fit, including conventions and diagnostics.

    Residual counts and rms cover finite residuals only (strict JSON)."""
    p = result.params
    d = to_dimensionless(p, p.omega0)
    return {
        "parameters": p.to_mapping(),
        "parameter_stderr": result.stderr,
        "dimensionless": {
            "zeta": d.zeta, "phi": d.phi, "T0": p.t0**2,
            "sigma": d.sigma, "t_resp": d.t_resp, "alpha": d.alpha,
        },
        "objective": result.objective,
        "converged": result.converged,
        "n_eval": result.n_eval,
        "n_jev": result.n_jev,
        "n_starts": result.n_starts,
        "n_excluded_residuals": result.n_excluded,
        "bounds_hit": result.bounds_hit,
        "residual_summary": {
            k: {"n": int(v.size), "rms": float(np.sqrt(np.mean(v**2))) if v.size else None}
            for k, v in ((k, v[np.isfinite(v)]) for k, v in result.residuals.items())
        },
        "data_summary": {
            "transmission_points": int(data.transmission.shape[0]),
            "g2zero_points": int(data.g2zero.shape[0]),
            "histograms": len(data.g2_histograms),
        },
        "conventions": {
            "frequency": "ordinary (E = h * nu); omega0 stored in ueV",
            "reduced_time": "tau_t = tau * gamma / 2",
            "detector_width": "t_resp_t = detector_resp * gamma / 2",
            "g2_normalization": ("each histogram is compared at its own fitted "
                                 "count scale (least squares, one per histogram)"),
        },
    }

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
d t0/dx4 = t0 (1 - t0), d beta/dx5 = beta (1 - beta)). A histogram's tail
normalization enters through the quotient rule. Rows of non-finite
residuals are zeroed like the residuals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

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
    """Raw coincidence histogram at one detuning: tau grid (ps) and counts."""

    detuning: float
    tau_ps: np.ndarray
    counts: np.ndarray
    uncertainty: np.ndarray | None = None

    def __post_init__(self):
        tau = np.asarray(self.tau_ps, dtype=float)
        cnt = np.asarray(self.counts, dtype=float)
        if tau.ndim != 1 or tau.shape != cnt.shape:
            raise ValueError("tau_ps and counts must be matching 1-d arrays")
        if np.any(cnt < 0):
            raise ValueError("histogram counts must be non-negative")
        unc = self.uncertainty
        if unc is not None:
            unc = np.asarray(unc, dtype=float)
            if unc.shape != cnt.shape or np.any(unc <= 0):
                raise ValueError("uncertainty must be positive and match counts")
            unc.setflags(write=False)
        tau.setflags(write=False)
        cnt.setflags(write=False)
        object.__setattr__(self, "tau_ps", tau)
        object.__setattr__(self, "counts", cnt)
        object.__setattr__(self, "uncertainty", unc)

    def tail_mask(self):
        """Bins counted as "long delay": the top fifth of |tau|."""
        atau = np.abs(self.tau_ps)
        return atau >= np.quantile(atau, 0.8)

    def normalized(self):
        """g2 values and sigmas, normalized to the long-delay level.

        Model curves compared against these values must be normalized by
        their own mean over the same bins (see ``tail_mask``), which removes
        the shared scale even when the grid does not quite reach the
        asymptote.
        """
        norm = float(np.mean(self.counts[self.tail_mask()]))
        if norm <= 0:
            raise ValueError("histogram tail level is zero; cannot normalize")
        unc = self.uncertainty
        if unc is None:
            unc = np.sqrt(np.maximum(self.counts, 1.0))
        return self.counts / norm, unc / norm


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
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.size == 0:
                arr = arr.reshape(0, 3)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError(f"{name} must be an (n, 3) array")
            if not np.all(np.isfinite(arr[:, 0])):
                raise ValueError(f"{name} detunings must be finite")
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
    """Weighted residual vector shared by the objective and the fitter.

    Each dataset compares one model curve with measured values, scaled by
    ``weight / sigma``. The measured side, including each histogram's tail
    normalization, is fixed and prepared once.
    """

    def __init__(self, data: MeasurementSet, template: PhysicalParams,
                 g2_weight=1.0, datasets=("transmission", "g2")):
        if not (math.isfinite(g2_weight) and g2_weight >= 0.0):
            raise ValueError(f"g2_weight must be finite and non-negative, got {g2_weight!r}")
        self.template = template
        # (key, ModelCurves method, its arguments, measured, sigma, weight, tail bins)
        self.terms = []
        if "transmission" in datasets and data.transmission.shape[0]:
            det, val, unc = data.transmission.T
            self.terms.append(("transmission", "transmission", (det,),
                               val, unc, 1.0, None))
        if "g2" in datasets:
            if data.g2zero.shape[0]:
                det, val, unc = data.g2zero.T
                self.terms.append(("g2zero", "g2zero", (det,),
                                   val, unc, g2_weight, None))
            for i, hist in enumerate(data.g2_histograms):
                meas, sig = hist.normalized()
                self.terms.append((f"g2_histogram_{i}", "g2_trace",
                                   (hist.detuning, hist.tau_ps), meas, sig,
                                   g2_weight, hist.tail_mask()))

    def residuals(self, params: PhysicalParams, jac=False) -> dict:
        """Residuals by dataset; with ``jac``, pairs of (residuals, partials
        along FIT_FIELDS on a last axis) from curves that carry them.

        A histogram's model curve is divided by its own mean over the tail
        bins, so its partials follow the quotient rule.
        """
        mdl = ModelCurves(params, jac=jac)
        out = {}
        for key, method, args, val, sig, weight, tail in self.terms:
            model = getattr(mdl, method)(*args)
            if jac:
                model, d = model[..., 0], model[..., 1:]
            if tail is not None:
                level = np.mean(model[tail])
                model = model / level
                if jac:
                    d = (d - model[:, None] * np.mean(d[tail], axis=0)) / level
            r = weight * (model - val) / sig
            out[key] = (r, weight * d / sig[:, None]) if jac else r
        if not out:
            raise ValueError("measurement set is empty")
        return out

    def flat(self, params: PhysicalParams):
        """All residuals at ``params``, concatenated in key order."""
        res = self.residuals(params)
        return np.concatenate([res[key] for key in sorted(res)])

    def vector(self, x):
        # non-finite residuals are zeroed for the solver and counted once,
        # at the solution, by the caller
        vec = self.flat(unpack_params(x, self.template))
        return np.where(np.isfinite(vec), vec, 0.0)

    def vector_and_jacobian(self, x):
        """:meth:`vector` and its exact Jacobian with respect to ``x``.

        Rows of non-finite residuals are zero, as the residuals are, and so
        is any non-finite entry.
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


def model_objective(params: PhysicalParams, data: MeasurementSet, g2_weight=1.0):
    """Weighted sum of squared residuals of the averaged model against data.

    Points where the model evaluation is not finite are excluded with a
    warning rather than poisoning the objective.
    """
    vec = _Objective(data, params, g2_weight).flat(params)
    bad = ~np.isfinite(vec)
    if np.any(bad):
        warnings.warn(f"{int(np.sum(bad))} residual(s) non-finite and excluded",
                      RuntimeWarning, stacklevel=2)
        vec = vec[~bad]
    return float(np.dot(vec, vec))


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
        that is not a fitted field raises ``ValueError``.
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
    lo, hi = _transformed_bounds(bnds)
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

    stderr = _stderr_proxy(best, params, vec.size - n_excluded)

    return FitResult(params=params, objective=objective, residuals=residuals,
                     n_eval=int(best.nfev), converged=bool(best.status > 0),
                     bounds_hit=bounds_hit, stderr=stderr,
                     message=str(best.message), n_excluded=n_excluded,
                     n_starts=len(starts), n_jev=int(best.njev))


def _stderr_proxy(sol, params, n_res):
    """Curvature-based parameter uncertainties in physical units.

    A diagnostic, not a posterior: inverse Gauss-Newton curvature of the
    exact Jacobian, scaled by the residual variance over the ``n_res``
    finite residuals, pushed through the parameter transform. Where the
    curvature is singular every field is ``None`` (strict JSON).
    """
    J = sol.jac
    n_par = J.shape[1]
    dof = max(n_res - n_par, 1)
    scale = 2.0 * sol.cost / dof
    try:
        cov_t = np.linalg.inv(J.T @ J) * scale
    except np.linalg.LinAlgError:
        return dict.fromkeys(FIT_FIELDS)
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
            "g2_normalization": "model curves normalized to long-delay value",
        },
    }

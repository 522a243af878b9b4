"""Spectral-wandering averages and detector-response convolution.

The emitter transition wanders slowly with a Gaussian distribution of width
``sigma`` (in reduced detuning units), which is equivalent to offsetting the
detuning while the background phase stays fixed. Transmission is averaged
directly; for g2 the numerator and the squared-transmission denominator are
averaged separately and then divided, so the averaged g2 still approaches 1
at long delay and stays finite on top of the (unaveraged) divergences.

The drive enters the averaged transmission through the reduced intensity
``alpha``; the g2 closed form is weak-pump only (alpha -> 0), so the g2
curves of :class:`ModelCurves` refuse a finite drive with ``ValueError``.

Gauss-Hermite quadrature is the default integration rule; an adaptive-grid
trapezoid over +-span*sigma is available as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import roots_hermite

from .correlators import g1_general, g2_tau_parts
from .params import (PhysicalParams, detuning_to_delta, tau_to_dimensionless,
                     to_dimensionless)


@lru_cache(maxsize=32)
def _hermite_rule(n):
    nodes, weights = roots_hermite(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True)
class AveragingSpec:
    """Wandering width, detector width, and quadrature controls.

    ``sigma`` and ``t_resp`` are in reduced units (see ``params``).
    ``quadrature_points`` must be odd so the undisplaced point is a node.
    The default order is chosen so that doubling it moves the averaged
    transmission by well under 1e-6 for wandering widths up to about twice
    the linewidth; the emitter response has unit-scale structure, which is
    what limits Gauss-Hermite convergence when sigma is larger than that.
    """

    sigma: float
    t_resp: float
    quadrature_points: int = 301
    quadrature_span: float = 8.0

    def __post_init__(self):
        if self.sigma < 0 or self.t_resp < 0:
            raise ValueError("sigma and t_resp must be non-negative")
        n = self.quadrature_points
        if n < 1 or n % 2 == 0:
            raise ValueError("quadrature_points must be odd and >= 1")
        if self.quadrature_span < 6:
            raise ValueError("quadrature_span must be >= 6")

    @classmethod
    def from_params(cls, p: PhysicalParams) -> "AveragingSpec":
        d = to_dimensionless(p, p.omega0)
        return cls(sigma=d.sigma, t_resp=d.t_resp)

    def offsets_weights(self):
        """Gaussian-weight nodes (as detuning offsets) and unit-sum weights."""
        y, w = _hermite_rule(self.quadrature_points)
        return np.sqrt(2.0) * self.sigma * y, w / np.sqrt(np.pi)


def _trapezoid_offsets_weights(spec: AveragingSpec, factor=8):
    n = factor * spec.quadrature_points + 1
    x = np.linspace(-spec.quadrature_span * spec.sigma,
                    spec.quadrature_span * spec.sigma, n)
    w = np.exp(-0.5 * (x / spec.sigma) ** 2)
    w /= w.sum()
    return x, w


def avg_g1(delta, zeta, beta, phi, spec: AveragingSpec, alpha=0.0, method="hermite"):
    """Wandering-averaged normalized transmission at reduced detuning."""
    delta = np.asarray(delta, dtype=float)
    if spec.sigma == 0.0:
        out = g1_general(delta, zeta, beta, phi, alpha)
        return out
    if method == "hermite":
        x, w = spec.offsets_weights()
    elif method == "trapezoid":
        x, w = _trapezoid_offsets_weights(spec)
    else:
        raise ValueError(f"unknown quadrature method {method!r}")
    vals = g1_general(delta[..., None] + x, zeta, beta, phi, alpha)
    out = vals @ w
    return float(out) if out.ndim == 0 else out


def avg_g2(tau, delta, zeta, beta, phi, spec: AveragingSpec, method="hermite"):
    """Wandering-averaged weak-pump g2 at reduced delay and detuning.

    Numerator and denominator of the normalized correlator are averaged
    over the same Gaussian before dividing.
    """
    tau = np.asarray(tau, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if spec.sigma == 0.0:
        num, g1sq = g2_tau_parts(tau, delta, zeta, beta, phi)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / g1sq
        return float(out) if np.ndim(out) == 0 else out
    if method == "hermite":
        x, w = spec.offsets_weights()
    elif method == "trapezoid":
        x, w = _trapezoid_offsets_weights(spec)
    else:
        raise ValueError(f"unknown quadrature method {method!r}")
    shifted = delta[..., None] + x
    num, g1sq = g2_tau_parts(tau[..., None], shifted, zeta, beta, phi)
    den = np.broadcast_to(g1sq, num.shape) @ w
    out = (num @ w) / den
    return float(out) if out.ndim == 0 else out


def check_refinement(delta, zeta, beta, phi, spec: AveragingSpec, alpha=0.0,
                     rtol=1e-6):
    """Relative change of avg_g1 when the quadrature order is doubled.

    Raises ``RuntimeError`` when the refinement moves the result by more
    than ``rtol`` (non-convergent quadrature for these parameters).
    """
    fine = replace(spec, quadrature_points=2 * spec.quadrature_points + 1)
    a = avg_g1(delta, zeta, beta, phi, spec, alpha)
    b = avg_g1(delta, zeta, beta, phi, fine, alpha)
    change = np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300))
    if change > rtol:
        raise RuntimeError(
            f"quadrature not converged: refinement changed avg_g1 by {change:.3e}")
    return float(change)


@dataclass(frozen=True)
class SampledCurve:
    """A function of reduced delay sampled on a uniform grid."""

    tau: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if tau.ndim != 1 or tau.shape != values.shape:
            raise ValueError("tau and values must be matching 1-d arrays")
        if tau.size >= 2:
            steps = np.diff(tau)
            if np.any(steps <= 0) or np.ptp(steps) > 1e-9 * steps[0]:
                raise ValueError("tau grid must be uniform and increasing")
        tau.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "values", values)

    @property
    def spacing(self):
        return float(self.tau[1] - self.tau[0]) if self.tau.size >= 2 else 0.0


def gaussian_kernel(spacing, t_resp, radius_sigmas=6.0):
    """Discrete Gaussian kernel, renormalized to unit sum."""
    half = int(np.ceil(radius_sigmas * t_resp / spacing))
    x = np.arange(-half, half + 1) * spacing
    k = np.exp(-0.5 * (x / t_resp) ** 2)
    return k / k.sum()


def convolve_detector(curve: SampledCurve, t_resp) -> SampledCurve:
    """Convolve a sampled g2 curve with the detector response Gaussian.

    ``t_resp`` is the response standard deviation in reduced delay units.
    The input grid must resolve the kernel (spacing <= t_resp/4); edges are
    extended with their boundary values, which is exact for curves that have
    reached their asymptote at the grid ends.
    """
    if t_resp < 0:
        raise ValueError("t_resp must be non-negative")
    if t_resp == 0.0:
        return curve
    h = curve.spacing
    if h <= 0:
        raise ValueError("need at least two samples to convolve")
    if h > t_resp / 4.0:
        raise ValueError(
            f"grid spacing {h:.4g} undersamples the detector kernel; "
            f"need <= t_resp/4 = {t_resp / 4.0:.4g}")
    k = gaussian_kernel(h, t_resp)
    padded = np.pad(curve.values, len(k) // 2, mode="edge")
    return SampledCurve(curve.tau, np.convolve(padded, k, mode="valid"))


class ModelCurves:
    """Directly comparable model curves for a physical parameter set.

    Detunings are in ueV relative to the dataset reference; delays in ps.
    Transmission is normalized to the bare background; g2 curves are
    normalized to their long-delay value (unity by construction).

    ``spec`` defaults to :meth:`AveragingSpec.from_params`; the detector
    convolution runs where ``spec.t_resp > 0``, and ``sigma = t_resp = 0``
    gives the bare closed forms. The drive enters the transmission through
    the reduced intensity ``alpha``. The g2 closed form is weak-pump only,
    so :meth:`g2zero` and :meth:`g2_trace` refuse a finite drive.
    """

    def __init__(self, p: PhysicalParams, spec: AveragingSpec | None = None):
        self.params = p
        d = to_dimensionless(p, p.omega0)
        self.zeta = d.zeta
        self.phi = d.phi
        self.alpha = d.alpha
        self.beta = p.beta
        self.spec = spec if spec is not None else AveragingSpec.from_params(p)

    def _delta(self, detuning_uev):
        return detuning_to_delta(np.asarray(detuning_uev, dtype=float)
                                 - self.params.omega0, self.params.lifetime)

    def _weak_pump_only(self):
        if self.alpha > 0:
            raise ValueError(
                f"g2 is modelled in the weak-pump limit only; got drive_amp = "
                f"{self.params.drive_amp:g} (alpha = {self.alpha:.3g}), "
                f"set drive_amp = 0")

    def transmission(self, detuning_uev):
        """Wandering-averaged normalized transmission at the model's drive."""
        return avg_g1(self._delta(detuning_uev), self.zeta, self.beta,
                      self.phi, self.spec, self.alpha)

    def _g2_curve_convolved(self, delta, tau_t):
        grid = SampledCurve(tau_t, avg_g2(tau_t, np.asarray(delta, float),
                                          self.zeta, self.beta, self.phi, self.spec))
        return convolve_detector(grid, self.spec.t_resp)

    def _conv_grid(self, tau_t_min, tau_t_max):
        # uniform grid containing tau = 0 as an exact node, padded so the
        # kernel support around every requested delay stays interior
        h = self.spec.t_resp / 5.0
        pad = 6.0 * self.spec.t_resp
        n_lo = int(np.ceil((pad - min(tau_t_min, 0.0)) / h))
        n_hi = int(np.ceil((pad + max(tau_t_max, 0.0)) / h))
        return np.arange(-n_lo, n_hi + 1) * h

    def g2_trace(self, detuning_uev, tau_ps):
        """Weak-pump g2(tau) at one detuning, averaged and convolved."""
        self._weak_pump_only()
        tau_t = tau_to_dimensionless(tau_ps, self.params.lifetime)
        delta = float(self._delta(detuning_uev))
        if self.spec.t_resp == 0:
            return avg_g2(tau_t, np.asarray(delta), self.zeta, self.beta,
                          self.phi, self.spec)
        grid = self._conv_grid(tau_t.min(), tau_t.max())
        curve = self._g2_curve_convolved(delta, grid)
        return np.interp(tau_t, curve.tau, curve.values)

    def g2zero(self, detuning_uev):
        """Weak-pump zero-delay g2 per detuning, averaged and convolved."""
        self._weak_pump_only()
        detuning_uev = np.asarray(detuning_uev, dtype=float)
        deltas = np.atleast_1d(self._delta(detuning_uev))
        if self.spec.t_resp == 0:
            out = np.array([avg_g2(0.0, np.asarray(d), self.zeta, self.beta,
                                   self.phi, self.spec) for d in deltas])
        else:
            grid = self._conv_grid(0.0, 0.0)
            i0 = int(np.argmin(np.abs(grid)))
            out = np.empty(deltas.shape)
            for i, d in enumerate(deltas):
                out[i] = self._g2_curve_convolved(d, grid).values[i0]
        return float(out[0]) if detuning_uev.ndim == 0 else out

"""Spectral-wandering averages with the detector response.

The emitter transition wanders slowly with a Gaussian distribution of width
``sigma`` (in reduced detuning units), which is equivalent to offsetting the
detuning while the background phase stays fixed. Transmission is averaged
directly; for g2 the numerator and the squared-transmission denominator are
averaged separately and then divided, so the averaged g2 still approaches 1
at long delay and stays finite on top of the (unaveraged) divergences.

The averaged transmission is a Voigt profile in closed form (Faddeeva
function). The g2 average uses Gauss-Hermite quadrature over the detuning
offsets; the detector's Gaussian response of width ``t_resp`` is applied in
closed form to every decay component before averaging (see
:func:`fanostat.correlators.g2_tau_parts`).

The drive enters the averaged transmission through the reduced intensity
``alpha``; the g2 closed form is weak-pump only (alpha -> 0), so the g2
curves of :class:`ModelCurves` refuse a finite drive with ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import roots_hermite, wofz

from .correlators import check_params, g1_general, g2_tau_parts
from .params import (PhysicalParams, detuning_to_delta, tau_to_dimensionless,
                     to_dimensionless)


@lru_cache(maxsize=32)
def _hermite_rule(n):
    # weights below 1e-18 of the largest change no sum beyond rounding (301 -> 99)
    nodes, weights = roots_hermite(n)
    keep = weights >= 1e-18 * weights.max()
    nodes, weights = nodes[keep], weights[keep]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True)
class AveragingSpec:
    """Wandering width, detector width, and the g2 quadrature order.

    ``sigma`` and ``t_resp`` are in reduced units (see ``params``). The
    averaged transmission is exact. The g2 average uses the
    ``quadrature_points``-node Gauss-Hermite rule, which must be odd so the
    undisplaced point is a node; doubling the default 301 nodes moves the
    zero-delay g2 by 2.4e-7 at sigma = 1.79 (the reference configuration)
    and by 3.3e-2 at sigma = 6, where the emitter's unit-scale structure
    is too fine for the rule (see :func:`check_refinement`).
    """

    sigma: float
    t_resp: float
    quadrature_points: int = 301

    def __post_init__(self):
        if self.sigma < 0 or self.t_resp < 0:
            raise ValueError("sigma and t_resp must be non-negative")
        n = self.quadrature_points
        if n < 1 or n % 2 == 0:
            raise ValueError("quadrature_points must be odd and >= 1")

    @classmethod
    def from_params(cls, p: PhysicalParams) -> "AveragingSpec":
        d = to_dimensionless(p, p.omega0)
        return cls(sigma=d.sigma, t_resp=d.t_resp)

    def offsets_weights(self):
        """Gaussian-weight nodes (as detuning offsets) and unit-sum weights."""
        y, w = _hermite_rule(self.quadrature_points)
        return np.sqrt(2.0) * self.sigma * y, w / np.sqrt(np.pi)


def avg_g1(delta, zeta, beta, phi, spec: AveragingSpec, alpha=0.0):
    """Wandering-averaged normalized transmission at reduced detuning.

    With ``g1 = 1 + (c0 + c1 delta)/(delta^2 + G^2)`` (see
    :func:`fanostat.correlators.g1_general`), the Gaussian averages are
    ``<1/(delta^2 + G^2)> = Re W/G`` and ``<delta/(delta^2 + G^2)> = Im W``
    with ``W = sqrt(pi/2)/sigma * w((delta + iG)/(sqrt(2) sigma))`` and
    ``w`` the Faddeeva function.
    """
    delta = np.asarray(delta, dtype=float)
    if spec.sigma == 0.0:
        return g1_general(delta, zeta, beta, phi, alpha)
    phi = check_params(zeta, beta, phi, alpha)
    gam = np.sqrt(zeta * zeta + zeta * alpha)
    c0 = beta * beta * zeta / np.cos(phi) ** 2 - 2.0 * beta * zeta
    c1 = 2.0 * beta * np.tan(phi)
    W = (np.sqrt(np.pi / 2.0) / spec.sigma
         * wofz((delta + 1j * gam) / (np.sqrt(2.0) * spec.sigma)))
    out = 1.0 + c0 * W.real / gam + c1 * W.imag
    return float(out) if out.ndim == 0 else out


def avg_g2(tau, delta, zeta, beta, phi, spec: AveragingSpec):
    """Wandering-averaged, detected weak-pump g2 at reduced delay and detuning.

    ``tau`` and ``delta`` broadcast against each other. Numerator and
    denominator of the normalized correlator are averaged over the same
    Gaussian before dividing; the numerator carries the detector response
    of width ``spec.t_resp``.
    """
    tau = np.asarray(tau, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if spec.sigma == 0.0:
        num, g1sq = g2_tau_parts(tau, delta, zeta, beta, phi, spec.t_resp)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / g1sq
        return float(out) if np.ndim(out) == 0 else out
    x, w = spec.offsets_weights()
    num, g1sq = g2_tau_parts(tau[..., None], delta[..., None] + x, zeta, beta,
                             phi, spec.t_resp)
    out = (num @ w) / (g1sq @ w)
    return float(out) if out.ndim == 0 else out


def check_refinement(delta, zeta, beta, phi, spec: AveragingSpec, rtol=1e-6):
    """Relative change of the zero-delay avg_g2 when the order is doubled.

    The g2 average is the one quadrature of the model. Raises
    ``RuntimeError`` when the refinement moves the result by more than
    ``rtol`` (non-convergent quadrature for these parameters).
    """
    fine = replace(spec, quadrature_points=2 * spec.quadrature_points + 1)
    a = avg_g2(0.0, delta, zeta, beta, phi, spec)
    b = avg_g2(0.0, delta, zeta, beta, phi, fine)
    change = np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300))
    if change > rtol:
        raise RuntimeError(
            f"quadrature not converged: refinement changed avg_g2 by {change:.3e}")
    return float(change)


class ModelCurves:
    """Directly comparable model curves for a physical parameter set.

    Detunings are in ueV relative to the dataset reference; delays in ps.
    Transmission is normalized to the bare background; g2 curves are
    normalized to their long-delay value (unity by construction).

    ``spec`` defaults to :meth:`AveragingSpec.from_params`; ``t_resp = 0``
    means an ideal detector, and ``sigma = t_resp = 0`` gives the bare
    closed forms. The drive enters the transmission through the reduced
    intensity ``alpha``. The g2 closed form is weak-pump only, so
    :meth:`g2zero` and :meth:`g2_trace` refuse a finite drive.
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

    def g2_trace(self, detuning_uev, tau_ps):
        """Weak-pump g2(tau) at one detuning, averaged and detected."""
        self._weak_pump_only()
        return avg_g2(tau_to_dimensionless(tau_ps, self.params.lifetime),
                      float(self._delta(detuning_uev)), self.zeta, self.beta,
                      self.phi, self.spec)

    def g2zero(self, detuning_uev):
        """Weak-pump zero-delay g2 per detuning, averaged and detected."""
        self._weak_pump_only()
        return avg_g2(0.0, self._delta(detuning_uev), self.zeta, self.beta,
                      self.phi, self.spec)

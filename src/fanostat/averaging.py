"""Spectral-wandering averages with the detector response.

The emitter transition wanders slowly with a Gaussian distribution of width
``sigma`` (in reduced detuning units), which is equivalent to offsetting the
detuning while the background phase stays fixed. Transmission is averaged
directly; for g2 the numerator and the squared-transmission denominator are
averaged separately and then divided, so the averaged g2 still approaches 1
at long delay and stays finite on top of the (unaveraged) divergences.

The averaged transmission is a Voigt profile in closed form (Faddeeva
function). The g2 average uses the Gauss-Hermite rule of order
:data:`HERMITE_ORDER` over the detuning offsets; the detector's Gaussian
response of width ``t_resp`` is applied in closed form to every decay component before averaging (see
:func:`fanostat.correlators.g2_tau_parts`).

The drive enters the averaged transmission through the reduced intensity
``alpha``; the g2 closed form is weak-pump only (alpha -> 0), so the g2
curves of :class:`ModelCurves` refuse a finite drive with ``ValueError``.

Each average can also return its exact partials in the reduced quantities:
the Voigt profile through w'(z) = -2z w(z) + 2i/sqrt(pi), the g2 average
by averaging the partials of its numerator and denominator on the same
nodes and applying the quotient rule. :class:`ModelCurves` chains them to
the physical fields of :data:`FIT_FIELDS`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_hermite, wofz

from .correlators import (_g1_formula, check_params, complex_step, g1_general,
                          g2_tau_parts)
from .params import (HBAR_UEV_PS, PhysicalParams, detuning_to_delta,
                     tau_to_dimensionless, to_dimensionless)

# the physical fields the model curves are differentiated in, in this order
FIT_FIELDS = ("omega0", "lifetime", "dephasing_time", "sigma_wander", "t0", "beta")


# doubling it moves the zero-delay g2 by 2.4e-7 at sigma = 1.79 (the reference
# configuration) and by 3.3e-2 at sigma = 6 (see check_refinement)
HERMITE_ORDER = 301


@lru_cache(maxsize=2)
def _hermite_rule(n):
    # weights below 1e-18 of the largest change no sum beyond rounding (301 -> 99)
    nodes, weights = roots_hermite(n)
    keep = weights >= 1e-18 * weights.max()
    nodes, weights = nodes[keep], weights[keep]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _wandering_nodes(sigma, n=HERMITE_ORDER):
    """Detuning offsets and unit-sum weights of the Gaussian of width sigma;
    ``sigma = 0`` is the one-node rule."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return np.zeros(1), np.ones(1)
    y, w = _hermite_rule(n)
    return np.sqrt(2.0) * sigma * y, w / np.sqrt(np.pi)


def avg_g1(delta, zeta, beta, phi, sigma, alpha=0.0, jac=False):
    """Transmission at reduced detuning averaged over a wandering of width sigma.

    With ``g1 = 1 + (c0 + c1 delta)/(delta^2 + G^2)`` (see
    :func:`fanostat.correlators.g1_general`), the Gaussian averages are
    ``<1/(delta^2 + G^2)> = Re W/G`` and ``<delta/(delta^2 + G^2)> = Im W``
    with ``W = sqrt(pi/2)/sigma * w((delta + iG)/(sqrt(2) sigma))`` and
    ``w`` the Faddeeva function.

    With ``jac``, also returns the partials with respect to (delta, zeta,
    beta, phi, alpha, sigma) along a new last axis. They reuse the value of
    w through w'(z) = -2z w(z) + 2i/sqrt(pi) (Abramowitz & Stegun 7.1.20),
    with G = sqrt(zeta^2 + zeta alpha). At ``sigma = 0`` they are those of
    :func:`fanostat.correlators.g1_general` by the complex step, and the
    sigma partial is zero (the average is even in sigma).
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    delta = np.asarray(delta, dtype=float)
    if sigma == 0.0:
        out = g1_general(delta, zeta, beta, phi, alpha)
        if not jac:
            return out
        d = complex_step(_g1_formula, delta, zeta, beta, phi, alpha)
        d = np.where(np.asarray(out)[..., None] > 0.0, d, 0.0)
        return out, np.concatenate([d, np.zeros_like(d[..., :1])], axis=-1)
    phi = check_params(zeta, beta, phi, alpha)
    gam = np.sqrt(zeta * zeta + zeta * alpha)
    c0 = beta * beta * zeta / np.cos(phi) ** 2 - 2.0 * beta * zeta
    c1 = 2.0 * beta * np.tan(phi)
    z = (delta + 1j * gam) / (np.sqrt(2.0) * sigma)
    w = wofz(z)
    W = np.sqrt(np.pi / 2.0) / sigma * w
    out = 1.0 + c0 * W.real / gam + c1 * W.imag
    if not jac:
        return float(out) if out.ndim == 0 else out
    W_z = np.sqrt(np.pi / 2.0) / sigma * (2j / np.sqrt(np.pi) - 2.0 * z * w)
    W_delta = W_z / (np.sqrt(2.0) * sigma)
    gam_zeta, gam_alpha = (zeta + 0.5 * alpha) / gam, 0.5 * zeta / gam
    sec2, tan = 1.0 / np.cos(phi) ** 2, np.tan(phi)

    def partial(dc0=0.0, dc1=0.0, dW=0.0, dgam=0.0):
        return (dc0 * W.real / gam + c0 * (np.real(dW) - W.real * dgam / gam) / gam
                + dc1 * W.imag + c1 * np.imag(dW))

    return out, np.stack([
        partial(dW=W_delta),
        partial(dc0=beta * beta * sec2 - 2.0 * beta,
                dW=1j * W_delta * gam_zeta, dgam=gam_zeta),
        partial(dc0=2.0 * beta * zeta * sec2 - 2.0 * zeta, dc1=2.0 * tan),
        partial(dc0=2.0 * beta * beta * zeta * tan * sec2, dc1=2.0 * beta * sec2),
        partial(dW=1j * W_delta * gam_alpha, dgam=gam_alpha),
        partial(dW=-(W + z * W_z) / sigma),
    ], axis=-1)


def avg_g2(tau, delta, zeta, beta, phi, sigma, t_resp, jac=False):
    """Wandering-averaged, detected weak-pump g2 at reduced delay and detuning.

    ``tau`` and ``delta`` broadcast against each other. Numerator and
    denominator of the normalized correlator are averaged over the same
    Gaussian before dividing; the numerator carries the detector response
    of width ``t_resp``. ``sigma = 0`` is the one-node rule.

    With ``jac``, also returns the partials with respect to (delta, zeta,
    beta, phi, tau, t_resp, sigma) along a new last axis: the averaged
    partials of :func:`fanostat.correlators.g2_tau_parts` through the
    quotient rule. The nodes are delta + sqrt(2) sigma y_k, so the sigma
    partial is the delta partial weighted by sqrt(2) y_k.
    """
    tau = np.asarray(tau, dtype=float)
    delta = np.asarray(delta, dtype=float)
    x, w = _wandering_nodes(sigma)
    parts = g2_tau_parts(tau[..., None], delta[..., None] + x, zeta, beta,
                         phi, t_resp, jac)
    num, den = parts[0] @ w, parts[1] @ w
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    if not jac:
        return float(out) if out.ndim == 0 else out
    dx = x / sigma if sigma > 0.0 else x  # d(node)/d(sigma)
    dnum, dden = parts[2], parts[3]
    sig_num, sig_den = (dnum[..., 0] * dx) @ w, (dden[..., 0] * dx) @ w
    dnum = np.concatenate([w @ dnum, sig_num[..., None]], axis=-1)
    dden = w @ dden
    dden = np.concatenate([dden, np.zeros(dden.shape[:-1] + (2,)),
                           sig_den[..., None]], axis=-1)
    return out, (dnum - out[..., None] * dden) / den[..., None]


def check_refinement(delta, zeta, beta, phi, sigma, t_resp, rtol=1e-6):
    """Relative change of the zero-delay avg_g2 when its order is doubled.

    The g2 average is the one quadrature of the model; the refined rule has
    ``2 HERMITE_ORDER + 1`` nodes. Raises ``RuntimeError`` when the
    refinement moves the result by more than ``rtol`` (non-convergent
    quadrature for these parameters).
    """
    a = avg_g2(0.0, delta, zeta, beta, phi, sigma, t_resp)
    x, w = _wandering_nodes(sigma, 2 * HERMITE_ORDER + 1)
    num, den = g2_tau_parts(0.0, np.asarray(delta, dtype=float)[..., None] + x,
                            zeta, beta, phi, t_resp)
    b = (num @ w) / (den @ w)
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

    Both widths are those of ``p``: ``detector_resp = 0`` means an ideal
    detector, and ``sigma_wander = detector_resp = 0`` gives the bare closed
    forms. The drive enters the transmission through the reduced intensity
    ``alpha``. The g2 closed form is weak-pump only, so
    :meth:`g2zero` and :meth:`g2_trace` refuse a finite drive.

    With ``jac``, every curve also carries its partials with respect to
    :data:`FIT_FIELDS`: the result gains a last axis of length 7 holding the
    value and then the six partials. Without ``jac`` the curves do no
    derivative work.
    """

    def __init__(self, p: PhysicalParams, jac: bool = False):
        self.params = p
        d = to_dimensionless(p, p.omega0)
        self.zeta = d.zeta
        self.phi = d.phi
        self.alpha = d.alpha
        self.sigma = d.sigma
        self.t_resp = d.t_resp
        self.beta = p.beta
        self.jac = jac

    def _delta(self, detuning_uev):
        return detuning_to_delta(np.asarray(detuning_uev, dtype=float)
                                 - self.params.omega0, self.params.lifetime)

    def _weak_pump_only(self):
        if self.alpha > 0:
            raise ValueError(
                f"g2 is modelled in the weak-pump limit only; got drive_amp = "
                f"{self.params.drive_amp:g} (alpha = {self.alpha:.3g}), "
                f"set drive_amp = 0")

    def _with_fields(self, value, delta, d_delta, d_zeta, d_beta, d_phi,
                     d_sigma, d_alpha=0.0, tau=0.0, d_tau=0.0, d_tresp=0.0):
        """The value followed by its partials along FIT_FIELDS, from those
        in the reduced quantities.

        With L the lifetime: delta = 2L(E - omega0)/hbar, sigma =
        2L sigma_wander/hbar and alpha = 4 beta drive^2 L grow with L;
        tau = tau_ps/(2L) and t_resp = detector_resp/(2L) shrink with it;
        zeta = 1 + 2L/dephasing_time; dphi/dt0 = 1/sqrt(1 - t0^2).
        """
        p = self.params
        L, T2 = p.lifetime, p.dephasing_time
        scale = 2.0 * L / HBAR_UEV_PS
        return np.stack([
            value,
            -scale * d_delta,
            (delta * d_delta + self.sigma * d_sigma + self.alpha * d_alpha
             - tau * d_tau - self.t_resp * d_tresp) / L + 2.0 / T2 * d_zeta,
            -2.0 * L / T2**2 * d_zeta,
            scale * d_sigma,
            d_phi / np.sqrt(1.0 - p.t0 * p.t0),
            d_beta + 4.0 * p.drive_amp**2 * L * d_alpha,
        ], axis=-1)

    def transmission(self, detuning_uev):
        """Wandering-averaged normalized transmission at the model's drive."""
        delta = self._delta(detuning_uev)
        out = avg_g1(delta, self.zeta, self.beta, self.phi, self.sigma,
                     self.alpha, self.jac)
        if not self.jac:
            return out
        out, d = out
        dd, dz, db, dp, da, ds = np.moveaxis(d, -1, 0)
        return self._with_fields(out, delta, dd, dz, db, dp, ds, d_alpha=da)

    def g2_trace(self, detuning_uev, tau_ps):
        """Weak-pump g2(tau) at one detuning, averaged and detected; evaluated
        once per distinct |tau| (g2 and tau dg/dtau depend on |tau| only)."""
        tau = np.abs(tau_to_dimensionless(tau_ps, self.params.lifetime))
        distinct, inverse = np.unique(tau, return_inverse=True)
        out = self._g2(distinct, float(self._delta(detuning_uev)))
        return out[inverse.reshape(tau.shape)]

    def g2zero(self, detuning_uev):
        """Weak-pump zero-delay g2 per detuning, averaged and detected."""
        return self._g2(0.0, self._delta(detuning_uev))

    def _g2(self, tau, delta):
        self._weak_pump_only()
        out = avg_g2(tau, delta, self.zeta, self.beta, self.phi, self.sigma,
                     self.t_resp, self.jac)
        if not self.jac:
            return out
        out, d = out
        dd, dz, db, dp, dt, dr, ds = np.moveaxis(d, -1, 0)
        return self._with_fields(out, delta, dd, dz, db, dp, ds, tau=tau,
                                 d_tau=dt, d_tresp=dr)

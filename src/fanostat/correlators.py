"""Closed-form field correlators of the driven emitter-waveguide system.

All functions work in reduced units: detuning ``delta`` in units of
hbar*gamma/2, delay ``tau`` in units of 2/gamma, and the background phase
``phi`` with cos(phi) equal to the bare amplitude transmission t0.

Normalization: transmission-type quantities are relative to the bare
background (g1 -> 1 and g2 -> 1 far from resonance). Where the transmission
vanishes, g2 diverges; those points are returned as ``inf`` rather than
raised, so that detuning sweeps pass through them.

The weak-pump g2(tau) is assembled from four decay components: a constant,
a population-decay term ``exp(-2|tau|)``, and oscillating coherence terms
``exp(-zeta|tau|) * (cos, sin)(delta*tau)``. The closed forms for the decay
amplitudes were rederived from the underlying equations of motion and match
the numerical regression solver to machine precision for all zeta >= 1 (see
tests). They are singular at the parameter point zeta = 2, delta = 0 where
the population and coherence decay rates collide; evaluate nearby values
with the regression solver instead if that corner is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

_HALF_PI = np.pi / 2.0


def _check_phi(phi):
    phi = float(phi)
    if not -_HALF_PI < phi <= 0.0:
        raise ValueError("phi must lie in (-pi/2, 0]; phi = -pi/2 (t0 = 0) is singular")
    return phi


def check_params(zeta, beta, phi, alpha=0.0):
    """Validate the model parameters shared by the closed forms; returns phi."""
    phi = _check_phi(phi)
    if zeta < 1.0:
        raise ValueError("zeta must be >= 1")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    return phi


def g1_ideal(delta, phi):
    """Normalized transmission (delta + tan phi)^2 / (1 + delta^2).

    This is the lossless, dephasing-free, weak-drive limit; absolute
    transmission is T0 times this value.
    """
    phi = _check_phi(phi)
    delta = np.asarray(delta, dtype=float)
    out = (delta + np.tan(phi)) ** 2 / (1.0 + delta * delta)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CorrelatorDecomposition:
    """Two-photon correlation at zero delay split into its three parts.

    ``total = product_term + bound_term + interference_term``. The product
    term is identically 1; the bound term is non-negative; the interference
    term carries the sign of ``2*T0 - 1``.
    """

    product_term: float
    bound_term: float
    interference_term: float
    total: float

    @property
    def diverged(self):
        """True where the evaluation sits on the transmission zero."""
        return ~np.isfinite(np.asarray(self.total))


def g2zero_ideal(delta, phi, T0=None) -> CorrelatorDecomposition:
    """Ideal-case g2(0) decomposition at reduced detuning ``delta``.

    ``T0`` defaults to cos(phi)^2 and must be consistent with ``phi`` when
    given. At the transmission zero ``delta = -tan(phi)`` the bound term
    diverges; the result carries ``inf`` there (see ``diverged``).
    """
    phi = _check_phi(phi)
    c2 = np.cos(phi) ** 2
    if T0 is None:
        T0 = c2
    elif abs(T0 - c2) > 1e-9:
        raise ValueError(f"T0 = {T0} inconsistent with cos(phi)^2 = {c2}")
    if T0 <= 0:
        raise ValueError("T0 must be positive")
    delta = np.asarray(delta, dtype=float)
    u = T0 * (delta + np.tan(phi)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = 1.0 / (u * u)
        interference = 2.0 * (2.0 * T0 - 1.0) / u
        # on the zero itself the bound term dominates: +inf, not inf - inf
        total = np.where(u == 0.0, np.inf, 1.0 + bound + interference)
    if delta.ndim == 0:
        return CorrelatorDecomposition(1.0, float(bound), float(interference), float(total))
    return CorrelatorDecomposition(np.ones_like(total), bound, interference, total)


def ideal_min_g2zero(T0):
    """Global minimum of the ideal g2(0) over detuning.

    Equals ``4*T0*(1 - T0)`` for T0 < 1/2 (antibunching reachable) and 1
    otherwise (interference term non-negative, only bunching).
    """
    if not 0.0 <= T0 <= 1.0:
        raise ValueError("T0 must lie in [0, 1]")
    if T0 >= 0.5:
        return 1.0
    return 4.0 * T0 * (1.0 - T0)


def g1_general(delta, zeta, beta, phi, alpha=0.0):
    """Normalized transmission with dephasing, finite beta, and finite drive.

    Parameters
    ----------
    delta : float or array
        Reduced laser-transition detuning.
    zeta : float
        Dephasing measure ``1 + 2*gamma_de/gamma`` (>= 1).
    beta : float
        Guided-mode coupling probability in [0, 1].
    phi : float
        Background phase, cos(phi) = t0.
    alpha : float, optional
        Reduced drive intensity; 0 is the weak-drive limit.

    Notes
    -----
    The emitter-scattering term carries a factor ``zeta`` in its numerator,
    ``beta^2 * zeta / (cos(phi)^2 * D)`` with ``D = zeta*alpha + zeta^2 +
    delta^2``. That factor is required for consistency with the equations of
    motion: the steady emitter population is ``zeta*alpha/2/D``, and the
    total transmitted intensity includes the incoherently scattered light.
    The reduction at zeta = 1, alpha = 0 is :func:`g1_ideal`.

    The result is an intensity ratio and is clamped at zero: on the ideal
    Fano zero (zeta = beta = 1, delta = -tan(phi)) rounding can leave the
    formula a few ulp below it.
    """
    phi = check_params(zeta, beta, phi, alpha)
    out = np.maximum(_g1_formula(delta, zeta, beta, phi, alpha), 0.0)
    return float(out) if out.ndim == 0 else out


def _g1_formula(delta, zeta, beta, phi, alpha=0.0):
    # unvalidated core; g2_coefficients also evaluates it at doubled beta
    delta = np.asarray(delta, dtype=float)
    D = zeta * alpha + zeta * zeta + delta * delta
    out = (1.0 - 2.0 * beta * (zeta - delta * np.tan(phi)) / D
           + beta * beta * zeta / (np.cos(phi) ** 2 * D))
    return float(out) if out.ndim == 0 else out


def _g2_decay_amplitude(delta, zeta, beta, phi):
    """Amplitude of the exp(-2|tau|) component of the g2 numerator."""
    P = delta * delta + (zeta - 2.0) ** 2
    num = (beta**4 * zeta * (2.0 - zeta)
           - 2.0 * beta**3 * delta * (zeta - 1.0) * np.sin(2.0 * phi))
    return num / (np.cos(phi) ** 4 * (zeta * zeta + delta * delta) * P)


def _g2_sin_amplitude(delta, zeta, beta, phi):
    """Amplitude of the exp(-zeta|tau|) sin(delta|tau|) component.

    Regular at delta = 0 (the sin factor supplies the odd symmetry).
    """
    d2 = delta * delta
    z = zeta
    P = d2 + (z - 2.0) ** 2
    const = -delta * z * (4.0 * beta**2 * (z - 1.0) + (2.0 * beta - 1.0) * P)
    c2 = -2.0 * delta * z * (beta - 1.0) * P
    s2 = (2.0 * beta * (z * z * (z - 2.0) - d2 * (3.0 * z - 2.0))
          + z * z * (z - 2.0) ** 2 + 4.0 * d2 * (z - 1.0) - d2 * d2)
    c4 = delta * z * P
    s4 = (z * z - d2) * P / 2.0
    num = (const + c2 * np.cos(2.0 * phi) + s2 * np.sin(2.0 * phi)
           + c4 * np.cos(4.0 * phi) + s4 * np.sin(4.0 * phi))
    return beta**2 * num / (np.cos(phi) ** 4 * (z * z + d2) ** 2 * P)


@dataclass(frozen=True)
class G2Coefficients:
    """Weak-pump g2(tau) building blocks at one parameter point.

    ``A`` weights exp(-2|tau|), ``B`` weights exp(-zeta|tau|) sin(delta|tau|),
    ``g2zero`` is the unnormalized zero-delay value (g1 evaluated at doubled
    beta), and ``g1`` the weak-drive transmission, clamped at zero as in
    :func:`g1_general`. The cosine weight follows from continuity at tau = 0
    as ``g2zero - g1^2 - A``.
    """

    A: float
    B: float
    g2zero: float
    g1: float


def g2_coefficients(delta, zeta, beta, phi) -> G2Coefficients:
    """Evaluate the weak-pump g2 coefficients; see :class:`G2Coefficients`."""
    phi = check_params(zeta, beta, phi)
    delta = np.asarray(delta, dtype=float)
    # the zeta = 2, delta = 0 decay-rate collision divides by zero; let it
    # propagate as inf rather than warn (documented out-of-domain corner)
    with np.errstate(divide="ignore", invalid="ignore"):
        A = _g2_decay_amplitude(delta, zeta, beta, phi)
        B = _g2_sin_amplitude(delta, zeta, beta, phi)
    g1 = np.maximum(_g1_formula(delta, zeta, beta, phi), 0.0)
    g20 = _g1_formula(delta, zeta, 2.0 * beta, phi)
    if delta.ndim == 0:
        return G2Coefficients(float(A), float(B), float(g20), float(g1))
    return G2Coefficients(A, B, g20, g1)


def detected_decay(a, tau, t_resp):
    """``exp(-a|tau|)`` convolved with a centred Gaussian of width ``t_resp``.

    ``a`` is real or complex with ``Re a > 0`` and broadcasts against
    ``tau``. With s = t_resp, t = |tau|, u = (a s^2 - t)/(sqrt(2) s),
    v = (a s^2 + t)/(sqrt(2) s) and g = exp(-t^2/(2 s^2)):

    * D = g/2 [erfcx(u) + erfcx(v)] where Re u >= 0;
    * D = exp(a^2 s^2/2 - a t) - g/2 [erfcx(-u) - erfcx(v)] elsewhere.

    Every erfcx argument has a non-negative real part, where |erfcx| <= 1,
    and the exponential is only taken where it is below 1 in modulus, so
    neither branch overflows. The g-terms are dropped where t >= 9 s
    (g < 3e-18). ``t_resp = 0`` gives ``exp(-a|tau|)`` exactly.
    """
    t = np.abs(np.asarray(tau, dtype=float))
    if t_resp == 0.0:
        return np.exp(-a * t)
    s2, r2s = t_resp * t_resp, np.sqrt(2.0) * t_resp
    a, t = np.broadcast_arrays(a, t)
    tail = t > np.real(a) * s2              # Re u < 0
    out = np.zeros(a.shape, dtype=np.result_type(a, float))
    out[tail] = np.exp(a[tail] * (0.5 * s2 * a[tail] - t[tail]))
    near = t < 9.0 * t_resp
    q, x = a[near] * (t_resp / np.sqrt(2.0)), t[near] / r2s   # u = q - x, v = q + x
    sign = np.where(tail[near], -1.0, 1.0)
    out[near] += 0.5 * np.exp(-x * x) * (erfcx(q + x) + sign * erfcx(sign * (q - x)))
    return out


def g2_tau_parts(tau, delta, zeta, beta, phi, t_resp=0.0):
    """Numerator and squared-transmission denominator of the weak-pump g2.

    Broadcasts ``tau`` against ``delta``. Returned separately so ensemble
    averaging can weight them independently before dividing; the
    denominator does not depend on ``tau`` and keeps the shape of ``delta``.

    The numerator is ``g1^2 + A D(2, tau) + Re[(C - iB) D(zeta - i delta,
    tau)]`` with ``C = g2zero - g1^2 - A`` (see :class:`G2Coefficients`),
    where ``D(a, tau)`` is ``exp(-a|tau|)`` seen by a detector of Gaussian
    response width ``t_resp`` (:func:`detected_decay`). ``t_resp = 0`` is
    the bare correlator.
    """
    if t_resp < 0:
        raise ValueError("t_resp must be non-negative")
    delta = np.asarray(delta, dtype=float)
    c = g2_coefficients(delta, zeta, beta, phi)
    g1sq = c.g1 * c.g1
    osc = (c.g2zero - g1sq - c.A - 1j * c.B) * detected_decay(
        zeta - 1j * delta, tau, t_resp)
    return g1sq + c.A * detected_decay(2.0, tau, t_resp) + osc.real, g1sq


def g2_tau_general(tau, delta, zeta, beta, phi):
    """Weak-pump g2 at reduced delay ``tau`` (symmetric in tau -> -tau).

    Normalized so g2 -> 1 at long delay. Where the weak-drive transmission
    vanishes (the Fano zero) the normalized value is ``inf``.
    """
    num, g1sq = g2_tau_parts(tau, delta, zeta, beta, phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / g1sq
    return float(out) if np.ndim(out) == 0 else out

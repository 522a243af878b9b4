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
the population and coherence decay rates collide, and lose digits near it.
That point lies inside the fit bounds; it has no regular rewrite yet, and
the strict xfail ``test_finite_at_the_rate_collision`` records it.

Derivatives for the fit come with the values they differentiate:
:func:`detected_decay` returns its partials from its own ``erfcx`` values
(erfcx'(z) = 2z erfcx(z) - 2/sqrt(pi)), and :func:`g2_tau_parts`
differentiates the rational coefficients by the complex step
(:func:`complex_step`), which is exact to rounding.
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
    term carries the sign of ``2*T0 - 1``, with T0 = cos(phi)^2.
    """

    product_term: float
    bound_term: float
    interference_term: float
    total: float


def g2zero_ideal(delta, phi) -> CorrelatorDecomposition:
    """Ideal-case g2(0) decomposition at reduced detuning ``delta``.

    The bare transmission is T0 = cos(phi)^2. At the transmission zero
    ``delta = -tan(phi)`` the bound term diverges; ``total`` is ``inf`` there.
    """
    phi = _check_phi(phi)
    T0 = np.cos(phi) ** 2
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
    delta = np.asarray(delta, dtype=float)
    out = np.maximum(_g1_formula(delta, zeta, beta, phi, alpha), 0.0)
    return float(out) if out.ndim == 0 else out


def _g1_formula(delta, zeta, beta, phi, alpha=0.0):
    # unvalidated core, analytic in every argument (complex step);
    # _coefficients also evaluates it at doubled beta
    D = zeta * alpha + zeta * zeta + delta * delta
    return (1.0 - 2.0 * beta * (zeta - delta * np.tan(phi)) / D
            + beta * beta * zeta / (np.cos(phi) ** 2 * D))


def complex_step(f, *args):
    """Partials of an analytic ``f(*args)``, stacked along a new last axis.

    Slice k of the stack moves argument k by h = 1e-20 along the imaginary
    axis; Im f(x + ih)/h is the derivative up to O(h^2), with no
    subtraction to lose digits (Squire & Trapp, SIAM Rev. 40, 1998), so the
    partials are exact to rounding.
    """
    push = 1e-20j * np.eye(len(args))
    return f(*(np.asarray(v)[..., None] + push[i]
               for i, v in enumerate(args))).imag / 1e-20


def _coefficients(delta, zeta, beta, phi):
    """A, B, g2zero and the unclamped g1 (see :class:`G2Coefficients`),
    stacked along a new last axis.

    Unvalidated and analytic in every argument (complex step). ``A`` and
    ``B`` share the rate-collision factor P = delta^2 + (zeta - 2)^2; ``B``
    is regular at delta = 0, where the sin factor supplies the odd symmetry.
    """
    d2, z = delta * delta, zeta
    P = d2 + (z - 2.0) ** 2
    cos4 = np.cos(phi) ** 4
    A = ((beta**4 * z * (2.0 - z)
          - 2.0 * beta**3 * delta * (z - 1.0) * np.sin(2.0 * phi))
         / (cos4 * (z * z + d2) * P))
    const = -delta * z * (4.0 * beta**2 * (z - 1.0) + (2.0 * beta - 1.0) * P)
    c2 = -2.0 * delta * z * (beta - 1.0) * P
    s2 = (2.0 * beta * (z * z * (z - 2.0) - d2 * (3.0 * z - 2.0))
          + z * z * (z - 2.0) ** 2 + 4.0 * d2 * (z - 1.0) - d2 * d2)
    c4 = delta * z * P
    s4 = (z * z - d2) * P / 2.0
    num = (const + c2 * np.cos(2.0 * phi) + s2 * np.sin(2.0 * phi)
           + c4 * np.cos(4.0 * phi) + s4 * np.sin(4.0 * phi))
    B = beta**2 * num / (cos4 * (z * z + d2) ** 2 * P)
    return np.stack([A, B, _g1_formula(delta, zeta, 2.0 * beta, phi),
                     _g1_formula(delta, zeta, beta, phi)], axis=-1)


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
    # propagate as inf rather than warn. It lies inside the fit bounds: see
    # the strict xfail test_finite_at_the_rate_collision
    with np.errstate(divide="ignore", invalid="ignore"):
        A, B, g20, g1 = np.moveaxis(_coefficients(delta, zeta, beta, phi), -1, 0)
    g1 = np.maximum(g1, 0.0)
    if delta.ndim == 0:
        return G2Coefficients(float(A), float(B), float(g20), float(g1))
    return G2Coefficients(A, B, g20, g1)


def _coefficient_partials(delta, zeta, beta, phi, g1):
    """Partials of A, B, g2zero and g1 along a last axis (delta, zeta, beta, phi)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        dA, dB, dg20, dg1 = np.moveaxis(
            complex_step(_coefficients, delta, zeta, beta, phi), -1, 0)
    # the clamped g1 is flat where the clamp acts
    return dA, dB, dg20, np.where(np.asarray(g1)[..., None] > 0.0, dg1, 0.0)


def detected_decay(a, tau, t_resp, partials=False):
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

    With ``partials``, returns ``(D, dD/da, dD/dt, dD/ds)``. Write
    D = (P_u + P_v)/2 with P_v = g erfcx(v) and P_u = 2D - P_v. Since
    erfc'(z) = -2 exp(-z^2)/sqrt(pi) (equivalently erfcx'(z) = 2z erfcx(z)
    - 2/sqrt(pi)) and exp(a^2 s^2/2 -+ a t - u^2 or v^2) = g, the partials
    reuse the erfcx values of D and need no new special function:

    * dD/dt = a (P_v - D);
    * dD/da = s k + t (P_v - D);
    * dD/ds = a k (the heat equation: d/ds = s d^2/dt^2 on a Gaussian
      convolution, and exp(-a|t|)'' = a^2 exp(-a|t|) - 2a delta(t)),

    with k = a s D - sqrt(2/pi) g. At ``t_resp = 0`` the t_resp partial is
    returned as zero (a zero width does not vary in the model).
    """
    t = np.abs(np.asarray(tau, dtype=float))
    if t_resp == 0.0:
        out = np.exp(-a * t)
        if not partials:
            return out
        return out, -t * out, -a * out, np.zeros_like(out)
    s2, r2s = t_resp * t_resp, np.sqrt(2.0) * t_resp
    a, t = np.broadcast_arrays(a, t)
    tail = t > np.real(a) * s2              # Re u < 0
    out = np.zeros(a.shape, dtype=np.result_type(a, float))
    out[tail] = np.exp(a[tail] * (0.5 * s2 * a[tail] - t[tail]))
    near = t < 9.0 * t_resp
    q, x = a[near] * (t_resp / np.sqrt(2.0)), t[near] / r2s   # u = q - x, v = q + x
    sign = np.where(tail[near], -1.0, 1.0)
    g, erfcx_v = np.exp(-x * x), erfcx(q + x)
    out[near] += 0.5 * g * (erfcx_v + sign * erfcx(sign * (q - x)))
    if not partials:
        return out
    gauss, p_v = np.zeros(t.shape), np.zeros_like(out)
    gauss[near], p_v[near] = g, g * erfcx_v
    k = a * t_resp * out - np.sqrt(2.0 / np.pi) * gauss
    return out, t_resp * k + t * (p_v - out), a * (p_v - out), a * k


def g2_tau_parts(tau, delta, zeta, beta, phi, t_resp=0.0, jac=False):
    """Numerator and squared-transmission denominator of the weak-pump g2.

    Broadcasts ``tau`` against ``delta``. Returned separately so ensemble
    averaging can weight them independently before dividing; the
    denominator does not depend on ``tau`` and keeps the shape of ``delta``.

    The numerator is ``g1^2 + A D(2, tau) + Re[(C - iB) D(zeta - i delta,
    tau)]`` with ``C = g2zero - g1^2 - A`` (see :class:`G2Coefficients`),
    where ``D(a, tau)`` is ``exp(-a|tau|)`` seen by a detector of Gaussian
    response width ``t_resp`` (:func:`detected_decay`). ``t_resp = 0`` is
    the bare correlator.

    With ``jac``, also returns the partials of the numerator with respect to
    (delta, zeta, beta, phi, tau, t_resp) and of the denominator with
    respect to (delta, zeta, beta, phi), each along a new last axis. The
    rational coefficients ``A``, ``B``, ``g2zero`` and ``g1`` are
    differentiated by the complex step (:func:`complex_step`), ``D`` in
    closed form; ``a = zeta - i delta`` gives dD/ddelta = -i dD/da.
    """
    if t_resp < 0:
        raise ValueError("t_resp must be non-negative")
    tau = np.asarray(tau, dtype=float)
    delta = np.asarray(delta, dtype=float)
    c = g2_coefficients(delta, zeta, beta, phi)
    g1sq = c.g1 * c.g1
    K = c.g2zero - g1sq - c.A - 1j * c.B
    decay = detected_decay(2.0, tau, t_resp, jac)
    osc = detected_decay(zeta - 1j * delta, tau, t_resp, jac)
    if not jac:
        return g1sq + c.A * decay + (K * osc).real, g1sq
    (decay, _, decay_t, decay_s), (osc, osc_a, osc_t, osc_s) = decay, osc
    num = g1sq + c.A * decay + (K * osc).real
    dA, dB, dg20, dg1 = _coefficient_partials(delta, zeta, beta, phi, c.g1)
    dg1sq = 2.0 * np.asarray(c.g1)[..., None] * dg1
    dK = dg20 - dg1sq - dA - 1j * dB
    dnum = (dg1sq + dA * decay[..., None]
            + (dK * osc[..., None]).real)           # (delta, zeta, beta, phi)
    K_osc_a = K * osc_a
    dnum[..., 0] += K_osc_a.imag
    dnum[..., 1] += K_osc_a.real
    dnum = np.concatenate([dnum, np.stack([c.A * decay_t + (K * osc_t).real,
                                           c.A * decay_s + (K * osc_s).real],
                                          axis=-1)], axis=-1)
    dnum[..., 4] *= np.sign(tau)                     # d|tau|/dtau
    return num, g1sq, dnum, dg1sq


def g2_tau_general(tau, delta, zeta, beta, phi):
    """Weak-pump g2 at reduced delay ``tau`` (symmetric in tau -> -tau).

    Normalized so g2 -> 1 at long delay. Where the weak-drive transmission
    vanishes (the Fano zero) the normalized value is ``inf``.
    """
    num, g1sq = g2_tau_parts(tau, delta, zeta, beta, phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / g1sq
    return float(out) if np.ndim(out) == 0 else out

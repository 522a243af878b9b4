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
the population and coherence decay rates collide, and lose digits near it;
there is no regular rewrite yet, and the strict xfail
``test_bare_closed_form_at_the_rate_collision`` records it. The averaged
curves never evaluate that point: the wandering lattice of
:mod:`fanostat.averaging` has its nodes at half steps, off delta = 0. That
lattice's step is set by the delays, not by zeta, because the average adds
the principal parts of g2's poles at delta = +-i zeta in closed form; their
coefficients (:func:`_pole_coefficients`) and the delay functions of the
numerator's residue (:func:`_residue_delays`) are here, regular at zeta = 1
where the collision poles meet them.

The model functions check their reduced arguments once, on entry, with
:func:`fanostat.params.check_reduced`; the underscore helpers are
unvalidated, for callers that have checked them.

Derivatives for the fit come with the values they differentiate:
:func:`detected_decay` returns its partials from its own ``erfcx`` values
(erfcx'(z) = 2z erfcx(z) - 2/sqrt(pi)), and :func:`g2_tau_parts`
differentiates the rational coefficients by the complex step
(:func:`complex_step`), which is exact to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfcx

from .params import check_reduced

# below this 2 zeta - 2 the divided difference D[2, 2 zeta] is a quadrature
# of dD/da, where the difference quotient would lose digits
DIVIDED_DIFFERENCE = 0.05
# the three-point Gauss-Legendre rule on [0, 1]: nodes and weights
GAUSS_LEGENDRE = (0.5 + np.array([-0.5, 0.0, 0.5]) * np.sqrt(0.6),
                  np.array([5.0, 8.0, 5.0]) / 18.0)


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
    delta = np.asarray(delta, dtype=float)
    check_reduced(phi=phi, delta=delta)
    T0 = np.cos(phi) ** 2
    u = T0 * (delta + np.tan(phi)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = 1.0 / (u * u)
        interference = 2.0 * (2.0 * T0 - 1.0) / u
        # on the zero itself the bound term dominates: +inf, not inf - inf
        total = np.where(u == 0.0, np.inf, 1.0 + bound + interference)
    if delta.ndim == 0:
        return CorrelatorDecomposition(1.0, float(bound), float(interference), float(total))
    return CorrelatorDecomposition(np.ones_like(total), bound, interference, total)


def g1_general(delta, zeta, beta, phi, alpha=0.0):
    """Normalized transmission with dephasing, finite beta, and finite drive.

    Parameters
    ----------
    delta : float or array
        Reduced laser-transition detuning.
    zeta : float
        Dephasing measure ``1 + 2*gamma_de/gamma`` (>= 1).
    beta : float or array
        Guided-mode coupling probability in [0, 1].
    phi : float or array
        Background phase, cos(phi) = t0. Arrays of ``beta`` and ``phi``
        are background fields that broadcast against ``delta``, the field
        axis first (``beta[:, None]`` for a sweep of detunings); each field
        equals the scalar call at that field, bit for bit.
    alpha : float, optional
        Reduced drive intensity; 0 is the weak-drive limit.

    Notes
    -----
    The emitter-scattering term carries a factor ``zeta`` in its numerator,
    ``beta^2 * zeta / (cos(phi)^2 * D)`` with ``D = zeta*alpha + zeta^2 +
    delta^2``. That factor is required for consistency with the equations of
    motion: the steady emitter population is ``zeta*alpha/2/D``, and the
    total transmitted intensity includes the incoherently scattered light.
    At zeta = beta = 1, alpha = 0 it reduces to the ideal lineshape
    (delta + tan(phi))^2 / (1 + delta^2).

    The result is an intensity ratio and is clamped at zero: on the ideal
    Fano zero (zeta = beta = 1, delta = -tan(phi)) rounding can leave the
    formula a few ulp below it.
    """
    delta = np.asarray(delta, dtype=float)
    check_reduced(zeta, beta, phi, alpha, delta=delta)
    out = np.maximum(_g1_formula(delta, zeta, beta, phi, alpha), 0.0)
    return float(out) if out.ndim == 0 else out


def _g1_formula(delta, zeta, beta, phi, alpha=0.0):
    # unvalidated core, analytic in every argument (complex step);
    # _coefficients also evaluates it at doubled beta
    D = zeta * alpha + zeta * zeta + delta * delta
    return (1.0 - 2.0 * beta * (zeta - delta * np.tan(phi)) / D
            + beta * beta * zeta / (_power(np.cos(phi), 2) * D))


def _power(x, n):
    """x**n, of a real array one element at a time: numpy's vectorized
    power can round differently from the pow a scalar takes, and each field
    of an array must equal that field alone, bit for bit. Complex arrays
    (the complex step) and scalars take x**n as they are."""
    if isinstance(x, np.ndarray) and x.dtype == float:
        return np.array([v**n for v in x.ravel().tolist()]).reshape(x.shape)
    return x**n


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
    """A, B, g2zero and the unclamped g1, stacked along a new last axis.

    ``A`` weights exp(-2|tau|), ``B`` weights exp(-zeta|tau|) sin(delta|tau|),
    ``g2zero`` is the unnormalized zero-delay value (g1 evaluated at doubled
    beta); the cosine weight follows from continuity at tau = 0 as
    ``g2zero - g1^2 - A``. Unvalidated and analytic in every argument
    (complex step). ``A`` and ``B`` share the rate-collision factor
    P = delta^2 + (zeta - 2)^2; ``B`` is regular at delta = 0, where the sin
    factor supplies the odd symmetry.
    """
    d2, z = delta * delta, zeta
    P = d2 + (z - 2.0) ** 2
    cos4 = _power(np.cos(phi), 4)
    A = ((_power(beta, 4) * z * (2.0 - z)
          - 2.0 * _power(beta, 3) * delta * (z - 1.0) * np.sin(2.0 * phi))
         / (cos4 * (z * z + d2) * P))
    const = -delta * z * (4.0 * _power(beta, 2) * (z - 1.0) + (2.0 * beta - 1.0) * P)
    c2 = -2.0 * delta * z * (beta - 1.0) * P
    s2 = (2.0 * beta * (z * z * (z - 2.0) - d2 * (3.0 * z - 2.0))
          + z * z * (z - 2.0) ** 2 + 4.0 * d2 * (z - 1.0) - d2 * d2)
    c4 = delta * z * P
    s4 = (z * z - d2) * P / 2.0
    num = (const + c2 * np.cos(2.0 * phi) + s2 * np.sin(2.0 * phi)
           + c4 * np.cos(4.0 * phi) + s4 * np.sin(4.0 * phi))
    B = _power(beta, 2) * num / (cos4 * (z * z + d2) ** 2 * P)
    return np.stack([A, B, _g1_formula(delta, zeta, 2.0 * beta, phi),
                     _g1_formula(delta, zeta, beta, phi)], axis=-1)


def _clamped_coefficients(delta, zeta, beta, phi):
    """A, B, g2zero and g1 clamped at zero, unvalidated. The decay-rate
    collision zeta = 2, delta = 0 divides by zero: inf, not a warning (see
    test_bare_closed_form_at_the_rate_collision)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        A, B, g20, g1 = np.moveaxis(_coefficients(delta, zeta, beta, phi), -1, 0)
    return A, B, g20, np.maximum(g1, 0.0)


def _coefficient_partials(delta, zeta, beta, phi, g1, along_delta=True):
    """Partials of A, B, g2zero and g1 along a last axis (delta, zeta, beta,
    phi), or (zeta, beta, phi) without ``along_delta``."""
    def at_delta(*args):
        return _coefficients(np.asarray(delta)[..., None], *args)

    with np.errstate(divide="ignore", invalid="ignore"):
        dA, dB, dg20, dg1 = np.moveaxis(
            complex_step(_coefficients, delta, zeta, beta, phi) if along_delta
            else complex_step(at_delta, zeta, beta, phi), -1, 0)
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

    The numerator is ``g1^2 + A D(2, tau) + Re[K D(zeta - i delta, tau)]``
    with ``K = C - iB`` and ``C = g2zero - g1^2 - A`` (see
    :func:`_coefficients`), where ``D(a, tau)`` is ``exp(-a|tau|)`` seen by
    a detector of Gaussian response width ``t_resp`` (:func:`detected_decay`).
    ``t_resp = 0`` is the bare correlator.

    With ``jac``, also returns the partials of the numerator with respect to
    (delta, zeta, beta, phi, tau, t_resp) and of the denominator with
    respect to (delta, zeta, beta, phi), each along a new last axis. The
    rational coefficients ``A``, ``B``, ``g2zero`` and ``g1`` are
    differentiated by the complex step (:func:`complex_step`), ``D`` in
    closed form; ``a = zeta - i delta`` gives dD/ddelta = -i dD/da.
    """
    delta = np.asarray(delta, dtype=float)
    check_reduced(zeta, beta, phi, t_resp=t_resp, delta=delta, tau=tau)
    return _g2_sums(tau, delta, zeta, beta, phi, t_resp, jac)


def _g2_sums(tau, x, zeta, beta, phi, t_resp, jac, weights=None):
    """:func:`g2_tau_parts` at detunings ``x``, or its sums over nodes.

    With ``weights`` (n, N), ``x`` is a column of N nodes and ``tau`` 1-d;
    each row sums the node terms into one detuning's average, of shape
    (n, len(tau)) and (n, 1) for the denominator. ``g1^2`` and ``A`` are
    summed per node and ``D(2, tau)`` depends on the delay alone, so only
    ``Re[K D(zeta - i x, tau)]`` and its partials are evaluated per delay and
    node, each reduced by one product with the weights. With ``jac`` the
    weights are stacked with their detuning and width derivatives to
    (3, n, N), whose sums of the node terms give the delta and sigma
    partials: the numerator's are along (delta, zeta, beta, phi, tau,
    t_resp, sigma) and the denominator's along (delta, zeta, beta, phi,
    sigma). Unvalidated: its callers have checked the parameters.
    """
    A, B, g20, g1 = _clamped_coefficients(x, zeta, beta, phi)
    g1sq = g1 * g1
    K = g20 - g1sq - A - 1j * B
    decay = detected_decay(2.0, tau, t_resp, jac)
    osc = detected_decay(zeta - 1j * x, tau, t_resp, jac)
    if jac:
        (decay, _, decay_t, decay_s), (osc, osc_a, osc_t, osc_s) = decay, osc

    def total(v):   # with jac and weights, also the delta and sigma partials
        return v if weights is None else weights @ v

    den = total(g1sq)
    num = den + total(A) * decay + total((K * osc).real)
    if not jac:
        return num, den

    # on a lattice the delta partials come from the weights, not the nodes
    dA, dB, dg20, dg1 = _coefficient_partials(x, zeta, beta, phi, g1, weights is None)
    dg1sq = 2.0 * np.asarray(g1)[..., None] * dg1
    dK = dg20 - dg1sq - dA - 1j * dB
    K_osc_a = K * osc_a

    def node_sum(v):
        return v if weights is None else weights[0] @ v

    # along the coefficient arguments: the node sums of dg1^2 and dA, and
    # per delay those of Re[dK D]; then Re[K dD/da], Re[K dD/dt] and
    # Re[K dD/ds]. Each (nodes x delays) term is contracted as it is formed,
    # so that at a fit's sizes (58 x 49, 45 KB a term) every temporary stays
    # under glibc's 128 KB mmap threshold, whatever earlier allocations
    # raised or left it. Stacked, the six came to 273 KB, and 136 KB more
    # for the copy of their real part: mapped and unmapped on each
    # evaluation unless an import had happened to raise the threshold.
    n = dK.shape[-1]
    dg1sq_sum, dA_sum = node_sum(np.moveaxis(np.stack([dg1sq, dA]), -1, 1))
    terms = [node_sum((dK[..., i] * osc).real) for i in range(n)]
    terms += [node_sum(K_osc_a.real), node_sum((K * osc_t).real),
              node_sum((K * osc_s).real)]
    dnum = [dg1sq_sum[i] + dA_sum[i] * decay + terms[i] for i in range(n)]
    A = node_sum(A)     # summed over the nodes
    dnum[n - 3] = dnum[n - 3] + terms[n]        # zeta
    dnum += [(A * decay_t + terms[n + 1]) * np.sign(tau),  # d|tau|/dtau
             A * decay_s + terms[n + 2]]
    dden = list(dg1sq_sum)
    if weights is None:
        dnum[0] = dnum[0] + K_osc_a.imag
    else:
        (num, dnum_delta, dnum_sigma), (den, dden_delta, dden_sigma) = num, den
        dnum = [dnum_delta, *dnum, dnum_sigma]
        dden = [dden_delta, *dden, dden_sigma]
    return num, den, np.stack(dnum, axis=-1), np.stack(dden, axis=-1)


def _g1_residue(zeta, beta, phi, alpha=0.0):
    """Real and imaginary part of the residue r of g1 at its pole delta = iG,
    G = sqrt(zeta^2 + zeta alpha): g1 = 1 + r/(delta - iG) + (its mirror at
    -iG), with r = beta tan(phi) + i beta (1 - beta sec^2(phi)/2) zeta/G.
    zeta/G is written 1/sqrt(1 + alpha/zeta), which is exactly 1 at
    alpha = 0. Real and analytic in every argument, for the complex step.
    """
    t = np.tan(phi)
    return np.array([beta * t, beta * (1.0 - 0.5 * beta * (1.0 + t * t))
                     / np.sqrt(1.0 + alpha / zeta)])


def _pole_coefficients(zeta, beta, phi):
    """Coefficients of the principal parts of the weak-pump g2 at the pole
    delta = i zeta, as their real and imaginary parts (2, 7): the five c_j
    of the numerator's residue sum_j c_j F_j(tau) (see
    :func:`_residue_delays`), then the residue and the double-pole
    coefficient of the denominator g1^2.

    Continued to complex delta, the numerator is N = g1^2 + A D(2, tau) +
    [K D(zeta - i delta, tau) + K~ D(zeta + i delta, tau)]/2 with
    K~ = g2zero - g1^2 - A + iB. Near i zeta, D(zeta - i delta) tends to
    D(2 zeta) and D(zeta + i delta) to D(0) = 1. g1 = 1 + g/(delta - i zeta)
    + (its mirror at -i zeta), with g the residue of :func:`_g1_residue` at
    alpha = 0, so g1^2 has the double pole g^2, which K~
    doubles (its coefficient is -2 g^2) and K cancels, so that N's poles are
    simple. The residues of A and K carry 1/(zeta - 1), where the collision
    poles +-i(zeta - 2) of A and B meet +-i zeta; they pair into the
    divided difference D[2, 2 zeta], which leaves every coefficient regular
    on zeta >= 1 (derived with sympy). Real and analytic in every argument,
    for the complex step.
    """
    t = np.tan(phi)
    sec2 = 1.0 + t * t
    re, im = _g1_residue(zeta, beta, phi)                    # g, the residue of g1
    g1sq = 2.0 * im - (re * re + im * im) / zeta               # Im of g1^2's residue
    half = beta * (1.0 - beta * sec2) - 0.5 * g1sq              # Im of (g2zero's - g1sq)/2
    A = (0.5 * beta**3 * sec2 * t, -0.125 * (beta * beta * sec2) ** 2)
    zero = 0.0 * re         # of the arguments' shape, as the complex step needs
    return np.stack([
        [2.0 * re - A[0], zero, A[0], zero, 2.0 * re * im, 2.0 * re,
         re * re - im * im],
        [g1sq + half - A[1], half, A[1], 2.0 * A[1], im * im - re * re, g1sq,
         2.0 * re * im]])


def _residue_delays(tau, zeta, t_resp, jac=False):
    """The delay functions F_j of the numerator's residue at delta = i zeta:
    1, D(2 zeta), D(2), the divided difference D[2, 2 zeta] =
    (D(2) - D(2 zeta))/(2 - 2 zeta) and dD/da at a = 0, which is
    -E|tau + t_resp n| over a standard normal n; shape (5, len(tau)) for
    the 1-d delays ``tau``.

    With ``jac``, also their partials in (zeta, tau, t_resp), stacked to
    (3, 5, len(tau)). Where 2 zeta - 2 < :data:`DIVIDED_DIFFERENCE`, the
    difference quotient would cancel, and D[2, 2 zeta] is the mean of dD/da
    over [2, 2 zeta] by the three-point Gauss-Legendre rule (error below
    3e-6 (2 zeta - 2)^6); its partials then take the second partials of D,
    which follow from the first by the relations behind
    :func:`detected_decay`'s.
    """
    t = np.abs(tau)
    s, h = t_resp, 2.0 * zeta - 2.0
    near = h < DIVIDED_DIFFERENCE
    a = np.concatenate([[2.0 * zeta, 2.0], 2.0 + GAUSS_LEGENDRE[0] * h if near else []])
    D, D_a, D_t, D_s = detected_decay(a[:, None], t, s, True)
    F = np.empty((5, t.size))
    dF = np.zeros((3, 5, t.size))
    F[0], F[1], F[2] = 1.0, D[0], D[1]
    dF[0, 1], dF[1, 1:3], dF[2, 1:3] = 2.0 * D_a[0], D_t[:2], D_s[:2]
    if near:
        e, e_a, e_t, e_s, a = D[2:], D_a[2:], D_t[2:], D_s[2:], a[2:, None]
        F[3] = GAUSS_LEGENDRE[1] @ e_a
        if jac:
            dF[:, 3] = GAUSS_LEGENDRE[1] @ np.stack([
                2.0 * GAUSS_LEGENDRE[0][:, None]
                * (t * t * e + s * s * (e + a * e_a + t * e_t)),
                e_t / a + a * (t * e + s * s * e_t), e_s / a + a * s * (e + a * e_a)])
    else:
        F[3] = (D[1] - D[0]) / -h
        dF[:, 3] = 2.0 * (F[3] - D_a[0]), D_t[1] - D_t[0], D_s[1] - D_s[0]
        dF[:, 3] /= -h
    if s > 0.0:
        g, erf_t = np.exp(-0.5 * (t / s) ** 2), erf(t / (np.sqrt(2.0) * s))
    else:
        g, erf_t = 0.0, 1.0
    F[4] = -s * np.sqrt(2.0 / np.pi) * g - t * erf_t
    if not jac:
        return F
    dF[1, 4], dF[2, 4] = -erf_t, -np.sqrt(2.0 / np.pi) * g
    dF[1] *= np.sign(tau)       # d|tau|/dtau
    return F, dF


def g2_tau_general(tau, delta, zeta, beta, phi):
    """Weak-pump g2 at reduced delay ``tau`` (symmetric in tau -> -tau).

    Normalized so g2 -> 1 at long delay. Where the weak-drive transmission
    vanishes (the Fano zero) the normalized value is ``inf``. ``tau``
    broadcasts against ``delta``; ``beta`` and ``phi`` may be arrays of
    background fields, as in :func:`g1_general`, the field axis first
    (``beta[:, None, None]`` against ``delta[:, None]`` and a 1-d ``tau``),
    which share the delay functions D(2, tau) and D(zeta - i delta, tau);
    each field equals the scalar call at that field, bit for bit.
    """
    num, g1sq = g2_tau_parts(tau, delta, zeta, beta, phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / g1sq
    return float(out) if np.ndim(out) == 0 else out

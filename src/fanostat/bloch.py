"""Numerical ground truth: driven two-level dynamics and output correlators.

This module never touches the closed-form correlators. It propagates the
linear rotating-frame equations of motion for the emitter averages exactly:
the Bloch matrix is brought to complex Schur form once, and the exponential
of its 3x3 triangular factor is closed form, with divided differences of
exp(lambda*tau) off the diagonal (a short series where all three eigenvalues
meet). That exponential is never built as a matrix: it is applied to each
regression vector by back substitution over its three components, from the
three diagonal exponentials, each taken once, and the three entries above
the diagonal. It then applies the regression rule (two-time correlators
obey the same linear system, with the inhomogeneous term scaled by the
equal-time expectation of the sandwich operators) and assembles the
transmitted-field correlators from the input-output relation
``c_out = t0*c_in + d*sigma_minus``.

Every function works on a detuning sweep: a 1-d array of n detunings at
one (zeta, alpha). The n Bloch matrices are stacked into an (n, 3, 3)
array, their stationary states come from one batched solve, and the
propagation runs over a leading point axis; only the Schur form is taken
one matrix at a time. Each point is computed with the same elementwise
operations as it would be alone, so a sweep equals its points solved one by
one, bit for bit.

The background (phi, beta) changes no emitter dynamics: the scaled system
below is free of both, which enter only the input-output assembly through
the field ratio c. So one sweep serves k background fields at once: given
phi and beta as equal-length 1-d arrays, :func:`output_correlators` and
:func:`output_g1` solve and propagate each detuning once and assemble every
field from the same moments, each with its own scalars c, |c|^2, c^2 and
|c|^4, so a field of a sweep equals that field alone, bit for bit.
:func:`output_correlators` returns g1 and g2 of a sweep from one stationary
solve per point; :func:`output_g1` is the stationary part alone. Both take
the domain of the closed forms they are compared against
(:func:`fanostat.params.check_reduced`).

Reduced units as elsewhere: time in 2/gamma, so the population decays at
rate 2 and the coherence at rate zeta; the drive amplitude is
``g = i*exp(i*phi/2)*sqrt(alpha/2)``.

The state is written in the basis (sigma_-, sigma_+, n), with
n = sigma_+ sigma_- the population, and scaled by D = diag(g, conj(g), |g|^2):
x = <sigma_->/g, y = <sigma_+>/conj(g) and m = n/|g|^2. Then

    d/dtau (x, y, m) = M (x, y, m) + b,
    M = [[i*delta - zeta, 0, -alpha], [0, -i*delta - zeta, -alpha], [1, 1, -2]],
    b = (1, 1, 0),

so the drive enters only through alpha, alpha = 0 (the weak-drive limit) is
a regular point, and no component is a small difference of order-one
numbers. The emitter field relative to the background, kappa*sigma_- with
kappa = d/(t0*alpha_in), becomes c*x with c = kappa*g = -exp(i*phi)*beta/t0,
free of alpha. The regression initial conditions are constants of this basis,
since sigma_- sigma_- = 0, sigma_+ sigma_- = n and n sigma_- = 0.

``scipy.linalg`` is imported by the first Schur form, through the
module-level :func:`schur`, which is the name that tests patch; a scan never
loads it.
"""

from __future__ import annotations

import math

import numpy as np

from .params import check_reduced

# Delays at which all three eigenvalues lie within SERIES_SPREAD / tau take
# the series for the second divided difference, summed to h_(SERIES_TERMS-1):
# it is then truncated below 1e-20 relative, and the divided-difference
# quotient elsewhere loses at most about 4*eps/SERIES_SPREAD (1e-14 relative
# against a 50-digit reference) to cancellation.
SERIES_SPREAD = 0.2
SERIES_TERMS = 13


def bloch_matrix(deltas, zeta, alpha):
    """Scaled linear systems (M, b), d/dtau (x, y, m) = M v + b, one per
    detuning: M has shape (n, 3, 3) and b, shared, shape (3,)."""
    deltas = np.asarray(deltas, dtype=float)
    M = np.zeros((deltas.size, 3, 3), dtype=complex)
    M[:, 0, 0] = 1j * deltas - zeta
    M[:, 1, 1] = -1j * deltas - zeta
    M[:, :2, 2] = -alpha
    M[:, 2] = (1.0, 1.0, -2.0)
    return M, np.array([1.0, 1.0, 0.0], dtype=complex)


def steady_state(M, b):
    """Stationary scaled averages (x, y, m) of each system, shape (n, 3).

    One batched solve of M v = -b. x = <sigma_->/g and m = n/|g|^2; at
    alpha = 0 they are the linear response x = 1/(zeta - i*delta), m = Re(x).
    Every point is checked for its residual and its conjugation symmetry.
    """
    try:
        v = np.linalg.solve(M, -b[:, None])[..., 0]
    except np.linalg.LinAlgError as err:
        raise ValueError("stationary system is singular") from err
    residual = float(np.max(np.abs(_matvec(M, v) + b)))
    if residual > 1e-12:
        raise ValueError(f"stationary residual too large: {residual:.2e}")
    if (np.max(np.abs(v[:, 2].imag)) > 1e-12
            or np.max(np.abs(np.conj(v[:, 0]) - v[:, 1])) > 1e-10):
        raise ValueError("stationary solution violates conjugation symmetry")
    return v


def _divided_difference(la, lb, ea, eb, tau):
    """f[la, lb] of exp(lambda*tau) for each point and delay, shape
    (n, len(tau)), exact where la meets lb, from the exponentials
    ``ea`` = exp(la*tau) and ``eb`` = exp(lb*tau), shape (n, len(tau)).

    The factor taken out is the exponential with the larger real part, so
    exp(z) stays bounded by one. expm1(z)/z = 1 + z/2 + ... rounds to 1 for
    |z| below eps, where a complex division of subnormal numbers can
    overflow.
    """
    swap = la.real > lb.real
    la, lb = np.where(swap, lb, la), np.where(swap, la, lb)
    z = (la - lb)[:, None] * tau
    ratio = np.divide(np.expm1(z), z, out=np.ones_like(z),
                      where=np.abs(z) > np.finfo(float).eps)
    return np.where(swap[:, None], ea, eb) * tau * ratio


def _second_divided_difference(lam, tau, dd):
    """f[lam0, lam1, lam2] of exp(lambda*tau) for each point (a row of
    ``lam``, shape (n, 3)) and delay, from the first divided differences
    ``dd[i, j]`` (i < j).

    The difference is symmetric in its points, so each point divides by its
    pair with the largest separation and stays stable where two of them
    meet. Where all three lie within ``SERIES_SPREAD / tau`` it is the series
    about their mean mu, exp(mu*tau) * tau**2 * sum_k h_k(y) / (k+2)!, with
    y = (lam - mu)*tau and h_k the complete homogeneous sums (from e1 = 0,
    h_k = e3*h_(k-3) - e2*h_(k-2)); |y| <= SERIES_SPREAD there, so no term
    overflows however far apart the eigenvalues are.
    """
    # f[a, b, c] = (f[a, b] - f[b, c]) / (lam_a - lam_c) in any order of the
    # points: (divisor pair (a, c), (a, b), (b, c)) for b = 1, 2, 0
    orders = (((0, 2), (0, 1), (1, 2)), ((0, 1), (0, 2), (1, 2)),
              ((1, 2), (0, 1), (0, 2)))
    gaps = np.stack([lam[:, i] - lam[:, j] for (i, j), _, _ in orders], axis=1)
    pick = np.argmax(np.abs(gaps), axis=1)
    rows = np.arange(len(lam))
    gap = gaps[rows, pick][:, None]
    diffs = np.stack([dd[p] - dd[q] for _, p, q in orders])[pick, rows]
    near = np.abs(gap) * tau <= SERIES_SPREAD
    # the divisor is zero where all three eigenvalues coincide; near holds
    # every delay of such a point, so it is never divided by
    f = np.divide(diffs, gap, out=np.empty_like(diffs), where=~near)
    if not near.any():
        return f
    mu = lam.mean(axis=1)
    point = np.nonzero(near)[0]
    t = np.broadcast_to(tau, near.shape)[near]
    y = (lam - mu[:, None])[point] * t[:, None]
    e2 = y[:, 0] * y[:, 1] + y[:, 0] * y[:, 2] + y[:, 1] * y[:, 2]
    e3 = y[:, 0] * y[:, 1] * y[:, 2]
    h = [1.0, 0.0, -e2]
    for k in range(3, SERIES_TERMS):
        h.append(e3 * h[k - 3] - e2 * h[k - 2])
    f[near] = (np.exp(mu[point] * t) * t * t
               * sum(hk / math.factorial(k + 2) for k, hk in enumerate(h)))
    return f


def _apply_exp_triangular(T, tau, w):
    """exp(T*tau) w for each upper-triangular 3x3 T[p] and each of its k
    vectors w[p], shape (n, k, 3), as its three components (y0, y1, y2),
    each of shape (n, k, len(tau)).

    exp(T*tau) is upper triangular: exp(lambda_i*tau) on the diagonal and
    divided differences above it. Each exp(lambda_i*tau) is taken once, and
    the product is the back substitution y2 = E2 w2, y1 = E1 w1 + F12 w2,
    y0 = E0 w0 + F01 w1 + F02 w2, the terms of the full matrix-vector
    product in the same order, less its exact zeros.
    """
    lam = np.diagonal(T, axis1=1, axis2=2)
    E = np.exp(lam[:, :, None] * tau)
    dd = {(i, j): _divided_difference(lam[:, i], lam[:, j], E[:, i], E[:, j], tau)
          for i, j in ((0, 1), (1, 2), (0, 2))}
    F01 = T[:, 0, 1, None] * dd[0, 1]
    F12 = T[:, 1, 2, None] * dd[1, 2]
    F02 = (T[:, 0, 2, None] * dd[0, 2] + (T[:, 0, 1] * T[:, 1, 2])[:, None]
           * _second_divided_difference(lam, tau, dd))
    E, F01, F12, F02 = E[:, None], F01[:, None], F12[:, None], F02[:, None]
    w0, w1, w2 = (w[:, :, i, None] for i in range(3))
    return (E[:, :, 0] * w0 + F01 * w1 + F02 * w2, E[:, :, 1] * w1 + F12 * w2,
            E[:, :, 2] * w2)


def _matvec(A, x):
    """A @ x over the last axes as elementwise products summed in a fixed
    order, so each vector of a batch is computed as it would be alone."""
    return A[..., 0] * x[..., :1] + A[..., 1] * x[..., 1:2] + A[..., 2] * x[..., 2:]


def schur(*args, **kwargs):
    """:func:`scipy.linalg.schur`, imported on the first call."""
    from scipy.linalg import schur
    return schur(*args, **kwargs)


def propagate_exact(initials, identities, tau, M, b):
    """Exact propagation of scaled regression vectors to every delay.

    ``M``, shape (n, 3, 3), and ``b`` are the n systems of
    :func:`bloch_matrix`. ``initials`` has shape (n, k, 3): the scaled
    components (x, y, m) of each point's k vectors at tau = 0.
    ``identities`` has shape (n, k): each vector's scaled <L R>, which
    multiplies the inhomogeneous term b (the regression rule; 1 for a
    one-time state). ``tau`` is a non-empty 1-d array of finite,
    non-negative reduced delays. The system is linear, so
    v(tau) = v_inf + Q exp(T tau) Q^H (v0 - v_inf), with M = Q T Q^H the
    complex Schur form of each Bloch matrix. exp(T tau) has exp(lambda_i tau)
    on its diagonal and divided differences of exp(lambda tau) above it,
    with a series for the second one where all three eigenvalues meet; the
    unitary Q keeps this exact at exceptional points, where M has no
    eigenbasis. exp(T tau) is applied to w = Q^H (v0 - v_inf) by back
    substitution, y2 = E2 w2, y1 = E1 w1 + F12 w2 and y0 = E0 w0 + F01 w1 +
    F02 w2, and v(tau) - v_inf = Q y over the three components: the
    products of the full matrix-vector products, in their order, less the
    exact zeros below the diagonal, so the (n, len(tau), 3, 3) matrix is
    never formed. Returns an array of shape (n, k, 3, len(tau)).

    Where the drive is so strong that the propagation overflows, it raises
    ``ValueError``.
    """
    tau = np.asarray(tau, dtype=float)
    if (tau.ndim != 1 or tau.size == 0 or not np.all(np.isfinite(tau))
            or np.any(tau < 0)):
        raise ValueError("tau must be a non-empty 1-d array of finite "
                         "non-negative delays")
    v0 = np.asarray(initials, dtype=complex)
    ident = np.asarray(identities, dtype=complex)
    if (v0.ndim != 3 or v0.shape[2] != 3 or ident.shape != v0.shape[:2]
            or M.shape != (len(v0), 3, 3)):
        raise ValueError("initials must have shape (n, k, 3), identities "
                         "(n, k) and M (n, 3, 3)")
    vinf = np.linalg.solve(M, -b[:, None] * ident[:, None, :]).transpose(0, 2, 1)
    T, Q = map(np.array, zip(*[schur(m, output="complex") for m in M]))
    with np.errstate(over="ignore", invalid="ignore"):
        w = _matvec(Q.conj().transpose(0, 2, 1)[:, None], v0 - vinf)  # Q^H (v0 - v_inf)
        y0, y1, y2 = (y[:, :, None] for y in _apply_exp_triangular(T, tau, w))
        Q = Q[:, None, :, :, None]
        v = Q[..., 0, :] * y0 + Q[..., 1, :] * y1 + Q[..., 2, :] * y2     # Q y
    if not np.all(np.isfinite(v)):
        raise ValueError("regression propagation overflowed: the drive is "
                         "too strong for double precision")
    return vinf[..., None] + v


def _fields(phi, beta):
    """The background fields (phi, beta) as two lists of k Python floats,
    and whether they were given as scalars."""
    phi, beta = np.asarray(phi, dtype=float), np.asarray(beta, dtype=float)
    if phi.shape != beta.shape or phi.ndim > 1:
        raise ValueError("phi and beta must be two scalars or two 1-d arrays "
                         f"of equal length; got shapes {phi.shape} and {beta.shape}")
    return phi.ndim == 0, phi.ravel().tolist(), beta.ravel().tolist()


def _stationary(deltas, zeta, alpha, phi, beta):
    """Bloch systems (M, b) and scaled steady states v = (x, y, m) of each
    detuning, the field ratios c = kappa*g and |c|^2 of each background
    field, g1 of each field and detuning, shape (k, n), and whether the
    fields were given as scalars.

    M and v depend on (zeta, alpha) alone, so they are solved once for every
    field. g1 = 1 + 2*Re(c*x) + |c|^2*m is an intensity ratio, clamped at
    zero like the closed form: on the ideal Fano zero at alpha = 0 rounding
    can leave it a few ulp below.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValueError("deltas must be a non-empty 1-d array of detunings")
    scalar, phis, betas = _fields(phi, beta)
    check_reduced(zeta, np.array(betas), np.array(phis), alpha, delta=deltas)
    M, b = bloch_matrix(deltas, zeta, alpha)
    v = steady_state(M, b)
    # each field's scalars are taken one at a time: abs(c)**2 and c**2 of
    # an array may round differently from those of its elements
    c = [-np.exp(1j * p) * bt / math.cos(p) for p, bt in zip(phis, betas)]
    c2 = [abs(ck) ** 2 for ck in c]
    g1 = np.maximum(1.0 + 2.0 * np.real(np.array(c)[:, None] * v[:, 0])
                    + np.array(c2)[:, None] * np.real(v[:, 2]), 0.0)
    return M, b, v, c, c2, g1, scalar


def output_g1(deltas, zeta, alpha, phi, beta):
    """Stationary normalized transmission of each detuning, assembled from
    the steady-state moments: shape (n,) for scalar ``phi`` and ``beta``,
    (k, n) for k fields given as 1-d arrays, which share one stationary
    solve per detuning."""
    *_, g1, scalar = _stationary(deltas, zeta, alpha, phi, beta)
    return g1[0] if scalar else g1


def output_correlators(tau, deltas, zeta, alpha, phi, beta):
    """Normalized transmission and two-time intensity correlator of the
    transmitted field over a detuning sweep: (g1, g2), shapes (n,) and
    (n, len(tau)) for scalar ``phi`` and ``beta``, or (k, n) and
    (k, n, len(tau)) for k background fields given as 1-d arrays.

    Solves each stationary state once, propagates the two regression vectors
    of every point exactly over ``tau`` (reduced units, non-negative) and
    assembles the normally ordered four-point correlator; g2 is normalized
    by the squared stationary intensity so it approaches 1 at long delay.
    The stationary solve and the propagation are free of phi and beta, so
    the k fields share them and differ only in the assembly. The
    propagation adds only rounding, so at alpha = 0 this is the weak-drive
    limit itself, and at finite alpha the difference from the closed form
    is the physical finite-drive term. Where the transmission vanishes g2 is
    inf, as in the closed form.
    """
    M, b, v, c, c2, g1, scalar = _stationary(deltas, zeta, alpha, phi, beta)
    x, m = v[:, 0], v[:, 2]
    # u = <sigma_l(t+tau) sigma_-(t)> / (g D_l) starts at (0, m, 0) with
    # identity <sigma_->/g = x; v = <sigma_+ sigma_l(t+tau) sigma_-> /
    # (|g|^2 D_l) starts at 0 with identity n/|g|^2 = m
    initials = np.zeros((len(v), 2, 3), dtype=complex)
    initials[:, 0, 1] = m
    (um, up, un), (vm, _vp, vn) = propagate_exact(
        initials, np.stack([x, m], axis=-1), tau, M, b).transpose(1, 2, 0, 3)

    # field scalars on a leading field axis, broadcast over (point, delay)
    x, m = x[:, None], np.real(m)[:, None]
    c, c2, csq, c4 = (np.array(s)[:, None, None] for s in
                      (c, c2, [ck**2 for ck in c], [a**2 for a in c2]))
    G = (1.0
         + 4.0 * np.real(c * x)
         + 2.0 * c2 * m
         + 2.0 * np.real(csq * um)
         + 2.0 * c2 * np.real(up)
         + 2.0 * c2 * np.real(c * un)
         + 2.0 * c2 * np.real(c * vm)
         + c4 * np.real(vn))
    imag_defect = float(np.max(np.abs(np.imag(vn))))
    if imag_defect > 1e-8:
        raise RuntimeError(f"sandwich correlator not real: {imag_defect:.2e}")

    with np.errstate(divide="ignore"):
        g2 = G / g1[..., None] ** 2
    if np.any(g2 < -1e-8):
        raise RuntimeError("negative correlator beyond tolerance: propagation fault")
    return (g1[0], g2[0]) if scalar else (g1, g2)

"""Numerical ground truth: driven two-level dynamics and output correlators.

This module never touches the closed-form correlators. It propagates the
linear rotating-frame equations of motion for the emitter averages exactly:
the Bloch matrix is brought to complex Schur form once, and the exponential
of its 3x3 triangular factor is closed form, with divided differences of
exp(lambda*tau) off the diagonal (a short series where all three eigenvalues
meet). It then applies the regression rule (two-time correlators obey the
same linear system, with the inhomogeneous term scaled by the equal-time
expectation of the sandwich operators) and assembles the
transmitted-field correlators from the input-output relation
``c_out = t0*c_in + d*sigma_minus``.

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
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import schur

from .params import DimensionlessParams

# Delays at which all three eigenvalues lie within SERIES_SPREAD / tau take
# the series for the second divided difference, summed to h_(SERIES_TERMS-1):
# it is then truncated below 1e-20 relative, and the divided-difference
# quotient elsewhere loses at most about 4*eps/SERIES_SPREAD (1e-14 relative
# against a 50-digit reference) to cancellation.
SERIES_SPREAD = 0.2
SERIES_TERMS = 13


def bloch_matrix(params: DimensionlessParams):
    """Scaled linear system (M, b) with d/dtau (x, y, m) = M v + b."""
    dlt, z, a = params.delta, params.zeta, params.alpha
    M = np.array([
        [1j * dlt - z, 0.0, -a],
        [0.0, -1j * dlt - z, -a],
        [1.0, 1.0, -2.0],
    ], dtype=complex)
    b = np.array([1.0, 1.0, 0.0], dtype=complex)
    return M, b


def steady_state(params: DimensionlessParams):
    """Stationary scaled averages (x, y, m) as a complex array.

    x = <sigma_->/g and m = n/|g|^2; at alpha = 0 they are the linear
    response x = 1/(zeta - i*delta), m = Re(x).
    """
    M, b = bloch_matrix(params)
    try:
        v = np.linalg.solve(M, -b)
    except np.linalg.LinAlgError as err:
        raise ValueError("stationary system is singular") from err
    residual = float(np.max(np.abs(M @ v + b)))
    if residual > 1e-12:
        raise ValueError(f"stationary residual too large: {residual:.2e}")
    if abs(np.imag(v[2])) > 1e-12 or abs(np.conj(v[0]) - v[1]) > 1e-10:
        raise ValueError("stationary solution violates conjugation symmetry")
    return v


def _divided_difference(la, lb, tau):
    """f[la, lb] of exp(lambda*tau) at every tau, exact where la meets lb.

    The factor taken out is the exponential with the larger real part, so
    exp(z) stays bounded by one. expm1(z)/z = 1 + z/2 + ... rounds to 1 for
    |z| below eps, where a complex division of subnormal numbers can
    overflow.
    """
    if la.real > lb.real:
        la, lb = lb, la
    z = (la - lb) * tau
    ratio = np.divide(np.expm1(z), z, out=np.ones_like(z),
                      where=np.abs(z) > np.finfo(float).eps)
    return np.exp(lb * tau) * tau * ratio


def _second_divided_difference(lam, tau, dd):
    """f[lam0, lam1, lam2] of exp(lambda*tau) at every tau, from the first
    divided differences ``dd[i, j]`` (i < j).

    The difference is symmetric in its points, so it divides by the pair
    with the largest separation and stays stable where two of them meet.
    Where all three lie within ``SERIES_SPREAD / tau`` it is the series about
    their mean mu, exp(mu*tau) * sum_k h_k(lam - mu) * tau**(k+2) / (k+2)!,
    with h_k the complete homogeneous sums (from e1 = 0,
    h_k = e3*h_(k-3) - e2*h_(k-2)).
    """
    # f[a, b, c] = (f[a, b] - f[b, c]) / (lam_a - lam_c) in any order of the
    # points: (divisor pair (a, c), (a, b), (b, c)) for b = 1, 2, 0
    (i, j), p, q = max((((0, 2), (0, 1), (1, 2)), ((0, 1), (0, 2), (1, 2)),
                        ((1, 2), (0, 1), (0, 2))),
                       key=lambda r: abs(lam[r[0][0]] - lam[r[0][1]]))
    near = abs(lam[i] - lam[j]) * tau <= SERIES_SPREAD
    f = np.empty(tau.shape, dtype=complex)
    f[~near] = (dd[p][~near] - dd[q][~near]) / (lam[i] - lam[j])
    if not near.any():
        return f
    mu = lam.mean()
    x = lam - mu
    e2 = x[0] * x[1] + x[0] * x[2] + x[1] * x[2]
    e3 = x[0] * x[1] * x[2]
    h = [1.0, 0.0, -e2]
    for k in range(3, SERIES_TERMS):
        h.append(e3 * h[k - 3] - e2 * h[k - 2])
    t = tau[near]
    f[near] = np.exp(mu * t) * sum(hk * t ** (k + 2) / math.factorial(k + 2)
                                   for k, hk in enumerate(h))
    return f


def _exp_triangular(T, tau):
    """exp(T*tau) of an upper-triangular 3x3 T, shape (len(tau), 3, 3)."""
    lam = np.diag(T)
    dd = {(i, j): _divided_difference(lam[i], lam[j], tau)
          for i, j in ((0, 1), (1, 2), (0, 2))}
    F = np.zeros((tau.size, 3, 3), dtype=complex)
    for i in range(3):
        F[:, i, i] = np.exp(lam[i] * tau)
    F[:, 0, 1] = T[0, 1] * dd[0, 1]
    F[:, 1, 2] = T[1, 2] * dd[1, 2]
    F[:, 0, 2] = (T[0, 2] * dd[0, 2]
                  + T[0, 1] * T[1, 2] * _second_divided_difference(lam, tau, dd))
    return F


def _matvec(A, x):
    """A @ x over the last axes as elementwise products summed in a fixed
    order, so each vector of a batch is computed as it would be alone."""
    return A[..., 0] * x[..., :1] + A[..., 1] * x[..., 1:2] + A[..., 2] * x[..., 2:]


def propagate_exact(initials, identities, tau, params: DimensionlessParams):
    """Exact propagation of scaled regression vectors to every delay.

    ``initials`` has shape (k, 3): the scaled components (x, y, m) of each
    vector at tau = 0. ``identities`` has shape (k,): each vector's scaled
    <L R>, which multiplies the inhomogeneous term b (the regression rule;
    1 for a one-time state). ``tau`` is a 1-d array of finite, non-negative
    reduced delays. The system is linear, so
    v(tau) = v_inf + Q exp(T tau) Q^H (v0 - v_inf), with M = Q T Q^H the
    complex Schur form of the Bloch matrix. exp(T tau) has exp(lambda_i tau)
    on its diagonal and divided differences of exp(lambda tau) above it,
    with a series for the second one where all three eigenvalues meet; the
    unitary Q keeps this exact at exceptional points, where M has no
    eigenbasis. Returns an array of shape (k, 3, len(tau)): the components
    of each vector along the delays.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or not np.all(np.isfinite(tau)) or np.any(tau < 0):
        raise ValueError("tau must be a 1-d array of finite non-negative delays")
    v0 = np.asarray(initials, dtype=complex)
    ident = np.asarray(identities, dtype=complex)
    if v0.ndim != 2 or v0.shape[1] != 3 or ident.shape != v0.shape[:1]:
        raise ValueError("initials must have shape (k, 3) and identities (k,)")
    M, b = bloch_matrix(params)
    vinf = np.linalg.solve(M, -np.outer(b, ident)).T
    T, Q = schur(M, output="complex")
    w = _matvec(Q.conj().T, v0 - vinf)[:, None, :]     # Q^H (v0 - v_inf)
    v = _matvec(Q, _matvec(_exp_triangular(T, tau), w))
    return vinf[:, :, None] + v.transpose(0, 2, 1)


def _stationary(params: DimensionlessParams, beta):
    """Scaled steady state x and m, the field ratio c = kappa*g, and g1.

    g1 = 1 + 2*Re(c*x) + |c|^2*m is an intensity ratio, clamped at zero like
    the closed form: on the ideal Fano zero at alpha = 0 rounding can leave
    it a few ulp below.
    """
    x, _, m = steady_state(params)
    c = -np.exp(1j * params.phi) * beta / math.cos(params.phi)
    g1 = max(float(1.0 + 2.0 * np.real(c * x) + abs(c) ** 2 * np.real(m)), 0.0)
    return x, m, c, g1


def output_correlator_g1(params: DimensionlessParams, beta):
    """Stationary normalized transmission assembled from steady-state moments."""
    if beta == 0.0:
        return 1.0
    return _stationary(params, beta)[3]


def output_correlator_g2(tau_grid, params: DimensionlessParams, beta):
    """Normalized two-time intensity correlator of the transmitted field.

    Propagates the two regression vectors exactly over ``tau_grid`` (reduced
    units, non-negative) and assembles the normally ordered four-point
    correlator; the result is normalized by the squared stationary intensity
    so it approaches 1 at long delay. The propagation adds only rounding, so
    at alpha = 0 this is the weak-drive limit itself, and at finite alpha the
    difference from the closed form is the physical finite-drive term.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or tau_grid.size == 0:
        raise ValueError("tau_grid must be a non-empty 1-d array")
    if not np.all(np.isfinite(tau_grid)) or np.any(tau_grid < 0):
        raise ValueError("tau_grid must be finite and non-negative")
    if beta == 0.0:
        return np.ones_like(tau_grid)

    x, m, c, g1 = _stationary(params, beta)
    # u = <sigma_l(t+tau) sigma_-(t)> / (g D_l) starts at (0, m, 0) with
    # identity <sigma_->/g = x; v = <sigma_+ sigma_l(t+tau) sigma_-> /
    # (|g|^2 D_l) starts at 0 with identity n/|g|^2 = m
    (um, up, un), (vm, _vp, vn) = propagate_exact(
        [[0.0, m, 0.0], [0.0, 0.0, 0.0]], [x, m], tau_grid, params)

    m = np.real(m)
    c2 = abs(c) ** 2
    G = (1.0
         + 4.0 * np.real(c * x)
         + 2.0 * c2 * m
         + 2.0 * np.real(c**2 * um)
         + 2.0 * c2 * np.real(up)
         + 2.0 * c2 * np.real(c * un)
         + 2.0 * c2 * np.real(c * vm)
         + c2**2 * np.real(vn))
    imag_defect = float(np.max(np.abs(np.imag(vn))))
    if imag_defect > 1e-8:
        raise RuntimeError(f"sandwich correlator not real: {imag_defect:.2e}")

    # where the transmission vanishes g2 is inf, as in the closed form
    with np.errstate(divide="ignore"):
        g2 = G / g1**2
    if np.any(g2 < -1e-8):
        raise RuntimeError("negative correlator beyond tolerance: propagation fault")
    return g2

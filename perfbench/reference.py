"""Converged reference for the averaged and convolved model curves.

Built by brute force from the two closed forms of ``fanostat.correlators``
(``g1_general`` and ``g2_tau_parts``) and nothing else: no code from
``fanostat.averaging`` is used, so the reference does not move when the
averaging layer under test changes.

* Spectral wandering: the Gaussian average over the transition offset is a
  trapezoid sum on a uniform detuning lattice.  The integrands are analytic
  in a strip of half-width ~1 around the real axis (their poles sit at
  +-i*zeta and +-i*(zeta - 2)), so the rule converges like exp(-2*pi/h).
* Detector response: the Gaussian convolution over the delay is a composite
  Gauss-Legendre sum with a panel edge at zero delay, where g2 has its kink;
  each panel is then smooth and the rule converges spectrally.

Every public function evaluates at two resolutions (step and panel width
halved) and raises ``ReferenceNotConverged`` when the two differ by more
than ``TOLERANCE``; the finer result is returned.  Work is chunked so that
the reference never holds more than a few MB at once, below the program's
own peak, which ``peak_rss_mb`` measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fanostat.correlators import g1_general, g2_tau_parts
from fanostat.params import HBAR_UEV_PS

TOLERANCE = 1e-9
STEP = 0.15              # wandering lattice step at level 1 (reduced detuning)
SIGMA_STEPS = 3.0        # at least this many lattice steps per wandering sigma
TAIL = 9.0               # Gaussian support kept, in standard deviations
PANEL = 0.5              # delay panel width at level 1, in detector sigmas
GL_NODES = 10
CHUNK = 20_000           # closed-form evaluations per numpy call
BLOCK = 64               # detunings averaged together on one lattice


class ReferenceNotConverged(RuntimeError):
    """Halving the reference resolution moved its result by > TOLERANCE."""


@dataclass(frozen=True)
class Reduced:
    """Reduced quantities of a PhysicalParams, from the documented conventions."""

    omega0: float
    hbar_gamma: float
    lifetime: float
    zeta: float
    beta: float
    phi: float
    sigma: float
    t_resp: float

    @classmethod
    def of(cls, p):
        if p.drive_amp != 0.0:
            raise ValueError("the reference covers the weak-drive limit only")
        hg = HBAR_UEV_PS / p.lifetime
        return cls(omega0=p.omega0, hbar_gamma=hg, lifetime=p.lifetime,
                   zeta=1.0 + 2.0 * p.lifetime / p.dephasing_time,
                   beta=p.beta,
                   phi=math.atan2(-math.sqrt(1.0 - p.t0 * p.t0), p.t0),
                   sigma=2.0 * p.sigma_wander / hg,
                   t_resp=p.detector_resp / (2.0 * p.lifetime))

    def delta(self, detuning_uev):
        return 2.0 * (np.asarray(detuning_uev, dtype=float) - self.omega0) / self.hbar_gamma

    def tau(self, tau_ps):
        return np.asarray(tau_ps, dtype=float) / (2.0 * self.lifetime)


def _wander_rule(deltas, sigma, level):
    """Lattice and weights of the Gaussian average over the offset x.

    Returns ``(lattice, W)`` such that ``f(lattice) @ W`` is the average of
    f(deltas + x). Uniformly spaced ``deltas`` share one lattice, so each
    closed-form value is computed once for all of them.
    """
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    n = deltas.size
    if sigma == 0.0:
        return deltas, np.eye(n)
    h_max = min(STEP, sigma / SIGMA_STEPS) / level
    stride = 1
    if n > 1:
        gap = deltas[1] - deltas[0]
        if gap <= 0 or not np.allclose(np.diff(deltas), gap, rtol=1e-9, atol=0.0):
            raise ValueError("averaged detunings must be uniform and increasing")
        stride = math.ceil(gap / h_max)
        h = gap / stride
    else:
        h = h_max
    k = math.ceil(TAIL * sigma / h)
    w = np.exp(-0.5 * (h * np.arange(-k, k + 1) / sigma) ** 2)
    w /= w.sum()
    lattice = deltas[0] + h * np.arange(-k, (n - 1) * stride + k + 1)
    W = np.zeros((lattice.size, n))
    for i in range(n):
        W[i * stride:i * stride + w.size, i] = w
    return lattice, W


def _panels(lo, hi, width):
    """Composite Gauss-Legendre nodes and weights on [lo, hi], split at 0."""
    x, w = np.polynomial.legendre.leggauss(GL_NODES)
    edges = sorted({lo, hi, *((0.0,) if lo < 0.0 < hi else ())})
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        m = max(1, math.ceil((b - a) / width))
        e = np.linspace(a, b, m + 1)
        half = 0.5 * np.diff(e)[:, None]
        nodes.append((0.5 * (e[:-1] + e[1:])[:, None] + half * x).ravel())
        weights.append((half * w).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def _chunks(n, per):
    step = max(1, per)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _g2_level(r: Reduced, deltas, tau, level):
    """Averaged (and, for t_resp > 0, convolved) g2 at level ``level``.

    Returns an array of shape (tau.size, deltas.size).
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    lattice, W = _wander_rule(deltas, r.sigma, level)
    den = g1_general(lattice, r.zeta, r.beta, r.phi) ** 2 @ W
    t = r.t_resp
    if t == 0.0:
        s = tau
    else:
        s, ws = _panels(tau.min() - TAIL * t, tau.max() + TAIL * t, PANEL * t / level)
    num = np.empty((s.size, W.shape[1]))
    for sl in _chunks(s.size, CHUNK // lattice.size):
        num[sl] = g2_tau_parts(s[sl, None], lattice, r.zeta, r.beta, r.phi)[0] @ W
    if t == 0.0:
        return num / den
    out = np.empty((tau.size, W.shape[1]))
    for sl in _chunks(tau.size, CHUNK // s.size):
        kern = ws * np.exp(-0.5 * ((tau[sl, None] - s) / t) ** 2) / (math.sqrt(2 * math.pi) * t)
        out[sl] = kern @ num
    return out / den


def _in_blocks(f, deltas):
    """f over blocks of at most BLOCK detunings, joined along the last axis."""
    return np.concatenate([f(deltas[i:i + BLOCK]) for i in range(0, deltas.size, BLOCK)],
                          axis=-1)


def _converged(compute):
    coarse, fine = compute(1), compute(2)
    change = float(np.max(np.abs(fine - coarse)))
    if not change <= TOLERANCE:
        raise ReferenceNotConverged(
            f"halving the reference resolution moved it by {change:.3e}")
    return fine


def transmission(p, detuning_uev):
    """Wandering-averaged normalized transmission on uniform detunings (ueV)."""
    r = Reduced.of(p)
    d = np.atleast_1d(r.delta(detuning_uev))

    def block(b, lv):
        lattice, W = _wander_rule(b, r.sigma, lv)
        return g1_general(lattice, r.zeta, r.beta, r.phi) @ W
    return _converged(lambda lv: _in_blocks(lambda b: block(b, lv), d))


def g2zero(p, detuning_uev):
    """Averaged and convolved zero-delay g2 on uniform detunings (ueV)."""
    r = Reduced.of(p)
    d = np.atleast_1d(r.delta(detuning_uev))
    return _converged(lambda lv: _in_blocks(lambda b: _g2_level(r, b, 0.0, lv)[0], d))


def g2_trace(p, detuning_uev, tau_ps):
    """Averaged and convolved g2 at one detuning (ueV) over delays (ps)."""
    r = Reduced.of(p)
    d = r.delta(float(detuning_uev))
    return _converged(lambda lv: _g2_level(r, d, r.tau(tau_ps), lv)[:, 0])

"""Spectral-wandering averages with the detector response.

The emitter transition wanders slowly with a Gaussian distribution of width
``sigma`` (in reduced detuning units), which is equivalent to offsetting the
detuning while the background phase stays fixed. Transmission is averaged
directly; for g2 the numerator and the squared-transmission denominator are
averaged separately and then divided, so the averaged g2 still approaches 1
at long delay and stays finite on top of the (unaveraged) divergences.

Both averages rest on the Gaussian average of a pole, in closed form: for
Im p > 0, that of 1/(x - p) is i sqrt(pi/2) w((p - delta)/(sqrt(2) sigma))/sigma
(Fried & Conte's plasma dispersion function, :func:`_pole_averages`), that
of 1/(x - p)^2 its p-derivative, and the lower pole's is the mirror image.
The transmission g1 is 1 plus the principal parts of its poles at
delta = +-iG, so its average is that closed form alone, with no lattice
(:func:`avg_g1`). The g2 average is the trapezoid rule on one lattice per call,
x_k = (k + 1/2) h, shared by all its detunings; each weights the nodes
within :data:`TAIL` widths of it by the Gaussian, so detunings farther
apart than 2 TAIL sigma get separate windows. The numerator and the
denominator g1^2 have their only poles at delta = +-i zeta (the detector
factor is entire, and the collision poles +-i(zeta - 2) cancel), which
would limit the rule's strip of analyticity to |Im delta| < zeta. Their
principal parts are subtracted by the same closed form instead: each
correction is 2 Re[c (<f> - sum_k W_k f(x_k))], with the
residues c of :func:`fanostat.correlators._pole_coefficients` and
:func:`fanostat.correlators._residue_delays`. What remains is entire, and
the integrand oscillates like exp(i x t) over the delays t that the
detector sees, |t| <= tau_max + 6 t_resp. So the step is

    h = 2 pi/(tau_max + 6 t_resp + ALIAS/sigma),

with tau_max the largest |tau| of the call, independent of zeta: the error
is the Gaussian's aliasing beyond those frequencies, about
exp(-ALIAS^2/2) = 1.3e-14 (Trefethen & Weideman, "The exponentially
convergent trapezoidal rule", SIAM Rev. 56, 2014). Each window then holds
9 sigma (tau_max + 6 t_resp)/pi + 23 nodes. h is continuous in sigma,
t_resp and the delays, so only the window truncation jumps, by the weight of
a dropped node (< 2.6e-18). The pole correction is made only where
ALIAS sigma >= zeta. Beyond, the poles lie past the lattice's reach: the
uncorrected rule misses them by about exp(-2 pi zeta/h) < exp(-ALIAS
zeta/sigma) < exp(-ALIAS^2), and the correction, whose true value is
smaller still, would add only its rounding, which the residue's delay
functions multiply by up to t_resp. The half-step anchor keeps every node off
delta = 0, where the bare closed form is singular at zeta = 2, and makes
the lattice symmetric about it: the coherence's detected decay
D(zeta + i|x|, tau) is the conjugate of D(zeta - i|x|, tau), so a window
that straddles delta = 0 takes it once per mirrored pair of nodes. Where the
rounding of the nodes, eps |x|, exceeds :data:`RESOLUTION` sigma, the
lattice cannot resolve the Gaussian and each detuning is its own node (the
one-node rule, as at sigma = 0, with no pole correction; its error is
O(sigma^2 g2'')). One loop evaluates every call block by block: the
one-node detunings form blocks of their own, the others blocks of
neighbours on their merged windows, and the delays are split so that no
product exceeds :data:`MAX_EVALUATIONS` node evaluations, which bounds the
memory. Every model g2 curve comes from :meth:`ModelCurves.g2_curves`: curves
on several delay grids (a fit's g2(0) scan and its histograms) share one call
on the union of their delays, on the step of their largest |tau|, which saves
a call's fixed cost. Only a single detuning's window too wide for it raises
``ValueError``: where sigma (tau_max + 6 t_resp) passes about 9.1e4.
The detector's Gaussian response of width ``t_resp`` is applied in closed form
to every decay component before averaging (see
:func:`fanostat.correlators.g2_tau_parts`).

The drive enters the averaged transmission through the reduced intensity
``alpha``; the g2 closed form is weak-pump only (alpha -> 0), so the g2
curves of :class:`ModelCurves` refuse a finite drive with ``ValueError``.

Each average can also return its exact partials in the reduced quantities:
the transmission from the pole averages' p-derivatives and the residue's
complex step (see :func:`avg_g1`); the g2 average
through the quotient rule from the partials of its numerator and
denominator. Those in (zeta, beta, phi, tau, t_resp) are the node partials
summed with the weights W; those in the detuning and in sigma are the node
terms summed with the weights' derivatives W y/sigma and W (y^2 - 1)/sigma,
y = (x_k - delta)/sigma, exact for the discrete sum at fixed nodes (moving
the nodes with h changes the sum by no more than its error). The pole
corrections add theirs: the residues' by the complex step and from
:func:`fanostat.correlators.detected_decay`'s partials, and the closed-form
averages' in delta, sigma and zeta from w'.
:class:`ModelCurves` chains them to the physical fields of
:data:`FIT_FIELDS`.

``scipy.special`` is imported by the first pole average, through the
module-level :func:`wofz`, which then keeps it (as :func:`erf` and
:func:`erfcx` of :mod:`fanostat.correlators` do); a command that averages
nothing never loads it.
"""

from __future__ import annotations

import math

import numpy as np

from .correlators import (_g1_formula, _g1_residue, _g2_sums, _pole_coefficients,
                          _residue_delays, _special, complex_step, g1_general)
from .params import (HBAR_UEV_PS, PhysicalParams, check_reduced, detuning_to_delta,
                     phi_from_t0, tau_to_dimensionless)

# the physical fields the model curves are differentiated in, in this order
FIT_FIELDS = ("omega0", "lifetime", "dephasing_time", "sigma_wander", "t0", "beta")

# the Gaussian is cut this many widths from each detuning (weights < 2.6e-18)
TAIL = 9.0
# the lattice resolves frequencies up to ALIAS/sigma beyond the delays: the
# Gaussian's own aliasing is about exp(-ALIAS^2/2) = 1.3e-14
ALIAS = 8.0
# the largest node rounding, eps |x|, relative to sigma that the lattice takes
RESOLUTION = 1e-9
# at most this many node evaluations, nodes x (delays + detunings), per
# product with the weights; larger calls are split into blocks of detunings
# and of delays. One block peaks near 70 MB with partials
MAX_EVALUATIONS = 2**19


def _one_node(delta, sigma):
    """Where a lattice cannot resolve sigma about each detuning: all of
    them at sigma = 0, else those whose nodes round by over RESOLUTION sigma."""
    return ~(RESOLUTION * sigma > np.finfo(float).eps * (np.abs(delta) + TAIL * sigma))


def _step(tau, sigma, t_resp):
    """The lattice step 2 pi/(tau_max + 6 t_resp + ALIAS/sigma), with
    tau_max the largest |tau| of the call."""
    reach = np.max(np.abs(tau), initial=0.0) + 6.0 * t_resp
    return 2.0 * np.pi / (reach + ALIAS / sigma)


def _windows(delta, step, sigma):
    """For each detuning, its first and last node k of the nodes
    (k + 1/2) step within TAIL sigma of it."""
    reach = TAIL * sigma
    return np.ceil((delta - reach) / step - 0.5), np.floor((delta + reach) / step - 0.5)


def _wandering_nodes(delta, step, sigma, jac=False):
    """The lattice of the g2 average for the 1-d detunings ``delta``.

    Returns the nodes (N,) and the (n, N) weights, stacked with their delta
    and sigma derivatives to (3, n, N) with ``jac``.
    """
    # each detuning's window, merged where they overlap
    lo, hi = _windows(np.sort(delta), step, sigma)
    first = np.flatnonzero(np.concatenate([[True], lo[1:] > hi[:-1] + 1.0]))
    starts, ends = lo[first], hi[np.append(first[1:] - 1, -1)]
    k = np.concatenate([np.arange(a, b + 1.0) for a, b in zip(starts, ends)]) + 0.5
    y = (k - delta[:, None] / step) * (step / sigma)      # (x_k - delta)/sigma
    w = np.where(np.abs(y) <= TAIL,
                 step / (np.sqrt(2.0 * np.pi) * sigma) * np.exp(-0.5 * y * y), 0.0)
    if jac:
        w = np.stack([w, w * y / sigma, w * (y * y - 1.0) / sigma])
    return k * step, w


def _blocks(delta, step, sigma, n_tau):
    """The 1-d detunings in blocks, as indices, each with the number of
    delays per product so that it stays within :data:`MAX_EVALUATIONS`,
    and whether it takes the lattice of step ``step``. The one-node
    detunings come first, in blocks of their own; the others are grouped
    into neighbours whose detunings take at most half of it. Raises
    ``ValueError`` only where one detuning's window alone exceeds it with
    one delay."""
    n_tau, coarse = max(n_tau, 1), _one_node(delta, sigma)
    one, fine = np.flatnonzero(coarse), np.flatnonzero(~coarse)
    blocks = [(rows, min(n_tau, MAX_EVALUATIONS // rows.size), False)
              for rows in (one[i:i + MAX_EVALUATIONS]
                           for i in range(0, one.size, MAX_EVALUATIONS))]
    if fine.size == 0:
        return blocks
    most = 2.0 * TAIL * sigma / step + 1.0    # nodes per window
    if 2.0 * most > MAX_EVALUATIONS:
        raise ValueError(
            f"the wandering average needs {most:.3g} nodes per detuning, over the "
            f"budget of {MAX_EVALUATIONS} node evaluations: sigma (tau_max + "
            f"6 t_resp) must stay below about "
            f"{np.pi * (MAX_EVALUATIONS - 2.0) / (2.0 * TAIL) - ALIAS:.3g} "
            f"(sigma = {sigma:.4g})")
    if fine.size * most * (n_tau + fine.size) <= MAX_EVALUATIONS:
        return blocks + [(fine, n_tau, True)]
    order = fine[np.argsort(delta[fine])]
    lo, hi = _windows(delta[order], step, sigma)
    size = hi - lo + 1.0
    # the windows of sorted detunings j..i span size[j] nodes and the new
    # ones of each later detuning, whose last node never comes earlier
    total = np.cumsum(np.r_[size[0], np.minimum(size[1:], hi[1:] - hi[:-1])])
    j = 0
    while j < order.size:
        nodes = total[j:] - total[j] + size[j]
        n = np.searchsorted(nodes * np.arange(1, nodes.size + 1),
                            MAX_EVALUATIONS // 2, side="right")
        chunk = max(1, int(MAX_EVALUATIONS // nodes[n - 1]) - n)
        blocks.append((order[j:j + n], min(chunk, n_tau), True))
        j += n
    return blocks


def wofz(z):
    """:func:`scipy.special.wofz`, imported on the first call."""
    return _special().wofz(z)


def _pole_averages(p, delta, sigma, order=2):
    """F_n = d^n/dp^n <1/(x - p)> for n = 0 to ``order`` (0 or 2), stacked,
    over the Gaussian of width sigma about each detuning, for Im p > 0 (Fried
    & Conte's plasma dispersion function). ``order = 0`` takes w alone.

    With z = (p - delta)/(sqrt(2) sigma), v = 1 + i sqrt(pi) z w(z) and
    u = 1 - v + 2 z^2 v: F_0 = i sqrt(pi/2) w(z)/sigma, F_1 = -v/sigma^2
    and F_2 = u/(sigma^2 (p - delta)), from w'(z) = -2z w(z) + 2i/sqrt(pi)
    and w'' = -2w - 2z w'. Those forms of v and u lose digits like |z|^2
    and |z|^4; beyond |z| = 10 they come from w's asymptotic series instead,
    v = -sum_k (2k-1)!! q^k and u = -sum_k 2k (2k-1)!! q^k with
    q = 1/(2 z^2).
    """
    z = np.asarray((p - delta) / (np.sqrt(2.0) * sigma))
    w = wofz(z)
    F0 = 1j * np.sqrt(np.pi / 2.0) * w / sigma
    if order == 0:
        return F0[None]
    # arrays, so that a 0-d z takes the series too
    v = np.asarray(1.0 + 1j * np.sqrt(np.pi) * z * w)
    u = np.asarray(1.0 - v + 2.0 * z * z * v)
    far = np.abs(z) > 10.0
    if np.any(far):
        q = 0.5 / z[far] ** 2
        term, v[far], u[far] = np.ones_like(q), 0.0, 0.0
        for k in range(1, 17):      # the terms fall below 1e-16 of the first
            term = term * (2 * k - 1) * q
            v[far] -= term
            u[far] -= 2 * k * term
    return np.stack([F0, -v / sigma**2, u / (sigma**2 * (p - delta))])


# the order of the pole each coefficient of correlators._pole_coefficients
# multiplies: the numerator's residue and g1^2's residue are simple, the
# last is g1^2's double pole
_ORDERS = np.array([0, 0, 0, 0, 0, 0, 1])


def _pole_parts(delta, x, w, zeta, sigma, c, dc=None):
    """2 Re[c (<f> - sum_k W_k f(x_k))] for each detuning and coefficient c
    of :func:`fanostat.correlators._pole_coefficients`, with f = 1/(x - i
    zeta) or its square: what the lattice misses of each principal part.

    Returns shape (n, 7); given the coefficients' (zeta, beta, phi) partials
    ``dc`` (3, 7) and the stacked weights, shape (6, n, 7) along (value,
    delta, zeta, beta, phi, sigma).
    """
    p = 1j * zeta
    F = _pole_averages(p, delta, sigma).T      # (n, 3)
    f = 1.0 / (x - p)
    sums = w @ np.stack([f, f * f, 2.0 * f**3], axis=-1)    # f^2 and its p-derivative
    # the gaps of f and f^2 and their partials: d/ddelta F_m = -F_(m+1) (the
    # nodes stay), d/dzeta = i d/dp, sigma dF_m/dsigma = -(m+1) F_m -
    # (p - delta) F_(m+1)
    if dc is None:
        return 2.0 * (c * (F[:, :2] - sums[:, :2])[:, _ORDERS]).real
    gaps = np.stack([
        F[:, :2] - sums[0, :, :2],
        -F[:, 1:] - sums[1, :, :2],
        1j * (F[:, 1:] - sums[0, :, 1:]),
        -(F[:, :2] * [1.0, 2.0] + (p - delta)[:, None] * F[:, 1:]) / sigma - sums[2, :, :2],
    ])[..., _ORDERS]        # (value, delta, zeta, sigma), n, 7
    terms = c * gaps
    d_terms = dc[:, None] * gaps[0]
    return 2.0 * np.stack([terms[0], terms[1], d_terms[0] + terms[2], d_terms[1],
                           d_terms[2], terms[3]]).real


def avg_g1(delta, zeta, beta, phi, sigma, alpha=0.0, jac=False):
    """Transmission at reduced detuning averaged over a wandering of width sigma.

    g1 = 1 + r/(delta - iG) + (its mirror at -iG), with G = sqrt(zeta^2 +
    zeta alpha) and r the residue of
    :func:`fanostat.correlators._g1_residue` (see
    :func:`fanostat.correlators.g1_general`). Its Gaussian average is the
    Voigt profile <g1> = 1 + 2 Re[r F_0(iG)], with F_n the pole averages of
    :func:`_pole_averages`.

    With ``jac``, also returns the partials with respect to (delta, zeta,
    beta, phi, alpha, sigma) along a new last axis: in delta from
    dF_0/ddelta = -F_1; in zeta and alpha through G, i dG F_1, and through
    r; in beta and phi through r, whose partials are its complex step
    (:func:`fanostat.correlators.complex_step`); in sigma from the heat
    equation dF_0/dsigma = sigma F_2, which unlike the chain rule through
    the argument of w has no cancellation far from the pole. At
    ``sigma = 0`` the value is :func:`fanostat.correlators.g1_general`, the
    partials are its complex step, and the sigma partial is zero (the
    average is even in sigma).
    """
    delta = np.asarray(delta, dtype=float)
    check_reduced(zeta, beta, phi, alpha, sigma, delta=delta)
    if sigma == 0.0:
        out = g1_general(delta, zeta, beta, phi, alpha)
        if not jac:
            return out
        d = complex_step(_g1_formula, delta, zeta, beta, phi, alpha)
        d = np.where(np.asarray(out)[..., None] > 0.0, d, 0.0)
        return out, np.concatenate([d, np.zeros_like(d[..., :1])], axis=-1)
    G = np.sqrt(zeta * zeta + zeta * alpha)
    re, im = _g1_residue(zeta, beta, phi, alpha)
    r = re + 1j * im
    F = _pole_averages(1j * G, delta, sigma, 2 if jac else 0)
    out = 1.0 + 2.0 * (r * F[0]).real
    if not jac:
        return float(out) if out.ndim == 0 else out
    d_re, d_im = complex_step(_g1_residue, zeta, beta, phi, alpha)
    d_G = np.array([zeta + 0.5 * alpha, 0.0, 0.0, 0.5 * zeta]) / G
    rF1 = r * F[1][..., None]
    return out, 2.0 * np.concatenate([
        -rF1, (d_re + 1j * d_im) * F[0][..., None] + 1j * d_G * rF1,
        r * sigma * F[2][..., None]], axis=-1).real


def avg_g2(tau, delta, zeta, beta, phi, sigma, t_resp, jac=False):
    """Wandering-averaged, detected weak-pump g2 at reduced delays and detunings.

    Returns shape ``delta.shape + tau.shape``: one row of delays per
    detuning. Numerator and denominator of the normalized correlator are
    averaged over the same Gaussian before dividing, on the lattice of the
    module docstring shared by all the detunings, with the principal parts
    of their poles at delta = +-i zeta added in closed form where
    8 sigma >= zeta (beyond, the lattice misses them by less); the numerator
    carries the detector response of width ``t_resp``. The step
    h = 2 pi/(tau_max + 6 t_resp + 8/sigma) resolves the delays' oscillation
    with a Gaussian aliasing error near 1e-14, whatever zeta is; a window
    of 18 sigma/h nodes over :data:`MAX_EVALUATIONS`/2, where
    sigma (tau_max + 6 t_resp) passes about 9.1e4, raises ``ValueError``.
    ``sigma = 0`` is the one-node rule.

    With ``jac``, also returns the partials with respect to (delta, zeta,
    beta, phi, tau, t_resp, sigma) along a new last axis, from the averaged
    partials of numerator and denominator (see
    :func:`fanostat.correlators.g2_tau_parts`) by the quotient rule.
    """
    check_reduced(zeta, beta, phi, sigma=sigma, t_resp=t_resp, delta=delta, tau=tau)
    tau = np.asarray(tau, dtype=float)
    delta = np.asarray(delta, dtype=float)
    shape = delta.shape + tau.shape
    flat, taus = delta.ravel(), tau.ravel()
    out = np.empty((flat.size, taus.size))
    d = np.empty(out.shape + (7,)) if jac else None
    step = _step(taus, sigma, t_resp) if sigma > 0.0 else np.inf
    # the poles lie beyond the lattice's reach where ALIAS sigma < zeta
    correct, poles = ALIAS * sigma >= zeta, None
    for rows, chunk, lattice in _blocks(flat, step, sigma, taus.size):
        if lattice:
            x, w = _wandering_nodes(flat[rows], step, sigma, jac)
        else:
            x, w = flat[rows], None         # one node per detuning
        if lattice and correct:
            if poles is None:       # the residues, once per call
                poles = _pole_terms(taus, zeta, beta, phi, t_resp, jac)
            parts = _pole_parts(flat[rows], x, w, zeta, sigma, *poles[0])
        for start in range(0, taus.size, chunk):
            cols = slice(start, start + chunk)
            num, den, *partials = _g2_sums(taus[cols], x[:, None], zeta, beta, phi,
                                           t_resp, jac, w)
            if lattice and correct:
                num, den, partials = _corrected(num, den, partials, parts,
                                                *(v[..., cols] for v in poles[1:]))
            elif not lattice and jac:   # no sigma partials: even in sigma
                partials = [np.insert(partials[0], 6, 0.0, axis=-1),
                            np.insert(partials[1], 4, 0.0, axis=-1)]
            out[rows, cols], partial = _quotient(num, den, *partials)
            if jac:
                d[rows, cols] = partial
    if not jac:
        out = out.reshape(shape)
        return float(out) if out.ndim == 0 else out
    return out.reshape(shape), d.reshape(shape + (7,))


def _pole_terms(tau, zeta, beta, phi, t_resp, jac):
    """The pole coefficients (with their partials in zeta, beta, phi) and
    the residue's delay functions (with theirs in zeta, tau, t_resp)."""
    re, im = _pole_coefficients(zeta, beta, phi)
    if not jac:
        return (re + 1j * im,), _residue_delays(tau, zeta, t_resp)
    d_re, d_im = np.moveaxis(complex_step(_pole_coefficients, zeta, beta, phi), -1, 1)
    return (re + 1j * im, d_re + 1j * d_im), *_residue_delays(tau, zeta, t_resp, jac=True)


def _corrected(num, den, partials, parts, F, dF=None):
    """The lattice sums plus the pole parts they miss (see
    :func:`_pole_parts`): the numerator's residue times its delay functions
    ``F``, and g1^2's pole parts in the denominator. ``dF`` holds the
    partials of ``F`` in (zeta, tau, t_resp)."""
    value = parts if dF is None else parts[0]
    num = num + value[:, :5] @ F
    den = den + value[:, 5:].sum(-1, keepdims=True)
    if dF is None:
        return num, den, partials
    dnum, dden = partials
    along = np.moveaxis(parts[1:, :, :5] @ F, 0, -1)     # delta, zeta, beta, phi, sigma
    extra = np.moveaxis(value[:, :5] @ dF, 0, -1)         # zeta, tau, t_resp
    dnum = dnum + np.concatenate([along[..., :4], extra[..., 1:], along[..., 4:]], axis=-1)
    dnum[..., 1] += extra[..., 0]
    dden = dden + np.moveaxis(parts[1:, :, 5:].sum(-1), 0, -1)[:, None]
    return num, den, [dnum, dden]


def _quotient(num, den, dnum=None, dden=None):
    """g2 = num/den and, given those of both, its partials by the quotient
    rule; ``dden`` has no tau or t_resp partials, on which den does not depend."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    if dnum is None:
        return out, None
    dden = np.insert(dden, [4, 4], 0.0, axis=-1)
    return out, (dnum - out[..., None] * dden) / den[..., None]


class ModelCurves:
    """Directly comparable model curves for a physical parameter set.

    Detunings are in ueV relative to the dataset reference; delays in ps.
    Transmission is normalized to the bare background; g2 curves are
    normalized to their long-delay value (unity by construction).

    The reduction of ``p`` is made here once, with L the lifetime and hbar
    = HBAR_UEV_PS: the dephasing measure ``zeta`` = 1 + 2L/dephasing_time
    (1 + 2 gamma_de/gamma), the drive intensity ``alpha`` = 4 beta
    drive_amp^2 L, the background phase ``phi`` with cos(phi) = t0, and the
    widths ``sigma`` = 2L sigma_wander/hbar, in detuning units hbar gamma/2,
    and ``t_resp`` = detector_resp/(2L), in time units 2/gamma. Each laser
    energy E becomes delta = 2L(E - omega0)/hbar (:meth:`delta`), each delay
    tau/(2L). A reduced field out of its domain, overflow included, raises
    ``ValueError`` naming it (``drive_amp`` where alpha overflows).

    Both widths are those of ``p``: ``detector_resp = 0`` means an ideal
    detector, and ``sigma_wander = detector_resp = 0`` gives the bare closed
    forms. The drive enters the transmission through ``alpha``. Every g2
    curve comes from :meth:`g2_curves`, which refuses a finite drive: the g2
    closed form is weak-pump only.

    With ``jac``, every curve also carries its partials with respect to
    :data:`FIT_FIELDS`: the result gains a last axis of length 7 holding the
    value and then the six partials. Without ``jac`` the curves do no
    derivative work. The t0 partial diverges at t0 = 1, where ``jac``
    raises ``ValueError``.
    """

    def __init__(self, p: PhysicalParams, jac: bool = False):
        try:
            finite = math.isfinite(4.0 * p.drive_amp**2 * p.lifetime)
        except OverflowError:       # drive_amp^2 itself
            finite = False
        if not finite:
            raise ValueError(f"drive_amp = {p.drive_amp!r} is too large: alpha overflows")
        self.params, self.beta, self.jac = p, p.beta, jac
        self.zeta = 1.0 + 2.0 * p.lifetime / p.dephasing_time
        self.alpha = 4.0 * p.beta * p.drive_amp**2 * p.lifetime
        self.phi = phi_from_t0(p.t0)
        self.sigma = float(detuning_to_delta(p.sigma_wander, p.lifetime))
        self.t_resp = float(tau_to_dimensionless(p.detector_resp, p.lifetime))
        check_reduced(self.zeta, phi=self.phi, alpha=self.alpha, sigma=self.sigma,
                      t_resp=self.t_resp)
        if jac and p.t0 == 1.0:
            raise ValueError("t0 = 1 has no partial: dphi/dt0 = 1/sqrt(1 - t0^2) "
                             "diverges; build the curves without jac")

    def delta(self, detuning_uev):
        """Reduced detunings of the laser energies ``detuning_uev`` (ueV,
        relative to the dataset reference) from the model's transition."""
        return detuning_to_delta(np.asarray(detuning_uev, dtype=float)
                                 - self.params.omega0, self.params.lifetime)

    def _with_fields(self, value, delta, d_delta, d_zeta, d_beta, d_phi,
                     d_sigma, d_alpha=0.0, tau=0.0, d_tau=0.0, d_tresp=0.0):
        """The value followed by its partials along FIT_FIELDS, from those
        in the reduced quantities, by the chain rule through the reduction
        of the class docstring: delta, sigma and alpha grow like L, tau and
        t_resp shrink like 1/L, and dphi/dt0 = 1/sqrt(1 - t0^2).
        """
        p = self.params
        L, T2 = p.lifetime, p.dephasing_time
        scale = 2.0 * L / HBAR_UEV_PS
        try:
            dzeta_dT2 = -2.0 * L / T2**2
        except OverflowError:       # T2^2 overflows; the partial is below 1.2e-308 L
            dzeta_dT2 = -2.0 * L / T2 / T2
        return np.stack([
            value,
            -scale * d_delta,
            (delta * d_delta + self.sigma * d_sigma + self.alpha * d_alpha
             - tau * d_tau - self.t_resp * d_tresp) / L + 2.0 / T2 * d_zeta,
            dzeta_dT2 * d_zeta,
            scale * d_sigma,
            d_phi / np.sqrt(1.0 - p.t0 * p.t0),
            d_beta + 4.0 * p.drive_amp**2 * L * d_alpha,
        ], axis=-1)

    def transmission(self, detuning_uev):
        """Wandering-averaged normalized transmission at the model's drive."""
        delta = self.delta(detuning_uev)
        out = avg_g1(delta, self.zeta, self.beta, self.phi, self.sigma,
                     self.alpha, self.jac)
        if not self.jac:
            return out
        out, d = out
        dd, dz, db, dp, da, ds = np.moveaxis(d, -1, 0)
        return self._with_fields(out, delta, dd, dz, db, dp, ds, d_alpha=da)

    def g2_trace(self, detuning_uev, tau_ps):
        """Weak-pump g2(tau), averaged and detected, at one detuning or at
        several that share the delays: shape ``detuning.shape + tau.shape``.
        One request of :meth:`g2_curves`."""
        return self.g2_curves([(detuning_uev, tau_ps)])[0]

    def g2zero(self, detuning_uev):
        """Weak-pump zero-delay g2 per detuning, averaged on one shared
        lattice and detected. One request of :meth:`g2_curves`."""
        return self.g2_curves([(detuning_uev, 0.0)])[0]

    def g2_curves(self, requests):
        """Weak-pump g2(tau), averaged and detected, for each
        (detuning_uev, tau_ps) of ``requests``, all from one average.

        Returns one array per request, shaped ``detuning.shape +
        tau.shape``, and a float where both are scalars. The average runs on
        every detuning and the union of the distinct |tau| (g2 and tau
        dg/dtau depend on |tau| only), and each request takes its own
        columns. The curves agree with each request averaged alone to the
        lattice's aliasing error: the shared lattice takes the step of the
        largest |tau|, no coarser than any request's own. Every detuning is
        evaluated at every delay, so where many detunings meet long delay
        grids the one call does more node evaluations than one call per
        request would. A finite drive raises ``ValueError``.
        """
        if not requests:
            return []
        reduced = [(self.delta(det), np.abs(tau_to_dimensionless(tau, self.params.lifetime)))
                   for det, tau in requests]
        if self.alpha > 0:
            raise ValueError(f"g2 is modelled in the weak-pump limit only; got drive_amp = "
                             f"{self.params.drive_amp:g} (alpha = {self.alpha:.3g}), "
                             f"set drive_amp = 0")
        tau = np.unique(np.concatenate([np.ravel(t) for _, t in reduced]))
        delta = np.concatenate([d.ravel() for d, _ in reduced])
        out = avg_g2(tau, delta, self.zeta, self.beta, self.phi, self.sigma,
                     self.t_resp, self.jac)
        if self.jac:
            out, d = out
            dd, dz, db, dp, dt, dr, ds = np.moveaxis(d, -1, 0)
            out = self._with_fields(out, delta[:, None], dd, dz, db, dp, ds, tau=tau,
                                    d_tau=dt, d_tresp=dr)
        curves, start = [], 0
        for d, t in reduced:
            rows = out[start:start + d.size].reshape(d.shape + out.shape[1:])
            curve = rows.take(tau.searchsorted(t), axis=d.ndim)
            curves.append(float(curve) if curve.ndim == 0 else curve)
            start += d.size
        return curves

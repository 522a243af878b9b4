"""Closed-form references the tests compare the program against.

They are written apart from ``fanostat`` so that a test of the program does
not check it against itself; :func:`g2_coefficients` is the one view of the
program's internals that only the tests read. :func:`reference_write_series`
is the series writer as it was before it formatted a column at a time: the
bytes the program must still write. :func:`reference_propagate_exact` is
the exact propagation as it was before it applied exp(T tau) by back
substitution, through the full matrix, from the program's own Schur forms:
the values the program must still give. :func:`mp_output_g2` is the
regression solver's g2 in 40-digit mpmath at a :class:`ReducedPoint`;
``mpmath_g2_reference.py`` stores its values on one grid.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np

from fanostat.bloch import _schur_forms, _second_divided_difference
from fanostat.correlators import _clamped_coefficients
from fanostat.io import DataFormatError
from fanostat.params import check_reduced


def g1_ideal(delta, phi):
    """Normalized transmission (delta + tan phi)^2 / (1 + delta^2).

    This is the lossless, dephasing-free, weak-drive limit; absolute
    transmission is T0 times this value.
    """
    delta = np.asarray(delta, dtype=float)
    out = (delta + np.tan(phi)) ** 2 / (1.0 + delta * delta)
    return float(out) if out.ndim == 0 else out


def ideal_min_g2zero(T0):
    """Global minimum of the ideal g2(0) over detuning.

    Equals ``4*T0*(1 - T0)`` for T0 < 1/2 (antibunching reachable) and 1
    otherwise (interference term non-negative, only bunching).
    """
    if T0 >= 0.5:
        return 1.0
    return 4.0 * T0 * (1.0 - T0)


def scattering_matrix(t0):
    """Background scattering matrix ((t0, i*r0), (i*r0, t0)), r0 = -sqrt(1-t0^2)."""
    r0 = -math.sqrt(1.0 - t0 * t0)
    return np.array([[t0, 1j * r0], [1j * r0, t0]], dtype=complex)


@dataclass(frozen=True)
class G2Coefficients:
    """Weak-pump g2(tau) building blocks at one parameter point.

    ``A`` weights exp(-2|tau|), ``B`` weights exp(-zeta|tau|) sin(delta|tau|),
    ``g2zero`` is the unnormalized zero-delay value (g1 evaluated at doubled
    beta), and ``g1`` the weak-drive transmission, clamped at zero as in
    :func:`fanostat.g1_general`. The cosine weight follows from continuity
    at tau = 0 as ``g2zero - g1^2 - A``.
    """

    A: float
    B: float
    g2zero: float
    g1: float


def g2_coefficients(delta, zeta, beta, phi) -> G2Coefficients:
    """The program's weak-pump g2 coefficients, checked as a public entry."""
    delta = np.asarray(delta, dtype=float)
    check_reduced(zeta, beta, phi, delta=delta)
    c = _clamped_coefficients(delta, zeta, beta, phi)
    return G2Coefficients(*(map(float, c) if delta.ndim == 0 else c))


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _strict(v):
    # strict JSON has no NaN or infinity: such a float becomes CSV's token
    return _fmt(v) if isinstance(v, float) and not math.isfinite(v) else v


def reference_write_series(columns, rows, path, fmt="csv", metadata=None):
    """The cell-by-cell series writer: one format call per cell, one write
    per CSV line and ``json.dump`` of the whole document."""
    path = Path(path)
    rows = [tuple(r) for r in rows]
    for r in rows:
        if len(r) != len(columns):
            raise ValueError("row width does not match columns")
    meta = dict(metadata or {})
    try:
        if fmt == "csv":
            with open(path, "w", newline="", encoding="utf-8") as fh:
                for k in sorted(meta):
                    fh.write(f"# {k}: {meta[k]}\n")
                fh.write(",".join(columns) + "\n")
                for r in rows:
                    fh.write(",".join(_fmt(v) for v in r) + "\n")
        elif fmt == "json":
            doc = {
                "metadata": {k: _strict(meta[k]) for k in sorted(meta)},
                "columns": list(columns),
                "rows": [[(_strict(float(v)) if isinstance(v, (float, np.floating, int,
                                                               np.integer)) else str(v))
                          for v in r] for r in rows],
            }
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=False)
                fh.write("\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as err:
        raise DataFormatError(f"cannot write series: {err}", path) from err


def _matvec(A, x):
    return A[..., 0] * x[..., :1] + A[..., 1] * x[..., 1:2] + A[..., 2] * x[..., 2:]


def _divided_difference(la, lb, tau):
    # f[la, lb] of exp(lambda*tau), taking its own exp(lb*tau)
    swap = la.real > lb.real
    la, lb = np.where(swap, lb, la), np.where(swap, la, lb)
    z = (la - lb)[:, None] * tau
    ratio = np.divide(np.expm1(z), z, out=np.ones_like(z),
                      where=np.abs(z) > np.finfo(float).eps)
    return np.exp(lb[:, None] * tau) * tau * ratio


def reference_propagate_exact(initials, identities, tau, M, b):
    """:func:`fanostat.propagate_exact` through the full exp(T tau): the
    (n, len(tau), 3, 3) matrix F, zeros included, multiplied into
    Q^H (v0 - v_inf) and then by Q, each as a full matrix-vector product."""
    tau = np.asarray(tau, dtype=float)
    v0 = np.asarray(initials, dtype=complex)
    ident = np.asarray(identities, dtype=complex)
    vinf = np.linalg.solve(M, -b[:, None] * ident[:, None, :]).transpose(0, 2, 1)
    T, Q = _schur_forms(M)
    if Q is None:       # the reversal permutation
        Q = np.broadcast_to(np.eye(3, dtype=complex)[::-1], M.shape)
    lam = np.diagonal(T, axis1=1, axis2=2)
    dd = {(i, j): _divided_difference(lam[:, i], lam[:, j], tau)
          for i, j in ((0, 1), (1, 2), (0, 2))}
    F = np.zeros((len(T), tau.size, 3, 3), dtype=complex)
    for i in range(3):
        F[:, :, i, i] = np.exp(lam[:, i, None] * tau)
    F[:, :, 0, 1] = T[:, 0, 1, None] * dd[0, 1]
    F[:, :, 1, 2] = T[:, 1, 2, None] * dd[1, 2]
    F[:, :, 0, 2] = (T[:, 0, 2, None] * dd[0, 2]
                     + (T[:, 0, 1] * T[:, 1, 2])[:, None]
                     * _second_divided_difference(lam, tau, dd))
    with np.errstate(over="ignore", invalid="ignore"):
        w = _matvec(Q.conj().transpose(0, 2, 1)[:, None], v0 - vinf)
        v = _matvec(Q[:, None, None], _matvec(F[:, None], w[:, :, None]))
    return vinf[..., None] + v.transpose(0, 1, 3, 2)


@dataclass(frozen=True)
class ReducedPoint:
    """One point of the regression solver's tests, in the reduced units of
    ``ModelCurves``: the detuning ``delta``, the dephasing measure ``zeta``,
    the drive intensity ``alpha`` and the background phase ``phi``."""

    delta: float
    zeta: float
    alpha: float
    phi: float


def mp_drive(params):
    """The reduced drive g = i exp(i phi/2) sqrt(alpha/2) in mpmath, at the
    working precision."""
    phi, alpha = mpmath.mpf(params.phi), mpmath.mpf(params.alpha)
    return 1j * mpmath.exp(1j * phi / 2) * mpmath.sqrt(alpha / 2)


def unscaled_system(params, g):
    """The physical Bloch system d/dtau (s-, s+, s_z) = M v + b, built from
    the equations of motion and not from ``bloch_matrix``; nested lists."""
    d, z = params.delta, params.zeta
    M = [[1j * d - z, 0, -g],
         [0, -1j * d - z, -g.conjugate()],
         [2 * g.conjugate(), 2 * g, -2]]
    return M, [0, 0, -2]


def mp_output_g2(tau, params, beta):
    """40-digit reference for the g2 of ``output_correlators``.

    The unscaled regression system, solved in mpmath: the stationary state
    by LU, each delay through ``mpmath.expm``, and the field amplitude
    kappa = d/(t0*alpha_in) in place of its scaled form. The initial vectors
    are the sandwiched operators (sigma_-, sigma_+, sigma_z) * sigma_- and
    sigma_+ * (sigma_-, sigma_+, sigma_z) * sigma_-.
    """
    with mpmath.workdps(40):
        g = mp_drive(params)
        M, b = unscaled_system(params, g)
        M, b = mpmath.matrix(M), mpmath.matrix(b)
        s_minus, _, s_z = mpmath.lu_solve(M, -b)
        n = (1 + s_z.real) / 2
        # (components, identity) of u = (1, sigma_-) and v = (sigma_+, sigma_-)
        u0, u_id = mpmath.matrix([0, n, -s_minus]), s_minus
        v0, v_id = mpmath.matrix([0, 0, -n]), n
        u_inf = mpmath.lu_solve(M, -b * u_id)
        v_inf = mpmath.lu_solve(M, -b * v_id)
        t0 = mpmath.cos(params.phi)
        kap = (1j * mpmath.exp(1j * mpmath.mpf(params.phi) / 2) * beta
               * mpmath.sqrt(2 / mpmath.mpf(params.alpha)) / t0)
        k2 = abs(kap) ** 2
        g1 = 1 + 2 * (kap * s_minus).real + k2 * n
        out = []
        for t in tau:
            E = mpmath.expm(M * mpmath.mpf(t))
            um, up, uz = u_inf + E * (u0 - u_inf)
            vm, _, vz = v_inf + E * (v0 - v_inf)
            G = (1 + 4 * (kap * s_minus).real + 2 * k2 * n
                 + 2 * (kap**2 * um).real + 2 * k2 * up.real
                 + 2 * k2 * (kap * (u_id + uz) / 2).real
                 + 2 * k2 * (kap * vm).real + k2**2 * ((v_id + vz) / 2).real)
            out.append(float(G / g1**2))
    return np.array(out)

"""Closed-form references the tests compare the program against.

They are written apart from ``fanostat`` so that a test of the program does
not check it against itself.
"""

import math

import numpy as np


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

"""Closed-form references the tests compare the program against.

They are written apart from ``fanostat`` so that a test of the program does
not check it against itself; :func:`g2_coefficients` is the one view of the
program's internals that only the tests read. :func:`reference_write_series`
is the series writer as it was before it formatted a column at a time: the
bytes the program must still write.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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

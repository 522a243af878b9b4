"""Physical parameters, unit conversions, and derived dimensionless quantities.

Conventions used throughout the package:

* spectral quantities in ueV, times in ps, rates in 1/ps
* single conversion constant ``HBAR_UEV_PS`` (hbar in ueV*ps)
* dimensionless detuning ``delta = 2*(E_laser - E_transition)/(hbar*gamma)``
* dimensionless time ``tau_t = tau*gamma/2`` (time in units of ``2/gamma``)
* transition frequencies quoted in THz are ordinary frequencies (E = h*nu)

:func:`check_reduced` is the one check of the reduced quantities. The
model entries call it on entry: ``ModelCurves``, which makes the one
reduction of a :class:`PhysicalParams`, and ``avg_g1`` and ``avg_g2`` of
:mod:`fanostat.averaging`, the closed forms of :mod:`fanostat.correlators`
and the oracle of :mod:`fanostat.bloch`; the helpers below them do not
check again.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields

import numpy as np

HBAR_UEV_PS = 658.2119569

# the g2 coefficients carry zeta**6 and delta**6 (B's denominator), which
# overflow double precision above 1.5e51: zeta, |delta| and sigma (the
# wandering lattice reaches |delta| + 9 sigma) are capped here
REDUCED_MAX = 1e50


def _check_lifetime(lifetime_ps):
    if not (math.isfinite(lifetime_ps) and lifetime_ps > 0):
        raise ValueError(f"lifetime must be finite and positive, got {lifetime_ps!r}")


def hbar_gamma(lifetime_ps):
    """Energy unit hbar*gamma in ueV for a given radiative lifetime 1/gamma."""
    _check_lifetime(lifetime_ps)
    return HBAR_UEV_PS / lifetime_ps


def phi_from_t0(t0):
    """Background phase phi = arctan(r0/t0) with r0 = -sqrt(1 - t0^2).

    Lies in (-pi/2, 0]; cos(phi) = t0 exactly.
    """
    t0 = np.asarray(t0, dtype=float)
    if np.any(t0 < 0) or np.any(t0 > 1):
        raise ValueError("t0 must lie in [0, 1]")
    out = np.arctan2(-np.sqrt(1.0 - t0 * t0), t0)
    return float(out) if out.ndim == 0 else out


def detuning_to_delta(detuning_uev, lifetime_ps):
    """Dimensionless detuning from a laser-transition detuning in ueV.

    Also reduces spectral widths; with :func:`tau_to_dimensionless` it is the
    one unit reduction behind the model curves. Both overflow to inf
    silently: :func:`check_reduced` names the reduced quantity that does.
    """
    with np.errstate(over="ignore"):
        return 2.0 * np.asarray(detuning_uev, dtype=float) / hbar_gamma(lifetime_ps)


def tau_to_dimensionless(tau_ps, lifetime_ps):
    """Dimensionless delay tau*gamma/2 from a delay in ps."""
    _check_lifetime(lifetime_ps)
    with np.errstate(over="ignore"):
        return np.asarray(tau_ps, dtype=float) / (2.0 * lifetime_ps)


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional parameters of the emitter, waveguide background, and drive.

    Attributes
    ----------
    omega0 : float
        Transition energy in ueV, measured from the same reference as the
        detunings in any dataset it is compared against.
    lifetime : float
        Radiative lifetime 1/gamma in ps.
    dephasing_time : float
        Pure dephasing time 1/gamma_de in ps.
    beta : float
        Probability of decay into the guided mode, in [0, 1].
    t0 : float
        Bare waveguide amplitude transmission at the transition wavelength,
        in [0, 1].
    sigma_wander : float
        Standard deviation of the spectral wandering in ueV.
    drive_amp : float
        Coherent drive amplitude, square root of the photon flux in ps^-1/2.
    detector_resp : float
        Detector response standard deviation in ps.
    """

    omega0: float = 0.0
    lifetime: float = 125.0
    dephasing_time: float = 38000.0
    beta: float = 0.99
    t0: float = 0.62
    sigma_wander: float = 4.7
    drive_amp: float = 0.0
    detector_resp: float = 34.0

    def __post_init__(self):
        # dephasing_time may be +inf (no pure dephasing)
        for name in ("omega0", "lifetime", "beta", "t0", "sigma_wander",
                     "drive_amp", "detector_resp"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.lifetime <= 0:
            raise ValueError("lifetime must be positive")
        if not self.dephasing_time > 0:
            raise ValueError("dephasing_time must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if not 0.0 <= self.t0 <= 1.0:
            raise ValueError("t0 must lie in [0, 1]")
        if self.sigma_wander < 0:
            raise ValueError("sigma_wander must be non-negative")
        if self.detector_resp < 0:
            raise ValueError("detector_resp must be non-negative")

    def replace(self, **changes) -> "PhysicalParams":
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_mapping(cls, mapping) -> "PhysicalParams":
        """Build from a flat mapping; unknown keys raise."""
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in mapping.items()})

    def to_mapping(self) -> dict:
        return dataclasses.asdict(self)


def check_reduced(zeta=1.0, beta=0.0, phi=0.0, alpha=0.0, sigma=0.0, t_resp=0.0,
                  delta=None, tau=None):
    """Raise ``ValueError``, naming the first offender, unless every given
    reduced quantity is finite and in its domain: zeta in [1, REDUCED_MAX],
    beta in [0, 1], phi in (-pi/2, 0], alpha, sigma and t_resp >= 0, sigma
    and the detunings ``delta`` at most REDUCED_MAX in size; ``tau`` holds
    the delays. The defaults are valid, so each caller passes what it takes.
    A unit reduction that overflowed arrives as inf and is named as any
    other offender: ``ModelCurves`` checks its five reduced fields, and the
    curves their detunings and delays. ``beta`` and ``phi`` may also be
    arrays of background fields, which broadcast against each other; each
    field is checked as a scalar call checks it, and the first offender is
    named.
    """
    if isinstance(beta, np.ndarray) or isinstance(phi, np.ndarray):
        for b, p in zip(*(v.ravel().tolist() for v in np.broadcast_arrays(beta, phi))):
            check_reduced(beta=b, phi=p)
        beta = phi = 0.0
    for name, value, ok, rule in (
            ("zeta", zeta, 1.0 <= zeta <= REDUCED_MAX,
             "must lie in [1, {cap:g}], beyond which the closed forms overflow"),
            ("beta", beta, 0.0 <= beta <= 1.0, "must lie in [0, 1]"),
            ("phi", phi, -math.pi / 2 < phi <= 0.0,
             "must lie in (-pi/2, 0]; phi = -pi/2 (t0 = 0) is singular"),
            ("alpha", alpha, 0.0 <= alpha < math.inf, "must be non-negative and finite"),
            ("sigma", sigma, 0.0 <= sigma <= REDUCED_MAX,
             "must be non-negative and at most {cap:g}"),
            ("t_resp", t_resp, 0.0 <= t_resp < math.inf,
             "must be non-negative and finite")):
        if not ok:
            raise ValueError(f"{name} {rule.format(cap=REDUCED_MAX)}; got {value!r}")
    if delta is not None and not np.all(np.abs(delta) <= REDUCED_MAX):
        raise ValueError(f"reduced detunings delta must be finite and at most "
                         f"{REDUCED_MAX:g} in size, where the closed forms overflow; "
                         f"got up to {float(np.max(np.abs(delta)))!r}")
    if tau is not None and not np.all(np.isfinite(tau)):
        raise ValueError("reduced delays tau must be finite")


@dataclass(frozen=True)
class FPBackground:
    """Lossless symmetric two-mirror background specification.

    Either a free spectral range (nm, at the reference wavelength) or a
    physical length plus group index fixes the round-trip optical path.
    The reference wavelength, every length given and the round-trip path
    must be finite and positive.
    """

    reflectivity: float
    wavelength_ref_nm: float = 915.0
    fsr_nm: float | None = None
    length_um: float | None = None
    group_index: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.reflectivity < 1.0:
            raise ValueError("reflectivity must lie in [0, 1)")
        if self.fsr_nm is None and (self.length_um is None or self.group_index is None):
            raise ValueError("need fsr_nm, or length_um plus group_index")
        for name in ("wavelength_ref_nm", "fsr_nm", "length_um", "group_index"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        try:
            finite = math.isfinite(self.roundtrip_nm)
        except OverflowError:       # the square of the reference wavelength
            finite = False
        if not finite:
            raise ValueError("the round-trip optical path must be finite")

    @property
    def roundtrip_nm(self):
        if self.fsr_nm is not None:
            return self.wavelength_ref_nm**2 / self.fsr_nm
        return 2.0 * self.group_index * self.length_um * 1e3


def fp_background(fp: FPBackground, wavelengths_nm):
    """Amplitude transmission t0(lambda) of the background, with intensity.

    Airy transmission of a lossless symmetric resonator: unity on resonance
    for any mirror reflectivity, with adjacent maxima spaced by the free
    spectral range. Returns ``(t0, T)`` arrays. The wavelengths must be
    finite and positive, and large enough that the round-trip phase stays
    finite; ``ValueError`` otherwise.
    """
    lam = np.asarray(wavelengths_nm, dtype=float)
    if not np.all(np.isfinite(lam) & (lam > 0)):
        raise ValueError("wavelengths must be finite and positive")
    with np.errstate(over="ignore"):
        phase = np.pi * fp.roundtrip_nm / lam
    if not np.all(np.isfinite(phase)):
        raise ValueError("wavelengths too small: the round-trip phase overflows")
    R = fp.reflectivity
    F = 4.0 * R / (1.0 - R) ** 2
    T = 1.0 / (1.0 + F * np.sin(phase) ** 2)
    return np.sqrt(T), T

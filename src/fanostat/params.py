"""Physical parameters, unit conversions, and derived dimensionless quantities.

Conventions used throughout the package:

* spectral quantities in ueV, times in ps, rates in 1/ps
* single conversion constant ``HBAR_UEV_PS`` (hbar in ueV*ps)
* dimensionless detuning ``delta = 2*(E_laser - E_transition)/(hbar*gamma)``
* dimensionless time ``tau_t = tau*gamma/2`` (time in units of ``2/gamma``)
* transition frequencies quoted in THz are ordinary frequencies (E = h*nu)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

HBAR_UEV_PS = 658.2119569


def hbar_gamma(lifetime_ps):
    """Energy unit hbar*gamma in ueV for a given radiative lifetime 1/gamma."""
    if lifetime_ps <= 0:
        raise ValueError("lifetime must be positive")
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
    one unit reduction behind :func:`to_dimensionless` and the model curves.
    """
    return 2.0 * np.asarray(detuning_uev, dtype=float) / hbar_gamma(lifetime_ps)


def tau_to_dimensionless(tau_ps, lifetime_ps):
    """Dimensionless delay tau*gamma/2 from a delay in ps."""
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
        vals = {f.name: getattr(self, f.name) for f in fields(self)}
        vals.update(changes)
        return PhysicalParams(**vals)

    @classmethod
    def from_mapping(cls, mapping) -> "PhysicalParams":
        """Build from a flat mapping; unknown keys raise."""
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in mapping.items()})

    def to_mapping(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class DimensionlessParams:
    """Reduced quantities consumed by the correlator formulas.

    ``delta`` is the detuning in units of hbar*gamma/2, ``zeta`` the
    dephasing measure ``1 + 2*gamma_de/gamma``, ``alpha`` the reduced drive
    intensity ``4*beta*|drive|^2/gamma``, ``phi`` the background phase, with
    cos(phi) = t0 (the bare intensity transmission is cos(phi)^2), ``sigma``
    the wandering width and ``t_resp`` the detector width, both in delta /
    tau_t units.
    """

    delta: float
    zeta: float
    alpha: float
    phi: float
    sigma: float
    t_resp: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v!r}")
        if self.zeta < 1.0:
            raise ValueError("zeta must be >= 1")
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if not -math.pi / 2 < self.phi <= 0.0:
            raise ValueError("phi must lie in (-pi/2, 0]")
        if self.sigma < 0 or self.t_resp < 0:
            raise ValueError("sigma and t_resp must be >= 0")


def to_dimensionless(p: PhysicalParams, laser_energy_uev) -> DimensionlessParams:
    """Reduce dimensional parameters at a given laser energy.

    The laser energy is measured from the same reference as ``p.omega0``.
    """
    if not math.isfinite(laser_energy_uev):
        raise ValueError("laser energy must be finite")
    return DimensionlessParams(
        delta=float(detuning_to_delta(laser_energy_uev - p.omega0, p.lifetime)),
        zeta=1.0 + 2.0 * p.lifetime / p.dephasing_time,
        alpha=4.0 * p.beta * p.drive_amp**2 * p.lifetime,
        phi=phi_from_t0(p.t0),
        sigma=float(detuning_to_delta(p.sigma_wander, p.lifetime)),
        t_resp=float(tau_to_dimensionless(p.detector_resp, p.lifetime)),
    )


@dataclass(frozen=True)
class ScatteringMatrix:
    """2x2 unitary scattering matrix of the bare waveguide background."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("scattering matrix must be 2x2")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def unitarity_defect(self):
        m = self.matrix
        return float(np.max(np.abs(m.conj().T @ m - np.eye(2))))


def scattering_matrix(t0) -> ScatteringMatrix:
    """Background scattering matrix ((t0, i*r0), (i*r0, t0)), r0 = -sqrt(1-t0^2)."""
    if not 0.0 <= t0 <= 1.0:
        raise ValueError("t0 must lie in [0, 1]")
    r0 = -math.sqrt(1.0 - t0 * t0)
    return ScatteringMatrix(np.array([[t0, 1j * r0], [1j * r0, t0]], dtype=complex))


@dataclass(frozen=True)
class FPBackground:
    """Lossless symmetric two-mirror background specification.

    Either a free spectral range (nm, at the reference wavelength) or a
    physical length plus group index fixes the round-trip optical path.
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
        if self.fsr_nm is not None and self.fsr_nm <= 0:
            raise ValueError("fsr_nm must be positive")

    @property
    def roundtrip_nm(self):
        if self.fsr_nm is not None:
            return self.wavelength_ref_nm**2 / self.fsr_nm
        return 2.0 * self.group_index * self.length_um * 1e3


def fp_background(fp: FPBackground, wavelengths_nm):
    """Amplitude transmission t0(lambda) of the background, with intensity.

    Airy transmission of a lossless symmetric resonator: unity on resonance
    for any mirror reflectivity, with adjacent maxima spaced by the free
    spectral range. Returns ``(t0, T)`` arrays.
    """
    lam = np.asarray(wavelengths_nm, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("wavelengths must be positive")
    R = fp.reflectivity
    F = 4.0 * R / (1.0 - R) ** 2
    T = 1.0 / (1.0 + F * np.sin(np.pi * fp.roundtrip_nm / lam) ** 2)
    return np.sqrt(T), T

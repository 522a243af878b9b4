"""Numerical ground truth: driven two-level dynamics and output correlators.

This module never touches the closed-form correlators. It propagates the
linear rotating-frame equations of motion for the emitter averages exactly,
through the matrix exponential; applies the regression rule (two-time
correlators obey the same linear system, with the inhomogeneous term scaled
by the equal-time expectation of the sandwich operators); and assembles the
transmitted-field correlators from the input-output relation
``c_out = t0*c_in + d*sigma_minus``.

Reduced units as elsewhere: time in 2/gamma, so the population decays at
rate 2 and the coherence at rate zeta; the drive enters as
``g = i*exp(i*phi/2)*sqrt(alpha/2)``.

Operator products are reduced through an explicit algebra table over the
basis ("1", "-", "+", "z"), which keeps every initial condition and moment
assembly testable in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .params import DimensionlessParams

# products sigma_a * sigma_b as {basis_label: coefficient}
PRODUCT_TABLE = {
    ("-", "-"): {},
    ("-", "+"): {"1": 0.5, "z": -0.5},
    ("-", "z"): {"-": 1.0},
    ("+", "-"): {"1": 0.5, "z": 0.5},
    ("+", "+"): {},
    ("+", "z"): {"+": -1.0},
    ("z", "-"): {"-": -1.0},
    ("z", "+"): {"+": 1.0},
    ("z", "z"): {"1": 1.0},
}


def reduce_product(ops):
    """Reduce a product of basis operators to basis coefficients.

    ``ops`` is a sequence over {"1", "-", "+", "z"}; the result maps basis
    labels to complex coefficients.
    """
    acc = {"1": 1.0 + 0j}
    for op in ops:
        if op == "1":
            continue
        if op not in ("-", "+", "z"):
            raise ValueError(f"unknown operator label {op!r}")
        nxt: dict[str, complex] = {}
        for label, coef in acc.items():
            if label == "1":
                nxt[op] = nxt.get(op, 0.0) + coef
                continue
            for lbl2, c2 in PRODUCT_TABLE[(label, op)].items():
                nxt[lbl2] = nxt.get(lbl2, 0.0) + coef * c2
        acc = nxt
    return acc


@dataclass(frozen=True)
class BlochState:
    """One-time emitter averages in the rotating frame."""

    s_minus: complex
    s_z: float

    @property
    def population(self):
        return (1.0 + self.s_z) / 2.0

    def physicality_defect(self):
        """How far |<sigma_->|^2 exceeds (1+s_z)(1-s_z)/4; <= 0 is physical."""
        return abs(self.s_minus) ** 2 - (1.0 + self.s_z) * (1.0 - self.s_z) / 4.0

    def moment(self, coeffs):
        """Expectation of a basis-coefficient dict in this state."""
        vals = {"1": 1.0, "-": self.s_minus, "+": np.conj(self.s_minus),
                "z": self.s_z}
        return sum(c * vals[k] for k, c in coeffs.items())


@dataclass(frozen=True)
class RegressionVector:
    """Two-time correlator triple <L sigma_l(t+tau) R> for l in (-, +, z).

    ``identity`` is <L R>, which scales the inhomogeneous term of the
    evolution (the regression rule); it is constant along the trajectory.
    """

    components: np.ndarray
    identity: complex

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=complex)
        if comp.shape != (3,):
            raise ValueError("components must be a length-3 complex vector")
        comp.setflags(write=False)
        object.__setattr__(self, "components", comp)


def drive_amplitude(params: DimensionlessParams):
    """Reduced drive g = i*exp(i*phi/2)*sqrt(alpha/2)."""
    return 1j * np.exp(1j * params.phi / 2.0) * math.sqrt(params.alpha / 2.0)


def bloch_matrix(params: DimensionlessParams):
    """Linear system (M, b) with d/dtau (s-, s+, s_z) = M v + b."""
    g = drive_amplitude(params)
    dlt, z = params.delta, params.zeta
    M = np.array([
        [1j * dlt - z, 0.0, -g],
        [0.0, -1j * dlt - z, -np.conj(g)],
        [2.0 * np.conj(g), 2.0 * g, -2.0],
    ], dtype=complex)
    b = np.array([0.0, 0.0, -2.0], dtype=complex)
    return M, b


def steady_state(params: DimensionlessParams) -> BlochState:
    """Stationary emitter averages; the undriven limit is the ground state."""
    M, b = bloch_matrix(params)
    try:
        v = np.linalg.solve(M, -b)
    except np.linalg.LinAlgError as err:
        raise ValueError("stationary system is singular") from err
    residual = float(np.max(np.abs(M @ v + b)))
    if residual > 1e-12:
        raise ValueError(f"stationary residual too large: {residual:.2e}")
    state = BlochState(s_minus=complex(v[0]), s_z=float(np.real(v[2])))
    if abs(np.imag(v[2])) > 1e-12 or abs(np.conj(v[0]) - v[1]) > 1e-10:
        raise ValueError("stationary solution violates conjugation symmetry")
    return state


def _as_vector(initial):
    if isinstance(initial, BlochState):
        return np.array([initial.s_minus, np.conj(initial.s_minus),
                         initial.s_z], dtype=complex), 1.0 + 0j
    if isinstance(initial, RegressionVector):
        return initial.components.astype(complex), initial.identity
    raise TypeError("initial must be a BlochState or RegressionVector")


def propagate_exact(initials, tau, params: DimensionlessParams):
    """Exact propagation of states or regression vectors to every delay.

    ``initials`` is a sequence of :class:`BlochState` or
    :class:`RegressionVector`; ``tau`` a 1-d array of non-negative reduced
    delays. The system is linear, so v(tau) = v_inf + exp(M tau)(v0 - v_inf),
    with all exponentials from one batched ``expm``. Returns an array of
    shape (len(initials), 3, len(tau)): the components (-, +, z) of each
    initial vector along the delays.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or np.any(tau < 0):
        raise ValueError("tau must be a 1-d array of non-negative delays")
    pairs = [_as_vector(x) for x in initials]
    v0 = np.array([v for v, _ in pairs])
    ident = np.array([i for _, i in pairs])
    M, b = bloch_matrix(params)
    vinf = np.linalg.solve(M, -np.outer(b, ident)).T
    E = expm(tau[:, None, None] * M)
    return vinf[:, :, None] + np.einsum("tij,kj->kit", E, v0 - vinf)


def _kappa(params: DimensionlessParams, beta):
    """Emitter amplitude relative to the background field, d/(t0*alpha_in)."""
    if params.alpha <= 0:
        raise ValueError("output correlators need a finite drive (alpha > 0)")
    t0 = math.cos(params.phi)
    if t0 <= 0:
        raise ValueError("t0 = 0 leaves no transmitted background to normalize by")
    return 1j * np.exp(1j * params.phi / 2.0) * beta * math.sqrt(2.0 / params.alpha) / t0


def output_correlator_g1(params: DimensionlessParams, beta):
    """Stationary normalized transmission assembled from steady-state moments."""
    if beta == 0.0:
        return 1.0
    ss = steady_state(params)
    kap = _kappa(params, beta)
    n = ss.moment(reduce_product(("+", "-")))
    return float(1.0 + 2.0 * np.real(kap * ss.s_minus) + abs(kap) ** 2 * np.real(n))


def regression_initials(ss: BlochState):
    """Equal-time initial conditions for the two regression propagations.

    Returns ``(u0, v0)``: u has (L, R) = (1, sigma_minus), v has
    (L, R) = (sigma_plus, sigma_minus). Components are the sandwiched
    one-time operators (-, +, z), built through the product table.
    """
    u_comp = [ss.moment(reduce_product((l, "-"))) for l in ("-", "+", "z")]
    v_comp = [ss.moment(reduce_product(("+", l, "-"))) for l in ("-", "+", "z")]
    u0 = RegressionVector(np.array(u_comp), identity=ss.moment({"-": 1.0}))
    v0 = RegressionVector(np.array(v_comp), identity=ss.moment(reduce_product(("+", "-"))))
    return u0, v0


def output_correlator_g2(tau_grid, params: DimensionlessParams, beta):
    """Normalized two-time intensity correlator of the transmitted field.

    Propagates the two regression vectors exactly over ``tau_grid`` (reduced
    units, non-negative) and assembles the normally ordered four-point
    correlator; the result is normalized by the squared stationary intensity
    so it approaches 1 at long delay. The propagation adds only rounding, so
    the difference from the alpha -> 0 closed form is the physical
    finite-drive term.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or tau_grid.size == 0:
        raise ValueError("tau_grid must be a non-empty 1-d array")
    if np.any(tau_grid < 0):
        raise ValueError("tau_grid must be non-negative")
    if beta == 0.0:
        return np.ones_like(tau_grid)

    ss = steady_state(params)
    kap = _kappa(params, beta)
    u0, v0 = regression_initials(ss)
    (um, up, uz), (vm, _vp, vz) = propagate_exact((u0, v0), tau_grid, params)

    n_ss = np.real(ss.moment(reduce_product(("+", "-"))))
    u_n = (u0.identity + uz) / 2.0          # <(sig+ sig-)(t+tau) sig-(t)>
    v_n = (v0.identity + vz) / 2.0          # <sig+ (sig+ sig-)(t+tau) sig->
    k2 = abs(kap) ** 2

    G = (1.0
         + 4.0 * np.real(kap * ss.s_minus)
         + 2.0 * k2 * n_ss
         + 2.0 * np.real(kap**2 * um)
         + 2.0 * k2 * np.real(up)
         + 2.0 * k2 * np.real(kap * u_n)
         + 2.0 * k2 * np.real(kap * vm)
         + k2**2 * np.real(v_n))
    imag_defect = float(np.max(np.abs(np.imag(v_n))))
    if imag_defect > 1e-8:
        raise RuntimeError(f"sandwich correlator not real: {imag_defect:.2e}")

    g1 = 1.0 + 2.0 * np.real(kap * ss.s_minus) + k2 * n_ss
    g2 = G / g1**2
    if np.any(g2 < -1e-8):
        raise RuntimeError("negative correlator beyond tolerance: propagation fault")
    return g2

import math
import warnings

import numpy as np
import pytest

from analytic import g2_coefficients, scattering_matrix
from fanostat import (HBAR_UEV_PS, ModelCurves, PhysicalParams, avg_g1, avg_g2,
                      detuning_to_delta, g1_general, g2_tau_general, g2_tau_parts,
                      g2zero_ideal, hbar_gamma, output_correlators, output_g1,
                      phi_from_t0, tau_to_dimensionless)

REF = PhysicalParams()   # defaults are the documented reference configuration


def test_hbar_gamma_reference_lifetime():
    # 658.2119569 / 125
    assert hbar_gamma(125.0) == pytest.approx(5.2656956552, abs=1e-9)


@pytest.mark.parametrize("lifetime", [math.nan, math.inf, 0.0, -125.0])
def test_hbar_gamma_rejects_a_bad_lifetime(lifetime):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="lifetime must be finite and positive"):
            hbar_gamma(lifetime)


@pytest.mark.parametrize("lifetime", [math.nan, math.inf, 0.0, -125.0])
def test_tau_to_dimensionless_rejects_a_bad_lifetime(lifetime):
    # a zero lifetime divided by zero with only a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="lifetime must be finite and positive"):
            tau_to_dimensionless(1.0, lifetime)


@pytest.mark.parametrize("lifetime", [math.nan, math.inf, 0.0, -125.0])
def test_detuning_to_delta_rejects_a_bad_lifetime(lifetime):
    # through hbar_gamma; NaN returned NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="lifetime must be finite and positive"):
            detuning_to_delta(1.0, lifetime)


def test_reduced_detuning_example():
    delta = ModelCurves(REF).delta(9.0)
    assert delta == pytest.approx(2 * 9 * 125 / HBAR_UEV_PS, rel=1e-14)
    assert delta == pytest.approx(3.4183518, abs=1e-6)


def test_phi_from_t0_reference():
    # arctan(-sqrt(1 - 0.62^2)/0.62)
    expected = math.atan2(-math.sqrt(1 - 0.62**2), 0.62)
    assert phi_from_t0(0.62) == pytest.approx(expected, abs=1e-15)
    assert phi_from_t0(0.62) == pytest.approx(-0.9020536, abs=1e-6)


def test_zeta_reference():
    d = ModelCurves(REF)
    assert d.zeta == pytest.approx(1 + 2 * 125 / 38000, rel=1e-14)
    assert d.zeta == pytest.approx(1.00658, abs=1e-5)


def test_sigma_and_tresp_reduction():
    d = ModelCurves(REF)
    assert d.sigma == pytest.approx(2 * 4.7 / (HBAR_UEV_PS / 125), rel=1e-12)
    assert d.t_resp == pytest.approx(34 / 250, rel=1e-14)


@pytest.mark.parametrize("t0", np.linspace(0.0, 1.0, 21))
def test_phi_identities(t0):
    phi = phi_from_t0(t0)
    assert -math.pi / 2 < phi <= 0 or t0 == 0
    assert math.cos(phi) == pytest.approx(t0, abs=1e-12)
    assert math.cos(2 * phi) == pytest.approx(2 * t0 * t0 - 1, abs=1e-12)


def test_detuning_and_tau_conversions_roundtrip():
    # the forward helpers are the reduction behind ModelCurves: same floats
    p = PhysicalParams(omega0=3.0, lifetime=212.0, dephasing_time=9000.0,
                       beta=0.8, t0=0.4, sigma_wander=2.2, drive_amp=1e-3,
                       detector_resp=20.0)
    rng = np.random.default_rng(7)
    lasers = rng.uniform(-50, 50, 20)
    delta = detuning_to_delta(lasers - p.omega0, p.lifetime)
    d = ModelCurves(p)
    assert delta.tolist() == [float(d.delta(x)) for x in lasers]
    assert delta[0] == 2.0 * (lasers[0] - p.omega0) / hbar_gamma(p.lifetime)
    assert detuning_to_delta(p.sigma_wander, p.lifetime) == d.sigma
    assert tau_to_dimensionless(p.detector_resp, p.lifetime) == d.t_resp
    assert tau_to_dimensionless(p.detector_resp, p.lifetime) == \
        pytest.approx(p.detector_resp / p.lifetime / 2.0, rel=1e-15)


class TestPhysicalParamsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PhysicalParams(lifetime=0.0)
        with pytest.raises(ValueError):
            PhysicalParams(dephasing_time=-5.0)
        with pytest.raises(ValueError):
            PhysicalParams(beta=1.2)
        with pytest.raises(ValueError):
            PhysicalParams(t0=-0.1)
        with pytest.raises(ValueError):
            PhysicalParams(t0=1.5)
        with pytest.raises(ValueError):
            PhysicalParams(sigma_wander=-1.0)
        with pytest.raises(ValueError):
            PhysicalParams(omega0=math.nan)

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            PhysicalParams.from_mapping({"lifetme": 125.0})

    def test_mapping_roundtrip(self):
        p = PhysicalParams(beta=0.5)
        assert PhysicalParams.from_mapping(p.to_mapping()) == p

    def test_replace_checks_as_the_constructor_does(self):
        assert REF.replace(beta=0.5) == PhysicalParams(beta=0.5)
        with pytest.raises(ValueError, match="beta"):
            REF.replace(beta=1.2)
        with pytest.raises(TypeError):
            REF.replace(lifetme=125.0)

    @pytest.mark.parametrize("drive", [1e154, 1e200, -1e200])
    def test_huge_drive_is_named(self, drive):
        # drive_amp^2 overflows beyond about 1.3e154; at 1e154 alpha does
        with pytest.raises(ValueError, match="drive_amp"):
            ModelCurves(PhysicalParams(drive_amp=drive))


# valid PhysicalParams whose reduction leaves a field's domain, overflows
# included: a ValueError naming the field, and no warning on the way; with
# jac, t0 = 1 also names t0, where dphi/dt0 diverges
@pytest.mark.parametrize("field,changes,jac", [
    ("zeta", dict(lifetime=1e300), False),
    ("zeta", dict(dephasing_time=1e-300), False),
    ("zeta", dict(lifetime=1e300, dephasing_time=1e-300), False),     # zeta overflows
    ("sigma", dict(sigma_wander=1e300), False),
    ("sigma", dict(sigma_wander=1e308, lifetime=1e10), False),        # sigma overflows
    ("t_resp", dict(detector_resp=1e308, lifetime=1e-300), False),    # t_resp overflows
    ("drive_amp", dict(drive_amp=1e200), False),
    ("phi", dict(t0=0.0), False),
    ("t0", dict(t0=1.0), True),
], ids=["zeta-lifetime", "zeta-dephasing", "zeta-inf", "sigma-cap", "sigma-inf",
        "t_resp-inf", "drive_amp", "phi", "t0-jac"])
def test_model_curves_name_each_reduced_field(field, changes, jac):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=field):
            ModelCurves(REF.replace(**changes), jac=jac)


def test_the_unit_reductions_overflow_silently():
    # check_reduced names what overflowed; no warning comes before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tau_to_dimensionless(1e308, 1e-300) == math.inf
        assert detuning_to_delta(1e100, 1e300) == math.inf
        assert detuning_to_delta(-1e308, 125.0) == -math.inf


# every public entry into the model, with the reduced arguments it takes in
# order; each is checked once, by params.check_reduced
VALID = dict(tau=0.4, delta=0.5, zeta=1.2, beta=0.9, phi=-0.5, alpha=1e-3, sigma=0.3,
             t_resp=0.1)
OUT_OF_RANGE = dict(tau=None, delta=1e51, zeta=0.5, beta=1.5, phi=0.1, alpha=-1e-3,
                    sigma=-0.1, t_resp=-0.1)
ENTRIES = {
    "g1_general": (g1_general, "delta zeta beta phi alpha"),
    "g2zero_ideal": (g2zero_ideal, "delta phi"),
    "g2_coefficients": (g2_coefficients, "delta zeta beta phi"),
    "g2_tau_parts": (g2_tau_parts, "tau delta zeta beta phi t_resp"),
    "g2_tau_general": (g2_tau_general, "tau delta zeta beta phi"),
    "avg_g1": (avg_g1, "delta zeta beta phi sigma alpha"),
    "avg_g2": (avg_g2, "tau delta zeta beta phi sigma t_resp"),
    "output_g1": (lambda delta, *rest: output_g1([delta], *rest),
                  "delta zeta alpha phi beta"),
    "output_correlators": (
        lambda tau, delta, *rest: output_correlators([tau], [delta], *rest),
        "tau delta zeta alpha phi beta"),
}


@pytest.mark.parametrize("entry,arg,bad", [
    (entry, arg, bad) for entry, (_, args) in ENTRIES.items() for arg in args.split()
    for bad in (math.nan, math.inf, -math.inf, OUT_OF_RANGE[arg]) if bad is not None])
def test_entry_rejects_each_bad_argument(entry, arg, bad):
    # NaN, +-inf and an out-of-range value of any argument: a typed error,
    # never a silent NaN, a warning or the value at another argument
    f, args = ENTRIES[entry]
    values = {name: VALID[name] for name in args.split()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f(*values.values())
        with pytest.raises(ValueError, match=arg if arg != "delta" else "detunings"):
            f(*{**values, arg: bad}.values())


class TestCouplingVector:
    @pytest.mark.parametrize("beta,gamma,t0", [(0.99, 1 / 125, 0.62),
                                               (0.5, 0.01, 0.3),
                                               (1.0, 2.0, 1.0)])
    def test_norm_and_scattering_identity(self, beta, gamma, t0):
        # an emitter centered in the background couples to both guided modes
        # with i*exp(i*phi/2)*sqrt(beta*gamma/2)
        phi = phi_from_t0(t0)
        d = np.full(2, 1j * np.exp(1j * phi / 2.0) * math.sqrt(beta * gamma / 2.0))
        assert np.sum(np.abs(d) ** 2) == pytest.approx(beta * gamma, rel=1e-12)
        # the background matrix maps the coupling onto its negated conjugate
        C = scattering_matrix(t0)
        assert np.allclose(C.conj().T @ d, -d.conj(), atol=1e-12)


def unitarity_defect(S):
    return float(np.max(np.abs(S.conj().T @ S - np.eye(2))))


class TestScatteringMatrix:
    """The background ((cos phi, i sin phi), (i sin phi, cos phi)) in the
    phase ``phi_from_t0`` gives: cos(phi) = t0, sin(phi) = -sqrt(1 - t0^2)."""

    def test_transparent(self):
        assert phi_from_t0(1.0) == 0.0
        assert np.allclose(scattering_matrix(1.0), np.eye(2), atol=1e-15)

    def test_full_reflector(self):
        assert phi_from_t0(0.0) == -math.pi / 2
        m = scattering_matrix(0.0)
        assert m[0, 0] == 0 and m[1, 1] == 0
        assert abs(m[0, 1]) == pytest.approx(1.0)

    @pytest.mark.parametrize("t0", np.linspace(0.0, 1.0, 41))
    def test_unitarity(self, t0):
        phi = phi_from_t0(t0)
        assert math.cos(phi) == pytest.approx(t0, abs=1e-15)
        assert math.sin(phi) == pytest.approx(-math.sqrt(1.0 - t0 * t0), abs=1e-15)
        assert unitarity_defect(scattering_matrix(t0)) < 1e-12

    def test_reference_unitarity_tight(self):
        assert unitarity_defect(scattering_matrix(0.62)) < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            phi_from_t0(1.01)


@pytest.mark.parametrize("laser", [math.inf, -math.inf, math.nan])
def test_nonfinite_laser_energy_is_a_typed_error(laser):
    m = ModelCurves(REF)
    for curve in (m.transmission, m.g2zero):
        with pytest.raises(ValueError, match="detunings"):
            curve([0.0, laser])

import math

import numpy as np
import pytest

from fanostat import (HBAR_UEV_PS, DimensionlessParams, PhysicalParams,
                      detuning_to_delta, hbar_gamma, phi_from_t0,
                      scattering_matrix, tau_to_dimensionless,
                      to_dimensionless)

REF = PhysicalParams()   # defaults are the documented reference configuration


def test_hbar_gamma_reference_lifetime():
    # 658.2119569 / 125
    assert hbar_gamma(125.0) == pytest.approx(5.2656956552, abs=1e-9)


def test_reduced_detuning_example():
    d = to_dimensionless(REF, 9.0)
    assert d.delta == pytest.approx(2 * 9 * 125 / HBAR_UEV_PS, rel=1e-14)
    assert d.delta == pytest.approx(3.4183518, abs=1e-6)


def test_phi_from_t0_reference():
    # arctan(-sqrt(1 - 0.62^2)/0.62)
    expected = math.atan2(-math.sqrt(1 - 0.62**2), 0.62)
    assert phi_from_t0(0.62) == pytest.approx(expected, abs=1e-15)
    assert phi_from_t0(0.62) == pytest.approx(-0.9020536, abs=1e-6)


def test_zeta_reference():
    d = to_dimensionless(REF, 0.0)
    assert d.zeta == pytest.approx(1 + 2 * 125 / 38000, rel=1e-14)
    assert d.zeta == pytest.approx(1.00658, abs=1e-5)


def test_sigma_and_tresp_reduction():
    d = to_dimensionless(REF, 0.0)
    assert d.sigma == pytest.approx(2 * 4.7 / (HBAR_UEV_PS / 125), rel=1e-12)
    assert d.t_resp == pytest.approx(34 / 250, rel=1e-14)


@pytest.mark.parametrize("t0", np.linspace(0.0, 1.0, 21))
def test_phi_identities(t0):
    phi = phi_from_t0(t0)
    assert -math.pi / 2 < phi <= 0 or t0 == 0
    assert math.cos(phi) == pytest.approx(t0, abs=1e-12)
    assert math.cos(2 * phi) == pytest.approx(2 * t0 * t0 - 1, abs=1e-12)


def test_detuning_and_tau_conversions_roundtrip():
    # the forward helpers are the reduction behind to_dimensionless: same floats
    p = PhysicalParams(omega0=3.0, lifetime=212.0, dephasing_time=9000.0,
                       beta=0.8, t0=0.4, sigma_wander=2.2, drive_amp=1e-3,
                       detector_resp=20.0)
    rng = np.random.default_rng(7)
    lasers = rng.uniform(-50, 50, 20)
    delta = detuning_to_delta(lasers - p.omega0, p.lifetime)
    assert delta.tolist() == [to_dimensionless(p, x).delta for x in lasers]
    assert delta[0] == 2.0 * (lasers[0] - p.omega0) / hbar_gamma(p.lifetime)
    d = to_dimensionless(p, p.omega0)
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


class TestDimensionlessParamsValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["delta", "zeta", "alpha", "phi", "sigma",
                                       "t_resp"])
    def test_rejects_non_finite(self, field, bad):
        valid = dict(delta=0.5, zeta=1.2, alpha=1e-3, phi=-0.5, sigma=0.0,
                     t_resp=0.0)
        DimensionlessParams(**valid)
        with pytest.raises(ValueError, match=field):
            DimensionlessParams(**{**valid, field: bad})


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
        C = scattering_matrix(t0).matrix
        assert np.allclose(C.conj().T @ d, -d.conj(), atol=1e-12)


class TestScatteringMatrix:
    def test_transparent(self):
        assert np.allclose(scattering_matrix(1.0).matrix, np.eye(2), atol=1e-15)

    def test_full_reflector(self):
        m = scattering_matrix(0.0).matrix
        assert m[0, 0] == 0 and m[1, 1] == 0
        assert abs(m[0, 1]) == pytest.approx(1.0)

    @pytest.mark.parametrize("t0", np.linspace(0.0, 1.0, 41))
    def test_unitarity(self, t0):
        assert scattering_matrix(t0).unitarity_defect < 1e-12

    def test_reference_unitarity_tight(self):
        assert scattering_matrix(0.62).unitarity_defect < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            scattering_matrix(1.01)


def test_to_dimensionless_rejects_nonfinite_laser():
    with pytest.raises(ValueError):
        to_dimensionless(REF, math.inf)

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from fanostat import (AveragingSpec, ModelCurves, PhysicalParams, SampledCurve,
                      avg_g1, avg_g2, check_refinement, convolve_detector,
                      g1_general, g2_tau_general, phi_from_t0)
from fanostat.averaging import gaussian_kernel

PHI15 = phi_from_t0(math.sqrt(0.15))
REF = PhysicalParams()


class TestSpecValidation:
    def test_defaults(self):
        spec = AveragingSpec(sigma=1.0, t_resp=0.1)
        assert spec.quadrature_points == 301
        assert spec.quadrature_span == 8.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AveragingSpec(sigma=-1.0, t_resp=0.0)
        with pytest.raises(ValueError):
            AveragingSpec(sigma=1.0, t_resp=0.0, quadrature_points=40)
        with pytest.raises(ValueError):
            AveragingSpec(sigma=1.0, t_resp=0.0, quadrature_span=4.0)

    def test_from_params(self):
        spec = AveragingSpec.from_params(REF)
        assert spec.sigma == pytest.approx(1.7851392513954498, rel=1e-12)
        assert spec.t_resp == pytest.approx(0.136, rel=1e-12)

    def test_weights_sum_to_one(self):
        spec = AveragingSpec(sigma=2.3, t_resp=0.0)
        _, w = spec.offsets_weights()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


class TestAvgG1:
    def test_zero_width_identity(self):
        spec = AveragingSpec(sigma=0.0, t_resp=0.0)
        delta = np.linspace(-5, 5, 41)
        assert np.array_equal(avg_g1(delta, 1.1, 0.9, PHI15, spec),
                              g1_general(delta, 1.1, 0.9, PHI15))

    def test_far_detuned_limit(self):
        spec = AveragingSpec(sigma=1.7852, t_resp=0.0)
        assert avg_g1(1e6, 1.0, 1.0, 0.0, spec) == pytest.approx(1.0, abs=1e-6)

    def test_against_adaptive_quadrature(self):
        # independent oracle for the averaged dip floor at full transmission
        s = 1.7852

        def integrand(x):
            return (x * x / (1 + x * x)) * math.exp(-x * x / (2 * s * s)) \
                / (math.sqrt(2 * math.pi) * s)

        expected, err = quad(integrand, -np.inf, np.inf)
        assert err < 1e-7
        assert expected == pytest.approx(0.527441, abs=1e-6)
        spec = AveragingSpec(sigma=s, t_resp=0.0)
        assert avg_g1(0.0, 1.0, 1.0, 0.0, spec) == pytest.approx(expected, abs=1e-7)
        assert avg_g1(0.0, 1.0, 1.0, 0.0, spec, method="trapezoid") == \
            pytest.approx(expected, abs=1e-6)

    def test_hermite_and_trapezoid_agree(self):
        spec = AveragingSpec(sigma=0.8, t_resp=0.0, quadrature_points=61,
                             quadrature_span=10.0)
        delta = np.linspace(-6, 6, 25)
        a = avg_g1(delta, 1.2, 0.95, PHI15, spec)
        b = avg_g1(delta, 1.2, 0.95, PHI15, spec, method="trapezoid")
        assert np.allclose(a, b, atol=2e-6)

    def test_refinement_converged(self):
        spec = AveragingSpec(sigma=1.7852, t_resp=0.0)
        delta = np.linspace(-10, 10, 21)
        assert check_refinement(delta, 1.0, 1.0, PHI15, spec) < 1e-6

    def test_refinement_failure_reported(self):
        spec = AveragingSpec(sigma=1.7852, t_resp=0.0, quadrature_points=3)
        with pytest.raises(RuntimeError, match="not converged"):
            check_refinement(np.array([0.0]), 1.0, 1.0, PHI15, spec)

    def test_linearity_of_the_weighting(self):
        # the average is a fixed linear functional of the curve samples
        spec = AveragingSpec(sigma=1.2, t_resp=0.0)
        x, w = spec.offsets_weights()
        f = g1_general(0.7 + x, 1.0, 1.0, PHI15)
        g = g1_general(0.7 + x, 1.4, 0.8, PHI15)
        combo = 2.0 * f + 3.0 * g
        assert combo @ w == pytest.approx(2.0 * (f @ w) + 3.0 * (g @ w), rel=1e-14)


class TestAvgG2:
    def test_zero_width_identity(self):
        spec = AveragingSpec(sigma=0.0, t_resp=0.0)
        tau = np.linspace(0, 6, 31)
        assert np.allclose(avg_g2(tau, np.asarray(1.3), 1.1, 0.9, PHI15, spec),
                           g2_tau_general(tau, 1.3, 1.1, 0.9, PHI15), atol=0)

    def test_long_delay_normalization(self):
        spec = AveragingSpec(sigma=1.7852, t_resp=0.0)
        assert avg_g2(50.0, np.asarray(2.0), 1.0066, 0.99, phi_from_t0(0.62),
                      spec) == pytest.approx(1.0, abs=1e-12)

    def test_reference_config_band_before_convolution(self):
        p = REF
        spec = AveragingSpec.from_params(p)
        delta = 2 * 9.0 / p.hbar_gamma
        zeta = 1 + 2 * p.lifetime / p.dephasing_time
        val = avg_g2(0.0, np.asarray(delta), zeta, p.beta, phi_from_t0(p.t0), spec)
        assert 1.9 <= val <= 2.5

    def test_finite_on_the_transmission_zero(self):
        # the unaveraged value diverges there; the averaged one must not
        phi = phi_from_t0(math.sqrt(0.5))
        spec = AveragingSpec(sigma=1.0, t_resp=0.0)
        bare = g2_tau_general(0.0, -math.tan(phi), 1.0, 1.0, phi)
        smeared = avg_g2(0.0, np.asarray(-math.tan(phi)), 1.0, 1.0, phi, spec)
        assert not np.isfinite(bare)
        assert np.isfinite(smeared)


class TestConvolution:
    def test_zero_width_identity(self):
        tau = np.linspace(-3, 3, 301)
        c = SampledCurve(tau, np.cos(tau))
        assert convolve_detector(c, 0.0) is c

    def test_constant_preserved(self):
        tau = np.linspace(-3, 3, 301)
        c = SampledCurve(tau, np.ones_like(tau))
        out = convolve_detector(c, 0.136)
        assert np.allclose(out.values, 1.0, atol=1e-12)

    def test_kernel_normalized(self):
        k = gaussian_kernel(0.02, 0.136)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)

    def test_commutes_with_reflection(self):
        tau = np.linspace(-4, 4, 401)
        vals = np.exp(-np.abs(tau)) * np.cos(2 * tau) + 1.0
        out = convolve_detector(SampledCurve(tau, vals), 0.1)
        assert np.allclose(out.values, out.values[::-1], atol=1e-12)

    def test_undersampled_grid_rejected(self):
        tau = np.linspace(-3, 3, 31)
        c = SampledCurve(tau, np.ones_like(tau))
        with pytest.raises(ValueError, match="undersample"):
            convolve_detector(c, 0.136)

    def test_interior_matches_exact_convolution(self):
        # independent oracle: pointwise adaptive quadrature of the convolution
        sigma = 0.136
        tau = np.linspace(-5, 5, 4001)
        vals = 1.0 + np.exp(-np.abs(tau)) * np.cos(1.3 * tau)
        out = convolve_detector(SampledCurve(tau, vals), sigma)

        def f(t):
            return 1.0 + math.exp(-abs(t)) * math.cos(1.3 * t)

        for t_chk in (-2.0, -0.5, 0.0, 1.0, 2.5):
            exact, _ = quad(
                lambda x: f(t_chk - x)
                * math.exp(-0.5 * (x / sigma) ** 2) / (math.sqrt(2 * math.pi) * sigma),
                -8 * sigma, 8 * sigma, limit=200)
            i = np.argmin(np.abs(tau - t_chk))
            assert out.values[i] == pytest.approx(exact, abs=2e-5)
        i0 = np.argmin(np.abs(tau))
        assert out.values[i0] < vals[i0]

    def test_curve_container_immutable(self):
        c = SampledCurve(np.linspace(0, 1, 11), np.zeros(11))
        with pytest.raises(ValueError):
            c.values[0] = 1.0
        with pytest.raises(ValueError):
            SampledCurve(np.array([0.0, 0.1, 0.3]), np.zeros(3))


class TestModelCurves:
    def test_reference_g2zero_values(self):
        m = ModelCurves(REF)
        assert m.g2zero(9.0) == pytest.approx(1.961, abs=0.01)
        assert m.g2zero(-9.0) == pytest.approx(0.950, abs=0.01)
        # convolution pulls the bunching peak down
        m_raw = ModelCurves(REF, replace(AveragingSpec.from_params(REF), t_resp=0.0))
        assert m.g2zero(9.0) < m_raw.g2zero(9.0)

    def test_trace_matches_zero_delay_point(self):
        m = ModelCurves(REF)
        trace = m.g2_trace(9.0, np.array([-30.0, 0.0, 30.0, 4000.0]))
        assert trace[1] == pytest.approx(m.g2zero(9.0), abs=5e-4)
        assert trace[3] == pytest.approx(1.0, abs=1e-3)

    def test_transmission_vectorized(self):
        m = ModelCurves(REF)
        det = np.linspace(-40, 40, 11)
        vals = m.transmission(det)
        assert vals.shape == det.shape
        assert np.all((vals > 0) & (vals < 2.5))

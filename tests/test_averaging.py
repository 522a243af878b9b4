import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from fanostat import (AveragingSpec, ModelCurves, PhysicalParams, avg_g1,
                      avg_g2, check_refinement, g1_general, g2_tau_general,
                      phi_from_t0)
from fanostat.correlators import detected_decay

PHI15 = phi_from_t0(math.sqrt(0.15))
REF = PhysicalParams()


class TestSpecValidation:
    def test_defaults(self):
        spec = AveragingSpec(sigma=1.0, t_resp=0.1)
        assert spec.quadrature_points == 301

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AveragingSpec(sigma=-1.0, t_resp=0.0)
        with pytest.raises(ValueError):
            AveragingSpec(sigma=1.0, t_resp=0.0, quadrature_points=40)

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
        assert avg_g1(0.0, 1.0, 1.0, 0.0, spec) == pytest.approx(expected, abs=1e-12)

    def test_voigt_and_hermite_agree(self):
        # the closed form against the 2001-node rule over the detuning nodes
        spec = AveragingSpec(sigma=0.8, t_resp=0.0)
        x, w = AveragingSpec(sigma=0.8, t_resp=0.0, quadrature_points=2001).offsets_weights()
        delta = np.linspace(-6, 6, 25)
        for zeta, beta, alpha in ((1.2, 0.95, 0.0), (1.0, 1.0, 0.0), (1.5, 0.7, 0.8)):
            a = avg_g1(delta, zeta, beta, PHI15, spec, alpha)
            b = g1_general(delta[:, None] + x, zeta, beta, PHI15, alpha) @ w
            assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_refinement_converged(self):
        # the reference configuration's width: doubling moves g2(0) by 2.4e-7
        spec = AveragingSpec(sigma=1.7852, t_resp=0.0)
        delta = np.linspace(-10, 10, 21)
        assert 1e-8 < check_refinement(delta, 1.0, 1.0, PHI15, spec) < 1e-6

    def test_refinement_fails_at_large_width(self):
        spec = AveragingSpec(sigma=6.0, t_resp=0.0)
        with pytest.raises(RuntimeError, match=r"changed avg_g2 by 3\.3\d*e-02"):
            check_refinement(np.linspace(-10, 10, 21), 1.0, 1.0, PHI15, spec)

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


def quad_decay(a, t, s):
    """Independent oracle: exp(-a|t - x|) against the Gaussian over +-40 s,
    split at the kink x = t."""
    kink = min(max(t, -40 * s), 40 * s)

    def part(f):
        return sum(quad(lambda x: f(np.exp(-a * abs(t - x)))
                        * math.exp(-0.5 * (x / s) ** 2) / (math.sqrt(2 * math.pi) * s),
                        lo, hi, epsabs=1e-14, epsrel=1e-13, limit=2000)[0]
                   for lo, hi in ((-40 * s, kink), (kink, 40 * s)) if hi > lo)
    return part(np.real) + 1j * part(np.imag)


class TestConvolution:
    def test_zero_width_identity(self):
        tau = np.linspace(-3, 3, 301)
        a = 1.2 - 0.7j
        assert np.array_equal(detected_decay(a, tau, 0.0), np.exp(-a * np.abs(tau)))

    def test_constant_preserved(self):
        # a decoupled emitter (beta = 0) stays exactly coherent after
        # detection; the wandering average sums in its own order
        tau = np.linspace(-3, 3, 301)
        spec = AveragingSpec(sigma=0.0, t_resp=0.136)
        assert np.array_equal(avg_g2(tau, 0.7, 1.2, 0.0, PHI15, spec), np.ones_like(tau))
        spec = replace(spec, sigma=1.7852)
        assert np.allclose(avg_g2(tau, 0.7, 1.2, 0.0, PHI15, spec), 1.0, rtol=0, atol=1e-15)

    def test_commutes_with_reflection(self):
        tau = np.linspace(-4, 4, 401)
        spec = AveragingSpec(sigma=1.2, t_resp=0.1)
        out = avg_g2(tau, 1.3, 1.1, 0.9, PHI15, spec)
        assert np.allclose(out, out[::-1], rtol=0, atol=1e-12)

    def test_interior_matches_exact_convolution(self):
        sigma = 0.136
        for a in (2.0, 1.0 - 1.3j, 1.4 + 0.6j):
            for t_chk in (-2.0, -0.5, 0.0, 0.05, 1.0, 2.5):
                got = complex(detected_decay(a, t_chk, sigma))
                assert abs(got - quad_decay(a, t_chk, sigma)) < 1e-10
        assert detected_decay(2.0, 0.0, sigma) < 1.0

    def test_stable_over_the_parameter_grid(self):
        # overflow-prone corners: large |a| s, small s, delays far past s
        worst = 0.0
        for s in (1e-6, 0.01, 0.136, 1.0, 3.0):
            for a in (2.0, 1.0 - 66.0j, 50.0 - 5.0j, 1.0 - 200.0j / s if s >= 1.0
                      else 1.0 - 20.0j):
                for t in (0.0, 0.5 * s, 3.0 * s, 8.9 * s, 9.1 * s, 40.0 * s, 200.0 * s):
                    got = complex(detected_decay(a, t, s))
                    assert np.isfinite(got)
                    worst = max(worst, abs(got - quad_decay(a, t, s)))
        assert worst < 1e-10

    def test_detected_g2_is_the_convolved_curve(self):
        # avg_g2 with a detector equals the quad convolution of its t_resp = 0 curve
        s = 0.136
        bare = AveragingSpec(sigma=1.7852, t_resp=0.0)
        spec = replace(bare, t_resp=s)
        for t_chk in (0.0, 0.1, 0.7):
            want = sum(quad(lambda x: avg_g2(t_chk - x, 2.0, 1.05, 0.95, PHI15, bare)
                            * math.exp(-0.5 * (x / s) ** 2) / (math.sqrt(2 * math.pi) * s),
                            lo, hi, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
                       for lo, hi in ((-12 * s, t_chk), (t_chk, 12 * s)))
            assert avg_g2(t_chk, 2.0, 1.05, 0.95, PHI15, spec) == pytest.approx(want, abs=1e-9)


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

    @pytest.mark.xfail(strict=True, reason=(
        "open fault, ROADMAP item 1: at zeta = 2 the rate collision divides "
        "by |2 - a|^2 = 0 on the delta = 0 node and gives NaN"))
    def test_finite_at_the_rate_collision(self):
        # dephasing_time = 250 ps with the default 125 ps lifetime is zeta = 2
        g2 = ModelCurves(PhysicalParams(dephasing_time=250.0)).g2zero([0.0, 1.0])
        assert np.all(np.isfinite(g2))

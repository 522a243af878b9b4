import math

import numpy as np
import pytest
from scipy.integrate import quad

from scipy.special import roots_hermite

from fanostat import (ModelCurves, PhysicalParams, avg_g1, avg_g2,
                      check_refinement, g1_general, g2_tau_general,
                      hbar_gamma, phi_from_t0)
from fanostat import averaging
from fanostat.averaging import _wandering_nodes
from fanostat.correlators import detected_decay, g2_tau_parts

PHI15 = phi_from_t0(math.sqrt(0.15))
REF = PhysicalParams()


class TestSpecValidation:
    def test_weights_sum_to_one(self):
        # the wandering rule and the doubled rule of check_refinement
        for n in (averaging.HERMITE_ORDER, 2 * averaging.HERMITE_ORDER + 1):
            _, w = _wandering_nodes(2.3, n)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
        _, w = _wandering_nodes(0.0)
        assert np.array_equal(w, np.ones(1))


class TestAvgG1:
    def test_zero_width_identity(self):
        delta = np.linspace(-5, 5, 41)
        assert np.array_equal(avg_g1(delta, 1.1, 0.9, PHI15, 0.0),
                              g1_general(delta, 1.1, 0.9, PHI15))

    def test_far_detuned_limit(self):
        assert avg_g1(1e6, 1.0, 1.0, 0.0, 1.7852) == pytest.approx(1.0, abs=1e-6)

    def test_against_adaptive_quadrature(self):
        # independent oracle for the averaged dip floor at full transmission
        s = 1.7852

        def integrand(x):
            return (x * x / (1 + x * x)) * math.exp(-x * x / (2 * s * s)) \
                / (math.sqrt(2 * math.pi) * s)

        expected, err = quad(integrand, -np.inf, np.inf)
        assert err < 1e-7
        assert expected == pytest.approx(0.527441, abs=1e-6)
        assert avg_g1(0.0, 1.0, 1.0, 0.0, s) == pytest.approx(expected, abs=1e-12)

    def test_voigt_and_hermite_agree(self):
        # the closed form against the 2001-node rule over the detuning nodes
        y, w = roots_hermite(2001)
        x, w = np.sqrt(2.0) * 0.8 * y, w / np.sqrt(np.pi)
        delta = np.linspace(-6, 6, 25)
        for zeta, beta, alpha in ((1.2, 0.95, 0.0), (1.0, 1.0, 0.0), (1.5, 0.7, 0.8)):
            a = avg_g1(delta, zeta, beta, PHI15, 0.8, alpha)
            b = g1_general(delta[:, None] + x, zeta, beta, PHI15, alpha) @ w
            assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_refinement_converged(self):
        # the reference configuration's width: doubling moves g2(0) by 2.4e-7
        delta = np.linspace(-10, 10, 21)
        assert 1e-8 < check_refinement(delta, 1.0, 1.0, PHI15, 1.7852, 0.0) < 1e-6

    def test_refinement_fails_at_large_width(self):
        with pytest.raises(RuntimeError, match=r"changed avg_g2 by 3\.3\d*e-02"):
            check_refinement(np.linspace(-10, 10, 21), 1.0, 1.0, PHI15, 6.0, 0.0)

    def test_refinement_failure_reported(self):
        # the 2.4e-7 change of the reference width, against a tighter rtol
        with pytest.raises(RuntimeError, match="not converged"):
            check_refinement(np.linspace(-10, 10, 21), 1.0, 1.0, PHI15, 1.7852,
                             0.0, rtol=1e-8)

    def test_rejects_negative_widths(self):
        with pytest.raises(ValueError, match="sigma"):
            avg_g1(0.0, 1.0, 1.0, PHI15, -1.0)
        for sigma, t_resp in ((-1.0, 0.0), (1.0, -0.1)):
            with pytest.raises(ValueError, match="must be non-negative"):
                avg_g2(0.0, 0.0, 1.0, 1.0, PHI15, sigma, t_resp)
            with pytest.raises(ValueError, match="must be non-negative"):
                check_refinement(np.array([0.0]), 1.0, 1.0, PHI15, sigma, t_resp)

    def test_linearity_of_the_weighting(self):
        # the average is a fixed linear functional of the curve samples
        x, w = _wandering_nodes(1.2)
        f = g1_general(0.7 + x, 1.0, 1.0, PHI15)
        g = g1_general(0.7 + x, 1.4, 0.8, PHI15)
        combo = 2.0 * f + 3.0 * g
        assert combo @ w == pytest.approx(2.0 * (f @ w) + 3.0 * (g @ w), rel=1e-14)


class TestAvgG2:
    def test_zero_width_identity(self):
        tau = np.linspace(0, 6, 31)
        assert np.allclose(avg_g2(tau, np.asarray(1.3), 1.1, 0.9, PHI15, 0.0, 0.0),
                           g2_tau_general(tau, 1.3, 1.1, 0.9, PHI15), atol=0)

    def test_long_delay_normalization(self):
        assert avg_g2(50.0, np.asarray(2.0), 1.0066, 0.99, phi_from_t0(0.62),
                      1.7852, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_config_band_before_convolution(self):
        p = REF
        m = ModelCurves(p)
        delta = 2 * 9.0 / hbar_gamma(p.lifetime)
        zeta = 1 + 2 * p.lifetime / p.dephasing_time
        val = avg_g2(0.0, np.asarray(delta), zeta, p.beta, phi_from_t0(p.t0),
                     m.sigma, m.t_resp)
        assert 1.9 <= val <= 2.5

    def test_finite_on_the_transmission_zero(self):
        # the unaveraged value diverges there; the averaged one must not
        phi = phi_from_t0(math.sqrt(0.5))
        bare = g2_tau_general(0.0, -math.tan(phi), 1.0, 1.0, phi)
        smeared = avg_g2(0.0, np.asarray(-math.tan(phi)), 1.0, 1.0, phi, 1.0, 0.0)
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
        assert np.array_equal(avg_g2(tau, 0.7, 1.2, 0.0, PHI15, 0.0, 0.136),
                              np.ones_like(tau))
        assert np.allclose(avg_g2(tau, 0.7, 1.2, 0.0, PHI15, 1.7852, 0.136), 1.0,
                           rtol=0, atol=1e-15)

    def test_commutes_with_reflection(self):
        tau = np.linspace(-4, 4, 401)
        out = avg_g2(tau, 1.3, 1.1, 0.9, PHI15, 1.2, 0.1)
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
        for t_chk in (0.0, 0.1, 0.7):
            want = sum(quad(lambda x: avg_g2(t_chk - x, 2.0, 1.05, 0.95, PHI15, 1.7852, 0.0)
                            * math.exp(-0.5 * (x / s) ** 2) / (math.sqrt(2 * math.pi) * s),
                            lo, hi, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
                       for lo, hi in ((-12 * s, t_chk), (t_chk, 12 * s)))
            assert avg_g2(t_chk, 2.0, 1.05, 0.95, PHI15, 1.7852, s) == pytest.approx(want, abs=1e-9)


    def test_partials_match_central_differences(self):
        # both branches, the dropped Gaussian terms beyond 9 s, and no
        # detector (away from its cusp at tau = 0)
        h = 1e-6
        worst = 0.0
        for s in (0.0, 0.05, 0.136, 1.0):
            for a in (2.0, 1.0 - 3.0j, 1.2 + 0.4j, 6.0 - 20.0j):
                t = np.array([0.0 if s else 0.01, 0.3, 2.0, 8.0, 12.0]) * max(s, 0.1)
                _, da, dt, ds = detected_decay(a, t, s, partials=True)
                fd_a = (detected_decay(a + h, t, s) - detected_decay(a - h, t, s)) / (2 * h)
                fd_t = (detected_decay(a, t + h, s) - detected_decay(a, t - h, s)) / (2 * h)
                worst = max(worst, np.max(np.abs(da - fd_a)), np.max(np.abs(dt - fd_t)))
                if s > 0:
                    fd_s = (detected_decay(a, t, s + h) - detected_decay(a, t, s - h)) / (2 * h)
                    worst = max(worst, np.max(np.abs(ds - fd_s)))
        assert worst < 1e-8

    @pytest.mark.parametrize("t_resp", [0.136, 0.0])
    def test_repeated_delays_evaluated_once(self, t_resp, monkeypatch):
        # g2_trace evaluates a symmetric histogram once per distinct |tau|
        # and expands; values and partials are those of each delay alone,
        # up to the summation order of the node sum (a partial within 1e-14
        # of its largest entry: some are sums that cancel)
        p = REF.replace(detector_resp=t_resp * 2.0 * REF.lifetime)
        tau = np.arange(-600.0, 600.0 + 1e-9, 12.5)
        for jac in (False, True):
            m = ModelCurves(p, jac=jac)
            single = np.array([m.g2_trace(9.0, t) for t in tau])
            rows = []
            spy = lambda tau, *args: rows.append(np.size(tau)) or g2_tau_parts(tau, *args)
            monkeypatch.setattr(averaging, "g2_tau_parts", spy)
            grid = m.g2_trace(9.0, tau)
            monkeypatch.undo()
            assert rows == [(tau.size + 1) // 2]
            assert grid.shape == single.shape == tau.shape + ((7,) if jac else ())
            assert np.array_equal(grid, grid[::-1])
            assert np.allclose(grid[..., 0] if jac else grid,
                               single[..., 0] if jac else single, rtol=1e-15, atol=0)
            scale = np.max(np.abs(single), axis=0)
            assert np.all(np.abs(grid - single) <= 1e-14 * scale)


class TestPartials:
    """Partials of the averages in the reduced quantities, against differences.

    Each output depends elementwise on the array argument (delta for the
    transmission, tau for g2), so one shifted array gives all its partials.
    """

    @staticmethod
    def central(f, args, i, h=1e-4):
        def at(k):
            moved = list(args)
            moved[i] = args[i] + k * h
            return f(*moved)
        return (at(-2) - 8 * at(-1) + 8 * at(1) - at(2)) / (12 * h)

    @pytest.mark.parametrize("sigma", [0.0, 1.7852])
    def test_transmission(self, sigma):
        def g1(delta, zeta, beta, phi, alpha, sig):
            return avg_g1(delta, zeta, beta, phi, sig, alpha)

        args = [np.linspace(-6.0, 6.0, 13), 1.05, 0.9, PHI15, 0.3, sigma]
        _, d = avg_g1(*args[:4], sigma, args[4], jac=True)
        # at sigma = 0 the sigma partial is zero (the average is even in sigma)
        want = [self.central(g1, args, i) for i in range(6 if sigma else 5)]
        want += [] if sigma else [np.zeros(13)]
        assert np.allclose(d, np.column_stack(want), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("sigma", [0.0, 1.7852])
    def test_g2(self, sigma):
        def g2(delta, zeta, beta, phi, tau, t_resp, sig):
            return avg_g2(tau, delta, zeta, beta, phi, sig, t_resp)

        args = [0.7, 1.05, 0.9, PHI15, np.linspace(-1.0, 1.0, 9), 0.136, sigma]
        _, d = avg_g2(args[4], *args[:4], sigma, 0.136, jac=True)
        want = [self.central(g2, args, i) for i in range(7 if sigma else 6)]
        want += [] if sigma else [np.zeros(9)]
        assert np.allclose(d, np.column_stack(want), rtol=0, atol=1e-8)

    def test_scalar_delay_and_detuning(self):
        # 0-d tau and delta give the entries of the 1-d evaluation
        got = g2_tau_parts(0.3, 0.7, 1.05, 0.9, PHI15, 0.136, jac=True)
        want = g2_tau_parts(np.array([0.3]), np.array([0.7]), 1.05, 0.9, PHI15,
                            0.136, jac=True)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)[1:]
            assert np.allclose(g, w[0], rtol=1e-13, atol=0)

    def test_curves_with_partials_keep_their_values(self):
        # the value column of a curve with partials is the value-only curve
        plain, with_jac = ModelCurves(REF), ModelCurves(REF, jac=True)
        det, tau = np.linspace(-20.0, 20.0, 9), np.arange(-600.0, 601.0, 12.5)
        for name, args in (("transmission", (det,)), ("g2zero", (det,)),
                           ("g2_trace", (9.0, tau))):
            got = getattr(with_jac, name)(*args)
            assert got.shape == np.shape(getattr(plain, name)(*args)) + (7,)
            assert np.array_equal(got[..., 0], getattr(plain, name)(*args)), name


class TestModelCurves:
    def test_widths_come_from_the_params(self):
        m = ModelCurves(REF)
        assert m.sigma == pytest.approx(1.7851392513954498, rel=1e-12)
        assert m.t_resp == pytest.approx(0.136, rel=1e-12)

    def test_reference_g2zero_values(self):
        m = ModelCurves(REF)
        assert m.g2zero(9.0) == pytest.approx(1.961, abs=0.01)
        assert m.g2zero(-9.0) == pytest.approx(0.950, abs=0.01)
        # convolution pulls the bunching peak down
        m_raw = ModelCurves(REF.replace(detector_resp=0.0))
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

    # dephasing_time = 1e-300 ps is zeta = 2.5e302, where the closed forms
    # overflow; a valid PhysicalParams, so a typed error and no traceback
    def test_overflowing_dephasing_transmission_is_a_typed_error(self):
        with pytest.raises(ValueError, match="zeta"):
            ModelCurves(PhysicalParams(dephasing_time=1e-300)).transmission([0.0])

    def test_overflowing_dephasing_g2zero_is_a_typed_error(self):
        with pytest.raises(ValueError, match="zeta"):
            ModelCurves(PhysicalParams(dephasing_time=1e-300)).g2zero([0.0])

    @pytest.mark.xfail(strict=True, reason=(
        "open fault, ROADMAP item 1: at zeta = 2 the rate collision divides "
        "by |2 - a|^2 = 0 on the delta = 0 node and gives NaN"))
    def test_finite_at_the_rate_collision(self):
        # dephasing_time = 250 ps with the default 125 ps lifetime is zeta = 2
        g2 = ModelCurves(PhysicalParams(dephasing_time=250.0)).g2zero([0.0, 1.0])
        assert np.all(np.isfinite(g2))

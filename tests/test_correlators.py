import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from fanostat import (g1_general, g1_ideal, g2_coefficients, g2_tau_general,
                      g2zero_ideal, ideal_min_g2zero, phi_from_t0)

PHI15 = phi_from_t0(math.sqrt(0.15))
COT15 = 1 / math.tan(PHI15)


def modulus_form(tau, delta, phi):
    """Independent ideal-case oracle: |g1 + decaying bound part|^2 / g1^2."""
    T0 = math.cos(phi) ** 2
    g1 = (delta + math.tan(phi)) ** 2 / (1 + delta**2)
    at = np.abs(np.asarray(tau, dtype=float))
    z = g1 + np.exp(-at) * np.exp(1j * (2 * phi + delta * at)) / (T0 * (1 + delta**2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(z) ** 2 / g1**2


class TestG1Ideal:
    def test_resonant_full_reflection(self):
        assert g1_ideal(0.0, 0.0) == 0.0

    @pytest.mark.parametrize("t0", [0.3, 0.62, 0.9])
    def test_zero_at_fano_minimum(self, t0):
        phi = phi_from_t0(t0)
        assert g1_ideal(-math.tan(phi), phi) == pytest.approx(0.0, abs=1e-25)

    def test_maximum_value(self):
        # stationary point of the lineshape: normalized value 1/T0
        assert g1_ideal(COT15, PHI15) == pytest.approx(1 / 0.15, rel=1e-10)
        assert COT15 == pytest.approx(-0.42008, abs=1e-5)

    @pytest.mark.parametrize("t0", [0.2, 0.5, 0.62, 0.95])
    def test_absolute_transmission_unity_at_maximum(self, t0):
        phi = phi_from_t0(t0)
        T0 = t0 * t0
        assert T0 * g1_ideal(1 / math.tan(phi), phi) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_phi_edge(self):
        with pytest.raises(ValueError):
            g1_ideal(1.0, -math.pi / 2)


class TestG2ZeroIdeal:
    def test_transparent_waveguide_spot(self):
        dec = g2zero_ideal(1.0, 0.0)
        assert dec.product_term == 1.0
        assert dec.bound_term == pytest.approx(1.0, rel=1e-12)
        assert dec.interference_term == pytest.approx(2.0, rel=1e-12)
        assert dec.total == pytest.approx(4.0, rel=1e-12)

    def test_coherent_limit(self):
        assert g2zero_ideal(1e8, PHI15).total == pytest.approx(1.0, abs=1e-6)

    def test_fano_maximum_value(self):
        dec = g2zero_ideal(COT15, PHI15)
        assert dec.total == pytest.approx(0.5325, abs=1e-10)

    def test_divergence_is_flagged_not_raised(self):
        dec = g2zero_ideal(-math.tan(PHI15), PHI15)
        assert not np.isfinite(dec.total)

    @pytest.mark.parametrize("t0", [0.25, 0.5, math.sqrt(0.15), 0.95])
    def test_decomposition_identity_and_signs(self, t0):
        phi = phi_from_t0(t0)
        delta = np.linspace(-8, 8, 401)
        dec = g2zero_ideal(delta, phi)
        finite = np.isfinite(dec.total)
        assert np.allclose(
            dec.total[finite],
            dec.product_term[finite] + dec.bound_term[finite]
            + dec.interference_term[finite], atol=1e-12)
        assert np.all(dec.bound_term[finite] >= 0)
        sign = np.sign(2 * t0 * t0 - 1)
        if sign != 0:
            assert np.all(np.sign(dec.interference_term[finite]) == sign)


class TestIdealMinimum:
    @pytest.mark.parametrize("T0,expected", [(0.15, 0.51), (0.1, 0.36),
                                             (0.01, 0.0396), (0.001, 0.003996)])
    def test_analytic_values(self, T0, expected):
        assert ideal_min_g2zero(T0) == pytest.approx(expected, abs=1e-12)

    def test_boundary_and_above(self):
        assert ideal_min_g2zero(0.5) == 1.0
        assert ideal_min_g2zero(0.9) == 1.0
        assert ideal_min_g2zero(0.0) == 0.0

    @pytest.mark.parametrize("T0", [0.05, 0.15, 0.3, 0.45])
    def test_against_numeric_minimization(self, T0):
        # independent oracle: scalar minimization of the evaluated lineshape
        phi = phi_from_t0(math.sqrt(T0))

        def f(d):
            return g2zero_ideal(float(d), phi).total

        best = min(
            minimize_scalar(f, bounds=(-math.tan(phi) + 1e-6, 50), method="bounded",
                            options={"xatol": 1e-12}).fun,
            minimize_scalar(f, bounds=(-50, -math.tan(phi) - 1e-6), method="bounded",
                            options={"xatol": 1e-12}).fun)
        assert ideal_min_g2zero(T0) == pytest.approx(best, abs=1e-8)

    @pytest.mark.parametrize("T0", [0.5, 0.7, 1.0])
    def test_only_bunching_above_half(self, T0):
        phi = phi_from_t0(math.sqrt(T0))
        delta = np.linspace(-60, 60, 4001)
        total = g2zero_ideal(delta, phi).total
        assert np.all(total[np.isfinite(total)] >= 1.0)


class TestG1General:
    def test_reduces_to_ideal(self):
        delta = np.linspace(-10, 10, 101)
        assert np.allclose(g1_general(delta, 1.0, 1.0, PHI15),
                           g1_ideal(delta, PHI15), atol=1e-14)

    def test_decoupled_emitter(self):
        delta = np.linspace(-5, 5, 11)
        assert np.allclose(g1_general(delta, 1.3, 0.0, PHI15, alpha=0.7), 1.0)

    def test_saturation(self):
        assert g1_general(0.3, 1.1, 0.9, PHI15, alpha=1e9) == pytest.approx(1.0, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            g1_general(0.0, 0.5, 1.0, PHI15)
        with pytest.raises(ValueError):
            g1_general(0.0, 1.0, 1.5, PHI15)
        with pytest.raises(ValueError):
            g1_general(0.0, 1.0, 1.0, PHI15, alpha=-1e-3)


class TestG2Tau:
    def test_long_delay_limit(self):
        for params in [(2.0, 1.0, 1.0, PHI15), (0.5, 1.3, 0.8, phi_from_t0(0.9))]:
            assert g2_tau_general(40.0, *params) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_in_tau(self):
        tau = np.linspace(0, 6, 61)
        a = g2_tau_general(tau, 1.7, 1.2, 0.9, PHI15)
        b = g2_tau_general(-tau, 1.7, 1.2, 0.9, PHI15)
        assert np.allclose(a, b, atol=0)

    @pytest.mark.parametrize("T0", [0.15, 0.5, 1.0])
    def test_ideal_case_matches_modulus_form(self, T0):
        # reduction oracle on a dense grid; grid points sitting within float
        # cancellation of the transmission zero carry no information in
        # either evaluation and are excluded
        phi = phi_from_t0(math.sqrt(T0))
        tau = np.linspace(-10, 10, 81)
        for delta in np.linspace(-10, 10, 41):
            if g1_ideal(float(delta), phi) < 1e-10:
                continue
            ours = g2_tau_general(tau, float(delta), 1.0, 1.0, phi)
            ref = modulus_form(tau, float(delta), phi)
            assert np.allclose(ours, ref, rtol=1e-10, atol=1e-10)

    def test_zero_delay_spot_value(self):
        assert g2_tau_general(0.0, 1.0, 1.0, 1.0, 0.0) == pytest.approx(4.0, rel=1e-12)

    def test_zero_delay_consistency_with_doubled_coupling(self):
        # independent expression for the zero-delay normalization
        for delta, zeta, beta, phi in [(0.7, 1.2, 0.9, PHI15),
                                       (-2.0, 1.0, 0.6, phi_from_t0(0.8)),
                                       (3.0, 1.5, 1.0, phi_from_t0(0.4))]:
            def transm(b):
                D = zeta**2 + delta**2
                return (1 - 2 * b * (zeta - delta * math.tan(phi)) / D
                        + b * b * zeta / (math.cos(phi) ** 2 * D))
            expected = transm(2 * beta) / transm(beta) ** 2
            assert g2_tau_general(0.0, delta, zeta, beta, phi) == pytest.approx(
                expected, rel=1e-10)

    def test_fano_zero_divergence_flagged(self):
        phi = phi_from_t0(math.sqrt(0.5))
        val = g2_tau_general(0.3, -math.tan(phi), 1.0, 1.0, phi)
        assert not np.isfinite(val)

    def test_rounded_fano_zero_is_inf(self):
        # tan(phi_from_t0(sqrt(0.5))) rounds to -0.9999999999999999, which
        # left the unclamped transmission at delta = +1 at -2.2e-16 and g2
        # at a finite 2e31 instead of inf
        phi = phi_from_t0(math.sqrt(0.5))
        assert g1_general(1.0, 1.0, 1.0, phi) == 0.0
        assert g2_coefficients(1.0, 1.0, 1.0, phi).g1 == 0.0
        tau = np.linspace(0.0, 8.0, 161)
        assert np.all(g2_tau_general(tau, 1.0, 1.0, 1.0, phi) == np.inf)

    def test_transmission_never_negative(self):
        delta = np.linspace(-6.0, 6.0, 13)
        for T0 in (0.15, 0.5, 1.0):
            phi = phi_from_t0(math.sqrt(T0))
            for zeta in (1.0, 1.2):
                for beta in (0.9, 1.0):
                    for alpha in (0.0, 1e-3, 0.5):
                        assert np.all(g1_general(delta, zeta, beta, phi, alpha) >= 0.0)


class TestG2Coefficients:
    def test_decay_amplitude_unit_spot(self):
        c = g2_coefficients(0.0, 1.0, 1.0, 0.0)
        assert c.A == pytest.approx(1.0, rel=1e-12)

    def test_decoupled(self):
        c = g2_coefficients(1.3, 1.4, 0.0, PHI15)
        assert c.A == 0.0
        assert c.B == 0.0

    @pytest.mark.parametrize("T0", [0.15, 0.5, 1.0])
    def test_no_dephasing_amplitudes_match_modulus_form(self, T0):
        # expand |g1 + R e^{i(2phi + delta tau)}|^2: the exp(-2tau) weight is
        # R^2 and the sin weight is -2 g1 R sin(2phi)
        phi = phi_from_t0(math.sqrt(T0))
        for delta in (-4.0, -0.7, 0.4, 2.6):
            c = g2_coefficients(delta, 1.0, 1.0, phi)
            R = 1.0 / (T0 * (1 + delta**2))
            g1 = g1_ideal(delta, phi)
            assert c.A == pytest.approx(R * R, rel=1e-12)
            assert c.B == pytest.approx(-2 * g1 * R * math.sin(2 * phi),
                                        rel=1e-11, abs=1e-13)

    def test_dephasing_scales_A(self):
        # A carries the quadratic-in-coupling structure
        c1 = g2_coefficients(1.0, 1.2, 0.4, PHI15)
        c2 = g2_coefficients(1.0, 1.2, 0.8, PHI15)
        assert c2.A != pytest.approx(c1.A)

    def test_sin_amplitude_regular_at_zero_detuning(self):
        for zeta, beta in [(1.0, 1.0), (1.2, 0.9), (1.6, 0.5)]:
            b0 = g2_coefficients(0.0, zeta, beta, PHI15).B
            b1 = g2_coefficients(1e-9, zeta, beta, PHI15).B
            assert np.isfinite(b0)
            assert b0 == pytest.approx(b1, abs=1e-6)

    def test_g2_continuous_through_zero_detuning(self):
        tau = np.linspace(0, 6, 25)
        mid = g2_tau_general(tau, 0.0, 1.2, 0.9, PHI15)
        near = g2_tau_general(tau, 1e-7, 1.2, 0.9, PHI15)
        assert np.allclose(mid, near, atol=1e-5)

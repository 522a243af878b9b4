import math

import mpmath
import numpy as np
import pytest

from fanostat import (BlochState, DimensionlessParams, bloch_matrix,
                      g1_general, g1_ideal, g2_tau_general,
                      output_correlator_g1, output_correlator_g2, phi_from_t0,
                      propagate_exact, reduce_product, regression_initials,
                      steady_state)

PHI15 = phi_from_t0(math.sqrt(0.15))


def dp(delta=0.0, zeta=1.0, alpha=1e-3, phi=PHI15, sigma=0.0, t_resp=0.0):
    return DimensionlessParams(delta=delta, zeta=zeta, alpha=alpha, phi=phi,
                               sigma=sigma, t_resp=t_resp)


# matrix representations used as the independent oracle for the algebra table
SIGMA = {
    "1": np.eye(2, dtype=complex),
    "-": np.array([[0, 0], [1, 0]], dtype=complex),   # |g><e|
    "+": np.array([[0, 1], [0, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class TestProductTable:
    @pytest.mark.parametrize("a", ["-", "+", "z"])
    @pytest.mark.parametrize("b", ["-", "+", "z"])
    def test_pairs_match_matrix_products(self, a, b):
        got = reduce_product((a, b))
        lhs = SIGMA[a] @ SIGMA[b]
        rhs = sum(c * SIGMA[k] for k, c in got.items()) if got else np.zeros((2, 2))
        assert np.allclose(lhs, rhs, atol=1e-15)

    @pytest.mark.parametrize("ops", [("+", "-", "-"), ("+", "+", "-"),
                                     ("+", "z", "-"), ("-", "+", "-"),
                                     ("z", "z", "z"), ("+", "-", "+", "-")])
    def test_longer_strings(self, ops):
        got = reduce_product(ops)
        lhs = np.eye(2, dtype=complex)
        for op in ops:
            lhs = lhs @ SIGMA[op]
        rhs = sum(c * SIGMA[k] for k, c in got.items()) if got else np.zeros((2, 2))
        assert np.allclose(lhs, rhs, atol=1e-15)

    def test_identity_passthrough(self):
        assert reduce_product(("1", "-", "1")) == {"-": 1.0 + 0j}

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            reduce_product(("x",))


class TestSteadyState:
    def test_undriven_ground_state(self):
        ss = steady_state(dp(alpha=0.0))
        assert ss.s_minus == 0
        assert ss.s_z == pytest.approx(-1.0, abs=1e-14)

    def test_strong_drive_saturation(self):
        ss = steady_state(dp(alpha=1e6))
        assert abs(ss.s_z) < 1e-4
        assert ss.population == pytest.approx(0.5, abs=1e-4)

    def test_residual_small_and_physical(self):
        for delta in (-3.0, 0.0, 2.5):
            for alpha in (1e-6, 0.3, 5.0):
                ss = steady_state(dp(delta=delta, zeta=1.3, alpha=alpha))
                assert ss.physicality_defect() < 1e-12
                assert -1 <= ss.s_z <= 1

    def test_linear_response_matches_ideal_transmission(self):
        # the weak-drive limit; the residual pump correction scales linearly
        # with alpha (slope up to ~5 here), so probe well below the tolerance
        for delta in np.linspace(-5, 5, 11):
            got = output_correlator_g1(dp(delta=delta, alpha=1e-8), beta=1.0)
            assert got == pytest.approx(g1_ideal(delta, PHI15), abs=1e-6)


def mp_output_g2(tau, params, beta):
    """40-digit reference for ``output_correlator_g2``.

    The same regression system, solved in mpmath: the stationary state by LU,
    each delay through ``mpmath.expm``, the initial vectors from their
    product-table values (pinned in ``TestRegressionInitials``).
    """
    with mpmath.workdps(40):
        M, b = bloch_matrix(params)
        M = mpmath.matrix(M.tolist())
        b = mpmath.matrix(b.tolist())
        s_minus, _, s_z = mpmath.lu_solve(M, -b)
        n = (1 + s_z.real) / 2
        # (components, identity) of u = (1, sigma_-) and v = (sigma_+, sigma_-)
        u0, u_id = mpmath.matrix([0, n, -s_minus]), s_minus
        v0, v_id = mpmath.matrix([0, 0, -n]), n
        u_inf = mpmath.lu_solve(M, -b * u_id)
        v_inf = mpmath.lu_solve(M, -b * v_id)
        t0 = mpmath.cos(params.phi)
        kap = (1j * mpmath.exp(1j * mpmath.mpf(params.phi) / 2) * beta
               * mpmath.sqrt(2 / mpmath.mpf(params.alpha)) / t0)
        k2 = abs(kap) ** 2
        g1 = 1 + 2 * (kap * s_minus).real + k2 * n
        out = []
        for t in tau:
            E = mpmath.expm(M * mpmath.mpf(t))
            um, up, uz = u_inf + E * (u0 - u_inf)
            vm, _, vz = v_inf + E * (v0 - v_inf)
            G = (1 + 4 * (kap * s_minus).real + 2 * k2 * n
                 + 2 * (kap**2 * um).real + 2 * k2 * up.real
                 + 2 * k2 * (kap * (u_id + uz) / 2).real
                 + 2 * k2 * (kap * vm).real + k2**2 * ((v_id + vz) / 2).real)
            out.append(float(G / g1**2))
    return np.array(out)


def scaled_error(got, want):
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


class TestPropagateExact:
    def test_steady_state_is_fixed_point(self):
        params = dp(delta=1.2, zeta=1.2, alpha=0.4)
        ss = steady_state(params)
        [traj] = propagate_exact([ss], np.linspace(0, 5, 21), params)
        assert np.max(np.abs(traj[0] - ss.s_minus)) < 1e-12
        assert np.max(np.abs(traj[2] - ss.s_z)) < 1e-12

    def test_undriven_decay_from_excited_state(self):
        params = dp(alpha=0.0)
        tau = np.linspace(0, 4, 41)
        [traj] = propagate_exact([BlochState(s_minus=0.0, s_z=1.0)], tau, params)
        expected = -1.0 + 2.0 * np.exp(-2.0 * tau)   # rate gamma in lab time
        assert np.allclose(traj[2].real, expected, rtol=0, atol=1e-14)

    def test_coherence_decays_faster_with_dephasing(self):
        params = dp(alpha=0.0, zeta=4.0)
        init = BlochState(s_minus=0.3, s_z=-0.5)
        [traj] = propagate_exact([init], np.array([0.0, 1.0]), params)
        coh_factor = abs(traj[0, -1]) / abs(traj[0, 0])
        pop_factor = (1 + traj[2, -1].real) / (1 + traj[2, 0].real)
        assert coh_factor == pytest.approx(math.exp(-4.0), rel=1e-12)
        assert pop_factor == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert coh_factor < pop_factor

    def test_conjugation_and_physicality_along_trajectory(self):
        params = dp(delta=0.8, zeta=1.1, alpha=2.0)
        [traj] = propagate_exact([BlochState(s_minus=0.0, s_z=-1.0)],
                                 np.linspace(0, 6, 61), params)
        assert np.max(np.abs(traj[1] - np.conj(traj[0]))) < 1e-14
        assert np.all(traj[2].real >= -1 - 1e-12)
        assert np.all(traj[2].real <= 1 + 1e-12)

    def test_each_initial_vector_propagated_alone(self):
        params = dp(delta=-0.7, zeta=1.3, alpha=0.6)
        u0, v0 = regression_initials(steady_state(params))
        tau = np.linspace(0, 3, 7)
        both = propagate_exact([u0, v0], tau, params)
        assert np.array_equal(both[0], propagate_exact([u0], tau, params)[0])
        assert np.array_equal(both[1], propagate_exact([v0], tau, params)[0])

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            propagate_exact([BlochState(0.0, -1.0)], np.array([0.0, -1.0]), dp())

    def test_g2_matches_mpmath_reference(self):
        # the finite-drive amplitude kappa ~ alpha**-1/2 scales absolute
        # propagation errors by |kappa|**4 ~ 1e8 in g2
        tau = np.linspace(0, 8, 17)
        worst = 0.0
        for T0 in (0.15, 1.0):
            phi = phi_from_t0(math.sqrt(T0))
            for delta in (-6.0, -1.0, 0.0, 2.0):
                for zeta in (1.0, 1.2):
                    params = dp(delta=delta, zeta=zeta, phi=phi, alpha=1e-3)
                    got = output_correlator_g2(tau, params, 0.9)
                    worst = max(worst, scaled_error(got, mp_output_g2(tau, params, 0.9)))
        assert worst < 1e-6

    @pytest.mark.parametrize("params", [
        dp(delta=0.0, zeta=1.0, alpha=0.125, phi=0.0),   # two eigenvalues -1.5
        dp(delta=0.0, zeta=2.0, alpha=1e-3),             # three near -2
    ], ids=["exceptional-point", "zeta-2"])
    def test_coincident_eigenvalues_match_mpmath_reference(self, params):
        tau = np.linspace(0, 8, 17)
        got = output_correlator_g2(tau, params, 0.9)
        assert scaled_error(got, mp_output_g2(tau, params, 0.9)) < 1e-10


class TestRegressionInitials:
    def test_values_from_table(self):
        params = dp(delta=0.5, zeta=1.2, alpha=0.8)
        ss = steady_state(params)
        u0, v0 = regression_initials(ss)
        n = ss.population
        assert u0.components[0] == pytest.approx(0.0)
        assert u0.components[1] == pytest.approx(n)
        assert u0.components[2] == pytest.approx(-ss.s_minus)
        assert u0.identity == pytest.approx(ss.s_minus)
        assert v0.components[0] == pytest.approx(0.0)
        assert v0.components[1] == pytest.approx(0.0)
        assert v0.components[2] == pytest.approx(-n)
        assert v0.identity == pytest.approx(n)


class TestOutputG1:
    def test_decoupled(self):
        assert output_correlator_g1(dp(delta=1.0), beta=0.0) == 1.0

    @pytest.mark.parametrize("T0", [0.15, 1.0])
    def test_weak_drive_grid_matches_closed_form(self, T0):
        phi = phi_from_t0(math.sqrt(T0))
        for delta in np.linspace(-5, 5, 11):
            params = dp(delta=delta, phi=phi, alpha=1e-6)
            assert output_correlator_g1(params, 1.0) == pytest.approx(
                g1_general(delta, 1.0, 1.0, phi, 1e-6), abs=1e-6)

    def test_finite_pump_matches_closed_form(self):
        for delta in (-2.0, 0.0, 3.0):
            for zeta in (1.0, 1.2):
                params = dp(delta=delta, zeta=zeta, alpha=0.5)
                assert output_correlator_g1(params, 0.9) == pytest.approx(
                    g1_general(delta, zeta, 0.9, PHI15, 0.5), abs=1e-6)


class TestOutputG2:
    def test_decoupled_is_coherent(self):
        tau = np.linspace(0, 5, 11)
        assert np.array_equal(output_correlator_g2(tau, dp(delta=1.0), 0.0),
                              np.ones_like(tau))

    def test_fano_maximum_value(self):
        params = dp(delta=1 / math.tan(PHI15), alpha=1e-3)
        g2 = output_correlator_g2(np.array([0.0, 30.0]), params, 1.0)
        assert g2[0] == pytest.approx(0.5325, abs=5e-3)
        assert g2[1] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("zeta", [1.0, 1.2])
    @pytest.mark.parametrize("beta", [0.9, 1.0])
    def test_matches_closed_form_weak_pump(self, zeta, beta):
        # the residual is the physical finite-pump correction, which scales
        # with alpha amplified by the correlation magnitude; probe points of
        # moderate g2 at a small drive (the full grid runs in acceptance)
        tau = np.linspace(0, 8, 81)
        for T0 in (0.15, 1.0):
            phi = phi_from_t0(math.sqrt(T0))
            for delta in (-4.0, -1.0, 0.5):
                want = g2_tau_general(tau, delta, zeta, beta, phi)
                if np.max(want) > 10.0:
                    continue
                params = dp(delta=delta, zeta=zeta, phi=phi, alpha=1e-5)
                got = output_correlator_g2(tau, params, beta)
                assert np.max(np.abs(got - want)) < 1e-3

    def test_tau_grid_validation(self):
        with pytest.raises(ValueError):
            output_correlator_g2(np.array([-1.0, 0.0]), dp(), 1.0)
        with pytest.raises(ValueError):
            output_correlator_g2(np.array([[0.0, 1.0]]), dp(), 1.0)

    def test_needs_finite_drive(self):
        with pytest.raises(ValueError):
            output_correlator_g2(np.array([0.0]), dp(alpha=0.0), 1.0)


def test_bloch_matrix_structure():
    params = dp(delta=2.0, zeta=1.5, alpha=0.5)
    M, b = bloch_matrix(params)
    assert M[0, 0] == pytest.approx(2.0 * 1j - 1.5)
    assert M[1, 1] == pytest.approx(-2.0 * 1j - 1.5)
    assert M[2, 2] == -2.0
    assert M[0, 1] == 0 and M[1, 0] == 0
    assert b[2] == -2.0
    # drive couplings: (-g, -g*) in the coherence rows, (2g*, 2g) below
    assert M[1, 2] == pytest.approx(np.conj(M[0, 2]))
    assert M[2, 0] == pytest.approx(-2.0 * np.conj(M[0, 2]))
    assert M[2, 1] == pytest.approx(-2.0 * M[0, 2])
    g = M[0, 2] * -1
    assert abs(g) == pytest.approx(math.sqrt(0.5 / 2))

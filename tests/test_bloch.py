import contextlib
import io
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fanostat import (DimensionlessParams, bloch_matrix, g1_general, g1_ideal,
                      g2_tau_general, output_correlator_g1,
                      output_correlator_g2, phi_from_t0, propagate_exact,
                      steady_state)
from fanostat.bloch import _exp_triangular
from fanostat.cli import main

PHI15 = phi_from_t0(math.sqrt(0.15))


def dp(delta=0.0, zeta=1.0, alpha=1e-3, phi=PHI15, sigma=0.0, t_resp=0.0):
    return DimensionlessParams(delta=delta, zeta=zeta, alpha=alpha, phi=phi,
                               sigma=sigma, t_resp=t_resp)


def drive(params):
    """Reduced drive g = i*exp(i*phi/2)*sqrt(alpha/2)."""
    return 1j * np.exp(1j * params.phi / 2.0) * math.sqrt(params.alpha / 2.0)


def mp_drive(params):
    """``drive`` in mpmath at the working precision."""
    phi, alpha = mpmath.mpf(params.phi), mpmath.mpf(params.alpha)
    return 1j * mpmath.exp(1j * phi / 2) * mpmath.sqrt(alpha / 2)


def unscaled_system(params, g):
    """The physical Bloch system d/dtau (s-, s+, s_z) = M v + b, built from
    the equations of motion and not from ``bloch_matrix``; nested lists."""
    d, z = params.delta, params.zeta
    M = [[1j * d - z, 0, -g],
         [0, -1j * d - z, -g.conjugate()],
         [2 * g.conjugate(), 2 * g, -2]]
    return M, [0, 0, -2]


def to_scaled(v, g):
    """Physical averages (s-, s+, s_z) as the scaled (x, y, m)."""
    return [v[0] / g, v[1] / g.conjugate(), (1 + v[2]) / 2 / abs(g) ** 2]


def mp_output_g2(tau, params, beta):
    """40-digit reference for ``output_correlator_g2``.

    The unscaled regression system, solved in mpmath: the stationary state
    by LU, each delay through ``mpmath.expm``, and the field amplitude
    kappa = d/(t0*alpha_in) in place of its scaled form. The initial vectors
    are the sandwiched operators (sigma_-, sigma_+, sigma_z) * sigma_- and
    sigma_+ * (sigma_-, sigma_+, sigma_z) * sigma_-.
    """
    with mpmath.workdps(40):
        g = mp_drive(params)
        M, b = unscaled_system(params, g)
        M, b = mpmath.matrix(M), mpmath.matrix(b)
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


def mp_propagate(v0, tau, params):
    """40-digit reference for ``propagate_exact`` of one scaled state
    (identity 1): taken to the physical averages, propagated through the
    unscaled system by ``mpmath.expm`` and scaled back."""
    with mpmath.workdps(40):
        g = mp_drive(params)
        M, b = unscaled_system(params, g)
        M, b = mpmath.matrix(M), mpmath.matrix(b)
        x, y, m = (mpmath.mpc(complex(c)) for c in v0)
        phys = mpmath.matrix([g * x, g.conjugate() * y, 2 * abs(g) ** 2 * m - 1])
        v_inf = mpmath.lu_solve(M, -b)
        out = [[complex(c) for c in to_scaled(
                    v_inf + mpmath.expm(M * mpmath.mpf(t)) * (phys - v_inf), g)]
               for t in tau]
    return np.array(out).T


def regression_vectors(params):
    """Scaled regression initials as ``propagate_exact`` takes them: u starts
    at (0, m, 0) with identity x, v at 0 with identity m."""
    x, _, m = steady_state(params)
    return np.array([[0.0, m, 0.0], [0.0, 0.0, 0.0]]), np.array([x, m])


def scaled_error(got, want):
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


class TestSteadyState:
    def test_undriven_ground_state(self):
        # the physical averages g*x and |g|^2*m vanish; the scaled state is
        # the linear response
        x, y, m = steady_state(dp(delta=0.7, zeta=1.3, alpha=0.0))
        assert x == pytest.approx(1.0 / (1.3 - 0.7j), rel=1e-15)
        assert y == np.conj(x)
        assert m == pytest.approx(1.3 / (1.3**2 + 0.7**2), rel=1e-15)

    def test_strong_drive_saturation(self):
        alpha = 1e6
        x, _, m = steady_state(dp(alpha=alpha))
        population = alpha * m.real / 2.0            # n = |g|^2 m
        assert population == pytest.approx(0.5, abs=1e-4)
        assert abs(x) ** 2 * alpha / 2.0 < 1e-4      # |<sigma_->|^2

    def test_residual_small_and_physical(self):
        # |<sigma_->|^2 <= n (1 - n), scaled by |g|^2 = alpha/2
        for delta in (-3.0, 0.0, 2.5):
            for alpha in (0.0, 1e-6, 0.3, 5.0):
                x, _, m = steady_state(dp(delta=delta, zeta=1.3, alpha=alpha))
                assert abs(x) ** 2 <= m.real * (1 - alpha * m.real / 2) + 1e-12
                assert 0 <= alpha * m.real / 2 <= 1

    def test_linear_response_matches_ideal_transmission(self):
        # alpha = 0 is the weak-drive limit itself, not an approach to it
        for delta in np.linspace(-5, 5, 11):
            got = output_correlator_g1(dp(delta=delta, alpha=0.0), beta=1.0)
            assert got == pytest.approx(g1_ideal(delta, PHI15), abs=1e-14)


class TestPropagateExact:
    def test_steady_state_is_fixed_point(self):
        params = dp(delta=1.2, zeta=1.2, alpha=0.4)
        ss = steady_state(params)
        [traj] = propagate_exact([ss], [1.0], np.linspace(0, 5, 21), params)
        assert np.max(np.abs(traj - ss[:, None])) < 1e-14

    def test_undriven_decay_from_excited_state(self):
        # identity 0: the homogeneous part, here the population alone
        params = dp(alpha=0.0)
        tau = np.linspace(0, 4, 41)
        [traj] = propagate_exact([[0.0, 0.0, 1.0]], [0.0], tau, params)
        expected = np.exp(-2.0 * tau)   # rate gamma in lab time
        assert np.allclose(traj[2].real, expected, rtol=0, atol=1e-15)
        assert np.max(np.abs(traj[:2])) == 0.0

    def test_long_delay_reaches_steady_state(self):
        # eigenvalues near -2 and -10: a quotient of their exponentials
        # at tau = 1000 would overflow
        params = dp(delta=0.3, zeta=10.0, alpha=0.2)
        [traj] = propagate_exact([[0.1, 0.1, 0.5]], [1.0],
                                 np.array([0.0, 500.0, 1000.0]), params)
        ss = steady_state(params)
        assert np.max(np.abs(traj[:, 1:] - ss[:, None])) < 1e-14

    def test_coherence_decays_faster_with_dephasing(self):
        params = dp(alpha=0.0, zeta=4.0)
        coherence, population = propagate_exact(
            [[0.3, 0.3, 0.0], [0.0, 0.0, 0.5]], [0.0, 0.0],
            np.array([0.0, 1.0]), params)
        coh_factor = abs(coherence[0, -1]) / abs(coherence[0, 0])
        pop_factor = population[2, -1].real / population[2, 0].real
        assert coh_factor == pytest.approx(math.exp(-4.0), rel=1e-14)
        assert pop_factor == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert coh_factor < pop_factor

    def test_conjugation_and_physicality_along_trajectory(self):
        # from the ground state x = m = 0; |<sigma_->|^2 <= n (1 - n) holds
        # along the trajectory as |x|^2 <= m (1 - alpha m / 2)
        alpha = 2.0
        params = dp(delta=0.8, zeta=1.1, alpha=alpha)
        [(x, y, m)] = propagate_exact([[0.0, 0.0, 0.0]], [1.0],
                                      np.linspace(0, 6, 61), params)
        assert np.max(np.abs(y - np.conj(x))) < 1e-15
        assert np.max(np.abs(m.imag)) < 1e-15
        assert np.all(np.abs(x) ** 2 <= m.real * (1 - alpha * m.real / 2) + 1e-14)
        assert np.all(alpha * m.real / 2 <= 1 + 1e-14)

    def test_each_initial_vector_propagated_alone(self):
        params = dp(delta=-0.7, zeta=1.3, alpha=0.6)
        v0, ident = regression_vectors(params)
        tau = np.linspace(0, 3, 7)
        both = propagate_exact(v0, ident, tau, params)
        for k in range(2):
            [alone] = propagate_exact(v0[k:k + 1], ident[k:k + 1], tau, params)
            assert np.array_equal(both[k], alone)

    def test_initial_shapes_checked(self):
        with pytest.raises(ValueError):
            propagate_exact([0.0, 0.0, 0.0], [1.0], np.array([0.0]), dp())
        with pytest.raises(ValueError):
            propagate_exact([[0.0, 0.0, 0.0]], [1.0, 1.0], np.array([0.0]), dp())

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            propagate_exact([[0.0, 0.0, 0.0]], [1.0], np.array([0.0, -1.0]), dp())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_delay_rejected(self, bad):
        with pytest.raises(ValueError):
            propagate_exact([[0.0, 0.0, 0.0]], [1.0], np.array([0.0, bad]), dp())

    @pytest.mark.parametrize("params", [
        dp(delta=0.0, zeta=2.0, alpha=1e-10),            # all three near -2
        dp(delta=0.0, zeta=1.0, alpha=0.125, phi=0.0),   # two eigenvalues -1.5
        dp(delta=0.5, zeta=1.2, alpha=50.0),
    ], ids=["series", "exceptional-point", "strong-drive"])
    def test_propagator_matches_mpmath_reference(self, params):
        init = [0.2 - 0.1j, 0.2 + 0.1j, 0.3]
        tau = np.linspace(0, 8, 17)
        [got] = propagate_exact([init], [1.0], tau, params)
        assert np.max(np.abs(got - mp_propagate(init, tau, params))) < 1e-14

    @pytest.mark.parametrize("spread", [0.0, 1e-7, 1.3e-4, 1e-3, 0.05, 1.0])
    @pytest.mark.parametrize("middle", [0, 1, 2])
    def test_triangular_exponential_matches_mpmath(self, spread, middle):
        # O(1) couplings above the diagonal, so the second divided
        # difference carries F13 at every eigenvalue spread; the eigenvalue
        # at index ``middle`` lies between the other two
        lam = -2.0 + spread * np.roll([0.0, 0.5 + 0.3j, 1.3], middle - 1)
        T = np.diag(lam) + np.array([[0, 0.7 - 0.2j, 0.4 + 0.1j],
                                     [0, 0, -0.6 + 0.5j], [0, 0, 0]])
        tau = np.concatenate([[0.0, 1e-3, 0.05], np.linspace(0.1, 8, 9)])
        with mpmath.workdps(40):
            want = [mpmath.expm(mpmath.matrix(T.tolist()) * mpmath.mpf(t)).tolist()
                    for t in tau]
        want = np.array(want, dtype=complex)
        assert np.max(np.abs(_exp_triangular(T, tau) - want)) < 1e-15

    def test_matches_scipy_expm_over_grid(self):
        tau = np.linspace(0, 8, 41)
        worst = 0.0
        for alpha, zeta, delta, phi in itertools.product(
                (0.0, 0.125, 0.5, 2.0, 50.0), (1.0, 1.2, 2.0),
                np.linspace(-6, 6, 13), (PHI15, 0.0, -0.5)):
            params = dp(delta=float(delta), zeta=zeta, alpha=alpha, phi=phi)
            v0, ident = regression_vectors(params)
            M, b = bloch_matrix(params)
            E = expm(tau[:, None, None] * M)
            got = propagate_exact(v0, ident, tau, params)
            for k in range(2):
                v_inf = np.linalg.solve(M, -b * ident[k])
                want = v_inf[:, None] + np.einsum("tij,j->it", E, v0[k] - v_inf)
                worst = max(worst, np.max(np.abs(got[k] - want)))
        assert worst < 1e-14

    def test_g2_matches_mpmath_reference(self):
        # the reference runs the unscaled system, so this also checks the
        # scaling of the basis and of the field amplitude
        tau = np.linspace(0, 8, 17)
        worst = 0.0
        for T0 in (0.15, 1.0):
            phi = phi_from_t0(math.sqrt(T0))
            for delta in (-6.0, -1.0, 0.0, 2.0):
                for zeta in (1.0, 1.2):
                    params = dp(delta=delta, zeta=zeta, phi=phi, alpha=1e-3)
                    got = output_correlator_g2(tau, params, 0.9)
                    worst = max(worst, scaled_error(got, mp_output_g2(tau, params, 0.9)))
        assert worst < 1e-9

    @pytest.mark.parametrize("params", [
        dp(delta=0.0, zeta=1.0, alpha=0.125, phi=0.0),   # two eigenvalues -1.5
        dp(delta=0.0, zeta=2.0, alpha=1e-3),             # three near -2
    ], ids=["exceptional-point", "zeta-2"])
    def test_coincident_eigenvalues_match_mpmath_reference(self, params):
        tau = np.linspace(0, 8, 17)
        got = output_correlator_g2(tau, params, 0.9)
        assert scaled_error(got, mp_output_g2(tau, params, 0.9)) < 1e-10


SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)   # |g><e|, basis (e, g)


class TestRegressionInitials:
    def test_equal_time_moments_from_density_matrix(self):
        # at tau = 0 the regression vectors are their initial values, so
        # g1 and g2(0) are the stationary moments of the output field
        # a = 1 + kappa*sigma_-, here taken by 2x2 matrix products
        params = dp(delta=0.5, zeta=1.2, alpha=0.8)
        beta = 0.9
        g = drive(params)
        x, _, m = steady_state(params)
        rho = np.array([[abs(g) ** 2 * m, g * x], [np.conj(g * x), 1 - abs(g) ** 2 * m]])
        kap = (1j * np.exp(1j * params.phi / 2) * beta
               * math.sqrt(2 / params.alpha) / math.cos(params.phi))
        a = np.eye(2) + kap * SIGMA_MINUS
        ad = a.conj().T
        g1 = np.trace(ad @ a @ rho).real
        g20 = np.trace(ad @ ad @ a @ a @ rho).real / g1**2
        assert output_correlator_g1(params, beta) == pytest.approx(g1, rel=1e-13)
        assert output_correlator_g2([0.0], params, beta)[0] == pytest.approx(g20, rel=1e-13)


class TestOutputG1:
    def test_decoupled(self):
        assert output_correlator_g1(dp(delta=1.0), beta=0.0) == 1.0

    @pytest.mark.parametrize("T0", [0.15, 1.0])
    def test_weak_drive_grid_matches_closed_form(self, T0):
        phi = phi_from_t0(math.sqrt(T0))
        for delta in np.linspace(-5, 5, 11):
            params = dp(delta=delta, phi=phi, alpha=0.0)
            assert output_correlator_g1(params, 1.0) == pytest.approx(
                g1_general(delta, 1.0, 1.0, phi), abs=1e-14)

    def test_finite_pump_matches_closed_form(self):
        for delta in (-2.0, 0.0, 3.0):
            for zeta in (1.0, 1.2):
                params = dp(delta=delta, zeta=zeta, alpha=0.5)
                assert output_correlator_g1(params, 0.9) == pytest.approx(
                    g1_general(delta, zeta, 0.9, PHI15, 0.5), abs=1e-14)


def criterion_4_points():
    """Criterion 4's grid (T0, zeta, beta, delta) with the weak-drive closed
    form, less the two points on the ideal Fano zero where it is infinite."""
    tau = np.linspace(0.0, 8.0, 161)
    for T0, zeta, beta, delta in itertools.product(
            (0.15, 0.5, 1.0), (1.0, 1.2), (0.9, 1.0), np.linspace(-6.0, 6.0, 13)):
        phi = phi_from_t0(math.sqrt(T0))
        closed = g2_tau_general(tau, float(delta), zeta, beta, phi)
        if np.all(np.isfinite(closed)):
            yield tau, dp(delta=float(delta), zeta=zeta, alpha=0.0, phi=phi), beta, closed


class TestOutputG2:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_delay_rejected(self, bad):
        params = dp(delta=0.5, zeta=1.2, alpha=1e-3, phi=-0.5)
        with pytest.raises(ValueError):
            output_correlator_g2(np.array([bad]), params, 0.9)

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

    def test_zero_drive_matches_closed_form(self):
        worst, count = 0.0, 0
        for tau, params, beta, closed in criterion_4_points():
            got = output_correlator_g2(tau, params, beta)
            worst, count = max(worst, scaled_error(got, closed)), count + 1
        assert count == 154
        assert worst < 1e-9

    @pytest.mark.parametrize("zeta", [2 - 1e-2, 2 - 1e-4, 2 + 1e-4, 2 + 1e-2])
    def test_zero_drive_through_the_rate_collision(self, zeta):
        tau = np.linspace(0, 8, 81)
        params = dp(delta=0.0, zeta=zeta, alpha=0.0, phi=-0.5)
        got = output_correlator_g2(tau, params, 0.9)
        assert scaled_error(got, g2_tau_general(tau, 0.0, zeta, 0.9, -0.5)) < 1e-9

    def test_zero_drive_at_the_rate_collision(self):
        # the closed form is singular at zeta = 2, delta = 0; the oracle is
        # regular there, so it equals the mean of its neighbours to O(1e-12)
        tau = np.linspace(0, 8, 81)
        at, below, above = (output_correlator_g2(tau, dp(delta=0.0, zeta=z, alpha=0.0,
                                                         phi=-0.5), 0.9)
                            for z in (2.0, 2 - 1e-6, 2 + 1e-6))
        assert np.all(np.isfinite(at))
        assert scaled_error(at, (below + above) / 2) < 1e-9


def test_bloch_matrix_structure():
    alpha = 0.5
    params = dp(delta=2.0, zeta=1.5, alpha=alpha)
    M, b = bloch_matrix(params)
    assert M[0, 0] == 2.0 * 1j - 1.5
    assert M[1, 1] == -2.0 * 1j - 1.5
    assert M[2, 2] == -2.0
    assert M[0, 1] == 0 and M[1, 0] == 0
    assert M[0, 2] == M[1, 2] == -alpha
    assert M[2, 0] == M[2, 1] == 1.0
    assert np.array_equal(b, [1.0, 1.0, 0.0])
    # the scaled vector field is the physical one, in scaled units
    g = drive(params)
    v = np.array([0.3 - 0.2j, 0.3 + 0.2j, 0.4])
    Mp, bp = unscaled_system(params, g)
    phys = np.array([g * v[0], np.conj(g) * v[1], 2 * abs(g) ** 2 * v[2] - 1])
    rate = np.array(Mp) @ phys + bp
    want = [rate[0] / g, rate[1] / np.conj(g), rate[2] / (2 * abs(g) ** 2)]
    assert np.allclose(M @ v + b, want, rtol=0, atol=1e-15)


# the sweep domain: every valid point gives finite correlators, and the CLI
# check gives an exit code, never a traceback
@settings(derandomize=True, database=None, deadline=None)
@given(delta=st.floats(-50.0, 50.0),
       zeta=st.floats(1.0, 33.0),
       alpha=st.just(0.0) | st.floats(-12.0, 3.0).map(lambda e: 10.0**e),
       phi=st.floats(-math.pi / 2 + 1e-3, 0.0),
       beta=st.floats(0.0, 1.0))
@example(delta=0.0, zeta=2.0, alpha=0.0, phi=-0.5, beta=0.9)        # rate collision
@example(delta=0.0, zeta=1.0, alpha=0.125, phi=0.0, beta=0.9)       # exceptional point
@example(delta=15.2, zeta=1.0, alpha=2.5e-10, phi=-1.516, beta=0.8)  # weak-drive cancellation
@example(delta=5e-324, zeta=1.0, alpha=0.0, phi=0.0, beta=1.0)     # subnormal eigenvalue split
@example(delta=0.0, zeta=1.0, alpha=0.0, phi=0.0, beta=1.0)        # ideal Fano zero
def test_oracle_finite_over_the_parameter_domain(delta, zeta, alpha, phi, beta):
    # g2 is inf only where the transmission vanishes: on the ideal Fano zero
    # (zeta = beta = 1, delta = -tan(phi)) at alpha = 0
    params = dp(delta=delta, zeta=zeta, alpha=alpha, phi=phi)
    g1 = output_correlator_g1(params, beta)
    g2 = output_correlator_g2(np.linspace(0, 8, 17), params, beta)
    assert math.isfinite(g1) and g1 >= 0
    assert np.all(np.isfinite(g2)) or (g1 == 0 and np.all(g2 == np.inf))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["oracle-check", f"--alpha={alpha!r}", f"--deltas={delta!r}",
                     f"--t0s={math.cos(phi)!r}", f"--zetas={zeta!r}",
                     f"--betas={beta!r}"])
    assert code in (0, 4)

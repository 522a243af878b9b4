import contextlib
import io
import itertools
import json
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, schur

from analytic import (ReducedPoint, g1_ideal, mp_drive, mp_output_g2,
                      reference_propagate_exact, unscaled_system)
import fanostat.bloch
import fanostat.correlators
from fanostat import (bloch_matrix, g1_general, g2_tau_general, output_correlators,
                      output_g1, phi_from_t0, propagate_exact, steady_state)
from fanostat.bloch import _apply_exp_triangular
from fanostat.correlators import detected_decay
from fanostat.cli import G1_DRIVE, main, oracle_check

PHI15 = phi_from_t0(math.sqrt(0.15))
MPMATH_G2 = Path(__file__).with_name("mpmath_g2_reference.json")


def dp(delta=0.0, zeta=1.0, alpha=1e-3, phi=PHI15):
    return ReducedPoint(delta=delta, zeta=zeta, alpha=alpha, phi=phi)


def drive(params):
    """Reduced drive g = i*exp(i*phi/2)*sqrt(alpha/2)."""
    return 1j * np.exp(1j * params.phi / 2.0) * math.sqrt(params.alpha / 2.0)


def system(params):
    """``bloch_matrix`` of the one-point sweep at ``params``."""
    return bloch_matrix([params.delta], params.zeta, params.alpha)


def stationary(params):
    """``steady_state`` at the one point ``params``, shape (3,)."""
    return steady_state(*system(params))[0]


def propagate(initials, identities, tau, params):
    """``propagate_exact`` at the one point ``params``: the k vectors of
    ``initials`` (k, 3) along the delays, shape (k, 3, len(tau))."""
    return propagate_exact([initials], [identities], tau, *system(params))[0]


def g1_at(params, beta):
    """``output_g1`` at the one point ``params``."""
    return output_g1([params.delta], params.zeta, params.alpha, params.phi, beta)[0]


def g2_at(tau, params, beta):
    """The g2 of ``output_correlators`` at the one point ``params``."""
    return output_correlators(tau, [params.delta], params.zeta, params.alpha,
                              params.phi, beta)[1][0]


def to_scaled(v, g):
    """Physical averages (s-, s+, s_z) as the scaled (x, y, m)."""
    return [v[0] / g, v[1] / g.conjugate(), (1 + v[2]) / 2 / abs(g) ** 2]


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
    x, _, m = stationary(params)
    return np.array([[0.0, m, 0.0], [0.0, 0.0, 0.0]]), np.array([x, m])


def scaled_error(got, want):
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


class TestSteadyState:
    def test_undriven_ground_state(self):
        # the physical averages g*x and |g|^2*m vanish; the scaled state is
        # the linear response
        x, y, m = stationary(dp(delta=0.7, zeta=1.3, alpha=0.0))
        assert x == pytest.approx(1.0 / (1.3 - 0.7j), rel=1e-15)
        assert y == np.conj(x)
        assert m == pytest.approx(1.3 / (1.3**2 + 0.7**2), rel=1e-15)

    def test_strong_drive_saturation(self):
        alpha = 1e6
        x, _, m = stationary(dp(alpha=alpha))
        population = alpha * m.real / 2.0            # n = |g|^2 m
        assert population == pytest.approx(0.5, abs=1e-4)
        assert abs(x) ** 2 * alpha / 2.0 < 1e-4      # |<sigma_->|^2

    def test_residual_small_and_physical(self):
        # |<sigma_->|^2 <= n (1 - n), scaled by |g|^2 = alpha/2
        for delta in (-3.0, 0.0, 2.5):
            for alpha in (0.0, 1e-6, 0.3, 5.0):
                x, _, m = stationary(dp(delta=delta, zeta=1.3, alpha=alpha))
                assert abs(x) ** 2 <= m.real * (1 - alpha * m.real / 2) + 1e-12
                assert 0 <= alpha * m.real / 2 <= 1

    def test_linear_response_matches_ideal_transmission(self):
        # alpha = 0 is the weak-drive limit itself, not an approach to it
        for delta in np.linspace(-5, 5, 11):
            got = g1_at(dp(delta=delta, alpha=0.0), beta=1.0)
            assert got == pytest.approx(g1_ideal(delta, PHI15), abs=1e-14)


class TestPropagateExact:
    def test_steady_state_is_fixed_point(self):
        params = dp(delta=1.2, zeta=1.2, alpha=0.4)
        ss = stationary(params)
        [traj] = propagate([ss], [1.0], np.linspace(0, 5, 21), params)
        assert np.max(np.abs(traj - ss[:, None])) < 1e-14

    def test_undriven_decay_from_excited_state(self):
        # identity 0: the homogeneous part, here the population alone
        params = dp(alpha=0.0)
        tau = np.linspace(0, 4, 41)
        [traj] = propagate([[0.0, 0.0, 1.0]], [0.0], tau, params)
        expected = np.exp(-2.0 * tau)   # rate gamma in lab time
        assert np.allclose(traj[2].real, expected, rtol=0, atol=1e-15)
        assert np.max(np.abs(traj[:2])) == 0.0

    def test_long_delay_reaches_steady_state(self):
        # eigenvalues near -2 and -10: a quotient of their exponentials
        # at tau = 1000 would overflow
        params = dp(delta=0.3, zeta=10.0, alpha=0.2)
        [traj] = propagate([[0.1, 0.1, 0.5]], [1.0],
                           np.array([0.0, 500.0, 1000.0]), params)
        ss = stationary(params)
        assert np.max(np.abs(traj[:, 1:] - ss[:, None])) < 1e-14

    def test_coherence_decays_faster_with_dephasing(self):
        params = dp(alpha=0.0, zeta=4.0)
        coherence, population = propagate(
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
        [(x, y, m)] = propagate([[0.0, 0.0, 0.0]], [1.0],
                                np.linspace(0, 6, 61), params)
        assert np.max(np.abs(y - np.conj(x))) < 1e-15
        assert np.max(np.abs(m.imag)) < 1e-15
        assert np.all(np.abs(x) ** 2 <= m.real * (1 - alpha * m.real / 2) + 1e-14)
        assert np.all(alpha * m.real / 2 <= 1 + 1e-14)

    def test_each_initial_vector_propagated_alone(self):
        params = dp(delta=-0.7, zeta=1.3, alpha=0.6)
        v0, ident = regression_vectors(params)
        tau = np.linspace(0, 3, 7)
        both = propagate(v0, ident, tau, params)
        for k in range(2):
            [alone] = propagate(v0[k:k + 1], ident[k:k + 1], tau, params)
            assert np.array_equal(both[k], alone)

    def test_initial_shapes_checked(self):
        M, b = system(dp())
        with pytest.raises(ValueError):
            propagate_exact([[0.0, 0.0, 0.0]], [[1.0]], np.array([0.0]), M, b)
        with pytest.raises(ValueError):
            propagate_exact([[[0.0, 0.0, 0.0]]], [[1.0, 1.0]], np.array([0.0]), M, b)
        with pytest.raises(ValueError):     # two points, one matrix
            propagate_exact(np.zeros((2, 1, 3)), np.ones((2, 1)), np.array([0.0]), M, b)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            propagate([[0.0, 0.0, 0.0]], [1.0], np.array([0.0, -1.0]), dp())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_delay_rejected(self, bad):
        with pytest.raises(ValueError):
            propagate([[0.0, 0.0, 0.0]], [1.0], np.array([0.0, bad]), dp())

    @pytest.mark.parametrize("params", [
        dp(delta=0.0, zeta=2.0, alpha=1e-10),            # all three near -2
        dp(delta=0.0, zeta=1.0, alpha=0.125, phi=0.0),   # two eigenvalues -1.5
        dp(delta=0.5, zeta=1.2, alpha=50.0),
    ], ids=["series", "exceptional-point", "strong-drive"])
    def test_propagator_matches_mpmath_reference(self, params):
        init = [0.2 - 0.1j, 0.2 + 0.1j, 0.3]
        tau = np.linspace(0, 8, 17)
        [got] = propagate([init], [1.0], tau, params)
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
        # column j of exp(T tau) is its product with the unit vector e_j
        y = np.stack(_apply_exp_triangular(T[None], tau, np.eye(3, dtype=complex)[None]),
                     axis=-1)[0]
        assert np.max(np.abs(y.transpose(1, 2, 0) - want)) < 1e-15

    def test_matches_scipy_expm_over_grid(self):
        tau = np.linspace(0, 8, 41)
        worst = 0.0
        for alpha, zeta, delta, phi in itertools.product(
                (0.0, 0.125, 0.5, 2.0, 50.0), (1.0, 1.2, 2.0),
                np.linspace(-6, 6, 13), (PHI15, 0.0, -0.5)):
            params = dp(delta=float(delta), zeta=zeta, alpha=alpha, phi=phi)
            v0, ident = regression_vectors(params)
            (M,), b = system(params)
            E = expm(tau[:, None, None] * M)
            got = propagate(v0, ident, tau, params)
            for k in range(2):
                v_inf = np.linalg.solve(M, -b * ident[k])
                want = v_inf[:, None] + np.einsum("tij,j->it", E, v0[k] - v_inf)
                worst = max(worst, np.max(np.abs(got[k] - want)))
        assert worst < 1e-14

    def test_g2_matches_mpmath_reference(self):
        # the reference runs the unscaled system, so this also checks the
        # scaling of the basis and of the field amplitude; its values are
        # stored by tests/mpmath_g2_reference.py
        ref = json.loads(MPMATH_G2.read_text())
        tau = np.linspace(0, 8, 17)
        points = [dp(delta=delta, zeta=zeta, phi=phi_from_t0(math.sqrt(T0)), alpha=1e-3)
                  for T0 in (0.15, 1.0) for delta in (-6.0, -1.0, 0.0, 2.0)
                  for zeta in (1.0, 1.2)]
        assert ref["beta"] == 0.9 and ref["tau"] == tau.tolist()
        assert ref["points"] == [{"delta": p.delta, "zeta": p.zeta, "phi": p.phi,
                                  "alpha": p.alpha} for p in points]
        worst = max(scaled_error(g2_at(tau, p, 0.9), np.array(want))
                    for p, want in zip(points, ref["g2"]))
        assert worst < 1e-9
        # the stored values are mp_output_g2's: one point computed live
        assert mp_output_g2(tau, points[3], 0.9).tolist() == ref["g2"][3]

    @pytest.mark.parametrize("params", [
        dp(delta=0.0, zeta=1.0, alpha=0.125, phi=0.0),   # two eigenvalues -1.5
        dp(delta=0.0, zeta=2.0, alpha=1e-3),             # three near -2
    ], ids=["exceptional-point", "zeta-2"])
    def test_coincident_eigenvalues_match_mpmath_reference(self, params):
        tau = np.linspace(0, 8, 17)
        got = g2_at(tau, params, 0.9)
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
        x, _, m = stationary(params)
        rho = np.array([[abs(g) ** 2 * m, g * x], [np.conj(g * x), 1 - abs(g) ** 2 * m]])
        kap = (1j * np.exp(1j * params.phi / 2) * beta
               * math.sqrt(2 / params.alpha) / math.cos(params.phi))
        a = np.eye(2) + kap * SIGMA_MINUS
        ad = a.conj().T
        g1 = np.trace(ad @ a @ rho).real
        g20 = np.trace(ad @ ad @ a @ a @ rho).real / g1**2
        assert g1_at(params, beta) == pytest.approx(g1, rel=1e-13)
        assert g2_at([0.0], params, beta)[0] == pytest.approx(g20, rel=1e-13)


class TestOutputG1:
    def test_decoupled(self):
        assert g1_at(dp(delta=1.0), beta=0.0) == 1.0

    @pytest.mark.parametrize("T0", [0.15, 1.0])
    def test_weak_drive_grid_matches_closed_form(self, T0):
        phi = phi_from_t0(math.sqrt(T0))
        for delta in np.linspace(-5, 5, 11):
            params = dp(delta=delta, phi=phi, alpha=0.0)
            assert g1_at(params, 1.0) == pytest.approx(
                g1_general(delta, 1.0, 1.0, phi), abs=1e-14)

    def test_finite_pump_matches_closed_form(self):
        for delta in (-2.0, 0.0, 3.0):
            for zeta in (1.0, 1.2):
                params = dp(delta=delta, zeta=zeta, alpha=0.5)
                assert g1_at(params, 0.9) == pytest.approx(
                    g1_general(delta, zeta, 0.9, PHI15, 0.5), abs=1e-14)


class TestOutputG2:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_delay_rejected(self, bad):
        params = dp(delta=0.5, zeta=1.2, alpha=1e-3, phi=-0.5)
        with pytest.raises(ValueError):
            g2_at(np.array([bad]), params, 0.9)

    def test_decoupled_is_coherent(self):
        tau = np.linspace(0, 5, 11)
        assert np.array_equal(g2_at(tau, dp(delta=1.0), 0.0),
                              np.ones_like(tau))

    def test_fano_maximum_value(self):
        params = dp(delta=1 / math.tan(PHI15), alpha=1e-3)
        g2 = g2_at(np.array([0.0, 30.0]), params, 1.0)
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
                got = g2_at(tau, params, beta)
                assert np.max(np.abs(got - want)) < 1e-3

    def test_tau_grid_validation(self):
        with pytest.raises(ValueError):
            g2_at(np.array([-1.0, 0.0]), dp(), 1.0)
        with pytest.raises(ValueError):
            g2_at(np.array([[0.0, 1.0]]), dp(), 1.0)

    def test_zero_drive_matches_closed_form(self):
        # criterion 4's sweep: alpha = 0, compared wherever g2 is finite
        rows, summary = oracle_check()
        assert len([r for r in rows if not r[6]]) == 154
        assert summary["max_g2_error"] < 1e-9

    @pytest.mark.parametrize("zeta", [2 - 1e-2, 2 - 1e-4, 2 + 1e-4, 2 + 1e-2])
    def test_zero_drive_through_the_rate_collision(self, zeta):
        tau = np.linspace(0, 8, 81)
        params = dp(delta=0.0, zeta=zeta, alpha=0.0, phi=-0.5)
        got = g2_at(tau, params, 0.9)
        assert scaled_error(got, g2_tau_general(tau, 0.0, zeta, 0.9, -0.5)) < 1e-9

    def test_zero_drive_at_the_rate_collision(self):
        # the closed form is singular at zeta = 2, delta = 0; the oracle is
        # regular there, so it equals the mean of its neighbours to O(1e-12)
        tau = np.linspace(0, 8, 81)
        at, below, above = (g2_at(tau, dp(delta=0.0, zeta=z, alpha=0.0, phi=-0.5), 0.9)
                            for z in (2.0, 2 - 1e-6, 2 + 1e-6))
        assert np.all(np.isfinite(at))
        assert scaled_error(at, (below + above) / 2) < 1e-9


# corners of the parameter domain, each an example of the domain test below
CORNERS = {
    "rate collision": dict(delta=0.0, zeta=2.0, alpha=0.0, phi=-0.5, beta=0.9),
    "exceptional point": dict(delta=0.0, zeta=1.0, alpha=0.125, phi=0.0, beta=0.9),
    "weak-drive cancellation": dict(delta=15.2, zeta=1.0, alpha=2.5e-10,
                                    phi=-1.516, beta=0.8),
    "subnormal eigenvalue split": dict(delta=5e-324, zeta=1.0, alpha=0.0,
                                       phi=0.0, beta=1.0),
    "ideal Fano zero": dict(delta=0.0, zeta=1.0, alpha=0.0, phi=0.0, beta=1.0),
}


def propagation_args(corner):
    """``propagate_exact``'s arguments for the corner's detuning among
    others: the g2 regression vector and one of no symmetry."""
    p = CORNERS[corner]
    deltas = np.array([-3.0, p["delta"], 0.4, p["delta"] + 1.0])
    M, b = bloch_matrix(deltas, p["zeta"], p["alpha"])
    v = steady_state(M, b)
    initials = np.zeros((4, 2, 3), dtype=complex)
    initials[:, 0, 1] = v[:, 2]
    initials[:, 1] = [0.2 - 0.1j, 0.2 + 0.1j, 0.3]
    return (initials, np.stack([v[:, 0], v[:, 2]], axis=-1),
            np.linspace(0, 8, 161), M, b)


class TestSweep:
    @pytest.mark.parametrize("corner", CORNERS)
    def test_each_point_equals_it_alone(self, corner):
        # the corner's detuning among others: at the rate collision all three
        # eigenvalues coincide, so one point of the sweep has a zero divisor
        p = CORNERS[corner]
        rest = (p["zeta"], p["alpha"], p["phi"], p["beta"])
        tau = np.linspace(0, 8, 17)
        deltas = np.array([-3.0, p["delta"], 0.4, p["delta"] + 1.0])
        g1, g2 = output_correlators(tau, deltas, *rest)
        assert g1.shape == (4,) and g2.shape == (4, 17)
        for k, delta in enumerate(deltas):
            [alone_g1], [alone_g2] = output_correlators(tau, [delta], *rest)
            assert np.array_equal(g1[k], alone_g1)
            assert np.array_equal(g2[k], alone_g2)
        assert np.array_equal(output_g1(deltas, *rest), g1)

    def test_fano_zero_inside_a_sweep(self):
        g1, g2 = output_correlators(np.linspace(0, 8, 17), [-1.0, 0.0, 1.0],
                                    1.0, 0.0, 0.0, 1.0)
        assert g1[1] == 0 and np.all(g2[1] == np.inf)
        assert np.all(g1[::2] > 0) and np.all(np.isfinite(g2[::2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_detuning_rejected(self, bad):
        with pytest.raises(ValueError):
            output_g1([0.0, bad], 1.2, 1e-3, -0.5, 0.9)

    def test_detunings_must_be_a_non_empty_vector(self):
        for deltas in ([], [[0.0, 1.0]]):
            with pytest.raises(ValueError):
                output_g1(deltas, 1.2, 1e-3, -0.5, 0.9)

    def test_overflowing_drive_is_a_typed_error(self):
        # at alpha = 1e200 the stationary state is fine, but the Schur
        # propagation overflows; that is an error, not a NaN g2
        assert np.isfinite(output_g1([0.0], 1.0, 1e200, -0.5, 0.9)).all()
        with pytest.raises(ValueError, match="overflow"):
            output_correlators(np.linspace(0, 8, 17), [0.0], 1.0, 1e200, -0.5, 0.9)

    def test_huge_dephasing_is_finite(self):
        # the series of the second divided difference is summed in
        # (lam - mu)*tau, so eigenvalues 1e50 apart do not overflow it;
        # beyond that zeta the closed forms overflow, and both refuse it
        g1, g2 = output_correlators(np.linspace(0, 8, 17), [0.0, 3.0], 1e50,
                                    0.0, -0.5, 0.9)
        assert np.all(g1 == 1.0) and np.all(g2 == 1.0)
        with pytest.raises(ValueError, match="zeta"):
            output_correlators(np.linspace(0, 8, 17), [0.0], 1e160, 0.0, -0.5, 0.9)

    def test_one_stationary_solve_per_point_and_drive(self, monkeypatch):
        # the default grid: each zeta is one sweep over the 6 (t0, beta)
        # fields, g1 and g2 at alpha from one solve, g1 at G1_DRIVE from
        # another, so 2 zeta x 13 detunings x 2 drives (one sweep per
        # (t0, zeta, beta) block made 312 solves, the per-point code 466);
        # the closed form g2 takes D(2, tau) and D(zeta - i delta, tau) once
        # per zeta for every field (once per block made 24 calls). At
        # alpha = 0 every Bloch matrix is its own Schur form; at a finite
        # drive each detuning of the g2 sweep takes one (156 before the
        # sweeps)

        def counted(M, b):
            solved.append(len(M))
            return steady_state(M, b)

        def counted_schur(m, **kwargs):
            factored.append(1)
            return schur(m, **kwargs)

        def counted_decay(*args, **kwargs):
            decays.append(1)
            return detected_decay(*args, **kwargs)
        monkeypatch.setattr(fanostat.bloch, "steady_state", counted)
        monkeypatch.setattr(fanostat.bloch, "schur", counted_schur)
        monkeypatch.setattr(fanostat.correlators, "detected_decay", counted_decay)
        for alpha, schur_forms in ((0.0, 0), (0.1, 26)):
            solved, factored, decays = [], [], []
            rows, _ = oracle_check(alpha=alpha, tau_points=2)
            assert len(rows) == 156 and sum(solved) == 52
            assert len(factored) == schur_forms and len(decays) == 4

    @pytest.mark.parametrize("alpha,first,second", [(0.0, 1, 0), (0.1, 3, 1)])
    def test_divided_differences_of_one_sweep(self, alpha, first, second, monkeypatch):
        # at alpha = 0, T12 = 0 drops f[lambda1, lambda2] and the second
        # difference, and f[lambda0, lambda2] is the conjugate of
        # f[lambda0, lambda1]; a driven sweep takes all four
        calls = []

        def counted(name):
            original = getattr(fanostat.bloch, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(fanostat.bloch, name, wrapper)
        for name in ("propagate_exact", "_divided_difference",
                     "_second_divided_difference"):
            counted(name)
        oracle_check(alpha=alpha, zetas=(1.2,), tau_points=9)
        assert calls.count("propagate_exact") == 1
        assert calls.count("_divided_difference") == first
        assert calls.count("_second_divided_difference") == second

    @pytest.mark.parametrize("corner", CORNERS)
    def test_each_field_equals_it_alone(self, corner):
        # the corner's background among others, one of them twice and one
        # with no emitter field (beta = 0); on the ideal Fano zero g2 is inf
        p = CORNERS[corner]
        phis = [-0.5, p["phi"], -1.2, p["phi"], 0.0]
        betas = [0.9, p["beta"], 0.3, p["beta"], 0.0]
        tau = np.linspace(0, 8, 17)
        deltas = np.array([-3.0, p["delta"], 0.4, p["delta"] + 1.0])
        rest = (p["zeta"], p["alpha"], phis, betas)
        g1, g2 = output_correlators(tau, deltas, *rest)
        assert g1.shape == (5, 4) and g2.shape == (5, 4, 17)
        assert np.array_equal(output_g1(deltas, *rest), g1)
        for f, (phi, beta) in enumerate(zip(phis, betas)):
            alone = (tau, deltas, p["zeta"], p["alpha"], phi, beta)
            alone_g1, alone_g2 = output_correlators(*alone)
            assert np.array_equal(g1[f], alone_g1)
            assert np.array_equal(g2[f], alone_g2)
            assert np.array_equal(output_g1(*alone[1:]), alone_g1)
            [one_g1], [one_g2] = output_correlators(tau, deltas, p["zeta"],
                                                    p["alpha"], [phi], [beta])
            assert np.array_equal(one_g1, alone_g1)
            assert np.array_equal(one_g2, alone_g2)

    @pytest.mark.parametrize("phi,beta", [
        ([-0.5, -0.2], [0.9, 0.8, 0.7]),
        ([[-0.5, -0.2]], [[0.9, 0.8]]),
        (-0.5, [0.9, 0.8]),
    ], ids=["different-lengths", "two-dimensional", "scalar-and-array"])
    def test_fields_must_be_matching_vectors(self, phi, beta):
        with pytest.raises(ValueError, match="phi and beta"):
            output_g1([0.0, 1.0], 1.2, 1e-3, phi, beta)
        with pytest.raises(ValueError, match="phi and beta"):
            output_correlators(np.linspace(0, 8, 17), [0.0, 1.0], 1.2, 1e-3, phi, beta)

    @pytest.mark.parametrize("phi,beta,name,value", [
        ([-0.5, -0.2, -0.1], [0.9, 1.5, 0.7], "beta", "1.5"),
        ([-0.5, -math.pi / 2, -0.1], [0.9, 0.8, 0.7], "phi", repr(-math.pi / 2)),
    ], ids=["beta", "phi"])
    def test_one_field_out_of_domain(self, phi, beta, name, value):
        with pytest.raises(ValueError, match=name):
            output_g1([0.0, 1.0], 1.2, 1e-3, phi, beta)
        with pytest.raises(ValueError, match=name):
            output_correlators(np.linspace(0, 8, 17), [0.0, 1.0], 1.2, 1e-3, phi, beta)
        # the closed forms over the same fields name the value as well
        phi, beta = np.array(phi)[:, None], np.array(beta)[:, None]
        pattern = rf"^{name} must .*; got {re.escape(value)}$"
        with pytest.raises(ValueError, match=pattern):
            g1_general([0.0, 1.0], 1.2, beta, phi)
        with pytest.raises(ValueError, match=pattern):
            g2_tau_general(np.linspace(0, 8, 17), np.array([[0.0], [1.0]]), 1.2,
                           beta[..., None], phi[..., None])

    @pytest.mark.parametrize("flag", ["--betas=0.9,1.5,1.0", "--t0s=0.5,1.5",
                                      "--t0s=0.5,0"],
                             ids=["beta", "t0-above-one", "t0-zero"])
    def test_oracle_check_field_out_of_domain_exit_code(self, flag):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["oracle-check", "--deltas=0,1", flag]) == 2

    def test_oracle_check_rows_are_its_blocks_in_order(self):
        # unsorted axes and a repeated zeta: the rows are the (t0, zeta,
        # beta) blocks in product order, each evaluated alone with scalar
        # phi and beta, bit for bit; t0 = zeta = beta = 1 holds the ideal
        # Fano zero at delta = 0, a divergent row
        grid = {"deltas": (2.0, -1.0, 0.0), "t0s": (1.0, math.sqrt(0.15), 0.7),
                "zetas": (1.2, 1.0, 1.2), "betas": (1.0, 0.9)}
        alpha, tau = 1e-3, np.linspace(0.0, 8.0, 33)
        rows, summary = oracle_check(alpha=alpha, tau_points=33, **grid)
        deltas = np.array(grid["deltas"])
        want = []
        for t0, zeta, beta in itertools.product(grid["t0s"], grid["zetas"],
                                                grid["betas"]):
            phi = phi_from_t0(t0)
            closed = g2_tau_general(tau, deltas[:, None], zeta, beta, phi)
            g1, g2 = output_correlators(tau, deltas, zeta, alpha, phi, beta)
            e1 = np.maximum(
                np.abs(g1 - g1_general(deltas, zeta, beta, phi, alpha)),
                np.abs(output_g1(deltas, zeta, G1_DRIVE, phi, beta)
                       - g1_general(deltas, zeta, beta, phi, G1_DRIVE)))
            finite = np.all(np.isfinite(closed), axis=1)
            e2 = np.full(deltas.shape, math.nan)
            e2[finite] = np.max(np.abs(g2[finite] - closed[finite])
                                / np.maximum(1.0, np.abs(closed[finite])), axis=1)
            want += [(t0 * t0, zeta, beta, dl, err1, err2, "" if ok else "divergent")
                     for dl, err1, err2, ok in zip(deltas.tolist(), e1.tolist(),
                                                   e2.tolist(), finite.tolist())]
        # repr is exact for floats, and shows nan equal to nan
        assert repr(rows) == repr(want)
        assert summary["n_points"] == 54 and summary["n_divergent"] == 1

    @pytest.mark.parametrize("corner", CORNERS)
    def test_propagation_is_the_full_matrix_product(self, corner):
        # the back substitution drops only the exact zeros of exp(T tau), so
        # it gives the bits of the full matrix-vector products
        args = propagation_args(corner)
        assert propagate_exact(*args).tobytes() == reference_propagate_exact(*args).tobytes()

    @pytest.mark.parametrize("corner", [c for c in CORNERS if CORNERS[c]["alpha"] == 0])
    def test_undriven_schur_form_is_the_reversed_matrix(self, corner, monkeypatch):
        # at alpha = 0 the Bloch matrix in reversed basis order is its own
        # Schur form; propagated through it or through scipy's Schur form,
        # the regression vectors agree to rounding, at the triple eigenvalue
        # of the rate collision and the subnormal split too
        args = propagation_args(corner)
        reversed_form = propagate_exact(*args)
        monkeypatch.setattr(fanostat.bloch, "_schur_forms", lambda M: tuple(
            map(np.array, zip(*[schur(m, output="complex") for m in M]))))
        factored = propagate_exact(*args)
        assert np.all(np.abs(reversed_form - factored) <= 1e-14 * np.abs(factored))

    @pytest.mark.parametrize("corner", CORNERS)
    def test_closed_forms_over_fields_equal_each_field_alone(self, corner):
        # the corner's background among others, one of them twice and one
        # with no emitter field (beta = 0): g2 is inf on the ideal Fano zero
        # and NaN at the rate collision (zeta = 2, delta = 0), in the arrays
        # as alone
        p = CORNERS[corner]
        phis = np.array([-0.5, p["phi"], -1.2, p["phi"], 0.0])
        betas = np.array([0.9, p["beta"], 0.3, p["beta"], 0.0])
        tau = np.linspace(0, 8, 17)
        deltas = np.array([-3.0, p["delta"], 0.4, p["delta"] + 1.0])
        zeta, alpha = p["zeta"], p["alpha"]
        g2 = g2_tau_general(tau, deltas[:, None], zeta, betas[:, None, None],
                            phis[:, None, None])
        g1 = g1_general(deltas, zeta, betas[:, None], phis[:, None], alpha)
        assert g2.shape == (5, 4, 17) and g1.shape == (5, 4)
        for f, (phi, beta) in enumerate(zip(phis.tolist(), betas.tolist())):
            alone = g2_tau_general(tau, deltas[:, None], zeta, beta, phi)
            assert g2[f].tobytes() == alone.tobytes()
            assert g1[f].tobytes() == g1_general(deltas, zeta, beta, phi, alpha).tobytes()
        if corner == "ideal Fano zero":
            assert np.all(g2[1, 1] == np.inf)
        if corner == "rate collision":
            assert np.all(np.isnan(g2[1, 1]))

    def test_oracle_check_flags_the_rate_collision(self):
        # at zeta = 2, delta = 0 the closed form is NaN, not infinite; the
        # row is flagged and left out of the g2 error like the Fano zero
        rows, summary = oracle_check(deltas=(0.0,), zetas=(2.0,), t0s=(0.7,),
                                     betas=(0.9,))
        [(_, _, _, _, e1, e2, flag)] = rows
        assert math.isnan(e2) and flag == "divergent" and e1 < 1e-12
        assert summary["n_divergent"] == 1 and summary["max_g2_error"] == 0.0


def test_bloch_matrix_structure():
    alpha = 0.5
    params = dp(delta=2.0, zeta=1.5, alpha=alpha)
    (M,), b = system(params)
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
@example(**CORNERS["rate collision"])
@example(**CORNERS["exceptional point"])
@example(**CORNERS["weak-drive cancellation"])
@example(**CORNERS["subnormal eigenvalue split"])
@example(**CORNERS["ideal Fano zero"])
@example(delta=0.0, zeta=1.0, alpha=1e200, phi=-0.5, beta=0.9)    # propagation overflows
@example(delta=0.0, zeta=1e160, alpha=0.0, phi=-0.5, beta=0.9)    # closed forms overflow
def test_oracle_finite_over_the_parameter_domain(delta, zeta, alpha, phi, beta):
    # g2 is inf only where the transmission vanishes: on the ideal Fano zero
    # (zeta = beta = 1, delta = -tan(phi)) at alpha = 0. Beyond the sampled
    # domain (the last two examples) a typed error is an answer as well
    sampled = zeta <= 33.0 and alpha <= 1e3
    try:
        [g1], [g2] = output_correlators(np.linspace(0, 8, 17), [delta], zeta,
                                        alpha, phi, beta)
    except ValueError:
        assert not sampled
    else:
        assert math.isfinite(g1) and g1 >= 0
        assert np.all(np.isfinite(g2)) or (g1 == 0 and np.all(g2 == np.inf))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["oracle-check", f"--alpha={alpha!r}", f"--deltas={delta!r}",
                     f"--t0s={math.cos(phi)!r}", f"--zetas={zeta!r}",
                     f"--betas={beta!r}"])
    assert code in ((0, 4) if sampled else (0, 2, 4))

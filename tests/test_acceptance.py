"""Acceptance suite: one check per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them as they execute).

Criterion 4 compares the weak-pump closed forms with the independent
regression solver through ``oracle_check``; since the g2 closed form is the
alpha -> 0 limit, it is compared with the solver at alpha = 0, which the
solver reaches exactly. Criterion 6 pins the
wandering-averaged dip floor to the exact Gaussian-kernel value, the kernel
the ``averaging`` module documents.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import erfcx

from analytic import g2_coefficients, ideal_min_g2zero, scattering_matrix
from fanostat import (G2Histogram, MeasurementSet,
                      ModelCurves, PhysicalParams, avg_g1,
                      avg_g2, fit_full_model, g1_general, g2_tau_general, g2_tau_parts, g2zero_ideal,
                      output_correlators, phi_from_t0)
from fanostat.cli import G1_DRIVE, oracle_check

REF = PhysicalParams()          # the documented reference configuration


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def numeric_min_g2zero(T0):
    phi = phi_from_t0(math.sqrt(T0))
    edge = -math.tan(phi)

    def f(d):
        return g2zero_ideal(float(d), phi).total

    lo = minimize_scalar(f, bounds=(-60.0, edge - 1e-9), method="bounded",
                         options={"xatol": 1e-13}).fun
    hi = minimize_scalar(f, bounds=(edge + 1e-9, 60.0), method="bounded",
                         options={"xatol": 1e-13}).fun
    return min(lo, hi)


def test_criterion_1_ideal_antibunching_floor():
    start = time.time()
    T0 = 0.15
    phi = phi_from_t0(math.sqrt(T0))
    analytic = ideal_min_g2zero(T0)
    numeric = numeric_min_g2zero(T0)
    at_max = g2zero_ideal(1 / math.tan(phi), phi).total
    elapsed = time.time() - start
    ok = (abs(numeric - 4 * T0 * (1 - T0)) < 1e-6
          and abs(analytic - 0.51) < 1e-12
          and abs(numeric - 0.5) < 0.05
          and abs(at_max - 0.5325) < 1e-4
          and elapsed < 1.0)
    assert report(1, ok,
                  f"min g2(0) = {numeric:.9f} (target 0.51), value at the "
                  f"transmission maximum = {at_max:.6f} (target 0.5325), "
                  f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_bunching_only_regime():
    start = time.time()
    delta = np.linspace(-60.0, 60.0, 120001)
    total = g2zero_ideal(delta, 0.0).total
    finite = np.isfinite(total)
    all_bunched = bool(np.all(total[finite] >= 1.0))
    spots = [(1.0, 4.0), (2.0, (1 + 2.0**-2) ** 2), (0.5, (1 + 0.5**-2) ** 2)]
    spot_ok = all(abs(g2zero_ideal(d, 0.0).total - want) < 1e-12
                  for d, want in spots)
    elapsed = time.time() - start
    ok = all_bunched and spot_ok and elapsed < 1.0
    assert report(2, ok,
                  f"g2(0) >= 1 on {finite.sum()} grid points; "
                  f"g2(0; delta=1) = {g2zero_ideal(1.0, 0.0).total:.12f}; "
                  f"{elapsed * 1e3:.0f} ms")


def test_criterion_3_vanishing_floor():
    targets = {0.1: 0.36, 0.01: 0.0396, 0.001: 0.003996}
    worst = 0.0
    for T0, want in targets.items():
        worst = max(worst,
                    abs(ideal_min_g2zero(T0) - want),
                    abs(numeric_min_g2zero(T0) - want))
    ok = worst < 1e-8
    assert report(3, ok, f"largest deviation from the analytic floor: {worst:.2e}")


def on_ideal_fano_zero(T0, zeta, beta, delta):
    """True where the weak-pump transmission vanishes exactly (g2 = inf)."""
    phi = phi_from_t0(math.sqrt(T0))
    return zeta == 1.0 and beta == 1.0 and abs(delta + math.tan(phi)) < 1e-9


@pytest.fixture(scope="module")
def oracle_grid():
    """Shared sweep for criterion 4: ``oracle_check`` at its default grid.

    Each row is (T0, zeta, beta, delta, g1 error, g2 error, flag). The g1
    error is the absolute one at alpha = 0 and at ``G1_DRIVE``; the g2
    error is max over tau of |solver - closed| / max(1, |closed|) with the
    solver at alpha = 0, and NaN on rows flagged ``"divergent"``.
    """
    start = time.time()
    rows, _ = oracle_check()
    return rows, time.time() - start


def test_criterion_4_g1_equivalence_and_runtime(oracle_grid):
    rows, elapsed = oracle_grid
    worst = max(r[4] for r in rows)
    ok = worst < 1e-6 and elapsed < 60.0
    assert report("4 (g1 + runtime)", ok,
                  f"max |solver - closed form| = {worst:.2e} over "
                  f"{len(rows)} points incl. drive {G1_DRIVE} (tol 1e-6); "
                  f"sweep took {elapsed:.1f} s (limit 60 s)")


def test_criterion_4_g2_equivalence(oracle_grid):
    rows, _ = oracle_grid
    compared = [r for r in rows if not r[6]]
    divergent = [r for r in rows if r[6]]
    failing = [r for r in compared if not r[5] <= 5e-3]
    worst = max(r[5] for r in compared)
    # the exclusion is analytic: exactly the points on the ideal Fano zero
    on_zero = [r[:4] for r in rows if on_ideal_fano_zero(*r[:4])]
    ok = not failing and len(compared) >= 154 and [r[:4] for r in divergent] == on_zero
    detail = (f"{len(compared) - len(failing)}/{len(compared)} compared points "
              f"within 5e-3 * max(1, g2) of the zero-drive solver; "
              f"{len(divergent)} point(s) on the ideal Fano zero out of domain; "
              f"worst scaled error {worst:.2e}")
    report("4 (g2)", ok, detail)
    if not ok:
        lines = [f"  T0={r[0]:.2f} zeta={r[1]} beta={r[2]} delta={r[3]:+.0f}: "
                 f"scaled |err|={r[5]:.3g}" for r in failing]
        pytest.fail(
            "criterion 4 (g2) regressed: the weak-pump closed form "
            "g2_tau_general no longer matches the regression solver at "
            f"alpha = 0 within 5e-3 * max(1, |g2|) on {len(compared)} "
            "compared points (at least 154 expected), or the points left "
            "out are not exactly those on the ideal Fano zero "
            f"({[r[:4] for r in divergent]}). Offending points:\n"
            + "\n".join(lines))


def test_criterion_5_reference_configuration_bands():
    model = ModelCurves(REF)
    g2_plus = model.g2zero(9.0)
    g2_minus = model.g2zero(-9.0)
    tr = model.transmission(np.linspace(-40.0, 40.0, 801))
    ok = (1.8 <= g2_plus <= 2.4) and (g2_minus < 1.0) and (0.3 <= tr.min() <= 0.5)
    assert report(5, ok,
                  f"g2(0; +9 ueV) = {g2_plus:.3f} in [1.8, 2.4]; "
                  f"g2(0; -9 ueV) = {g2_minus:.3f} < 1; "
                  f"min transmission = {tr.min():.3f} in [0.3, 0.5]")


def test_criterion_6_wandering_floor():
    sigma = 1.7852
    delta = np.linspace(-12.0, 12.0, 241)
    avg = avg_g1(delta, 1.0, 1.0, 0.0, sigma)
    at = float(delta[np.argmin(avg)])
    floor = float(np.min(avg))
    # Gaussian (standard deviation sigma) average of the ideal dip
    # x^2/(1 + x^2) at its centre: one minus the Voigt profile there
    target = 1.0 - math.sqrt(math.pi / 2.0) / sigma * erfcx(1.0 / (math.sqrt(2.0) * sigma))

    # independent check of the same quantity by adaptive quadrature
    def integrand(x):
        return (x * x / (1 + x * x)) * math.exp(-x * x / (2 * sigma * sigma)) \
            / (math.sqrt(2 * math.pi) * sigma)

    independent = quad(integrand, -np.inf, np.inf)[0]

    ok = (abs(at) < 1e-12
          and abs(floor - target) <= 1e-6
          and abs(independent - target) <= 1e-9)
    detail = (f"averaged transmission minimum = {floor:.10f} at delta = {at:+.2f}, "
              f"adaptive quadrature {independent:.10f}, Gaussian-kernel floor "
              f"{target:.10f}")
    report(6, ok, detail)
    if not ok:
        pytest.fail(
            "criterion 6 regressed: the wandering-averaged dip at "
            f"sigma={sigma} must have its minimum at delta = 0, within 1e-6 "
            "of the Gaussian-kernel floor 1 - sqrt(pi/2)/sigma * "
            "erfcx(1/(sqrt(2) sigma)), and adaptive quadrature must match that "
            f"floor within 1e-9. Got: minimum {floor:.10f} at delta = {at:+.2f} "
            f"(|diff| {abs(floor - target):.2e}), quadrature {independent:.10f} "
            f"(|diff| {abs(independent - target):.2e}), floor {target:.10f}.")


def test_criterion_7_fit_round_trip():
    start = time.time()
    model = ModelCurves(REF)
    det_t = np.linspace(-40.0, 40.0, 25)
    det_g = np.linspace(-20.0, 20.0, 9)
    tau_h = np.arange(-600.0, 600.0 + 1e-9, 12.5)
    T_true = model.transmission(det_t)
    G_true = np.asarray(model.g2zero(det_g))
    H_true = {d: model.g2_trace(d, tau_h) for d in (9.0, -9.0)}

    n_ok = 0
    fails = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        noise = 0.03
        T = T_true * (1 + noise * rng.standard_normal(T_true.shape))
        G = G_true * (1 + noise * rng.standard_normal(G_true.shape))
        hists = tuple(
            G2Histogram(detuning=d,
                        tau_ps=tau_h,
                        counts=H_true[d] * (1 + noise * rng.standard_normal(tau_h.shape)),
                        uncertainty=noise * np.abs(H_true[d]))
            for d in (9.0, -9.0))
        data = MeasurementSet(
            transmission=np.column_stack([det_t, T, noise * np.abs(T_true)]),
            g2zero=np.column_stack([det_g, G, noise * np.abs(G_true)]),
            g2_histograms=hists)

        pert = 1 + 0.2 * rng.uniform(-1, 1, 5)
        start_params = REF.replace(
            lifetime=REF.lifetime * pert[0],
            dephasing_time=REF.dephasing_time * pert[1],
            t0=min(REF.t0 * pert[2], 0.98),
            beta=min(REF.beta * pert[3], 0.999),
            sigma_wander=REF.sigma_wander * pert[4],
            omega0=2.0 * rng.uniform(-1, 1))
        res = fit_full_model(data, start_params)
        p = res.params
        good = (abs(p.t0 - REF.t0) / REF.t0 < 0.05
                and abs(p.beta - REF.beta) / REF.beta < 0.05
                and abs(p.sigma_wander - REF.sigma_wander) / REF.sigma_wander < 0.05
                and abs(1 / p.lifetime - 1 / REF.lifetime) * REF.lifetime < 0.05
                and abs(p.omega0 - REF.omega0) < 1.0)
        n_ok += good
        if not good:
            fails.append(seed)
    elapsed = time.time() - start
    ok = n_ok >= 45 and elapsed < 300.0
    assert report(7, ok,
                  f"{n_ok}/50 trials recovered t0, beta, sigma, gamma within "
                  f"5% and omega0 within 1 ueV (need >= 45); failing seeds "
                  f"{fails}; {elapsed:.0f} s (limit 300 s)")


def test_criterion_8_identity_suite():
    problems = []

    # zero wandering width: averaging is the identity
    delta = np.linspace(-6.0, 6.0, 25)
    phi = phi_from_t0(0.62)
    if not np.array_equal(avg_g1(delta, 1.05, 0.9, phi, 0.0),
                          g1_general(delta, 1.05, 0.9, phi)):
        problems.append("sigma=0 averaging identity")
    tau = np.linspace(0.0, 6.0, 40)
    if not np.allclose(avg_g2(tau, np.asarray(1.5), 1.05, 0.9, phi, 0.0, 0.0),
                       g2_tau_general(tau, 1.5, 1.05, 0.9, phi), atol=0):
        problems.append("sigma=0 g2 averaging identity")

    # vanishing detector width: the detected g2 tends to the bare one. The
    # tiny width is the overflow-prone corner; at tau = 0 the cusp of g2
    # lowers the detected value by s*sqrt(2/pi)*|slope| (about 7e-8 here)
    s = 1e-7
    bare, _ = g2_tau_parts(tau, 1.5, 1.05, 0.9, phi)
    detected, _ = g2_tau_parts(tau, 1.5, 1.05, 0.9, phi, t_resp=s)
    c = g2_coefficients(1.5, 1.05, 0.9, phi)
    slope = -2 * c.A - 1.05 * (c.g2zero - c.g1**2 - c.A) + 1.5 * c.B
    cusp = np.where(tau == 0.0, s * math.sqrt(2 / math.pi) * slope, 0.0)
    if not np.max(np.abs(detected - bare - cusp)) <= 1e-9:
        problems.append("t_resp -> 0 detection limit")

    # decoupled emitter: coherent output everywhere
    if abs(g1_general(0.7, 1.2, 0.0, phi) - 1.0) > 1e-15:
        problems.append("beta=0 transmission")
    if np.max(np.abs(g2_tau_general(tau, 0.7, 1.2, 0.0, phi) - 1.0)) > 1e-15:
        problems.append("beta=0 closed-form g2")
    g1, g2 = output_correlators(tau, [0.7], 1.2, 1e-3, phi, 0.0)
    if abs(g1[0] - 1.0) > 1e-15:
        problems.append("beta=0 solver transmission")
    if np.max(np.abs(g2[0] - 1.0)) > 1e-15:
        problems.append("beta=0 solver g2")

    # background matrix unitary across the full range, and the phase the
    # program derives from t0 is its own: cos(phi) = t0, sin(phi) = r0
    worst_defect = worst_phase = 0.0
    for t0 in np.linspace(0.0, 1.0, 101):
        S = scattering_matrix(t0)
        phi = phi_from_t0(t0)
        worst_defect = max(worst_defect, np.max(np.abs(S.conj().T @ S - np.eye(2))))
        worst_phase = max(worst_phase, abs(math.cos(phi) - S[0, 0]),
                          abs(1j * math.sin(phi) - S[0, 1]))
    if worst_defect > 1e-12:
        problems.append(f"unitarity defect {worst_defect:.1e}")
    if worst_phase > 1e-15:
        problems.append(f"phi_from_t0 off the background by {worst_phase:.1e}")

    ok = not problems
    assert report(8, ok, "all identities hold" if ok else
                  f"failed: {', '.join(problems)}"), problems

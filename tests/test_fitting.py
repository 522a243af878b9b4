import json

import numpy as np
import pytest

from scipy.optimize import least_squares

from fanostat import (G2Histogram, MeasurementSet, ModelCurves, PhysicalParams,
                      fit_full_model, fit_report)
from fanostat import fitting
from fanostat.fitting import (DEFAULT_BOUNDS, FIT_FIELDS, _Objective,
                              _transformed_bounds, pack_params, unpack_params)

REF = PhysicalParams()


def synthetic_data(params=REF, noise=0.0, seed=0, histograms=True,
                   n_trans=25, n_g2=9):
    rng = np.random.default_rng(seed)
    model = ModelCurves(params)
    det_t = np.linspace(-40, 40, n_trans)
    det_g = np.linspace(-20, 20, n_g2)
    T = model.transmission(det_t)
    G = np.asarray(model.g2zero(det_g))
    T_n = T * (1 + noise * rng.standard_normal(T.shape))
    G_n = G * (1 + noise * rng.standard_normal(G.shape))
    sT = np.maximum(noise, 1e-4) * np.abs(T)
    sG = np.maximum(noise, 1e-4) * np.abs(G)
    hists = ()
    if histograms:
        tau = np.arange(-600.0, 600.0 + 1e-9, 12.5)
        hs = []
        for det in (9.0, -9.0):
            curve = model.g2_trace(det, tau)
            noisy = curve * (1 + noise * rng.standard_normal(curve.shape))
            hs.append(G2Histogram(detuning=det, tau_ps=tau, counts=noisy,
                                  uncertainty=np.maximum(noise, 1e-4) * np.abs(curve)))
        hists = tuple(hs)
    return MeasurementSet(transmission=np.column_stack([det_t, T_n, sT]),
                          g2zero=np.column_stack([det_g, G_n, sG]),
                          g2_histograms=hists)


def criterion7_trial(seed):
    """Data and start of one trial of acceptance criterion 7."""
    model = ModelCurves(REF)
    det_t, det_g = np.linspace(-40.0, 40.0, 25), np.linspace(-20.0, 20.0, 9)
    tau = np.arange(-600.0, 600.0 + 1e-9, 12.5)
    T_true, G_true = model.transmission(det_t), np.asarray(model.g2zero(det_g))
    H_true = {d: model.g2_trace(d, tau) for d in (9.0, -9.0)}
    rng = np.random.default_rng(seed)
    noise = 0.03
    T = T_true * (1 + noise * rng.standard_normal(T_true.shape))
    G = G_true * (1 + noise * rng.standard_normal(G_true.shape))
    hists = tuple(
        G2Histogram(detuning=d, tau_ps=tau,
                    counts=H_true[d] * (1 + noise * rng.standard_normal(tau.shape)),
                    uncertainty=noise * np.abs(H_true[d]))
        for d in (9.0, -9.0))
    data = MeasurementSet(
        transmission=np.column_stack([det_t, T, noise * np.abs(T_true)]),
        g2zero=np.column_stack([det_g, G, noise * np.abs(G_true)]),
        g2_histograms=hists)
    pert = 1 + 0.2 * rng.uniform(-1, 1, 5)
    start = REF.replace(
        lifetime=REF.lifetime * pert[0],
        dephasing_time=REF.dephasing_time * pert[1],
        t0=min(REF.t0 * pert[2], 0.98),
        beta=min(REF.beta * pert[3], 0.999),
        sigma_wander=REF.sigma_wander * pert[4],
        omega0=2.0 * rng.uniform(-1, 1))
    return data, start


def residual_vector(obj, x):
    """``obj.residuals`` at the packed ``x``, concatenated in sorted key order."""
    res = obj.residuals(unpack_params(x, obj.template))
    return np.concatenate([res[key] for key in sorted(res)])


def objective(params, data):
    """Sum of squares of the finite residuals at ``params``."""
    res = _Objective(data, params).residuals(params)
    vec = np.concatenate(list(res.values()))
    vec = vec[np.isfinite(vec)]
    return float(np.dot(vec, vec))


def central_jacobian(obj, x, h=1e-4):
    """Fourth-order central differences of the residuals, column by column."""
    cols = []
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h * max(1.0, abs(x[j]))
        f = [residual_vector(obj, x + k * step) for k in (-2, -1, 1, 2)]
        cols.append((f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * step[j]))
    return np.column_stack(cols)


def assert_exact_jacobian(obj, x):
    vec, J = obj.vector_and_jacobian(x)
    assert np.array_equal(vec, residual_vector(obj, x))
    fd = central_jacobian(obj, x)
    # per column, by max-norm
    err = np.max(np.abs(J - fd), axis=0) / np.max(np.abs(fd), axis=0)
    assert np.all(err < 1e-6), dict(zip(FIT_FIELDS, err))


def scaled_counts(data, factor):
    """``data`` with every histogram's counts and uncertainties times ``factor``."""
    return MeasurementSet(
        transmission=data.transmission, g2zero=data.g2zero,
        g2_histograms=tuple(
            G2Histogram(detuning=h.detuning, tau_ps=h.tau_ps, counts=factor * h.counts,
                        uncertainty=factor * h.uncertainty) for h in data.g2_histograms))


class TestModelObjective:
    def test_zero_at_generator(self):
        data = synthetic_data(noise=0.0, histograms=False)
        assert objective(REF, data) < 1e-10
        # histograms of coincidence counts, not of g2: the fitted count
        # scale absorbs the factor
        hists = MeasurementSet(g2_histograms=synthetic_data(noise=0.0).g2_histograms)
        assert objective(REF, scaled_counts(hists, 1000.0)) < 1e-10

    def test_perturbing_t0_increases(self):
        data = synthetic_data(noise=0.0, histograms=False)
        base = objective(REF, data)
        moved = objective(REF.replace(t0=REF.t0 + 0.05), data)
        assert moved > base + 1.0

    def test_reorder_invariance(self):
        data = synthetic_data(noise=0.02, histograms=False)
        rng = np.random.default_rng(0)
        perm = rng.permutation(data.transmission.shape[0])
        shuffled = MeasurementSet(transmission=data.transmission[perm],
                                  g2zero=data.g2zero,
                                  g2_histograms=data.g2_histograms)
        assert objective(REF, shuffled) == pytest.approx(
            objective(REF, data), rel=1e-12)

    def test_weight_scaling(self):
        data = synthetic_data(noise=0.02, histograms=False)
        scaled = MeasurementSet(
            transmission=data.transmission * np.array([1.0, 1.0, 2.0]),
            g2zero=data.g2zero * np.array([1.0, 1.0, 2.0]))
        assert objective(REF, scaled) == pytest.approx(
            objective(REF, data) / 4.0, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_full_model(MeasurementSet(), REF)


class TestPackUnpack:
    def test_roundtrip(self):
        p = PhysicalParams(omega0=1.5, lifetime=140.0, dephasing_time=5e4,
                           beta=0.87, t0=0.55, sigma_wander=3.3)
        back = unpack_params(pack_params(p), p)
        for name, val in p.to_mapping().items():
            assert getattr(back, name) == pytest.approx(val, rel=1e-12)


class TestFitFullModel:
    def test_noiseless_from_truth(self):
        data = synthetic_data(noise=0.0, histograms=False)
        res = fit_full_model(data, REF)
        assert res.converged
        assert res.objective < 1e-8
        assert res.params.t0 == pytest.approx(REF.t0, abs=1e-5)
        assert res.params.beta == pytest.approx(REF.beta, abs=1e-5)

    def test_recovered_objective_not_above_generator(self):
        data = synthetic_data(noise=0.03, seed=11)
        res = fit_full_model(data, REF)
        assert res.objective <= objective(REF, data) + 1e-9

    def test_single_noisy_roundtrip(self):
        data = synthetic_data(noise=0.03, seed=2)
        rng = np.random.default_rng(1002)
        start = REF.replace(
            lifetime=REF.lifetime * (1 + 0.2 * rng.uniform(-1, 1)),
            t0=min(REF.t0 * (1 + 0.2 * rng.uniform(-1, 1)), 0.98),
            beta=min(REF.beta * (1 + 0.2 * rng.uniform(-1, 1)), 0.999),
            sigma_wander=REF.sigma_wander * (1 + 0.2 * rng.uniform(-1, 1)),
            omega0=2.0 * rng.uniform(-1, 1))
        res = fit_full_model(data, start)
        assert res.converged
        assert abs(res.params.t0 - REF.t0) / REF.t0 < 0.05
        assert abs(res.params.beta - REF.beta) / REF.beta < 0.05
        assert abs(res.params.omega0 - REF.omega0) < 1.0

    def test_multi_start_identifiability(self):
        # noiseless objective: every start lands at the generator or at a
        # strictly worse local minimum
        data = synthetic_data(noise=0.0, histograms=False, n_trans=25, n_g2=9)
        rng = np.random.default_rng(7)
        at_truth = 0
        for _ in range(16):
            start = PhysicalParams(
                omega0=rng.uniform(-5, 5),
                lifetime=REF.lifetime * rng.uniform(0.6, 1.6),
                dephasing_time=REF.dephasing_time * rng.uniform(0.5, 2.0),
                beta=rng.uniform(0.4, 0.999),
                t0=rng.uniform(0.2, 0.95),
                sigma_wander=REF.sigma_wander * rng.uniform(0.4, 2.5))
            res = fit_full_model(data, start)
            if res.objective < 1e-6:
                assert abs(res.params.t0 - REF.t0) < 5e-3
                assert abs(res.params.omega0 - REF.omega0) < 0.05
                at_truth += 1
            else:
                assert res.objective > 1e-4
        assert at_truth >= 8

    def test_excluded_residuals_counted_once_at_solution(self, monkeypatch):
        data = synthetic_data(noise=0.0, histograms=False)
        g2_curves = ModelCurves.g2_curves

        def one_nan(self, requests):
            out = [np.array(c, dtype=float) for c in g2_curves(self, requests)]
            out[0][0] = np.nan      # the first g2(0) point
            return out

        monkeypatch.setattr(ModelCurves, "g2_curves", one_nan)
        res = fit_full_model(data, REF)
        assert res.n_excluded == 1
        assert res.objective == pytest.approx(objective(res.params, data), rel=1e-12)
        # the report summarizes the finite residuals and stays strict JSON
        report = fit_report(res, data)
        g2 = report["residual_summary"]["g2zero"]
        assert g2["n"] == data.g2zero.shape[0] - 1
        assert g2["rms"] == pytest.approx(np.sqrt(np.mean(res.residuals["g2zero"][1:] ** 2)))
        json.dumps(report, allow_nan=False)

    def test_bounds_violation_rejected(self):
        data = synthetic_data(noise=0.0, histograms=False)
        with pytest.raises(ValueError, match="bounds"):
            fit_full_model(data, REF.replace(sigma_wander=0.01))

    @pytest.mark.parametrize("name,low,high,message", [
        ("dephasing_time", 100.0, float("inf"), r"upper bound dephasing_time = inf .*\(0, inf\)"),
        ("sigma_wander", 0.0, 50.0, r"lower bound sigma_wander = 0\.0 .*\(0, inf\)"),
        ("t0", 0.02, 1.0, r"upper bound t0 = 1\.0 .*\(0, 1\)"),
        ("beta", 0.05, 1.0, r"upper bound beta = 1\.0 .*\(0, 1\)"),
        ("omega0", 0.0, 0.0, r"bounds omega0 = \(0\.0, 0\.0\) pack to \[0, 0\]"),
        ("lifetime", 5e-324, 2000.0, r"bounds lifetime = .* pack to \[-7\.6\d*, inf\]")])
    def test_bounds_outside_the_packing_name_the_field(self, monkeypatch, name, low,
                                                      high, message):
        # every value is a valid PhysicalParams field, but the packing maps it
        # to no finite coordinate, or the pair to an empty range
        def solver(*args, **kwargs):
            raise AssertionError("the solver was called")
        monkeypatch.setattr(fitting, "least_squares", solver)
        data = synthetic_data(noise=0.0, histograms=False, n_trans=5, n_g2=3)
        with pytest.raises(ValueError, match=message):
            fit_full_model(data, REF, bounds={name: (low, high)})

    def test_start_past_the_square_of_dephasing_time(self):
        # T2^2 overflows beyond about 1.3e154 ps, where the T2 partial
        # underflows to 0: the fit runs from there to a finite optimum
        data = synthetic_data(noise=0.0, histograms=False)
        result = fit_full_model(data, REF.replace(dephasing_time=1e200),
                                bounds={"dephasing_time": (100.0, 1e300)})
        assert result.converged
        assert np.isfinite(result.objective)

    def test_bad_options_rejected(self):
        # a misspelt bounds key or a weight that excludes every g2 residual
        # must not be dropped silently
        data = synthetic_data(noise=0.0, histograms=False)
        with pytest.raises(ValueError, match=r"unknown bounds keys: \['sigma'\]"):
            fit_full_model(data, REF, bounds={"sigma": (2.0, 3.5)})
        for weight in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="g2_weight must be finite and non-negative"):
                fit_full_model(data, REF, g2_weight=weight)

    def test_sequential_mode(self):
        data = synthetic_data(noise=0.02, seed=3, histograms=False)
        res = fit_full_model(data, REF, mode="sequential")
        assert res.converged
        assert abs(res.params.t0 - REF.t0) / REF.t0 < 0.1

    def test_report_structure(self):
        data = synthetic_data(noise=0.02, seed=4, histograms=False)
        res = fit_full_model(data, REF)
        rep = fit_report(res, data)
        assert set(rep) >= {"parameters", "dimensionless", "objective",
                            "converged", "bounds_hit", "residual_summary",
                            "conventions", "parameter_stderr"}
        assert rep["conventions"]["reduced_time"].startswith("tau_t")
        assert rep["data_summary"]["transmission_points"] == 25


    @pytest.mark.parametrize("span,n", [(20, 4), (30, 4), (40, 5), (40, 4)])
    def test_singular_curvature_gives_no_stderr(self, span, n):
        # 4 or 5 transmission points cannot fix 6 parameters: the Jacobian
        # has rank 4 or 5, whether or not inverting J.T @ J happens to fail
        det = np.linspace(-span, span, n)
        data = MeasurementSet(transmission=np.column_stack(
            [det, ModelCurves(REF).transmission(det), np.full(n, 0.01)]))
        res = fit_full_model(data, REF)
        assert res.stderr == dict.fromkeys(FIT_FIELDS)
        rep = json.loads(json.dumps(fit_report(res, data), allow_nan=False))
        assert rep["parameter_stderr"] == dict.fromkeys(FIT_FIELDS)

    def test_stderr_counts_only_finite_residuals(self, monkeypatch):
        # one excluded residual leaves n - 1 - 6 degrees of freedom
        data = synthetic_data(noise=0.02, seed=5, histograms=False)
        g2_curves = ModelCurves.g2_curves

        def one_nan(self, requests):
            out = [np.array(c, dtype=float) for c in g2_curves(self, requests)]
            out[0][0] = np.nan      # the first g2(0) point
            return out

        seen = {}
        stderr_proxy = fitting._stderr_proxy

        def spy(sol, params, n_res):
            seen["sol"] = sol
            return stderr_proxy(sol, params, n_res)

        monkeypatch.setattr(ModelCurves, "g2_curves", one_nan)
        monkeypatch.setattr(fitting, "_stderr_proxy", spy)
        res = fit_full_model(data, REF)
        assert res.n_excluded == 1
        sol, p = seen["sol"], res.params
        dof = data.n_points - 1 - 6
        cov = np.linalg.inv(sol.jac.T @ sol.jac) * 2.0 * sol.cost / dof
        slopes = [1.0, p.lifetime, p.dephasing_time, p.sigma_wander,
                  p.t0 * (1 - p.t0), p.beta * (1 - p.beta)]
        want = np.sqrt(np.diag(cov)) * slopes
        got = [res.stderr[k] for k in FIT_FIELDS]
        assert got == pytest.approx(want, rel=1e-12)
        # the solve saw the NaN too: its cost leaves the residual out
        assert 2.0 * sol.cost == pytest.approx(res.objective, rel=1e-12)

    def test_non_finite_histogram_value_excludes_its_histogram(self, monkeypatch):
        # one NaN model value gives its histogram a NaN count scale: all its
        # residuals are excluded, and only the other histogram's scale
        # takes a degree of freedom from the stderr
        data = synthetic_data(noise=0.02, seed=5)
        g2_curves = ModelCurves.g2_curves

        def one_nan(self, requests):
            out = [np.array(c, dtype=float) for c in g2_curves(self, requests)]
            # the histograms share one delay grid, whose request comes last
            out[-1][(0, 5, 0) if self.jac else (0, 5)] = np.nan
            return out

        seen = {}
        stderr_proxy = fitting._stderr_proxy

        def spy(sol, params, n_res):
            seen["n_res"] = n_res
            return stderr_proxy(sol, params, n_res)

        monkeypatch.setattr(ModelCurves, "g2_curves", one_nan)
        monkeypatch.setattr(fitting, "_stderr_proxy", spy)
        res = fit_full_model(data, REF)
        n_bins = data.g2_histograms[0].tau_ps.size
        assert np.all(np.isnan(res.residuals["g2_histogram_0"]))
        assert np.all(np.isfinite(res.residuals["g2_histogram_1"]))
        assert res.n_excluded == n_bins
        assert seen["n_res"] == data.n_points - n_bins - 1

    def test_non_finite_model_values_zeroed_in_the_solve(self, monkeypatch):
        # a NaN value and a NaN partial on the Jacobian path: the row of the
        # NaN value is zero, so is the NaN partial, and the rest is kept
        data = synthetic_data(noise=0.0, histograms=False)
        g2_curves = ModelCurves.g2_curves

        def poisoned(self, requests):
            out = [np.array(c, dtype=float) for c in g2_curves(self, requests)]
            if self.jac:
                out[0][0, 0] = np.nan   # the value of the first g2(0) point
                out[0][1, 3] = np.nan   # its dephasing_time partial, second point
            else:
                out[0][0] = np.nan
            return out

        obj = _Objective(data, REF)
        x = pack_params(REF.replace(lifetime=150.0, t0=0.5))
        clean_vec, clean_J = obj.vector_and_jacobian(x)
        monkeypatch.setattr(ModelCurves, "g2_curves", poisoned)
        vec, J = obj.vector_and_jacobian(x)
        assert np.all(np.isfinite(vec)) and np.all(np.isfinite(J))
        # g2zero rows come first (datasets in key order)
        col = FIT_FIELDS.index("dephasing_time")
        assert np.all(clean_J[0] != 0.0) and clean_J[1, col] != 0.0
        assert vec[0] == 0.0 and not np.any(J[0])
        assert J[1, col] == 0.0
        assert np.array_equal(vec[1:], clean_vec[1:])
        kept = np.ones(J.shape, dtype=bool)
        kept[0] = False
        kept[1, col] = False
        assert np.array_equal(J[kept], clean_J[kept])
        assert fit_full_model(data, REF).n_excluded == 1

    @pytest.mark.xfail(strict=True, reason=(
        "open fault, ROADMAP item 7: on data that fix fewer than the six "
        "fields the trust-region solver walks the Jacobian's null space, "
        "here for 2093 evaluations, before its gradient test passes"))
    def test_underdetermined_fit_stops_early(self, monkeypatch):
        # seven transmission points, four of them at delta ~ 0, and a
        # one-bin histogram; the solver is capped at 200 evaluations (a
        # criterion-7 fit takes about 12) so that the failure is quick
        m = ModelCurves(PhysicalParams())
        det = np.array([4.7625842175658736e-214, -6.103515625e-05, -16.498763148790886,
                        40.0, 6.3467005555115747, -2.2250738585072014e-308, 0.0])
        trans = m.transmission(det)
        tau = np.array([-0.0])
        counts = 1000.0 * m.g2_trace(0.0, tau)
        data = MeasurementSet(
            transmission=np.column_stack([det, trans, 0.03 * trans]),
            g2_histograms=(G2Histogram(detuning=0.0, tau_ps=tau, counts=counts,
                                       uncertainty=0.03 * counts),))

        def capped(*args, **kwargs):
            return least_squares(*args, **{**kwargs, "max_nfev": 200})
        monkeypatch.setattr(fitting, "least_squares", capped)
        assert fit_full_model(data, PhysicalParams(t0=0.55)).n_eval < 200

    def test_one_residual_evaluation_per_solver_evaluation(self, monkeypatch):
        # the residuals at the solution are those of the solver's last
        # evaluation, which is there: no evaluation after the solve
        data = synthetic_data(noise=0.02, seed=4)
        start = REF.replace(t0=0.6, sigma_wander=0.8)
        calls = []
        residuals = _Objective.residuals

        def counted(self, params, jac=False):
            calls.append(jac)
            return residuals(self, params, jac)
        monkeypatch.setattr(_Objective, "residuals", counted)
        res = fit_full_model(data, start)
        assert len(calls) == res.n_eval and all(calls)
        monkeypatch.undo()
        want = _Objective(data, start).residuals(res.params)
        assert res.residuals.keys() == want.keys()
        for key, value in want.items():
            assert np.array_equal(res.residuals[key], value), key

    def test_residuals_taken_anew_away_from_the_last_evaluation(self, monkeypatch):
        # as after another start: the last evaluation is not at the solution
        data = synthetic_data(noise=0.02, seed=4, histograms=False)
        single_fit = fitting._single_fit

        def then_elsewhere(obj, x0, lo, hi):
            sol = single_fit(obj, x0, lo, hi)
            obj.vector_and_jacobian(np.clip(x0, lo + 1e-9, hi - 1e-9))
            return sol
        monkeypatch.setattr(fitting, "_single_fit", then_elsewhere)
        start = REF.replace(t0=0.6)
        res = fit_full_model(data, start)
        want = _Objective(data, start).residuals(res.params)
        for key, value in want.items():
            assert np.array_equal(res.residuals[key], value), key

    def test_report_counts_jacobian_evaluations(self):
        data = synthetic_data(noise=0.02, seed=4, histograms=False)
        res = fit_full_model(data, REF)
        rep = fit_report(res, data)
        assert rep["n_jev"] == res.n_jev
        assert 1 <= res.n_jev <= res.n_eval


class TestJacobian:
    """The analytic Jacobian of the weighted residuals against differences."""

    @pytest.fixture(scope="class")
    def trial0(self):
        return criterion7_trial(0)

    @pytest.mark.parametrize("where", ["start", "truth", "lower-bounds",
                                       "upper-bounds"])
    def test_criterion_7_data(self, trial0, where):
        data, start = trial0
        p = {"start": start, "truth": REF,
             "lower-bounds": start.replace(sigma_wander=0.2, t0=0.02),
             "upper-bounds": start.replace(sigma_wander=50.0, t0=0.995)}[where]
        assert_exact_jacobian(_Objective(data, start), pack_params(p))

    def test_ideal_detector(self, trial0):
        data, start = trial0
        obj = _Objective(data, start.replace(detector_resp=0.0))
        assert_exact_jacobian(obj, pack_params(start))

    def test_driven_transmission_only(self):
        # alpha = 4 beta drive^2 lifetime moves with beta and the lifetime
        driven = REF.replace(drive_amp=0.05)
        det = np.linspace(-40.0, 40.0, 25)
        T = ModelCurves(driven).transmission(det)
        noisy = T * (1 + 0.02 * np.random.default_rng(3).standard_normal(T.shape))
        data = MeasurementSet(transmission=np.column_stack([det, noisy, 0.02 * T]))
        start = driven.replace(lifetime=140.0, beta=0.8, t0=0.5, omega0=1.0)
        assert_exact_jacobian(_Objective(data, start), pack_params(start))

    def test_sequential_stage_one(self, trial0):
        data, start = trial0
        obj = _Objective(data, start, datasets=("transmission",))
        assert_exact_jacobian(obj, pack_params(start))

    def test_fit_agrees_with_finite_difference_solve(self, trial0):
        data, start = trial0
        res = fit_full_model(data, start)
        lo, hi = _transformed_bounds(DEFAULT_BOUNDS)
        obj = _Objective(data, start)
        sol = least_squares(lambda x: residual_vector(obj, x),
                            np.clip(pack_params(start), lo + 1e-9, hi - 1e-9),
                            jac="2-point", bounds=(lo, hi), method="trf",
                            x_scale="jac", ftol=1e-10, gtol=1e-8, xtol=1e-10)
        fd = unpack_params(sol.x, start)
        for name in FIT_FIELDS:
            assert getattr(res.params, name) == pytest.approx(
                getattr(fd, name), rel=1e-5), name


class TestHistogramNormalization:
    def test_count_scale_leaves_the_fit_unchanged(self):
        data, start = criterion7_trial(0)
        res = fit_full_model(data, start)
        scaled = fit_full_model(scaled_counts(data, 1000.0), start)
        for name in FIT_FIELDS:
            assert getattr(scaled.params, name) == pytest.approx(
                getattr(res.params, name), rel=1e-10), name
        assert scaled.objective == pytest.approx(res.objective, rel=1e-10)

    def test_poisson_default(self):
        tau = np.linspace(-100, 100, 11)
        h = G2Histogram(detuning=0.0, tau_ps=tau, counts=np.array([0.0] + [400.0] * 10))
        assert h.uncertainty[0] == 1.0
        assert np.all(h.uncertainty[1:] == 20.0)

    def test_rejects_no_positive_count(self):
        # a histogram with no positive count fixes no scale, and its
        # projected residuals would all be zero
        with pytest.raises(ValueError, match="no positive count"):
            G2Histogram(detuning=9.0, tau_ps=np.array([-50.0, 0.0, 50.0]),
                        counts=np.zeros(3))

    def test_caller_arrays_stay_writeable(self):
        # the record freezes copies: the caller may reuse its arrays, and
        # writing to them leaves the record as it was built
        tau, cnt, unc = np.array([-50.0, 0.0, 50.0]), np.array([100.0, 60.0, 100.0]), \
            np.array([10.0, 8.0, 10.0])
        h = G2Histogram(detuning=9.0, tau_ps=tau, counts=cnt, uncertainty=unc)
        for arr in (tau, cnt, unc):
            assert arr.flags.writeable
            arr[0] = 7.0
        assert h.tau_ps.tolist() == [-50.0, 0.0, 50.0]
        assert h.counts.tolist() == [100.0, 60.0, 100.0]
        assert h.uncertainty.tolist() == [10.0, 8.0, 10.0]
        assert not any(a.flags.writeable for a in (h.tau_ps, h.counts, h.uncertainty))

    def test_validation(self):
        with pytest.raises(ValueError):
            G2Histogram(detuning=0.0, tau_ps=np.array([0.0, 1.0]),
                        counts=np.array([-1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["detuning", "tau_ps", "counts", "uncertainty"])
    def test_rejects_non_finite(self, field, bad):
        # one NaN count in the tail would make every residual of the
        # histogram NaN, and the fit would drop it whole
        valid = dict(detuning=9.0, tau_ps=np.array([-50.0, 0.0, 50.0]),
                     counts=np.array([100.0, 60.0, 100.0]),
                     uncertainty=np.array([10.0, 8.0, 10.0]))
        G2Histogram(**valid)
        if field != "detuning":
            bad = np.where([False, False, True], bad, valid[field])
        with pytest.raises(ValueError, match="finite"):
            G2Histogram(**{**valid, field: bad})


class TestMeasurementSet:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("table", ["transmission", "g2zero"])
    def test_rejects_non_finite(self, table, column, bad):
        # an infinite uncertainty would zero its point's weight silently
        valid = np.array([[-9.0, 0.8, 0.03], [0.0, 0.5, 0.03], [9.0, 0.9, 0.03]])
        MeasurementSet(**{table: valid})
        arr = valid.copy()
        arr[2, column] = bad
        with pytest.raises(ValueError, match="finite"):
            MeasurementSet(**{table: arr})

    @pytest.mark.parametrize("table", ["transmission", "g2zero"])
    def test_caller_arrays_stay_writeable(self, table):
        arr = np.array([[-9.0, 0.8, 0.03], [0.0, 0.5, 0.03], [9.0, 0.9, 0.03]])
        data = MeasurementSet(**{table: arr})
        assert arr.flags.writeable
        arr[1, 1] = 7.0
        assert getattr(data, table)[1, 1] == 0.5
        assert not getattr(data, table).flags.writeable


def test_stderr_covers_the_truth():
    # the criterion-7 datasets: the true value lies within +-1.96 stderr in
    # at least 0.9 of the fits for every field but the dephasing time, whose
    # fits end on its arbitrary bound in about a quarter of the trials
    # (50 fits, about 3.4 s)
    fields = ("omega0", "lifetime", "sigma_wander", "t0", "beta")
    covered = dict.fromkeys(fields, 0)
    for seed in range(50):
        data, start = criterion7_trial(seed)
        res = fit_full_model(data, start)
        for name in fields:
            err = abs(getattr(res.params, name) - getattr(REF, name))
            covered[name] += err <= 1.96 * res.stderr[name]
    fraction = {name: n / 50 for name, n in covered.items()}
    assert min(fraction.values()) >= 0.9, fraction

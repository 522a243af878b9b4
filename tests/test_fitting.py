import numpy as np
import pytest

from fanostat import (G2Histogram, MeasurementSet, ModelCurves, PhysicalParams,
                      fit_full_model, fit_report, model_objective)
from fanostat.fitting import pack_params, unpack_params

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


class TestModelObjective:
    def test_zero_at_generator(self):
        data = synthetic_data(noise=0.0, histograms=False)
        assert model_objective(REF, data) < 1e-10

    def test_perturbing_t0_increases(self):
        data = synthetic_data(noise=0.0, histograms=False)
        base = model_objective(REF, data)
        moved = model_objective(REF.replace(t0=REF.t0 + 0.05), data)
        assert moved > base + 1.0

    def test_reorder_invariance(self):
        data = synthetic_data(noise=0.02, histograms=False)
        rng = np.random.default_rng(0)
        perm = rng.permutation(data.transmission.shape[0])
        shuffled = MeasurementSet(transmission=data.transmission[perm],
                                  g2zero=data.g2zero,
                                  g2_histograms=data.g2_histograms)
        assert model_objective(REF, shuffled) == pytest.approx(
            model_objective(REF, data), rel=1e-12)

    def test_weight_scaling(self):
        data = synthetic_data(noise=0.02, histograms=False)
        scaled = MeasurementSet(
            transmission=data.transmission * np.array([1.0, 1.0, 2.0]),
            g2zero=data.g2zero * np.array([1.0, 1.0, 2.0]))
        assert model_objective(REF, scaled) == pytest.approx(
            model_objective(REF, data) / 4.0, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            model_objective(REF, MeasurementSet())


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
        assert res.objective <= model_objective(REF, data) + 1e-9

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
        g2zero = ModelCurves.g2zero

        def one_nan(self, detuning_uev):
            out = np.array(g2zero(self, detuning_uev), dtype=float)
            out[0] = np.nan
            return out

        monkeypatch.setattr(ModelCurves, "g2zero", one_nan)
        res = fit_full_model(data, REF)
        assert res.n_excluded == 1
        with pytest.warns(RuntimeWarning, match="^1 residual"):
            model_objective(REF, data)

    def test_bounds_violation_rejected(self):
        data = synthetic_data(noise=0.0, histograms=False)
        with pytest.raises(ValueError, match="bounds"):
            fit_full_model(data, REF.replace(sigma_wander=0.01))

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


class TestHistogramNormalization:
    def test_normalized_tail(self):
        tau = np.linspace(-500, 500, 201)
        counts = 1000.0 * (1 + np.exp(-np.abs(tau) / 60.0))
        h = G2Histogram(detuning=9.0, tau_ps=tau, counts=counts)
        vals, sig = h.normalized()
        assert vals[len(vals) // 2] == pytest.approx(2.0, abs=0.01)
        assert np.all(sig > 0)

    def test_poisson_default(self):
        tau = np.linspace(-100, 100, 11)
        h = G2Histogram(detuning=0.0, tau_ps=tau, counts=np.full(11, 400.0))
        vals, sig = h.normalized()
        assert sig[0] == pytest.approx(20.0 / 400.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            G2Histogram(detuning=0.0, tau_ps=np.array([0.0, 1.0]),
                        counts=np.array([-1.0, 2.0]))
